//! Job launch: stand up an N-process world on a simulated fabric.

use crate::directory::JobDirectory;
use portals::{NiConfig, Node, NodeConfig};
use portals_mpi::{Communicator, Mpi, MpiConfig};
use portals_net::{Fabric, FabricConfig};
use portals_obs::Obs;
use portals_transport::TransportConfig;
use portals_types::{NodeId, ProcessId, Rank};
use std::sync::Arc;

/// Launch-time options.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Fabric configuration (link model, faults, seed).
    pub fabric: FabricConfig,
    /// Transport tuning for every node's endpoint, including who runs the
    /// protocol ([`TransportConfig::progress_mode`]).
    pub transport: TransportConfig,
    /// MPI layer configuration.
    pub mpi: MpiConfig,
    /// Processes per node (the paper's machines ran multiple communicating
    /// processes per node, §2).
    pub procs_per_node: usize,
    /// Configuration of every rank's interface: resource limits, the job id
    /// registered in the directory, §4.8 flow control or drop-and-count.
    pub ni: NiConfig,
    /// Job-wide observability handle: every layer — fabric, transports,
    /// nodes, interfaces — registers its metrics in this one registry and
    /// emits lifecycle traces to its sinks, so invariants can be checked by
    /// summing series across the whole world.
    pub obs: Obs,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            fabric: FabricConfig::ideal(),
            transport: TransportConfig::default(),
            mpi: MpiConfig::default(),
            procs_per_node: 1,
            ni: NiConfig {
                job: 1,
                ..NiConfig::default()
            },
            obs: Obs::default(),
        }
    }
}

/// What each rank's application function receives.
pub struct ProcessEnv {
    /// This process's world communicator.
    pub comm: Communicator,
    /// The full MPI context (for `engine()` access etc.).
    pub mpi: Mpi,
    /// The node this rank runs on (for auxiliary interfaces, e.g. I/O
    /// clients — compute processes on Cplant™ likewise opened separate
    /// Portals resources for filesystem traffic, §2).
    pub node: Arc<Node>,
}

impl ProcessEnv {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Create an additional network interface on this rank's node (the pid
    /// must not collide with job pids, which start at 1 and stay below 100).
    pub fn aux_ni(&self, pid: u32) -> portals_types::PtlResult<portals::NetworkInterface> {
        self.node.create_ni(pid, NiConfig::default())
    }
}

/// A launched job: owns the fabric and nodes for its world.
pub struct Job {
    fabric: Arc<Fabric>,
    nodes: Vec<Arc<Node>>,
    directory: Arc<JobDirectory>,
}

impl Job {
    /// Launch `nprocs` processes running `f`, one OS thread per process, and
    /// return every rank's result ordered by rank.
    ///
    /// Panics in any rank propagate (the runtime "tears down the job").
    pub fn launch<T, F>(nprocs: usize, config: JobConfig, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(ProcessEnv) -> T + Send + Sync + 'static,
    {
        let (job, envs) = Job::build(nprocs, config);
        let f = Arc::new(f);
        let handles: Vec<_> = envs
            .into_iter()
            .map(|env| {
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("rank-{}", env.rank().0))
                    .spawn(move || f(env))
                    .expect("spawn rank thread")
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect();
        drop(job);
        results
    }

    /// Build the world without running anything: returns the job (keep it
    /// alive!) and one environment per rank. Useful when the caller manages
    /// threads itself (benches do).
    pub fn build(nprocs: usize, config: JobConfig) -> (Job, Vec<ProcessEnv>) {
        assert!(nprocs > 0, "a job needs at least one process");
        assert!(config.procs_per_node > 0);
        let fabric = Arc::new(Fabric::new(
            config.fabric.clone().with_obs(config.obs.clone()),
        ));
        let directory = Arc::new(JobDirectory::new());
        let nnodes = nprocs.div_ceil(config.procs_per_node);

        // Rank -> (node, pid) placement, round-robin blocks per node.
        let ranks: Vec<ProcessId> = (0..nprocs)
            .map(|r| {
                let node = r / config.procs_per_node;
                let pid = (r % config.procs_per_node) as u32 + 1;
                ProcessId::new(node as u32, pid)
            })
            .collect();
        for id in &ranks {
            directory.register(*id, config.ni.job);
        }

        let nodes: Vec<Arc<Node>> = (0..nnodes)
            .map(|n| {
                Arc::new(Node::new(
                    fabric.attach(NodeId(n as u32)),
                    NodeConfig {
                        transport: config.transport,
                        directory: Some(directory.clone() as Arc<dyn portals::ProcessDirectory>),
                        obs: config.obs.clone(),
                    },
                ))
            })
            .collect();

        let envs: Vec<ProcessEnv> = ranks
            .iter()
            .enumerate()
            .map(|(r, id)| {
                let node = Arc::clone(&nodes[id.nid.0 as usize]);
                let ni = node
                    .create_ni(id.pid, config.ni.clone())
                    .expect("create ni");
                let mpi =
                    Mpi::init(ni, ranks.clone(), Rank(r as u32), config.mpi).expect("mpi init");
                let comm = mpi.world();
                ProcessEnv { comm, mpi, node }
            })
            .collect();

        (
            Job {
                fabric,
                nodes,
                directory,
            },
            envs,
        )
    }

    /// The job's fabric (for stats or fault injection mid-run).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The job's nodes.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// The job's process directory.
    pub fn directory(&self) -> &JobDirectory {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_every_rank() {
        let results = Job::launch(4, JobConfig::default(), |env| {
            assert_eq!(env.size(), 4);
            env.rank().0
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ranks_can_communicate() {
        Job::launch(2, JobConfig::default(), |env| {
            let comm = &env.comm;
            if comm.rank() == Rank(0) {
                comm.send(Rank(1), 1, b"launched");
            } else {
                let (data, _) = comm.recv(Some(Rank(0)), Some(1), 16);
                assert_eq!(data, b"launched");
            }
        });
    }

    #[test]
    fn multiple_processes_per_node() {
        let cfg = JobConfig {
            procs_per_node: 2,
            ..Default::default()
        };
        Job::launch(4, cfg, |env| {
            // Ranks 0,1 share node 0; 2,3 share node 1.
            let me = env.comm.rank().0;
            let peer = Rank(me ^ 1); // same-node partner
            if me % 2 == 0 {
                env.comm.send(peer, 1, &[me as u8]);
            } else {
                let (data, _) = env.comm.recv(Some(peer), Some(1), 4);
                assert_eq!(data[0], me as u8 ^ 1);
            }
        });
    }

    #[test]
    fn directory_registers_all_ranks() {
        let (job, envs) = Job::build(3, JobConfig::default());
        assert_eq!(job.directory().len(), 3);
        drop(envs);
        drop(job);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_procs_rejected() {
        let _ = Job::build(0, JobConfig::default());
    }
}
