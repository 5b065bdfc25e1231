//! Multi-process job launch over real UDP sockets.
//!
//! [`Job::launch`](crate::Job::launch) builds an entire world inside one OS
//! process — that is the deterministic simulation path. This module is the
//! other half: every invocation of the binary is *one* launch participant
//! hosting a slice of the ranks, processes find each other through the
//! rendezvous service, and all inter-node traffic crosses real process
//! boundaries over loopback (or actual network) UDP.
//!
//! Rank placement matches the in-process launcher exactly — rank `r` lives
//! on node `r / procs_per_node` with pid `r % procs_per_node + 1`, and OS
//! process `k` *is* node `k` — so a distributed run and a
//! [`Job::launch`](crate::Job::launch) run of the same world size produce
//! byte-identical application-level transcripts. The differential test in
//! `tests/distributed.rs` holds the two implementations to that.
//!
//! Configuration rides on environment variables (set by whatever launcher
//! starts the processes — a shell script, CI, `tests/distributed.rs`):
//!
//! | variable                 | meaning                              | default |
//! |--------------------------|--------------------------------------|---------|
//! | `PORTALS_TRANSPORT`      | `udp` enables this module            | unset   |
//! | `PORTALS_RENDEZVOUS`     | rendezvous server `host:port`        | —       |
//! | `PORTALS_JOB_ID`         | job name, shared by all processes    | —       |
//! | `PORTALS_PROC_INDEX`     | this process's index `0..NPROCS`     | —       |
//! | `PORTALS_NPROCS`         | number of OS processes               | —       |
//! | `PORTALS_PROCS_PER_NODE` | ranks hosted per process             | `1`     |
//! | `PORTALS_UDP_LOSS`       | send-side loss shim probability      | `0`     |
//! | `PORTALS_UDP_SEED`       | loss shim seed (offset per process)  | `0`     |
//! | `PORTALS_UDP_MTU`        | max datagram payload bytes           | `1432`  |
//!
//! `PORTALS_UDP_MTU` is this process's *advertisement*: the rendezvous
//! exchange answers with the job-wide minimum of every rank's advertised
//! MTU, and that negotiated value (installed before the transport endpoint
//! is built) is what the job actually fragments to — so a single launcher
//! exporting `PORTALS_UDP_MTU=65489` turns on jumbo loopback datagrams for
//! the whole job, and a mixed job degrades to its most conservative rank.

use crate::directory::JobDirectory;
use crate::launch::{JobConfig, ProcessEnv};
use portals::{Node, NodeConfig};
use portals_mpi::Mpi;
use portals_netudp::{register, UdpLink, UdpLinkConfig};
use portals_types::{NodeId, ProcessId, Rank};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Identity and wiring for one participant in a multi-process launch.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// The rendezvous server every process registers with.
    pub rendezvous: SocketAddr,
    /// Job name; all processes of one launch share it, and it namespaces
    /// concurrent launches on one rendezvous server.
    pub job_id: String,
    /// This process's index (`0..nprocs`); doubles as its [`NodeId`].
    pub proc_index: u32,
    /// How many OS processes the launch comprises.
    pub nprocs: u32,
    /// Ranks hosted by each process. World size = `nprocs * procs_per_node`.
    pub procs_per_node: usize,
    /// Send-side loss shim probability (see [`UdpLinkConfig::loss`]).
    pub loss: f64,
    /// Loss shim seed; each process offsets it by its index so streams
    /// differ but the whole launch stays reproducible.
    pub seed: u64,
    /// Hard bound on a datagram's payload (transport fragments under it).
    /// Advertised to rendezvous; the job runs at the minimum advertisement
    /// across ranks.
    pub max_payload: usize,
    /// Rendezvous / startup timeout.
    pub timeout: Duration,
}

impl DistributedConfig {
    /// Read the `PORTALS_*` launch variables. Returns `None` unless
    /// `PORTALS_TRANSPORT=udp`; panics (with the variable named) on values
    /// that are set but malformed — a misconfigured launcher should fail
    /// loudly at startup, not limp.
    pub fn from_env() -> Option<DistributedConfig> {
        if std::env::var("PORTALS_TRANSPORT").ok()?.to_lowercase() != "udp" {
            return None;
        }
        Some(DistributedConfig {
            rendezvous: required("PORTALS_RENDEZVOUS"),
            job_id: std::env::var("PORTALS_JOB_ID")
                .unwrap_or_else(|_| panic!("PORTALS_JOB_ID must be set for udp transport")),
            proc_index: required("PORTALS_PROC_INDEX"),
            nprocs: required("PORTALS_NPROCS"),
            procs_per_node: optional("PORTALS_PROCS_PER_NODE", 1),
            loss: optional("PORTALS_UDP_LOSS", 0.0),
            seed: optional("PORTALS_UDP_SEED", 0),
            max_payload: optional("PORTALS_UDP_MTU", 1432),
            timeout: Duration::from_secs(optional("PORTALS_TIMEOUT_SECS", 60)),
        })
    }
}

fn required<T: std::str::FromStr>(var: &str) -> T {
    let raw = std::env::var(var).unwrap_or_else(|_| panic!("{var} must be set for udp transport"));
    raw.parse()
        .unwrap_or_else(|_| panic!("{var}={raw} is not valid"))
}

fn optional<T: std::str::FromStr>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("{var}={raw} is not valid")),
        Err(_) => default,
    }
}

impl crate::launch::Job {
    /// Launch this process's slice of a distributed job: bind a UDP link,
    /// rendezvous with the other processes, bring up one node hosting
    /// `procs_per_node` ranks, run `f` on each local rank, and return the
    /// local ranks' results ordered by rank.
    ///
    /// The launch barrier (rendezvous) runs at startup; a matching exit
    /// barrier (`<job>.exit` on the same server) runs before teardown so no
    /// process drops its node — and stops retransmitting — while a peer
    /// still waits on in-flight traffic.
    ///
    /// `config.fabric` and `config.procs_per_node` are ignored (the real
    /// socket replaces the simulated fabric; the rank slice comes from
    /// `dist`); everything else applies exactly as in
    /// [`Job::launch`](crate::Job::launch).
    pub fn launch_distributed<T, F>(dist: &DistributedConfig, config: JobConfig, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(ProcessEnv) -> T + Send + Sync + 'static,
    {
        launch_distributed(dist, config, f)
    }
}

fn launch_distributed<T, F>(dist: &DistributedConfig, config: JobConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(ProcessEnv) -> T + Send + Sync + 'static,
{
    assert!(dist.nprocs > 0 && dist.proc_index < dist.nprocs);
    assert!(dist.procs_per_node > 0);
    let m = dist.procs_per_node;
    let world = dist.nprocs as usize * m;

    let link = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(dist.proc_index),
        max_payload: dist.max_payload,
        loss: dist.loss,
        seed: dist.seed.wrapping_add(dist.proc_index as u64),
        obs: config.obs.clone(),
        ..Default::default()
    })
    .expect("bind udp link");
    let local_addr = link.local_addr();
    let ticket = register(
        dist.rendezvous,
        &dist.job_id,
        dist.proc_index,
        dist.nprocs,
        local_addr,
        link.max_payload(),
        dist.timeout,
    )
    .expect("rendezvous registration");
    for (i, addr) in ticket.peers.iter().enumerate() {
        link.set_peer(NodeId(i as u32), *addr);
    }
    // Adopt the job-wide negotiated MTU before Node::new: the transport
    // endpoint reads the link's datagram bound once, at construction, and
    // every rank must fragment identically for the wires to interoperate.
    if ticket.max_payload > 0 {
        link.set_max_payload(ticket.max_payload);
    }

    // Same placement arithmetic as Job::build, so transcripts are
    // comparable across the two launchers.
    let ranks: Vec<ProcessId> = (0..world)
        .map(|r| ProcessId::new((r / m) as u32, (r % m) as u32 + 1))
        .collect();
    let directory = Arc::new(JobDirectory::new());
    for id in &ranks {
        directory.register(*id, config.ni.job);
    }

    let node = Arc::new(Node::new(
        link,
        NodeConfig {
            transport: config.transport,
            directory: Some(directory as Arc<dyn portals::ProcessDirectory>),
            obs: config.obs.clone(),
        },
    ));

    let base = dist.proc_index as usize * m;
    let envs: Vec<ProcessEnv> = (base..base + m)
        .map(|r| {
            let id = ranks[r];
            let ni = node
                .create_ni(id.pid, config.ni.clone())
                .expect("create ni");
            let mpi = Mpi::init(ni, ranks.clone(), Rank(r as u32), config.mpi).expect("mpi init");
            let comm = mpi.world();
            ProcessEnv {
                comm,
                mpi,
                node: Arc::clone(&node),
            }
        })
        .collect();

    // Init barrier: every hosted rank's NI and MPI engine must exist —
    // receive-side match entries posted — before *any* process lets its
    // application ranks send. Without this, a fast peer's first eager
    // message can arrive in the window between the registration barrier
    // and `create_ni` here; the transport accepts and acks the datagram
    // (wire-level reliability is oblivious to Portals pids), the node
    // drops it as `portals.node_dropped_no_process`, and the acked sender
    // never retransmits — a permanent single-message hole that wedges the
    // job. The rendezvous round trip doubles as that readiness barrier,
    // exactly like the exit barrier below.
    register(
        dist.rendezvous,
        &format!("{}.init", dist.job_id),
        dist.proc_index,
        dist.nprocs,
        local_addr,
        0,
        dist.timeout,
    )
    .expect("init barrier");

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
    let results: Vec<T> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect();

    // Exit barrier: every process finished its application function before
    // anyone tears down a node (and with it, retransmission for the acks
    // still in flight toward slower peers).
    register(
        dist.rendezvous,
        &format!("{}.exit", dist.job_id),
        dist.proc_index,
        dist.nprocs,
        local_addr,
        0,
        dist.timeout,
    )
    .expect("exit barrier");
    results
}
