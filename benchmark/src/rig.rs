//! Every place the harness constructs a piece of the stack, and every name
//! it takes from the stack's crates.
//!
//! The benchmark is the gate later changes are judged by, so later changes
//! must stay free to edit the stack. This module keeps the dependency short
//! and in one place: the `pub use` lines below are the complete list of
//! public names the harness needs (README.md repeats it), and the functions
//! are the only code that builds jobs, links, endpoints, nodes or
//! interfaces. All of it is the default configuration; the one deliberate
//! exception is `progress_mode = CallerDriven` where a caller asks for the
//! threadless regime.

pub use portals::{
    AckRequest, EqHandle, EventKind, MdSpec, MePos, NetworkInterface, NiConfig, Node, NodeConfig,
};
pub use portals_mpi::{
    AtomicDatatype, AtomicOp, Communicator, Completion, MpiConfig, Request, Window,
};
pub use portals_net::{Fabric, FabricConfig, Link};
pub use portals_netudp::{RendezvousServer, UdpLink, UdpLinkConfig};
pub use portals_obs::Obs;
pub use portals_runtime::{Collectives, DistributedConfig, Job, JobConfig, ProcessEnv, ReduceOp};
pub use portals_transport::{Endpoint, TransportConfig};
pub use portals_types::{
    Gather, MatchBits, MatchCriteria, NodeId, ProcessId, ProgressMode, Rank, Region,
};
pub use portals_wire::{checksum::crc32, PortalsMessage, PutRequest, RequestHeader};

use std::collections::BTreeMap;

/// Which wire a workload or probe runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// The in-process fabric: both ranks are threads of one process.
    Fabric,
    /// Loopback UDP: two OS processes with one rank each.
    Udp,
}

/// Transport configuration: the default, or the default with the caller
/// running the protocol.
pub fn transport_config(threadless: bool) -> TransportConfig {
    let mut cfg = TransportConfig::default();
    if threadless {
        cfg.progress_mode = ProgressMode::CallerDriven;
    }
    cfg
}

/// The job configuration every workload runs under: `JobConfig::default()`
/// with the adaptive MPI protocol, counting into `obs`.
pub fn job_config(threadless: bool, obs: Obs) -> JobConfig {
    JobConfig {
        transport: transport_config(threadless),
        mpi: MpiConfig::adaptive(),
        obs,
        ..JobConfig::default()
    }
}

/// Launch the two-rank job on `wire` and run `f` on the rank or ranks this
/// process hosts. On UDP the `PORTALS_*` variables the runner exported say
/// which process of the two this is and where the rendezvous server listens.
pub fn launch<T, F>(wire: Wire, cfg: JobConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(ProcessEnv) -> T + Send + Sync + 'static,
{
    match wire {
        Wire::Fabric => Job::launch(2, cfg, f),
        Wire::Udp => {
            let dist = DistributedConfig::from_env()
                .expect("a UDP rank process is started by the runner with PORTALS_* set");
            Job::launch_distributed(&dist, cfg, f)
        }
    }
}

/// Sum of every counter series in `obs` by name, over all nodes and
/// interfaces that registered with it.
pub fn counters(obs: &Obs) -> BTreeMap<&'static str, u64> {
    let mut sums = BTreeMap::new();
    for series in obs.registry.snapshot() {
        if let Some(v) = series.as_counter() {
            *sums.entry(series.name).or_insert(0) += v;
        }
    }
    sums
}

/// Sends of this rank that fell inside the adaptive protocol's measured band
/// and chose (eager, rendezvous). The workloads' sizes sit outside the band,
/// so both stay zero unless the band moves.
pub fn adaptive_decisions(env: &ProcessEnv) -> (u64, u64) {
    let report = env.mpi.engine().adaptive_report();
    (report.eager_decisions, report.rdvz_decisions)
}

/// Two UDP links on loopback that know each other's address, as node 0 and
/// node 1.
pub fn udp_link_pair() -> (UdpLink, UdpLink) {
    let bind = |nid| {
        UdpLink::bind(UdpLinkConfig {
            nid: NodeId(nid),
            ..UdpLinkConfig::default()
        })
        .expect("bind a loopback UDP link")
    };
    let (a, b) = (bind(0), bind(1));
    a.set_peer(NodeId(1), b.local_addr());
    b.set_peer(NodeId(0), a.local_addr());
    (a, b)
}

/// A reliable endpoint over `link`.
pub fn endpoint(link: impl Link) -> Endpoint {
    Endpoint::new(link, transport_config(false))
}

/// A node over `link` with one interface (pid 1) on it.
pub fn node_with_ni(link: impl Link, threadless: bool) -> (Node, NetworkInterface) {
    let node = Node::new(
        link,
        NodeConfig {
            transport: transport_config(threadless),
            directory: None,
            obs: Obs::default(),
        },
    );
    let ni = node
        .create_ni(1, NiConfig::default())
        .expect("create the node's interface");
    (node, ni)
}
