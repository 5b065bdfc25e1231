//! Thread census of a node over loopback UDP: the socket's receive thread is
//! the node's one thread in every progress mode. In the NIC-thread and
//! host-driven modes it steps the node itself, so no `portals-node-<nid>`
//! thread exists; caller-driven, it only feeds the callers that step. The
//! thread goes with the node.
//!
//! One test in its own binary: it counts this process's threads.

#![cfg(target_os = "linux")]

use portals::{EventKind, MdSpec, MePos, NiConfig, Node, NodeConfig, ProgressMode, Region};
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::TransportConfig;
use portals_types::{MatchCriteria, NodeId, ProcessId};
use std::time::{Duration, Instant};

/// The stack's threads in this process, sorted. The kernel keeps 15 bytes of
/// a thread's name, so `portals-udp-rx-<nid>` reads back as
/// `portals-udp-rx-`.
fn stack_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("portals-"))
        .collect();
    names.sort();
    names
}

fn link(nid: u32) -> UdpLink {
    UdpLink::bind(UdpLinkConfig {
        nid: NodeId(nid),
        ..Default::default()
    })
    .expect("bind loopback")
}

fn node(link: UdpLink, progress_mode: ProgressMode) -> Node {
    let config = NodeConfig {
        transport: TransportConfig {
            progress_mode,
            ..Default::default()
        },
        ..Default::default()
    };
    Node::new(link, config)
}

#[test]
fn a_udp_node_owns_only_its_receive_thread() {
    assert_eq!(stack_threads(), Vec::<String>::new(), "before any node");
    for mode in [
        ProgressMode::NicThread,
        ProgressMode::HostDriven,
        ProgressMode::CallerDriven,
    ] {
        {
            let (a, b) = (link(0), link(1));
            a.set_peer(NodeId(1), b.local_addr());
            b.set_peer(NodeId(0), a.local_addr());
            let (na, nb) = (node(a, mode), node(b, mode));
            let ni_a = na.create_ni(1, NiConfig::default()).unwrap();
            let ni_b = nb.create_ni(1, NiConfig::default()).unwrap();
            let eq = ni_b.eq_alloc(8).unwrap();
            let me = ni_b
                .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
                .unwrap();
            ni_b.md_attach(me, MdSpec::new(Region::zeroed(8)).with_eq(eq))
                .unwrap();
            let md = ni_a.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
            ni_a.put_op(md).target(ni_b.id(), 0).submit().unwrap();
            let ev = ni_b.eq_poll(eq, Duration::from_secs(5)).expect("the put");
            assert_eq!(ev.kind, EventKind::Put);
            // A thread names itself as it starts.
            let rx = ["portals-udp-rx-", "portals-udp-rx-"];
            let deadline = Instant::now() + Duration::from_secs(5);
            while stack_threads() != rx && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                stack_threads(),
                rx,
                "{mode:?}: one receive thread per node, no portals-node-*"
            );
        }
        assert_eq!(stack_threads(), Vec::<String>::new(), "{mode:?}: dropped");
    }
}
