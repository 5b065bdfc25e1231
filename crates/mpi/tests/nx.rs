//! NX-shim semantics: typed messages coexisting with MPI traffic on the same
//! interfaces (the §2 multi-protocol claim).

use portals::{NiConfig, Node, NodeConfig, ProgressMode, TransportConfig};
use portals_mpi::nx::{Nx, ANY_TYPE};
use portals_mpi::{Mpi, MpiConfig};
use portals_net::Fabric;
use portals_types::{NodeId, ProcessId, Rank};

/// The two builds a bypass test runs in: a NIC thread standing by, and
/// built without one.
const BOTH_BUILDS: [ProgressMode; 2] = [ProgressMode::NicThread, ProgressMode::CallerDriven];

fn build(mode: ProgressMode) -> NodeConfig {
    NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn two_node_world(mode: ProgressMode) -> (Mpi, Mpi, Vec<Node>) {
    let fabric = Fabric::ideal();
    let ranks = vec![ProcessId::new(0, 1), ProcessId::new(1, 1)];
    let n0 = Node::new(fabric.attach(NodeId(0)), build(mode));
    let n1 = Node::new(fabric.attach(NodeId(1)), build(mode));
    let m0 = Mpi::init(
        n0.create_ni(1, NiConfig::default()).unwrap(),
        ranks.clone(),
        Rank(0),
        MpiConfig::default(),
    )
    .unwrap();
    let m1 = Mpi::init(
        n1.create_ni(1, NiConfig::default()).unwrap(),
        ranks,
        Rank(1),
        MpiConfig::default(),
    )
    .unwrap();
    (m0, m1, vec![n0, n1])
}

#[test]
fn csend_crecv_typed_matching() {
    for mode in BOTH_BUILDS {
        let (m0, m1, _nodes) = two_node_world(mode);
        let receiver = std::thread::spawn(move || {
            let nx = Nx::new(m1.world());
            // Receive type 20 first even though type 10 arrived earlier.
            let high = nx.crecv(20, 64);
            assert_eq!(high.data, b"priority");
            assert_eq!(high.msg_type, 20);
            let low = nx.crecv(10, 64);
            assert_eq!(low.data, b"bulk");
            assert_eq!((nx.infocount(), nx.infonode(), nx.infotype()), (4, 0, 10));
        });
        let nx = Nx::new(m0.world());
        assert_eq!(nx.mynode(), 0);
        assert_eq!(nx.numnodes(), 2);
        nx.csend(10, b"bulk", 1);
        nx.csend(20, b"priority", 1);
        receiver.join().unwrap();
    }
}

#[test]
fn wildcard_typesel_takes_arrival_order() {
    for mode in BOTH_BUILDS {
        let (m0, m1, _nodes) = two_node_world(mode);
        let receiver = std::thread::spawn(move || {
            let nx = Nx::new(m1.world());
            let a = nx.crecv(ANY_TYPE, 64);
            let b = nx.crecv(ANY_TYPE, 64);
            assert_eq!(
                (a.msg_type, b.msg_type),
                (5, 6),
                "arrival order under wildcard"
            );
        });
        let nx = Nx::new(m0.world());
        nx.csend(5, b"first", 1);
        nx.csend(6, b"second", 1);
        receiver.join().unwrap();
    }
}

#[test]
fn isend_irecv_msgwait() {
    for mode in BOTH_BUILDS {
        let (m0, m1, _nodes) = two_node_world(mode);
        let receiver = std::thread::spawn(move || {
            let nx = Nx::new(m1.world());
            let mid = nx.irecv(77, 1024);
            nx.gsync();
            let msg = nx.msgwait(mid).expect("receive completes with data");
            assert_eq!(msg.data, vec![7u8; 512]);
            assert_eq!(msg.node, 0);
        });
        let nx = Nx::new(m0.world());
        nx.gsync();
        let mid = nx.isend(77, &vec![7u8; 512], 1);
        assert!(nx.msgwait(mid).is_none(), "send completion carries no data");
        receiver.join().unwrap();
    }
}

#[test]
fn nx_and_mpi_coexist_on_one_interface() {
    for mode in BOTH_BUILDS {
        let (m0, m1, _nodes) = two_node_world(mode);
        let receiver = std::thread::spawn(move || {
            let comm = m1.world();
            let nx = Nx::new(comm.clone());
            // MPI recv and NX crecv interleaved, same engine.
            let (mpi_msg, st) = comm.recv(Some(Rank(0)), Some(1), 64);
            assert_eq!(mpi_msg, b"via mpi");
            assert_eq!(st.source, Rank(0));
            let nx_msg = nx.crecv(42, 64);
            assert_eq!(nx_msg.data, b"via nx");
        });
        let comm = m0.world();
        let nx = Nx::new(comm.clone());
        comm.send(Rank(1), 1, b"via mpi");
        nx.csend(42, b"via nx", 1);
        receiver.join().unwrap();
    }
}
