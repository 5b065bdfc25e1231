//! Property test: the MPI layer's matching agrees with a reference model.
//!
//! Rank 0 sends a random batch of messages (random tags, sizes straddling the
//! eager/long cutoff of both configurations: eager at 64 B, long at 300 KB,
//! and 20 KB eager under hardware matching but long under the GM-style
//! config); rank 1 then posts receives (random mixture of exact
//! and wildcard signatures). The reference model applies the MPI matching
//! rule — each receive takes the *earliest unconsumed* message its signature
//! matches — and the real stacks must deliver exactly the same assignment.

use portals::{NiConfig, Node, NodeConfig, ProgressMode, TransportConfig};
use portals_mpi::{Communicator, Mpi, MpiConfig};
use portals_net::Fabric;
use portals_types::{NodeId, ProcessId, Rank};
use proptest::prelude::*;

/// The largest message size drawn, above the default 256 KiB cutoff; the
/// receives are this large, so nothing truncates.
const LARGEST: usize = 300_000;

#[derive(Debug, Clone, Copy)]
struct Msg {
    tag: u32,
    size: usize,
    /// Identifying fill byte.
    ident: u8,
}

#[derive(Debug, Clone, Copy)]
struct RecvSpec {
    tag: Option<u32>,
}

/// The reference matcher: for each receive in posting order, take the lowest-
/// index unconsumed message whose tag matches.
fn reference(messages: &[Msg], recvs: &[RecvSpec]) -> Vec<u8> {
    let mut consumed = vec![false; messages.len()];
    let mut out = Vec::new();
    for r in recvs {
        let idx = messages
            .iter()
            .enumerate()
            .position(|(i, m)| !consumed[i] && r.tag.is_none_or(|t| t == m.tag))
            .expect("scenario generator guarantees feasibility");
        consumed[idx] = true;
        out.push(messages[idx].ident);
    }
    out
}

fn run_world(
    messages: Vec<Msg>,
    recvs: Vec<RecvSpec>,
    progress: ProgressMode,
    cfg: MpiConfig,
) -> Vec<u8> {
    let fabric = Fabric::ideal();
    let ranks = vec![ProcessId::new(0, 1), ProcessId::new(1, 1)];
    let node_cfg = NodeConfig {
        transport: TransportConfig {
            progress_mode: progress,
            ..Default::default()
        },
        ..Default::default()
    };
    let n0 = Node::new(fabric.attach(NodeId(0)), node_cfg.clone());
    let n1 = Node::new(fabric.attach(NodeId(1)), node_cfg);
    let ni = |n: &Node| n.create_ni(1, NiConfig::default()).unwrap();
    let mpi0 = Mpi::init(ni(&n0), ranks.clone(), Rank(0), cfg).unwrap();
    let mpi1 = Mpi::init(ni(&n1), ranks, Rank(1), cfg).unwrap();

    let sender_msgs = messages.clone();
    let sender = std::thread::spawn(move || {
        let comm: Communicator = mpi0.world();
        // Nonblocking sends: an unexpected long send only completes when the
        // receiver pulls, which may happen in any receive order — blocking
        // here would deadlock against out-of-order receive posting.
        let reqs: Vec<_> = sender_msgs
            .iter()
            .map(|m| comm.isend(Rank(1), m.tag, &vec![m.ident; m.size]))
            .collect();
        // Stay in the library (serving pulls) until the receiver is done.
        let (done, _) = comm.recv(Some(Rank(1)), Some(101), 4);
        assert_eq!(done, b"done");
        comm.wait_all(&reqs);
    });

    let comm = mpi1.world();
    // Let every put arrive so all messages are "already there" when the
    // receives are posted (the scenario the reference model assumes).
    std::thread::sleep(std::time::Duration::from_millis(50));

    let mut out = Vec::new();
    for r in &recvs {
        let (data, st) = comm.recv(Some(Rank(0)), r.tag, LARGEST);
        assert!(st.len > 0);
        assert!(
            data.iter().all(|&b| b == data[0]),
            "payload must be uniform"
        );
        out.push(data[0]);
    }
    comm.send(Rank(0), 101, b"done");
    sender.join().expect("sender");
    out
}

/// Generate a feasible scenario: messages plus receives (exact ones first,
/// then wildcards) such that every receive can match.
fn scenario() -> impl Strategy<Value = (Vec<Msg>, Vec<RecvSpec>)> {
    proptest::collection::vec(
        (
            0u32..3,
            prop_oneof![Just(64usize), Just(20_000usize), Just(LARGEST)],
        ),
        1..7,
    )
    .prop_flat_map(|tag_sizes| {
        let n = tag_sizes.len();
        (Just(tag_sizes), proptest::collection::vec(any::<bool>(), n))
    })
    .prop_map(|(tag_sizes, wilds)| {
        let messages: Vec<Msg> = tag_sizes
            .iter()
            .enumerate()
            .map(|(i, (tag, size))| Msg {
                tag: *tag,
                size: *size,
                ident: i as u8 + 1,
            })
            .collect();
        // One receive per message: exact (same tag) or wildcard; exact
        // receives posted first keeps every scenario feasible.
        let mut exact: Vec<RecvSpec> = Vec::new();
        let mut wild: Vec<RecvSpec> = Vec::new();
        for (m, w) in messages.iter().zip(&wilds) {
            if *w {
                wild.push(RecvSpec { tag: None });
            } else {
                exact.push(RecvSpec { tag: Some(m.tag) });
            }
        }
        exact.extend(wild);
        (messages, exact)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..Default::default() })]

    #[test]
    fn eager_direct_matches_reference((messages, recvs) in scenario()) {
        let expect = reference(&messages, &recvs);
        let got = run_world(
            messages,
            recvs,
            ProgressMode::from_env(),
            MpiConfig::default(),
        );
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn gm_style_matches_reference((messages, recvs) in scenario()) {
        let expect = reference(&messages, &recvs);
        let got = run_world(
            messages,
            recvs,
            ProgressMode::HostDriven,
            MpiConfig::gm_style(),
        );
        prop_assert_eq!(got, expect);
    }
}
