//! Acceptance: the data path performs exactly one payload copy per put — the
//! delivery scatter into the target MD. (The flat-`Vec` path this was once
//! compared against paid at least three; EXPERIMENTS.md records it.)

use portals::{
    EventKind, MdSpec, MePos, NetworkInterface, NiConfig, Node, NodeConfig, ProgressMode,
    TransportConfig,
};
use portals_net::Fabric;
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId, Region};
use std::time::Duration;

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

const TIMEOUT: Duration = Duration::from_secs(10);
const MESSAGES: u64 = 8;
const PAYLOAD: usize = 4096;

#[test]
fn a_put_copies_its_payload_exactly_once() {
    for mode in BOTH_BUILDS {
        let fabric = Fabric::ideal();
        let cfg = NiConfig::default();
        let na = Node::new(fabric.attach(NodeId(0)), build(mode));
        let nb = Node::new(fabric.attach(NodeId(1)), build(mode));
        let a: NetworkInterface = na.create_ni(1, cfg.clone()).unwrap();
        let b: NetworkInterface = nb.create_ni(1, cfg).unwrap();

        let eq = b.eq_alloc(64).unwrap();
        let me = b
            .me_attach(
                0,
                ProcessId::ANY,
                MatchCriteria::exact(MatchBits::new(7)),
                false,
                MePos::Back,
            )
            .unwrap();
        let dst = Region::zeroed(PAYLOAD);
        b.md_attach(me, MdSpec::new(dst.clone()).with_eq(eq))
            .unwrap();

        let src = Region::from_vec((0..PAYLOAD).map(|i| i as u8).collect());
        let md = a.md_bind(MdSpec::new(src.clone())).unwrap();
        for _ in 0..MESSAGES {
            a.put_op(md)
                .target(b.id(), 0)
                .bits(MatchBits::new(7))
                .ack(portals::AckRequest::NoAck)
                .submit()
                .unwrap();
            let ev = b.eq_poll(eq, TIMEOUT).unwrap();
            assert_eq!(ev.kind, EventKind::Put);
            assert_eq!(ev.mlength, PAYLOAD as u64);
        }
        assert_eq!(dst.read_vec(0, PAYLOAD), src.read_vec(0, PAYLOAD));

        let ca = a.counters();
        let cb = b.counters();
        assert_eq!(cb.payload_messages.get(), MESSAGES);
        assert_eq!(ca.payload_copies.get() + cb.payload_copies.get(), MESSAGES);
        assert_eq!(cb.copies_per_message(), 1.0);
    }
}
