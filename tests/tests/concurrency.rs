//! Threaded stress tests for the sharded NI state: event delivery by the
//! dispatcher racing event consumption by application threads, and match-list
//! mutation on one portal racing traffic on another.
//!
//! The invariant under test is exactly the one the per-portal/per-shard
//! locking must preserve: every accepted request produces its event exactly
//! once — none lost, none duplicated — no matter how consumers and the
//! dispatcher interleave.

use portals::{
    EventKind, MdSpec, MePos, NiConfig, Node, NodeConfig, ProgressMode, Region, TransportConfig,
};
use portals_net::Fabric;
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

const PUTS: usize = 1000;
const SLOT: u64 = 8;

/// N puts land while several threads race on `eq_poll`. Each put targets a
/// distinct remote offset, so the union of consumed events must be exactly
/// {0, SLOT, 2*SLOT, ...} with no repeats.
#[test]
fn concurrent_pollers_never_lose_or_duplicate_events() {
    for mode in BOTH_BUILDS {
        let fabric = Fabric::ideal();
        let n0 = Node::new(fabric.attach(NodeId(0)), build(mode));
        let n1 = Node::new(fabric.attach(NodeId(1)), build(mode));
        let a = n0.create_ni(1, NiConfig::default()).unwrap();
        let b = n1.create_ni(1, NiConfig::default()).unwrap();

        // Capacity covers every event, so the ring can never overwrite and any
        // shortfall below is a real loss, not backpressure.
        let eq = b.eq_alloc(2 * PUTS).unwrap();
        let me = b
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        let sink = Region::zeroed(PUTS * SLOT as usize);
        b.md_attach(me, MdSpec::new(sink).with_eq(eq)).unwrap();

        let md = a
            .md_bind(MdSpec::new(Region::from_vec(vec![0xabu8; SLOT as usize])))
            .unwrap();

        let consumed = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut per_thread: Vec<Vec<u64>> = Vec::new();

        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                for i in 0..PUTS {
                    a.put_op(md)
                        .target(b.id(), 0)
                        .offset(i as u64 * SLOT)
                        .submit()
                        .unwrap();
                }
            });

            let pollers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while consumed.load(Ordering::Relaxed) < PUTS && Instant::now() < deadline {
                            if let Ok(ev) = b.eq_poll(eq, Duration::from_millis(20)) {
                                assert_eq!(ev.kind, EventKind::Put);
                                got.push(ev.offset);
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        got
                    })
                })
                .collect();

            sender.join().unwrap();
            for p in pollers {
                per_thread.push(p.join().unwrap());
            }
        });

        let all: Vec<u64> = per_thread.into_iter().flatten().collect();
        assert_eq!(all.len(), PUTS, "an event was lost or the run timed out");
        let distinct: BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), PUTS, "an event was duplicated");
        assert_eq!(
            *distinct.iter().next_back().unwrap(),
            (PUTS as u64 - 1) * SLOT
        );
        // Nothing left over either.
        assert!(
            b.eq_get(eq).is_err(),
            "stray event after all {PUTS} were consumed"
        );
    }
}

/// Match-list churn on portal 1 must not perturb delivery on portal 0: the
/// portals hold independent locks, and the full put count still lands intact.
#[test]
fn me_churn_on_one_portal_does_not_disturb_another() {
    for mode in BOTH_BUILDS {
        let fabric = Fabric::ideal();
        let n0 = Node::new(fabric.attach(NodeId(0)), build(mode));
        let n1 = Node::new(fabric.attach(NodeId(1)), build(mode));
        let a = n0.create_ni(1, NiConfig::default()).unwrap();
        let b = n1.create_ni(1, NiConfig::default()).unwrap();

        let eq = b.eq_alloc(2 * PUTS).unwrap();
        let me = b
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        let sink = Region::zeroed(PUTS * SLOT as usize);
        b.md_attach(me, MdSpec::new(sink).with_eq(eq)).unwrap();

        let md = a
            .md_bind(MdSpec::new(Region::from_vec(vec![0x5au8; SLOT as usize])))
            .unwrap();
        let done = AtomicUsize::new(0);

        std::thread::scope(|s| {
            // Churner: build and tear down entries on portal 1 as fast as it can.
            let churner = s.spawn(|| {
                let mut cycles = 0usize;
                while done.load(Ordering::Relaxed) == 0 {
                    let tmp = b
                        .me_attach(
                            1,
                            ProcessId::ANY,
                            MatchCriteria::exact(MatchBits::new(cycles as u64)),
                            false,
                            MePos::Front,
                        )
                        .unwrap();
                    b.md_attach(tmp, MdSpec::new(Region::zeroed(8))).unwrap();
                    b.me_unlink(tmp).unwrap();
                    cycles += 1;
                }
                cycles
            });

            for i in 0..PUTS {
                a.put_op(md)
                    .target(b.id(), 0)
                    .offset(i as u64 * SLOT)
                    .submit()
                    .unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut offsets = BTreeSet::new();
            while offsets.len() < PUTS {
                assert!(
                    Instant::now() < deadline,
                    "only {} of {PUTS} events arrived",
                    offsets.len()
                );
                if let Ok(ev) = b.eq_poll(eq, Duration::from_millis(20)) {
                    assert_eq!(ev.kind, EventKind::Put);
                    assert!(
                        offsets.insert(ev.offset),
                        "duplicate event at offset {}",
                        ev.offset
                    );
                }
            }
            done.store(1, Ordering::Relaxed);
            let cycles = churner.join().unwrap();
            assert!(cycles > 0, "churner never ran");
        });
    }
}
