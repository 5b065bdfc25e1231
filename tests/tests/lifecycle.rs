//! Message-lifecycle regression tests: a faulty wire may replay any packet,
//! but the stack's exactly-once contract means completion machinery — counting
//! events, event queues, triggered operations, acks — fires once per logical
//! message, never once per wire copy.
//!
//! The fault plan here duplicates **every** packet (probability 1.0) and adds
//! jitter so duplicates can overtake their originals (the reorder case PR 3
//! fixed). The transport must absorb all of it: the only acceptable evidence
//! downstream of the transport is `duplicates_dropped > 0`, and the only
//! Portals-layer drops are the deliberately doomed puts, once each.

use portals::{
    AckRequest, EventKind, MdSpec, MePos, NiConfig, Node, NodeConfig, ProgressMode, Region,
    TransportConfig,
};
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_obs::{Layer, Obs, Stage};
use portals_runtime::{Job, JobConfig};
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId, Rank};
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

#[test]
fn duplicated_wire_never_double_fires_cts_eqs_or_triggers() {
    for mode in BOTH_BUILDS {
        const N: u64 = 40;
        /// Puts aimed at a portal with no match entry: §4.8 rejections, the only
        /// application-visible drops this wire may produce.
        const DOOMED: u64 = 3;
        let (obs, ring) = Obs::with_ring(1 << 16);
        let fabric = Fabric::new(
            FabricConfig::default()
                .with_link(LinkModel {
                    latency: Duration::from_micros(5),
                    bandwidth_bytes_per_sec: f64::INFINITY,
                    per_packet_overhead: Duration::ZERO,
                })
                .with_faults(FaultPlan {
                    loss_probability: 0.0,
                    duplicate_probability: 1.0,
                    max_jitter: Duration::from_micros(50),
                })
                .with_seed(7)
                .with_obs(obs.clone()),
        );
        let na = Node::new(
            fabric.attach(NodeId(0)),
            NodeConfig {
                obs: obs.clone(),
                ..build(mode)
            },
        );
        let nb = Node::new(fabric.attach(NodeId(1)), NodeConfig { obs, ..build(mode) });
        let a = na.create_ni(1, NiConfig::default()).unwrap();
        let b = nb.create_ni(1, NiConfig::default()).unwrap();

        // Target: one persistent entry wired to BOTH an event queue and a
        // counting event, plus a `done` counter armed by a triggered increment at
        // exactly N — the full §4.8 completion fan-out on one delivery.
        let eq = b.eq_alloc(256).unwrap();
        let ct = b.ct_alloc().unwrap();
        let done = b.ct_alloc().unwrap();
        let me = b
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        b.md_attach(me, MdSpec::new(Region::zeroed(64)).with_eq(eq).with_ct(ct))
            .unwrap();
        b.triggered_ct_inc(done, 1, ct, N).unwrap();

        // Initiator: acked puts whose acks are consumed by a counter alone — the
        // ack stream is duplicated by the same fault plan, so this checks ack
        // dedup as well as data dedup.
        let put_ct = a.ct_alloc().unwrap();
        let md = a
            .md_bind(MdSpec::new(Region::from_vec(vec![9u8; 32])).with_ct(put_ct))
            .unwrap();
        for _ in 0..N {
            a.put_op(md)
                .target(ProcessId::new(1, 1), 0)
                .bits(MatchBits::new(0))
                .ack(AckRequest::Ack)
                .submit()
                .unwrap();
        }

        for _ in 0..DOOMED {
            a.put_op(md)
                .target(ProcessId::new(1, 1), 1)
                .submit()
                .unwrap();
        }

        // Completion machinery reaches N (and the trigger fires) exactly once…
        assert_eq!(b.ct_wait(ct, N).unwrap().success, N);
        assert_eq!(b.ct_wait(done, 1).unwrap().success, 1);
        assert_eq!(a.ct_wait(put_ct, N).unwrap().success, N);

        // …then quiesce so every trailing wire duplicate has been absorbed before
        // checking that nothing moved past N.
        assert!(na.flush_transport(Duration::from_secs(10)));
        assert!(nb.flush_transport(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(100));

        assert_eq!(b.ct_get(ct).unwrap().success, N, "target ct crept past N");
        assert_eq!(b.ct_get(done).unwrap().success, 1, "trigger re-fired");
        assert_eq!(
            a.ct_get(put_ct).unwrap().success,
            N,
            "an ack completed twice"
        );
        assert_eq!(b.counters().triggered_fired.get(), 1);

        // The event queue holds exactly N put events — one per logical message.
        let mut puts = 0u64;
        while let Ok(ev) = b.eq_poll(eq, Duration::from_millis(50)) {
            assert_eq!(ev.kind, EventKind::Put);
            puts += 1;
        }
        assert_eq!(puts, N, "EQ saw a duplicate delivery");

        // The duplicates existed and died in the transport, invisibly to Portals.
        assert!(
            nb.transport_stats().duplicates_dropped.get() > 0,
            "fault plan produced no duplicates — the test exercised nothing"
        );
        assert_eq!(a.counters().dropped_total(), 0);
        // Every wire fault is accounted for below Portals; a doomed request is
        // rejected once, not once per wire copy.
        assert_eq!(b.counters().dropped_total(), DOOMED);
        assert_eq!(b.counters().dropped(portals::DropReason::NoMatch), DOOMED);

        // Trace-level statement of the same contract: exactly N portals-layer
        // put deliveries at the target, and one portals-layer drop per doomed put.
        let events = ring.events();
        let delivers = events
            .iter()
            .filter(|e| {
                e.layer == Layer::Portals
                    && e.stage == Stage::Deliver
                    && e.detail == "put"
                    && e.node == 1
            })
            .count() as u64;
        assert_eq!(delivers, N, "trace shows duplicate portals deliveries");
        let drops = events
            .iter()
            .filter(|e| e.layer == Layer::Portals && e.stage == Stage::Drop)
            .count() as u64;
        assert_eq!(
            drops, DOOMED,
            "trace shows a drop the doomed puts do not explain"
        );
    }
}

/// Every counter series the benchmark reads by name exists after one MPI
/// message on a default two-rank job: a rename would silently zero a
/// per-layer row rather than fail.
#[test]
fn a_default_job_registers_the_series_the_benchmark_reads() {
    let obs = Obs::default();
    let config = JobConfig {
        obs: obs.clone(),
        ..Default::default()
    };
    Job::launch(2, config, |env| {
        if env.rank() == Rank(0) {
            env.comm.send(Rank(1), 1, b"named");
        } else {
            let (data, _) = env.comm.recv(Some(Rank(0)), Some(1), 16);
            assert_eq!(data, b"named");
        }
        env.comm.barrier();
    });
    let registered: Vec<_> = obs.registry.snapshot().iter().map(|s| s.name).collect();
    for name in [
        "fabric.packets_sent",
        "transport.data_packets_sent",
        "transport.acks_sent",
        "transport.acks_coalesced",
        "transport.retransmissions",
        "transport.ooo_buffered",
        "transport.checksum_rejects",
        "transport.peers_stalled",
        "flow.credit_stalls",
        "portals.dropped",
        "portals.payload_copies",
        "portals.payload_messages",
        "portals.events_overwritten",
        "portals.triggered_fired",
        "portals.node_dropped_no_process",
        "portals.node_dropped_garbage",
        "mpi.regions_pooled",
        "mpi.regions_allocated",
    ] {
        assert!(registered.contains(&name), "{name} not registered");
    }
}
