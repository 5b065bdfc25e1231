//! Progress-mode equivalence at the Portals API level.
//!
//! The NIC-thread, caller-driven (threadless) and host-driven configurations
//! run the same §4.8 receive rules; only the thread that runs them — and, for
//! host-driven, when — differs. These tests pin that down observationally: a
//! deterministic scripted scenario must produce the *identical sequence* of
//! events (per queue, field by field) and counting-event values in every
//! mode, a host-driven target must hold an arrival raw until one of its own
//! API calls, and in every mode the one wait loop keeps the blocking calls'
//! contract: a poll times out no earlier than its bound, returns early when
//! its completion lands, wakes on `ct_free`, and never sleeps through a
//! completion (the lost-wakeup race).

use portals::{
    AckRequest, CtHandle, EqHandle, Event, EventKind, MdSpec, MePos, NetworkInterface, NiConfig,
    Node, NodeConfig, ProgressMode, Region,
};
use portals_net::{Fabric, FabricConfig, FaultPlan};
use portals_transport::TransportConfig;
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId, PtlError};
use std::time::{Duration, Instant};

fn two_nodes(mode: ProgressMode) -> (Node, Node) {
    let fabric = Fabric::new(FabricConfig::ideal());
    let cfg = || NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
            ..Default::default()
        },
        ..Default::default()
    };
    let na = Node::new(fabric.attach(NodeId(0)), cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), cfg());
    // The nodes keep the fabric alive through their NICs.
    std::mem::forget(fabric);
    (na, nb)
}

/// The fields of an event that must be mode-independent. (The `md` handle is
/// included too: arenas allocate in API-call order, which the script fixes.)
fn fingerprint(e: Event) -> (EventKind, ProcessId, u32, u64, u64, u64, u64) {
    (
        e.kind,
        e.initiator,
        e.portal_index,
        e.match_bits.raw(),
        e.rlength,
        e.mlength,
        e.offset,
    )
}

/// A fixed scripted scenario: puts (acked, truncated), a get, a counting
/// event driven by deliveries, and a triggered put chained off it. Every op
/// completes before the next is issued, so each queue's sequence is a total
/// order. Returns (initiator events, target events, ct values).
type Trace = (
    Vec<(EventKind, ProcessId, u32, u64, u64, u64, u64)>,
    Vec<(EventKind, ProcessId, u32, u64, u64, u64, u64)>,
    Vec<u64>,
);

fn scripted_scenario(mode: ProgressMode) -> Trace {
    let (na, nb) = two_nodes(mode);
    let ini = na.create_ni(1, NiConfig::default()).unwrap();
    let tgt = nb.create_ni(1, NiConfig::default()).unwrap();
    let tgt_id = tgt.id();
    let ini_id = ini.id();

    // Target: portal 3, exact-match 7, a 64-byte landing region with both an
    // event queue and a counting event.
    let eq_t = tgt.eq_alloc(64).unwrap();
    let ct_t = tgt.ct_alloc().unwrap();
    let landing = Region::zeroed(64);
    let me_t = tgt
        .me_attach(
            3,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(7)),
            false,
            MePos::Back,
        )
        .unwrap();
    // (Truncation is the default MD option, per §4.8's accept-and-truncate.)
    tgt.md_attach(
        me_t,
        MdSpec::new(landing.clone()).with_eq(eq_t).with_ct(ct_t),
    )
    .unwrap();

    // Initiator: a source MD with an event queue (Sent/Ack/Reply records).
    let eq_i = ini.eq_alloc(64).unwrap();
    let src = Region::from_vec((0..48u8).collect());
    let md_i = ini.md_bind(MdSpec::new(src).with_eq(eq_i)).unwrap();

    let mut ct_values = Vec::new();
    let mut ct_expect = 0u64;
    fn bump(
        tgt: &portals::NetworkInterface,
        ct: portals::CtHandle,
        expect: &mut u64,
        values: &mut Vec<u64>,
        n: u64,
    ) {
        *expect += n;
        let v = tgt.ct_wait(ct, *expect).unwrap();
        values.push(v.success);
        values.push(v.failure);
    }

    // 1. Acked 48-byte put. Initiator sees Sent then Ack; target sees Put.
    ini.put_op(md_i)
        .target(tgt_id, 3)
        .bits(MatchBits::new(7))
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();
    if mode == ProgressMode::HostDriven {
        // The put arrives and sits raw: no receive rule has run before the
        // target's next API call.
        let deadline = Instant::now() + Duration::from_secs(5);
        while tgt.raw_pending() == 0 {
            assert!(Instant::now() < deadline, "the put never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(tgt.eq_len(eq_t).unwrap(), 0, "event before any API call");
        assert_eq!(tgt.ct_get(ct_t).unwrap().success, 0);
        assert_eq!(landing.read_vec(0, 48), vec![0u8; 48]);
    }
    bump(&tgt, ct_t, &mut ct_expect, &mut ct_values, 1);
    ini.eq_wait(eq_i).unwrap(); // Sent
    ini.eq_wait(eq_i).unwrap(); // Ack

    // 2. Truncating put: 48 bytes at offset 32 only half-fit the 64-byte
    //    region, so mlength is clamped to 32.
    ini.put_op(md_i)
        .target(tgt_id, 3)
        .bits(MatchBits::new(7))
        .offset(32)
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();
    bump(&tgt, ct_t, &mut ct_expect, &mut ct_values, 1);
    ini.eq_wait(eq_i).unwrap();
    ini.eq_wait(eq_i).unwrap();

    // 3. Get 16 bytes back. Initiator sees Sent then Reply; target sees Get.
    let dst = Region::zeroed(16);
    let md_g = ini.md_bind(MdSpec::new(dst.clone()).with_eq(eq_i)).unwrap();
    ini.get_op(md_g)
        .target(tgt_id, 3)
        .bits(MatchBits::new(7))
        .length(16)
        .submit()
        .unwrap();
    bump(&tgt, ct_t, &mut ct_expect, &mut ct_values, 1);
    ini.eq_wait(eq_i).unwrap();
    ini.eq_wait(eq_i).unwrap();
    assert_eq!(dst.read_vec(0, 16), (0..16u8).collect::<Vec<u8>>());

    // 4. Triggered put on the target, armed at threshold ct+1, fired by one
    //    more delivery from the initiator. It lands on an initiator-side ME.
    let eq_back = ini.eq_alloc(16).unwrap();
    let me_back = ini
        .me_attach(5, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    ini.md_attach(me_back, MdSpec::new(Region::zeroed(32)).with_eq(eq_back))
        .unwrap();
    let md_trig = tgt
        .md_bind(MdSpec::new(Region::from_vec(vec![0xAB; 24])))
        .unwrap();
    tgt.put_op(md_trig)
        .target(ini_id, 5)
        .bits(MatchBits::new(0))
        .submit_after(ct_t, ct_expect + 1)
        .unwrap();
    let md_small = ini
        .md_bind(MdSpec::new(Region::zeroed(8)).with_eq(eq_i))
        .unwrap();
    ini.put_op(md_small)
        .target(tgt_id, 3)
        .bits(MatchBits::new(7))
        .ack(AckRequest::NoAck)
        .submit()
        .unwrap();
    bump(&tgt, ct_t, &mut ct_expect, &mut ct_values, 1);
    let back = ini.eq_wait(eq_back).unwrap();
    assert_eq!(back.mlength, 24, "triggered put payload");

    let drain = |ni: &portals::NetworkInterface, eq| {
        let mut out = Vec::new();
        while let Ok(e) = ni.eq_poll(eq, Duration::from_millis(50)) {
            out.push(fingerprint(e));
        }
        out
    };
    let mut ini_events = drain(&ini, eq_i);
    ini_events.extend(drain(&ini, eq_back));
    let tgt_events = drain(&tgt, eq_t);
    (ini_events, tgt_events, ct_values)
}

#[test]
fn scripted_event_and_ct_sequences_identical_across_modes() {
    let nic = scripted_scenario(ProgressMode::NicThread);
    let caller = scripted_scenario(ProgressMode::CallerDriven);
    for (name, other) in [
        ("caller-driven", &caller),
        ("host-driven", &scripted_scenario(ProgressMode::HostDriven)),
    ] {
        assert_eq!(nic.0, other.0, "{name}: initiator event sequences diverged");
        assert_eq!(nic.1, other.1, "{name}: target event sequences diverged");
        assert_eq!(nic.2, other.2, "{name}: counting-event values diverged");
    }
    // Sanity: the script produced the shape it promised.
    assert_eq!(
        caller.1.iter().map(|f| f.0).collect::<Vec<_>>(),
        vec![
            EventKind::Put,
            EventKind::Put,
            EventKind::Get,
            EventKind::Put
        ],
        "target saw put, truncated put, get, trigger-firing put"
    );
}

/// The step that exercises the shared core: a 1 MiB get at a 4 KiB MTU is a
/// 256-fragment reply, four go-back-N windows long, each released by acks the
/// target's stepper processes through the same core its engine submitted the
/// reply to; then an acked put the other way round the same path. Each is
/// waited for before the next, target first: a host-driven target serves the
/// request inside that wait. Returns (initiator events, target events, CT
/// values) like [`scripted_scenario`].
fn large_get_then_put(mode: ProgressMode, fabric: FabricConfig) -> Trace {
    const LEN: usize = 1 << 20;
    let fabric = Fabric::new(fabric);
    let cfg = || NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
            mtu: 4096,
            rto_base: Duration::from_millis(5),
            ..Default::default()
        },
        ..Default::default()
    };
    let na = Node::new(fabric.attach(NodeId(0)), cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), cfg());
    let ini = na.create_ni(1, NiConfig::default()).unwrap();
    let tgt = nb.create_ni(1, NiConfig::default()).unwrap();

    let eq_t = tgt.eq_alloc(16).unwrap();
    let ct_t = tgt.ct_alloc().unwrap();
    let bytes: Vec<u8> = (0..LEN).map(|i| (i * 13 + 5) as u8).collect();
    let me_t = tgt
        .me_attach(2, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    tgt.md_attach(
        me_t,
        MdSpec::new(Region::from_vec(bytes.clone()))
            .with_eq(eq_t)
            .with_ct(ct_t),
    )
    .unwrap();

    let eq_i = ini.eq_alloc(16).unwrap();
    let into = Region::zeroed(LEN);
    let md_get = ini
        .md_bind(MdSpec::new(into.clone()).with_eq(eq_i))
        .unwrap();
    let mut ini_events = Vec::new();
    let mut ct_values = Vec::new();

    ini.get_op(md_get)
        .target(tgt.id(), 2)
        .length(LEN as u64)
        .submit()
        .unwrap();
    let v = tgt.ct_wait(ct_t, 1).unwrap();
    ct_values.extend([v.success, v.failure]);
    ini_events.push(fingerprint(ini.eq_wait(eq_i).unwrap())); // Sent
    ini_events.push(fingerprint(ini.eq_wait(eq_i).unwrap())); // Reply
    assert!(into.read_vec(0, LEN) == bytes, "reply bytes");

    let md_put = ini
        .md_bind(MdSpec::new(Region::from_vec(vec![0x5A; 4096])).with_eq(eq_i))
        .unwrap();
    ini.put_op(md_put)
        .target(tgt.id(), 2)
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();
    let v = tgt.ct_wait(ct_t, 2).unwrap();
    ct_values.extend([v.success, v.failure]);
    ini_events.push(fingerprint(ini.eq_wait(eq_i).unwrap())); // Sent
    ini_events.push(fingerprint(ini.eq_wait(eq_i).unwrap())); // Ack

    let mut tgt_events = Vec::new();
    while let Ok(e) = tgt.eq_poll(eq_t, Duration::from_millis(50)) {
        tgt_events.push(fingerprint(e));
    }
    assert!(ini.eq_poll(eq_i, Duration::from_millis(50)).is_err());
    (ini_events, tgt_events, ct_values)
}

#[test]
fn multi_window_get_then_put_identical_across_modes() {
    let lossy = || {
        FabricConfig::default()
            .with_faults(FaultPlan::lossy(0.05))
            .with_seed(23)
    };
    for (name, fabric) in [
        ("clean", FabricConfig::ideal as fn() -> FabricConfig),
        ("lossy", lossy),
    ] {
        let nic = large_get_then_put(ProgressMode::NicThread, fabric());
        for mode in [ProgressMode::CallerDriven, ProgressMode::HostDriven] {
            let other = large_get_then_put(mode, fabric());
            assert_eq!(nic, other, "{name} fabric: {mode:?} diverged");
        }
        assert_eq!(
            nic.0.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![
                EventKind::Sent,
                EventKind::Reply,
                EventKind::Sent,
                EventKind::Ack
            ],
            "{name} fabric: initiator saw the get, then the acked put"
        );
        assert_eq!(
            nic.1.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![EventKind::Get, EventKind::Put],
            "{name} fabric"
        );
        assert_eq!(nic.2, vec![1, 0, 2, 0], "{name} fabric: CT values");
    }
}

/// Every mode a node can be built in: the wait contract holds in each.
const MODES: [ProgressMode; 3] = [
    ProgressMode::NicThread,
    ProgressMode::CallerDriven,
    ProgressMode::HostDriven,
];

/// Two nodes in one mode: an initiator interface, and a target interface
/// exposing portal 0 (match anything) with an event queue and a counter.
struct Pair {
    ini: NetworkInterface,
    tgt: NetworkInterface,
    eq: EqHandle,
    ct: CtHandle,
    _nodes: (Node, Node),
}

fn pair(mode: ProgressMode) -> Pair {
    let (na, nb) = two_nodes(mode);
    let ini = na.create_ni(1, NiConfig::default()).unwrap();
    let tgt = nb.create_ni(1, NiConfig::default()).unwrap();
    let eq = tgt.eq_alloc(1024).unwrap();
    let ct = tgt.ct_alloc().unwrap();
    let me = tgt
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    tgt.md_attach(me, MdSpec::new(Region::zeroed(64)).with_eq(eq).with_ct(ct))
        .unwrap();
    Pair {
        ini,
        tgt,
        eq,
        ct,
        _nodes: (na, nb),
    }
}

/// The blocking calls' contract, in every mode: a poll on nothing times out
/// no earlier than its bound, and a `ct_wait` blocked on another thread
/// returns `InvalidCt` once its counter is freed. (That a poll returns as
/// soon as its put lands is every round of `wait_never_loses_a_wakeup`.)
#[test]
fn wait_contract_holds_in_every_mode() {
    let bound = Duration::from_millis(30);
    for mode in MODES {
        let Pair { tgt, eq, ct, .. } = &pair(mode);
        let t0 = Instant::now();
        let got = tgt.eq_poll(*eq, bound).map(|e| e.kind);
        assert_eq!(got, Err(PtlError::Timeout), "{mode:?}");
        let t1 = Instant::now();
        let got = tgt.ct_poll(*ct, 1, bound);
        assert_eq!(got, Err(PtlError::Timeout), "{mode:?}");
        assert!(t1 - t0 >= bound && t1.elapsed() >= bound, "{mode:?}");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| tgt.ct_wait(*ct, 1));
            std::thread::sleep(Duration::from_millis(20));
            tgt.ct_free(*ct).unwrap();
            assert_eq!(waiter.join().unwrap(), Err(PtlError::InvalidCt), "{mode:?}");
        });
    }
}

/// Power-off, in every mode: dropping a node stops its stepper while one of
/// its interfaces is still held. A put sent to it afterwards is never
/// dispatched — the held interface's poll times out — and the node's
/// `portals-node-<nid>` thread is gone. (Node ids of their own: the other
/// tests of this file run alongside with nodes 0 and 1.)
#[test]
fn a_dropped_node_stays_off_while_its_interface_is_held() {
    for mode in MODES {
        let fabric = Fabric::ideal();
        let node = |nid| {
            let transport = TransportConfig {
                progress_mode: mode,
                ..Default::default()
            };
            let config = NodeConfig {
                transport,
                ..Default::default()
            };
            Node::new(fabric.attach(NodeId(nid)), config)
        };
        let (na, nb) = (node(8), node(9));
        let ini = na.create_ni(1, NiConfig::default()).unwrap();
        let tgt = nb.create_ni(1, NiConfig::default()).unwrap();
        let eq = tgt.eq_alloc(8).unwrap();
        let me = tgt
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        tgt.md_attach(me, MdSpec::new(Region::zeroed(8)).with_eq(eq))
            .unwrap();
        drop(nb);
        let md = ini.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
        ini.put_op(md)
            .target(tgt.id(), 0)
            .ack(AckRequest::NoAck)
            .submit()
            .unwrap();
        let got = tgt.eq_poll(eq, Duration::from_millis(50)).map(|e| e.kind);
        assert_eq!(got, Err(PtlError::Timeout), "{mode:?}");
        if cfg!(target_os = "linux") {
            let threads: Vec<String> = std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .map(|comm| comm.trim().to_string())
                .collect();
            assert!(
                !threads.iter().any(|name| name == "portals-node-9"),
                "{mode:?}: {threads:?}"
            );
        }
    }
}

/// The lost-wakeup stress: a producer thread fires puts at arbitrary points
/// around the consumer's check/park boundary; every eq_wait and ct_wait must
/// return promptly. A single slept-through doorbell turns into a 5 s timeout
/// and fails the test. (The same race is hammered at the doorbell level in
/// `portals_types::readiness` and at the transport level in the endpoint
/// tests; this covers the full put → dispatch → EQ/CT → unpark path, in
/// every mode.)
#[test]
fn wait_never_loses_a_wakeup() {
    for mode in MODES {
        wait_never_loses_a_wakeup_in(mode);
    }
}

fn wait_never_loses_a_wakeup_in(mode: ProgressMode) {
    const ROUNDS: u64 = 300;
    let Pair {
        ini: producer_ni,
        tgt: consumer,
        eq,
        ct,
        _nodes,
    } = pair(mode);
    let consumer_id = consumer.id();

    let producer = std::thread::spawn(move || {
        let md = producer_ni.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
        for i in 0..ROUNDS {
            producer_ni
                .put_op(md)
                .target(consumer_id, 0)
                .submit()
                .unwrap();
            // Vary the producer's cadence so fires land before, during and
            // after the consumer's spin phase and park.
            match i % 7 {
                0 => std::thread::sleep(Duration::from_micros(200)),
                1 | 2 => std::thread::yield_now(),
                3 => std::thread::sleep(Duration::from_millis(2)),
                _ => {}
            }
        }
    });

    for i in 1..=ROUNDS {
        let ev = consumer
            .eq_poll(eq, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{mode:?}: lost wakeup at round {i}: {e:?}"));
        assert_eq!(ev.kind, EventKind::Put);
        let v = consumer
            .ct_poll(ct, i, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{mode:?}: ct lost wakeup at round {i}: {e:?}"));
        assert!(v.success >= i);
    }
    producer.join().unwrap();
}
