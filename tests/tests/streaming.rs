//! Arrival shape must not be observable.
//!
//! A message that fits one transport fragment arrives whole; a larger one
//! arrives as a stream of fragments whose payload is scattered into the
//! matched region while the rest is still on the wire. Both run the same
//! §4.8 receive sequence (begin → write → finish), so *which* shape a message
//! took — a function of nothing but the link MTU — must change neither what
//! arrives nor what anyone can observe about it. Every test here runs the
//! same traffic at an MTU above every message and at an MTU below every
//! header, on clean and seeded-faulty wires, in both progress modes. (The
//! transport over a real lossy UDP socket is `crates/netudp/tests/udp.rs`.)

use portals::{
    AckRequest, AtomicDatatype, AtomicOp, EqHandle, Event, EventKind, MdHandle, MdOptions, MdSpec,
    MePos, NetworkInterface, NiConfig, Node, NodeConfig, Threshold, NACK_MLENGTH,
};
use portals_net::{Fabric, FabricConfig, FaultPlan, Link, LinkModel};
use portals_obs::SeriesSnapshot;
use portals_transport::{Endpoint, ProgressMode, TransportConfig};
use portals_types::{Gather, MatchBits, MatchCriteria, NodeId, ProcessId, PtlError, Region};
use portals_wire::{
    Packet, PortalsMessage, PutRequest, Reply, RequestHeader, ResponseHeader, RAW_HANDLE_NONE,
};
use proptest::prelude::*;
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

const TIMEOUT: Duration = Duration::from_secs(60);

/// Above every message any test here sends: each arrives whole.
const MTU_WHOLE: usize = 1 << 20;
/// Below every Portals header: even an ack or a zero-length put is streamed.
const MTU_PIECES: usize = 40;

fn faulty_fabric(seed: u64, loss_pct: u32, jitter_us: u64) -> Fabric {
    Fabric::new(
        FabricConfig::default()
            .with_faults(FaultPlan {
                loss_probability: f64::from(loss_pct) / 100.0,
                duplicate_probability: 0.1,
                max_jitter: Duration::from_micros(jitter_us),
            })
            .with_seed(seed)
            .with_link(LinkModel {
                latency: Duration::from_micros(5),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            }),
    )
}

/// Deterministic per-message payloads.
fn payloads(n_msgs: usize, msg_len: usize) -> Vec<Vec<u8>> {
    (0..n_msgs)
        .map(|i| (0..msg_len).map(|j| (i * 131 + j * 7) as u8).collect())
        .collect()
}

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + salt * 31) as u8).collect()
}

// ---------------------------------------------------------------------------
// Transport level: the sent bytes are the oracle.
// ---------------------------------------------------------------------------

/// Send every payload a → b at `mtu` and receive through the endpoint's
/// message API (whose fold asserts, in this debug build, that streamed
/// fragments arrive offset-contiguous); returns what arrived and how many
/// fragments were streamed.
fn run_transport(
    mtu: usize,
    mode: ProgressMode,
    fabric: &Fabric,
    msgs: &[Vec<u8>],
) -> (Vec<Vec<u8>>, u64) {
    let tcfg = TransportConfig {
        mtu,
        window: 8,
        rto_base: Duration::from_millis(2),
        ooo_buffer_bytes: 4096,
        progress_mode: mode,
        ..Default::default()
    };
    let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
    let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
    for p in msgs {
        a.send(NodeId(1), Gather::from_vec(p.clone()));
    }
    let out = msgs
        .iter()
        .map(|_| {
            let m = b.recv_timeout(TIMEOUT).expect("message lost under faults");
            m.payload.to_vec()
        })
        .collect();
    let stats = b.stats();
    assert!(
        stats.bytes_buffered_hwm.get() <= 4096,
        "OOO budget exceeded"
    );
    assert_eq!(stats.noncontiguous_dropped.get(), 0);
    (out, stats.frags_streamed.get())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..Default::default() })]
    #[test]
    fn both_shapes_deliver_the_sent_bytes_under_faults(
        seed in 0u64..1000,
        loss_pct in 5u32..25,
        jitter_us in 20u64..300,
        msg_len in 1000usize..4000,
        n_msgs in 3usize..6,
    ) {
        let msgs = payloads(n_msgs, msg_len);
        for mode in [ProgressMode::NicThread, ProgressMode::CallerDriven] {
            let fabric = || faulty_fabric(seed, loss_pct, jitter_us);
            let (whole, streamed) = run_transport(8192, mode, &fabric(), &msgs);
            prop_assert_eq!(&whole, &msgs, "single-fragment arm corrupted traffic");
            prop_assert_eq!(streamed, 0);
            let (pieces, streamed) = run_transport(256, mode, &fabric(), &msgs);
            prop_assert_eq!(&pieces, &msgs, "multi-fragment arm corrupted traffic");
            prop_assert!(streamed > 0, "no fragment was streamed");
        }
    }
}

// ---------------------------------------------------------------------------
// Portals level: one script, two MTUs, identical observations.
// ---------------------------------------------------------------------------

/// Everything an application or an operator can see of a run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every event either interface logged: queue order within each queue,
    /// script order across queues.
    events: Vec<(&'static str, Event)>,
    /// Each interface's whole counter set ([`counter_set`]).
    counters: [Vec<SeriesSnapshot>; 2],
    cts: [u64; 2],
    /// The bytes every target region ended up holding.
    landed: Vec<Vec<u8>>,
    node_garbage: [u64; 2],
}

/// Drive `ni`'s progress, then read its `portals.*{node, pid}` series.
fn counter_set(ni: &NetworkInterface) -> Vec<SeriesSnapshot> {
    ni.progress();
    let (node, pid) = (ni.id().nid.0.to_string(), ni.id().pid.to_string());
    let ours = |s: &SeriesSnapshot| s.label("node") == Some(&node) && s.label("pid") == Some(&pid);
    ni.obs()
        .registry
        .snapshot()
        .into_iter()
        .filter(ours)
        .collect()
}

/// Sum of the counter series named `name` in `set`.
fn total(set: &[SeriesSnapshot], name: &str) -> u64 {
    set.iter()
        .filter(|s| s.name == name)
        .filter_map(SeriesSnapshot::as_counter)
        .sum()
}

/// Initiator `a`, target `b`, their main queues, and the log the script
/// appends to. Every operation is completed (event seen, or drop counted)
/// before the next is issued, so every queue's sequence is a total order.
struct World {
    a: NetworkInterface,
    b: NetworkInterface,
    aeq: EqHandle,
    beq: EqHandle,
    events: Vec<(&'static str, Event)>,
    landed: Vec<Region>,
    drops: u64,
}

const ONE_SHOT: MdOptions = MdOptions {
    op_put: true,
    op_get: true,
    truncate: true,
    manage_local_offset: false,
    unlink_on_exhaustion: true,
    min_free: 0,
};

impl World {
    /// Consume the next events of `eq` on the named side, logging them.
    fn expect(&mut self, side: &'static str, eq: EqHandle, kinds: &[EventKind]) -> Event {
        let ni = if side == "a" { &self.a } else { &self.b };
        let mut last = None;
        for &kind in kinds {
            let ev = ni.eq_poll(eq, TIMEOUT).expect("event");
            assert_eq!(ev.kind, kind);
            self.events.push((side, ev));
            last = Some(ev);
        }
        last.expect("at least one kind")
    }

    /// One more message was dropped somewhere: wait until it is counted.
    fn dropped(&mut self) {
        self.drops += 1;
        let deadline = Instant::now() + TIMEOUT;
        while self.a.counters().dropped_total() + self.b.counters().dropped_total() < self.drops {
            assert!(
                Instant::now() < deadline,
                "drop {} never counted",
                self.drops
            );
            std::thread::yield_now();
        }
    }

    /// A fresh target region whose final contents are part of the observation.
    fn region(&mut self, len: usize) -> Region {
        self.landed.push(Region::zeroed(len));
        self.landed[self.landed.len() - 1].clone()
    }

    /// Expose `spec` on the target behind exact match bits.
    fn expose(&self, pt: u32, bits: u64, unlink_me: bool, spec: MdSpec) {
        let criteria = MatchCriteria::exact(MatchBits::new(bits));
        let me = self
            .b
            .me_attach(pt, ProcessId::ANY, criteria, unlink_me, MePos::Back)
            .unwrap();
        self.b.md_attach(me, spec).unwrap();
    }

    /// Bind an initiator-side source holding `bytes`.
    fn src(&self, bytes: Vec<u8>) -> MdHandle {
        let spec = MdSpec::new(Region::from_vec(bytes)).with_eq(self.aeq);
        self.a.md_bind(spec).unwrap()
    }

    /// Put `md` and see the initiator's `Sent`, plus its `Ack` if one is due.
    fn put(&mut self, md: MdHandle, pt: u32, bits: u64, ack: AckRequest) -> Event {
        let put = self.a.put_op(md).target(self.b.id(), pt);
        put.bits(MatchBits::new(bits)).ack(ack).submit().unwrap();
        let acked = [EventKind::Sent, EventKind::Ack];
        let kinds = if ack == AckRequest::Ack {
            &acked[..]
        } else {
            &acked[..1]
        };
        self.expect("a", self.aeq, kinds)
    }

    /// An acked put the target accepts, logging `on_target` to its main queue.
    fn accepted(&mut self, md: MdHandle, pt: u32, bits: u64, on_target: &[EventKind]) -> Event {
        let ack = self.put(md, pt, bits, AckRequest::Ack);
        assert_ne!(ack.mlength, NACK_MLENGTH);
        self.expect("b", self.beq, on_target)
    }

    /// An acked put a flow-controlled portal refuses.
    fn nacked(&mut self, md: MdHandle, pt: u32, bits: u64) {
        assert_eq!(
            self.put(md, pt, bits, AckRequest::Ack).mlength,
            NACK_MLENGTH
        );
        self.dropped();
    }

    fn get(&mut self, md: MdHandle, bits: u64, len: u64) {
        let get = self.a.get_op(md).target(self.b.id(), 0);
        get.bits(MatchBits::new(bits)).length(len).submit().unwrap();
        self.expect("b", self.beq, &[EventKind::Get]);
    }
}

/// The script: every §4.8 outcome a put or a reply can have.
fn scripted(mtu: usize, mode: ProgressMode, fabric: Fabric) -> Observed {
    use EventKind::{Ack, Atomic, FlowCtrl, Put, Reply as ReplyEv, Sent, Unlink};
    let cfg = || NodeConfig {
        transport: TransportConfig {
            mtu,
            rto_base: Duration::from_millis(2),
            progress_mode: mode,
            ..Default::default()
        },
        ..Default::default()
    };
    let na = Node::new(fabric.attach(NodeId(0)), cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), cfg());
    let (a, b) = (
        na.create_ni(1, NiConfig::default()).unwrap(),
        nb.create_ni(1, NiConfig::default()).unwrap(),
    );
    let (aeq, beq, ct) = (
        a.eq_alloc(64).unwrap(),
        b.eq_alloc(64).unwrap(),
        b.ct_alloc().unwrap(),
    );
    let mut w = World {
        a,
        b,
        aeq,
        beq,
        events: Vec::new(),
        landed: Vec::new(),
        drops: 0,
    };
    let logged = |r: Region| MdSpec::new(r).with_eq(beq);

    // 1. Truncation, acked and not: 300 bytes into 64. Then a zero-length put.
    let r = w.region(64);
    w.expose(0, 1, false, logged(r).with_ct(ct));
    let md300 = w.src(pattern(300, 1));
    assert_eq!(w.accepted(md300, 0, 1, &[Put]).mlength, 64);
    w.put(md300, 0, 1, AckRequest::NoAck);
    w.expect("b", beq, &[Put]);
    let md0 = w.src(Vec::new());
    w.accepted(md0, 0, 1, &[Put]);

    // 2. Threshold exhaustion unlinks the MD and its entry; the next put to
    //    the same bits falls off the list (portal 0 has no flow control).
    let one_shot = |r: Region| {
        logged(r)
            .with_threshold(Threshold::Count(1))
            .with_options(ONE_SHOT)
    };
    let r = w.region(512);
    w.expose(0, 2, true, one_shot(r));
    let md400 = w.src(pattern(400, 2));
    w.accepted(md400, 0, 2, &[Put, Unlink]);
    w.put(md400, 0, 2, AckRequest::NoAck);
    w.dropped();

    // 3. A managed-offset slab packs three puts back to back, then runs
    //    below its min-free mark and unlinks.
    let slab = MdOptions {
        manage_local_offset: true,
        min_free: 600,
        ..Default::default()
    };
    let r = w.region(2048);
    w.expose(1, 3, false, logged(r).with_ct(ct).with_options(slab));
    for (len, on_target) in [(300, &[Put][..]), (500, &[Put]), (700, &[Put, Unlink])] {
        let md = w.src(pattern(len, len));
        w.accepted(md, 1, 3, on_target);
    }
    assert_eq!(w.events[w.events.len() - 2].1.offset, 800);

    // 4. Flow control, `NoMatch` variant: a one-shot entry takes the first
    //    put; the second finds the list exhausted, trips the portal and is
    //    nacked; the third meets the disabled portal.
    let flow_eq = w.b.eq_alloc(8).unwrap();
    w.b.pt_flow_ctrl(2, Some(flow_eq)).unwrap();
    let r = w.region(256);
    w.expose(2, 4, true, one_shot(r));
    let md200 = w.src(pattern(200, 4));
    w.accepted(md200, 2, 4, &[Put, Unlink]);
    w.nacked(md200, 2, 4);
    w.nacked(md200, 2, 4);
    w.expect("b", flow_eq, &[FlowCtrl]);
    w.b.pt_enable(2).unwrap();

    // 5. Flow control, EQ-room variant: the matched MD's queue holds two
    //    events; with one unread, a second put would leave no headroom.
    let tiny = w.b.eq_alloc(2).unwrap();
    w.b.pt_flow_ctrl(3, Some(flow_eq)).unwrap();
    let r = w.region(256);
    w.expose(3, 5, false, MdSpec::new(r).with_eq(tiny));
    w.put(md200, 3, 5, AckRequest::Ack);
    w.nacked(md200, 3, 5);
    w.expect("b", flow_eq, &[FlowCtrl]);
    w.expect("b", tiny, &[Put]);

    // 6. Replies: one that lands, and one whose queue is full (a one-slot
    //    queue still holding the get's own `Sent`), which releases the pin.
    w.expose(0, 6, false, logged(Region::from_vec(pattern(1000, 6))));
    let r = w.region(500);
    let pulled = w.a.md_bind(MdSpec::new(r).with_eq(aeq)).unwrap();
    w.get(pulled, 6, 500);
    w.expect("a", aeq, &[Sent, ReplyEv]);
    let one_slot = w.a.eq_alloc(1).unwrap();
    let r = w.region(500);
    let lost = w.a.md_bind(MdSpec::new(r).with_eq(one_slot)).unwrap();
    w.get(lost, 6, 500);
    w.dropped();
    w.expect("a", one_slot, &[Sent]);
    assert_eq!(w.a.md_unlink(lost), Ok(()), "lost reply left the MD pinned");

    // 7. Two 50-lane `F64` sums fold into one region (allreduce-style); at
    //    the small MTU each read-modify-write arrives in fragments.
    let r = w.region(400);
    w.expose(0, 7, false, logged(r).with_ct(ct));
    for k in [1.0, 2.0] {
        let v = (0..50).flat_map(|i| (f64::from(i) * k).to_le_bytes());
        let md = w.src(v.collect());
        let sum =
            w.a.atomic_op(md)
                .target(w.b.id(), 0)
                .bits(MatchBits::new(7));
        let sum = sum.op(AtomicOp::Sum).datatype(AtomicDatatype::F64);
        sum.length(400).ack(AckRequest::Ack).submit().unwrap();
        w.expect("a", aeq, &[Sent, Ack]);
        w.expect("b", beq, &[Atomic]);
    }

    // Nothing may be left unread.
    for (ni, eq) in [(&w.a, aeq), (&w.b, beq), (&w.b, flow_eq)] {
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty), "stray event");
    }
    // The engine counts an ack or a put *after* pushing its event, so the
    // event this script just consumed may still be ahead of its counter.
    let mut counters = [counter_set(&w.a), counter_set(&w.b)];
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let again = [counter_set(&w.a), counter_set(&w.b)];
        if again == counters {
            break;
        }
        counters = again;
    }
    let ctv = w.b.ct_get(ct).unwrap();
    Observed {
        counters,
        cts: [ctv.success, ctv.failure],
        landed: w.landed.iter().map(|r| r.read_vec(0, r.len())).collect(),
        node_garbage: [na.dropped_garbage(), nb.dropped_garbage()],
        events: w.events,
    }
}

#[test]
fn arrival_shape_is_not_observable() {
    for mode in [ProgressMode::NicThread, ProgressMode::CallerDriven] {
        let clean = scripted(MTU_WHOLE, mode, Fabric::ideal());
        let target = &clean.counters[1];
        assert_eq!(total(target, "portals.dropped"), 4, "script drift");
        assert!(
            total(target, "portals.payload_copies") <= total(target, "portals.payload_messages")
        );
        assert_eq!(clean.node_garbage, [0, 0]);
        let pieces = scripted(MTU_PIECES, mode, Fabric::ideal());
        assert_eq!(pieces, clean, "{mode:?}, clean wire");
        for mtu in [MTU_WHOLE, MTU_PIECES] {
            let lossy = scripted(mtu, mode, faulty_fabric(7, 10, 100));
            assert_eq!(lossy, clean, "{mode:?}, lossy wire, mtu {mtu}");
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity: what the header declares is what must arrive, in either shape.
// ---------------------------------------------------------------------------

/// The wire image of a put from process (0, 1) to portal 0 of process (1, 1).
fn encoded_put(payload: Vec<u8>, ack_md: u64) -> Vec<u8> {
    let header = RequestHeader {
        initiator: ProcessId::new(0, 1),
        target: ProcessId::new(1, 1),
        portal_index: 0,
        cookie: 0,
        match_bits: MatchBits::ZERO,
        offset: 0,
        length: payload.len() as u64,
    };
    let put = PutRequest {
        header,
        ack_md,
        ack_eq: RAW_HANDLE_NONE,
        payload: Gather::from_vec(payload),
    };
    PortalsMessage::Put(put).encode().to_vec()
}

/// The wire image of a 48-byte reply from process (0, 1) into `md`.
fn encoded_reply(md: MdHandle) -> Vec<u8> {
    let header = ResponseHeader {
        initiator: ProcessId::new(0, 1),
        target: ProcessId::new(1, 1),
        portal_index: 0,
        match_bits: MatchBits::ZERO,
        offset: 0,
        md_handle: md.to_raw(),
        eq_handle: RAW_HANDLE_NONE,
        requested_length: 48,
        manipulated_length: 48,
    };
    let payload = Gather::from_vec(vec![0xEE; 48]);
    PortalsMessage::Reply(Reply { header, payload })
        .encode()
        .to_vec()
}

// A put or reply whose payload is shorter or longer than its header declares
// completes nothing: no Put/Reply event, no ack, no counting-event increment;
// it is counted as garbage. The streamed shape committed at header time, so
// an auto-unlink it performed is real and is reported; the whole shape was
// rejected before it touched anything.
#[test]
fn length_mismatched_messages_complete_nothing_in_either_shape() {
    for (mtu, case) in [MTU_WHOLE, MTU_PIECES]
        .into_iter()
        .flat_map(|m| [(m, 0), (m, 1), (m, 2)])
    {
        let fabric = Fabric::ideal();
        let transport = TransportConfig {
            mtu,
            ..Default::default()
        };
        let raw = Endpoint::new(fabric.attach(NodeId(0)), transport);
        let node_cfg = NodeConfig {
            transport,
            ..Default::default()
        };
        let node = Node::new(fabric.attach(NodeId(1)), node_cfg);
        let ni = node.create_ni(1, NiConfig::default()).unwrap();
        let (eq, ct) = (ni.eq_alloc(8).unwrap(), ni.ct_alloc().unwrap());
        let spec = || MdSpec::new(Region::zeroed(64)).with_eq(eq).with_ct(ct);
        let me = ni
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), true, MePos::Back)
            .unwrap();
        let one_shot = spec().with_threshold(Threshold::Count(1));
        ni.md_attach(me, one_shot.with_options(ONE_SHOT)).unwrap();
        let reply_md = ni.md_bind(spec()).unwrap();

        let mut bytes = match case {
            0 | 1 => encoded_put(vec![0xEE; 48], 77),
            _ => encoded_reply(reply_md),
        };
        bytes.truncate(bytes.len() - 9);
        if case == 1 {
            bytes.resize(bytes.len() + 30, 0xEE);
        }
        raw.send(NodeId(1), Gather::from_vec(bytes));

        // Judged: counted as garbage, or (wrongly) completed into `eq`.
        let deadline = Instant::now() + TIMEOUT;
        while node.dropped_garbage() == 0 && ni.eq_len(eq) == Ok(0) {
            assert!(Instant::now() < deadline, "malformed message never judged");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        let mut kinds = Vec::new();
        while let Ok(ev) = ni.eq_get(eq) {
            kinds.push(ev.kind);
        }
        let what = format!("mtu {mtu}, case {case}: events {kinds:?}");
        assert!(kinds.iter().all(|k| *k == EventKind::Unlink), "{what}");
        let unlinked = ni.resources_in_use() == (0, 1);
        assert_eq!(kinds.len(), usize::from(unlinked), "{what}");
        assert_eq!(ni.ct_get(ct).unwrap().success, 0, "{what}");
        let counted = ni.counters();
        assert_eq!(
            (
                counted.requests_accepted.get(),
                counted.replies_accepted.get()
            ),
            (0, 0)
        );
        assert_eq!(node.dropped_garbage(), 1, "{what}");
        // An ack would have come back to the raw endpoint.
        assert!(raw.recv_timeout(Duration::from_millis(50)).is_none());
    }
}

// ---------------------------------------------------------------------------
// Hostile fragment fields: sequence numbers and CRCs are valid, nothing else
// about a DATA packet can be trusted, nor the Portals header inside it.
// ---------------------------------------------------------------------------

/// One DATA packet's fragment fields and body; its `seq` is its position.
#[derive(Debug, Clone)]
struct Frag {
    msg_id: u64,
    offset: u64,
    index: u32,
    count: u32,
    body: Vec<u8>,
}

/// What a receiver that enforces contiguity must deliver for `frags`: the
/// runs that start at (index 0, offset 0) and continue at exactly the next
/// index and the next byte until index + 1 == count.
fn contiguous_runs(frags: &[Frag]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut open: Option<(&Frag, Vec<u8>)> = None;
    for f in frags {
        let continues = open.as_ref().is_some_and(|(prev, acc)| {
            (f.msg_id, f.count) == (prev.msg_id, prev.count)
                && f.index == prev.index + 1
                && f.offset == acc.len() as u64
        });
        let mut acc = match open.take() {
            Some((_, acc)) if continues => acc,
            _ if f.index == 0 && f.offset == 0 && f.count != 0 => Vec::new(),
            _ => continue,
        };
        acc.extend(&f.body);
        if f.index + 1 == f.count {
            out.push(acc);
        } else {
            open = Some((f, acc));
        }
    }
    out
}

/// A field of a put's own Portals header, overwritten in its bytes.
#[derive(Debug, Clone)]
enum Lie {
    /// The declared payload length.
    Length(u64),
    /// The operation byte: another request, or no operation at all. (A
    /// response would read its handles out of the put's fields.)
    Operation(u8),
    /// The atomic op byte, with a valid datatype after it: the first bytes
    /// of a put's `ack_md`, read as an atomic's when the operation says so.
    AtomicOp(u8),
}

/// Where a request's declared length and an atomic's op byte sit.
const LENGTH_AT: usize = PortalsMessage::ENVELOPE_SIZE + RequestHeader::WIRE_SIZE - 8;
const ATOMIC_OP_AT: usize = PortalsMessage::ENVELOPE_SIZE + RequestHeader::WIRE_SIZE;

fn lie() -> impl Strategy<Value = Lie> {
    let length = prop_oneof![0u64..4, Just(u64::MAX), Just(1 << 63), Just(1 << 40)];
    let operation = prop_oneof![Just(0x00u8), Just(0x03), Just(0x05), Just(0x06), Just(0xee)];
    prop_oneof![
        length.prop_map(Lie::Length),
        operation.prop_map(Lie::Operation),
        (1u8..=6).prop_map(Lie::AtomicOp),
    ]
}

/// Honest puts with some header fields overwritten, fragmented at a small
/// MTU, then some fragment fields overwritten.
fn hostile_frags() -> impl Strategy<Value = Vec<Frag>> {
    let wide = prop_oneof![0u64..4, Just(u64::MAX), Just(1 << 40)];
    let narrow = prop_oneof![0u32..4, Just(u32::MAX)];
    let mutations = proptest::collection::vec((0usize..12, wide, narrow), 0..3);
    let lies = proptest::collection::vec(lie(), 0..3);
    let message = (0usize..200, 30usize..120, mutations, lies);
    proptest::collection::vec(message, 1..8).prop_map(|messages| {
        let mut frags = Vec::new();
        for (msg_id, (len, mtu, mutations, lies)) in messages.into_iter().enumerate() {
            let mut bytes = encoded_put(pattern(len, msg_id), RAW_HANDLE_NONE);
            for lie in lies {
                match lie {
                    Lie::Length(n) => bytes[LENGTH_AT..][..8].copy_from_slice(&n.to_le_bytes()),
                    Lie::Operation(op) => bytes[1] = op,
                    Lie::AtomicOp(op) => bytes[ATOMIC_OP_AT..][..2]
                        .copy_from_slice(&[op, AtomicDatatype::U64.to_byte()]),
                }
            }
            let (first, count) = (frags.len(), bytes.len().div_ceil(mtu));
            frags.extend(bytes.chunks(mtu).enumerate().map(|(i, chunk)| Frag {
                msg_id: msg_id as u64,
                offset: (i * mtu) as u64,
                index: i as u32,
                count: count as u32,
                body: chunk.to_vec(),
            }));
            for (which, wide, narrow) in mutations {
                let f = &mut frags[first + which % count];
                match which % 4 {
                    0 => f.msg_id = wide,
                    1 => f.offset = wide,
                    2 => f.index = narrow,
                    _ => f.count = narrow,
                }
            }
        }
        frags
    })
}

/// Put `frags` on the wire to node 1 as in-sequence, correctly checksummed
/// DATA packets from node 0.
fn inject(link: &impl Link, frags: &[Frag]) {
    for (seq, f) in frags.iter().enumerate() {
        let body = Gather::from_vec(f.body.clone());
        let packet = Packet::data(seq as u64, f.msg_id, f.offset, f.index, f.count, body);
        link.send(NodeId(1), packet.encode());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]
    #[test]
    fn arbitrary_fragment_fields_cannot_wedge_or_corrupt(mut frags in hostile_frags()) {
        for mode in BOTH_BUILDS {
            // Through an endpoint: exactly the contiguous runs come out.
            let fabric = Fabric::ideal();
            let rx = Endpoint::with_defaults(fabric.attach(NodeId(1)));
            inject(&fabric.attach(NodeId(0)), &frags);
            let expect = contiguous_runs(&frags);
            for want in &expect {
                let got = rx.recv_timeout(TIMEOUT).expect("contiguous message withheld");
                prop_assert_eq!(&got.payload.to_vec(), want);
            }
            prop_assert!(rx.recv_timeout(Duration::from_millis(20)).is_none());
            prop_assert_eq!(rx.stats().messages_delivered.get(), expect.len() as u64);

            // Through a node: every intact put is delivered, the rest is garbage,
            // and the NIC thread is still alive to take one more. The descriptor
            // truncates, so a header declaring any length is matched and a sink
            // opened, unless the head itself is refused.
            let fabric = Fabric::ideal();
            let node = Node::new(fabric.attach(NodeId(1)), build(mode));
            let ni = node.create_ni(1, NiConfig::default()).unwrap();
            let eq = ni.eq_alloc(64).unwrap();
            let me = ni
                .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
                .unwrap();
            const MD_LEN: usize = 64;
            let truncating = MdOptions {
                truncate: true,
                ..MdOptions::default()
            };
            let spec = MdSpec::new(Region::zeroed(MD_LEN)).with_options(truncating);
            ni.md_attach(me, spec.with_eq(eq)).unwrap();
            let body = encoded_put(pattern(9, 9), RAW_HANDLE_NONE);
            frags.push(Frag { msg_id: u64::MAX, offset: 0, index: 0, count: 1, body });
            inject(&fabric.attach(NodeId(0)), &frags);
            for run in contiguous_runs(&frags) {
                if let Ok(PortalsMessage::Put(put)) = PortalsMessage::decode(&run) {
                    let ev = ni.eq_poll(eq, TIMEOUT).expect("intact put withheld");
                    let mlength = put.payload.len().min(MD_LEN) as u64;
                    prop_assert_eq!((ev.kind, ev.mlength), (EventKind::Put, mlength));
                }
            }
            prop_assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        }
    }
}
