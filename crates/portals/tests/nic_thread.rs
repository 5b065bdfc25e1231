//! The NIC thread's park protocol (DESIGN.md §6f).
//!
//! A NIC-thread node has exactly one thread: it parks on the node's readiness
//! doorbell, and when that rings it steps the transport and runs the engine
//! over whatever the step delivered — unless a caller blocked in a wait
//! drives the node meanwhile, which steps in its place while the thread
//! stands by. Callers submit inline under the same core lock and never ring
//! the doorbell. These tests pin the four properties
//! that arrangement rests on: the thread never sleeps through a datagram, a
//! timer a caller arms while it is parked still fires on time, the engine
//! re-entering the transport from the thread cannot deadlock against
//! submitting callers, and there really is one thread — plus the order the
//! step keeps: its transport acks leave after what it delivered has been
//! dispatched.

use portals::{
    AckRequest, EventKind, MdSpec, MePos, NetworkInterface, NiConfig, Node, NodeConfig,
    ProgressMode, Region,
};
use portals_net::{Fabric, Link, LinkCaps};
use portals_obs::{Obs, Stage, TraceEvent, TraceSink};
use portals_transport::{Endpoint, TransportConfig};
use portals_types::{DoorbellQueue, Gather, MatchBits, MatchCriteria, NodeId, ProcessId};
use portals_wire::{Packet, PacketHeader};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The tests measure wake-up latency in milliseconds and count this process's
/// threads, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn node(fabric: &Fabric, nid: u32, transport: TransportConfig) -> Node {
    Node::new(
        fabric.attach(NodeId(nid)),
        NodeConfig {
            transport,
            ..Default::default()
        },
    )
}

fn nic_thread(transport: TransportConfig) -> TransportConfig {
    TransportConfig {
        progress_mode: ProgressMode::NicThread,
        ..transport
    }
}

/// Match-anything landing zone on `portal`, events to a fresh queue.
fn expose(ni: &NetworkInterface, portal: u32, region: Region, events: usize) -> portals::EqHandle {
    let eq = ni.eq_alloc(events).unwrap();
    let me = ni
        .me_attach(
            portal,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )
        .unwrap();
    ni.md_attach(me, MdSpec::new(region).with_eq(eq)).unwrap();
    eq
}

/// The wall backstop on `nic_thread_never_sleeps_through_a_doorbell`'s
/// slowest round: 25 park bounds. The slowest round of each of 25 debug
/// runs of that test alone, on a 2-vCPU Xeon beside two release builds
/// (load average 2.4), in ms: min 0.4, quartiles 3.2 / 3.3 / 4.6, max 11.9.
/// A 10 ms wall bound would sit inside that spread.
const WORST_ROUND_BACKSTOP: Duration = Duration::from_millis(500);

/// Keeps the [`Stage::Park`] events: each NIC-thread park that ran to its
/// bound, with the sequence it observed, the work bits raised at wake and
/// whether a caller was registered as the node's driver.
#[derive(Default)]
struct Parks(Mutex<Vec<TraceEvent>>);

impl Parks {
    fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl TraceSink for Parks {
    fn record(&self, event: &TraceEvent) {
        if event.stage == Stage::Park {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(*event);
        }
    }
}

/// (a) No lost wake-up. Each round is a put to the peer and its echo back;
/// between rounds the producer waits a varying few microseconds, so its submit
/// lands before, inside and after the moment the peer's NIC thread — idle
/// since the last round — reads the doorbell sequence, steps and parks, and
/// the moment the peer's caller registers as its node's driver or leaves.
/// While a caller drives, the NIC thread stands by and may sit out its
/// bound, `rto_base` = 20 ms, by design. So the check is timer-free and
/// reads the parks that did: a park of either NIC thread that ran to its
/// bound during a round while a work bit was raised and no caller drove —
/// a doorbell set that woke nobody — is a miss, and any miss fails the
/// test, printing each missed round's park trace (the sequence observed,
/// the bits at wake, whether a driver was registered). A wall bound on the
/// slowest round stays as a backstop only; on a loaded box preemption alone
/// stretches rounds well past the park bound ([`WORST_ROUND_BACKSTOP`] has
/// the measured distribution). The twin of
/// `caller_driven_wait_never_loses_a_wakeup`.
#[test]
fn nic_thread_never_sleeps_through_a_doorbell() {
    let _turn = serial();
    const ROUNDS: u32 = 300;
    let cfg = nic_thread(TransportConfig::default());
    assert_eq!(cfg.rto_base, Duration::from_millis(20));
    let fabric = Fabric::ideal();
    let parks = Arc::new(Parks::default());
    let traced = |nid| {
        Node::new(
            fabric.attach(NodeId(nid)),
            NodeConfig {
                transport: cfg,
                obs: Obs::with_sinks(vec![Arc::clone(&parks) as Arc<dyn TraceSink>]),
                ..Default::default()
            },
        )
    };
    let (na, nb) = (traced(0), traced(1));
    let a = na.create_ni(1, NiConfig::default()).unwrap();
    let b = nb.create_ni(1, NiConfig::default()).unwrap();
    let (a_id, b_id) = (a.id(), b.id());
    let eq_a = expose(&a, 0, Region::zeroed(8), 64);
    let eq_b = expose(&b, 0, Region::zeroed(8), 64);

    let echo = std::thread::spawn(move || {
        let md = b.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
        for _ in 0..ROUNDS {
            b.eq_wait(eq_b).unwrap();
            b.put_op(md).target(a_id, 0).submit().unwrap();
        }
    });
    let md = a.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
    let (mut worst, mut worst_round) = (Duration::ZERO, 0);
    // Rounds with a miss: (round, took, every park that ran to its bound).
    let mut missed = Vec::new();
    for i in 0..ROUNDS {
        match i % 8 {
            0 => std::thread::sleep(Duration::from_micros(200)),
            1 => std::thread::yield_now(),
            2 => std::thread::sleep(Duration::from_millis(2)),
            // 0–120 µs in 3 µs steps: the stretch in which the idle peer
            // thread finishes its last step and goes to sleep.
            _ => {
                let until = Instant::now() + Duration::from_micros(u64::from(i % 41) * 3);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        parks.take();
        let t0 = Instant::now();
        a.put_op(md).target(b_id, 0).submit().unwrap();
        let ev = a.eq_wait(eq_a).unwrap();
        let took = t0.elapsed();
        assert_eq!(ev.kind, EventKind::Put);
        let round = parks.take();
        if round
            .iter()
            .any(|park| park.bytes != 0 && park.detail == "undriven")
        {
            let trace: Vec<String> = round
                .iter()
                .map(|park| {
                    format!(
                        "node {} seq {} bits {:#b} {}",
                        park.node, park.seq, park.bytes, park.detail
                    )
                })
                .collect();
            missed.push((i, took, trace));
        }
        if took > worst {
            (worst, worst_round) = (took, i);
        }
    }
    echo.join().unwrap();
    eprintln!("worst echo round: {worst:?} (round {worst_round})");
    assert!(
        missed.is_empty(),
        "a NIC-thread park ran to its bound over a raised work bit with no driver, in \
         (round, took, parks that ran to their bound): {missed:#?}"
    );
    assert!(
        worst < WORST_ROUND_BACKSTOP,
        "round {worst_round} took {worst:?}, though no doorbell set was slept through"
    );
}

/// (b) A retransmission timer armed by a submitting caller while the NIC
/// thread sits in its idle park. The caller does not ring the doorbell, so
/// the thread must come back by itself no later than the timer: its idle
/// park is bounded by `rto_base` from the park's start, and the timer cannot
/// be due earlier than that.
#[test]
fn timer_armed_by_a_caller_during_the_idle_park_fires_on_time() {
    let _turn = serial();
    let rto = Duration::from_millis(50);
    let cfg = nic_thread(TransportConfig {
        rto_base: rto,
        ..Default::default()
    });
    let fabric = Fabric::ideal();
    let (na, nb) = (node(&fabric, 0, cfg), node(&fabric, 1, cfg));
    let a = na.create_ni(1, NiConfig::default()).unwrap();
    let b = nb.create_ni(1, NiConfig::default()).unwrap();
    let eq_b = expose(&b, 0, Region::zeroed(8), 8);
    let md = a.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();

    // Long enough that both threads are in the idle park, not in a park a
    // recent timer bounded.
    std::thread::sleep(3 * rto);
    fabric.partition(NodeId(0), NodeId(1));
    let t0 = Instant::now();
    a.put_op(md).target(b.id(), 0).submit().unwrap();
    std::thread::sleep(rto / 5);
    fabric.heal(NodeId(0), NodeId(1));
    let ev = b
        .eq_poll(eq_b, Duration::from_secs(5))
        .expect("the retransmission delivers the put");
    let took = t0.elapsed();
    assert_eq!(ev.kind, EventKind::Put);
    assert!(
        took >= rto - Duration::from_millis(1),
        "delivered after {took:?}: the first copy was dropped, only the timer can have sent this"
    );
    assert!(
        took < 2 * rto + Duration::from_millis(25),
        "delivered after {took:?}: the timer armed during the park fired late"
    );
    assert!(na.flush_transport(Duration::from_secs(5)));
    assert_eq!(na.transport_stats().retransmissions.get(), 1);
}

/// (c) Re-entrancy. A's NIC thread answers B's 1 MiB gets from inside
/// `deliver` — `Endpoint::send` on A's core, then window after window
/// released by the acks that same thread processes — while two caller
/// threads on A submit puts through the same core lock. Everything completes,
/// each thread's puts arrive in the order it submitted them, and nothing
/// deadlocks.
#[test]
fn engine_reentry_from_the_nic_thread_shares_the_core_with_callers() {
    let _turn = serial();
    const LEN: usize = 1 << 20;
    const GETS: usize = 4;
    const PUTS: u64 = 1500;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let cfg = nic_thread(TransportConfig {
            mtu: 4096,
            ..Default::default()
        });
        let fabric = Fabric::ideal();
        let (na, nb) = (node(&fabric, 0, cfg), node(&fabric, 1, cfg));
        let a = na.create_ni(1, NiConfig::default()).unwrap();
        let b = nb.create_ni(1, NiConfig::default()).unwrap();
        let b_id = b.id();
        let source: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
        let _served = expose(&a, 1, Region::from_vec(source.clone()), 16);
        let eq_puts = expose(&b, 0, Region::zeroed(8), 2 * PUTS as usize + 8);

        std::thread::scope(|s| {
            for thread in 0..2u64 {
                let a = &a;
                s.spawn(move || {
                    let md = a.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
                    for seq in 0..PUTS {
                        a.put_op(md)
                            .target(b_id, 0)
                            .bits(MatchBits::new(thread << 32 | seq))
                            .ack(AckRequest::NoAck)
                            .submit()
                            .unwrap();
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..GETS {
                    let eq = b.eq_alloc(8).unwrap();
                    let into = Region::zeroed(LEN);
                    let md = b.md_bind(MdSpec::new(into.clone()).with_eq(eq)).unwrap();
                    b.get_op(md)
                        .target(a.id(), 1)
                        .length(LEN as u64)
                        .submit()
                        .unwrap();
                    assert_eq!(b.eq_wait(eq).unwrap().kind, EventKind::Sent);
                    assert_eq!(b.eq_wait(eq).unwrap().kind, EventKind::Reply);
                    assert!(into.read_vec(0, LEN) == source, "reply bytes");
                    b.md_unlink(md).unwrap();
                    b.eq_free(eq).unwrap();
                }
            });
        });
        let mut next = [0u64; 2];
        for _ in 0..2 * PUTS {
            let ev = b.eq_poll(eq_puts, Duration::from_secs(5)).expect("a put");
            let (thread, seq) = (ev.match_bits.raw() >> 32, ev.match_bits.raw() & 0xffff_ffff);
            assert_eq!(
                seq, next[thread as usize],
                "thread {thread}'s puts reordered"
            );
            next[thread as usize] += 1;
        }
        let _ = done_tx.send(());
    });
    if done_rx.recv_timeout(Duration::from_secs(10)).is_err() {
        // Either the body panicked (report that) or it is wedged.
        if body.is_finished() {
            body.join().unwrap();
        }
        panic!("deadlock: gets answered on the NIC thread and caller puts did not finish in 10 s");
    }
    body.join().unwrap();
}

/// (d) One thread. Four NIC-thread nodes own four `portals-node-*` threads
/// and nothing else of the stack's; caller-driven nodes own none; a bare
/// endpoint owns one or none the same way; a host-driven node owns exactly
/// one.
#[cfg(target_os = "linux")]
#[test]
fn a_nic_thread_node_owns_exactly_one_thread() {
    let _turn = serial();
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
    // A joined thread's task entry outlives the join while the thread
    // finishes exiting: its memory is already released, which is what wakes
    // the joiner, but it is still runnable (state R) and, on a loaded box,
    // waits its turn for a CPU — once for 4.3 ms in 6 300 runs of this test
    // alone beside CPU hogs. Give it up to a second.
    fn joined() -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(1);
        while !stack_threads().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stack_threads()
    }
    assert_eq!(stack_threads(), Vec::<String>::new(), "before any node");
    let fabric = Fabric::ideal();
    {
        let nodes: Vec<Node> = (0..4)
            .map(|n| node(&fabric, n, nic_thread(TransportConfig::default())))
            .collect();
        let expected: Vec<String> = (0..4).map(|n| format!("portals-node-{n}")).collect();
        // A thread names itself as it starts: give the four a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while stack_threads().len() < expected.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stack_threads(), expected);
        drop(nodes);
    }
    assert_eq!(joined(), Vec::<String>::new(), "threads joined");
    let mode = |progress_mode| TransportConfig {
        progress_mode,
        ..Default::default()
    };
    {
        let threadless = mode(ProgressMode::CallerDriven);
        let _nodes: Vec<Node> = (4..8).map(|n| node(&fabric, n, threadless)).collect();
        assert_eq!(stack_threads(), Vec::<String>::new(), "caller-driven");
    }
    // A bare endpoint's stepper is the same one: one thread of the same name
    // beside a NIC thread, none when callers step.
    {
        let _bare = Endpoint::new(fabric.attach(NodeId(9)), mode(ProgressMode::NicThread));
        let deadline = Instant::now() + Duration::from_secs(5);
        while stack_threads().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            stack_threads(),
            ["portals-node-9"],
            "bare NIC-thread endpoint"
        );
    }
    assert_eq!(joined(), Vec::<String>::new(), "bare endpoint joined");
    {
        let _bare = Endpoint::new(fabric.attach(NodeId(10)), mode(ProgressMode::CallerDriven));
        assert_eq!(stack_threads(), Vec::<String>::new(), "bare caller-driven");
    }
    // A host-driven node still has its NIC thread (it runs the transport),
    // and only that.
    let _host = node(&fabric, 8, mode(ProgressMode::HostDriven));
    let deadline = Instant::now() + Duration::from_secs(5);
    while stack_threads().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(stack_threads(), ["portals-node-8"], "host-driven");
}

/// One entry per wire call a link was handed: a `send` or a `send_batch`.
type Calls = Arc<Mutex<Vec<Vec<(NodeId, Gather)>>>>;

/// A fabric NIC that records every wire call it is handed.
struct Recording {
    nic: portals_net::Nic,
    calls: Calls,
}

impl Link for Recording {
    fn nid(&self) -> NodeId {
        Link::nid(&self.nic)
    }
    fn send(&self, dst: NodeId, payload: Gather) {
        self.send_batch(vec![(dst, payload)]);
    }
    fn send_batch(&self, batch: Vec<(NodeId, Gather)>) {
        self.calls.lock().unwrap().push(batch.clone());
        Link::send_batch(&self.nic, batch);
    }
    fn inbound_receiver(&self) -> Arc<DoorbellQueue<portals_net::Datagram>> {
        Link::inbound_receiver(&self.nic)
    }
    fn caps(&self) -> LinkCaps {
        self.nic.caps()
    }
}

/// (e) Ack after dispatch. The target of an acked put owes the initiator a
/// transport ACK when its step hands the put to the engine; the engine's
/// Portals ack is data to the same peer, so the transport ACK leaves first in
/// that data's wire call — in both modes that run the engine from the step.
/// The target's link sees exactly one wire call: `[ACK, DATA]`.
#[test]
fn acked_put_target_sends_transport_ack_and_portals_ack_in_one_wire_call() {
    let _turn = serial();
    for progress_mode in [ProgressMode::NicThread, ProgressMode::CallerDriven] {
        // A retransmission would be a second wire call; none is due in time.
        let cfg = TransportConfig {
            progress_mode,
            rto_base: Duration::from_secs(5),
            ..Default::default()
        };
        let fabric = Fabric::ideal();
        let calls = Calls::default();
        let target = Recording {
            nic: fabric.attach(NodeId(1)),
            calls: Arc::clone(&calls),
        };
        let na = node(&fabric, 0, cfg);
        let nb = Node::new(
            target,
            NodeConfig {
                transport: cfg,
                ..Default::default()
            },
        );
        let a = na.create_ni(1, NiConfig::default()).unwrap();
        let b = nb.create_ni(1, NiConfig::default()).unwrap();
        let _eq_b = expose(&b, 0, Region::zeroed(8), 8);
        let eq_a = a.eq_alloc(8).unwrap();
        let md = a
            .md_bind(MdSpec::new(Region::zeroed(8)).with_eq(eq_a))
            .unwrap();
        a.put_op(md)
            .target(b.id(), 0)
            .ack(AckRequest::Ack)
            .submit()
            .unwrap();
        assert_eq!(a.eq_wait(eq_a).unwrap().kind, EventKind::Sent);
        assert_eq!(a.eq_wait(eq_a).unwrap().kind, EventKind::Ack);
        let headers: Vec<Vec<(NodeId, PacketHeader)>> = calls
            .lock()
            .unwrap()
            .iter()
            .map(|call| {
                call.iter()
                    .map(|(dst, p)| (*dst, Packet::decode_gather(p).unwrap().header))
                    .collect()
            })
            .collect();
        assert!(
            matches!(
                &headers[..],
                [call] if matches!(
                    &call[..],
                    [
                        (NodeId(0), PacketHeader::Ack { .. }),
                        (NodeId(0), PacketHeader::Data { .. }),
                    ]
                )
            ),
            "{progress_mode:?}: the target's wire calls were {headers:?}"
        );
    }
}
