//! Triggered operations & counting events, end to end.
//!
//! Three layers of coverage:
//!
//! * the four §4.8 delivery paths each count one success on the attached
//!   counting event (put delivered, ack consumed, get served, reply landed);
//! * offloaded collectives are *byte-identical* to the host-driven ones across
//!   power-of-two and non-power-of-two worlds, and complete with **zero host
//!   progress** between pre-post and the terminal-counter wait;
//! * the host-side counter calls (`ct_set`, `ct_inc_failure`) fire or wake
//!   exactly what they should, and a parked operation that cannot launch is
//!   counted as failed without disturbing its neighbours;
//! * trigger-fire racing `ct_free` never deadlocks, panics, or fires after
//!   the free (threaded stress, same shape as `concurrency.rs`).

use portals::{
    AckRequest, AtomicOp, CtHandle, CtValue, MdSpec, MePos, NetworkInterface, NiConfig, Node,
    NodeConfig, ProgressMode, Region, TransportConfig,
};
use portals_net::Fabric;
use portals_runtime::{Collectives, Job, JobConfig, ReduceOp};
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId, PtlError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

// -- §4.8 delivery paths increment counting events --------------------------

#[test]
fn all_four_delivery_paths_count() {
    let fabric = Fabric::ideal();
    let n0 = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let n1 = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
    let a = n0.create_ni(1, NiConfig::default()).unwrap();
    let b = n1.create_ni(1, NiConfig::default()).unwrap();

    // Target side: one entry whose MD counts put deliveries and get services.
    let target_ct = b.ct_alloc().unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let sink = Region::from_vec(b"get me if you can".to_vec());
    b.md_attach(me, MdSpec::new(sink).with_ct(target_ct))
        .unwrap();

    // Get: the reply lands in an MD with its own counter. (Runs before the
    // put below, which overwrites the front of the shared target buffer.)
    let get_ct = a.ct_alloc().unwrap();
    let dst = Region::zeroed(32);
    let get_md = a.md_bind(MdSpec::new(dst.clone()).with_ct(get_ct)).unwrap();
    a.get_op(get_md)
        .target(ProcessId::new(1, 1), 0)
        .bits(MatchBits::new(0))
        .length(17)
        .submit()
        .unwrap();
    // Get served at the target…
    assert_eq!(b.ct_wait(target_ct, 1).unwrap().success, 1);
    // …reply landed at the initiator.
    assert_eq!(a.ct_wait(get_ct, 1).unwrap().success, 1);
    assert_eq!(&dst.read_vec(0, 17)[..], b"get me if you can");

    // Initiator put MD with a counter and no event queue: the ack must be
    // consumed by the counter alone.
    let put_ct = a.ct_alloc().unwrap();
    let src = Region::from_vec(b"hello".to_vec());
    let put_md = a.md_bind(MdSpec::new(src).with_ct(put_ct)).unwrap();
    a.put_op(put_md)
        .target(ProcessId::new(1, 1), 0)
        .bits(MatchBits::new(0))
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();
    // Put delivered at the target (second success on its counter)…
    assert_eq!(b.ct_wait(target_ct, 2).unwrap().success, 2);
    // …and the ack consumed at the initiator, with no EQ anywhere.
    assert_eq!(a.ct_wait(put_ct, 1).unwrap().success, 1);

    // No dropped messages anywhere: the ack was accepted by the counter.
    assert_eq!(a.counters().dropped_total(), 0);
    assert_eq!(b.counters().dropped_total(), 0);
}

#[test]
fn recv_counter_trigger_put_chain_runs_in_engine_context() {
    // The §5.1 chain: a put lands on A, bumps A's counter, which launches a
    // pre-posted put from A to C — with A's host thread never touching the
    // interface between pre-post and the final wait.
    let fabric = Fabric::ideal();
    let nodes: Vec<_> = (0..3)
        .map(|i| Node::new(fabric.attach(NodeId(i)), NodeConfig::default()))
        .collect();
    let nis: Vec<_> = (0..3)
        .map(|i| nodes[i].create_ni(1, NiConfig::default()).unwrap())
        .collect();

    // C: final destination.
    let c_ct = nis[2].ct_alloc().unwrap();
    let me = nis[2]
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let c_buf = Region::zeroed(8);
    nis[2]
        .md_attach(me, MdSpec::new(c_buf.clone()).with_ct(c_ct))
        .unwrap();

    // A: relay. Incoming put lands here and bumps `relay_ct`, which fires the
    // pre-posted forward to C.
    let relay_ct = nis[1].ct_alloc().unwrap();
    let me = nis[1]
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let relay_buf = Region::zeroed(8);
    nis[1]
        .md_attach(me, MdSpec::new(relay_buf.clone()).with_ct(relay_ct))
        .unwrap();
    let fwd_md = nis[1].md_bind(MdSpec::new(relay_buf)).unwrap();
    nis[1]
        .put_op(fwd_md)
        .target(ProcessId::new(2, 1), 0)
        .bits(MatchBits::new(0))
        .submit_after(relay_ct, 1)
        .unwrap();

    // Kick the chain from node 0.
    let src = Region::from_vec(b"relayed!".to_vec());
    let md = nis[0].md_bind(MdSpec::new(src)).unwrap();
    nis[0]
        .put_op(md)
        .target(ProcessId::new(1, 1), 0)
        .bits(MatchBits::new(0))
        .submit()
        .unwrap();

    assert_eq!(nis[2].ct_wait(c_ct, 1).unwrap().success, 1);
    assert_eq!(&c_buf.read_vec(0, 8)[..], b"relayed!");
    assert_eq!(nis[1].counters().triggered_fired.get(), 1);
}

// -- host-side counter calls --------------------------------------------------

/// An initiator `a` and a target `b` whose portal 0 takes any put into a
/// 64-byte region counted on the returned counter.
fn pair(
    mode: ProgressMode,
) -> (
    Node,
    Node,
    NetworkInterface,
    NetworkInterface,
    CtHandle,
    Region,
) {
    let fabric = Fabric::ideal();
    let cfg = || NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
            ..Default::default()
        },
        ..Default::default()
    };
    let n0 = Node::new(fabric.attach(NodeId(0)), cfg());
    let n1 = Node::new(fabric.attach(NodeId(1)), cfg());
    let a = n0.create_ni(1, NiConfig::default()).unwrap();
    let b = n1.create_ni(1, NiConfig::default()).unwrap();
    let landed = b.ct_alloc().unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let sink = Region::zeroed(64);
    b.md_attach(me, MdSpec::new(sink.clone()).with_ct(landed))
        .unwrap();
    (n0, n1, a, b, landed, sink)
}

#[test]
fn ct_set_fires_and_ct_inc_failure_only_wakes() {
    for mode in [ProgressMode::NicThread, ProgressMode::CallerDriven] {
        let (_n0, _n1, a, b, landed, sink) = pair(mode);
        let ct = a.ct_alloc().unwrap();
        let md = a
            .md_bind(MdSpec::new(Region::from_vec(b"set fired".to_vec())))
            .unwrap();
        a.put_op(md).target(b.id(), 0).submit_after(ct, 3).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| a.ct_poll(ct, 3, Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished(), "{mode:?}: waiter returned early");
            let three = CtValue {
                success: 3,
                failure: 0,
            };
            a.ct_set(ct, three).unwrap();
            assert_eq!(waiter.join().unwrap(), Ok(three), "{mode:?}");
        });
        assert_eq!(
            b.ct_poll(landed, 1, Duration::from_secs(30))
                .unwrap()
                .success,
            1
        );
        assert_eq!(sink.read_vec(0, 9), b"set fired", "{mode:?}");
        assert_eq!(a.counters().triggered_fired.get(), 1, "{mode:?}");

        // A failure satisfies the wait but fires nothing parked on successes.
        let fresh = a.ct_alloc().unwrap();
        a.put_op(md)
            .target(b.id(), 0)
            .submit_after(fresh, 1)
            .unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| a.ct_poll(fresh, 1, Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished(), "{mode:?}: waiter returned early");
            a.ct_inc_failure(fresh, 1).unwrap();
            let woke = waiter.join().unwrap().unwrap();
            assert_eq!((woke.success, woke.failure), (0, 1), "{mode:?}");
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(a.counters().triggered_fired.get(), 1, "{mode:?}");
        assert_eq!(
            b.ct_get(landed).unwrap().success,
            1,
            "{mode:?}: a failure fired a put"
        );
    }
}

#[test]
fn a_parked_put_that_cannot_launch_counts_as_failed() {
    let (_n0, _n1, a, b, landed, sink) = pair(ProgressMode::NicThread);
    let ct = a.ct_alloc().unwrap();
    let gone = a
        .md_bind(MdSpec::new(Region::from_vec(b"gone".to_vec())))
        .unwrap();
    let kept = a
        .md_bind(MdSpec::new(Region::from_vec(b"kept".to_vec())))
        .unwrap();
    for md in [gone, kept] {
        a.put_op(md).target(b.id(), 0).submit_after(ct, 1).unwrap();
    }
    a.md_unlink(gone).unwrap();
    a.ct_inc(ct, 1).unwrap();
    assert_eq!(
        b.ct_poll(landed, 1, Duration::from_secs(30))
            .unwrap()
            .success,
        1
    );
    assert_eq!(sink.read_vec(0, 4), b"kept");
    let counters = a.counters();
    assert_eq!(counters.triggered_failed.get(), 1);
    assert_eq!(counters.triggered_fired.get(), 1);
}

#[test]
fn submit_after_refuses_what_submit_refuses() {
    let (_n0, _n1, a, b, ..) = pair(ProgressMode::NicThread);
    let ct = a.ct_alloc().unwrap();
    let md = a.md_bind(MdSpec::new(Region::zeroed(16))).unwrap();
    let wildcard = ProcessId::ANY;
    assert_eq!(
        a.put_op(md).target(wildcard, 0).submit_after(ct, 1),
        Err(PtlError::InvalidProcess)
    );
    assert_eq!(
        a.get_op(md).target(b.id(), 0).submit_after(ct, 1),
        Err(PtlError::InvalidArgument),
        "a get needs its length"
    );
    let sum = || a.atomic_op(md).target(b.id(), 0).op(AtomicOp::Sum);
    for length in [0, 12] {
        assert_eq!(
            sum().length(length).submit_after(ct, 1),
            Err(PtlError::InvalidArgument),
            "{length}-byte atomic"
        );
    }
    assert_eq!(
        a.atomic_op(md).target(b.id(), 0).submit_after(ct, 1),
        Err(PtlError::InvalidArgument),
        "an atomic needs its op"
    );
    // Nothing was parked: reaching the threshold fires nothing.
    a.ct_inc(ct, 1).unwrap();
    assert_eq!(a.counters().triggered_fired.get(), 0);
    assert_eq!(a.counters().triggered_failed.get(), 0);
}

// -- offloaded collectives: differential vs host-driven ----------------------

/// Deterministic per-rank input, NaN- and signed-zero-free so min/max/sum are
/// order-insensitive bit-for-bit.
fn rank_input(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 + rank * 101) % 1009) as f64 * 0.5 - 100.0)
        .collect()
}

#[test]
fn offloaded_allreduce_is_byte_identical_to_host_driven() {
    for n in [2usize, 3, 4, 5, 8] {
        Job::launch(n, JobConfig::default(), move |env| {
            let host = Collectives::new(env.comm.clone());
            let off = Collectives::triggered(env.comm.clone());
            assert!(off.offloaded());
            let me = env.rank().0 as usize;
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let input = rank_input(me, 33);
                let mut host_out = input.clone();
                host.allreduce(&mut host_out, op);
                let mut off_out = input.clone();
                off.allreduce(&mut off_out, op);
                for (i, (h, o)) in host_out.iter().zip(&off_out).enumerate() {
                    assert_eq!(
                        h.to_le_bytes(),
                        o.to_le_bytes(),
                        "{op:?} n={n} rank={me} lane {i}: host {h} vs offloaded {o}"
                    );
                }
            }
        });
    }
}

#[test]
fn offloaded_allreduce_of_nothing_keeps_the_sequence() {
    for n in [2usize, 3, 5] {
        Job::launch(n, JobConfig::default(), move |env| {
            let host = Collectives::new(env.comm.clone());
            let off = Collectives::triggered(env.comm.clone());
            let me = env.rank().0 as usize;
            host.allreduce(&mut [], ReduceOp::Sum);
            off.allreduce(&mut [], ReduceOp::Sum);
            let input = rank_input(me, 33);
            let mut host_out = input.clone();
            host.allreduce(&mut host_out, ReduceOp::Max);
            let mut off_out = input;
            off.allreduce(&mut off_out, ReduceOp::Max);
            let bytes = |v: &[f64]| v.iter().map(|x| x.to_le_bytes()).collect::<Vec<_>>();
            assert_eq!(bytes(&host_out), bytes(&off_out), "n={n} rank={me}");
        });
    }
}

#[test]
fn offloaded_bcast_and_barrier_match_host_driven() {
    for n in [2usize, 3, 4, 5, 8] {
        Job::launch(n, JobConfig::default(), move |env| {
            let host = Collectives::new(env.comm.clone());
            let off = Collectives::triggered(env.comm.clone());
            let me = env.rank().0 as usize;
            for root in 0..n {
                let payload: Vec<u8> = (0..129).map(|i| (i as usize * 7 + root) as u8).collect();
                let mut host_out = if me == root {
                    payload.clone()
                } else {
                    vec![0; 129]
                };
                host.bcast(root, &mut host_out);
                let mut off_out = if me == root {
                    payload.clone()
                } else {
                    vec![0; 129]
                };
                off.bcast(root, &mut off_out);
                assert_eq!(host_out, payload, "host bcast n={n} root={root}");
                assert_eq!(off_out, payload, "offloaded bcast n={n} root={root}");
                off.barrier();
            }
        });
    }
}

#[test]
fn consecutive_offloaded_collectives_do_not_cross_talk() {
    // Exercises the post-ahead-by-one barrier slot across a long mixed
    // sequence on a non-power-of-two world.
    Job::launch(5, JobConfig::default(), |env| {
        let off = Collectives::triggered(env.comm.clone());
        let n = env.size() as f64;
        for round in 0..12u32 {
            let mut v = vec![env.rank().0 as f64 + round as f64; 3];
            off.allreduce(&mut v, ReduceOp::Sum);
            let expect = n * (n - 1.0) / 2.0 + round as f64 * n;
            assert_eq!(v, vec![expect; 3], "round {round}");
            let root = round as usize % env.size();
            let mut b = vec![
                if env.rank().0 as usize == root {
                    round as u8
                } else {
                    0
                };
                9
            ];
            off.bcast(root, &mut b);
            assert_eq!(b, vec![round as u8; 9], "round {round}");
            off.barrier();
        }
    });
}

#[test]
fn offloaded_allreduce_completes_with_zero_host_progress() {
    // Pre-post the schedule, then make NO library calls at all until the
    // terminal counter is polled: under application bypass every intermediate
    // combine/forward must run in engine context.
    Job::launch(4, JobConfig::default(), |env| {
        let off = Collectives::triggered(env.comm.clone());
        let me = env.rank().0 as usize;
        let mut data = rank_input(me, 17);
        let expect = {
            let mut acc = rank_input(0, 17);
            for r in 1..4 {
                for (a, b) in acc.iter_mut().zip(rank_input(r, 17)) {
                    *a += b;
                }
            }
            acc
        };
        let pending = off.start_allreduce(&data, ReduceOp::Sum);
        let (ct, target) = pending.terminal().expect("multi-rank schedule");
        // The one and only host action: block on the terminal counter.
        let ni = env.comm.engine().ni();
        let v = ni
            .ct_poll(ct, target, Duration::from_secs(30))
            .expect("offloaded schedule must complete without host progress");
        assert!(v.success >= target);
        off.finish_allreduce(pending, &mut data);
        assert_eq!(data, expect);
    });
}

// -- trigger-fire vs counter-free stress -------------------------------------

#[test]
fn trigger_fire_races_counter_free() {
    // Incoming puts bump `hot` in engine context (firing chained increments
    // onto `total`) while the host thread frees and reallocates counters under
    // it. Nothing may deadlock, panic, or fire a stale trigger.
    const PUTS: usize = 400;
    let fabric = Fabric::ideal();
    let n0 = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let n1 = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
    let a = n0.create_ni(1, NiConfig::default()).unwrap();
    let b = n1.create_ni(1, NiConfig::default()).unwrap();

    let total = b.ct_alloc().unwrap();
    let hot = b.ct_alloc().unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let sink = Region::zeroed(64);
    b.md_attach(me, MdSpec::new(sink).with_ct(hot)).unwrap();

    let src = Region::from_vec(vec![7u8; 8]);
    let md = a.md_bind(MdSpec::new(src)).unwrap();
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(30);

    std::thread::scope(|s| {
        // Sender: a steady stream of puts that bump `hot` in engine context.
        s.spawn(|| {
            for _ in 0..PUTS {
                a.put_op(md)
                    .target(ProcessId::new(1, 1), 0)
                    .bits(MatchBits::new(0))
                    .submit()
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        });
        // Registrar: keeps parking chained increments on `hot` at thresholds
        // it may or may not ever reach. Stale handles must surface as
        // InvalidCt, never as a panic or a lost lock.
        s.spawn(|| {
            let mut k = 1u64;
            while !done.load(Ordering::Acquire) && Instant::now() < deadline {
                match b.triggered_ct_inc(total, 1, hot, k % 512) {
                    Ok(()) | Err(PtlError::InvalidCt) => {}
                    Err(e) => panic!("unexpected registration error: {e:?}"),
                }
                k += 7;
                std::thread::yield_now();
            }
        });
        // Freer: rips the counter out from under both of the above, then
        // confirms every post-free operation reports the stale handle.
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(5));
            b.ct_free(hot).unwrap();
            assert_eq!(b.ct_get(hot), Err(PtlError::InvalidCt));
            assert_eq!(b.ct_inc(hot, 1), Err(PtlError::InvalidCt));
            assert_eq!(
                b.triggered_ct_inc(total, 1, hot, 1),
                Err(PtlError::InvalidCt)
            );
        });
    });
    assert!(Instant::now() < deadline, "stress ran into the deadline");
    // `total` only ever counts fires that happened strictly before the free.
    let fired = b.ct_get(total).unwrap().success;
    let triggered = b.counters().triggered_fired.get();
    assert!(
        fired <= triggered,
        "chained increments ({fired}) exceed fired triggers ({triggered})"
    );
}
