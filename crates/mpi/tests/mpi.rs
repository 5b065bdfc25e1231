//! MPI-semantics tests across both protocols, with the receive rules run by
//! the NIC side (with a NIC thread standing by, and built without one) and
//! by the host.

use portals::{NiConfig, Node, NodeConfig, ProgressMode, Region, TransportConfig};
use portals_mpi::{Communicator, Completion, Mpi, MpiConfig};
use portals_net::Fabric;
use portals_types::{NodeId, ProcessId, Rank};
use std::time::Duration;

/// Build an n-process world (one process per node) and run `f` on every rank
/// in its own thread; returns when all finish.
fn world_run(
    n: usize,
    progress: ProgressMode,
    mpi_cfg: MpiConfig,
    f: impl Fn(Communicator) + Send + Sync + 'static,
) {
    world_run_with(n, progress, move |_| mpi_cfg, f)
}

/// [`world_run`] with a per-rank MPI configuration.
fn world_run_with(
    n: usize,
    progress: ProgressMode,
    mpi_cfg: impl Fn(usize) -> MpiConfig,
    f: impl Fn(Communicator) + Send + Sync + 'static,
) {
    let fabric = Fabric::ideal();
    let ranks: Vec<ProcessId> = (0..n).map(|i| ProcessId::new(i as u32, 1)).collect();
    let config = || NodeConfig {
        transport: TransportConfig {
            progress_mode: progress,
            ..Default::default()
        },
        ..Default::default()
    };
    let nodes: Vec<Node> = (0..n)
        .map(|i| Node::new(fabric.attach(NodeId(i as u32)), config()))
        .collect();
    let mpis: Vec<Mpi> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let ni = node.create_ni(1, NiConfig::default()).unwrap();
            Mpi::init(ni, ranks.clone(), Rank(i as u32), mpi_cfg(i)).unwrap()
        })
        .collect();
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = mpis
        .into_iter()
        .map(|mpi| {
            let f = std::sync::Arc::clone(&f);
            std::thread::spawn(move || f(mpi.world()))
        })
        .collect();
    for h in handles {
        h.join().expect("rank thread panicked");
    }
    drop(nodes);
}

/// The two builds that run the receive rules on the NIC side: a NIC thread
/// stands by, or, built without one, peers' waits do.
const BOTH_BUILDS: [ProgressMode; 2] = [ProgressMode::NicThread, ProgressMode::CallerDriven];

/// All six (protocol × progress) combinations under test.
fn all_stacks() -> Vec<(ProgressMode, MpiConfig)> {
    [MpiConfig::default(), MpiConfig::gm_style()]
        .into_iter()
        .flat_map(|cfg| {
            [
                ProgressMode::NicThread,
                ProgressMode::CallerDriven,
                ProgressMode::HostDriven,
            ]
            .map(|progress| (progress, cfg))
        })
        .collect()
}

#[test]
fn ping_pong_all_stacks() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                comm.send(Rank(1), 1, b"ping");
                let (data, st) = comm.recv(Some(Rank(1)), Some(2), 16);
                assert_eq!(data, b"pong");
                assert_eq!(st.source, Rank(1));
                assert_eq!(st.tag, 2);
            } else {
                let (data, st) = comm.recv(Some(Rank(0)), Some(1), 16);
                assert_eq!(data, b"ping");
                assert!(!st.truncated);
                comm.send(Rank(0), 2, b"pong");
            }
        });
    }
}

#[test]
fn large_messages_cross_rendezvous_threshold() {
    // 100 KB is long under both configs: library matching pulls it (16 KiB
    // cutoff), hardware matching puts it straight into the posted receive or
    // pulls it if it arrived first.
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    for (progress, cfg) in all_stacks() {
        let expect = payload.clone();
        world_run(2, progress, cfg, move |comm| {
            if comm.rank() == Rank(0) {
                comm.send(Rank(1), 9, &expect);
            } else {
                let (data, st) = comm.recv(Some(Rank(0)), Some(9), 128 * 1024);
                assert_eq!(data.len(), expect.len());
                assert_eq!(data, expect);
                assert!(!st.truncated);
            }
        });
    }
}

#[test]
fn message_ordering_is_non_overtaking() {
    // 50 same-signature messages must arrive in posting order, even when
    // sizes straddle gm_style's 16 KiB cutoff (mixing the eager and long
    // paths).
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            let n = 50u32;
            if comm.rank() == Rank(0) {
                for i in 0..n {
                    // Odd messages are big (long in gm_style), even small.
                    let size = if i % 2 == 1 { 20_000 } else { 64 };
                    let mut m = vec![0u8; size];
                    m[..4].copy_from_slice(&i.to_le_bytes());
                    comm.send(Rank(1), 5, &m);
                }
            } else {
                for i in 0..n {
                    let (data, _) = comm.recv(Some(Rank(0)), Some(5), 32 * 1024);
                    let got = u32::from_le_bytes(data[..4].try_into().unwrap());
                    assert_eq!(got, i, "message {i} overtaken");
                }
            }
        });
    }
}

#[test]
fn unexpected_messages_are_buffered_and_matched() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                // Send before any receive exists, then handshake.
                comm.send(Rank(1), 3, b"early bird");
                comm.send(Rank(1), 4, b"second");
                let (done, _) = comm.recv(Some(Rank(1)), Some(99), 4);
                assert_eq!(done, b"ok");
            } else {
                // Sleep so the sends land unexpectedly.
                std::thread::sleep(Duration::from_millis(50));
                let (b, _) = comm.recv(Some(Rank(0)), Some(4), 32);
                assert_eq!(b, b"second");
                let (a, _) = comm.recv(Some(Rank(0)), Some(3), 32);
                assert_eq!(a, b"early bird");
                comm.send(Rank(0), 99, b"ok");
            }
        });
    }
}

#[test]
fn any_source_and_any_tag_wildcards() {
    for (progress, cfg) in all_stacks() {
        world_run(3, progress, cfg, |comm| {
            match comm.rank().0 {
                0 => {
                    // Two messages from unknown senders, any tag.
                    let mut seen = Vec::new();
                    for _ in 0..2 {
                        let (data, st) = comm.recv(None, None, 32);
                        seen.push((st.source, st.tag, data));
                    }
                    seen.sort();
                    assert_eq!(seen[0].0, Rank(1));
                    assert_eq!(seen[0].1, 11);
                    assert_eq!(seen[0].2, b"from1");
                    assert_eq!(seen[1].0, Rank(2));
                    assert_eq!(seen[1].1, 22);
                    assert_eq!(seen[1].2, b"from2");
                }
                1 => comm.send(Rank(0), 11, b"from1"),
                2 => comm.send(Rank(0), 22, b"from2"),
                _ => unreachable!(),
            }
        });
    }
}

#[test]
fn truncation_is_reported_not_fatal() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                comm.send(Rank(1), 1, &vec![7u8; 1000]);
            } else {
                let (data, st) = comm.recv(Some(Rank(0)), Some(1), 100);
                assert_eq!(data.len(), 100);
                assert!(st.truncated, "1000 bytes into 100 must flag truncation");
                assert!(data.iter().all(|&b| b == 7));
            }
        });
    }
}

#[test]
fn zero_length_messages() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                comm.send(Rank(1), 8, &[]);
            } else {
                let (data, st) = comm.recv(Some(Rank(0)), Some(8), 16);
                assert!(data.is_empty());
                assert_eq!(st.len, 0);
                assert!(!st.truncated);
            }
        });
    }
}

#[test]
fn barrier_synchronizes_all_ranks() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    for (progress, cfg) in all_stacks() {
        let arrivals = Arc::new(AtomicUsize::new(0));
        let arrivals2 = Arc::clone(&arrivals);
        world_run(4, progress, cfg, move |comm| {
            // Stagger entry so the barrier has real work to do.
            std::thread::sleep(Duration::from_millis(comm.rank().0 as u64 * 20));
            arrivals2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            assert_eq!(
                arrivals2.load(Ordering::SeqCst),
                4,
                "barrier released before all ranks arrived"
            );
        });
        assert_eq!(arrivals.load(Ordering::SeqCst), 4);
    }
}

#[test]
fn communicator_contexts_isolate_traffic() {
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), |comm| {
            let comm2 = comm.dup();
            if comm.rank() == Rank(0) {
                // Same tag on two communicators: must not cross.
                comm2.send(Rank(1), 5, b"on-comm2");
                comm.send(Rank(1), 5, b"on-world");
            } else {
                let (w, _) = comm.recv(Some(Rank(0)), Some(5), 32);
                assert_eq!(w, b"on-world");
                let (d, _) = comm2.recv(Some(Rank(0)), Some(5), 32);
                assert_eq!(d, b"on-comm2");
            }
        });
    }
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            let me = comm.rank().0;
            let other = Rank(1 - me);
            let msg = format!("hello from {me}");
            let (got, st) = comm.sendrecv(other, 1, msg.as_bytes(), Some(other), Some(1), 64);
            assert_eq!(got, format!("hello from {}", other.0).as_bytes());
            assert_eq!(st.source, other);
        });
    }
}

#[test]
fn waitall_on_mixed_batch() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            let other = Rank(1 - comm.rank().0);
            let n = 10;
            let bufs: Vec<_> = (0..n).map(|_| Region::zeroed(4096)).collect();
            let recvs: Vec<_> = bufs
                .iter()
                .map(|b| comm.irecv(Some(other), Some(1), b.clone()))
                .collect();
            comm.barrier();
            let sends: Vec<_> = (0..n)
                .map(|i| comm.isend(other, 1, &vec![i as u8; 4096]))
                .collect();
            let rcomps = comm.wait_all(&recvs);
            let scomps = comm.wait_all(&sends);
            for (i, c) in rcomps.iter().enumerate() {
                let st = c.status().expect("recv status");
                assert_eq!(st.len, 4096);
                assert_eq!(bufs[i].read_vec(0, 1)[0], i as u8, "batch order");
            }
            for c in scomps {
                assert!(matches!(
                    c,
                    Completion::Send {
                        delivered: 4096,
                        requested: 4096
                    }
                ));
            }
        });
    }
}

#[test]
fn ring_pipeline_many_ranks() {
    for (progress, cfg) in [
        (ProgressMode::NicThread, MpiConfig::default()),
        (ProgressMode::CallerDriven, MpiConfig::default()),
        (ProgressMode::HostDriven, MpiConfig::gm_style()),
    ] {
        world_run(6, progress, cfg, |comm| {
            let n = comm.size() as u32;
            let me = comm.rank().0;
            let next = Rank((me + 1) % n);
            let prev = Rank((me + n - 1) % n);
            // Pass a counter around the ring twice: each hop increments, so
            // after lap one rank 0 sees n-1, and after lap two 2n-1.
            if me == 0 {
                comm.send(next, 1, &0u64.to_le_bytes());
                let (data, _) = comm.recv(Some(prev), Some(1), 8);
                let v = u64::from_le_bytes(data.try_into().unwrap());
                assert_eq!(v, n as u64 - 1, "after first lap");
                comm.send(next, 1, &(v + 1).to_le_bytes());
                let (data, _) = comm.recv(Some(prev), Some(1), 8);
                let v = u64::from_le_bytes(data.try_into().unwrap());
                assert_eq!(v, 2 * n as u64 - 1, "after second lap");
            } else {
                for _round in 0..2 {
                    let (data, _) = comm.recv(Some(prev), Some(1), 8);
                    let v = u64::from_le_bytes(data.try_into().unwrap());
                    comm.send(next, 1, &(v + 1).to_le_bytes());
                }
            }
        });
    }
}

#[test]
fn irecv_before_send_gets_direct_delivery() {
    // Hardware matching: a pre-posted receive means zero unexpected buffering.
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), |comm| {
            if comm.rank() == Rank(1) {
                let buf = Region::zeroed(64 * 1024);
                let req = comm.irecv(Some(Rank(0)), Some(1), buf.clone());
                comm.barrier();
                let st = comm.wait(req).status().unwrap();
                assert_eq!(st.len, 64 * 1024);
                assert_eq!(comm.engine().unexpected_pending(), 0);
            } else {
                comm.barrier();
                comm.send(Rank(1), 1, &vec![5u8; 64 * 1024]);
            }
        });
    }
}

#[test]
fn slab_rotation_under_many_unexpected_messages() {
    // Small slabs force rotation; every message must still be delivered.
    let cfg = MpiConfig {
        slab_size: 64 * 1024,
        slab_min_free: 16 * 1024,
        slab_count: 2,
        ..Default::default()
    };
    // Slab replenishment happens when the library drains events, so a finite
    // pool of attached slabs bounds how much can arrive unexpectedly between
    // MPI calls — the paper's point about sizing unexpected-message memory to
    // application behaviour (§4.1). Send in waves that fit the attached
    // slabs, with a handshake (which drains and replenishes) between waves.
    for progress in BOTH_BUILDS {
        world_run(2, progress, cfg, |comm| {
            let waves = 5u32;
            let per_wave = 8u32; // 8 × 8 KiB = 64 KiB per wave ≤ attached capacity
            if comm.rank() == Rank(0) {
                for w in 0..waves {
                    for i in 0..per_wave {
                        comm.send(Rank(1), 2, &vec![(w * per_wave + i) as u8; 8 * 1024]);
                    }
                    let (ok, _) = comm.recv(Some(Rank(1)), Some(3), 4);
                    assert_eq!(ok, b"ok");
                }
            } else {
                for w in 0..waves {
                    std::thread::sleep(Duration::from_millis(20)); // wave lands unexpectedly
                    for i in 0..per_wave {
                        let (data, st) = comm.recv(Some(Rank(0)), Some(2), 8 * 1024);
                        assert_eq!(st.len, 8 * 1024);
                        let expect = (w * per_wave + i) as u8;
                        assert!(data.iter().all(|&b| b == expect), "message {expect} intact");
                    }
                    comm.send(Rank(0), 3, b"ok");
                }
            }
        });
    }
}

#[test]
fn probe_reports_length_then_recv_consumes() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                // Rank 1's first probe is already waiting when this arrives.
                std::thread::sleep(Duration::from_millis(20));
                comm.send(Rank(1), 6, &vec![1u8; 777]);
                // Also a big one, long under gm_style.
                comm.send(Rank(1), 7, &vec![2u8; 40_000]);
            } else {
                let st = comm.probe(Some(Rank(0)), Some(6));
                assert_eq!(st.len, 777);
                assert_eq!(st.source, Rank(0));
                // Probe again: still there (probe does not consume).
                assert!(comm.iprobe(Some(Rank(0)), Some(6)).is_some());
                let (data, _) = comm.recv(Some(Rank(0)), Some(6), st.len);
                assert_eq!(data.len(), 777);
                assert!(comm.iprobe(Some(Rank(0)), Some(6)).is_none(), "consumed");

                let st = comm.probe(Some(Rank(0)), Some(7));
                assert_eq!(st.len, 40_000, "probe sees rendezvous length too");
                let (data, _) = comm.recv(Some(Rank(0)), Some(7), st.len);
                assert_eq!(data.len(), 40_000);
            }
        });
    }
}

#[test]
fn wait_any_returns_first_completion() {
    for progress in BOTH_BUILDS {
        world_run(3, progress, MpiConfig::default(), |comm| {
            if comm.rank() == Rank(0) {
                // Two receives; rank 2 answers promptly, rank 1 after a delay.
                let buf1 = Region::zeroed(8);
                let buf2 = Region::zeroed(8);
                let r1 = comm.irecv(Some(Rank(1)), Some(1), buf1);
                let r2 = comm.irecv(Some(Rank(2)), Some(1), buf2);
                let (idx, c) = comm.engine().wait_any(&[r1, r2]);
                assert_eq!(idx, 1, "rank 2's message lands first");
                assert_eq!(c.status().unwrap().source, Rank(2));
                let (idx, c) = comm.engine().wait_any(&[r1]);
                assert_eq!(idx, 0);
                assert_eq!(c.status().unwrap().source, Rank(1));
            } else if comm.rank() == Rank(1) {
                std::thread::sleep(Duration::from_millis(80));
                comm.send(Rank(0), 1, b"late");
            } else {
                comm.send(Rank(0), 1, b"fast");
            }
        });
    }
}

/// `wait_any` used to panic ("event queue failure") when the MPI event queue
/// lapped it, where `wait` recovered. Rank 0 blocks in `wait_any` on an
/// 8-slot queue while a second thread of the same rank fires bursts of sends:
/// their `Sent` and `Ack` events overrun the queue many times over. Flow
/// control is on (the default), so the lost events are bookkeeping and the
/// awaited message must still arrive.
#[test]
fn wait_any_recovers_from_event_queue_overflow() {
    const BURSTS: usize = 20;
    const PER_BURST: usize = 32;
    let cfg = |rank: usize| {
        if rank == 0 {
            MpiConfig {
                eq_capacity: 8,
                // Every recovery re-arms a slab; keep them small.
                slab_size: 64 * 1024,
                slab_min_free: 4 * 1024,
                ..MpiConfig::default()
            }
        } else {
            MpiConfig::default()
        }
    };
    world_run_with(2, ProgressMode::HostDriven, cfg, |comm| {
        if comm.rank() == Rank(0) {
            let awaited = comm.irecv(Some(Rank(1)), Some(99), Region::zeroed(8));
            let flood = {
                let comm = comm.clone();
                std::thread::spawn(move || {
                    for _ in 0..BURSTS {
                        for _ in 0..PER_BURST {
                            // Never waited on: its completion event may be
                            // among the overwritten ones.
                            let _ = comm.isend(Rank(1), 1, &[7u8; 32]);
                        }
                        // Let the waiter park in its queue poll again.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            };
            let (idx, c) = comm.engine().wait_any(&[awaited]);
            assert_eq!(idx, 0);
            assert_eq!(c.status().unwrap().source, Rank(1));
            flood.join().expect("flood thread");
            assert!(
                comm.engine().ni().counters().events_overwritten.get() > 0,
                "the flood never overran the queue: nothing was tested"
            );
        } else {
            for _ in 0..BURSTS * PER_BURST {
                let (data, _) = comm.recv(Some(Rank(0)), Some(1), 64);
                assert_eq!(data, [7u8; 32]);
            }
            comm.send(Rank(0), 99, b"done");
        }
    });
}

/// A receive posted while its long message's overflow record is in flight.
/// When the long entry's event lands after the receive's hardware entry is
/// linked but before it is activated (the put fell through the inactive
/// entry), the drain inside `irecv` matches it and starts the pull: the
/// receive is then neither posted nor done, and its entry is gone. `irecv`
/// used to fail that state with `InvalidMd`. The echo loop sends each long
/// put right behind the token that lets the receiver post; over a few
/// thousand rounds some land in the window.
#[test]
fn irecv_racing_its_rendezvous_announcement() {
    // Every message is long (above a 1 KiB cutoff), with hardware receive
    // entries.
    const LEN: usize = 4096;
    const ROUNDS: usize = 3000;
    let cfg = MpiConfig {
        slab_min_free: 1024,
        ..MpiConfig::default()
    };
    for progress in BOTH_BUILDS {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                let data = Region::zeroed(LEN);
                for _ in 0..ROUNDS {
                    let req = comm.isend_region(Rank(1), 1, data.clone());
                    comm.wait(req);
                    comm.recv(Some(Rank(1)), Some(2), 1);
                }
            } else {
                let buf = Region::zeroed(LEN);
                for _ in 0..ROUNDS {
                    let req = comm.irecv(Some(Rank(0)), Some(1), buf.clone());
                    assert_eq!(comm.wait(req).status().unwrap().len, LEN);
                    comm.send(Rank(0), 2, b"k");
                }
            }
        });
    }
}

/// Seven unexpected 600 KiB messages under the default config. Each is
/// longer than `slab_min_free`, so it must never land in a slab: when the
/// cutoff was not the protocol's, the seventh matched a slab with 496 KiB
/// free and was cut to fit.
#[test]
fn unexpected_messages_above_the_cutoff_arrive_whole() {
    const LEN: usize = 600 * 1024;
    const N: u32 = 7;
    let fill = |i: u32| -> Vec<u8> { (0..LEN).map(|b| (b as u32 ^ (i * 77)) as u8).collect() };
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), move |comm| {
            if comm.rank() == Rank(0) {
                let reqs: Vec<_> = (0..N)
                    .map(|i| comm.isend_region(Rank(1), i, Region::copy_from_slice(&fill(i))))
                    .collect();
                comm.wait_all(&reqs);
            } else {
                // Every message has arrived before any receive is posted.
                for i in 0..N {
                    assert_eq!(comm.probe(Some(Rank(0)), Some(i)).len, LEN);
                }
                for i in 0..N {
                    let buf = Region::zeroed(LEN);
                    let req = comm.irecv(Some(Rank(0)), Some(i), buf.clone());
                    let st = comm.wait(req).status().unwrap();
                    assert_eq!(
                        (st.len, st.full_len, st.truncated),
                        (LEN, LEN, false),
                        "message {i}"
                    );
                    assert!(buf.read_vec(0, LEN) == fill(i), "message {i} corrupted");
                }
            }
        });
    }
}

/// A long message into a posted receive with no room at all: the put lands
/// zero bytes in the posted entry, so nothing is pulled, and both sides
/// report the truncation.
#[test]
fn long_message_into_a_zero_capacity_receive_completes_both_sides() {
    const LEN: usize = 512 * 1024;
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), |comm| {
            if comm.rank() == Rank(0) {
                comm.barrier();
                let req = comm.isend_region(Rank(1), 4, Region::zeroed(LEN));
                assert_eq!(
                    comm.wait(req),
                    Completion::Send {
                        delivered: 0,
                        requested: LEN as u64,
                    }
                );
            } else {
                let req = comm.irecv(Some(Rank(0)), Some(4), Region::zeroed(0));
                comm.barrier();
                let st = comm.wait(req).status().unwrap();
                assert_eq!((st.len, st.truncated, st.full_len), (0, true, LEN));
                assert_eq!(comm.engine().unexpected_pending(), 0);
            }
            assert_eq!(comm.engine().sends_pending(), 0);
        });
    }
}

/// Application bypass at every size (§5.1): with NIC-thread progress, a long
/// message into a pre-posted receive completes while the receiving rank
/// makes no MPI call at all. Rank 1 posts and then blocks outside MPI until
/// rank 0's send has completed; its buffer must already hold the bytes.
#[test]
fn long_messages_bypass_the_receiving_application() {
    use std::sync::{Arc, Barrier};
    for len in [512 * 1024, 4 * 1024 * 1024] {
        let oob = Arc::new(Barrier::new(2));
        let pattern = move || -> Vec<u8> { (0..len).map(|b| (b * 7 + len) as u8).collect() };
        world_run(
            2,
            ProgressMode::NicThread,
            MpiConfig::adaptive(),
            move |comm| {
                if comm.rank() == Rank(0) {
                    oob.wait(); // rank 1's receive is posted
                    let req = comm.isend_region(Rank(1), 8, Region::copy_from_slice(&pattern()));
                    let done = comm.engine().wait_timeout(req, Duration::from_secs(5));
                    oob.wait(); // let rank 1 look, whatever happened
                    assert!(
                        done.is_some(),
                        "{len} B: the send needed the receiving application"
                    );
                } else {
                    let buf = Region::zeroed(len);
                    let req = comm.irecv(Some(Rank(0)), Some(8), buf.clone());
                    oob.wait();
                    oob.wait(); // no MPI call until the sender is done
                    assert!(
                        buf.read_vec(0, len) == pattern(),
                        "{len} B: bytes not in place"
                    );
                    let st = comm.wait(req).status().unwrap();
                    assert_eq!((st.len, st.truncated), (len, false));
                }
            },
        );
    }
}

#[test]
fn iprobe_wildcards() {
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), |comm| {
            if comm.rank() == Rank(0) {
                comm.send(Rank(1), 33, b"x");
            } else {
                // Wait for it with a fully wild probe.
                let st = comm.probe(None, None);
                assert_eq!(st.tag, 33);
                assert_eq!(st.source, Rank(0));
                assert!(comm.iprobe(Some(Rank(0)), Some(34)).is_none(), "wrong tag");
                let _ = comm.recv(None, None, 8);
            }
        });
    }
}

#[test]
fn concurrent_pairs_do_not_interfere() {
    // 4 ranks: (0,1) and (2,3) exchange heavy traffic simultaneously.
    for progress in BOTH_BUILDS {
        world_run(4, progress, MpiConfig::default(), |comm| {
            let me = comm.rank().0;
            let partner = Rank(me ^ 1);
            for i in 0..30u32 {
                let tag = 1;
                let msg = vec![(me as u8) ^ (i as u8); 2048];
                if me % 2 == 0 {
                    comm.send(partner, tag, &msg);
                    let (data, _) = comm.recv(Some(partner), Some(tag), 4096);
                    assert_eq!(data[0], (partner.0 as u8) ^ (i as u8));
                } else {
                    let (data, _) = comm.recv(Some(partner), Some(tag), 4096);
                    assert_eq!(data[0], (partner.0 as u8) ^ (i as u8));
                    comm.send(partner, tag, &msg);
                }
            }
        });
    }
}

#[test]
fn small_send_slabs_are_pooled_and_recycled() {
    // A ping-pong loop long enough for acks to return slabs to the pool:
    // after warm-up nearly every small send should reuse a slab rather than
    // allocate, and the counter must converge accordingly.
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), |comm| {
            let me = comm.rank().0;
            let partner = Rank(me ^ 1);
            for i in 0..100u32 {
                let msg = [i as u8; 32];
                if me == 0 {
                    comm.send(partner, 7, &msg);
                    let _ = comm.recv(Some(partner), Some(7), 64);
                } else {
                    let _ = comm.recv(Some(partner), Some(7), 64);
                    comm.send(partner, 7, &msg);
                }
            }
            let pooled = comm.engine().regions_pooled();
            let allocated = comm.engine().regions_allocated();
            assert_eq!(pooled + allocated, 100, "every small send is pool-eligible");
            assert!(
                pooled >= 90,
                "expected ≥90 of 100 sends served from the pool, got {pooled} \
                     (allocated {allocated})"
            );
        });
    }
}

#[test]
fn oversize_sends_bypass_the_pool() {
    for progress in BOTH_BUILDS {
        world_run(2, progress, MpiConfig::default(), |comm| {
            let me = comm.rank().0;
            if me == 0 {
                // Larger than the send pool's 2048-byte slab.
                comm.send(Rank(1), 3, &vec![9u8; 8192]);
                assert_eq!(comm.engine().regions_pooled(), 0);
                assert_eq!(comm.engine().regions_allocated(), 0);
            } else {
                let (data, _) = comm.recv(Some(Rank(0)), Some(3), 16384);
                assert_eq!(data.len(), 8192);
            }
        });
    }
}
