//! MPI-semantics tests across both protocols, with the receive rules run by
//! the NIC side (whichever `PORTALS_PROGRESS_MODE` selects) and by the host.

use portals::{NiConfig, Node, NodeConfig, ProgressMode, Region, TransportConfig};
use portals_mpi::{Communicator, Completion, Mpi, MpiConfig, Protocol};
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

/// All four (protocol × progress) combinations under test.
fn all_stacks() -> Vec<(ProgressMode, MpiConfig)> {
    vec![
        (ProgressMode::from_env(), MpiConfig::default()),
        (ProgressMode::HostDriven, MpiConfig::default()),
        (ProgressMode::from_env(), MpiConfig::gm_style()),
        (ProgressMode::HostDriven, MpiConfig::gm_style()),
    ]
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
    // 100 KB with a 16 KB eager limit exercises the RTS/get path; the same
    // payload over EagerDirect exercises any-size direct delivery.
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
    // sizes straddle the rendezvous threshold (mixing the two paths).
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            let n = 50u32;
            if comm.rank() == Rank(0) {
                for i in 0..n {
                    // Odd messages are big (rendezvous in gm_style), even small.
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
    world_run(2, ProgressMode::from_env(), MpiConfig::default(), |comm| {
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
        (ProgressMode::from_env(), MpiConfig::default()),
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
    // EagerDirect: a pre-posted receive means zero unexpected buffering.
    world_run(2, ProgressMode::from_env(), MpiConfig::default(), |comm| {
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
    world_run(2, ProgressMode::from_env(), cfg, |comm| {
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

#[test]
fn probe_reports_length_then_recv_consumes() {
    for (progress, cfg) in all_stacks() {
        world_run(2, progress, cfg, |comm| {
            if comm.rank() == Rank(0) {
                // Rank 1's first probe is already waiting when this arrives.
                std::thread::sleep(Duration::from_millis(20));
                comm.send(Rank(1), 6, &vec![1u8; 777]);
                // Also a big one that crosses the rendezvous threshold.
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
    world_run(3, ProgressMode::from_env(), MpiConfig::default(), |comm| {
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

/// A receive posted while its rendezvous announcement is in flight. When
/// the RTS event lands after the receive's hardware entry is linked but
/// before it is activated, the drain inside `irecv` matches it and starts
/// the pull: the receive is then neither posted nor done, and its entry is
/// gone. `irecv` used to fail that state with `InvalidMd`. The echo loop
/// sends each announcement right behind the token that lets the receiver
/// post; over a few thousand rounds some land in the window.
#[test]
fn irecv_racing_its_rendezvous_announcement() {
    // Always rendezvous (at `max_eager`), with hardware receive entries.
    const LEN: usize = 4096;
    const ROUNDS: usize = 3000;
    let cfg = MpiConfig {
        protocol: Protocol::Adaptive {
            min_eager: 1024,
            max_eager: LEN,
        },
        ..MpiConfig::default()
    };
    world_run(2, ProgressMode::from_env(), cfg, |comm| {
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

#[test]
fn iprobe_wildcards() {
    world_run(2, ProgressMode::from_env(), MpiConfig::default(), |comm| {
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

#[test]
fn concurrent_pairs_do_not_interfere() {
    // 4 ranks: (0,1) and (2,3) exchange heavy traffic simultaneously.
    world_run(4, ProgressMode::from_env(), MpiConfig::default(), |comm| {
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

#[test]
fn small_send_slabs_are_pooled_and_recycled() {
    // A ping-pong loop long enough for acks to return slabs to the pool:
    // after warm-up nearly every small send should reuse a slab rather than
    // allocate, and the counter must converge accordingly.
    world_run(2, ProgressMode::from_env(), MpiConfig::default(), |comm| {
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

#[test]
fn oversize_sends_bypass_the_pool() {
    world_run(2, ProgressMode::from_env(), MpiConfig::default(), |comm| {
        let me = comm.rank().0;
        if me == 0 {
            // Larger than MpiConfig::default().pool_slab (2048).
            comm.send(Rank(1), 3, &vec![9u8; 8192]);
            assert_eq!(comm.engine().regions_pooled(), 0);
            assert_eq!(comm.engine().regions_allocated(), 0);
        } else {
            let (data, _) = comm.recv(Some(Rank(0)), Some(3), 16384);
            assert_eq!(data.len(), 8192);
        }
    });
}
