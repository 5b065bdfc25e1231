//! One-sided RMA window semantics (§2/§4.4): nonblocking puts/gets, engine
//! atomics, notified access and flush/epoch calls — in every progress mode.

use portals::{
    AtomicDatatype, AtomicOp, NiConfig, Node, NodeConfig, ProgressMode, Region, TransportConfig,
};
use portals_mpi::{Communicator, Mpi, MpiConfig, Window};
use portals_net::Fabric;
use portals_types::{ErrorKind, NodeId, ProcessId, PtlError, Rank};
use proptest::prelude::*;

fn world_run(n: usize, mode: ProgressMode, f: impl Fn(Communicator) + Send + Sync + 'static) {
    let fabric = Fabric::ideal();
    let ranks: Vec<ProcessId> = (0..n).map(|i| ProcessId::new(i as u32, 1)).collect();
    let config = || NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
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
            Mpi::init(ni, ranks.clone(), Rank(i as u32), MpiConfig::default()).unwrap()
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

#[test]
fn put_lands_without_target_code() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(256);
        let mut win = Window::create(&comm, 1, local.clone()).unwrap();
        if comm.rank() == Rank(0) {
            let req = win.rput(Rank(1), 16, b"one-sided write").unwrap();
            assert_eq!(win.wait(req).unwrap(), None, "puts carry no result");
            win.sync().unwrap();
        } else {
            // The target does nothing but the closing synchronization.
            win.sync().unwrap();
            assert_eq!(&local.read_vec(16, 15)[..], b"one-sided write");
        }
    });
}

#[test]
fn get_reads_remote_window() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::from_vec(vec![comm.rank().0 as u8 + 10; 128]);
        let mut win = Window::create(&comm, 2, local).unwrap();
        let other = Rank(1 - comm.rank().0);
        let req = win.rget(other, 32, 64).unwrap();
        let data = win.wait(req).unwrap().expect("gets carry a result");
        assert_eq!(data, vec![other.0 as u8 + 10; 64]);
        win.sync().unwrap();
    });
}

/// Regression: the old blocking `get` pumped the window's event queue in a
/// 1 ms sleep loop, so under a threadless (caller-driven) node it burned a
/// core and added latency. The rebuilt path completes through a counting
/// event, which parks on the readiness doorbell like every other blocked
/// call. Exercise the identical workload in both progress modes.
fn get_completes_without_polling(mode: ProgressMode) {
    world_run(2, mode, |comm| {
        let local = Region::from_vec(vec![comm.rank().0 as u8 + 1; 64]);
        let mut win = Window::create(&comm, 20, local).unwrap();
        let other = Rank(1 - comm.rank().0);
        for _ in 0..50 {
            let req = win.rget(other, 0, 64).unwrap();
            let data = win.wait(req).unwrap().unwrap();
            assert_eq!(data, vec![other.0 as u8 + 1; 64]);
        }
        win.sync().unwrap();
    });
}

#[test]
fn get_completes_in_nic_thread_mode() {
    get_completes_without_polling(ProgressMode::NicThread);
}

#[test]
fn get_completes_in_caller_driven_mode() {
    get_completes_without_polling(ProgressMode::CallerDriven);
}

#[test]
fn sync_orders_epochs() {
    // Epoch 1: everyone writes its rank to slot `rank` of rank 0's window.
    // Epoch 2: everyone reads the full array back from rank 0.
    world_run(4, ProgressMode::NicThread, |comm| {
        let local = Region::from_vec(vec![0xffu8; 4]);
        let mut win = Window::create(&comm, 3, local).unwrap();
        let me = comm.rank().0;
        let _req = win.rput(Rank(0), me as u64, &[me as u8]).unwrap();
        win.sync().unwrap();
        let req = win.rget(Rank(0), 0, 4).unwrap();
        let all = win.wait(req).unwrap().unwrap();
        assert_eq!(all, vec![0, 1, 2, 3], "rank {me} sees the full epoch");
        win.sync().unwrap();
    });
}

#[test]
fn multiple_windows_are_isolated() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let buf_a = Region::zeroed(64);
        let buf_b = Region::zeroed(64);
        let mut win_a = Window::create(&comm, 10, buf_a.clone()).unwrap();
        let mut win_b = Window::create(&comm, 11, buf_b.clone()).unwrap();
        if comm.rank() == Rank(0) {
            let _a = win_a.rput(Rank(1), 0, b"AAAA").unwrap();
            let _b = win_b.rput(Rank(1), 0, b"BBBB").unwrap();
        }
        win_a.sync().unwrap();
        win_b.sync().unwrap();
        if comm.rank() == Rank(1) {
            assert_eq!(&buf_a.read_vec(0, 4)[..], b"AAAA");
            assert_eq!(&buf_b.read_vec(0, 4)[..], b"BBBB");
        }
    });
}

#[test]
fn windows_coexist_with_two_sided_traffic() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(64);
        let mut win = Window::create(&comm, 7, local.clone()).unwrap();
        if comm.rank() == Rank(0) {
            let _req = win.rput(Rank(1), 0, b"window").unwrap();
            comm.send(Rank(1), 1, b"two-sided");
            win.sync().unwrap();
        } else {
            let (msg, _) = comm.recv(Some(Rank(0)), Some(1), 32);
            assert_eq!(msg, b"two-sided");
            win.sync().unwrap();
            assert_eq!(&local.read_vec(0, 6)[..], b"window");
        }
    });
}

#[test]
fn host_driven_target_serves_in_sync() {
    // Under a host-driven interface the one-sided put is only processed when
    // the target enters the library — its sync. The data still lands.
    world_run(2, ProgressMode::HostDriven, |comm| {
        let local = Region::zeroed(32);
        let mut win = Window::create(&comm, 9, local.clone()).unwrap();
        if comm.rank() == Rank(0) {
            let _req = win.rput(Rank(1), 0, b"deferred").unwrap();
            win.sync().unwrap();
        } else {
            win.sync().unwrap();
            assert_eq!(&local.read_vec(0, 8)[..], b"deferred");
        }
    });
}

#[test]
fn out_of_range_access_is_rejected_not_corrupting() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(16);
        let mut win = Window::create(&comm, 12, local.clone()).unwrap();
        if comm.rank() == Rank(0) {
            // 32 bytes into a 16-byte window: the target MD (truncate
            // disabled) rejects, so the put is dropped — a flush would hang
            // on the missing ack, so don't flush; just confirm nothing
            // landed. Dropping the window reclaims the orphaned request.
            let _req = win.rput(Rank(1), 0, &[9u8; 32]).unwrap();
            comm.barrier();
            comm.barrier();
        } else {
            comm.barrier();
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(
                local.read_vec(0, local.len()).iter().all(|&b| b == 0),
                "no partial write"
            );
            let drops = comm.engine().ni().counters().dropped_total();
            assert!(drops >= 1, "the oversized put must be counted as dropped");
            comm.barrier();
        }
    });
}

// ----- atomics --------------------------------------------------------------

#[test]
fn accumulate_sums_at_target() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::from_vec(100u64.to_le_bytes().to_vec());
        let mut win = Window::create(&comm, 30, local.clone()).unwrap();
        // Both ranks (including the target itself) add to rank 0's counter.
        let add = (comm.rank().0 as u64 + 1).to_le_bytes();
        let _req = win
            .raccumulate(Rank(0), 0, AtomicOp::Sum, AtomicDatatype::U64, &add)
            .unwrap();
        win.sync().unwrap();
        if comm.rank() == Rank(0) {
            let v = u64::from_le_bytes(local.read_vec(0, 8).try_into().unwrap());
            assert_eq!(v, 100 + 1 + 2);
        }
    });
}

#[test]
fn fetch_and_op_returns_prior_value() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::from_vec(7u64.to_le_bytes().to_vec());
        let mut win = Window::create(&comm, 31, local.clone()).unwrap();
        if comm.rank() == Rank(1) {
            let req = win
                .rfetch_and_op(
                    Rank(0),
                    0,
                    AtomicOp::Sum,
                    AtomicDatatype::U64,
                    5u64.to_le_bytes(),
                )
                .unwrap();
            let prior = win
                .wait(req)
                .unwrap()
                .expect("fetching atomics return bytes");
            assert_eq!(u64::from_le_bytes(prior.try_into().unwrap()), 7);
        }
        win.sync().unwrap();
        if comm.rank() == Rank(0) {
            let v = u64::from_le_bytes(local.read_vec(0, 8).try_into().unwrap());
            assert_eq!(v, 12);
        }
    });
}

#[test]
fn compare_and_swap_succeeds_and_fails_by_prior_value() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::from_vec(5u64.to_le_bytes().to_vec());
        let mut win = Window::create(&comm, 32, local.clone()).unwrap();
        if comm.rank() == Rank(1) {
            // Matching compare: swaps and the prior equals the compare value.
            let req = win
                .rcompare_and_swap(Rank(0), 0, 5u64.to_le_bytes(), 77u64.to_le_bytes())
                .unwrap();
            let prior = win.wait(req).unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(prior.clone().try_into().unwrap()), 5);
            // Stale compare: leaves the target alone and reports the truth.
            let req = win
                .rcompare_and_swap(Rank(0), 0, 5u64.to_le_bytes(), 999u64.to_le_bytes())
                .unwrap();
            let prior = win.wait(req).unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(prior.try_into().unwrap()), 77);
        }
        win.sync().unwrap();
        if comm.rank() == Rank(0) {
            let v = u64::from_le_bytes(local.read_vec(0, 8).try_into().unwrap());
            assert_eq!(v, 77);
        }
    });
}

#[test]
fn get_accumulate_is_multi_lane() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let mut init = Vec::new();
        for lane in 0u64..4 {
            init.extend_from_slice(&(lane * 10).to_le_bytes());
        }
        let local = Region::from_vec(init);
        let mut win = Window::create(&comm, 33, local.clone()).unwrap();
        if comm.rank() == Rank(1) {
            let operand: Vec<u8> = (0u64..4).flat_map(|_| 1u64.to_le_bytes()).collect();
            let req = win
                .rget_accumulate(Rank(0), 0, AtomicOp::Sum, AtomicDatatype::U64, &operand)
                .unwrap();
            let prior = win.wait(req).unwrap().unwrap();
            for lane in 0usize..4 {
                let v = u64::from_le_bytes(prior[lane * 8..lane * 8 + 8].try_into().unwrap());
                assert_eq!(v, lane as u64 * 10, "prior value of lane {lane}");
            }
        }
        win.sync().unwrap();
        if comm.rank() == Rank(0) {
            for lane in 0usize..4 {
                let v = u64::from_le_bytes(local.read_vec(lane * 8, 8).try_into().unwrap());
                assert_eq!(v, lane as u64 * 10 + 1, "accumulated value of lane {lane}");
            }
        }
    });
}

#[test]
fn concurrent_accumulates_match_the_sequential_sum() {
    const PER_RANK: u64 = 100;
    world_run(4, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(8);
        let mut win = Window::create(&comm, 34, local.clone()).unwrap();
        win.lock_all();
        for _ in 0..PER_RANK {
            let inc = (comm.rank().0 as u64 + 1).to_le_bytes();
            let _req = win
                .raccumulate(Rank(0), 0, AtomicOp::Sum, AtomicDatatype::U64, &inc)
                .unwrap();
        }
        win.unlock_all().unwrap();
        win.sync().unwrap();
        if comm.rank() == Rank(0) {
            let v = u64::from_le_bytes(local.read_vec(0, 8).try_into().unwrap());
            assert_eq!(v, PER_RANK * (1 + 2 + 3 + 4), "no lost updates");
        }
    });
}

// ----- notified access ------------------------------------------------------

#[test]
fn notified_put_wakes_target_without_polling() {
    // Acceptance shape: the target issues no gets, no polls, no progress
    // calls — it blocks on the window's notification counter and wakes only
    // when the notified put has landed. The initiator additionally runs
    // atomics against the same window to show they need no target code
    // either.
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(64);
        let mut win = Window::create(&comm, 40, local.clone()).unwrap();
        if comm.rank() == Rank(0) {
            let inc = 9u64.to_le_bytes();
            let _acc = win
                .raccumulate(Rank(1), 8, AtomicOp::Sum, AtomicDatatype::U64, &inc)
                .unwrap();
            win.flush_all().unwrap();
            // The notified put is ordered after the accumulate's completion,
            // so one wakeup observes both.
            let _put = win
                .put_to(Rank(1))
                .offset(0)
                .notify()
                .submit(b"signal")
                .unwrap();
            win.flush_all().unwrap();
        } else {
            win.wait_notified(1).unwrap();
            assert_eq!(&local.read_vec(0, 6)[..], b"signal");
            let v = u64::from_le_bytes(local.read_vec(8, 8).try_into().unwrap());
            assert_eq!(v, 9, "the accumulate landed before the notification");
            assert_eq!(win.notified().unwrap(), 1);
        }
        comm.barrier();
    });
}

// ----- builders, requests, epochs, errors -----------------------------------

#[test]
fn builder_spellings_round_trip() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(32);
        let mut win = Window::create(&comm, 50, local.clone()).unwrap();
        if comm.rank() == Rank(0) {
            let put = win.put_to(Rank(1)).offset(4).submit(b"abcd").unwrap();
            win.wait(put).unwrap();
            let acc = win
                .accumulate_to(Rank(1))
                .offset(16)
                .op(AtomicOp::Sum)
                .datatype(AtomicDatatype::I64)
                .fetch()
                .submit(&(-3i64).to_le_bytes())
                .unwrap();
            let prior = win.wait(acc).unwrap().unwrap();
            assert_eq!(i64::from_le_bytes(prior.try_into().unwrap()), 0);
            let get = win.get_from(Rank(1)).offset(4).length(4).submit().unwrap();
            assert_eq!(win.wait(get).unwrap().unwrap(), b"abcd");
        }
        win.sync().unwrap();
        if comm.rank() == Rank(1) {
            assert_eq!(&local.read_vec(4, 4)[..], b"abcd");
            let v = i64::from_le_bytes(local.read_vec(16, 8).try_into().unwrap());
            assert_eq!(v, -3);
        }
    });
}

#[test]
fn flush_all_retires_puts_and_preserves_get_results() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::from_vec(vec![comm.rank().0 as u8; 16]);
        let mut win = Window::create(&comm, 51, local).unwrap();
        if comm.rank() == Rank(0) {
            let put = win.rput(Rank(1), 8, &[0xee; 4]).unwrap();
            let get = win.rget(Rank(1), 0, 4).unwrap();
            win.flush_all().unwrap();
            // The put was retired by the flush: wait is a cheap no-op.
            assert!(win.test(&put).unwrap());
            assert_eq!(win.wait(put).unwrap(), None);
            // The get's bytes survive the flush until claimed.
            assert!(win.test(&get).unwrap());
            assert_eq!(win.wait(get).unwrap().unwrap(), vec![1u8; 4]);
        }
        win.sync().unwrap();
    });
}

#[test]
fn lock_all_epochs_complete_on_unlock() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let local = Region::zeroed(16);
        let mut win = Window::create(&comm, 52, local.clone()).unwrap();
        win.lock_all();
        assert!(win.is_locked());
        if comm.rank() == Rank(1) {
            let _req = win.rput(Rank(0), 0, b"epoch").unwrap();
        }
        win.unlock_all().unwrap();
        assert!(!win.is_locked());
        comm.barrier();
        if comm.rank() == Rank(0) {
            assert_eq!(&local.read_vec(0, 5)[..], b"epoch");
        }
        comm.barrier();
    });
}

#[test]
fn rma_errors_fold_into_the_layered_error_kind() {
    world_run(2, ProgressMode::NicThread, |comm| {
        let mut win = Window::create(&comm, 53, Region::zeroed(16)).unwrap();
        // A get spec without a length is rejected before anything is issued,
        // and the Portals error folds into the layered kind.
        let err = win.get_from(Rank(1)).submit().unwrap_err();
        assert_eq!(
            ErrorKind::from(err),
            ErrorKind::Portals(PtlError::InvalidArgument)
        );
        // CAS must be spelled rcompare_and_swap, not raccumulate.
        let err = win
            .raccumulate(Rank(1), 0, AtomicOp::Cas, AtomicDatatype::U64, &[0; 16])
            .unwrap_err();
        assert_eq!(
            ErrorKind::from(err),
            ErrorKind::Portals(PtlError::InvalidArgument)
        );
        win.sync().unwrap();
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]

    /// Concurrent accumulates from every rank — arbitrary per-rank operand
    /// lists, racing without intermediate synchronization — must equal the
    /// sequential (wrapping) sum: the engine-side RMW may reorder
    /// contributions but never lose or double-apply one.
    #[test]
    fn concurrent_accumulate_equals_sequential_sum(
        per_rank in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..12),
            3,
        ),
    ) {
        let expected = per_rank
            .iter()
            .flatten()
            .fold(0u64, |acc, v| acc.wrapping_add(*v));
        let per_rank = std::sync::Arc::new(per_rank);
        let observed = std::sync::Arc::new(std::sync::Mutex::new(0u64));
        let observed_in = std::sync::Arc::clone(&observed);
        world_run(3, ProgressMode::NicThread, move |comm| {
            let local = Region::zeroed(8);
            let mut win = Window::create(&comm, 60, local.clone()).unwrap();
            win.lock_all();
            for v in &per_rank[comm.rank().0 as usize] {
                let _req = win
                    .raccumulate(Rank(0), 0, AtomicOp::Sum, AtomicDatatype::U64, &v.to_le_bytes())
                    .unwrap();
            }
            win.unlock_all().unwrap();
            win.sync().unwrap();
            if comm.rank() == Rank(0) {
                let v = u64::from_le_bytes(local.read_vec(0, 8).try_into().unwrap());
                *observed_in.lock().unwrap() = v;
            }
        });
        prop_assert_eq!(*observed.lock().unwrap(), expected);
    }
}
