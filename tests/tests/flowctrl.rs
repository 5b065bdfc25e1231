//! End-to-end flow-control lifecycle: overflow → disable → drain → re-enable.
//!
//! The portals-crate tests pin down the single-NI mechanics (exactly-once
//! disable, nack shape, §4.8 validation order); these tests drive the full
//! stack — MPI over transport credits over the simulated fabric — through the
//! overload lifecycle and assert the end-to-end contracts:
//!
//! * flow control on: a flood that oversubscribes the receiver's
//!   unexpected-message slabs disables the portal, senders observe
//!   backpressure (nacks, not loss), and resume delivers **every** deferred
//!   message intact;
//! * flow control off: the same flood reproduces the paper's §4.8
//!   drop-and-count behavior — excess messages are lost and attributed, the
//!   portal never disables;
//! * the guarantee is insensitive to the transport's credit-window size
//!   (property test), including a zero-credit start that forces the
//!   probe/grant path before any data moves.

use portals::DropReason;
use portals_mpi::{MpiConfig, Protocol};
use portals_runtime::{Job, JobConfig, ProcessEnv};
use portals_types::Rank;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Eager message size for the floods.
const MSG: usize = 1024;
/// The MPI engine's eager-data portal index (`PT_MSG`).
const PT_MSG: u32 = 0;

/// A two-rank world with deliberately tiny unexpected-message slabs so a
/// small flood oversubscribes the receiver.
fn overload_config(flow_control: bool) -> JobConfig {
    JobConfig {
        transport: portals_transport::TransportConfig {
            rto_base: Duration::from_millis(5),
            ..Default::default()
        },
        mpi: MpiConfig {
            protocol: Protocol::Rendezvous { eager_limit: 2048 },
            slab_size: 16 * 1024,
            slab_count: 2,
            slab_min_free: 2048,
            ..Default::default()
        },
        ni: portals::NiConfig {
            flow_control,
            ..JobConfig::default().ni
        },
        ..Default::default()
    }
}

/// Flood messages per sender: 4× the receiver's total slab capacity.
const FLOOD: usize = 4 * 2 * 16 * 1024 / MSG;

fn flood_payload(i: usize) -> Vec<u8> {
    vec![(i * 31 + 7) as u8; MSG]
}

/// Rank 1 floods rank 0 at 4× slab capacity while rank 0 deliberately lags,
/// then rank 0 drains. With flow control on, the portal must have tripped
/// (senders saw nacks — backpressure, not loss) and every message must
/// arrive intact after resume.
#[test]
fn overflow_disables_then_resume_delivers_every_message() {
    let (job, envs) = Job::build(2, overload_config(true));
    let gate = Arc::new(Barrier::new(2));
    let handles: Vec<_> = envs
        .into_iter()
        .map(|env| {
            let gate = gate.clone();
            std::thread::spawn(move || {
                if env.comm.rank() == Rank(0) {
                    flooded_receiver(&env, &gate);
                    // The lifecycle closed: portal re-enabled after the trips.
                    assert!(
                        env.mpi.engine().ni().pt_is_enabled(PT_MSG).unwrap(),
                        "portal left disabled after drain"
                    );
                    // Backpressure happened: the trip nacked at least one put.
                    let nacked = dropped(&env, DropReason::PtDisabled);
                    assert!(nacked > 0, "flood never hit the disabled portal");
                } else {
                    flooded_sender(&env, &gate, true);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(job);
}

/// The ablation: with the flag off, the same flood is shed §4.8-style —
/// dropped, counted, portal never disabled, nothing nacked.
#[test]
fn flow_off_preserves_drop_and_count() {
    let (job, envs) = Job::build(2, overload_config(false));
    let gate = Arc::new(Barrier::new(2));
    let handles: Vec<_> = envs
        .into_iter()
        .map(|env| {
            let gate = gate.clone();
            std::thread::spawn(move || {
                if env.comm.rank() == Rank(0) {
                    gate.wait();
                    std::thread::sleep(Duration::from_millis(20));
                    // Only the head of the flood (first slab fills) is
                    // receivable; the first message is certainly part of it.
                    let (data, _) = env.comm.recv(Some(Rank(1)), Some(500), 2 * MSG);
                    assert_eq!(data, flood_payload(0));
                    assert!(
                        env.mpi.engine().ni().pt_is_enabled(PT_MSG).unwrap(),
                        "portal disabled with flow control off"
                    );
                    let unmatched = dropped(&env, DropReason::NoMatch);
                    assert!(unmatched > 0, "oversubscribed flood dropped nothing");
                    assert_eq!(
                        dropped(&env, DropReason::PtDisabled),
                        0,
                        "nacks sent with flow control off"
                    );
                } else {
                    flooded_sender(&env, &gate, false);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(job);
}

fn flooded_sender(env: &ProcessEnv, gate: &Barrier, wait_for_completion: bool) {
    let reqs: Vec<_> = (0..FLOOD)
        .map(|i| env.comm.isend(Rank(0), (500 + i) as u32, &flood_payload(i)))
        .collect();
    gate.wait();
    if wait_for_completion {
        // Completion of a nacked send requires the receiver's portal to
        // resume: finishing this loop *is* observing backpressure-not-loss.
        for r in reqs {
            env.comm.wait(r);
        }
    }
    // Flow off: the dropped tail can never complete; leave it outstanding.
}

fn flooded_receiver(env: &ProcessEnv, gate: &Barrier) {
    gate.wait();
    // Lag so the flood oversubscribes the slabs before the first drain.
    std::thread::sleep(Duration::from_millis(20));
    for i in 0..FLOOD {
        let (data, _) = env
            .comm
            .recv(Some(Rank(1)), Some((500 + i) as u32), 2 * MSG);
        assert_eq!(data, flood_payload(i), "message {i} lost or corrupted");
    }
}

/// Drop count by reason on this rank's interface.
fn dropped(env: &ProcessEnv, reason: DropReason) -> u64 {
    env.mpi.engine().ni().counters().dropped(reason)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The no-loss guarantee must hold for any credit-window size, including
    /// a window of one packet and a zero-credit start (every sender must win
    /// its first credit through the probe/grant path).
    #[test]
    fn overload_recovers_for_any_credit_window(
        window in 1usize..=32,
        zero_start in any::<bool>(),
    ) {
        let mut cfg = overload_config(true);
        cfg.transport.credit_window = window;
        cfg.transport.initial_credits = if zero_start { 0 } else { window as u64 };
        let (job, envs) = Job::build(2, cfg);
        let gate = Arc::new(Barrier::new(2));
        let handles: Vec<_> = envs
            .into_iter()
            .map(|env| {
                let gate = gate.clone();
                std::thread::spawn(move || {
                    if env.comm.rank() == Rank(0) {
                        flooded_receiver(&env, &gate);
                    } else {
                        flooded_sender(&env, &gate, true);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(job);
    }
}
