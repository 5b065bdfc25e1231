//! The long-message protocol's two contracts (DESIGN.md §5a, §6c, §6h):
//!
//! * **completion means quiescent** — when `wait` returns on a long send, no
//!   byte the buffer holds from then on can reach the receiver: the message
//!   is no longer streaming out of it, and any retransmission still to come
//!   is a duplicate the receiver discards. A put a posted receive took has
//!   landed whole before the target acks it; a send whose put was parked
//!   unexpected completes on the receiver's FIN put, never on the `Get`
//!   event that merely started the read.
//! * **one reply per message** — an unexpected long message is pulled with
//!   one get bound over the user's receive region, whatever the size and
//!   however the receive truncates, and the sender's exposure is gone
//!   afterwards.

use portals::Region;
use portals_mpi::{Completion, MpiConfig};
use portals_net::{FabricConfig, FaultPlan};
use portals_runtime::{Job, JobConfig};
use portals_types::{ProgressMode, Rank};
use std::time::Duration;

/// Far above `MpiConfig::adaptive()`'s cutoff: always long.
const LEN: usize = 4 * 1024 * 1024;

fn pattern(round: usize) -> Vec<u8> {
    (0..LEN)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3] ^ round as u8)
        .collect()
}

fn adaptive_job(mode: ProgressMode, lossy: bool) -> JobConfig {
    let mut cfg = JobConfig {
        mpi: MpiConfig::adaptive(),
        ..JobConfig::default()
    };
    cfg.transport.progress_mode = mode;
    if lossy {
        cfg.fabric = FabricConfig::default()
            .with_faults(FaultPlan {
                loss_probability: 0.10,
                ..FaultPlan::default()
            })
            .with_seed(0x5eed);
        cfg.transport.rto_base = Duration::from_millis(5);
    }
    cfg
}

/// Rank 0 sends its own region and scribbles over all of it the moment
/// `wait` returns; rank 1 must still receive the original bytes. Returns the
/// job's retransmission count.
fn overwrite_after_wait(mode: ProgressMode, lossy: bool) -> u64 {
    const ROUNDS: usize = 4;
    let mut cfg = adaptive_job(mode, lossy);
    if !lossy {
        // On a clean fabric a retransmission can only mean a thread was
        // descheduled past the RTO; at 250 ms "none" tests the protocol, not
        // the scheduler of a loaded host.
        cfg.transport.rto_base = Duration::from_millis(250);
    }
    let retransmissions = Job::launch(2, cfg, move |env| {
        for round in 0..ROUNDS {
            if env.rank() == Rank(0) {
                let region = Region::copy_from_slice(&pattern(round));
                let req = env.comm.isend_region(Rank(1), 5, region.clone());
                env.comm.wait(req);
                region.write(0, &vec![0xEE; LEN]);
            } else {
                let buf = Region::zeroed(LEN);
                let req = env.comm.irecv(Some(Rank(0)), Some(5), buf.clone());
                let st = env.comm.wait(req).status().expect("recv status");
                assert_eq!((st.len, st.truncated), (LEN, false));
                let got = buf.read_vec(0, LEN);
                let want = pattern(round);
                let bad = got.iter().zip(&want).filter(|(g, w)| g != w).count();
                assert_eq!(
                    bad, 0,
                    "{mode:?} lossy={lossy} round {round}: {bad} of {LEN} bytes differ \
                     from what the sender held at isend — the buffer was still being \
                     read after the send completed"
                );
            }
        }
        // Hold both nodes up until the last round has been checked.
        env.comm.barrier();
        env.node.transport_stats().retransmissions.get()
    });
    retransmissions.iter().sum()
}

#[test]
fn send_completion_means_the_buffer_is_quiescent() {
    for mode in [ProgressMode::NicThread, ProgressMode::CallerDriven] {
        assert_eq!(
            overwrite_after_wait(mode, false),
            0,
            "{mode:?}: a clean fabric retransmits nothing"
        );
        assert!(
            overwrite_after_wait(mode, true) > 0,
            "{mode:?}: 10% seeded loss must force retransmissions"
        );
    }
}

#[test]
fn one_reply_per_rendezvous_and_nothing_left_exposed() {
    // Whole message, a truncating receive, and a receive with no room at all,
    // with a NIC thread standing by and built without one.
    for (mode, cap) in [ProgressMode::NicThread, ProgressMode::CallerDriven]
        .into_iter()
        .flat_map(|mode| [LEN, LEN / 4 + 3, 0].map(|cap| (mode, cap)))
    {
        let delivered = LEN.min(cap);
        Job::launch(2, adaptive_job(mode, false), move |env| {
            let ni = env.mpi.engine().ni();
            if env.rank() == Rank(0) {
                let idle = ni.resources_in_use();
                let req = env
                    .comm
                    .isend_region(Rank(1), 9, Region::copy_from_slice(&pattern(0)));
                assert_eq!(
                    env.comm.wait(req),
                    Completion::Send {
                        delivered: delivered as u64,
                        requested: LEN as u64,
                    },
                    "cap {cap}"
                );
                // The exposure (one entry, one descriptor) and the put's
                // descriptor are gone; nothing is tracked any more.
                assert_eq!(ni.resources_in_use(), idle, "cap {cap}: leaked ME/MD");
                assert_eq!(env.mpi.engine().sends_pending(), 0, "cap {cap}");
            } else {
                // Let the long put land unexpected first, so the counters below
                // see the pull alone.
                assert_eq!(env.comm.probe(Some(Rank(0)), Some(9)).len, LEN);
                let idle = ni.resources_in_use();
                // Values, not the live handle: a held handle reads 0 deltas.
                let counts = || {
                    let c = ni.counters();
                    (c.replies_accepted.get(), c.payload_copies.get())
                };
                let (replies_before, copies_before) = counts();
                let buf = Region::zeroed(cap);
                let req = env.comm.irecv(Some(Rank(0)), Some(9), buf.clone());
                let st = env.comm.wait(req).status().expect("recv status");
                let (replies_after, copies_after) = counts();
                assert_eq!(
                    (st.len, st.full_len, st.truncated),
                    (delivered, LEN, cap < LEN),
                    "cap {cap}"
                );
                assert_eq!(buf.read_vec(0, delivered), pattern(0)[..delivered]);
                assert_eq!(
                    replies_after - replies_before,
                    1,
                    "cap {cap}: one get, one reply"
                );
                // The reply is scattered straight into `buf`: one copy,
                // or none when there is no byte to move.
                assert_eq!(
                    copies_after - copies_before,
                    u64::from(cap > 0),
                    "cap {cap}: no second copy behind the engine's back"
                );
                assert_eq!(ni.resources_in_use(), idle, "cap {cap}: leaked pull MD");
            }
            env.comm.barrier();
        });
    }
}
