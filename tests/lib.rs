//! Cross-crate integration tests live in `tests/tests/`.
//!
//! The [`workload`] module is the shared application script for the
//! distributed-vs-local differential test: the `udp_rank` helper binary runs
//! it across real OS processes over loopback UDP, and
//! `tests/distributed.rs` runs the identical script through the in-process
//! launcher, then compares transcripts byte for byte.

pub mod workload {
    //! A deterministic multi-protocol application script.
    //!
    //! Every rank produces a transcript — the exact bytes it received or
    //! computed, in program order — that depends only on the world size and
    //! rank map, never on timing, transport, or launcher. Three phases cover
    //! the three protocol regimes the UDP backend must carry:
    //!
    //! 1. **MPI eager**: ring `sendrecv` rounds with payloads far below the
    //!    long-message cutoff (`MpiConfig::slab_min_free`), landing in the
    //!    receiver's unexpected slabs.
    //! 2. **MPI long protocol**: one ring exchange of a [`BULK_LEN`]
    //!    payload, past the default cutoff, received only once it waits
    //!    unexpected, so every receiver pulls its message with a get and the
    //!    reply crosses the wire.
    //! 3. **Triggered allreduce**: the offloaded (counter-chained)
    //!    collective, checked byte-identical against the host-driven one on
    //!    the spot.
    //! 4. **One-sided RMA**: a ring halo exchange through window puts, a
    //!    contended atomic counter accumulated from every rank, a
    //!    compare-and-swap, and a notified put — all through the rebuilt
    //!    `Window` API, so the wire-level atomics and the CT-driven
    //!    completion chains run over the real UDP wire too.

    use portals_mpi::{AtomicDatatype, AtomicOp, MpiConfig, Window};
    use portals_runtime::{Collectives, ProcessEnv, ReduceOp};
    use portals_types::{Rank, Region};

    /// Eager-phase payload from `from` in `round`: size varies per round but
    /// stays far below the long-message cutoff.
    pub fn eager_payload(from: usize, round: usize) -> Vec<u8> {
        let len = 64 + round * 777 + from * 13;
        (0..len)
            .map(|i| (i.wrapping_mul(31) ^ from.wrapping_mul(97) ^ round) as u8)
            .collect()
    }

    /// Long-phase payload length: past `MpiConfig::default().slab_min_free`
    /// (256 KiB), so it travels by the long protocol.
    pub const BULK_LEN: usize = 320 * 1024;

    /// Long-phase payload: [`BULK_LEN`] bytes.
    pub fn bulk_payload(from: usize) -> Vec<u8> {
        (0..BULK_LEN)
            .map(|i: usize| (i.wrapping_mul(131) ^ from.wrapping_mul(241)) as u8)
            .collect()
    }

    /// Per-rank allreduce input (NaN- and signed-zero-free, so the reduction
    /// is order-insensitive bit for bit).
    pub fn allreduce_input(rank: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37 + rank * 101) % 1009) as f64 * 0.5 - 100.0)
            .collect()
    }

    /// Run the script on one rank; returns its transcript.
    pub fn run(env: &ProcessEnv) -> Vec<u8> {
        let comm = &env.comm;
        let n = comm.size();
        let me = comm.rank().0 as usize;
        let right = Rank(((me + 1) % n) as u32);
        let left = (me + n - 1) % n;
        let mut transcript = Vec::new();

        // Phase 1: eager ring rounds.
        for round in 0..3usize {
            let tag = 10 + round as u32;
            let (data, _) = comm.sendrecv(
                right,
                tag,
                &eager_payload(me, round),
                Some(Rank(left as u32)),
                Some(tag),
                16 * 1024,
            );
            assert_eq!(data, eager_payload(left, round), "eager round {round}");
            transcript.extend_from_slice(&data);
        }

        // Phase 2: one long-protocol ring exchange, received unexpected:
        // each rank sends, waits until its left neighbour's message has
        // arrived, then receives it, which takes a get and its reply.
        assert!(BULK_LEN > MpiConfig::default().slab_min_free);
        let pulled = || comm.engine().ni().counters().replies_accepted.get();
        let before = pulled();
        let send = comm.isend(right, 20, &bulk_payload(me));
        comm.probe(Some(Rank(left as u32)), Some(20));
        let (data, _) = comm.recv(Some(Rank(left as u32)), Some(20), BULK_LEN);
        comm.wait(send);
        assert_eq!(data, bulk_payload(left), "bulk exchange");
        assert!(pulled() > before, "the long message was not pulled");
        transcript.extend_from_slice(&data);

        // Phase 3: triggered (offloaded) allreduce, differentially checked
        // against the host-driven library right here.
        let host = Collectives::new(comm.clone());
        let off = Collectives::triggered(comm.clone());
        let input = allreduce_input(me, 33);
        let mut host_out = input.clone();
        host.allreduce(&mut host_out, ReduceOp::Sum);
        let mut off_out = input;
        off.allreduce(&mut off_out, ReduceOp::Sum);
        for (h, o) in host_out.iter().zip(&off_out) {
            assert_eq!(h.to_le_bytes(), o.to_le_bytes(), "offloaded != host");
        }
        for v in &off_out {
            transcript.extend_from_slice(&v.to_le_bytes());
        }
        off.barrier();

        // Phase 4: one-sided RMA through the rebuilt Window API.
        transcript.extend_from_slice(&run_rma(env));
        transcript
    }

    /// Halo-edge payload rank `from` contributes: 32 deterministic bytes.
    pub fn halo_edge(from: usize) -> Vec<u8> {
        (0..32)
            .map(|i: usize| (i.wrapping_mul(53) ^ from.wrapping_mul(167) ^ 0xA5) as u8)
            .collect()
    }

    /// Notified-put payload from rank `from`: its rank stamped into 8 bytes.
    pub fn notify_token(from: usize) -> [u8; 8] {
        (from as u64 ^ 0x4E4F_5449_4659_0000).to_le_bytes()
    }

    /// The RMA script, also runnable standalone (`PORTALS_WORKLOAD=rma` in
    /// the `udp_rank` helper): every byte appended to the transcript is a
    /// deterministic function of world size and rank, never of arrival
    /// order — concurrent accumulates are only observed *after* a full
    /// synchronization, and the only fetched-back values are ones with a
    /// single possible prior (the post-sync counter).
    pub fn run_rma(env: &ProcessEnv) -> Vec<u8> {
        let comm = &env.comm;
        let n = comm.size();
        let me = comm.rank().0 as usize;
        let right = Rank(((me + 1) % n) as u32);
        let left = (me + n - 1) % n;
        let mut transcript = Vec::new();

        // Window layout: [0..32) left halo, [32..64) right halo,
        // [64..72) shared counter (rank 0's is the contended one),
        // [72..80) notified-put slot.
        let local = Region::zeroed(80);
        let mut win = Window::create(comm, 7, local.clone()).expect("window");

        // Halo exchange: push this rank's edge into both ring neighbours.
        let edge = halo_edge(me);
        let _r = win.put_to(right).offset(0).submit(&edge).expect("halo put");
        let _l = win
            .put_to(Rank(left as u32))
            .offset(32)
            .submit(&edge)
            .expect("halo put");
        win.sync().expect("halo sync");
        let halos = local.read_vec(0, 64);
        assert_eq!(&halos[..32], &halo_edge(left)[..], "left halo");
        assert_eq!(&halos[32..], &halo_edge((me + 1) % n)[..], "right halo");
        transcript.extend_from_slice(&halos);

        // Contended atomic counter: every rank adds (rank+1) five times to
        // rank 0's counter; the engine-side RMW must lose no update.
        const ROUNDS: u64 = 5;
        for _ in 0..ROUNDS {
            let inc = (me as u64 + 1).to_le_bytes();
            let _req = win
                .raccumulate(Rank(0), 64, AtomicOp::Sum, AtomicDatatype::U64, &inc)
                .expect("accumulate");
        }
        win.sync().expect("counter sync");
        let total = ROUNDS * (n as u64 * (n as u64 + 1) / 2);
        let counter = {
            let req = win.rget(Rank(0), 64, 8).expect("counter get");
            win.wait(req).expect("counter wait").expect("counter bytes")
        };
        assert_eq!(
            u64::from_le_bytes(counter.clone().try_into().unwrap()),
            total,
            "lost atomic update"
        );
        transcript.extend_from_slice(&counter);
        win.sync().expect("pre-cas sync");

        // Compare-and-swap: the last rank swaps the settled counter for a
        // sentinel; its fetched prior is deterministic (the settled total).
        const SENTINEL: u64 = 0xCA5_CA5_CA5;
        if me == n - 1 {
            let req = win
                .rcompare_and_swap(Rank(0), 64, total.to_le_bytes(), SENTINEL.to_le_bytes())
                .expect("cas");
            let prior = win.wait(req).expect("cas wait").expect("cas bytes");
            assert_eq!(u64::from_le_bytes(prior.try_into().unwrap()), total);
        }
        win.sync().expect("cas sync");
        let swapped = {
            let req = win.rget(Rank(0), 64, 8).expect("swapped get");
            win.wait(req).expect("swapped wait").expect("swapped bytes")
        };
        assert_eq!(
            u64::from_le_bytes(swapped.clone().try_into().unwrap()),
            SENTINEL
        );
        transcript.extend_from_slice(&swapped);

        // Notified put around the ring: the target wakes on the window's
        // notification counter — no polling, no two-sided receive.
        let _n = win
            .put_to(right)
            .offset(72)
            .notify()
            .submit(&notify_token(me))
            .expect("notified put");
        win.wait_notified(1).expect("notification");
        let token = local.read_vec(72, 8);
        assert_eq!(&token[..], &notify_token(left)[..], "notified token");
        transcript.extend_from_slice(&token);
        win.sync().expect("rma epilogue sync");
        transcript
    }
}
