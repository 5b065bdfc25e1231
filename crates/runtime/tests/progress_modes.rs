//! Differential progress-mode tests: a job run under threadless
//! (caller-driven) progress must be observationally identical to the same job
//! under the classic NIC-thread configuration — byte-identical application
//! results across eager, rendezvous and triggered-collective workloads.
//! The progress mode decides *who* runs the protocol, never *what* it does.

use portals_mpi::MpiConfig;
use portals_runtime::{Collectives, Job, JobConfig, ReduceOp};
use portals_types::{ProgressMode, Rank};

fn job_config(mode: ProgressMode) -> JobConfig {
    let mut cfg = JobConfig::default();
    cfg.transport.progress_mode = mode;
    cfg
}

fn world_sizes() -> [usize; 3] {
    [2, 4, 8]
}

/// Deterministic per-pair payload so a misrouted or corrupted message shows
/// up as a byte diff, not just a length diff.
fn payload(from: u32, to: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (from as u8) ^ (to as u8).wrapping_mul(31) ^ (i as u8).wrapping_mul(7))
        .collect()
}

/// All-pairs exchange: every rank sends a distinct payload to every peer and
/// transcribes what it received, in source order.
fn all_pairs(n: usize, mut cfg: JobConfig, len_of: fn(u32, u32) -> usize) -> Vec<Vec<Vec<u8>>> {
    // Plenty of event headroom for the all-pairs burst at n=8.
    cfg.mpi.eq_capacity = cfg.mpi.eq_capacity.max(16 * 1024);
    Job::launch(n, cfg, move |env| {
        let me = env.rank().0;
        let n = env.size() as u32;
        let sends: Vec<_> = (0..n)
            .filter(|&p| p != me)
            .map(|p| env.comm.isend(Rank(p), me, &payload(me, p, len_of(me, p))))
            .collect();
        let mut transcript = Vec::new();
        for p in (0..n).filter(|&p| p != me) {
            let (data, status) = env.comm.recv(Some(Rank(p)), Some(p), 64 * 1024);
            assert_eq!(status.source, Rank(p));
            transcript.push(data);
        }
        env.comm.wait_all(&sends);
        transcript
    })
}

#[test]
fn eager_transcripts_identical_across_modes() {
    for n in world_sizes() {
        let len = |from: u32, to: u32| 48 + from as usize * 3 + to as usize;
        let nic = all_pairs(n, job_config(ProgressMode::NicThread), len);
        let caller = all_pairs(n, job_config(ProgressMode::CallerDriven), len);
        assert_eq!(nic, caller, "eager transcripts diverged at n={n}");
    }
}

#[test]
fn rendezvous_transcripts_identical_across_modes() {
    for n in world_sizes() {
        // GM-style rendezvous: sizes straddle the eager limit so both the
        // RTS/get pull path and the small eager path are exercised.
        let rdv = |mode| {
            let mut cfg = job_config(mode);
            cfg.mpi = MpiConfig::gm_style();
            cfg
        };
        let len = |from: u32, to: u32| {
            if (from + to) % 2 == 0 {
                20 * 1024 + from as usize
            } else {
                512 + to as usize
            }
        };
        let nic = all_pairs(n, rdv(ProgressMode::NicThread), len);
        let caller = all_pairs(n, rdv(ProgressMode::CallerDriven), len);
        assert_eq!(nic, caller, "rendezvous transcripts diverged at n={n}");
    }
}

/// Triggered-collective workload: barrier + bcast + allreduce routed through
/// pre-posted triggered schedules (counting events firing puts in engine
/// context — the machinery most sensitive to who drives progress).
fn triggered_collectives(n: usize, mode: ProgressMode) -> Vec<(Vec<u8>, Vec<f64>)> {
    Job::launch(n, job_config(mode), move |env| {
        let coll = Collectives::triggered(env.comm.clone());
        assert!(coll.offloaded());
        let me = env.rank().0 as usize;
        let n = env.size();

        coll.barrier();
        let mut bytes = if me == 0 {
            (0..257u32).map(|i| (i % 251) as u8).collect()
        } else {
            vec![0u8; 257]
        };
        coll.bcast(0, &mut bytes);

        let mut sum = vec![me as f64 + 1.0; 16];
        coll.allreduce(&mut sum, ReduceOp::Sum);
        coll.barrier();
        let _ = n;
        (bytes, sum)
    })
}

#[test]
fn triggered_collectives_identical_across_modes() {
    for n in world_sizes() {
        let nic = triggered_collectives(n, ProgressMode::NicThread);
        let caller = triggered_collectives(n, ProgressMode::CallerDriven);
        assert_eq!(nic, caller, "triggered collectives diverged at n={n}");
        // And the results are the right ones, not merely identical garbage.
        for (bytes, sum) in &caller {
            assert_eq!(bytes.len(), 257);
            assert!(bytes.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
            let expect = (n * (n + 1)) as f64 / 2.0;
            assert!(sum.iter().all(|&v| v == expect), "allreduce sum at n={n}");
        }
    }
}
