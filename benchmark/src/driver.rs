//! The closed loop every workload runs in: warm-up, then timed blocks of a
//! fixed number of ops until the budget is spent.

use crate::inputs::Inputs;
use crate::rig::{self, Obs, ProcessEnv, Wire};
use crate::spans::{Span, Spans};
use crate::stats::{Block, Top};
use crate::sys::Usage;
use crate::workloads::{
    recv_block_size, send_block_size, Bulk, Halo, MsgRate, PingPong, Spec, Workload,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// How much a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Timed blocks until this much time has passed (`--seconds`).
    Time(Duration),
    /// Exactly this many timed ops, in at least four blocks; zero measures
    /// set-up only.
    Ops(u64),
}

impl Budget {
    /// Ops in the next block, or 0 to stop. Decided by rank 0 between blocks.
    fn next_block(self, spec: &Spec, done: u64, elapsed: Duration, last: Duration) -> u64 {
        match self {
            // Stop when less than half a block's time is left, so a run
            // overshoots `--seconds` by at most half a block.
            Budget::Time(limit) if elapsed + last / 2 >= limit => 0,
            Budget::Time(_) => spec.block_ops,
            Budget::Ops(total) => spec.block_ops.min((total / 4).max(1)).min(total - done),
        }
    }
}

/// Everything a rank needs to run its side of a workload.
#[derive(Clone)]
pub struct RunParams {
    /// The workload.
    pub spec: &'static Spec,
    /// How much to measure.
    pub budget: Budget,
    /// The inputs generated from `--seed`, shared by the ranks of a process.
    pub inputs: Arc<Inputs>,
    /// Record spans.
    pub traced: bool,
    /// The job-wide registry, for counts around the timed loop.
    pub obs: Obs,
    /// When the launch call was made.
    pub launched: Instant,
    /// When the runner started this workload's first process, if it did:
    /// `setup_s` counts from there, so that spawning is included.
    pub spawned_at: Option<SystemTime>,
}

/// What the process did between the first timed op and the last.
#[derive(Debug, Clone, Default)]
pub struct ProcessDelta {
    /// Wall time of the timed loop.
    pub wall: Duration,
    /// CPU time in user mode, all threads.
    pub user: Duration,
    /// CPU time in the kernel, all threads.
    pub sys: Duration,
    /// Context switches, all threads.
    pub ctx_switches: u64,
    /// Growth of every counter in the job-wide registry.
    pub counters: BTreeMap<&'static str, u64>,
}

/// One rank's results.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// The rank.
    pub rank: u32,
    /// Launch call to this rank's first instruction.
    pub launch: Duration,
    /// Process start to first timed op (rank 0 only).
    pub setup: Option<Duration>,
    /// The timed blocks (rank 0 only).
    pub blocks: Vec<Block>,
    /// 99.9th percentile over all timed ops, µs (rank 0 only).
    pub p999_us: f64,
    /// Slowest timed op, µs (rank 0 only).
    pub max_us: f64,
    /// Timed ops started.
    pub attempted: u64,
    /// Timed ops whose checks failed on this rank.
    pub failed: u64,
    /// Process-wide deltas over the timed loop, from the first rank each
    /// process hosts.
    pub process: Option<ProcessDelta>,
    /// In-band (eager, rendezvous) decisions of the adaptive protocol.
    pub adaptive: (u64, u64),
    /// Spans of the timed ops, if traced.
    pub spans: Vec<Span>,
}

struct ProcessMark {
    at: Instant,
    usage: Usage,
    counters: BTreeMap<&'static str, u64>,
}

impl ProcessMark {
    fn now(obs: &Obs) -> ProcessMark {
        ProcessMark {
            at: Instant::now(),
            usage: Usage::now(),
            counters: rig::counters(obs),
        }
    }

    fn delta_to_now(&self, obs: &Obs) -> ProcessDelta {
        let end = ProcessMark::now(obs);
        ProcessDelta {
            wall: end.at - self.at,
            user: end.usage.user - self.usage.user,
            sys: end.usage.sys - self.usage.sys,
            ctx_switches: end.usage.ctx_switches - self.usage.ctx_switches,
            counters: end
                .counters
                .iter()
                .map(|(name, v)| (*name, v - self.counters.get(name).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// Slowest ops kept for the pooled tail: the 99.9th percentile of up to four
/// million ops can be read off them.
const TAIL_KEPT: usize = 4096;

/// Run this rank's side of `params.spec`.
pub fn run(env: ProcessEnv, params: &RunParams) -> RankReport {
    match params.spec.name {
        "pp_inproc" | "pp_inproc_threadless" | "pp_udp" => run_as::<PingPong>(env, params),
        "bulk_inproc" | "bulk_udp" => run_as::<Bulk>(env, params),
        "msgrate_inproc" => run_as::<MsgRate>(env, params),
        "halo_inproc" => run_as::<Halo>(env, params),
        other => unreachable!("no workload called {other}"),
    }
}

/// Run `ops` ops back to back, handing each one's time in ns to `sample`.
/// Returns how many failed their checks.
fn run_ops<W: Workload>(
    w: &mut W,
    sp: &mut Spans,
    seq: &mut u64,
    ops: u64,
    mut sample: impl FnMut(u64),
) -> u64 {
    let mut failed = 0;
    for _ in 0..ops {
        let t0 = Instant::now();
        let ok = sp.op(*seq, |sp| w.op(*seq, sp));
        sample(t0.elapsed().as_nanos() as u64);
        failed += !ok as u64;
        *seq += 1;
    }
    failed
}

fn run_as<W: Workload>(env: ProcessEnv, p: &RunParams) -> RankReport {
    let launch = p.launched.elapsed();
    let rank = env.rank().0;
    // The first rank a process hosts reads the process-wide numbers: rank 0
    // on the fabric (one process hosts both), each rank on UDP.
    let reads_process = rank == 0 || p.spec.wire == Wire::Udp;
    let comm = env.comm.clone();
    let mut w = W::setup(&env, Arc::clone(&p.inputs));
    let mut sp = Spans::new(p.traced);
    let mut seq = 0u64;
    let mut report = RankReport {
        rank,
        launch,
        setup: None,
        blocks: Vec::new(),
        p999_us: 0.0,
        max_us: 0.0,
        attempted: 0,
        failed: 0,
        process: None,
        adaptive: (0, 0),
        spans: Vec::new(),
    };

    // Warm-up is the same code as a timed block with nothing kept, except
    // that a failed check still counts.
    let warmup = if rank == 0 {
        send_block_size(&comm, p.spec.block_ops);
        p.spec.block_ops
    } else {
        recv_block_size(&comm)
    };
    let mut failed = run_ops(&mut w, &mut sp, &mut seq, warmup, |_| {});
    sp.clear();

    if rank == 0 {
        report.setup = Some(match p.spawned_at {
            Some(t) => t.elapsed().unwrap_or_default(),
            None => p.launched.elapsed(),
        });
        let mark = ProcessMark::now(&p.obs);
        let mut samples: Vec<u64> = Vec::with_capacity(p.spec.block_ops as usize);
        let mut slowest = Top::new(TAIL_KEPT);
        let mut last = Duration::ZERO;
        loop {
            let ops = p
                .budget
                .next_block(p.spec, report.attempted, mark.at.elapsed(), last);
            send_block_size(&comm, ops);
            if ops == 0 {
                break;
            }
            samples.clear();
            let t_block = Instant::now();
            failed += run_ops(&mut w, &mut sp, &mut seq, ops, |ns| samples.push(ns));
            last = t_block.elapsed();
            report.blocks.push(Block::from_samples(&samples, last));
            report.attempted += ops;
            samples.iter().for_each(|&ns| slowest.push(ns));
        }
        report.process = Some(mark.delta_to_now(&p.obs));
        report.p999_us = slowest.above(0.001) as f64 / 1e3;
        report.max_us = slowest.above(0.0) as f64 / 1e3;
    } else {
        let mark = reads_process.then(|| ProcessMark::now(&p.obs));
        loop {
            let ops = recv_block_size(&comm);
            if ops == 0 {
                break;
            }
            failed += run_ops(&mut w, &mut sp, &mut seq, ops, |_| {});
            report.attempted += ops;
        }
        report.process = mark.map(|m| m.delta_to_now(&p.obs));
    }

    report.adaptive = rig::adaptive_decisions(&env);
    report.failed = failed + w.finish();
    report.spans = sp.recorded().to_vec();
    report
}
