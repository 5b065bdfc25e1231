//! The roles a process started by the runner plays: one workload's rank or
//! ranks, or the probes of the ladder under it.

use crate::driver::{self, Budget, RunParams};
use crate::inputs::Inputs;
use crate::rig::{self, Obs};
use crate::spans::write_jsonl;
use crate::sys::Usage;
use crate::workloads::{self, Spec};
use crate::{ladder, report, Args};
use std::io::BufWriter;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Where traced runs leave their spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Events the trace ring holds when a run asks for `Obs::with_ring`.
const RING_EVENTS: usize = 1 << 16;

/// The workload named by `--workload`, or a usage error.
pub fn spec_arg(args: &Args) -> Result<&'static Spec, String> {
    let name = args.required("--workload")?;
    workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", known.join(", "))
    })
}

/// `--seed N` (default 1).
pub fn seed_arg(args: &Args) -> Result<u64, String> {
    Ok(args.parsed("--seed")?.unwrap_or(1))
}

/// `--seconds S`, or `--ops N` for runs of an exact length.
pub fn budget_arg(args: &Args) -> Result<Budget, String> {
    match args.parsed::<u64>("--ops")? {
        Some(ops) => Ok(Budget::Ops(ops)),
        None => {
            let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} is out of range"));
            }
            Ok(Budget::Time(Duration::from_secs_f64(seconds)))
        }
    }
}

/// Host this process's rank or ranks of a workload and print their reports.
pub fn workload(args: &Args) -> Result<(), String> {
    let spec = spec_arg(args)?;
    let traced = args.parsed::<u8>("--trace")? == Some(1);
    let obs = if args.flag("--obs-ring") {
        Obs::with_ring(RING_EVENTS).0
    } else {
        Obs::default()
    };
    let params = RunParams {
        spec,
        budget: budget_arg(args)?,
        inputs: Arc::new(Inputs::generate(seed_arg(args)?)),
        traced,
        obs: obs.clone(),
        launched: Instant::now(),
        spawned_at: args
            .parsed::<u64>("--spawned-at-ns")?
            .map(|ns| SystemTime::UNIX_EPOCH + Duration::from_nanos(ns)),
    };
    let cfg = rig::job_config(spec.threadless, obs);
    let ranks = rig::launch(spec.wire, cfg, move |env| driver::run(env, &params));
    print!("{}", report::emit(&ranks, Usage::now().peak_rss_kib));
    if traced {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        for r in &ranks {
            let path = format!("{TRACE_DIR}/trace-{}-rank{}.jsonl", spec.name, r.rank);
            std::fs::File::create(&path)
                .and_then(|f| write_jsonl(&mut BufWriter::new(f), r.rank, &r.spans))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

/// Run the probes under `--workload` and print one line per probe.
pub fn layers(args: &Args) -> Result<(), String> {
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
    let (values, tally) = ladder::run(spec_arg(args)?.name, seed_arg(args)?, seconds);
    for (name, value) in values {
        println!("B layer {name} {value}");
    }
    println!("B ladder {} {}", tally.attempted, tally.failed);
    Ok(())
}
