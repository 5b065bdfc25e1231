//! What a workload process tells the runner, and how the runner reads it.
//!
//! A process prints one `B …` line per fact on its standard output —
//! whitespace-separated fields, because the workspace's `serde_json` stand-in
//! cannot parse — and the runner folds the lines of the workload's one
//! (fabric) or two (UDP) processes into an [`Outcome`].

use crate::driver::RankReport;
use crate::spans::durations_by_name;
use crate::stats::{median, Block};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Duration;

/// The merged result of one run of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Process start to rank 0's first timed op.
    pub setup: Duration,
    /// Launch call to rank 0's first instruction.
    pub launch: Duration,
    /// Rank 0's timed blocks.
    pub blocks: Vec<Block>,
    /// 99.9th percentile over all of rank 0's timed ops, µs.
    pub p999_us: f64,
    /// Rank 0's slowest timed op, µs.
    pub max_us: f64,
    /// Timed ops rank 0 started.
    pub attempted: u64,
    /// Timed ops that failed a check on either rank.
    pub failed: u64,
    /// Wall time of rank 0's timed loop.
    pub wall: Duration,
    /// User-mode CPU time over the timed loop, all processes.
    pub user: Duration,
    /// Kernel CPU time over the timed loop, all processes.
    pub sys: Duration,
    /// Context switches over the timed loop, all processes.
    pub ctx_switches: u64,
    /// Growth of each registry counter over the timed loop, all processes.
    pub counters: BTreeMap<String, u64>,
    /// In-band adaptive-protocol decisions (eager, rendezvous), all ranks.
    pub adaptive: (u64, u64),
    /// Per span name: count and median duration in ns, from the lowest rank
    /// that recorded the name.
    pub spans: BTreeMap<String, (u64, f64)>,
    /// Sum of the processes' peak resident set sizes, KiB.
    pub rss_kib: u64,
}

impl Outcome {
    /// A counter's growth over the timed loop (0 if the series never existed).
    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// A counter's growth per timed op.
    pub fn per_op(&self, name: &str) -> f64 {
        self.count(name) / self.attempted.max(1) as f64
    }

    /// Median duration of the spans called `name`, µs (0 if none ran).
    pub fn span_us(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |(_, p50_ns)| p50_ns / 1e3)
    }
}

/// The lines one process prints: its ranks' reports and its own peak RSS.
pub fn emit(ranks: &[RankReport], rss_kib: u64) -> String {
    let mut out = String::new();
    let ns = |d: Duration| d.as_nanos();
    for r in ranks {
        let _ = writeln!(
            out,
            "B rank {} {} {} {} {} {}",
            r.rank,
            ns(r.launch),
            r.attempted,
            r.failed,
            r.adaptive.0,
            r.adaptive.1
        );
        if let Some(setup) = r.setup {
            let _ = writeln!(out, "B setup {}", ns(setup));
            let _ = writeln!(out, "B tail {} {}", r.p999_us, r.max_us);
        }
        for b in &r.blocks {
            let _ = writeln!(
                out,
                "B block {} {} {} {}",
                b.ops,
                ns(b.elapsed),
                b.p50_us,
                b.p99_us
            );
        }
        if let Some(p) = &r.process {
            let _ = writeln!(
                out,
                "B process {} {} {} {} {}",
                r.rank,
                ns(p.wall),
                ns(p.user),
                ns(p.sys),
                p.ctx_switches
            );
            for (name, delta) in &p.counters {
                let _ = writeln!(out, "B count {name} {delta}");
            }
        }
        for (name, durations) in durations_by_name(&r.spans) {
            let _ = writeln!(
                out,
                "B span {} {name} {} {}",
                r.rank,
                durations.len(),
                median(&durations)
            );
        }
    }
    let _ = writeln!(out, "B rss {rss_kib}");
    out
}

/// Fold the `B` lines of all of a workload's processes into one outcome.
/// Lines that are not `B` lines are ignored; a malformed `B` line is an
/// error, since only the harness writes them.
pub fn parse(text: &str) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut span_rank: BTreeMap<String, u32> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.first() != Some(&"B") {
            continue;
        }
        let bad = || format!("malformed report line: {line}");
        let int = |i: usize| -> Result<u64, String> {
            f.get(i).and_then(|s| s.parse().ok()).ok_or_else(bad)
        };
        let float = |i: usize| -> Result<f64, String> {
            f.get(i).and_then(|s| s.parse().ok()).ok_or_else(bad)
        };
        let dur = |i: usize| int(i).map(Duration::from_nanos);
        match *f.get(1).ok_or_else(bad)? {
            "rank" => {
                if int(2)? == 0 {
                    o.launch = dur(3)?;
                    o.attempted = int(4)?;
                }
                o.failed += int(5)?;
                o.adaptive.0 += int(6)?;
                o.adaptive.1 += int(7)?;
            }
            "setup" => o.setup = dur(2)?,
            "tail" => (o.p999_us, o.max_us) = (float(2)?, float(3)?),
            "block" => o.blocks.push(Block {
                ops: int(2)?,
                elapsed: dur(3)?,
                p50_us: float(4)?,
                p99_us: float(5)?,
            }),
            "process" => {
                if int(2)? == 0 {
                    o.wall = dur(3)?;
                }
                o.user += dur(4)?;
                o.sys += dur(5)?;
                o.ctx_switches += int(6)?;
            }
            "count" => {
                *o.counters
                    .entry(f.get(2).ok_or_else(bad)?.to_string())
                    .or_insert(0) += int(3)?
            }
            "span" => {
                let (rank, name) = (int(2)? as u32, f.get(3).ok_or_else(bad)?.to_string());
                if span_rank.get(&name).is_none_or(|&seen| rank < seen) {
                    span_rank.insert(name.clone(), rank);
                    o.spans.insert(name, (int(4)?, float(5)?));
                }
            }
            "rss" => o.rss_kib += int(2)?,
            _ => return Err(bad()),
        }
    }
    Ok(o)
}

/// What a ladder process measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Each probe's value, by metric name.
    pub values: BTreeMap<String, f64>,
    /// Ops the rungs ran.
    pub attempted: u64,
    /// Ops of the rungs whose answer never came.
    pub failed: u64,
}

/// The `B layer <name> <value>` and `B ladder <attempted> <failed>` lines of
/// a ladder process.
pub fn parse_layers(text: &str) -> Result<Layers, String> {
    let mut layers = Layers::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.first() != Some(&"B") {
            continue;
        }
        let bad = || format!("malformed ladder line: {line}");
        match (f.get(1), f.get(2), f.get(3)) {
            (Some(&"layer"), Some(name), Some(value)) => {
                let value = value.parse().map_err(|_| bad())?;
                layers.values.insert(name.to_string(), value);
            }
            (Some(&"ladder"), Some(attempted), Some(failed)) => {
                layers.attempted = attempted.parse().map_err(|_| bad())?;
                layers.failed = failed.parse().map_err(|_| bad())?;
            }
            _ => return Err(bad()),
        }
    }
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ProcessDelta;
    use crate::spans::Spans;

    fn rank(rank: u32) -> RankReport {
        let mut sp = Spans::new(true);
        sp.op(0, |sp| sp.span("mpi.send", |_| ()));
        RankReport {
            rank,
            launch: Duration::from_micros(700 + rank as u64),
            setup: (rank == 0).then_some(Duration::from_millis(250)),
            blocks: if rank == 0 {
                vec![Block {
                    ops: 10,
                    elapsed: Duration::from_millis(1),
                    p50_us: 99.5,
                    p99_us: 130.25,
                }]
            } else {
                Vec::new()
            },
            p999_us: 140.0,
            max_us: 150.0,
            attempted: 10,
            failed: rank as u64,
            process: Some(ProcessDelta {
                wall: Duration::from_millis(1 + rank as u64),
                user: Duration::from_micros(600),
                sys: Duration::from_micros(300),
                ctx_switches: 40,
                counters: [("transport.acks_sent", 7)].into(),
            }),
            adaptive: (1, 2),
            spans: sp.recorded().to_vec(),
        }
    }

    #[test]
    fn two_processes_fold_into_one_outcome() {
        let text = emit(&[rank(0)], 1000) + "noise\n" + &emit(&[rank(1)], 2000);
        let o = parse(&text).unwrap();
        assert_eq!(o.setup, Duration::from_millis(250));
        assert_eq!(o.launch, Duration::from_micros(700));
        assert_eq!(o.blocks.len(), 1);
        assert_eq!(o.blocks[0].p99_us, 130.25);
        assert_eq!((o.p999_us, o.max_us), (140.0, 150.0));
        assert_eq!((o.attempted, o.failed), (10, 1));
        assert_eq!(o.wall, Duration::from_millis(1));
        assert_eq!(o.user, Duration::from_micros(1200));
        assert_eq!(o.ctx_switches, 80);
        assert_eq!(o.count("transport.acks_sent"), 14.0);
        assert_eq!(o.per_op("transport.acks_sent"), 1.4);
        assert_eq!(o.adaptive, (2, 4));
        assert_eq!(o.spans["mpi.send"].0, 1);
        assert_eq!(o.rss_kib, 3000);
    }

    #[test]
    fn ladder_lines_parse() {
        let layers = parse_layers("B layer net.rtt_p50_us 3.5\nother\nB ladder 90 2\n").unwrap();
        assert_eq!(layers.values["net.rtt_p50_us"], 3.5);
        assert_eq!((layers.attempted, layers.failed), (90, 2));
        assert!(parse_layers("B layer net.rtt_p50_us").is_err());
        assert!(parse_layers("B ladder 90 many").is_err());
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("B block 1 2").is_err());
        assert!(parse("B nonsense 1").is_err());
        assert!(parse("not a report line").unwrap().blocks.is_empty());
    }
}
