//! `aa`: does the benchmark agree with itself?
//!
//! Runs two interleaved sets of N full runs of the current build — A B A B …,
//! each run with another seed and [`RUN_SECONDS`] long, as the gate's runs
//! are — and applies, per workload and end-to-end metric, the two tests the
//! driver applies before it accepts a benchmark. A pair DISAGREEs when set
//! B's median is worse than set A's by more than the metric's bound (for
//! `setup_s`: and by more than [`SETUP_FLOOR_S`]), or when the quartile spread
//! of all 2N values exceeds the bound (`setup_s` is exempt, as it is in the
//! driver). A spread above a third of the bound passes but is marked: a third
//! is the margin the benchmark's contract asks its author to aim for.

use crate::metrics::{Better, END_TO_END, RUN_SECONDS, SETUP_FLOOR_S};
use crate::stats::{median, quartile_spread};
use crate::workloads::SPECS;
use crate::Args;
use std::process::Command;

/// The value of `name` in a result line (`"name": {"value": V, …`).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One full run of `workload`; the end-to-end values, in [`END_TO_END`]
/// order, if the run was correct.
fn one_run(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !line.starts_with("{\"correct\": true, ") {
        return Err(format!(
            "{workload} seed {seed} did not run correctly: {line}"
        ));
    }
    END_TO_END
        .iter()
        .map(|(m, _)| value_in(line, m.name).ok_or(format!("{} missing in {line}", m.name)))
        .collect()
}

/// Run the A/A check; an error if any pair of sets disagrees.
pub fn run(args: &Args) -> Result<(), String> {
    let runs: u64 = args.parsed("--runs")?.unwrap_or(5);
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    println!(
        "{:<22} {:<13} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "bound", "spread"
    );
    let mut disagreements = 0;
    for spec in &SPECS {
        // sets[set][metric] = that set's values of the metric
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..2 * runs {
            let values = one_run(spec.name, i + 1)?;
            for (metric, v) in values.into_iter().enumerate() {
                sets[(i % 2) as usize][metric].push(v);
            }
        }
        for (k, (metric, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][k]), median(&sets[1][k]));
            let worse = match metric.better {
                Better::Lower => b / a - 1.0,
                Better::Higher => a / b - 1.0,
            };
            let all: Vec<f64> = sets[0][k].iter().chain(&sets[1][k]).copied().collect();
            let spread = quartile_spread(&all);
            let setup = metric.name == "setup_s";
            let too_much_worse = worse > *bound && !(setup && b - a <= SETUP_FLOOR_S);
            let too_wide = !setup && spread > *bound;
            let verdict = if too_much_worse || too_wide {
                disagreements += 1;
                "DISAGREE"
            } else if spread > bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<22} {:<13} {a:>12.4} {b:>12.4} {:>+7.2}% {:>6.0}% {:>7.2}%  {verdict}",
                spec.name,
                metric.name,
                worse * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
    }
    match disagreements {
        0 => Ok(()),
        n => Err(format!(
            "{n} metric/workload pairs disagree with themselves"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::result_json;

    #[test]
    fn reads_values_back_from_a_result_line() {
        let values: Vec<_> = END_TO_END
            .iter()
            .zip([0.25, 83.5, 12_000.0, 9.75])
            .map(|((m, _), v)| (*m, v))
            .collect();
        let line = result_json(true, 5, 0, &values);
        assert_eq!(value_in(&line, "setup_s"), Some(0.25));
        assert_eq!(value_in(&line, "ops_per_s"), Some(12_000.0));
        assert_eq!(value_in(&line, "peak_rss_mib"), Some(9.75));
        assert_eq!(value_in(&line, "absent"), None);
    }
}
