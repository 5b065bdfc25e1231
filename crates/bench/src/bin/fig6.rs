//! Figure 6 regeneration: wait duration vs work interval for MPICH/Portals-
//! style and MPICH/GM-style stacks, 10 × 50 KB messages per batch, plus the
//! "3 test calls during work" variant the paper describes in the text.
//!
//! Prints a human-readable table and, with `--json`, a machine-readable record
//! for EXPERIMENTS.md.
//!
//! Run: `cargo run --release -p portals-bench --bin fig6 [--json] [--quick]`

use portals_mpi::bypass::{calibrate_work, run_point, BypassConfig, BypassPoint};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    work_ms: f64,
    portals_wait_ms: f64,
    gm_wait_ms: f64,
    gm_3tests_wait_ms: f64,
}

#[derive(Serialize)]
struct Report {
    experiment: &'static str,
    msg_size: usize,
    batch: usize,
    repeats: usize,
    rows: Vec<Row>,
    shape_checks: Vec<(String, bool)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");

    let (steps, max_ms, repeats, batch) = if quick {
        (4, 6.0, 7, 6)
    } else {
        (10, 10.0, 5, 10)
    };
    let iters_per_ms = calibrate_work(Duration::from_millis(1));

    let mut rows = Vec::new();
    let mut results: Vec<(BypassPoint, BypassPoint, BypassPoint)> = Vec::new();
    for i in 0..=steps {
        let work_ms = max_ms * i as f64 / steps as f64;
        let iters = (iters_per_ms as f64 * work_ms) as u64;
        let base = BypassConfig {
            repeats,
            batch,
            ..BypassConfig::portals_style(iters)
        };
        let portals = run_point(base);
        let gm = run_point(BypassConfig {
            repeats,
            batch,
            ..BypassConfig::gm_style(iters)
        });
        let gm3 = run_point(BypassConfig {
            repeats,
            batch,
            test_calls_during_work: 3,
            ..BypassConfig::gm_style(iters)
        });
        rows.push(Row {
            work_ms: ms(portals.work),
            portals_wait_ms: ms(portals.wait),
            gm_wait_ms: ms(gm.wait),
            gm_3tests_wait_ms: ms(gm3.wait),
        });
        results.push((portals, gm, gm3));
    }

    // Shape checks against the paper's Figure 6 claims.
    let first = &results[0];
    let last = &results[results.len() - 1];
    let checks = vec![
        (
            "portals residual wait collapses with enough work (>=75% drop)".to_string(),
            last.0.wait.as_secs_f64() < 0.25 * first.0.wait.as_secs_f64(),
        ),
        (
            "gm-style residual wait stays flat (within 2x of idle)".to_string(),
            last.1.wait.as_secs_f64() > 0.5 * first.1.wait.as_secs_f64()
                && last.1.wait.as_secs_f64() < 2.0 * first.1.wait.as_secs_f64(),
        ),
        (
            "gm with 3 test calls beats gm without".to_string(),
            last.2.wait < last.1.wait,
        ),
        (
            "portals beats gm-style at the largest work interval".to_string(),
            last.0.wait < last.1.wait,
        ),
    ];

    if json {
        let report = Report {
            experiment: "figure6_application_bypass",
            msg_size: 50 * 1024,
            batch,
            repeats,
            rows,
            shape_checks: checks,
        };
        println!("{}", serde_json::to_string_pretty(&report).unwrap());
        return;
    }

    println!("Figure 6 — wait duration vs work interval (50 KB x {batch} messages)\n");
    println!(
        "{:>10} {:>18} {:>14} {:>20}",
        "work(ms)", "portals wait(ms)", "gm wait(ms)", "gm+3tests wait(ms)"
    );
    for r in &rows {
        println!(
            "{:>10.2} {:>18.3} {:>14.3} {:>20.3}",
            r.work_ms, r.portals_wait_ms, r.gm_wait_ms, r.gm_3tests_wait_ms
        );
    }
    println!();
    let mut all_ok = true;
    for (name, ok) in &checks {
        println!("[{}] {}", if *ok { "PASS" } else { "FAIL" }, name);
        all_ok &= ok;
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
