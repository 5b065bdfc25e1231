//! `portals-benchmark`: see `README.md` beside `Cargo.toml`.
//!
//! ```text
//! portals-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! portals-benchmark aa [--runs N]                                   A/A check
//! portals-benchmark spec                                            BENCHMARK.json
//! ```

use portals_benchmark::metrics::{benchmark_json, result_json};
use portals_benchmark::runner::{self, Request};
use portals_benchmark::{aa, child, sys, Args};
use std::process::ExitCode;

fn run(args: &Args) -> Result<(), String> {
    let req = Request {
        spec: child::spec_arg(args)?,
        seed: child::seed_arg(args)?,
        budget: child::budget_arg(args)?,
        trace: args.parsed::<u8>("--trace")?.unwrap_or(0) == 1,
    };
    // Before anything is constructed: every thread and process from here on
    // inherits the one CPU.
    let cpu = sys::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    eprintln!("benchmark: {} on CPU {cpu}", req.spec.name);
    let result = runner::run(&req);
    for (metric, value) in &result.values {
        println!("{:<34} {value:>16.4} {}", metric.name, metric.unit);
    }
    println!(
        "{}",
        result_json(
            result.correct,
            result.attempted,
            result.failed,
            &result.values
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let role = match argv.first().map(String::as_str) {
        Some(r @ ("workload" | "layers" | "aa" | "spec")) => r.to_string(),
        _ => String::new(),
    };
    if !role.is_empty() {
        argv.remove(0);
    }
    let args = Args(argv);
    let done = match role.as_str() {
        "workload" => child::workload(&args),
        "layers" => child::layers(&args),
        "aa" => aa::run(&args),
        "spec" => {
            print!("{}", benchmark_json());
            Ok(())
        }
        _ => run(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
