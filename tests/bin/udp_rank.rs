//! One participant of a distributed differential run.
//!
//! Configured entirely through the `PORTALS_*` environment (see
//! `portals_runtime::distributed`), plus:
//!
//! * `PORTALS_OUT_DIR` — directory to write each local rank's transcript to
//!   (`rank-<r>.transcript`, raw bytes).
//!
//! Runs the shared [`portals_integration_tests::workload`] script
//! on every hosted rank and prints one status line per rank:
//! `rank <r> bytes <n> retransmissions <k>`.

use portals_integration_tests::workload;
use portals_runtime::{DistributedConfig, Job, JobConfig};
use std::time::Duration;

fn main() {
    let dist =
        DistributedConfig::from_env().expect("udp_rank requires PORTALS_TRANSPORT=udp and friends");
    let out_dir = std::env::var("PORTALS_OUT_DIR").expect("PORTALS_OUT_DIR must be set");

    let mut config = JobConfig::default();
    if dist.loss > 0.0 {
        // Injected loss: a tight retransmission timer keeps the run fast.
        config.transport.rto_base = Duration::from_millis(5);
    }

    // Watchdog: a healthy run finishes in seconds. If we are still going
    // after a minute, something wedged — dump every counter to stderr
    // (inherited by the test harness) so the post-mortem has data, then
    // keep dumping periodically until the run ends or the harness kills us.
    let obs = config.obs.clone();
    let proc_index = dist.proc_index;
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_secs(60));
        eprintln!("=== udp_rank proc {proc_index} still running; counter dump ===");
        for s in obs.registry.snapshot() {
            if let portals_obs::MetricValue::Counter(v) = s.value {
                if v > 0 {
                    eprintln!("  proc {proc_index} {} {:?} = {v}", s.name, s.labels);
                }
            }
        }
    });

    // `PORTALS_WORKLOAD` selects the script: the full multi-protocol run
    // (default) or the one-sided RMA phase alone.
    let script = std::env::var("PORTALS_WORKLOAD").unwrap_or_default();
    let results = Job::launch_distributed(&dist, config, move |env| {
        let transcript = match script.as_str() {
            "rma" => workload::run_rma(&env),
            _ => workload::run(&env),
        };
        let retransmissions = env.node.transport_stats().retransmissions.get();
        (env.rank().0, transcript, retransmissions)
    });

    for (rank, transcript, retransmissions) in results {
        std::fs::write(format!("{out_dir}/rank-{rank}.transcript"), &transcript)
            .expect("write transcript");
        println!(
            "rank {rank} bytes {} retransmissions {retransmissions}",
            transcript.len()
        );
    }
}
