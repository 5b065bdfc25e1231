//! Distributed-vs-local differential: real OS processes over loopback UDP
//! must produce byte-identical application transcripts to the in-process
//! simulated fabric, including under injected datagram loss.
//!
//! Each case starts an in-process rendezvous server, spawns `udp_rank`
//! helper processes (one per node, each hosting `procs_per_node` ranks),
//! collects every rank's transcript from disk, runs the identical workload
//! through `Job::launch`, and compares.

use portals_integration_tests::workload;
use portals_netudp::RendezvousServer;
use portals_runtime::{Job, JobConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

struct DistRun {
    /// rank -> transcript bytes, collected from every process.
    transcripts: HashMap<u32, Vec<u8>>,
    /// Sum of `transport.retransmissions` across processes.
    retransmissions: u64,
}

/// Launch `nprocs` helper processes × `procs_per_node` ranks over loopback
/// UDP and harvest their transcripts. `script` selects the workload the
/// helper runs: "full" (every protocol phase) or "rma" (the one-sided phase
/// alone); `mtu` pins `PORTALS_UDP_MTU` for the job, `None` leaves the
/// default.
fn run_distributed_script(
    nprocs: u32,
    procs_per_node: usize,
    loss: f64,
    job: &str,
    mtu: Option<usize>,
    script: &str,
) -> DistRun {
    let server = RendezvousServer::bind("127.0.0.1:0").expect("bind rendezvous");
    let out_dir = std::env::temp_dir().join(format!("portals-dist-{job}-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).expect("out dir");

    let children: Vec<Child> = (0..nprocs)
        .map(|k| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_udp_rank"));
            cmd.env("PORTALS_TRANSPORT", "udp")
                .env("PORTALS_RENDEZVOUS", server.local_addr().to_string())
                .env("PORTALS_JOB_ID", job)
                .env("PORTALS_PROC_INDEX", k.to_string())
                .env("PORTALS_NPROCS", nprocs.to_string())
                .env("PORTALS_PROCS_PER_NODE", procs_per_node.to_string())
                .env("PORTALS_UDP_LOSS", loss.to_string())
                .env("PORTALS_UDP_SEED", "12345")
                .env("PORTALS_TIMEOUT_SECS", "120")
                .env("PORTALS_OUT_DIR", &out_dir)
                .env("PORTALS_WORKLOAD", script)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::inherit());
            if let Some(mtu) = mtu {
                cmd.env("PORTALS_UDP_MTU", mtu.to_string());
            }
            cmd.spawn().expect("spawn udp_rank")
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(180);
    let mut retransmissions = 0u64;
    for out in wait_all_with_deadline(children, deadline) {
        for line in String::from_utf8_lossy(&out).lines() {
            // "rank <r> bytes <n> retransmissions <k>"
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.first() == Some(&"rank") && fields.len() == 6 {
                retransmissions += fields[5].parse::<u64>().unwrap_or(0);
            }
        }
    }

    let world = nprocs as usize * procs_per_node;
    let mut transcripts = HashMap::new();
    for r in 0..world as u32 {
        let path: PathBuf = out_dir.join(format!("rank-{r}.transcript"));
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing transcript for rank {r}: {e}"));
        transcripts.insert(r, bytes);
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    DistRun {
        transcripts,
        retransmissions,
    }
}

/// Kills every remaining child on drop, so one failed or hung process can
/// never leak a still-running sibling into the next test (a leaked rank
/// keeps retransmitting toward its dead peer and steals the whole CPU
/// budget from later runs).
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Wait for every child, in any completion order, under one shared deadline.
/// Panics (reaping all children) if any child fails or the deadline passes.
fn wait_all_with_deadline(children: Vec<Child>, deadline: Instant) -> Vec<Vec<u8>> {
    let mut guard = Reaper(children);
    let mut outs: Vec<Option<Vec<u8>>> = guard.0.iter().map(|_| None).collect();
    loop {
        let mut progressed = false;
        for (k, child) in guard.0.iter_mut().enumerate() {
            if outs[k].is_some() {
                continue;
            }
            if let Some(status) = child.try_wait().expect("try_wait") {
                let mut out = Vec::new();
                if let Some(mut stdout) = child.stdout.take() {
                    use std::io::Read;
                    let _ = stdout.read_to_end(&mut out);
                }
                assert!(
                    status.success(),
                    "process {k} failed ({status}); stdout: {}",
                    String::from_utf8_lossy(&out)
                );
                outs[k] = Some(out);
                progressed = true;
            }
        }
        if outs.iter().all(|o| o.is_some()) {
            guard.0.clear(); // all reaped cleanly; nothing to kill
            return outs.into_iter().map(Option::unwrap).collect();
        }
        if !progressed {
            if Instant::now() > deadline {
                let waiting: Vec<usize> = outs
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_none())
                    .map(|(k, _)| k)
                    .collect();
                panic!("processes {waiting:?} hit the deadline");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn run_distributed(
    nprocs: u32,
    procs_per_node: usize,
    loss: f64,
    job: &str,
    mtu: Option<usize>,
) -> DistRun {
    run_distributed_script(nprocs, procs_per_node, loss, job, mtu, "full")
}

/// The same workload through the in-process launcher: rank -> transcript.
fn run_local(world: usize, procs_per_node: usize) -> HashMap<u32, Vec<u8>> {
    let config = JobConfig {
        procs_per_node,
        ..Default::default()
    };
    let results = Job::launch(world, config, |env| (env.rank().0, workload::run(&env)));
    results.into_iter().collect()
}

/// The RMA-only workload through the in-process launcher.
fn run_local_rma(world: usize, procs_per_node: usize) -> HashMap<u32, Vec<u8>> {
    let config = JobConfig {
        procs_per_node,
        ..Default::default()
    };
    let results = Job::launch(world, config, |env| (env.rank().0, workload::run_rma(&env)));
    results.into_iter().collect()
}

fn assert_identical(world: usize, dist: &DistRun, local: &HashMap<u32, Vec<u8>>) {
    for r in 0..world as u32 {
        let d = &dist.transcripts[&r];
        let l = &local[&r];
        assert_eq!(
            d.len(),
            l.len(),
            "rank {r}: transcript lengths differ (udp {} vs local {})",
            d.len(),
            l.len()
        );
        assert_eq!(d, l, "rank {r}: transcripts differ");
    }
}

#[test]
fn two_processes_match_in_process_launch() {
    let dist = run_distributed(2, 1, 0.0, "diff2x1", None);
    let local = run_local(2, 1);
    assert_identical(2, &dist, &local);
}

#[test]
fn two_processes_two_ranks_each_match_in_process_launch() {
    // 2 OS processes × 2 ranks: same-node traffic stays in the node, ring
    // neighbours cross the real wire.
    let dist = run_distributed(2, 2, 0.0, "diff2x2", None);
    let local = run_local(4, 2);
    assert_identical(4, &dist, &local);
}

#[test]
fn lossy_udp_still_matches_and_actually_retransmitted() {
    // 10% seeded send-side datagram loss on every link: the go-back-N
    // machinery must recover over the real wire and the application bytes
    // must still be identical to the lossless in-process run.
    let dist = run_distributed(2, 1, 0.10, "diffloss", None);
    let local = run_local(2, 1);
    assert_identical(2, &dist, &local);
    assert!(
        dist.retransmissions > 0,
        "10% loss must force retransmissions (got none — loss shim inert?)"
    );
}

#[test]
fn rma_two_ranks_match_in_process_launch() {
    // The one-sided phase alone: halo puts, contended engine-side atomics,
    // CAS, and a notified put over real loopback UDP must reproduce the
    // in-process transcripts byte for byte.
    let dist = run_distributed_script(2, 1, 0.0, "rma2x1", None, "rma");
    let local = run_local_rma(2, 1);
    assert_identical(2, &dist, &local);
}

#[test]
fn rma_four_ranks_match_in_process_launch() {
    // 2 OS processes × 2 ranks: the contended counter takes accumulates both
    // from the wire and from node-local ranks; serialization under the
    // target's portal lock must make the interleavings invisible.
    let dist = run_distributed_script(2, 2, 0.0, "rma2x2", None, "rma");
    let local = run_local_rma(4, 2);
    assert_identical(4, &dist, &local);
}

#[test]
fn rma_lossy_udp_matches_and_retransmits() {
    // 10% seeded datagram loss under the atomic traffic: retransmitted
    // atomic requests must not double-apply (go-back-N replays are filtered
    // below the engine), and the transcripts must still match.
    let dist = run_distributed_script(2, 1, 0.10, "rmaloss", None, "rma");
    let local = run_local_rma(2, 1);
    assert_identical(2, &dist, &local);
    assert!(
        dist.retransmissions > 0,
        "10% loss must force retransmissions under RMA traffic"
    );
}

#[test]
fn jumbo_mtu_negotiated_run_matches_local() {
    // Jumbo loopback datagrams (~64 KiB, negotiated job-wide through the
    // rendezvous MTU exchange) change the fragmentation completely but must
    // not change a single application byte.
    let dist = run_distributed(2, 1, 0.0, "diffjumbo", Some(65489));
    let local = run_local(2, 1);
    assert_identical(2, &dist, &local);
}
