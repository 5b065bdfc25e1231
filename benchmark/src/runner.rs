//! The runner: pins itself, starts each workload in fresh processes, bounds
//! them with a watchdog, and turns their reports into the metrics.

use crate::driver::Budget;
use crate::ladder;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::report::{self, Layers, Outcome};
use crate::rig::{RendezvousServer, Wire};
use crate::stats::{self, Block};
use crate::workloads::Spec;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime};

/// Times a workload is launched per untraced run; `setup_s` is the 5th
/// percentile of their set-up times (the second fastest).
const SETUP_REPS: usize = 15;
/// How many of those launches go on to measure, each for a fifth of the
/// budget. Their blocks are pooled, and `peak_rss_mib` is the least of their
/// peaks: `msgrate_inproc` peaks at 21.0 MiB in three launches of four and at
/// 24.9 MiB in the fourth (which launch is a matter of timing, not of seed),
/// so one launch's peak gave a quartile spread of 18% over ten runs of
/// unchanged code. The least of five is what the workload needs when nothing
/// perturbs it, as the block estimators are what it takes.
const MEASURING: usize = 5;
/// How long a process may take beyond its budget before it is presumed
/// wedged: set-up, warm-up and teardown of the slowest workload are about a
/// second, so thirty is generous and still ends a run well inside the
/// driver's 180 s.
const GRACE: Duration = Duration::from_secs(30);

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`, or `--ops` for the smoke tests.
    pub budget: Budget,
    /// `--trace 1`: report the per-layer metrics.
    pub trace: bool,
}

/// How one child process of the runner is started.
struct ChildRun<'a> {
    /// `workload` or `layers`.
    role: &'a str,
    /// Arguments after the role.
    args: Vec<String>,
    /// The two-process UDP launch, or a single process.
    wire: Wire,
    /// The budget the watchdog allows for, on top of [`GRACE`].
    expected: Duration,
}

/// Why a run produced no outcome.
#[derive(Debug)]
pub enum Failure {
    /// The watchdog fired: the transport never gives up on a peer, so a lost
    /// message would otherwise hang the run — and the pipeline — for ever.
    TimedOut(Duration),
    /// A process exited with a failure status (a panic in a rank).
    Crashed(String),
    /// The harness itself could not start or read a process.
    Harness(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::TimedOut(after) => write!(f, "watchdog: killed after {after:.0?}"),
            Failure::Crashed(what) => write!(f, "a workload process failed: {what}"),
            Failure::Harness(what) => write!(f, "harness error: {what}"),
        }
    }
}

/// Start the process or processes of `run`, wait for them under the
/// watchdog, and return everything they printed.
fn run_children(run: &ChildRun) -> Result<String, Failure> {
    let harness = |e: std::io::Error| Failure::Harness(e.to_string());
    let exe = std::env::current_exe().map_err(harness)?;
    // The rendezvous server lives in the runner, as a launcher's would.
    let server = match run.wire {
        Wire::Udp => Some(RendezvousServer::bind("127.0.0.1:0").map_err(harness)?),
        Wire::Fabric => None,
    };
    let spawned_at = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .expect("the clock is past 1970")
        .as_nanos();
    let nprocs = if server.is_some() { 2 } else { 1 };
    let mut children: Vec<Child> = Vec::new();
    let (done_tx, done_rx) = mpsc::channel();
    for index in 0..nprocs {
        let mut cmd = Command::new(&exe);
        cmd.arg(run.role)
            .args(&run.args)
            .args(["--spawned-at-ns", &spawned_at.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // Default configuration only: the stack reads its knobs from
        // `PORTALS_*` variables, so none the caller's shell or a CI matrix
        // exported may reach it. Only the launch variables are set below.
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("PORTALS_") {
                cmd.env_remove(name);
            }
        }
        if let Some(server) = &server {
            cmd.env("PORTALS_TRANSPORT", "udp")
                .env("PORTALS_RENDEZVOUS", server.local_addr().to_string())
                .env("PORTALS_JOB_ID", format!("bench-{}", std::process::id()))
                .env("PORTALS_PROC_INDEX", index.to_string())
                .env("PORTALS_NPROCS", nprocs.to_string());
        }
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                reap(&mut children, true);
                return Err(harness(e));
            }
        };
        // One reader per process, blocked on the pipe until the process
        // exits: the runner shares the workload's CPU, so it must not poll.
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let done = done_tx.clone();
        std::thread::spawn(move || {
            let mut text = String::new();
            let read = stdout.read_to_string(&mut text).map(|_| text);
            let _ = done.send(read);
        });
        children.push(child);
    }
    drop(done_tx);

    let deadline = Instant::now() + 4 * run.expected + GRACE;
    let mut text = String::new();
    for _ in 0..nprocs {
        let left = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(left) {
            Ok(Ok(part)) => {
                text.push_str(&part);
                // A rank that died leaves its peer waiting for ever: do not
                // sit out the watchdog for it.
                if let Some(status) = first_failure(&mut children) {
                    reap(&mut children, true);
                    return Err(Failure::Crashed(status));
                }
            }
            Ok(Err(e)) => {
                reap(&mut children, true);
                return Err(harness(e));
            }
            Err(_) => {
                reap(&mut children, true);
                return Err(Failure::TimedOut(4 * run.expected + GRACE));
            }
        }
    }
    match reap(&mut children, false) {
        Some(status) => Err(Failure::Crashed(status)),
        None => Ok(text),
    }
}

/// The failure status of a child that has already exited, if there is one.
fn first_failure(children: &mut [Child]) -> Option<String> {
    children
        .iter_mut()
        .find_map(|child| match child.try_wait() {
            Ok(Some(status)) if !status.success() => Some(status.to_string()),
            _ => None,
        })
}

/// Wait for every child (killing them first if asked to); returns the first
/// failure status seen.
fn reap(children: &mut Vec<Child>, kill: bool) -> Option<String> {
    let mut failed = None;
    for child in children.iter_mut() {
        if kill {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failed = failed.or(Some(status.to_string())),
            Err(e) => failed = failed.or(Some(e.to_string())),
        }
    }
    children.clear();
    failed
}

/// Run `spec` once in fresh processes.
fn run_workload(
    spec: &'static Spec,
    seed: u64,
    budget: Budget,
    traced: bool,
    ring: bool,
) -> Result<Outcome, Failure> {
    let (flag, amount, expected) = match budget {
        Budget::Time(d) => ("--seconds", d.as_secs_f64().to_string(), d),
        // The smoke tests' budget: a few hundred ops take seconds at most.
        Budget::Ops(n) => ("--ops", n.to_string(), Duration::from_secs(5)),
    };
    let mut args = vec![
        "--workload".to_string(),
        spec.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        flag.to_string(),
        amount,
        "--trace".to_string(),
        (traced as u8).to_string(),
    ];
    if ring {
        args.push("--obs-ring".to_string());
    }
    let text = run_children(&ChildRun {
        role: "workload",
        args,
        wire: spec.wire,
        expected,
    })?;
    report::parse(&text).map_err(Failure::Harness)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything a traced pass measured.
struct TracedPass {
    /// The workload, spans off.
    plain: Outcome,
    /// The workload, spans on.
    traced: Outcome,
    /// The ladder probes under the workload, if it has any.
    layers: Layers,
    /// The workload with a trace ring in `Obs` (`pp_inproc` only).
    ring: Option<Outcome>,
}

/// The per-layer metrics, in [`PER_LAYER`] order. A probe or span that does
/// not belong to the workload reads 0.
fn per_layer(spec: &Spec, t: &TracedPass) -> Vec<(Metric, f64)> {
    let o = &t.plain;
    let probe = |name: &str| t.layers.values.get(name).copied();
    // A rung minus the rung below it, where both were measured.
    let above =
        |upper: Option<f64>, lower: &str| upper.zip(probe(lower)).map_or(0.0, |(u, l)| u - l);
    let p50 = |o: &Outcome| stats::op_p50_us(&o.blocks);
    let mib_moved = o.count("net.udp.bytes_sent") / (1024.0 * 1024.0);
    let cpu = o.user + o.sys;
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();

    // Ladder probes: the ones this pass ran, 0 for those of other workloads.
    for name in ladder::PROBES.iter().flat_map(|(_, names)| names.iter()) {
        v.insert(name, probe(name).unwrap_or(0.0));
    }
    // A layer's own cost: its rung minus the rung below. The MPI rung is
    // the workload itself.
    v.insert(
        "transport.self_rtt_us",
        above(probe("transport.rtt_p50_us"), "net.rtt_p50_us"),
    );
    v.insert(
        "transport.udp_self_rtt_us",
        above(probe("transport.udp_rtt_p50_us"), "netudp.rtt_p50_us"),
    );
    v.insert(
        "portals.self_rtt_us",
        above(probe("portals.rtt_p50_us"), "transport.rtt_p50_us"),
    );
    v.insert("mpi.self_rtt_us", above(Some(p50(o)), "portals.rtt_p50_us"));
    v.insert(
        "mpi.udp_self_rtt_us",
        above(Some(p50(o)), "portals.udp_rtt_p50_us"),
    );
    let mib_s = stats::ops_per_s(&o.blocks) * spec.op_bytes as f64 / (1024.0 * 1024.0);
    v.insert(
        "mpi.vs_portals_put_ratio",
        probe("portals.put_mib_s").map_or(0.0, |put| ratio(mib_s, put)),
    );
    // Launch call to rank 0's first instruction: `Job::launch` on the
    // fabric, `launch_distributed` (bind, two rendezvous rounds) on UDP.
    let on = |wire: Wire| {
        if spec.wire == wire {
            o.launch.as_secs_f64()
        } else {
            0.0
        }
    };
    v.insert("runtime.launch_s", on(Wire::Fabric));
    v.insert("runtime.rendezvous_s", on(Wire::Udp));
    v.insert(
        "obs.ring_overhead_pct",
        t.ring
            .as_ref()
            .map_or(0.0, |ring| 100.0 * (ratio(p50(ring), p50(o)) - 1.0)),
    );
    v.insert(
        "obs.span_overhead_pct",
        100.0 * (ratio(p50(&t.traced), p50(o)) - 1.0),
    );

    // Counts over the untraced timed loop.
    v.insert("net.packets_per_op", o.per_op("fabric.packets_sent"));
    let syscalls = o.count("net.udp.batches_sent") + o.count("net.udp.batches_recv");
    v.insert("netudp.syscalls_per_mib", ratio(syscalls, mib_moved));
    v.insert(
        "netudp.avg_send_batch",
        ratio(
            o.count("net.udp.datagrams_sent"),
            o.count("net.udp.batches_sent"),
        ),
    );
    v.insert(
        "netudp.avg_recv_batch",
        ratio(
            o.count("net.udp.datagrams_received"),
            o.count("net.udp.batches_recv"),
        ),
    );
    v.insert(
        "netudp.frame_overhead_ratio",
        ratio(
            o.count("net.udp.frame_bytes_sent"),
            o.count("net.udp.bytes_sent"),
        ),
    );
    v.insert(
        "netudp.wouldblock_retries",
        o.count("net.udp.wouldblock_retries"),
    );
    v.insert("netudp.send_errors", o.count("net.udp.send_errors"));
    v.insert(
        "netudp.checksum_rejects",
        o.count("net.udp.checksum_rejects") + o.count("transport.checksum_rejects"),
    );
    v.insert(
        "transport.data_packets_per_op",
        o.per_op("transport.data_packets_sent"),
    );
    v.insert("transport.acks_per_op", o.per_op("transport.acks_sent"));
    v.insert(
        "transport.acks_coalesced_ratio",
        ratio(
            o.count("transport.acks_coalesced"),
            o.count("transport.acks_coalesced") + o.count("transport.acks_sent"),
        ),
    );
    v.insert(
        "transport.retransmit_ratio",
        ratio(
            o.count("transport.retransmissions"),
            o.count("transport.data_packets_sent"),
        ),
    );
    v.insert(
        "transport.ooo_buffered_per_op",
        o.per_op("transport.ooo_buffered"),
    );
    v.insert("transport.credit_stalls", o.count("flow.credit_stalls"));
    v.insert(
        "transport.peers_stalled",
        o.count("transport.peers_stalled"),
    );
    v.insert(
        "portals.copies_per_message",
        ratio(
            o.count("portals.payload_copies"),
            o.count("portals.payload_messages"),
        ),
    );
    v.insert(
        "portals.dropped_total",
        o.count("portals.dropped")
            + o.count("portals.node_dropped_no_process")
            + o.count("portals.node_dropped_garbage"),
    );
    v.insert(
        "portals.events_overwritten",
        o.count("portals.events_overwritten"),
    );
    v.insert(
        "portals.triggered_fired_per_op",
        o.per_op("portals.triggered_fired"),
    );
    let ops = o.attempted.max(1) as f64;
    v.insert("mpi.eager_decisions_per_op", o.adaptive.0 as f64 / ops);
    v.insert("mpi.rdvz_decisions_per_op", o.adaptive.1 as f64 / ops);
    v.insert(
        "mpi.region_pool_hit_ratio",
        ratio(
            o.count("mpi.regions_pooled"),
            o.count("mpi.regions_pooled") + o.count("mpi.regions_allocated"),
        ),
    );

    // Spans of the traced run: median duration of each call.
    for (metric, span) in [
        ("mpi.send_us", "mpi.send"),
        ("mpi.recv_us", "mpi.recv"),
        ("mpi.isend_us", "mpi.isend"),
        ("mpi.irecv_post_us", "mpi.irecv_post"),
        ("mpi.wait_us", "mpi.wait"),
        ("mpi.expected_burst_us", "mpi.expected_burst"),
        ("mpi.unexpected_burst_us", "mpi.unexpected_burst"),
        ("mpi.osc.put_us", "mpi.osc.put"),
        ("mpi.osc.sync_us", "mpi.osc.sync"),
        ("mpi.osc.fetch_add_us", "mpi.osc.fetch_add"),
        ("runtime.allreduce_us", "runtime.allreduce"),
    ] {
        v.insert(metric, t.traced.span_us(span));
    }

    // The processes as the kernel saw them, over the untraced timed loop.
    v.insert("proc.ctx_switches_per_op", o.ctx_switches as f64 / ops);
    v.insert(
        "proc.sys_cpu_share",
        ratio(o.sys.as_secs_f64(), cpu.as_secs_f64()),
    );
    v.insert("proc.cpu_us_per_op", cpu.as_secs_f64() * 1e6 / ops);
    // Everything shares one CPU, so wall time not spent on it was spent
    // waiting: on a timer (RTO, a park cap) or for another tenant.
    v.insert(
        "proc.idle_share",
        (1.0 - ratio(cpu.as_secs_f64(), o.wall.as_secs_f64())).max(0.0),
    );
    v.insert("tail.op_p99_us", stats::op_p99_us(&o.blocks));
    v.insert("tail.op_p999_us", o.p999_us);
    v.insert("tail.op_max_us", o.max_us);

    PER_LAYER
        .iter()
        .map(|m| {
            (
                *m,
                *v.get(m.name)
                    .unwrap_or_else(|| panic!("{} was never computed", m.name)),
            )
        })
        .collect()
}

/// One traced pass: the workload with spans off and on, then the ladder
/// probes under it and, on `pp_inproc`, the trace-ring rerun. The budget is
/// split so the pass takes about as long as an untraced run.
fn traced_pass(req: &Request) -> Result<TracedPass, Failure> {
    let probes = ladder::probes(req.spec.name);
    // ROADMAP item 5's budget for `Obs::with_ring` is stated on ping-pong.
    let ring = req.spec.name == "pp_inproc";
    let (workload_share, ladder_share, ring_share) = match (probes.is_empty(), ring) {
        (true, _) => (0.5, 0.0, 0.0),
        (false, false) => (0.3, 0.4, 0.0),
        (false, true) => (0.25, 0.35, 0.15),
    };
    let share = |part: f64| match req.budget {
        Budget::Time(d) => Budget::Time(d.mul_f64(part)),
        ops => ops,
    };
    let workload = |part: f64, traced: bool, ring: bool| {
        run_workload(req.spec, req.seed, share(part), traced, ring)
    };
    let ladder_seconds = match req.budget {
        Budget::Time(d) => d.as_secs_f64() * ladder_share,
        // The smoke tests' budget: every probe runs, briefly.
        Budget::Ops(_) => 0.25 * probes.len() as f64,
    };
    let layers = if probes.is_empty() {
        Layers::default()
    } else {
        let text = run_children(&ChildRun {
            role: "layers",
            args: [
                "--workload",
                req.spec.name,
                "--seed",
                &req.seed.to_string(),
                "--seconds",
                &ladder_seconds.to_string(),
            ]
            .map(String::from)
            .into(),
            wire: Wire::Fabric,
            expected: Duration::from_secs_f64(ladder_seconds),
        })?;
        report::parse_layers(&text).map_err(Failure::Harness)?
    };
    Ok(TracedPass {
        plain: workload(workload_share, false, false)?,
        traced: workload(workload_share, true, false)?,
        layers,
        ring: ring
            .then(|| workload(ring_share, false, true))
            .transpose()?,
    })
}

/// What a run reports on its last line.
pub struct RunResult {
    /// Every output was checked and none failed.
    pub correct: bool,
    /// Timed ops started.
    pub attempted: u64,
    /// Timed ops that failed, or never finished.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub values: Vec<(Metric, f64)>,
}

impl RunResult {
    /// The result of launches that all reported.
    fn measured(attempted: u64, failed: u64, values: Vec<(Metric, f64)>) -> RunResult {
        RunResult {
            correct: failed == 0 && attempted > 0,
            attempted: attempted.max(1),
            failed: failed.min(attempted.max(1)),
            values,
        }
    }
}

/// An untraced run: the end-to-end metrics, from [`SETUP_REPS`] launches of
/// which the last [`MEASURING`] share the budget.
fn untraced_run(req: &Request) -> Result<RunResult, Failure> {
    let each = match req.budget {
        Budget::Time(d) => Budget::Time(d / MEASURING as u32),
        Budget::Ops(n) => Budget::Ops(n / MEASURING as u64),
    };
    let mut launches = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        // The first launches stop after warm-up: set-up probes.
        let budget = if i + MEASURING < SETUP_REPS {
            Budget::Ops(0)
        } else {
            each
        };
        launches.push(run_workload(req.spec, req.seed, budget, false, false)?);
    }
    let setups: Vec<f64> = launches.iter().map(|o| o.setup.as_secs_f64()).collect();
    let measuring = &launches[SETUP_REPS - MEASURING..];
    let blocks: Vec<Block> = measuring.iter().flat_map(|o| o.blocks.clone()).collect();
    let rss_kib = measuring.iter().map(|o| o.rss_kib).min().unwrap_or(0);
    let values = [
        stats::quiet(setups),
        stats::op_p50_us(&blocks),
        stats::ops_per_s(&blocks),
        rss_kib as f64 / 1024.0,
    ];
    Ok(RunResult::measured(
        measuring.iter().map(|o| o.attempted).sum(),
        launches.iter().map(|o| o.failed).sum(),
        END_TO_END.iter().map(|(m, _)| *m).zip(values).collect(),
    ))
}

/// A traced run: the per-layer metrics.
fn traced_run(req: &Request) -> Result<RunResult, Failure> {
    let t = traced_pass(req)?;
    // Every op behind a reported number counts: a lost datagram on a rung
    // makes the pass incorrect just as a failed check in the workload does.
    let ring = t.ring.as_ref();
    let attempted = t.plain.attempted
        + t.traced.attempted
        + t.layers.attempted
        + ring.map_or(0, |o| o.attempted);
    let failed = t.plain.failed + t.traced.failed + t.layers.failed + ring.map_or(0, |o| o.failed);
    Ok(RunResult::measured(
        attempted,
        failed,
        per_layer(req.spec, &t),
    ))
}

/// Run one workload as the command line asked.
pub fn run(req: &Request) -> RunResult {
    let measured = if req.trace {
        traced_run(req)
    } else {
        untraced_run(req)
    };
    measured.unwrap_or_else(|why| {
        // Fail loudly, and still print every metric name: the block in
        // flight when the run died counts as attempted and failed.
        eprintln!("benchmark: {} failed: {why}", req.spec.name);
        let names: Vec<Metric> = if req.trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(m, _)| *m).collect()
        };
        RunResult {
            correct: false,
            attempted: req.spec.block_ops,
            failed: req.spec.block_ops,
            values: names.into_iter().map(|m| (m, 0.0)).collect(),
        }
    })
}
