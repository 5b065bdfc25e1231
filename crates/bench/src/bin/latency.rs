//! §3 latency ablation: who drives progress, and what does it cost?
//!
//! Measures small-message ping-pong half-RTT through the full Portals stack
//! under three progress regimes:
//!
//! * `host_driven` — GM-style baseline: arriving messages queue raw and are
//!   processed only inside API calls ([`ProgressModel::HostDriven`]), with
//!   the node's NIC thread running the transport.
//! * `nic_thread` — application bypass with the node's NIC thread: the
//!   thread that takes a datagram off the wire runs the receive rules on it,
//!   so every message crosses one thread handoff (NIC thread → waiting
//!   caller); submission is inline.
//! * `threadless` — application bypass with caller-driven progress
//!   ([`ProgressMode::CallerDriven`]): the blocked caller itself steps the
//!   transport, pumps the wire and runs the engine inline. No queue hop, no
//!   handoff; park/unpark only after a bounded spin.
//!
//! A fourth set of rows, `udp_loopback`, runs the identical ping-pong rig
//! against a second OS process (`--udp-echo`, self-spawned) over real
//! loopback UDP sockets — the cost of the kernel socket stack and a true
//! process boundary next to the in-process fabric numbers.
//!
//! Prints a table and writes a machine-readable `BENCH_latency.json`.
//!
//! Run: `cargo run --release -p portals-bench --bin latency [--quick] [--out PATH]`

use portals::{MdSpec, MePos, NiConfig, Node, NodeConfig, ProgressMode, ProgressModel, Region};
use portals_net::{Fabric, FabricConfig};
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::TransportConfig;
use portals_types::{MatchCriteria, NodeId, ProcessId};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    HostDriven,
    NicThread,
    Threadless,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::HostDriven => "host_driven",
            Mode::NicThread => "nic_thread",
            Mode::Threadless => "threadless",
        }
    }

    fn progress_model(self) -> ProgressModel {
        match self {
            Mode::HostDriven => ProgressModel::HostDriven,
            _ => ProgressModel::ApplicationBypass,
        }
    }

    fn progress_mode(self) -> ProgressMode {
        match self {
            Mode::Threadless => ProgressMode::CallerDriven,
            // Pin explicitly so PORTALS_PROGRESS_MODE can't skew the ablation.
            _ => ProgressMode::NicThread,
        }
    }
}

#[derive(Serialize)]
struct Sample {
    mode: &'static str,
    size: usize,
    iters: usize,
    rtt_mean_us: f64,
    half_rtt_p50_us: f64,
    half_rtt_p99_us: f64,
    half_rtt_mean_us: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    warmup: usize,
    iters: usize,
    /// p50 round-trip comparisons at 0 bytes (p50, not mean: on a shared
    /// single-CPU host the mean is dominated by scheduler preemption tails).
    zero_byte_rtt_p50_us_threadless: f64,
    zero_byte_rtt_p50_us_nic_thread: f64,
    zero_byte_rtt_p50_us_host_driven: f64,
    /// Same rig over loopback UDP to a second OS process (batched wire:
    /// recvmmsg with MSG_WAITFORONE).
    zero_byte_rtt_p50_us_udp_loopback: f64,
    /// The one-syscall-per-datagram wire (`PORTALS_UDP_BATCH=1`): batching
    /// must not tax a lone ping-pong, so these two stay within noise.
    zero_byte_rtt_p50_us_udp_unbatched: f64,
    zero_byte_speedup_vs_nic_thread: f64,
    zero_byte_speedup_vs_host_driven: f64,
    results: Vec<Sample>,
}

/// One ping-pong rig: pinger on the calling thread, echo thread for the pong
/// side. Returns per-iteration RTTs.
fn pingpong(mode: Mode, size: usize, warmup: usize, iters: usize) -> Vec<Duration> {
    let fabric = Fabric::new(FabricConfig::ideal());
    let node_cfg = || NodeConfig {
        transport: TransportConfig {
            progress_mode: mode.progress_mode(),
            ..Default::default()
        },
        directory: None,
        obs: Default::default(),
    };
    let na = Node::new(fabric.attach(NodeId(0)), node_cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), node_cfg());
    let ni_cfg = NiConfig {
        progress: mode.progress_model(),
        ..Default::default()
    };
    let a = na.create_ni(1, ni_cfg.clone()).unwrap();
    let b = nb.create_ni(1, ni_cfg).unwrap();
    let (a_id, b_id) = (a.id(), b.id());

    let setup = |ni: &portals::NetworkInterface| {
        let eq = ni.eq_alloc(64).unwrap();
        let me = ni
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        ni.md_attach(me, MdSpec::new(Region::zeroed(size.max(1))).with_eq(eq))
            .unwrap();
        eq
    };
    let eq_a = setup(&a);
    let eq_b = setup(&b);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    let ponger = std::thread::spawn(move || {
        let md = b.md_bind(MdSpec::new(Region::zeroed(size))).unwrap();
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            match b.eq_poll(eq_b, Duration::from_millis(10)) {
                Ok(_) => b.put_op(md).target(a_id, 0).submit().unwrap(),
                Err(_) => continue,
            }
        }
    });

    let md = a.md_bind(MdSpec::new(Region::zeroed(size))).unwrap();
    let one = || {
        a.put_op(md).target(b_id, 0).submit().unwrap();
        a.eq_wait(eq_a).unwrap();
    };
    for _ in 0..warmup {
        one();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        one();
        samples.push(t0.elapsed());
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    ponger.join().unwrap();
    // The fabric must outlive the nodes' drop-time transport teardown.
    drop((na, nb, a));
    drop(fabric);
    samples
}

/// The echo side of the UDP rig, running in its own OS process. Binds a
/// loopback UDP link as node 1, prints the bound address for the parent to
/// scrape, and echoes every put back to node 0 (whose address is learned
/// from the first inbound datagram). Exits when stdin closes.
fn udp_echo_child(size: usize, batch: usize) -> ! {
    let link = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(1),
        batch,
        ..Default::default()
    })
    .expect("bind echo link");
    println!("{}", link.local_addr());
    let node = Node::new(link, NodeConfig::default());
    let ni = node.create_ni(1, NiConfig::default()).unwrap();
    let eq = ni.eq_alloc(64).unwrap();
    let me = ni
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    ni.md_attach(me, MdSpec::new(Region::zeroed(size.max(1))).with_eq(eq))
        .unwrap();
    let md = ni.md_bind(MdSpec::new(Region::zeroed(size))).unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    std::thread::spawn(move || {
        // Parent closing its end of the pipe is the shutdown signal.
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        stop2.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        match ni.eq_poll(eq, Duration::from_millis(10)) {
            Ok(_) => ni
                .put_op(md)
                .target(ProcessId::new(0, 1), 0)
                .submit()
                .unwrap(),
            Err(_) => continue,
        }
    }
    std::process::exit(0);
}

/// Ping-pong against a second OS process over loopback UDP. Same
/// measurement shape as [`pingpong`]; only the wire differs.
fn pingpong_udp(size: usize, batch: usize, warmup: usize, iters: usize) -> Vec<Duration> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .arg("--udp-echo")
        .arg(size.to_string())
        .arg(batch.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn udp echo process");
    let mut addr_line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut addr_line)
        .expect("read echo address");
    let peer = addr_line.trim().parse().expect("echo address");

    let link = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(0),
        batch,
        ..Default::default()
    })
    .expect("bind pinger link");
    link.set_peer(NodeId(1), peer);
    let node = Node::new(link, NodeConfig::default());
    let ni = node.create_ni(1, NiConfig::default()).unwrap();
    let eq = ni.eq_alloc(64).unwrap();
    let me = ni
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    ni.md_attach(me, MdSpec::new(Region::zeroed(size.max(1))).with_eq(eq))
        .unwrap();
    let md = ni.md_bind(MdSpec::new(Region::zeroed(size))).unwrap();

    let one = || {
        ni.put_op(md)
            .target(ProcessId::new(1, 1), 0)
            .submit()
            .unwrap();
        ni.eq_wait(eq).unwrap();
    };
    for _ in 0..warmup {
        one();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        one();
        samples.push(t0.elapsed());
    }

    drop(child.stdin.take()); // EOF -> child exits
    let _ = child.wait();
    samples
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

fn measure(mode: Mode, size: usize, warmup: usize, iters: usize) -> Sample {
    let mut rtts = pingpong(mode, size, warmup, iters);
    rtts.sort();
    let mean_us = rtts.iter().map(|d| d.as_secs_f64()).sum::<f64>() / rtts.len() as f64 * 1e6;
    Sample {
        mode: mode.name(),
        size,
        iters,
        rtt_mean_us: mean_us,
        half_rtt_p50_us: percentile_us(&rtts, 0.50) / 2.0,
        half_rtt_p99_us: percentile_us(&rtts, 0.99) / 2.0,
        half_rtt_mean_us: mean_us / 2.0,
    }
}

fn measure_udp(
    mode: &'static str,
    size: usize,
    batch: usize,
    warmup: usize,
    iters: usize,
) -> Sample {
    let mut rtts = pingpong_udp(size, batch, warmup, iters);
    rtts.sort();
    let mean_us = rtts.iter().map(|d| d.as_secs_f64()).sum::<f64>() / rtts.len() as f64 * 1e6;
    Sample {
        mode,
        size,
        iters,
        rtt_mean_us: mean_us,
        half_rtt_p50_us: percentile_us(&rtts, 0.50) / 2.0,
        half_rtt_p99_us: percentile_us(&rtts, 0.99) / 2.0,
        half_rtt_mean_us: mean_us / 2.0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--udp-echo") {
        let size = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--udp-echo needs a size");
        let batch = args.get(i + 2).and_then(|s| s.parse().ok()).unwrap_or(1);
        udp_echo_child(size, batch);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_latency.json".to_string());
    let (warmup, iters) = if quick { (200, 500) } else { (1000, 5000) };

    println!("§3 progress-mode latency ablation (ideal fabric, full stack)");
    println!(
        "{:<12} {:>6} {:>14} {:>14} {:>14} {:>12}",
        "mode", "bytes", "half-RTT p50", "half-RTT p99", "half-RTT mean", "RTT mean"
    );

    let mut results = Vec::new();
    for size in [0usize, 64, 4096] {
        for mode in [Mode::HostDriven, Mode::NicThread, Mode::Threadless] {
            let s = measure(mode, size, warmup, iters);
            println!(
                "{:<12} {:>6} {:>11.2} µs {:>11.2} µs {:>11.2} µs {:>9.2} µs",
                s.mode,
                s.size,
                s.half_rtt_p50_us,
                s.half_rtt_p99_us,
                s.half_rtt_mean_us,
                s.rtt_mean_us
            );
            results.push(s);
        }
        // Real wire, real process boundary: the same stack over loopback
        // UDP to a second OS process (fewer iters; each RTT crosses the
        // kernel four times). Two wire arms: the batched recvmmsg wire
        // (MSG_WAITFORONE means a lone ping never waits for a batch to
        // fill — batching must be latency-neutral) and the unbatched
        // one-syscall-per-datagram wire.
        for (mode, batch) in [("udp_loopback", 32), ("udp_unbatched", 1)] {
            let s = measure_udp(mode, size, batch, warmup / 4, (iters / 4).max(100));
            println!(
                "{:<12} {:>6} {:>11.2} µs {:>11.2} µs {:>11.2} µs {:>9.2} µs",
                s.mode,
                s.size,
                s.half_rtt_p50_us,
                s.half_rtt_p99_us,
                s.half_rtt_mean_us,
                s.rtt_mean_us
            );
            results.push(s);
        }
    }

    // The tentpole claim: threadless small-message RTT under the paper's
    // 20 µs bar, well below both threaded baselines.
    let rtt0 = |m: &str| {
        results
            .iter()
            .find(|s| s.mode == m && s.size == 0)
            .map(|s| s.half_rtt_p50_us * 2.0)
            .unwrap()
    };
    let (host, nic, threadless) = (rtt0("host_driven"), rtt0("nic_thread"), rtt0("threadless"));
    let udp = rtt0("udp_loopback");
    let udp_unbatched = rtt0("udp_unbatched");
    println!(
        "\n0-byte RTT p50: host_driven {host:.2} µs, nic_thread {nic:.2} µs, \
         threadless {threadless:.2} µs — {:.1}x vs nic_thread, {:.1}x vs host_driven",
        nic / threadless,
        host / threadless,
    );
    println!(
        "0-byte RTT p50 over loopback UDP (2 processes): {udp:.2} µs batched, \
         {udp_unbatched:.2} µs unbatched — {:.1}x the in-process nic_thread wire",
        udp / nic
    );

    let report = Report {
        bench: "latency",
        quick,
        warmup,
        iters,
        zero_byte_rtt_p50_us_threadless: threadless,
        zero_byte_rtt_p50_us_nic_thread: nic,
        zero_byte_rtt_p50_us_host_driven: host,
        zero_byte_rtt_p50_us_udp_loopback: udp,
        zero_byte_rtt_p50_us_udp_unbatched: udp_unbatched,
        zero_byte_speedup_vs_nic_thread: nic / threadless,
        zero_byte_speedup_vs_host_driven: host / threadless,
        results,
    };
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
