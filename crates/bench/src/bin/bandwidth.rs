//! §5 large-message bandwidth sweep.
//!
//! Measures large-message bandwidth (64 KiB – 64 MiB) through the full
//! Portals stack for three operations:
//!
//! * `put` — single matched put with an end-to-end ack; the timer stops when
//!   the initiator's Ack event arrives, so the figure includes delivery and
//!   commit at the target.
//! * `get` — single matched get; timer stops at the Reply event, after the
//!   pulled bytes have landed in the initiator's MD.
//! * `sendrecv` — the MPI layer under [`MpiConfig::adaptive`], exercising
//!   the measured eager/rendezvous switchover and, for large messages, the
//!   one-get rendezvous pull (RTS, get, reply, FIN).
//!
//! The in-process rows run the default configuration (fragments scattered
//! into the matched region as they arrive, follow-the-link MTU). A final set
//! of `udp_loopback` rows repeats the put sweep against a second OS process
//! over real loopback UDP sockets, one row per wire arm. The store-and-forward
//! comparison these rows once carried is historical: EXPERIMENTS.md §5 records
//! it as measured at f9a2ac8.
//!
//! Prints a table and writes a machine-readable `BENCH_bandwidth.json`.
//!
//! Run: `cargo run --release -p portals-bench --bin bandwidth [--quick] [--out PATH]`

use portals::{
    AckRequest, EventKind, MdSpec, MePos, NiConfig, Node, NodeConfig, ProgressMode, Region,
};
use portals_mpi::{Mpi, MpiConfig};
use portals_net::{Fabric, FabricConfig};
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::TransportConfig;
use portals_types::{MatchCriteria, NiLimits, NodeId, ProcessId, Rank};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read};
use std::time::{Duration, Instant};

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// The node configuration every row runs: the defaults, with the progress
/// mode pinned so `PORTALS_PROGRESS_MODE` can't skew a sweep.
fn node_cfg() -> NodeConfig {
    NodeConfig {
        transport: TransportConfig {
            progress_mode: ProgressMode::NicThread,
            ..Default::default()
        },
        directory: None,
        obs: Default::default(),
    }
}

#[derive(Serialize)]
struct Sample {
    op: &'static str,
    wire: &'static str,
    arm: &'static str,
    size: usize,
    iters: usize,
    mib_per_s_mean: f64,
    mib_per_s_best: f64,
    /// Send-side wire syscalls per MiB moved (udp rows only; 0 in-process).
    /// `sendmmsg` batching shows up here directly: fewer kernel crossings
    /// for the same bytes.
    send_syscalls_per_mib: f64,
    /// Realized datagrams per send syscall (udp rows only; 0 in-process).
    avg_send_batch: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    /// Batched-jumbo ÷ unbatched mean bandwidth for the largest loopback-UDP
    /// put in the sweep — the wire-batching headline.
    udp_put_batched_speedup: f64,
    results: Vec<Sample>,
}

/// One loopback-UDP wire configuration. The transport above is identical
/// (the defaults); only how datagrams cross the OS boundary changes.
struct UdpWire {
    name: &'static str,
    /// `PORTALS_UDP_BATCH` equivalent: datagrams per wire syscall.
    batch: usize,
    /// Per-datagram payload bound.
    mtu: usize,
}

/// The swept wire arms: the pre-PR one-syscall-per-1432-byte-datagram wire,
/// the same MTU over `sendmmsg`/`recvmmsg`, and batching plus jumbo
/// (~64 KiB) loopback datagrams.
const UDP_WIRES: &[UdpWire] = &[
    UdpWire {
        name: "unbatched",
        batch: 1,
        mtu: 1432,
    },
    UdpWire {
        name: "batched",
        batch: 32,
        mtu: 1432,
    },
    UdpWire {
        name: "batched_jumbo",
        batch: 32,
        mtu: 65489,
    },
];

/// NI limits sized for the sweep: the default `max_message_size` (16 MiB)
/// would reject the 64 MiB rows at submit time.
fn ni_cfg() -> NiConfig {
    NiConfig {
        limits: NiLimits {
            max_message_size: 128 * MIB,
            ..NiLimits::DEFAULT
        },
        ..Default::default()
    }
}

/// Wait for one event of `kind`, draining anything else (Sent precedes
/// Ack/Reply on an initiator queue).
fn wait_for(ni: &portals::NetworkInterface, eq: portals::EqHandle, kind: EventKind) {
    loop {
        if ni.eq_wait(eq).unwrap().kind == kind {
            return;
        }
    }
}

/// One-shot put rig over the in-process fabric: acked puts of `size` bytes
/// into a matched region, timed Sent→Ack. Returns per-transfer durations.
fn put_bw(size: usize, warmup: usize, iters: usize) -> Vec<Duration> {
    let fabric = Fabric::new(FabricConfig::ideal());
    let na = Node::new(fabric.attach(NodeId(0)), node_cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), node_cfg());
    let a = na.create_ni(1, ni_cfg()).unwrap();
    let b = nb.create_ni(1, ni_cfg()).unwrap();

    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    b.md_attach(me, MdSpec::new(Region::zeroed(size))).unwrap();

    let eq = a.eq_alloc(64).unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::zeroed(size)).with_eq(eq))
        .unwrap();
    let b_id = b.id();
    let one = || {
        a.put_op(md)
            .target(b_id, 0)
            .ack(AckRequest::Ack)
            .submit()
            .unwrap();
        wait_for(&a, eq, EventKind::Ack);
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
    drop((na, nb, a, b));
    drop(fabric);
    samples
}

/// One-shot get rig: pulls of `size` bytes from a matched remote region,
/// timed submit→Reply.
fn get_bw(size: usize, warmup: usize, iters: usize) -> Vec<Duration> {
    let fabric = Fabric::new(FabricConfig::ideal());
    let na = Node::new(fabric.attach(NodeId(0)), node_cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), node_cfg());
    let a = na.create_ni(1, ni_cfg()).unwrap();
    let b = nb.create_ni(1, ni_cfg()).unwrap();

    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    b.md_attach(me, MdSpec::new(Region::zeroed(size))).unwrap();

    let eq = a.eq_alloc(64).unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::zeroed(size)).with_eq(eq))
        .unwrap();
    let b_id = b.id();
    let one = || {
        a.get_op(md)
            .target(b_id, 0)
            .length(size as u64)
            .submit()
            .unwrap();
        wait_for(&a, eq, EventKind::Reply);
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
    drop((na, nb, a, b));
    drop(fabric);
    samples
}

/// MPI transfer rig under the adaptive protocol: rank 0 sends `size` bytes
/// and waits for a 1-byte token back, so each timed iteration covers one
/// full delivery (eager, or a pipelined rendezvous pull for large sizes).
fn sendrecv_bw(size: usize, warmup: usize, iters: usize) -> Vec<Duration> {
    let fabric = Fabric::new(FabricConfig::ideal());
    let ranks: Vec<ProcessId> = (0..2).map(|i| ProcessId::new(i, 1)).collect();
    let nodes: Vec<Node> = (0..2u32)
        .map(|i| Node::new(fabric.attach(NodeId(i)), node_cfg()))
        .collect();
    let mpis: Vec<Mpi> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let ni = node.create_ni(1, ni_cfg()).unwrap();
            Mpi::init(ni, ranks.clone(), Rank(i as u32), MpiConfig::adaptive()).unwrap()
        })
        .collect();
    let total = warmup + iters;
    let mut it = mpis.into_iter();
    let (m0, m1) = (it.next().unwrap(), it.next().unwrap());

    let echo = std::thread::spawn(move || {
        let comm = m1.world();
        let buf = Region::zeroed(size);
        for _ in 0..total {
            let req = comm.irecv(Some(Rank(0)), Some(1), buf.clone());
            comm.wait(req);
            comm.send(Rank(0), 2, b"k");
        }
    });

    let comm = m0.world();
    let data = Region::zeroed(size);
    let one = || {
        let req = comm.isend_region(Rank(1), 1, data.clone());
        comm.wait(req);
        comm.recv(Some(Rank(1)), Some(2), 1);
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
    echo.join().unwrap();
    drop(comm);
    drop(nodes);
    drop(fabric);
    samples
}

/// The sink side of the UDP rig, running in its own OS process. Binds a
/// loopback UDP link as node 1, prints the bound address, and absorbs acked
/// puts of up to `size` bytes into a matched region. Exits when stdin
/// closes.
fn udp_sink_child(size: usize, batch: usize, mtu: usize) -> ! {
    let link = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(1),
        batch,
        max_payload: mtu,
        ..Default::default()
    })
    .expect("bind sink link");
    println!("{}", link.local_addr());
    let node = Node::new(link, node_cfg());
    let ni = node.create_ni(1, ni_cfg()).unwrap();
    let me = ni
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    ni.md_attach(me, MdSpec::new(Region::zeroed(size))).unwrap();
    // Parent closing its end of the pipe is the shutdown signal; the
    // NIC thread does all the work meanwhile.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    std::process::exit(0);
}

/// What one loopback-UDP measurement produced: per-transfer durations plus
/// the sender's wire syscall accounting over the timed iterations.
struct UdpRun {
    times: Vec<Duration>,
    /// Datagrams the sender's socket accepted during the timed loop.
    datagrams_sent: u64,
    /// Send-side wire syscalls during the timed loop.
    batches_sent: u64,
}

/// Acked puts to a second OS process over loopback UDP. Same timing shape
/// as [`put_bw`]; only the wire differs.
fn put_bw_udp(wire: &UdpWire, size: usize, warmup: usize, iters: usize) -> UdpRun {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .arg("--udp-sink")
        .arg(size.to_string())
        .arg(wire.batch.to_string())
        .arg(wire.mtu.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn udp sink process");
    let mut addr_line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut addr_line)
        .expect("read sink address");
    let peer = addr_line.trim().parse().expect("sink address");

    let obs = portals_obs::Obs::default();
    let link = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(0),
        batch: wire.batch,
        max_payload: wire.mtu,
        obs: obs.clone(),
        ..Default::default()
    })
    .expect("bind sender link");
    link.set_peer(NodeId(1), peer);
    let node = Node::new(link, node_cfg());
    let ni = node.create_ni(1, ni_cfg()).unwrap();
    let eq = ni.eq_alloc(64).unwrap();
    let md = ni
        .md_bind(MdSpec::new(Region::zeroed(size)).with_eq(eq))
        .unwrap();
    let one = || {
        ni.put_op(md)
            .target(ProcessId::new(1, 1), 0)
            .ack(AckRequest::Ack)
            .submit()
            .unwrap();
        wait_for(&ni, eq, EventKind::Ack);
    };
    for _ in 0..warmup {
        one();
    }
    let count = |name: &str| obs.registry.sum_counters(name);
    let (d0, b0) = (
        count("net.udp.datagrams_sent"),
        count("net.udp.batches_sent"),
    );
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        one();
        times.push(t0.elapsed());
    }
    let run = UdpRun {
        times,
        datagrams_sent: count("net.udp.datagrams_sent") - d0,
        batches_sent: count("net.udp.batches_sent") - b0,
    };
    drop(child.stdin.take()); // EOF -> child exits
    let _ = child.wait();
    run
}

fn to_sample(
    op: &'static str,
    wire: &'static str,
    arm: &'static str,
    size: usize,
    times: Vec<Duration>,
) -> Sample {
    let mib = size as f64 / MIB as f64;
    let rates: Vec<f64> = times.iter().map(|t| mib / t.as_secs_f64()).collect();
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let best = rates.iter().cloned().fold(f64::MIN, f64::max);
    Sample {
        op,
        wire,
        arm,
        size,
        iters: times.len(),
        mib_per_s_mean: mean,
        mib_per_s_best: best,
        send_syscalls_per_mib: 0.0,
        avg_send_batch: 0.0,
    }
}

/// A loopback-UDP sample: bandwidth plus the sender's syscalls-per-MiB and
/// realized batch size over the timed iterations.
fn to_udp_sample(wire_arm: &'static str, size: usize, run: UdpRun) -> Sample {
    let total_mib = (size * run.times.len()) as f64 / MIB as f64;
    let mut s = to_sample("put", "udp_loopback", wire_arm, size, run.times);
    s.send_syscalls_per_mib = run.batches_sent as f64 / total_mib;
    s.avg_send_batch = if run.batches_sent > 0 {
        run.datagrams_sent as f64 / run.batches_sent as f64
    } else {
        0.0
    };
    s
}

fn print_row(s: &Sample) {
    print!(
        "{:<9} {:<12} {:<14} {:>9} {:>5} {:>11.1} {:>11.1}",
        s.op,
        s.wire,
        s.arm,
        s.size / KIB,
        s.iters,
        s.mib_per_s_mean,
        s.mib_per_s_best
    );
    if s.send_syscalls_per_mib > 0.0 {
        print!(
            " {:>12.1} {:>9.1}",
            s.send_syscalls_per_mib, s.avg_send_batch
        );
    }
    println!();
}

/// Repetitions for one size: enough bytes to smooth scheduler noise, few
/// enough that 64 MiB rows stay affordable.
fn iters_for(size: usize, quick: bool) -> usize {
    let budget = if quick { 64 * MIB } else { 256 * MIB };
    (budget / size).clamp(3, 48)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--udp-sink") {
        let size = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--udp-sink needs a size");
        let batch = args.get(i + 2).and_then(|s| s.parse().ok()).unwrap_or(1);
        let mtu = args.get(i + 3).and_then(|s| s.parse().ok()).unwrap_or(1432);
        udp_sink_child(size, batch, mtu);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_bandwidth.json".to_string());

    let sizes: &[usize] = if quick {
        &[64 * KIB, MIB, 16 * MIB]
    } else {
        &[64 * KIB, 256 * KIB, MIB, 4 * MIB, 16 * MIB, 64 * MIB]
    };
    // 16 MiB udp rows stay in the quick sweep: the wire-batching headline
    // ratio is measured there.
    let udp_sizes: &[usize] = &[64 * KIB, MIB, 16 * MIB];

    println!("§5 large-message bandwidth sweep");
    println!(
        "{:<9} {:<12} {:<14} {:>9} {:>5} {:>11} {:>11} {:>12} {:>9}",
        "op", "wire", "arm", "KiB", "reps", "MiB/s mean", "MiB/s best", "syscall/MiB", "avg batch"
    );

    type Rig = fn(usize, usize, usize) -> Vec<Duration>;
    let ops: [(&'static str, Rig); 3] =
        [("put", put_bw), ("get", get_bw), ("sendrecv", sendrecv_bw)];
    let mut results = Vec::new();
    for &size in sizes {
        let iters = iters_for(size, quick);
        let warmup = (iters / 4).max(1);
        for (op, rig) in ops {
            let s = to_sample(op, "in_process", "default", size, rig(size, warmup, iters));
            print_row(&s);
            results.push(s);
        }
    }
    // Real wire, real process boundary: acked puts over loopback UDP, one
    // row per wire arm (fewer reps; every fragment crosses the kernel
    // twice). The transport above is the default throughout — only how
    // datagrams cross the OS boundary varies.
    for &size in udp_sizes {
        let iters = (iters_for(size, quick) / 4).max(2);
        for wire in UDP_WIRES {
            let run = put_bw_udp(wire, size, 1, iters);
            let s = to_udp_sample(wire.name, size, run);
            print_row(&s);
            results.push(s);
        }
    }

    let udp_size = *udp_sizes.last().unwrap();
    let udp_rate = |arm: &str| {
        results
            .iter()
            .find(|s| s.wire == "udp_loopback" && s.arm == arm && s.size == udp_size)
            .map(|s| s.mib_per_s_mean)
            .unwrap()
    };
    let udp_r = udp_rate("batched_jumbo") / udp_rate("unbatched");
    println!(
        "\n{} MiB udp_loopback batched_jumbo/unbatched bandwidth: {udp_r:.2}x",
        udp_size / MIB
    );

    let report = Report {
        bench: "bandwidth",
        quick,
        udp_put_batched_speedup: udp_r,
        results,
    };
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
