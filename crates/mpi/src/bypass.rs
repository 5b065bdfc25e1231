//! The application-bypass experiment (§5.3, Figure 5/Table 5 and Figure 6).
//!
//! The paper's program, verbatim from Figure 5:
//!
//! ```text
//! pre-post several non-blocking receives;
//! barrier;
//! post a batch of sends;
//! work (fixed loop iterations);
//! get time A;
//! wait for the batch of messages;
//! get Time B;
//! repeat;
//! ```
//!
//! "Both nodes iterate over this outline although only one node performs
//! work." The measured quantity is `B − A`: how much message handling remained
//! after the work interval. A batch is ten equal-sized messages (50 KB in
//! Figure 6) and each timing is the median over repeats.
//!
//! [`run_point`] runs one work interval with a given MPI stack configuration;
//! `repro fig6` produces the Figure 6 curves by varying the interval and
//! checks them with [`figure6_shape`].

use crate::comm::{Communicator, Mpi};
use crate::config::MpiConfig;
use crate::request::Request;
use portals::{NiConfig, Node, NodeConfig, ProgressMode, TransportConfig};
use portals_net::{Fabric, FabricConfig, LinkModel};
use portals_types::{NodeId, ProcessId, Rank};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct BypassConfig {
    /// Message size in bytes (Figure 6: 50 KB).
    pub msg_size: usize,
    /// Messages per batch (the paper: 10).
    pub batch: usize,
    /// Spin-loop iterations forming the work interval.
    pub work_iterations: u64,
    /// `MPI_Test`-like calls sprinkled through the work interval (the paper's
    /// related test used 3; 0 reproduces the headline curves).
    pub test_calls_during_work: usize,
    /// Iterations to average over.
    pub repeats: usize,
    /// Who runs the protocol on both nodes.
    pub progress: ProgressMode,
    /// MPI protocol/tuning for both processes.
    pub mpi: MpiConfig,
    /// Link timing for the simulated fabric.
    pub link: LinkModel,
}

impl BypassConfig {
    /// The paper's MPICH/Portals configuration at a given work interval.
    /// Bypass means an agent other than the application advances the
    /// protocol (§5.1), so the mode is pinned: under caller-driven progress
    /// nobody would step it during the work interval.
    pub fn portals_style(work_iterations: u64) -> BypassConfig {
        BypassConfig {
            msg_size: 50 * 1024,
            batch: 10,
            work_iterations,
            test_calls_during_work: 0,
            repeats: 5,
            progress: ProgressMode::NicThread,
            mpi: MpiConfig::default(),
            link: LinkModel::myrinet_2001(),
        }
    }

    /// The paper's MPICH/GM-style configuration at a given work interval.
    pub fn gm_style(work_iterations: u64) -> BypassConfig {
        BypassConfig {
            progress: ProgressMode::HostDriven,
            mpi: MpiConfig::gm_style(),
            ..Self::portals_style(work_iterations)
        }
    }
}

/// Measured outcome of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BypassPoint {
    /// Median duration of the work interval itself.
    pub work: Duration,
    /// Median residual wait (`B − A`).
    pub wait: Duration,
}

/// The spin-loop workload: pure register arithmetic, no memory traffic, no
/// library calls — the "work (fixed loop iterations)" of Figure 5.
#[inline(never)]
pub fn busy_work(iterations: u64) -> u64 {
    let mut x: u64 = 0x9e3779b97f4a7c15;
    for i in 0..iterations {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i | 1));
    }
    x
}

/// Find the iteration count whose busy_work runtime is roughly `target`.
/// The fastest of three probes is the estimate: a preempted probe can only
/// read slow.
pub fn calibrate_work(target: Duration) -> u64 {
    let probe = 2_000_000u64;
    let fastest = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(busy_work(probe));
            t0.elapsed()
        })
        .min()
        .expect("three probes");
    let per_iter = fastest.as_secs_f64() / probe as f64;
    ((target.as_secs_f64() / per_iter) as u64).max(1)
}

/// Run the Figure 5 program `repeats` times and report the median of rank 0's
/// timings. `repeats` must be odd: the middle of an even count is its worse
/// half, not a median. Every repeat builds its own two-node rig:
/// what disturbs a measurement on a small shared machine is mostly where the
/// scheduler happened to put a rig's NIC threads, which lasts as long as the
/// rig does — so iterations on one rig are disturbed together and only
/// repeats on fresh rigs give a median something to vote with.
pub fn run_point(cfg: BypassConfig) -> BypassPoint {
    assert!(
        cfg.repeats % 2 == 1,
        "run_point reports a median: repeats must be odd, got {}",
        cfg.repeats
    );
    let (mut works, mut waits): (Vec<_>, Vec<_>) = (0..cfg.repeats).map(|_| run_once(cfg)).unzip();
    works.sort();
    waits.sort();
    BypassPoint {
        work: works[works.len() / 2],
        wait: waits[waits.len() / 2],
    }
}

/// One repeat: a fresh rig, one untimed iteration to warm it (first-touch
/// allocations, pool fills), one timed. Returns rank 0's (work, wait).
fn run_once(cfg: BypassConfig) -> (Duration, Duration) {
    let fabric = Fabric::new(FabricConfig::default().with_link(cfg.link));
    let node_cfg = NodeConfig {
        transport: TransportConfig {
            progress_mode: cfg.progress,
            ..Default::default()
        },
        ..Default::default()
    };
    let node0 = Node::new(fabric.attach(NodeId(0)), node_cfg.clone());
    let node1 = Node::new(fabric.attach(NodeId(1)), node_cfg);
    let ni0 = node0.create_ni(1, NiConfig::default()).unwrap();
    let ni1 = node1.create_ni(1, NiConfig::default()).unwrap();
    let ranks = vec![ProcessId::new(0, 1), ProcessId::new(1, 1)];

    let mpi0 = Mpi::init(ni0, ranks.clone(), Rank(0), cfg.mpi).unwrap();
    let mpi1 = Mpi::init(ni1, ranks, Rank(1), cfg.mpi).unwrap();

    let peer = std::thread::spawn(move || {
        let comm = mpi1.world();
        for _ in 0..2 {
            iteration(&comm, &cfg, /* worker = */ false);
        }
    });
    let comm = mpi0.world();
    iteration(&comm, &cfg, /* worker = */ true);
    let timed = iteration(&comm, &cfg, /* worker = */ true);
    peer.join().expect("peer thread");
    timed
}

/// One iteration of the Figure 5 loop. Returns (work duration, wait duration)
/// for the worker; zeros for the peer.
fn iteration(comm: &Communicator, cfg: &BypassConfig, worker: bool) -> (Duration, Duration) {
    let other = Rank(1 - comm.rank().0);
    let payload = vec![0xabu8; cfg.msg_size];

    // pre-post several non-blocking receives;
    let recvs: Vec<Request> = (0..cfg.batch)
        .map(|_| comm.irecv(Some(other), Some(7), portals::Region::zeroed(cfg.msg_size)))
        .collect();

    // barrier;
    comm.barrier();

    // post a batch of sends;
    let sends: Vec<Request> = (0..cfg.batch)
        .map(|_| comm.isend(other, 7, &payload))
        .collect();

    // work (fixed loop iterations) — only the worker node;
    let w0 = Instant::now();
    if worker && cfg.work_iterations > 0 {
        if cfg.test_calls_during_work > 0 {
            let chunks = cfg.test_calls_during_work as u64 + 1;
            let per_chunk = cfg.work_iterations / chunks;
            for i in 0..chunks {
                black_box(busy_work(per_chunk));
                if i + 1 < chunks {
                    comm.engine().progress(); // the "MPI_Test" calls
                }
            }
        } else {
            black_box(busy_work(cfg.work_iterations));
        }
    }
    let work = w0.elapsed();

    // get time A; wait for the batch of messages; get time B;
    let a = Instant::now();
    comm.wait_all(&recvs);
    comm.wait_all(&sends);
    let wait = a.elapsed();

    if worker {
        (work, wait)
    } else {
        (Duration::ZERO, Duration::ZERO)
    }
}

/// The Figure 6 claims, as named checks over the two ends of each curve:
/// `(no work, largest work interval)` for the Portals-style and GM-style
/// stacks, and the GM-style stack with 3 test calls at the largest interval.
/// The one statement of the shape: `repro fig6` prints it, the integration
/// test asserts it.
pub fn figure6_shape(
    portals: (BypassPoint, BypassPoint),
    gm: (BypassPoint, BypassPoint),
    gm_3tests_busy: BypassPoint,
) -> [(&'static str, bool); 4] {
    let secs = |p: BypassPoint| p.wait.as_secs_f64();
    [
        (
            "portals residual wait collapses with enough work (>=75% drop)",
            secs(portals.1) < 0.25 * secs(portals.0),
        ),
        (
            "gm-style residual wait stays flat (within 2x of idle)",
            secs(gm.1) > 0.5 * secs(gm.0) && secs(gm.1) < 2.0 * secs(gm.0),
        ),
        (
            "gm with 3 test calls beats gm without",
            gm_3tests_busy.wait < gm.1.wait,
        ),
        (
            "portals beats gm-style at the largest work interval",
            portals.1.wait < gm.1.wait,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// These tests compare wall-clock measurements; run them one at a time so
    /// parallel test threads do not distort the work/transfer overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A fast link so tests finish quickly but transfer time is nonzero.
    fn test_link() -> LinkModel {
        LinkModel {
            latency: Duration::from_micros(5),
            bandwidth_bytes_per_sec: 200.0 * 1024.0 * 1024.0,
            per_packet_overhead: Duration::from_micros(1),
        }
    }

    fn small(base: BypassConfig, work: u64) -> BypassConfig {
        BypassConfig {
            msg_size: 50 * 1024,
            batch: 4,
            repeats: 3,
            work_iterations: work,
            link: test_link(),
            ..base
        }
    }

    #[test]
    #[should_panic(expected = "repeats must be odd")]
    fn even_repeats_are_rejected() {
        run_point(BypassConfig {
            repeats: 2,
            ..BypassConfig::portals_style(0)
        });
    }

    #[test]
    fn experiment_runs_and_measures() {
        let _serial = serial();
        let p = run_point(small(BypassConfig::portals_style(0), 0));
        // With zero work, everything remains for the wait phase.
        assert!(p.wait > Duration::ZERO);
        assert!(
            p.work < Duration::from_millis(1),
            "no-work interval should be ~zero"
        );
    }

    #[test]
    fn bypass_overlaps_work_with_communication() {
        let _serial = serial();
        let iters = calibrate_work(Duration::from_millis(20));
        let busy = run_point(small(BypassConfig::portals_style(iters), iters));
        let idle = run_point(small(BypassConfig::portals_style(0), 0));
        // A work interval much longer than the transfer should absorb nearly
        // all message handling: residual wait well below the idle wait.
        assert!(
            busy.wait < idle.wait / 2,
            "bypass wait {:?} should collapse vs idle wait {:?}",
            busy.wait,
            idle.wait
        );
    }

    #[test]
    fn gm_style_makes_no_progress_during_work() {
        let _serial = serial();
        let iters = calibrate_work(Duration::from_millis(20));
        let busy = run_point(small(BypassConfig::gm_style(iters), iters));
        let idle = run_point(small(BypassConfig::gm_style(0), 0));
        // Residual wait stays within the same ballpark as no-work: the work
        // interval bought nothing. (Loose factor: CI machines share cores
        // with concurrent cargo build jobs.)
        assert!(
            busy.wait * 5 > idle.wait,
            "gm-style wait {:?} dropped too much vs idle {:?}",
            busy.wait,
            idle.wait
        );
        assert!(
            busy.wait > Duration::from_micros(100),
            "transfer must still take real time"
        );
    }

    #[test]
    fn test_calls_during_work_let_gm_style_progress() {
        let _serial = serial();
        let iters = calibrate_work(Duration::from_millis(20));
        let no_tests = run_point(small(BypassConfig::gm_style(iters), iters));
        let with_tests = run_point(small(
            BypassConfig {
                test_calls_during_work: 3,
                ..BypassConfig::gm_style(iters)
            },
            iters,
        ));
        assert!(
            with_tests.wait < no_tests.wait,
            "test calls ({:?}) should beat none ({:?})",
            with_tests.wait,
            no_tests.wait
        );
    }
}
