//! Whole-system integration tests: fabric faults under a full MPI job,
//! multi-job isolation through access control, and end-to-end shape checks of
//! the paper's headline experiment.

use portals::{NiConfig, Node, NodeConfig, ProgressMode, TransportConfig};
use portals_mpi::bypass::{calibrate_work, figure6_shape, run_point, BypassConfig};
use portals_mpi::{Mpi, MpiConfig};
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_runtime::{Collectives, Job, JobConfig, JobDirectory, ReduceOp};
use portals_types::{NodeId, ProcessId, Rank};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The two builds a bypass test runs in: a NIC thread standing by, and
/// built without one.
const BOTH_BUILDS: [ProgressMode; 2] = [ProgressMode::NicThread, ProgressMode::CallerDriven];

fn build(mode: ProgressMode) -> NodeConfig {
    NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Timing-sensitive tests (the Figure 6 shape check) must not share the CPU
/// with other tests in this binary; serialize everything here.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn mpi_job_survives_lossy_fabric() {
    let _serial = serial();
    let cfg = JobConfig {
        fabric: FabricConfig::default()
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            })
            .with_faults(FaultPlan {
                loss_probability: 0.15,
                duplicate_probability: 0.05,
                max_jitter: Duration::from_micros(50),
            })
            .with_seed(99),
        ..Default::default()
    };
    Job::launch(4, cfg, |env| {
        let comm = &env.comm;
        let coll = Collectives::new(comm.clone());
        // Heavy traffic: every rank broadcasts a 64 KiB blob in turn, then an
        // allreduce confirms a checksum — all over 15% packet loss.
        for root in 0..comm.size() {
            let mut blob = if comm.rank().0 as usize == root {
                vec![root as u8; 64 * 1024]
            } else {
                vec![0u8; 64 * 1024]
            };
            coll.bcast(root, &mut blob);
            assert!(blob.iter().all(|&b| b == root as u8), "root {root}");
        }
        let mut sum = vec![comm.rank().0 as f64];
        coll.allreduce(&mut sum, ReduceOp::Sum);
        assert_eq!(sum[0], 6.0); // 0+1+2+3
    });
}

#[test]
fn partition_heals_without_losing_mpi_messages() {
    for mode in BOTH_BUILDS {
        let _serial = serial();
        // Drive the fabric by hand so we can partition mid-flight.
        let fabric = Arc::new(Fabric::new(FabricConfig::default().with_link(LinkModel {
            latency: Duration::from_micros(5),
            bandwidth_bytes_per_sec: f64::INFINITY,
            per_packet_overhead: Duration::ZERO,
        })));
        let ranks = vec![ProcessId::new(0, 1), ProcessId::new(1, 1)];
        let n0 = Node::new(fabric.attach(NodeId(0)), build(mode));
        let n1 = Node::new(fabric.attach(NodeId(1)), build(mode));
        let mpi0 = Mpi::init(
            n0.create_ni(1, NiConfig::default()).unwrap(),
            ranks.clone(),
            Rank(0),
            MpiConfig::default(),
        )
        .unwrap();
        let mpi1 = Mpi::init(
            n1.create_ni(1, NiConfig::default()).unwrap(),
            ranks,
            Rank(1),
            MpiConfig::default(),
        )
        .unwrap();

        let receiver = std::thread::spawn(move || {
            let comm = mpi1.world();
            let mut got = Vec::new();
            for _ in 0..20 {
                let (data, _) = comm.recv(Some(Rank(0)), Some(1), 1024);
                got.push(data[0]);
            }
            got
        });

        let comm = mpi0.world();
        let fabric2 = Arc::clone(&fabric);
        for i in 0..20u8 {
            if i == 5 {
                fabric2.partition(NodeId(0), NodeId(1));
            }
            if i == 12 {
                fabric2.heal(NodeId(0), NodeId(1));
            }
            let req = comm.isend(Rank(1), 1, &vec![i; 512]);
            // Do not block per message: during the partition sends just queue.
            if i % 4 == 3 {
                comm.engine().progress();
            }
            let _ = req;
        }
        let got = receiver.join().unwrap();
        assert_eq!(
            got,
            (0..20).collect::<Vec<u8>>(),
            "ordered, complete despite partition"
        );
    }
}

#[test]
fn two_jobs_are_isolated_by_access_control() {
    for mode in BOTH_BUILDS {
        let _serial = serial();
        // Two jobs share the fabric and the directory; job A's processes cannot
        // put into job B's portals through ACL entry 0.
        let fabric = Fabric::ideal();
        let directory = Arc::new(JobDirectory::new());
        let node0 = Node::new(
            fabric.attach(NodeId(0)),
            NodeConfig {
                directory: Some(directory.clone()),
                ..build(mode)
            },
        );
        let node1 = Node::new(
            fabric.attach(NodeId(1)),
            NodeConfig {
                directory: Some(directory.clone()),
                ..build(mode)
            },
        );

        // Job 1: pid 1 on both nodes. Job 2: pid 2 on node 0.
        directory.register(ProcessId::new(0, 1), 1);
        directory.register(ProcessId::new(1, 1), 1);
        directory.register(ProcessId::new(0, 2), 2);

        let a = node0
            .create_ni(
                1,
                NiConfig {
                    job: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let b = node1
            .create_ni(
                1,
                NiConfig {
                    job: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let intruder = node0
            .create_ni(
                2,
                NiConfig {
                    job: 2,
                    ..Default::default()
                },
            )
            .unwrap();

        use portals::{MdSpec, MePos, Region};
        use portals_types::MatchCriteria;
        let eq = b.eq_alloc(8).unwrap();
        let me = b
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        let buf = Region::zeroed(64);
        b.md_attach(me, MdSpec::new(buf.clone()).with_eq(eq))
            .unwrap();

        // Same-job traffic flows.
        let md = a
            .md_bind(MdSpec::new(Region::from_vec(b"legit".to_vec())))
            .unwrap();
        a.put_op(md).target(b.id(), 0).submit().unwrap();
        assert_eq!(
            b.eq_poll(eq, Duration::from_secs(5)).unwrap().kind,
            portals::EventKind::Put
        );

        // Cross-job traffic is rejected by the receiver's ACL.
        let md2 = intruder
            .md_bind(MdSpec::new(Region::from_vec(b"snoop".to_vec())))
            .unwrap();
        intruder.put_op(md2).target(b.id(), 0).submit().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b
            .counters()
            .dropped(portals::DropReason::AclProcessMismatch)
            == 0
        {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            &buf.read_vec(0, 5)[..],
            b"legit",
            "intruder data never landed"
        );
    }
}

#[test]
fn figure6_shape_holds_end_to_end() {
    let _serial = serial();
    // The condensed Figure 6: the two ends of each curve of the
    // `repro fig6 --quick` sweep (its batch, its odd repeat count, its largest
    // work interval), judged by the one statement of the shape it prints.
    let small = |cfg: BypassConfig| BypassConfig {
        batch: 6,
        repeats: 7,
        ..cfg
    };
    let iters = calibrate_work(Duration::from_millis(6));

    let p_idle = run_point(small(BypassConfig::portals_style(0)));
    let p_busy = run_point(small(BypassConfig::portals_style(iters)));
    let g_idle = run_point(small(BypassConfig::gm_style(0)));
    let g_busy = run_point(small(BypassConfig::gm_style(iters)));
    let g3_busy = run_point(small(BypassConfig {
        test_calls_during_work: 3,
        ..BypassConfig::gm_style(iters)
    }));

    for (name, ok) in figure6_shape((p_idle, p_busy), (g_idle, g_busy), g3_busy) {
        assert!(
            ok,
            "{name}: portals {p_idle:?} -> {p_busy:?}, gm {g_idle:?} -> {g_busy:?}, gm+3 tests {g3_busy:?}"
        );
    }
}

#[test]
fn host_driven_full_job_matches_bypass_results() {
    let _serial = serial();
    // Same computation whoever runs the receive rules must give identical
    // answers (only timing differs).
    let run = |progress_mode| {
        Job::launch(
            3,
            JobConfig {
                transport: TransportConfig {
                    progress_mode,
                    ..Default::default()
                },
                ..Default::default()
            },
            |env| {
                let coll = Collectives::new(env.comm.clone());
                let mut v = vec![env.rank().0 as f64 + 1.0; 16];
                coll.allreduce(&mut v, ReduceOp::Sum);
                v[0]
            },
        )
    };
    let bypass = run(ProgressMode::NicThread);
    let host = run(ProgressMode::HostDriven);
    assert_eq!(bypass, host);
    assert_eq!(bypass[0], 6.0);
}

#[test]
fn dropped_message_counters_are_complete() {
    for mode in BOTH_BUILDS {
        let _serial = serial();
        // Fire one message at each §4.8 drop reason and check the breakdown.
        use portals::{DropReason, MdSpec, MePos, Region};
        use portals_types::{MatchBits, MatchCriteria};

        let fabric = Fabric::ideal();
        let n0 = Node::new(fabric.attach(NodeId(0)), build(mode));
        let n1 = Node::new(fabric.attach(NodeId(1)), build(mode));
        let a = n0.create_ni(1, NiConfig::default()).unwrap();
        let b = n1.create_ni(1, NiConfig::default()).unwrap();

        let me = b
            .me_attach(
                0,
                ProcessId::ANY,
                MatchCriteria::exact(MatchBits::new(1)),
                false,
                MePos::Back,
            )
            .unwrap();
        b.md_attach(me, MdSpec::new(Region::zeroed(16))).unwrap();

        let md = a.md_bind(MdSpec::new(Region::zeroed(4))).unwrap();
        // Invalid portal.
        a.put_op(md)
            .target(b.id(), 999)
            .bits(MatchBits::new(1))
            .submit()
            .unwrap();
        // Invalid cookie.
        a.put_op(md)
            .target(b.id(), 0)
            .bits(MatchBits::new(1))
            .cookie(50)
            .submit()
            .unwrap();
        // Disabled ACL entry.
        a.put_op(md)
            .target(b.id(), 0)
            .bits(MatchBits::new(1))
            .cookie(3)
            .submit()
            .unwrap();
        // No matching bits.
        a.put_op(md)
            .target(b.id(), 0)
            .bits(MatchBits::new(2))
            .submit()
            .unwrap();
        // Unknown pid on the node.
        a.put_op(md)
            .target(ProcessId::new(1, 9), 0)
            .bits(MatchBits::new(1))
            .submit()
            .unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let done = |b: &portals::NetworkInterface, n1: &Node| {
            let c = b.counters();
            c.dropped(DropReason::InvalidPortalIndex) == 1
                && c.dropped(DropReason::InvalidAcIndex) == 2 // bad cookie + disabled entry
                && c.dropped(DropReason::NoMatch) == 1
                && n1.dropped_no_process() == 1
        };
        while !done(&b, &n1) {
            assert!(
                std::time::Instant::now() < deadline,
                "counters: {:?}, node drops: {}",
                b.counters(),
                n1.dropped_no_process()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.counters().dropped_total(), 4);
        assert_eq!(b.counters().requests_accepted.get(), 0);
    }
}
