//! §3's microbenchmark: zero-length (and small) ping-pong latency through the
//! full stack — the number the paper quotes as "less than 20 µsec" for the
//! NIC implementation in progress.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portals::{MdSpec, MePos, NiConfig, Node, NodeConfig, ProgressMode, Region};
use portals_net::{Fabric, FabricConfig};
use portals_transport::TransportConfig;
use portals_types::{MatchCriteria, NodeId, ProcessId};

fn bench_pingpong(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec3_pingpong");
    g.sample_size(30);
    for (size, progress_mode) in [
        (0usize, ProgressMode::NicThread),
        (64, ProgressMode::NicThread),
        (4096, ProgressMode::NicThread),
        // Threadless progress — the blocked caller drives the transport and
        // engine inline, no NIC-thread handoff.
        (0, ProgressMode::CallerDriven),
        (4096, ProgressMode::CallerDriven),
    ] {
        let node_cfg = || NodeConfig {
            transport: TransportConfig {
                progress_mode,
                ..Default::default()
            },
            ..Default::default()
        };
        let fabric = Fabric::new(FabricConfig::ideal());
        let na = Node::new(fabric.attach(NodeId(0)), node_cfg());
        let nb = Node::new(fabric.attach(NodeId(1)), node_cfg());
        let a = na.create_ni(1, NiConfig::default()).unwrap();
        let b = nb.create_ni(1, NiConfig::default()).unwrap();
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

        // Echo thread for the pong side.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let ponger = std::thread::spawn(move || {
            let md = b.md_bind(MdSpec::new(Region::zeroed(size))).unwrap();
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                match b.eq_poll(eq_b, std::time::Duration::from_millis(10)) {
                    Ok(_) => b.put_op(md).target(a_id, 0).submit().unwrap(),
                    Err(_) => continue,
                }
            }
        });

        let md = a.md_bind(MdSpec::new(Region::zeroed(size))).unwrap();
        let label = match progress_mode {
            ProgressMode::CallerDriven => "rtt_threadless",
            ProgressMode::NicThread => "rtt",
        };
        g.bench_with_input(BenchmarkId::new(label, size), &size, |bch, _| {
            bch.iter(|| {
                a.put_op(md).target(b_id, 0).submit().unwrap();
                a.eq_wait(eq_a).unwrap();
            })
        });

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        ponger.join().unwrap();
        std::mem::forget((na, nb, a, fabric));
    }
    g.finish();
}

criterion_group!(benches, bench_pingpong);
criterion_main!(benches);
