//! Figures 1 and 2: the put and get data-movement paths end to end.
//!
//! Fig. 1 is "initiator sends a put request containing the data; the target
//! optionally acknowledges"; Fig. 2 is "initiator sends a get request; the
//! target replies with the data". Measured through the whole reproduction
//! stack (Portals engine → transport → ideal fabric) across payload sizes,
//! with and without acks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use portals::MePos;
use portals::{AckRequest, EventKind, MdSpec, NiConfig, Node, NodeConfig, Region};
use portals_bench::PutGetRig;
use portals_net::{Fabric, FabricConfig};
use portals_types::{MatchCriteria, NodeId, ProcessId};

fn bench_fig1_put(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_put_path");
    g.sample_size(30);
    for size in [0usize, 1024, 50 * 1024, 256 * 1024] {
        let rig = PutGetRig::new(FabricConfig::ideal(), size.max(1));
        let md = rig
            .initiator
            .md_bind(MdSpec::new(Region::from_vec(vec![1u8; size])))
            .unwrap();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("no_ack", size), &size, |b, _| {
            b.iter(|| rig.put_once(md, AckRequest::NoAck))
        });
    }
    // With acknowledgment: wait for the Ack event at the initiator too.
    for size in [0usize, 50 * 1024] {
        let rig = PutGetRig::new(FabricConfig::ideal(), size.max(1));
        let ieq = rig.initiator.eq_alloc(1024).unwrap();
        let md = rig
            .initiator
            .md_bind(MdSpec::new(Region::from_vec(vec![1u8; size])).with_eq(ieq))
            .unwrap();
        g.bench_with_input(BenchmarkId::new("with_ack", size), &size, |b, _| {
            b.iter(|| {
                rig.put_once(md, AckRequest::Ack);
                loop {
                    let ev = rig.initiator.eq_wait(ieq).unwrap();
                    if ev.kind == EventKind::Ack {
                        break;
                    }
                }
            })
        });
    }
    g.finish();
}

fn bench_fig2_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_get_path");
    g.sample_size(30);
    for size in [1usize, 1024, 50 * 1024, 256 * 1024] {
        // Target exposes `size` bytes; initiator pulls them.
        let fabric = Fabric::new(FabricConfig::ideal());
        let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
        let nb = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
        let initiator = na.create_ni(1, NiConfig::default()).unwrap();
        let target = nb.create_ni(1, NiConfig::default()).unwrap();
        let me = target
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        target
            .md_attach(me, MdSpec::new(Region::from_vec(vec![9u8; size])))
            .unwrap();
        let ieq = initiator.eq_alloc(1024).unwrap();
        let dst = Region::zeroed(size);
        let md = initiator.md_bind(MdSpec::new(dst).with_eq(ieq)).unwrap();
        let target_id = target.id();

        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("get", size), &size, |b, &s| {
            b.iter(|| {
                initiator
                    .get_op(md)
                    .target(target_id, 0)
                    .length(s as u64)
                    .submit()
                    .unwrap();
                loop {
                    let ev = initiator.eq_wait(ieq).unwrap();
                    if ev.kind == EventKind::Reply {
                        break;
                    }
                }
            })
        });
        std::mem::forget((na, nb, initiator, target, fabric));
    }
    g.finish();
}

criterion_group!(benches, bench_fig1_put, bench_fig2_get);
criterion_main!(benches);
