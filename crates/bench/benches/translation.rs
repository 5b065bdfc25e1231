//! Figures 3–4: address translation cost.
//!
//! The Fig. 4 algorithm walks the match list linearly. This bench measures the
//! walk against list length, hit position (front / middle / back / miss) and
//! wildcard density — the costs an MPI implementation pays per posted receive
//! under heavy pre-posting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portals::bench_support::MatchBench;
use std::hint::black_box;

fn bench_walk_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_walk_vs_length");
    for len in [1usize, 16, 64, 256, 1024, 4096] {
        let rig = MatchBench::new(len, None);
        g.bench_with_input(BenchmarkId::new("match_last", len), &rig, |b, rig| {
            b.iter(|| black_box(rig.translate((len - 1) as u64)))
        });
        g.bench_with_input(BenchmarkId::new("miss", len), &rig, |b, rig| {
            b.iter(|| black_box(rig.translate_miss()))
        });
    }
    g.finish();
}

fn bench_hit_position(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_hit_position");
    let len = 1024usize;
    let rig = MatchBench::new(len, None);
    for (name, bits) in [
        ("front", 0u64),
        ("middle", (len / 2) as u64),
        ("back", (len - 1) as u64),
    ] {
        g.bench_with_input(BenchmarkId::new("hit", name), &bits, |b, &bits| {
            b.iter(|| black_box(rig.translate(bits)))
        });
    }
    g.finish();
}

fn bench_wildcard_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_wildcard_density");
    let len = 1024usize;
    for density in [None, Some(64), Some(8)] {
        let rig = MatchBench::new(len, density);
        let label = density.map_or("exact_only".to_string(), |d| format!("every_{d}"));
        g.bench_with_input(BenchmarkId::new("match_back", &label), &rig, |b, rig| {
            b.iter(|| black_box(rig.translate((len - 1) as u64)))
        });
    }
    g.finish();
}

fn bench_index_ablation(c: &mut Criterion) {
    // Function-level comparison: the ordered linear walk (reference
    // semantics, and the receive path's fallback) vs the receive path's
    // translation, which probes the match list's exact-bits index first.
    let mut g = c.benchmark_group("fig4_ablation_walk_vs_index");
    for len in [64usize, 1024, 4096] {
        let rig = MatchBench::new(len, None);
        g.bench_with_input(BenchmarkId::new("linear_walk", len), &rig, |b, rig| {
            b.iter(|| black_box(rig.translate((len - 1) as u64)))
        });
        g.bench_with_input(BenchmarkId::new("indexed", len), &rig, |b, rig| {
            b.iter(|| black_box(rig.translate_indexed((len - 1) as u64)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_walk_length,
    bench_hit_position,
    bench_wildcard_density,
    bench_index_ablation
);
criterion_main!(benches);
