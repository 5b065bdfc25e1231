//! Busy-host ablation for triggered (offloaded) collectives.
//!
//! The offloaded library pre-posts the whole schedule — counting events,
//! combining descriptors, parked triggered puts — then the host goes off and
//! computes. Every intermediate combine/forward fires in engine context, so
//! the collective makes **zero host progress calls** between pre-post and the
//! terminal-counter wait: the busy loop below touches no interface state, and
//! the first call after it is `finish_allreduce`'s terminal wait. (The
//! deterministic completion guarantee is asserted in
//! `tests/tests/triggered.rs::offloaded_allreduce_completes_with_zero_host_progress`;
//! this bench measures the overlap win.) The host-driven library must instead
//! run every stage from the host, so its collectives serialize behind the
//! compute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portals_runtime::{Collectives, Job, JobConfig, ProcessEnv, ReduceOp};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VEC: usize = 128;
/// Per-iteration host compute interposed between entering and completing the
/// collective; the offloaded schedule (µs-scale in engine context) overlaps
/// with it instead of serializing behind it.
const BUSY: Duration = Duration::from_millis(2);

/// Non-polling host compute: never touches the interface.
fn busy_work(d: Duration) {
    let end = Instant::now() + d;
    let mut x = 0x9e3779b97f4a7c15u64;
    while Instant::now() < end {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    black_box(x);
}

/// Run `op` `iters` times on every rank inside one fresh job and return
/// rank 0's wall time for the loop.
fn timed_job<F>(n: usize, iters: u64, op: F) -> Duration
where
    F: Fn(&ProcessEnv, &Collectives, &Collectives) + Send + Sync + 'static,
{
    let nanos = Arc::new(AtomicU64::new(0));
    let nanos2 = nanos.clone();
    Job::launch(n, JobConfig::default(), move |env| {
        let host = Collectives::new(env.comm.clone());
        let off = Collectives::triggered(env.comm.clone());
        host.barrier();
        let t0 = Instant::now();
        for _ in 0..iters {
            op(&env, &host, &off);
        }
        let elapsed = t0.elapsed();
        if env.rank().0 == 0 {
            nanos2.store(elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
    });
    Duration::from_nanos(nanos.load(Ordering::Relaxed))
}

/// Pure latency: offloaded vs host-driven, idle host.
fn bench_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("triggered_allreduce_1kB");
    g.sample_size(10);
    for n in [4usize, 8] {
        g.bench_with_input(BenchmarkId::new("host_driven", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                timed_job(n, iters, |_, host, _| {
                    let mut v = vec![1.0f64; VEC];
                    host.allreduce(&mut v, ReduceOp::Sum);
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("offloaded", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                timed_job(n, iters, |_, _, off| {
                    let mut v = vec![1.0f64; VEC];
                    off.allreduce(&mut v, ReduceOp::Sum);
                })
            })
        });
    }
    g.finish();
}

/// The ablation: every rank interposes `BUSY` of compute between entering and
/// completing the collective. Host-driven pays work + full collective;
/// offloaded overlaps the whole schedule with the work.
fn bench_busy_host(c: &mut Criterion) {
    let mut g = c.benchmark_group("triggered_busy_host_allreduce");
    g.sample_size(10);
    for n in [4usize, 8] {
        g.bench_with_input(BenchmarkId::new("host_driven", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                timed_job(n, iters, |_, host, _| {
                    let mut v = vec![1.0f64; VEC];
                    busy_work(BUSY);
                    host.allreduce(&mut v, ReduceOp::Sum);
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("offloaded", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                timed_job(n, iters, |_, _, off| {
                    let mut v = vec![1.0f64; VEC];
                    let pending = off.start_allreduce(&v, ReduceOp::Sum);
                    busy_work(BUSY);
                    // Zero host progress calls were made during the busy
                    // window; the terminal-counter wait inside finish is the
                    // first interface call after pre-post.
                    off.finish_allreduce(pending, &mut v);
                    black_box(&v);
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_latency, bench_busy_host);
criterion_main!(benches);
