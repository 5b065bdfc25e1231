//! The metric primitives: striped counters, gauges, bucketed histograms.
//!
//! All three are cheap shared handles (`Clone` shares the underlying cells),
//! and every update is a single relaxed atomic operation — no locks anywhere
//! on the hot path. Counters additionally stripe their cells across cache
//! lines keyed by [`portals_types::stripe::thread_stripe`], so concurrent
//! writers on different threads do not ping-pong one cache line; reads sum
//! the stripes.

use portals_types::stripe::thread_stripe;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Stripe count for counters: enough to split a node's stepper thread and a
/// handful of application threads, which do write one counter from two CPUs.
pub const COUNTER_STRIPES: usize = 8;

/// One cache line per stripe so writers on different threads never share one.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// A monotone counter, striped across cache lines.
///
/// `Clone` shares the cells: every clone observes and contributes to the same
/// logical value.
#[derive(Clone)]
pub struct Counter {
    stripes: Arc<[Stripe; COUNTER_STRIPES]>,
}

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Counter {
        Counter {
            stripes: Arc::new(Default::default()),
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[thread_stripe(COUNTER_STRIPES)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (sum of the stripes).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A signed gauge (current level, not a rate): stalled peers right now,
/// queue depth, bytes in flight.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A histogram over fixed bucket upper bounds (`observe` finds the first
/// bound ≥ the value; values above the last bound land in the overflow
/// bucket). Tracks count and sum alongside the buckets.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A fresh histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Exponential bounds `start, start*2, start*4, ...` (`n` bounds).
    pub fn exponential(start: u64, n: usize) -> Histogram {
        let mut bounds = Vec::with_capacity(n);
        let mut b = start.max(1);
        for _ in 0..n {
            bounds.push(b);
            b = b.saturating_mul(2);
        }
        Histogram::new(&bounds)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let inner = &self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries, last is overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(n={}, sum={})", self.count(), self.sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_clones_share() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add(3);
        c2.inc();
        assert_eq!(c.get(), 4);
        assert_eq!(c2.get(), 4);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(50);
        h.observe(1000);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
    }

    #[test]
    fn exponential_bounds_double() {
        let h = Histogram::exponential(1, 4);
        assert_eq!(h.bounds(), &[1, 2, 4, 8]);
    }
}
