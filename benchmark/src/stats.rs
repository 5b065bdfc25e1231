//! Estimators: percentiles, the block-robust pair the end-to-end metrics use,
//! and the quartile spread the driver judges a benchmark by.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`), the same
/// rule the repo's bench bins use. Empty input gives `0.0`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Sort ascending (the harness never produces NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// `aa` reports the spread the driver will see. Needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let x = sorted(values.to_vec());
    let n = x.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// One timed block of a closed loop: `ops` operations back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Operations in the block.
    pub ops: u64,
    /// Wall time of the whole block.
    pub elapsed: Duration,
    /// Median single-op time inside the block, µs.
    pub p50_us: f64,
    /// 99th-percentile single-op time inside the block, µs.
    pub p99_us: f64,
}

impl Block {
    /// Summarise one block from its per-op times in nanoseconds.
    pub fn from_samples(samples_ns: &[u64], elapsed: Duration) -> Block {
        let us = sorted(samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
        Block {
            ops: samples_ns.len() as u64,
            elapsed,
            p50_us: percentile(&us, 0.50),
            p99_us: percentile(&us, 0.99),
        }
    }

    fn rate(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Where in the ranking of a run's blocks the reported value sits: the 5th
/// percentile from the good end.
///
/// Interference from the machine's other tenants only ever adds time, and it
/// comes and goes over seconds to minutes. Measured on the box that defined
/// the benchmark, across ten 10 s runs of `pp_inproc_threadless` whose noisy
/// share varied: the spread (quartile distance over median) of the minimum
/// block median was 1.2%, of the 5th percentile 2.7%, of the lower quartile
/// 7.9% and of the median 7.2%; on quieter workloads the minimum was the
/// erratic one (3.5% against 0.7% for the 5th percentile), because one lucky
/// block sets it. The 5th percentile sits among the undisturbed blocks
/// without resting on a single one.
///
/// A run's fifteen set-up times get the same rule (the second fastest).
/// Sixty set-ups of `halo_inproc` in a quiet quarter of an hour had a median
/// of 0.106 s and a fastest of 0.097 s; sixty of `pp_inproc` (whose set-up is
/// the same to 2 ms) in a noisy one, 0.134 s (+26%) and 0.106 s (+9%).
const QUIET: f64 = 0.05;

/// The 5th percentile of times: what they read when the machine kept out of
/// the way.
pub fn quiet(times: Vec<f64>) -> f64 {
    percentile(&sorted(times), QUIET)
}

/// Block-robust op time: the 5th percentile of the block medians, µs — the
/// op's median time in the blocks the machine left alone.
pub fn op_p50_us(blocks: &[Block]) -> f64 {
    quiet(blocks.iter().map(|b| b.p50_us).collect())
}

/// Block-robust throughput: the 95th percentile of the block rates, ops/s.
pub fn ops_per_s(blocks: &[Block]) -> f64 {
    percentile(
        &sorted(blocks.iter().map(Block::rate).collect()),
        1.0 - QUIET,
    )
}

/// Block-robust tail: the 5th percentile of the block p99s, µs.
pub fn op_p99_us(blocks: &[Block]) -> f64 {
    quiet(blocks.iter().map(|b| b.p99_us).collect())
}

/// The largest values of a stream, in constant memory: enough of them to read
/// a high percentile off the top without keeping every sample (whose number
/// grows with the machine's speed, and would leak into the memory metric).
pub struct Top {
    /// Min-heap of the `keep` largest values seen.
    largest: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    keep: usize,
    seen: u64,
}

impl Top {
    /// Keep the `keep` largest values.
    pub fn new(keep: usize) -> Top {
        Top {
            largest: std::collections::BinaryHeap::with_capacity(keep + 1),
            keep,
            seen: 0,
        }
    }

    /// Offer one value.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.largest.len() < self.keep {
            self.largest.push(std::cmp::Reverse(v));
        } else if self.largest.peek().is_some_and(|min| v > min.0) {
            self.largest.pop();
            self.largest.push(std::cmp::Reverse(v));
        }
    }

    /// The value `share` of all values seen lie above (0 for the maximum),
    /// or 0 if fewer than that were kept or nothing was seen.
    pub fn above(&self, share: f64) -> u64 {
        let desc = {
            let mut v: Vec<u64> = self.largest.iter().map(|r| r.0).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        };
        let rank = (self.seen as f64 * share) as usize;
        desc.get(rank).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0); // round(99 * 0.5) = 50 -> v[50]
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    fn block(p50_us: f64, ops: u64, ms: u64) -> Block {
        Block {
            ops,
            elapsed: Duration::from_millis(ms),
            p50_us,
            p99_us: p50_us * 2.0,
        }
    }

    #[test]
    fn block_estimators_ignore_disturbed_blocks() {
        // Eight quiet blocks and four that a co-tenant slowed by 40%.
        let mut blocks: Vec<Block> = (0..8).map(|_| block(100.0, 1000, 100)).collect();
        blocks.extend((0..4).map(|_| block(140.0, 1000, 140)));
        assert_eq!(op_p50_us(&blocks), 100.0);
        assert_eq!(ops_per_s(&blocks), 10_000.0);
        assert_eq!(op_p99_us(&blocks), 200.0);
        // One lucky block does not set the value either.
        blocks.extend((0..28).map(|_| block(100.0, 1000, 100)));
        blocks.push(block(90.0, 1000, 90));
        assert_eq!(op_p50_us(&blocks), 100.0);
        assert_eq!(ops_per_s(&blocks), 10_000.0);
    }

    #[test]
    fn top_reads_high_percentiles_in_constant_memory() {
        let mut top = Top::new(16);
        for v in (1..=10_000u64).rev() {
            top.push(v);
        }
        assert_eq!(top.above(0.0), 10_000);
        assert_eq!(top.above(0.001), 9_990); // ten values lie above it
        assert_eq!(top.above(0.01), 0, "a hundred were not kept");
        assert_eq!(Top::new(4).above(0.0), 0);
    }

    #[test]
    fn block_summary_from_samples() {
        let samples: Vec<u64> = (1..=101).map(|i| i * 1000).collect();
        let b = Block::from_samples(&samples, Duration::from_micros(5151));
        assert_eq!(b.ops, 101);
        assert_eq!(b.p50_us, 51.0);
        assert_eq!(b.p99_us, 100.0);
    }
}
