//! The metrics registry: named, labeled families of counters, gauges and
//! histograms.
//!
//! Registration (`counter`/`gauge`/`histogram`) is get-or-create on the
//! `(name, labels)` pair under a mutex — a cold path run once per component at
//! construction. The returned handles are the lock-free primitives of
//! [`crate::metrics`]; all steady-state updates go through those and never
//! touch the registry again. `Clone` shares the registry; `Default` creates a
//! fresh, empty one.

use crate::metrics::{Counter, Gauge, Histogram};
use parking_lot::Mutex;
use std::sync::Arc;

/// Label set for one series: static keys, owned values.
pub type Labels = Vec<(&'static str, String)>;

/// One registered series.
#[derive(Clone)]
struct Series {
    name: &'static str,
    labels: Labels,
    metric: Metric,
}

/// A handle to any of the three metric kinds.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotone counter.
    Counter(Counter),
    /// Signed level.
    Gauge(Gauge),
    /// Bucketed distribution.
    Histogram(Histogram),
}

/// A shared, append-only collection of metric series.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Series>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut series = self.inner.lock();
        if let Some(s) = series.iter().find(|s| s.name == name && s.labels == labels) {
            return s.metric.clone();
        }
        let metric = make();
        series.push(Series {
            name,
            labels: labels.to_vec(),
            metric: metric.clone(),
        });
        metric
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// Panics if the series exists with a different metric kind.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, String)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, String)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Get or create the histogram `name{labels}` with the given bucket
    /// bounds (bounds are fixed by whoever registers first).
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        bounds: &[u64],
    ) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Snapshot every series into plain data, in registration order.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        self.inner
            .lock()
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name,
                labels: s.labels.clone(),
                value: match &s.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                },
            })
            .collect()
    }

    /// Sum every counter series named `name`, across all label sets. The
    /// reconciliation primitive: "per-peer retransmits sum to the aggregate"
    /// is one call per side.
    pub fn sum_counters(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.metric {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} series)", self.len())
    }
}

/// Plain-data snapshot of one series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Series name.
    pub name: &'static str,
    /// Label set.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: MetricValue,
}

impl SeriesSnapshot {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The counter value, if this series is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }
}

/// Snapshot value of one metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram {
        /// Bucket upper bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts (last entry is overflow).
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(k: &'static str, v: &str) -> (&'static str, String) {
        (k, v.to_string())
    }

    #[test]
    fn get_or_create_shares_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("x", &[l("node", "0")]);
        let b = r.counter("x", &[l("node", "0")]);
        let c = r.counter("x", &[l("node", "1")]);
        a.add(2);
        b.add(3);
        c.add(10);
        assert_eq!(a.get(), 5);
        assert_eq!(r.len(), 2);
        assert_eq!(r.sum_counters("x"), 15);
    }

    #[test]
    fn clones_share_the_registry() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("a", &[]);
        assert_eq!(r2.len(), 1);
        assert_eq!(Registry::default().len(), 0);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c", &[]).add(7);
        r.gauge("g", &[]).set(-2);
        r.histogram("h", &[], &[10]).observe(3);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].as_counter(), Some(7));
        assert_eq!(snap[1].value, MetricValue::Gauge(-2));
        match &snap[2].value {
            MetricValue::Histogram { count, sum, .. } => {
                assert_eq!((*count, *sum), (1, 3));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }
}
