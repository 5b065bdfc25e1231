//! Observability substrate for the Portals workspace.
//!
//! Two halves, one handle:
//!
//! - **Metrics** ([`metrics`], [`registry`]): lock-free counters (striped
//!   across cache lines), gauges and histograms, organized into named,
//!   labeled series by a shared [`Registry`]. The stats structs in the net,
//!   netudp, transport, portals and pfs crates are sets of handles registered
//!   here — the only typed view of a component's counters — so every number
//!   a component tracks is also visible, and summable across components,
//!   through one registry snapshot.
//! - **Traces** ([`trace`], [`sink`]): structured message-lifecycle events
//!   (submit → fragment → wire → rx → match → deliver → event/ct, plus
//!   drops/retransmits/stalls) emitted through a [`Tracer`] into pluggable
//!   sinks: an in-memory [`RingSink`] for post-hoc invariant checking and a
//!   streaming [`JsonlSink`].
//!
//! [`Obs`] bundles the two and is what component configs carry. The default
//! `Obs` has a fresh registry and a disabled tracer, so components built
//! without explicit observability keep working and pay one branch per would-be
//! trace event.

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod sink;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{Labels, Metric, MetricValue, Registry, SeriesSnapshot};
pub use sink::{event_to_json, JsonlSink, RingSink, TraceSink};
pub use trace::{Layer, Stage, TraceEvent, Tracer, NONE_U32, NONE_U64};

use std::sync::Arc;

/// The observability handle a component carries: a metrics [`Registry`] plus
/// a [`Tracer`]. `Clone` shares both; `Default` is a fresh registry and a
/// disabled tracer.
#[derive(Clone, Default)]
pub struct Obs {
    /// Metric series registry.
    pub registry: Registry,
    /// Lifecycle-event emitter.
    pub tracer: Tracer,
}

impl Obs {
    /// A fresh handle with a disabled tracer.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// A fresh handle tracing into a new [`RingSink`] of `capacity` events;
    /// returns the sink too so the caller can read events back.
    pub fn with_ring(capacity: usize) -> (Obs, Arc<RingSink>) {
        let ring = RingSink::new(capacity);
        let obs = Obs {
            registry: Registry::new(),
            tracer: Tracer::new(vec![ring.clone() as Arc<dyn TraceSink>]),
        };
        (obs, ring)
    }

    /// A fresh handle tracing into the given sinks.
    pub fn with_sinks(sinks: Vec<Arc<dyn TraceSink>>) -> Obs {
        Obs {
            registry: Registry::new(),
            tracer: Tracer::new(sinks),
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Obs({:?}, {:?})", self.registry, self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_is_disabled_and_empty() {
        let obs = Obs::new();
        assert!(!obs.tracer.enabled());
        assert!(obs.registry.is_empty());
    }

    #[test]
    fn with_ring_traces_into_the_returned_sink() {
        let (obs, ring) = Obs::with_ring(8);
        assert!(obs.tracer.enabled());
        obs.tracer
            .emit(|| TraceEvent::new(Layer::Transport, Stage::Submit).node(0));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn clones_share_registry_and_tracer() {
        let (obs, ring) = Obs::with_ring(8);
        let obs2 = obs.clone();
        obs2.registry.counter("x", &[]).inc();
        obs2.tracer
            .emit(|| TraceEvent::new(Layer::Fabric, Stage::Wire));
        assert_eq!(obs.registry.sum_counters("x"), 1);
        assert_eq!(ring.len(), 1);
    }
}
