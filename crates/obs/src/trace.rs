//! Structured message-lifecycle trace events.
//!
//! A message's life is a fixed sequence of stages — submit → fragment → wire →
//! rx → match → deliver → event/ct — with drops, retransmissions and stalls as
//! the exceptional exits. Each instrumented layer emits a [`TraceEvent`] per
//! stage it owns; the event is a small `Copy` record (numbers and `&'static
//! str` only, nothing allocated), so emitting one costs a timestamp read and a
//! sink append.
//!
//! [`Tracer`] is the emission handle every config carries. Disabled (the
//! default) it is a `None` — the per-event cost is one branch and the
//! event-constructing closure is never run. Enabled, it stamps a monotone
//! relative timestamp and fans out to its sinks.

use crate::sink::TraceSink;
use std::sync::Arc;

/// Timestamp source for emitted events.
///
/// `Instant::elapsed` is a vDSO `clock_gettime` — ~30ns, which is half the
/// cost of an entire emit and lands directly on the ping-pong critical path.
/// On x86_64 the invariant TSC gives the same monotone-per-core reading in
/// ~7ns; ticks are converted to nanoseconds with a ratio calibrated once per
/// process against the monotonic clock. Cross-core TSC skew on modern parts
/// is a handful of nanoseconds — visible at worst as a near-tie ordering
/// inversion in a merged ring, never as a wrong count.
mod clock {
    #[cfg(target_arch = "x86_64")]
    mod imp {
        use std::sync::OnceLock;
        use std::time::Instant;

        #[inline(always)]
        fn ticks() -> u64 {
            // SAFETY: RDTSC is unprivileged and side-effect free; x86_64
            // always has it.
            unsafe { core::arch::x86_64::_rdtsc() }
        }

        /// Nanoseconds per TSC tick, measured once over a ~1ms spin.
        fn ns_per_tick() -> f64 {
            static CAL: OnceLock<f64> = OnceLock::new();
            *CAL.get_or_init(|| {
                let (i0, c0) = (Instant::now(), ticks());
                loop {
                    std::hint::spin_loop();
                    let dt = i0.elapsed();
                    if dt.as_micros() >= 1000 {
                        let dc = ticks().wrapping_sub(c0);
                        return dt.as_nanos() as f64 / dc.max(1) as f64;
                    }
                }
            })
        }

        /// TSC-backed relative clock.
        pub struct EmitClock {
            t0: u64,
        }

        impl EmitClock {
            pub fn start() -> EmitClock {
                let _ = ns_per_tick(); // calibrate before the first emit
                EmitClock { t0: ticks() }
            }

            #[inline]
            pub fn now_ns(&self) -> u64 {
                (ticks().wrapping_sub(self.t0) as f64 * ns_per_tick()) as u64
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    mod imp {
        use std::time::Instant;

        /// Monotonic-clock fallback.
        pub struct EmitClock {
            t0: Instant,
        }

        impl EmitClock {
            pub fn start() -> EmitClock {
                EmitClock { t0: Instant::now() }
            }

            #[inline]
            pub fn now_ns(&self) -> u64 {
                self.t0.elapsed().as_nanos() as u64
            }
        }
    }

    pub use imp::EmitClock;
}

use clock::EmitClock;

/// Which layer emitted an event. `node`/`peer` fields are interpreted in the
/// layer's own address space (node ids for fabric/transport/portals, ranks
/// for MPI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The simulated wire ([`net`-crate fabric]).
    Fabric,
    /// The reliable go-back-N transport.
    Transport,
    /// The Portals receive engine and API.
    Portals,
    /// The MPI layer.
    Mpi,
    /// The parallel filesystem.
    Pfs,
}

impl Layer {
    /// Stable lowercase name for sinks and reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Fabric => "fabric",
            Layer::Transport => "transport",
            Layer::Portals => "portals",
            Layer::Mpi => "mpi",
            Layer::Pfs => "pfs",
        }
    }
}

/// Lifecycle stage of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A message was accepted for sending (transport `on_send`, a Portals
    /// put/get hitting the wire, an MPI isend, a pfs operation issued).
    Submit,
    /// A fragment was admitted to the send window with a sequence number.
    Fragment,
    /// A packet was scheduled on the fabric wire.
    Wire,
    /// The fabric handed a packet to the destination NIC's inbound queue.
    WireDeliver,
    /// A packet reached a receiver (transport data or ack processing).
    Rx,
    /// Portals translation succeeded (Fig. 4 accepted an entry).
    Match,
    /// Payload landed / a reassembled message was handed up.
    Deliver,
    /// An event was pushed to an event queue.
    Event,
    /// A counting event was incremented.
    Ct,
    /// Something was discarded; `detail` names the reason.
    Drop,
    /// A go-back-N retransmission was sent.
    Retransmit,
    /// A peer crossed the stall threshold.
    Stall,
    /// A stalled peer made progress again.
    Resume,
    /// A NIC thread's park ran to its bound: `seq` is the doorbell sequence
    /// it observed, `bytes` the work bits raised at wake, `detail` whether a
    /// caller was registered as the node's driver.
    Park,
}

impl Stage {
    /// Stable lowercase name for sinks and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::Fragment => "fragment",
            Stage::Wire => "wire",
            Stage::WireDeliver => "wire_deliver",
            Stage::Rx => "rx",
            Stage::Match => "match",
            Stage::Deliver => "deliver",
            Stage::Event => "event",
            Stage::Ct => "ct",
            Stage::Drop => "drop",
            Stage::Retransmit => "retransmit",
            Stage::Stall => "stall",
            Stage::Resume => "resume",
            Stage::Park => "park",
        }
    }
}

/// Sentinel for "no value" in the numeric fields below.
pub const NONE_U32: u32 = u32::MAX;
/// Sentinel for "no value" in the 64-bit fields below.
pub const NONE_U64: u64 = u64::MAX;

/// One lifecycle event. All fields are plain data; unset numeric fields hold
/// the `NONE_*` sentinels and `detail` defaults to the empty string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer was created (stamped at emit).
    pub t_ns: u64,
    /// Emitting layer.
    pub layer: Layer,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Emitting side's id in the layer's address space.
    pub node: u32,
    /// The other side's id, when known.
    pub peer: u32,
    /// Message id in the layer's numbering (transport per-peer stream ids).
    pub msg_id: u64,
    /// Sequence number (transport fragment seq, fabric wire seq).
    pub seq: u64,
    /// Payload bytes this event covers.
    pub bytes: u64,
    /// Short static qualifier: a drop reason, "dup", "ack", an event kind.
    pub detail: &'static str,
}

impl TraceEvent {
    /// A blank event for `layer`/`stage`; fill in fields with the builder
    /// methods.
    pub fn new(layer: Layer, stage: Stage) -> TraceEvent {
        TraceEvent {
            t_ns: 0,
            layer,
            stage,
            node: NONE_U32,
            peer: NONE_U32,
            msg_id: NONE_U64,
            seq: NONE_U64,
            bytes: 0,
            detail: "",
        }
    }

    /// Set the emitting side's id.
    pub fn node(mut self, v: u32) -> Self {
        self.node = v;
        self
    }

    /// Set the other side's id.
    pub fn peer(mut self, v: u32) -> Self {
        self.peer = v;
        self
    }

    /// Set the message id.
    pub fn msg_id(mut self, v: u64) -> Self {
        self.msg_id = v;
        self
    }

    /// Set the sequence number.
    pub fn seq(mut self, v: u64) -> Self {
        self.seq = v;
        self
    }

    /// Set the byte count.
    pub fn bytes(mut self, v: u64) -> Self {
        self.bytes = v;
        self
    }

    /// Set the qualifier.
    pub fn detail(mut self, v: &'static str) -> Self {
        self.detail = v;
        self
    }
}

struct TracerInner {
    clock: EmitClock,
    sinks: Vec<Arc<dyn TraceSink>>,
    /// When set, emits return before running the closure or reading the
    /// clock, at the cost of one relaxed load. Lets a caller trace only the
    /// phase it cares about (skip warmup, bracket a steady-state window)
    /// without rebuilding the stack, and gives overhead benches a paired
    /// on/off toggle on identical thread placement.
    muted: std::sync::atomic::AtomicBool,
}

/// The emission handle. Disabled by default; cloning shares the sink set.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A disabled tracer (every emit is a no-op costing one branch).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer fanning out to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock: EmitClock::start(),
                sinks,
                muted: std::sync::atomic::AtomicBool::new(false),
            })),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Temporarily stop (or resume) recording without tearing the tracer
    /// down. A muted emit costs one relaxed load on top of the disabled
    /// tracer's branch; the closure never runs. No-op on a disabled tracer.
    pub fn set_muted(&self, muted: bool) {
        if let Some(inner) = &self.inner {
            inner
                .muted
                .store(muted, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Emit the event built by `f` — `f` runs only when the tracer is
    /// enabled and not muted, so field construction is free when tracing is
    /// off.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            if inner.muted.load(std::sync::atomic::Ordering::Relaxed) {
                return;
            }
            let mut ev = f();
            ev.t_ns = inner.clock.now_ns();
            for sink in &inner.sinks {
                sink.record(&ev);
            }
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        let mut ran = false;
        t.emit(|| {
            ran = true;
            TraceEvent::new(Layer::Transport, Stage::Submit)
        });
        assert!(!ran);
        assert!(!t.enabled());
    }

    #[test]
    fn enabled_tracer_stamps_and_records() {
        let ring = RingSink::new(16);
        let t = Tracer::new(vec![ring.clone() as Arc<dyn TraceSink>]);
        t.emit(|| {
            TraceEvent::new(Layer::Fabric, Stage::Wire)
                .node(1)
                .peer(2)
                .seq(7)
                .bytes(100)
        });
        let evs = ring.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].node, 1);
        assert_eq!(evs[0].peer, 2);
        assert_eq!(evs[0].seq, 7);
        assert_eq!(evs[0].msg_id, NONE_U64);
        assert_eq!(evs[0].stage, Stage::Wire);
    }

    #[test]
    fn muted_tracer_skips_recording_and_resumes() {
        let ring = RingSink::new(16);
        let t = Tracer::new(vec![ring.clone() as Arc<dyn TraceSink>]);
        t.set_muted(true);
        let mut ran = false;
        t.emit(|| {
            ran = true;
            TraceEvent::new(Layer::Fabric, Stage::Wire)
        });
        assert!(!ran);
        assert!(ring.is_empty());
        t.set_muted(false);
        t.emit(|| TraceEvent::new(Layer::Fabric, Stage::Wire));
        assert_eq!(ring.len(), 1);
        // Muting a disabled tracer is a no-op, not a panic.
        Tracer::disabled().set_muted(true);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Layer::Fabric.name(), "fabric");
        assert_eq!(Stage::WireDeliver.name(), "wire_deliver");
    }
}
