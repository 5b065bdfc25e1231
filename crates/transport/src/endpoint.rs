//! The public transport endpoint: one progress core behind one mutex. Callers
//! submit inline under it; the [`ProgressMode`] decides only who steps it — a
//! NIC thread parked on the doorbell, or the caller blocked in `recv`/`flush`.

use crate::config::TransportConfig;
use crate::core::{instant_to_ns, ns_to_instant, ProgressCore, DEADLINE_NONE};
use crate::stats::{FlowStats, FlowStatsSnapshot, TransportStats, TransportStatsSnapshot};
use parking_lot::Mutex;
use portals_net::{DriverHub, Link, LinkCaps, NodeDriver};
use portals_obs::Obs;
use portals_types::{DoorbellQueue, Gather, NodeId, ProgressMode, Readiness};
use portals_wire::Packet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A whole message from a peer node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomingMessage {
    /// The sending node.
    pub src: NodeId,
    /// The message bytes: zero-copy views into the datagrams it arrived in.
    pub payload: Gather,
}

/// One in-order fragment of a multi-fragment message, streamed upward with
/// its placement offset while the rest of the message is still in flight.
///
/// The transport guarantees per-source ordering, and enforces it against the
/// wire (see [`ReceiverPeer`](crate::peer::ReceiverPeer)): a message's
/// fragments arrive offset-contiguous from zero and never interleave with
/// other deliveries from the same source. A message its sender broke off is
/// ended by [`Delivery::Abandoned`], never by a `last` fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFragment {
    /// The sending node.
    pub src: NodeId,
    /// Per-(src, dst) message id, constant across one message's fragments.
    pub msg_id: u64,
    /// Absolute payload offset of `payload` within the message.
    pub offset: u64,
    /// True for the message's final fragment: the consumer may complete the
    /// message (total length = `offset + payload.len()`).
    pub last: bool,
    /// This fragment's bytes (zero-copy views into the received datagrams).
    pub payload: Gather,
}

/// What the transport hands upward: a whole message (one that fit in a
/// single fragment) or one streamed fragment of a larger message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// A complete message.
    Message(IncomingMessage),
    /// One in-order fragment of a multi-fragment message.
    Fragment(StreamFragment),
    /// The multi-fragment message `src` was in the middle of will never
    /// complete (its sender violated fragment contiguity): discard whatever
    /// was received of it.
    Abandoned {
        /// The sending node.
        src: NodeId,
    },
}

/// A reliable, ordered, connectionless endpoint bound to one [`Link`].
///
/// Sends are asynchronous: [`Endpoint::send`] fragments the message onto the
/// wire and returns; acks, pacing and retransmission happen in whoever steps
/// the protocol (see [`ProgressMode`]). Reassembled inbound messages are read
/// from [`Endpoint::recv`] or drained with [`Endpoint::try_recv`]; the Portals
/// node built on top takes the raw delivery stream
/// ([`Endpoint::pop_delivery`]) instead.
///
/// ```
/// use portals_transport::{Endpoint, TransportConfig};
/// use portals_net::Fabric;
/// use portals_types::{Gather, NodeId};
///
/// let fabric = Fabric::ideal();
/// let a = Endpoint::with_defaults(fabric.attach(NodeId(0)));
/// let b = Endpoint::with_defaults(fabric.attach(NodeId(1)));
/// a.send(NodeId(1), Gather::copy_from_slice(b"no connection setup required"));
/// let msg = b.recv().expect("delivered");
/// assert_eq!(msg.src, NodeId(0));
/// assert_eq!(msg.payload, &b"no connection setup required"[..]);
/// ```
pub struct Endpoint {
    nid: NodeId,
    /// What the core delivered. Its doorbell is the one `recv`/`flush` park
    /// on: the link's, except for a standalone NIC-thread endpoint, which
    /// has one of its own.
    incoming: Arc<DoorbellQueue<Delivery>>,
    /// Per-source accumulators folding streamed fragments back into whole
    /// messages for the message-level `recv` API. Consumers that take raw
    /// deliveries via [`Endpoint::pop_delivery`] (the Portals engine) never
    /// touch this.
    reasm: Mutex<std::collections::HashMap<NodeId, Gather>>,
    /// Driver-hub handle for this node (register / service peers).
    hub: DriverHub,
    stats: Arc<TransportStats>,
    flow: Arc<FlowStats>,
    outstanding: Arc<AtomicUsize>,
    mode: ProgressMode,
    /// Shared with this endpoint's NIC thread or — caller-driven — registered
    /// (through a `Weak`) as its cooperative [`NodeDriver`] for peers' waits.
    stepper: Arc<Stepper>,
    /// A standalone NIC-thread endpoint's own thread. `None` when callers
    /// step, and when a node above runs [`Endpoint::nic_loop`] on its thread.
    nic_thread: Option<JoinHandle<()>>,
}

/// The core under its lock, plus what stepping it needs lock-free.
struct Stepper {
    core: Mutex<ProgressCore>,
    /// The NIC's readiness doorbell, shared with the link and the layers
    /// above: the NIC thread and caller-driven waits park on it.
    readiness: Arc<Readiness>,
    /// Next deadline the core published (`DEADLINE_NONE` when idle).
    deadline_ns: Arc<AtomicU64>,
    /// Longest park of the NIC thread (see [`Stepper::run`]).
    rto_base: Duration,
    /// Cleared on drop to stop a standalone endpoint's NIC thread.
    alive: AtomicBool,
}

impl Stepper {
    /// One step, in the order every progress mode shares: step the core, run
    /// `dispatch` over what the step delivered with the core lock released
    /// (the engine re-enters [`Endpoint::send`], where an owed ack rides on
    /// the first data to its peer), then send the acks still owed. The step
    /// reports whether it left any while it still holds the lock, so the
    /// flush takes the lock again only then. Returns whether the step or
    /// `dispatch` did any work.
    ///
    /// Without `blocking` a busy core skips the step — correct for a waiter:
    /// the holder is stepping (and will flush), or is a submitter — but not
    /// the dispatch, which may have deliveries from another step to run.
    fn step_then(&self, blocking: bool, dispatch: impl FnOnce() -> bool) -> bool {
        let core = if blocking {
            Some(self.core.lock())
        } else {
            self.core.try_lock()
        };
        let (worked, owed) = core.map_or((false, false), |mut core| {
            let worked = core.progress_once();
            (worked, core.owes_acks())
        });
        let dispatched = dispatch();
        if owed {
            self.core.lock().flush_acks();
        }
        worked || dispatched
    }

    /// Step the core, and ack what that delivered, if no other thread is
    /// inside it.
    fn progress_once(&self) -> bool {
        self.step_then(false, || false)
    }

    fn next_deadline(&self) -> Option<Instant> {
        match self.deadline_ns.load(Ordering::Acquire) {
            DEADLINE_NONE => None,
            ns => Some(ns_to_instant(ns)),
        }
    }

    fn timer_due(&self) -> bool {
        let deadline = self.deadline_ns.load(Ordering::Acquire);
        deadline != DEADLINE_NONE && deadline <= instant_to_ns(Instant::now())
    }

    /// The NIC thread: step the core, run `dispatch` on what that delivered
    /// with the core lock released (the engine re-enters [`Endpoint::send`]),
    /// send the step's acks ([`Stepper::step_then`]), then park on the
    /// doorbell until it rings or a timer is due.
    ///
    /// The doorbell sequence is read before the step, so a datagram landing
    /// after it makes the park return at once. Submitting callers do *not*
    /// ring: a timer one arms during the park is due no earlier than the
    /// park's start plus `rto_base`, which therefore bounds every park.
    fn run(&self, alive: &AtomicBool, mut dispatch: impl FnMut()) {
        loop {
            let observed = self.readiness.seq();
            if !alive.load(Ordering::Acquire) {
                return;
            }
            let started = Instant::now();
            // Blocking, never `try_lock`: the holder may be a submitter, which
            // drains nothing — skipping would strand the datagram that rang.
            self.step_then(true, || {
                dispatch();
                false
            });
            let mut bound = started + self.rto_base;
            if let Some(next) = self.next_deadline() {
                bound = bound.min(next);
            }
            self.readiness
                .wait(observed, bound.saturating_duration_since(Instant::now()));
        }
    }
}

impl NodeDriver for Stepper {
    fn service(&self) -> bool {
        self.progress_once()
    }

    fn has_work(&self) -> bool {
        self.readiness.peek() & Readiness::INBOUND != 0 || self.timer_due()
    }
}

/// Park bound while waiting with no nearer deadline: covers cross-node
/// events this node cannot predict (e.g. a peer arming a retransmission
/// timer toward us after we parked).
const PARK_CAP: Duration = Duration::from_millis(1);

/// Consecutive idle loop iterations before a caller-driven wait parks. Each
/// iteration is a handful of atomics (~100 ns), so this approximates the
/// "spin ~20 µs, then park" budget from the design notes: short enough to
/// waste nothing measurable, long enough that a ping-pong RTT never pays the
/// ~220 ns unpark. Reduced to zero on single-CPU hosts, where spinning only
/// steals the timeslice the producer needs (see [`portals_types::spin_budget`]).
const SPIN_ITERS: u32 = 200;

impl Endpoint {
    /// Wrap a [`Link`] (the in-process fabric's [`Nic`](portals_net::Nic), a
    /// UDP socket, …) in a reliable endpoint. In `CallerDriven` mode there is
    /// no thread and the calling threads drive the protocol from
    /// `recv`/`flush`; otherwise this spawns the NIC thread.
    pub fn new(link: impl Link, cfg: TransportConfig) -> Endpoint {
        Endpoint::with_obs(link, cfg, Obs::default())
    }

    /// Like [`Endpoint::new`], registering the `transport.*` counters in
    /// `obs.registry` and emitting lifecycle trace events through
    /// `obs.tracer`.
    ///
    /// The link's [`LinkCaps`] get the last word on two things: a wire that
    /// can corrupt bytes in flight has DATA packet CRCs cover the body, and
    /// the MTU — a follow-the-link `mtu = 0` resolves to the wire's
    /// `preferred_mtu` (or [`TransportConfig::DEFAULT_MTU`]), and a wire with
    /// a hard datagram bound clamps it so every DATA packet (header + body)
    /// fits in one datagram.
    pub fn with_obs(link: impl Link, cfg: TransportConfig, obs: Obs) -> Endpoint {
        // Beside a NIC thread the caller waits for deliveries alone, on a
        // doorbell of its own: a datagram (an ack among them) wakes the NIC
        // thread only, and the delivery it produces wakes the caller.
        let own_doorbell = !cfg.progress_mode.is_caller_driven();
        let mut endpoint = Endpoint::build(link, cfg, obs, own_doorbell);
        let stepper = Arc::clone(&endpoint.stepper);
        if endpoint.mode.is_caller_driven() {
            // Volunteer for cooperative servicing so peers' wait loops keep
            // this endpoint's protocol moving while nothing here blocks.
            endpoint
                .hub
                .register(Arc::downgrade(&stepper) as Weak<dyn NodeDriver>);
        } else {
            endpoint.nic_thread = Some(
                std::thread::Builder::new()
                    .name(format!("portals-nic-{}", endpoint.nid.0))
                    .spawn(move || stepper.run(&stepper.alive, || {}))
                    .expect("spawn NIC thread"),
            );
        }
        endpoint
    }

    /// [`Endpoint::with_obs`] for a node that brings its own NIC thread and
    /// its own cooperative driver: nothing steps this endpoint until the node
    /// runs [`Endpoint::nic_loop`] or, caller-driven, registers a driver with
    /// [`Endpoint::hub`].
    #[doc(hidden)]
    pub fn for_node(link: impl Link, cfg: TransportConfig, obs: Obs) -> Endpoint {
        Endpoint::build(link, cfg, obs, false)
    }

    /// The endpoint, with nothing stepping it yet; its delivery queue rings
    /// the link's doorbell unless `own_doorbell`.
    fn build(link: impl Link, mut cfg: TransportConfig, obs: Obs, own_doorbell: bool) -> Endpoint {
        let link: Box<dyn Link> = Box::new(link);
        let LinkCaps {
            hub,
            max_datagram,
            preferred_mtu,
            body_checksum,
        } = link.caps();
        if cfg.mtu == 0 {
            cfg.mtu = preferred_mtu.unwrap_or(TransportConfig::DEFAULT_MTU);
        }
        if let Some(max) = max_datagram {
            let body_max = max.saturating_sub(Packet::DATA_HEADER_SIZE).max(1);
            cfg.mtu = cfg.mtu.min(body_max);
        }
        let nid = link.nid();
        let readiness = Arc::clone(link.inbound_receiver().readiness());
        let delivered_on = if own_doorbell {
            Arc::new(Readiness::new())
        } else {
            Arc::clone(&readiness)
        };
        let incoming = Arc::new(DoorbellQueue::new(delivered_on, Readiness::DELIVERED));
        let stats = Arc::new(TransportStats::new(&obs.registry, nid.0));
        let flow = Arc::new(FlowStats::new(&obs.registry, nid.0));
        let outstanding = Arc::new(AtomicUsize::new(0));
        let deadline_ns = Arc::new(AtomicU64::new(DEADLINE_NONE));
        let core = ProgressCore::new(
            link,
            cfg,
            body_checksum,
            obs,
            Arc::clone(&incoming),
            Arc::clone(&stats),
            Arc::clone(&flow),
            Arc::clone(&outstanding),
            Arc::clone(&deadline_ns),
        );
        let stepper = Arc::new(Stepper {
            core: Mutex::new(core),
            readiness,
            deadline_ns,
            rto_base: cfg.rto_base,
            alive: AtomicBool::new(true),
        });
        Endpoint {
            nid,
            incoming,
            reasm: Mutex::new(std::collections::HashMap::new()),
            hub,
            stats,
            flow,
            outstanding,
            mode: cfg.progress_mode,
            stepper,
            nic_thread: None,
        }
    }

    /// The NIC thread's loop, for the node that owns the thread: until
    /// `alive` clears (ring the doorbell after clearing it), step, run
    /// `dispatch` over what that delivered, send the step's acks, park on the
    /// doorbell.
    #[doc(hidden)]
    pub fn nic_loop(&self, alive: &AtomicBool, dispatch: impl FnMut()) {
        self.stepper.run(alive, dispatch)
    }

    /// A caller-driven node's step: [`Endpoint::progress_once`] with
    /// `dispatch` run over what it delivered before the step's acks leave.
    /// Returns whether the step or `dispatch` did any work.
    #[doc(hidden)]
    pub fn progress_then(&self, dispatch: impl FnOnce() -> bool) -> bool {
        self.stepper.step_then(false, dispatch)
    }

    /// Endpoint with default configuration.
    pub fn with_defaults(link: impl Link) -> Endpoint {
        Endpoint::new(link, TransportConfig::default())
    }

    /// The node this endpoint is bound to.
    #[inline]
    pub fn nid(&self) -> NodeId {
        self.nid
    }

    /// Queue `msg` for reliable, ordered delivery to `dst`.
    ///
    /// The message passes from this stack frame straight into the transport
    /// state machines and onto the wire — the pointer-passing submission
    /// path, in both progress modes; the call runs the fragmentation inline
    /// but never waits for acknowledgment.
    ///
    /// Accepts anything convertible to a [`Gather`] — a `Gather` of region
    /// views travels to the wire without its payload ever being copied.
    pub fn send(&self, dst: NodeId, msg: impl Into<Gather>) {
        self.stepper.core.lock().on_send(dst, msg.into())
    }

    /// Fold one delivery into the per-source reassembly state; a completed
    /// message comes back out.
    fn fold(&self, delivery: Delivery) -> Option<IncomingMessage> {
        match delivery {
            Delivery::Message(m) => Some(m),
            Delivery::Fragment(f) => {
                let mut reasm = self.reasm.lock();
                let acc = reasm.entry(f.src).or_default();
                // The receiver peer enforces this before releasing a slice.
                debug_assert_eq!(acc.len() as u64, f.offset);
                let last = f.last;
                acc.append(f.payload);
                if last {
                    let payload = reasm.remove(&f.src).expect("just inserted");
                    Some(IncomingMessage {
                        src: f.src,
                        payload,
                    })
                } else {
                    None
                }
            }
            Delivery::Abandoned { src } => {
                self.reasm.lock().remove(&src);
                None
            }
        }
    }

    /// Drain queued deliveries until one completes a message (non-blocking).
    fn pop_message(&self) -> Option<IncomingMessage> {
        loop {
            if let Some(m) = self.fold(self.pop_delivery()?) {
                return Some(m);
            }
        }
    }

    /// Block until a message arrives. In caller-driven mode the wait drives
    /// protocol progress (own core, peers, wire pump) between parks.
    pub fn recv(&self) -> Option<IncomingMessage> {
        self.recv_until(None)
    }

    /// Non-blocking receive. In caller-driven mode one progress step runs
    /// first, so "poll until something arrives" loops make progress.
    pub fn try_recv(&self) -> Option<IncomingMessage> {
        let queued = self.incoming.readiness().peek() & Readiness::DELIVERED != 0;
        if self.mode.is_caller_driven() && !queued {
            self.progress_once();
        }
        self.pop_message()
    }

    /// Receive with a deadline. Caller-driven waits drive progress.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<IncomingMessage> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Option<IncomingMessage> {
        let spin = portals_types::spin_budget(SPIN_ITERS);
        self.drive_until(deadline, spin, Endpoint::pop_message)
    }

    /// The wait loop: step own core (unless a NIC thread does) → check →
    /// service peers → bounded spin → park on the delivery queue's doorbell.
    ///
    /// Lost-wakeup safety: the doorbell sequence is read *before* the
    /// progress step and predicate check, and the park returns immediately
    /// if it moved — a completion landing anywhere in between bumps it.
    fn drive_until<T>(
        &self,
        deadline: Option<Instant>,
        spin_iters: u32,
        mut check: impl FnMut(&Endpoint) -> Option<T>,
    ) -> Option<T> {
        let stepping = self.mode.is_caller_driven();
        let doorbell = self.incoming.readiness();
        let mut idle_iters: u32 = 0;
        loop {
            let observed = doorbell.seq();
            let worked = stepping && self.progress_once();
            if let Some(v) = check(self) {
                return Some(v);
            }
            if worked {
                idle_iters = 0;
                continue;
            }
            // Peers normally have their own blocked caller driving them;
            // stepping them every iteration makes two waiters contend on each
            // other's core locks. A decimated cadence (plus once at the park
            // boundary) keeps single-threaded simulations live without that
            // interference.
            idle_iters += 1;
            let parking = idle_iters > spin_iters;
            if stepping && (parking || idle_iters % 32 == 0) && self.hub.service_peers() {
                idle_iters = 0;
                continue;
            }
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    return None;
                }
            }
            if !parking {
                std::hint::spin_loop();
                continue;
            }
            idle_iters = 0;
            let mut bound = now + PARK_CAP;
            if let (true, Some(next)) = (stepping, self.next_deadline()) {
                // Only a waiter that fires the timers itself wakes for them.
                bound = bound.min(next.max(now));
            }
            if let Some(d) = deadline {
                bound = bound.min(d);
            }
            doorbell.wait(observed, bound.saturating_duration_since(now));
        }
    }

    /// Pop the next raw delivery — a whole message, or one streamed
    /// fragment of a larger one — for engines that place fragments as they
    /// arrive. The pop is reported to the core, which sheds inbound credit
    /// against the message-unit backlog (`messages_delivered -
    /// messages_consumed`): whole messages and last fragments count one unit
    /// each, intermediate fragments are free.
    pub fn pop_delivery(&self) -> Option<Delivery> {
        let delivery = self.incoming.try_recv().ok()?;
        let unit = match &delivery {
            Delivery::Message(_) => true,
            Delivery::Fragment(f) => f.last,
            Delivery::Abandoned { .. } => false,
        };
        if unit {
            self.stats.messages_consumed.inc();
        }
        Some(delivery)
    }

    /// Fragments queued or in flight (0 means everything sent so far has been
    /// acknowledged).
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Wait until all queued traffic is acknowledged or `timeout` elapses.
    /// Returns true on success. The wait parks on the doorbell, `PARK_CAP` at
    /// a time, and drives progress itself only when no NIC thread does.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // No spin: the acks come from threads that may need this CPU. And no
        // ring from the step that takes the last ack: it would cost every
        // caller-driven waiter an idle turn per ack (DESIGN.md §6f).
        self.drive_until(Some(deadline), 0, |ep| {
            (ep.outstanding() == 0).then_some(())
        })
        .is_some()
    }

    /// Step this endpoint's protocol state machines once from the calling
    /// thread, unless another thread is inside them. Returns `true` if any
    /// datagram was processed. Beside a NIC thread nothing needs to call it.
    pub fn progress_once(&self) -> bool {
        self.stepper.progress_once()
    }

    /// The progress mode this endpoint was built with.
    pub fn progress_mode(&self) -> ProgressMode {
        self.mode
    }

    /// This node's readiness doorbell. Layers above raise their own bits
    /// (e.g. [`Readiness::EVENT`]) on it so one park covers every work class.
    pub fn readiness(&self) -> Arc<Readiness> {
        Arc::clone(&self.stepper.readiness)
    }

    /// The fabric driver-hub handle for this node, for registering a
    /// higher-level cooperative driver and servicing peers from wait loops.
    pub fn hub(&self) -> DriverHub {
        self.hub.clone()
    }

    /// Next deadline the protocol needs the caller back by (nearest
    /// retransmission timer or scheduled wire delivery), as published by the
    /// last progress step. `None` when idle.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.stepper.next_deadline()
    }

    /// True when [`Endpoint::next_deadline`] is due — i.e. a progress step
    /// would fire timers or deliver wire packets right now.
    pub fn timer_due(&self) -> bool {
        self.stepper.timer_due()
    }

    /// Snapshot the transport counters.
    pub fn stats(&self) -> TransportStatsSnapshot {
        self.stats.snapshot()
    }

    /// Snapshot the credit flow-control counters.
    pub fn flow_stats(&self) -> FlowStatsSnapshot {
        self.flow.snapshot()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.stepper.alive.store(false, Ordering::Release);
        self.stepper.readiness.ring();
        if let Some(handle) = self.nic_thread.take() {
            let _ = handle.join();
        }
        // Withdraw from cooperative servicing before the core (and the NIC
        // inside it) is torn down. The `Weak` registration would go dead
        // anyway; this just prunes it eagerly.
        self.hub.unregister();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
    use portals_types::Gather;
    use portals_wire::Packet;
    use std::time::Duration;

    fn pair(fabric: &Fabric, cfg: TransportConfig) -> (Endpoint, Endpoint) {
        let a = Endpoint::new(fabric.attach(NodeId(0)), cfg);
        let b = Endpoint::new(fabric.attach(NodeId(1)), cfg);
        (a, b)
    }

    #[test]
    fn basic_send_recv() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        a.send(NodeId(1), Gather::copy_from_slice(b"hello"));
        let m = b.recv_timeout(Duration::from_secs(5)).expect("message");
        assert_eq!(m.src, NodeId(0));
        assert_eq!(m.payload, &b"hello"[..]);
    }

    #[test]
    fn nic_thread_recv_parks_on_a_doorbell_of_its_own() {
        // The caller parks on its delivery queue's doorbell, not on the one
        // the link rings for every datagram: the delivery push that follows
        // the NIC thread's step is what wakes it, and an ack arriving for
        // its own send does not.
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        assert!(!Arc::ptr_eq(b.incoming.readiness(), &b.stepper.readiness));
        let delivered_seq = b.incoming.readiness().seq();
        b.send(NodeId(0), Gather::copy_from_slice(b"acked"));
        assert!(a.recv_timeout(Duration::from_secs(5)).is_some());
        assert!(b.flush(Duration::from_secs(5)), "the ack came back");
        assert_eq!(b.incoming.readiness().seq(), delivered_seq);
        a.send(NodeId(1), Gather::copy_from_slice(b"before the call"));
        let m = b.recv_timeout(Duration::from_secs(5)).expect("queued");
        assert_eq!(m.payload, &b"before the call"[..]);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                a.send(NodeId(1), Gather::copy_from_slice(b"into the park"));
            });
            let m = b.recv_timeout(Duration::from_secs(5)).expect("woken");
            assert_eq!(m.payload, &b"into the park"[..]);
        });
        assert!(b.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn zero_length_message() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        a.send(NodeId(1), Gather::new());
        let m = b.recv_timeout(Duration::from_secs(5)).expect("message");
        assert!(m.payload.is_empty());
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let fabric = Fabric::ideal();
        let cfg = TransportConfig {
            mtu: 1024,
            ..Default::default()
        };
        let (a, b) = pair(&fabric, cfg);
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        a.send(NodeId(1), Gather::from_vec(payload.clone()));
        let m = b.recv_timeout(Duration::from_secs(10)).expect("message");
        assert_eq!(m.payload, &payload[..]);
        assert!(a.stats().data_packets_sent >= 98, "expected ~98 fragments");
    }

    #[test]
    fn many_messages_stay_ordered() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        for i in 0..500u32 {
            a.send(NodeId(1), Gather::from_vec(i.to_le_bytes().to_vec()));
        }
        for i in 0..500u32 {
            let m = b.recv_timeout(Duration::from_secs(5)).expect("message");
            assert_eq!(
                u32::from_le_bytes(m.payload.to_vec()[..].try_into().unwrap()),
                i
            );
        }
    }

    #[test]
    fn bidirectional_traffic() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        for i in 0..50u8 {
            a.send(NodeId(1), Gather::from_vec(vec![i]));
            b.send(NodeId(0), Gather::from_vec(vec![100 + i]));
        }
        for i in 0..50u8 {
            assert_eq!(
                b.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .payload
                    .to_bytes()[0],
                i
            );
            assert_eq!(
                a.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .payload
                    .to_bytes()[0],
                100 + i
            );
        }
    }

    #[test]
    fn survives_packet_loss() {
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan::lossy(0.3))
            .with_seed(7)
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            mtu: 512,
            rto_base: Duration::from_millis(5),
            ..Default::default()
        };
        let (a, b) = pair(&fabric, tcfg);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 7) as u8).collect();
        for _ in 0..5 {
            a.send(NodeId(1), Gather::from_vec(payload.clone()));
        }
        for _ in 0..5 {
            let m = b
                .recv_timeout(Duration::from_secs(30))
                .expect("lossy delivery");
            assert_eq!(m.payload, &payload[..]);
        }
        assert!(
            a.stats().retransmissions > 0,
            "loss must have forced retransmissions"
        );
        assert!(
            a.stats().resend_bytes > 0,
            "retransmissions must account the wire bytes they resent"
        );
    }

    #[test]
    fn survives_duplication_and_jitter() {
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan {
                loss_probability: 0.05,
                duplicate_probability: 0.2,
                max_jitter: Duration::from_micros(200),
            })
            .with_seed(11)
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            mtu: 256,
            rto_base: Duration::from_millis(5),
            ..Default::default()
        };
        let (a, b) = pair(&fabric, tcfg);
        for i in 0..50u32 {
            a.send(NodeId(1), Gather::from_vec(vec![i as u8; 700]));
        }
        for i in 0..50u32 {
            let m = b
                .recv_timeout(Duration::from_secs(30))
                .expect("delivery under faults");
            assert_eq!(
                m.payload.to_bytes()[0],
                i as u8,
                "messages must stay ordered"
            );
            assert_eq!(m.payload.len(), 700);
        }
    }

    #[test]
    fn partition_then_heal_recovers() {
        let cfg = FabricConfig::default().with_link(LinkModel {
            latency: Duration::from_micros(5),
            bandwidth_bytes_per_sec: f64::INFINITY,
            per_packet_overhead: Duration::ZERO,
        });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            rto_base: Duration::from_millis(5),
            ..Default::default()
        };
        let (a, b) = pair(&fabric, tcfg);
        fabric.partition(NodeId(0), NodeId(1));
        a.send(NodeId(1), Gather::copy_from_slice(b"delayed"));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        fabric.heal(NodeId(0), NodeId(1));
        let m = b
            .recv_timeout(Duration::from_secs(10))
            .expect("delivery after heal");
        assert_eq!(m.payload, &b"delayed"[..]);
    }

    #[test]
    fn flush_waits_for_acks() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        for _ in 0..20 {
            a.send(NodeId(1), Gather::from_vec(vec![0u8; 10_000]));
        }
        assert!(a.flush(Duration::from_secs(10)), "flush timed out");
        assert_eq!(a.outstanding(), 0);
        let mut n = 0;
        while b.recv_timeout(Duration::from_millis(200)).is_some() {
            n += 1;
        }
        assert_eq!(n, 20);
    }

    #[test]
    fn window_backpressure_does_not_deadlock() {
        // Window of 2 with many fragments: pending queue must drain via acks.
        let fabric = Fabric::ideal();
        let tcfg = TransportConfig {
            mtu: 64,
            window: 2,
            ..Default::default()
        };
        let (a, b) = pair(&fabric, tcfg);
        a.send(NodeId(1), Gather::from_vec(vec![9u8; 64 * 50]));
        let m = b
            .recv_timeout(Duration::from_secs(10))
            .expect("windowed message");
        assert_eq!(m.payload.len(), 64 * 50);
    }

    #[test]
    fn unreachable_peer_is_reported_stalled() {
        let fabric = Fabric::ideal();
        let tcfg = TransportConfig {
            rto_base: Duration::from_millis(1),
            stall_retries: 3,
            ..Default::default()
        };
        let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
        let _b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
        fabric.partition(NodeId(0), NodeId(1));
        a.send(NodeId(1), Gather::copy_from_slice(b"into the void"));
        // The transport keeps retrying but flags the stall.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while a.stats().peers_stalled == 0 {
            assert!(std::time::Instant::now() < deadline, "stall never reported");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(a.outstanding() > 0, "message still queued");
        let stats = a.stats();
        assert!(stats.retransmissions >= 3);
        // Every retransmission resent the whole (header + 13-byte body) packet.
        assert_eq!(
            stats.resend_bytes,
            stats.retransmissions * (Packet::DATA_HEADER_SIZE + 13) as u64
        );
    }

    #[test]
    fn delivery_resumes_after_stall() {
        let fabric = Fabric::ideal();
        let tcfg = TransportConfig {
            rto_base: Duration::from_millis(1),
            stall_retries: 2,
            ..Default::default()
        };
        let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
        let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
        fabric.partition(NodeId(0), NodeId(1));
        a.send(NodeId(1), Gather::copy_from_slice(b"patient"));
        std::thread::sleep(Duration::from_millis(30)); // well past the stall
        fabric.heal(NodeId(0), NodeId(1));
        let m = b
            .recv_timeout(Duration::from_secs(10))
            .expect("post-stall delivery");
        assert_eq!(m.payload, &b"patient"[..]);
        assert!(a.flush(Duration::from_secs(5)));
        // Stall accounting: progress after the stall must un-mark the peer.
        let stats = a.stats();
        assert_eq!(stats.peers_stalled, 1);
        assert_eq!(stats.peers_recovered, 1);
        assert_eq!(stats.peers_stalled_now, 0);
    }

    #[test]
    fn stalled_peer_recovers_after_lossy_burst() {
        // Regression (stall accounting): a lossy burst stalls the peer;
        // go-back-N recovery then acks the window incrementally, so recovery
        // arrives as *partial* progress. The stall must clear on the first
        // progress, and the stalled/recovered counters must reconcile.
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan::lossy(0.75))
            .with_seed(42)
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            mtu: 256,
            rto_base: Duration::from_millis(1),
            stall_retries: 2,
            ..Default::default()
        };
        let (a, b) = pair(&fabric, tcfg);
        for i in 0..10u32 {
            a.send(NodeId(1), Gather::from_vec(vec![i as u8; 2000]));
        }
        for i in 0..10u32 {
            let m = b
                .recv_timeout(Duration::from_secs(60))
                .expect("delivery through the lossy burst");
            assert_eq!(m.payload.to_bytes()[0], i as u8);
        }
        assert!(a.flush(Duration::from_secs(30)));
        let stats = a.stats();
        // 75% loss with a 1ms RTO and a stall threshold of 2 makes at least
        // one stall overwhelmingly likely; the assertions that matter are the
        // reconciliations below, which hold regardless.
        assert!(stats.peers_stalled >= 1, "burst never stalled the peer");
        assert_eq!(
            stats.peers_recovered, stats.peers_stalled,
            "every stall must be matched by exactly one recovery"
        );
        assert_eq!(stats.peers_stalled_now, 0, "no peer may stay marked");
    }

    /// Pre-load the receiver's inbound channel with `frags` fragments (one
    /// message) before its NIC thread exists, then start the endpoint and
    /// return its stats after delivery. Deterministic: the first wakeup sees
    /// the whole burst already queued.
    fn burst_then_start_receiver(cfg: TransportConfig, frags: u64) -> TransportStatsSnapshot {
        let fabric = Fabric::ideal();
        let rx_nic = fabric.attach(NodeId(1));
        let a = Endpoint::new(fabric.attach(NodeId(0)), cfg);
        a.send(
            NodeId(1),
            Gather::from_vec(vec![5u8; cfg.mtu * frags as usize]),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fabric.stats().packets_delivered < frags {
            assert!(std::time::Instant::now() < deadline, "burst never queued");
            std::thread::yield_now();
        }
        let b = Endpoint::new(rx_nic, cfg);
        let m = b
            .recv_timeout(Duration::from_secs(5))
            .expect("burst message");
        assert_eq!(m.payload.len(), cfg.mtu * frags as usize);
        assert!(a.flush(Duration::from_secs(5)));
        b.stats()
    }

    #[test]
    fn batched_receiver_coalesces_acks() {
        let cfg = TransportConfig {
            mtu: 64,
            window: 128,
            ..Default::default()
        };
        let sb = burst_then_start_receiver(cfg, 64);
        // One wakeup drains the entire 64-fragment burst: one cumulative ACK
        // covers it, the other 63 are subsumed.
        assert_eq!(sb.acks_sent, 1);
        assert_eq!(sb.acks_coalesced, 63);
    }

    #[test]
    fn zero_credit_start_converges_end_to_end() {
        // With no initial credits nothing may move until a PROBE solicits the
        // receiver's advertised window; after that the stream flows normally.
        let fabric = Fabric::ideal();
        let cfg = TransportConfig {
            rto_base: Duration::from_millis(1),
            initial_credits: 0,
            ..Default::default()
        };
        let (a, b) = pair(&fabric, cfg);
        for i in 0..20u8 {
            a.send(NodeId(1), Gather::from_vec(vec![i; 100]));
        }
        for i in 0..20u8 {
            let m = b.recv_timeout(Duration::from_secs(10)).expect("delivery");
            assert_eq!(m.payload.to_bytes()[0], i);
        }
        assert!(a.flush(Duration::from_secs(5)));
        let f = a.flow_stats();
        assert!(f.probes_sent >= 1, "zero-credit start must probe");
        assert!(f.credit_stalls >= 1);
        assert_eq!(
            f.credit_stalls, f.credit_resumes,
            "every credit stall must be matched by exactly one resume"
        );
        assert_eq!(f.credit_blocked_now, 0);
        assert!(f.credits_granted >= 20, "acks must have granted credits");
        assert!(b.flow_stats().probes_received >= 1);
    }

    #[test]
    fn tight_credit_window_still_delivers_under_loss() {
        // Credits binding tighter than the go-back-N window must not break
        // reliability on a lossy link (probes and acks are droppable too).
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan::lossy(0.2))
            .with_seed(13)
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            mtu: 128,
            rto_base: Duration::from_millis(2),
            credit_window: 4,
            initial_credits: 2,
            ..Default::default()
        };
        let (a, b) = pair(&fabric, tcfg);
        let payload: Vec<u8> = (0..4_000u32).map(|i| (i * 3) as u8).collect();
        for _ in 0..5 {
            a.send(NodeId(1), Gather::from_vec(payload.clone()));
        }
        for _ in 0..5 {
            let m = b
                .recv_timeout(Duration::from_secs(30))
                .expect("credit-gated lossy delivery");
            assert_eq!(m.payload, &payload[..]);
        }
    }

    fn caller_cfg() -> TransportConfig {
        TransportConfig {
            progress_mode: portals_types::ProgressMode::CallerDriven,
            ..Default::default()
        }
    }

    #[test]
    fn caller_driven_basic_send_recv() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, caller_cfg());
        assert_eq!(a.progress_mode(), portals_types::ProgressMode::CallerDriven);
        // The caller steps, so it parks where datagrams ring.
        assert!(Arc::ptr_eq(b.incoming.readiness(), &b.stepper.readiness));
        a.send(NodeId(1), Gather::copy_from_slice(b"threadless"));
        let m = b.recv_timeout(Duration::from_secs(5)).expect("message");
        assert_eq!(m.src, NodeId(0));
        assert_eq!(m.payload, &b"threadless"[..]);
        assert!(a.flush(Duration::from_secs(5)), "acks drain via caller");
    }

    #[test]
    fn caller_driven_fragments_and_stays_ordered() {
        let fabric = Fabric::ideal();
        let cfg = TransportConfig {
            mtu: 256,
            ..caller_cfg()
        };
        let (a, b) = pair(&fabric, cfg);
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        for _ in 0..5 {
            a.send(NodeId(1), Gather::from_vec(payload.clone()));
        }
        for _ in 0..5 {
            let m = b.recv_timeout(Duration::from_secs(10)).expect("message");
            assert_eq!(m.payload, &payload[..]);
        }
        assert!(a.flush(Duration::from_secs(5)));
    }

    #[test]
    fn caller_driven_survives_loss_on_caller_pumped_wire() {
        // The full threadless configuration: no NIC threads, no wire
        // scheduler thread — retransmission recovery must run entirely from
        // the receiving caller's wait loop (which services the sender's core
        // cooperatively and pumps the wire).
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan::lossy(0.3))
            .with_seed(7)
            .with_caller_driven_wire(true)
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            mtu: 512,
            rto_base: Duration::from_millis(5),
            ..caller_cfg()
        };
        let (a, b) = pair(&fabric, tcfg);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 7) as u8).collect();
        for _ in 0..5 {
            a.send(NodeId(1), Gather::from_vec(payload.clone()));
        }
        for _ in 0..5 {
            let m = b
                .recv_timeout(Duration::from_secs(30))
                .expect("lossy threadless delivery");
            assert_eq!(m.payload, &payload[..]);
        }
        assert!(a.flush(Duration::from_secs(10)));
        assert!(
            a.stats().retransmissions > 0,
            "loss must have forced retransmissions"
        );
    }

    #[test]
    fn caller_driven_blocking_recv_wakes_from_another_thread() {
        // A parked caller-driven receiver must be unparked by a completion
        // produced on a different thread (the park/unpark protocol, full
        // stack). Loop it to hammer the check-then-park boundary.
        let fabric = Fabric::ideal();
        let a = Arc::new(Endpoint::new(fabric.attach(NodeId(0)), caller_cfg()));
        let b = Arc::new(Endpoint::new(fabric.attach(NodeId(1)), caller_cfg()));
        for i in 0..200u32 {
            let a2 = Arc::clone(&a);
            let sender = std::thread::spawn(move || {
                a2.send(NodeId(1), Gather::from_vec(i.to_le_bytes().to_vec()));
            });
            let m = b.recv_timeout(Duration::from_secs(5)).expect("wakeup");
            assert_eq!(
                u32::from_le_bytes(m.payload.to_vec()[..].try_into().unwrap()),
                i
            );
            sender.join().unwrap();
        }
    }

    #[test]
    fn caller_driven_publishes_retransmission_deadline() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, caller_cfg());
        assert!(a.next_deadline().is_none(), "idle endpoint has no deadline");
        fabric.partition(NodeId(0), NodeId(1));
        a.send(NodeId(1), Gather::copy_from_slice(b"void"));
        assert!(
            a.next_deadline().is_some(),
            "unacked send must publish its retransmission deadline"
        );
        drop(b);
    }

    /// A [`Link`] wrapper that reports real-wire properties (a datagram
    /// bound, possible corruption) over the in-process fabric — exercises the
    /// knob-forcing in `with_obs` without a socket.
    struct BoundedLossyWire {
        nic: portals_net::Nic,
        max_datagram: usize,
    }

    impl Link for BoundedLossyWire {
        fn nid(&self) -> NodeId {
            Link::nid(&self.nic)
        }
        fn send(&self, dst: NodeId, payload: Gather) {
            assert!(
                payload.len() <= self.max_datagram,
                "transport must never emit a datagram over the link's bound \
                 ({} > {})",
                payload.len(),
                self.max_datagram
            );
            Link::send(&self.nic, dst, payload)
        }
        fn inbound_receiver(&self) -> Arc<DoorbellQueue<portals_net::Datagram>> {
            Link::inbound_receiver(&self.nic)
        }
        fn caps(&self) -> LinkCaps {
            LinkCaps {
                max_datagram: Some(self.max_datagram),
                body_checksum: true,
                ..self.nic.caps()
            }
        }
    }

    #[test]
    fn link_bounds_clamp_mtu_and_force_body_crc() {
        let fabric = Fabric::ideal();
        let max = 256;
        let a = Endpoint::new(
            BoundedLossyWire {
                nic: fabric.attach(NodeId(0)),
                max_datagram: max,
            },
            TransportConfig::default(), // default mtu (8 KiB) must be clamped
        );
        let b = Endpoint::new(
            BoundedLossyWire {
                nic: fabric.attach(NodeId(1)),
                max_datagram: max,
            },
            TransportConfig::default(),
        );
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 13) as u8).collect();
        a.send(NodeId(1), Gather::from_vec(payload.clone()));
        let m = b.recv_timeout(Duration::from_secs(10)).expect("clamped");
        assert_eq!(m.payload, &payload[..]);
        // The clamp forces fragmentation: body_max = max - DATA_HEADER_SIZE.
        let frags = 10_000usize.div_ceil(max - Packet::DATA_HEADER_SIZE) as u64;
        assert!(a.stats().data_packets_sent >= frags);
        // Body CRC was forced on: every DATA packet decodes with coverage.
        assert_eq!(a.stats().checksum_rejects, 0);
        assert_eq!(b.stats().checksum_rejects, 0);
    }

    #[test]
    fn corrupted_datagram_is_counted_and_recovered() {
        // Inject a raw corrupted DATA packet alongside real traffic: the
        // receiver must reject it (counted) and the stream must still
        // converge byte-identically.
        let fabric = Fabric::ideal();
        let raw = fabric.attach(NodeId(2));
        let (a, b) = pair(&fabric, TransportConfig::default());
        // A plausible-but-corrupt packet: valid encode, one body byte
        // flipped after the CRC was computed (covered encode).
        let pkt = Packet::data(0, 0, 0, 0, 1, Gather::copy_from_slice(b"evil payload"));
        let mut bytes = pkt.encode_with(true).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        raw.send(NodeId(1), Gather::from_vec(bytes));
        a.send(NodeId(1), Gather::copy_from_slice(b"clean"));
        let m = b.recv_timeout(Duration::from_secs(5)).expect("clean msg");
        assert_eq!(m.payload, &b"clean"[..]);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.stats().checksum_rejects == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "corrupt packet never counted"
            );
            std::thread::yield_now();
        }
        assert_eq!(b.stats().checksum_rejects, 1);
        assert_eq!(b.stats().garbage_dropped, 0);
    }

    #[test]
    fn stats_reflect_traffic() {
        let fabric = Fabric::ideal();
        let (a, b) = pair(&fabric, TransportConfig::default());
        a.send(NodeId(1), Gather::copy_from_slice(b"x"));
        let _ = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(a.flush(Duration::from_secs(5)));
        let sa = a.stats();
        let sb = b.stats();
        assert_eq!(sa.messages_sent, 1);
        assert_eq!(sb.messages_delivered, 1);
        assert!(sa.acks_received >= 1);
        assert!(sb.acks_sent >= 1);
    }
}
