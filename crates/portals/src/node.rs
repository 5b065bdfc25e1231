//! The node: the per-machine runtime that owns the transport endpoint and
//! demultiplexes incoming traffic to its processes' network interfaces.
//!
//! §4.8: "When an incoming message arrives on a network interface, the runtime
//! system first checks that the target process identified in the request is a
//! valid process that has initialized the network interface ... If this test
//! fails, the runtime system discards the message and increments the dropped
//! message count for the interface."
//!
//! The node's transport endpoint owns its step: the one thread that stands in
//! for NIC firmware steps it — the thread the endpoint spawns, or on a wire
//! with a receive thread of its own (UDP) that thread — or blocked callers
//! do. The node hands it one dispatcher, `NodeShared::dispatch_queued`, which
//! takes the endpoint's deliveries — fragments, one per message that fit one
//! — through `crate::stream` into the receive engine. The endpoint decides
//! when it runs: after each step, so selection and delivery proceed while
//! the application computes, or, host-driven, only inside the API calls that
//! run the engine.
//!
//! Blocked API calls park on the endpoint's *waiters' doorbell*
//! ([`Endpoint::readiness`]): the link's when they step the protocol
//! themselves (caller-driven), one of their own beside a NIC thread, which
//! only completions ring — and, host-driven, the deliveries waiting for
//! them. The node rings it for every completion.

use crate::ni::{NetworkInterface, NiConfig, NiCore};
use parking_lot::{Mutex, RwLock};
use portals_obs::{Counter, Layer, Obs, Stage, TraceEvent};
use portals_transport::{Delivery, Endpoint, TransportConfig};
use portals_types::{NodeId, ProcessId, ProgressMode, PtlError, PtlResult, Readiness, UserId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Classifies processes for the "same application" / "system" ACL entries
/// (§4.5). The parallel runtime implements this against its job tables; the
/// default treats every process as a member of application 0.
pub trait ProcessDirectory: Send + Sync {
    /// Which user/application a process id belongs to.
    fn classify(&self, id: ProcessId) -> UserId;
}

/// Default directory: one big happy application.
struct OpenDirectory;

impl ProcessDirectory for OpenDirectory {
    fn classify(&self, _: ProcessId) -> UserId {
        UserId::Application(0)
    }
}

/// Node configuration.
#[derive(Clone)]
pub struct NodeConfig {
    /// Transport tuning for the node's endpoint. The
    /// [`TransportConfig::progress_mode`] field also decides who runs the
    /// protocol on this node: its NIC thread ([`ProgressMode::NicThread`]),
    /// API calls stepping it inline ([`ProgressMode::CallerDriven`]), or the
    /// NIC thread for the transport and API calls for the receive rules
    /// ([`ProgressMode::HostDriven`]).
    pub transport: TransportConfig,
    /// Process classifier for ACL checks; defaults to "everyone is
    /// application 0".
    pub directory: Option<Arc<dyn ProcessDirectory>>,
    /// Observability handle: the node's transport, dispatch and every
    /// interface created on it register metrics in its registry and emit
    /// lifecycle traces to its sinks. The default is a private registry with
    /// tracing disabled.
    pub obs: Obs,
}

impl Default for NodeConfig {
    /// Unlike [`TransportConfig::default`] (always NIC-thread), the node-level
    /// default consults the `PORTALS_PROGRESS_MODE` environment variable, so a
    /// whole application — tests included — can be flipped to the threadless
    /// mode without code changes.
    fn default() -> NodeConfig {
        NodeConfig {
            transport: TransportConfig {
                progress_mode: ProgressMode::from_env(),
                ..TransportConfig::default()
            },
            directory: None,
            obs: Obs::default(),
        }
    }
}

impl std::fmt::Debug for NodeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeConfig")
            .field("transport", &self.transport)
            .finish()
    }
}

pub(crate) struct NodeShared {
    pub(crate) nid: NodeId,
    pub(crate) endpoint: Endpoint,
    pub(crate) nis: RwLock<HashMap<u32, Arc<NiCore>>>,
    pub(crate) directory: Arc<dyn ProcessDirectory>,
    pub(crate) obs: Obs,
    /// §4.8 first-check failures: traffic for pids with no interface.
    pub(crate) dropped_no_process: Counter,
    /// Misrouted or undecodable traffic.
    pub(crate) dropped_garbage: Counter,
    /// Per-source stream state for fragment-at-a-time delivery
    /// ([`crate::stream`]). Only ever touched from the dispatcher, which the
    /// endpoint runs on one thread at a time.
    pub(crate) streams: Mutex<HashMap<NodeId, crate::stream::MsgStream>>,
    /// Where blocked `eq_wait`/`ct_wait` callers park, and what every
    /// completion rings: the endpoint's waiters' doorbell (see the module
    /// docs).
    pub(crate) waiters: Arc<Readiness>,
}

impl NodeShared {
    /// The node's dispatcher: run the endpoint's delivery stream — the
    /// fragments the transport queued — through the engine, with the
    /// transport's core lock released (the engine re-enters the endpoint to
    /// send). The endpoint runs it on one thread at a time: its stepper after
    /// each step, or a host-driven node's API calls. The whole run is one
    /// [`Burst`] for the waiters' doorbell.
    fn dispatch_queued(&self) -> bool {
        let _burst = Burst::open(&self.waiters);
        let mut worked = false;
        while let Some(delivery) = self.endpoint.pop_delivery() {
            match delivery {
                Delivery::Fragment(frag) => crate::stream::on_fragment(self, frag),
                Delivery::Abandoned { src } => crate::stream::on_abandoned(self, src),
            }
            worked = true;
        }
        worked
    }
}

impl AsRef<Endpoint> for NodeShared {
    fn as_ref(&self) -> &Endpoint {
        &self.endpoint
    }
}

thread_local! {
    /// The dispatch step this thread is running: the address of the doorbell
    /// it coalesces rings for (0: none) and its completions so far, counted
    /// up to 2. Per thread, so a ring from any other thread is never absorbed.
    static BURST: Cell<(usize, u8)> = const { Cell::new((0, 0)) };
}

/// Ring a node's waiters' doorbell for a completion, once it is visible and
/// the lock the waiters' check takes (event ring, arena shard, counter state)
/// is released. Inside a dispatch step on the same doorbell ([`Burst`]) only
/// the step's first completion rings at once and the rest share one ring at
/// its end, so a burst of deliveries wakes a parked waiter once, not per
/// message.
pub(crate) fn ring_waiters(doorbell: &Readiness) {
    let (bell, seen) = BURST.get();
    if bell == doorbell as *const Readiness as usize {
        BURST.set((bell, (seen + 1).min(2)));
        if seen > 0 {
            return;
        }
    }
    doorbell.ring();
}

/// One dispatch step, from `open` to drop (see [`ring_waiters`]). Dropping it
/// pays the ring the step owes and restores any step it was opened inside.
pub(crate) struct Burst<'a> {
    doorbell: &'a Readiness,
    outer: (usize, u8),
}

impl<'a> Burst<'a> {
    pub(crate) fn open(doorbell: &'a Readiness) -> Burst<'a> {
        let outer = BURST.replace((doorbell as *const Readiness as usize, 0));
        Burst { doorbell, outer }
    }
}

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        if BURST.replace(self.outer).1 > 1 {
            self.doorbell.ring();
        }
    }
}

/// A simulated machine: one transport endpoint, one NIC thread (the link's
/// receive thread on UDP; none when caller-driven), and any number of
/// process-level [`NetworkInterface`]s.
///
/// Dropping the node powers it off: the NIC thread stops and its interfaces
/// stop receiving (sends from elsewhere are retried by their transports until
/// those endpoints are dropped too).
pub struct Node {
    shared: Arc<NodeShared>,
}

impl Node {
    /// Bring up a node on a [`Link`](portals_net::Link) — an attached
    /// in-process NIC, a UDP socket endpoint, any datagram backend.
    ///
    /// With [`ProgressMode::NicThread`] (the transport-config default) one
    /// thread stands in for NIC firmware: it steps the transport and
    /// dispatches what arrived. On a link with a receive thread of its own (a
    /// UDP socket) that is the receive thread, stepping after each batch it
    /// takes; otherwise the endpoint spawns `portals-node-<nid>`, parked on
    /// the link's doorbell. [`ProgressMode::HostDriven`] uses the same
    /// thread for the transport alone: what it delivers waits in the
    /// endpoint's queue for the node's next API call that runs the engine.
    /// With [`ProgressMode::CallerDriven`] no thread is spawned: the endpoint
    /// is a cooperative fabric driver and blocked API calls run that step
    /// inline.
    pub fn new(link: impl portals_net::Link, config: NodeConfig) -> Node {
        let nid = link.nid();
        let node_labels = [("node", nid.0.to_string())];
        let obs = config.obs;
        let counter = |name| obs.registry.counter(name, &node_labels);
        let (dropped_no_process, dropped_garbage) = (
            counter("portals.node_dropped_no_process"),
            counter("portals.node_dropped_garbage"),
        );
        let shared = Endpoint::with_dispatcher(
            link,
            config.transport,
            obs.clone(),
            |endpoint| NodeShared {
                nid,
                waiters: endpoint.readiness(),
                endpoint,
                nis: RwLock::new(HashMap::new()),
                directory: config.directory.unwrap_or_else(|| Arc::new(OpenDirectory)),
                dropped_no_process,
                dropped_garbage,
                obs,
                streams: Mutex::new(HashMap::new()),
            },
            NodeShared::dispatch_queued,
        );
        Node { shared }
    }

    /// Whether this node runs threadless (caller-driven progress).
    pub fn progress_mode(&self) -> ProgressMode {
        self.shared.endpoint.progress_mode()
    }

    /// Drive this node's protocol once from the calling thread: step the
    /// transport, dispatch arrivals, and service peer nodes with pending
    /// work. Returns `true` if anything was done. A no-op in NIC-thread mode.
    pub fn progress(&self) -> bool {
        self.shared.endpoint.progress_once()
    }

    /// This node's id.
    pub fn nid(&self) -> NodeId {
        self.shared.nid
    }

    /// Create a network interface for process `pid` on this node.
    pub fn create_ni(&self, pid: u32, config: NiConfig) -> PtlResult<NetworkInterface> {
        let id = ProcessId {
            nid: self.shared.nid,
            pid,
        };
        let core = Arc::new(NiCore::new(id, config, &self.shared));
        let mut nis = self.shared.nis.write();
        if nis.contains_key(&pid) {
            return Err(PtlError::InvalidProcess);
        }
        nis.insert(pid, Arc::clone(&core));
        drop(nis);
        Ok(NetworkInterface {
            core,
            node: Arc::clone(&self.shared),
        })
    }

    /// Messages dropped because no process claimed them (§4.8 first check).
    /// On a host-driven node a message is judged when an API call runs the
    /// engine over it, not on arrival.
    pub fn dropped_no_process(&self) -> u64 {
        self.shared.endpoint.progress_once();
        self.shared.dropped_no_process.get()
    }

    /// Messages dropped as undecodable or misrouted.
    pub fn dropped_garbage(&self) -> u64 {
        self.shared.endpoint.progress_once();
        self.shared.dropped_garbage.get()
    }

    /// The node's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The live `transport.*` and `flow.*` counters of this node's
    /// endpoint; read a value with `.get()` at the point it is needed.
    pub fn transport_stats(&self) -> &portals_transport::TransportStats {
        self.shared.endpoint.stats()
    }

    /// Block until this node's outbound transport queue fully drains, or the
    /// timeout expires. Returns true on success.
    pub fn flush_transport(&self, timeout: Duration) -> bool {
        self.shared.endpoint.flush(timeout)
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shared.endpoint.stop();
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({})", self.shared.nid)
    }
}

/// The node-level checks every message sees before the engine (§4.8's "first
/// checks"): routed to this node, addressed to a live interface.
pub(crate) fn lookup(shared: &NodeShared, target: ProcessId) -> Option<Arc<NiCore>> {
    if target.nid != shared.nid {
        shared.dropped_garbage.inc();
        node_drop_trace(shared, "misrouted");
        return None;
    }
    let core = shared.nis.read().get(&target.pid).cloned();
    if core.is_none() {
        shared.dropped_no_process.inc();
        node_drop_trace(shared, "no_process");
    }
    core
}

/// A node-level drop (before any interface was identified) in the trace
/// stream.
pub(crate) fn node_drop_trace(shared: &NodeShared, why: &'static str) {
    shared.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Drop)
            .node(shared.nid.0)
            .detail(why)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AckRequest, EventKind, MdSpec, MePos};
    use portals_net::Fabric;
    use portals_types::{MatchCriteria, Region};

    #[test]
    fn a_dispatch_step_rings_its_waiters_at_most_twice() {
        let waiters = Readiness::new();
        for completions in 0..=8u64 {
            let before = waiters.seq();
            let mut before_last = before;
            {
                let _step = Burst::open(&waiters);
                for _ in 0..completions {
                    before_last = waiters.seq();
                    ring_waiters(&waiters);
                }
            }
            assert_eq!(waiters.seq() - before, completions.min(2), "{completions}");
            assert!(
                completions == 0 || waiters.seq() > before_last,
                "{completions}"
            );
        }
        // Outside a step, and from another thread during one: each at once.
        let before = waiters.seq();
        ring_waiters(&waiters);
        let _step = Burst::open(&waiters);
        std::thread::scope(|s| {
            s.spawn(|| (0..3).for_each(|_| ring_waiters(&waiters)));
        });
        assert_eq!(waiters.seq(), before + 4);
    }

    #[test]
    fn a_transport_ack_that_completes_nothing_rings_no_waiter() {
        let fabric = Fabric::ideal();
        let config = || NodeConfig {
            transport: TransportConfig {
                progress_mode: ProgressMode::NicThread,
                ..Default::default()
            },
            ..Default::default()
        };
        let na = Node::new(fabric.attach(NodeId(0)), config());
        let nb = Node::new(fabric.attach(NodeId(1)), config());
        let a = na.create_ni(1, NiConfig::default()).unwrap();
        let b = nb.create_ni(1, NiConfig::default()).unwrap();
        let eq_b = b.eq_alloc(4).unwrap();
        let me = b
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        b.md_attach(me, MdSpec::new(Region::zeroed(8)).with_eq(eq_b))
            .unwrap();
        // No event queue and no Portals ack: the put completes nothing at A.
        let md = a.md_bind(MdSpec::new(Region::zeroed(8))).unwrap();
        let (a_seq, b_seq) = (na.shared.waiters.seq(), nb.shared.waiters.seq());
        a.put_op(md)
            .target(b.id(), 0)
            .ack(AckRequest::NoAck)
            .submit()
            .unwrap();
        assert_eq!(b.eq_wait(eq_b).unwrap().kind, EventKind::Put);
        assert!(nb.shared.waiters.seq() > b_seq, "the put rang its target");
        assert!(
            na.flush_transport(Duration::from_secs(5)),
            "the ACK came back"
        );
        // Give A's NIC thread time to finish the step that took it.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(na.shared.waiters.seq(), a_seq, "the ACK rang A's waiters");
    }
}
