//! The node: the per-machine runtime that owns the transport endpoint and
//! demultiplexes incoming traffic to its processes' network interfaces.
//!
//! §4.8: "When an incoming message arrives on a network interface, the runtime
//! system first checks that the target process identified in the request is a
//! valid process that has initialized the network interface ... If this test
//! fails, the runtime system discards the message and increments the dropped
//! message count for the interface."
//!
//! The node's one thread stands in for NIC firmware: it takes each datagram
//! through the transport and — unless the node is host-driven — the receive
//! engine, so selection and delivery proceed while the application computes.

use crate::engine;
use crate::ni::{NetworkInterface, NiConfig, NiCore};
use parking_lot::{Mutex, RwLock};
use portals_net::{DriverHub, NodeDriver};
use portals_obs::{Counter, Layer, Obs, Stage, TraceEvent};
use portals_transport::{Delivery, Endpoint, TransportConfig};
use portals_types::{
    Gather, NodeId, ProcessId, ProgressMode, PtlError, PtlResult, Readiness, UserId,
};
use portals_wire::PortalsMessage;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    pub(crate) alive: AtomicBool,
    /// Who runs the protocol here. Per node, not per interface: the thread
    /// that takes a datagram either runs the engine on it or does not, and it
    /// decides before it knows which interface the datagram is for.
    pub(crate) mode: ProgressMode,
    /// Per-source stream state for fragment-at-a-time delivery
    /// ([`crate::stream`]). Only ever touched from the dispatch context
    /// (the NIC thread, or under `dispatch_lock` when caller-driven).
    pub(crate) streams: Mutex<HashMap<NodeId, crate::stream::MsgStream>>,
    /// The node's readiness doorbell (shared with the NIC and the transport
    /// core). The engine raises [`Readiness::EVENT`] on it after completions
    /// so parked `eq_wait`/`ct_wait` callers wake.
    pub(crate) readiness: Arc<Readiness>,
    /// Fabric driver registry handle: lets caller-driven wait loops advance
    /// *other* nodes of a single-process simulation that have pending work.
    pub(crate) hub: DriverHub,
    /// Serializes inline dispatch so concurrent caller-driven API calls
    /// preserve the transport's in-order delivery contract. Try-locked:
    /// a caller finding it busy knows another thread is already dispatching.
    dispatch_lock: Mutex<()>,
}

impl NodeShared {
    /// Advance this node once from the calling thread: step the transport
    /// state machines, dispatch every delivery that produced, then send the
    /// step's acks — the NIC thread's step. Returns `true` if any work was
    /// done. A no-op (`false`) beside a NIC thread, mid-dispatch elsewhere,
    /// or powered off.
    pub(crate) fn progress_once(&self) -> bool {
        if !self.mode.is_caller_driven() {
            return false;
        }
        let Some(_guard) = self.dispatch_lock.try_lock() else {
            return false;
        };
        if !self.alive.load(Ordering::Relaxed) {
            return false;
        }
        self.endpoint.progress_then(|| self.dispatch_queued())
    }

    /// Run the endpoint's delivery stream — whole messages and fragments of
    /// larger ones, queued by the transport step just before — through the
    /// engine, with the transport's core lock released (the engine re-enters
    /// the endpoint to send), from the one dispatch context: the NIC thread,
    /// or the holder of `dispatch_lock`.
    fn dispatch_queued(&self) -> bool {
        let mut worked = false;
        while let Some(delivery) = self.endpoint.pop_delivery() {
            deliver(self, delivery);
            worked = true;
        }
        worked
    }

    /// Drive this node and any peers with pending work. In threadless mode a
    /// polling loop — over counters, queue lengths, whatever — *is* the
    /// progress engine, so every passive accessor funnels through here.
    /// Returns `true` if anything was done; `false` always in NIC-thread
    /// mode, where the NIC thread makes polling passive again.
    pub(crate) fn drive(&self) -> bool {
        if !self.mode.is_caller_driven() {
            return false;
        }
        let mut worked = self.progress_once();
        worked |= self.hub.service_peers();
        worked
    }

    /// Raise the completion doorbell: an event was pushed, a counter bumped,
    /// or a message dispatched or queued raw — anything a parked
    /// `eq_wait`/`ct_wait` caller might be waiting on. A no-op in NIC-thread
    /// mode, where the event queues' own condvars do the waking.
    pub(crate) fn ring_event(&self) {
        if self.mode != ProgressMode::NicThread {
            self.readiness.set(Readiness::EVENT);
        }
    }
}

impl NodeDriver for NodeShared {
    fn service(&self) -> bool {
        self.progress_once()
    }

    fn has_work(&self) -> bool {
        self.readiness.peek() & (Readiness::INBOUND | Readiness::DELIVERED) != 0
            || self.endpoint.timer_due()
    }
}

/// A simulated machine: one transport endpoint, one NIC thread (none when
/// caller-driven), and any number of process-level [`NetworkInterface`]s.
///
/// Dropping the node powers it off: the NIC thread stops and its interfaces
/// stop receiving (sends from elsewhere are retried by their transports until
/// those endpoints are dropped too).
pub struct Node {
    shared: Arc<NodeShared>,
    nic_thread: Option<JoinHandle<()>>,
}

impl Node {
    /// Bring up a node on a [`Link`](portals_net::Link) — an attached
    /// in-process NIC, a UDP socket endpoint, any datagram backend.
    ///
    /// With [`ProgressMode::NicThread`] (the transport-config default) this
    /// spawns the one thread that stands in for NIC firmware: parked on the
    /// link's doorbell, it steps the transport and dispatches what arrived.
    /// [`ProgressMode::HostDriven`] spawns the same thread; its dispatch
    /// queues each message raw on the target interface for that interface's
    /// next API call instead of running the engine.
    /// With [`ProgressMode::CallerDriven`] no thread is spawned: the node is a
    /// cooperative fabric driver and blocked API calls run that step inline.
    pub fn new(link: impl portals_net::Link, config: NodeConfig) -> Node {
        let nid = link.nid();
        let mode = config.transport.progress_mode;
        let endpoint = Endpoint::for_node(link, config.transport, config.obs.clone());
        let node_labels = [("node", nid.0.to_string())];
        let readiness = endpoint.readiness();
        let hub = endpoint.hub();
        let shared = Arc::new(NodeShared {
            nid,
            endpoint,
            nis: RwLock::new(HashMap::new()),
            directory: config.directory.unwrap_or_else(|| Arc::new(OpenDirectory)),
            dropped_no_process: config
                .obs
                .registry
                .counter("portals.node_dropped_no_process", &node_labels),
            dropped_garbage: config
                .obs
                .registry
                .counter("portals.node_dropped_garbage", &node_labels),
            obs: config.obs,
            alive: AtomicBool::new(true),
            mode,
            streams: Mutex::new(HashMap::new()),
            readiness,
            hub,
            dispatch_lock: Mutex::new(()),
        });
        let nic_thread = if mode.is_caller_driven() {
            // Threadless: volunteer for cooperative servicing, so peers'
            // wait loops step this node and dispatch what arrives all the
            // way to the engine.
            shared
                .hub
                .register(Arc::downgrade(&shared) as std::sync::Weak<dyn NodeDriver>);
            None
        } else {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name(format!("portals-node-{}", nid.0))
                    .spawn(move || {
                        shared.endpoint.nic_loop(&shared.alive, || {
                            shared.dispatch_queued();
                        })
                    })
                    .expect("spawn node NIC thread"),
            )
        };
        Node { shared, nic_thread }
    }

    /// Whether this node runs threadless (caller-driven progress).
    pub fn progress_mode(&self) -> ProgressMode {
        self.shared.endpoint.progress_mode()
    }

    /// Drive this node's protocol once from the calling thread: step the
    /// transport, dispatch arrivals, and service peer nodes with pending
    /// work. Returns `true` if anything was done. A no-op in NIC-thread mode.
    pub fn progress(&self) -> bool {
        self.shared.drive()
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
        let core = Arc::new(NiCore::new(id, config, self.shared.obs.clone()));
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
    pub fn dropped_no_process(&self) -> u64 {
        self.shared.drive();
        self.shared.dropped_no_process.get()
    }

    /// Messages dropped as undecodable or misrouted.
    pub fn dropped_garbage(&self) -> u64 {
        self.shared.drive();
        self.shared.dropped_garbage.get()
    }

    /// The node's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Transport statistics for this node's endpoint.
    pub fn transport_stats(&self) -> portals_transport::TransportStatsSnapshot {
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
        self.shared.alive.store(false, Ordering::Release);
        if let Some(handle) = self.nic_thread.take() {
            self.shared.readiness.ring();
            let _ = handle.join();
        } else {
            // Threadless: deregister from the fabric so peers stop trying to
            // drive a powered-off node.
            self.shared.hub.unregister();
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({})", self.shared.nid)
    }
}

/// Route one transport delivery: a whole message is decoded and received in
/// one go, a fragment feeds the per-source state machine that spreads the
/// same receive sequence over the message's arrival.
fn deliver(shared: &NodeShared, delivery: Delivery) {
    match delivery {
        Delivery::Message(msg) => dispatch(shared, &msg.payload),
        Delivery::Fragment(frag) => crate::stream::on_fragment(shared, frag),
        Delivery::Abandoned { src } => crate::stream::on_abandoned(shared, src),
    }
}

/// One whole message's §4.8 journey, starting from the node-level checks.
///
/// The message arrives as a [`Gather`] of datagram views; decoding peeks the
/// fixed headers into a stack buffer and leaves the payload as zero-copy
/// sub-slices of those views.
pub(crate) fn dispatch(shared: &NodeShared, payload: &Gather) {
    let msg = match PortalsMessage::decode_gather(payload) {
        Ok(m) => m,
        Err(_) => {
            shared.dropped_garbage.inc();
            node_drop_trace(shared, "garbage");
            return;
        }
    };
    let Some(core) = lookup(shared, msg.wire_target()) else {
        return;
    };
    if shared.mode == ProgressMode::HostDriven {
        core.enqueue_raw(msg);
    } else {
        engine::deliver(&core, shared, msg);
    }
    // Anything the delivery completed (events pushed, counters bumped, raw
    // traffic queued) may be what a parked caller-driven waiter is blocked
    // on.
    shared.ring_event();
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
