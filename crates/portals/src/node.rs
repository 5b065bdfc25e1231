//! The node: the per-machine runtime that owns the transport endpoint and
//! demultiplexes incoming traffic to its processes' network interfaces.
//!
//! §4.8: "When an incoming message arrives on a network interface, the runtime
//! system first checks that the target process identified in the request is a
//! valid process that has initialized the network interface ... If this test
//! fails, the runtime system discards the message and increments the dropped
//! message count for the interface."
//!
//! The node's transport endpoint owns its step. A blocked API call steps it
//! — except on a wire with a receive thread of its own (UDP), which always
//! steps — and while none does, whoever stands by: the thread that stands in
//! for NIC firmware (the one the endpoint spawns, or that receive thread), or
//! for a node built without one the waits of its peers in the process. The
//! node hands it one dispatcher, `NodeShared::dispatch_queued`, which takes
//! the endpoint's deliveries — fragments, one per message that fit one —
//! through `crate::stream` into the receive engine. The endpoint decides when
//! it runs: after each step, so selection and delivery proceed while the
//! application computes, or, host-driven, only inside the API calls that run
//! the engine.
//!
//! Blocked API calls park on the endpoint's *waiters' doorbell*
//! ([`Endpoint::readiness`]): the link's where they step the node
//! themselves, so that an arrival wakes the call instead of a standby
//! thread; on UDP, where the socket's receive thread steps, one of their
//! own, which only completions ring — and, host-driven, the deliveries
//! waiting for them. The node rings it for every completion.
//!
//! One run of the dispatcher is a dispatch step, a `Step` value passed by
//! `&mut` down the receive path: the engine sends and counts completions
//! through it. It holds what the run owes: the acks to each initiator node
//! after the first, which leave as one [`PortalsMessage::AckBatch`] when the
//! step finishes — or earlier, just before anything else the step sends to
//! that node, so the wire order between two nodes is what it would be if
//! every ack had left alone — and whether a second completion must ring the
//! waiters when it finishes.

use crate::ni::{NetworkInterface, NiConfig, NiCore};
use parking_lot::{Mutex, RwLock};
use portals_obs::{Counter, Layer, Obs, Stage, TraceEvent};
use portals_transport::{Delivery, Endpoint, TransportConfig};
use portals_types::{NodeId, ProcessId, ProgressMode, PtlError, PtlResult, Readiness, UserId};
use portals_wire::{Ack, PortalsMessage};
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
#[derive(Clone, Default)]
pub struct NodeConfig {
    /// Transport tuning for the node's endpoint. The
    /// [`TransportConfig::progress_mode`] field also decides who stands by to
    /// step the node while no blocked API call does: its NIC thread
    /// ([`ProgressMode::NicThread`], the default), or, built without one,
    /// its peers' waits and its own polls ([`ProgressMode::CallerDriven`]);
    /// or whether the NIC thread steps the transport and API calls run the
    /// receive rules ([`ProgressMode::HostDriven`]).
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
    /// [`Step`].
    fn dispatch_queued(&self) -> bool {
        let mut step = Step::new(self);
        let mut worked = false;
        while let Some(delivery) = self.endpoint.pop_delivery() {
            match delivery {
                Delivery::Fragment(frag) => crate::stream::on_fragment(&mut step, frag),
                Delivery::Abandoned { src } => crate::stream::on_abandoned(&mut step, src),
            }
            worked = true;
        }
        step.finish();
        worked
    }

    /// Put a Portals message on the wire to `dst`: one lifecycle `Submit`
    /// per Portals message carried (a batch carries one per ack), then the
    /// payload's region views gathered behind a fresh header segment, so no
    /// payload byte moves.
    fn put_on_wire(&self, dst: NodeId, msg: &PortalsMessage) {
        for _ in 0..msg.carried() {
            self.obs.tracer.emit(|| {
                TraceEvent::new(Layer::Portals, Stage::Submit)
                    .node(self.nid.0)
                    .peer(dst.0)
                    .bytes(msg.payload_len() as u64)
                    .detail(msg.kind_name())
            });
        }
        self.endpoint.send(dst, msg.encode_gather());
    }
}

impl AsRef<Endpoint> for NodeShared {
    fn as_ref(&self) -> &Endpoint {
        &self.endpoint
    }
}

/// One dispatch step: what one run of the receive rules owes its node's
/// wire and waiters until it [finishes](Step::finish). The dispatcher opens
/// one per run over the deliveries; an API call that sends or fires
/// triggered operations opens and finishes its own.
pub(crate) struct Step<'a> {
    pub(crate) node: &'a NodeShared,
    /// Per initiator node that has had the step's first ack, the later ones
    /// still waiting, in the order they were owed.
    acks: Vec<(NodeId, Vec<Ack>)>,
    /// Completions so far, counted up to 2.
    rings: u8,
}

impl<'a> Step<'a> {
    pub(crate) fn new(node: &'a NodeShared) -> Step<'a> {
        Step {
            node,
            acks: Vec::new(),
            rings: 0,
        }
    }

    /// Send a message — a reply, or a triggered operation that fired — to
    /// `dst`, after the acks the step still owes `dst`.
    pub(crate) fn send(&mut self, dst: NodeId, msg: &PortalsMessage) {
        let owed = self.acks.iter_mut().find(|(nid, _)| *nid == dst);
        if let Some((_, later)) = owed.filter(|(_, later)| !later.is_empty()) {
            let batch = PortalsMessage::AckBatch(std::mem::take(later));
            self.node.put_on_wire(dst, &batch);
        }
        self.node.put_on_wire(dst, msg);
    }

    /// Acknowledge a put to `dst`: at once if it is the step's first ack to
    /// `dst`, otherwise into the step's batch for `dst`.
    pub(crate) fn send_ack(&mut self, dst: NodeId, ack: Ack) {
        match self.acks.iter_mut().find(|(nid, _)| *nid == dst) {
            Some((_, later)) => later.push(ack),
            None => {
                self.acks.push((dst, Vec::new()));
                self.node.put_on_wire(dst, &PortalsMessage::Ack(ack));
            }
        }
    }

    /// A completion a blocked call may be waiting on is visible and the lock
    /// the waiters' check takes (event ring, arena shard, counter state) is
    /// released: the step's first completion rings the node's waiters at
    /// once, the rest share one ring when it finishes, so a burst of
    /// deliveries wakes a parked waiter once, not per message.
    pub(crate) fn completed(&mut self) {
        if self.rings == 0 {
            self.node.waiters.ring();
        }
        self.rings = (self.rings + 1).min(2);
    }

    /// End the step: each initiator's waiting acks leave as one
    /// [`PortalsMessage::AckBatch`], then the ring the step owes.
    pub(crate) fn finish(self) {
        for (dst, later) in self.acks {
            if !later.is_empty() {
                self.node.put_on_wire(dst, &PortalsMessage::AckBatch(later));
            }
        }
        if self.rings > 1 {
            self.node.waiters.ring();
        }
    }
}

/// A simulated machine: one transport endpoint, one NIC thread (the link's
/// receive thread on UDP; none when built without one), and any number of
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
    /// A call blocked in a wait steps the node — the transport, then the
    /// dispatch of what arrived — until it returns, except on a link with a
    /// receive thread of its own (a UDP socket), which steps after each batch
    /// it takes. While no call does, whoever stands by steps it: with
    /// [`ProgressMode::NicThread`] (the default) one thread standing in for
    /// NIC firmware, that receive thread or `portals-node-<nid>`, parked on
    /// the link's doorbell; with [`ProgressMode::CallerDriven`] no thread is
    /// spawned, and the waits of peer nodes in the process step it, as do its
    /// own polls. [`ProgressMode::HostDriven`] uses the NIC thread for the
    /// transport alone: what it delivers waits in the endpoint's queue for
    /// the node's next API call that runs the engine.
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

    /// Who stands by to step this node (see [`Node::new`]).
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
    use portals_types::{Gather, MatchBits, MatchCriteria, Region};
    use portals_wire::{Reply, ResponseHeader};

    fn caller_driven(fabric: &Fabric, nid: NodeId) -> Node {
        let transport = TransportConfig {
            progress_mode: ProgressMode::CallerDriven,
            ..Default::default()
        };
        Node::new(
            fabric.attach(nid),
            NodeConfig {
                transport,
                ..Default::default()
            },
        )
    }

    #[test]
    fn a_dispatch_step_rings_its_waiters_at_most_twice() {
        let fabric = Fabric::ideal();
        let node = caller_driven(&fabric, NodeId(0));
        let waiters = &node.shared.waiters;
        for completions in 0..=8u64 {
            let before = waiters.seq();
            let mut before_last = before;
            let mut step = Step::new(&node.shared);
            for _ in 0..completions {
                before_last = waiters.seq();
                step.completed();
            }
            step.finish();
            assert_eq!(waiters.seq() - before, completions.min(2), "{completions}");
            assert!(
                completions == 0 || waiters.seq() > before_last,
                "{completions}"
            );
        }
        // Outside a step, and from another thread during one: each at once.
        let ni = node.create_ni(1, NiConfig::default()).unwrap();
        let before = waiters.seq();
        ni.core.completed();
        let step = Step::new(&node.shared);
        std::thread::scope(|s| {
            s.spawn(|| (0..3).for_each(|_| ni.core.completed()));
        });
        assert_eq!(waiters.seq(), before + 4);
        step.finish();
    }

    /// The first ack to a node leaves at once; the later ones leave as one
    /// batch just before anything else the step sends there, and at its end.
    #[test]
    fn a_steps_later_acks_leave_before_its_next_message_and_at_its_end() {
        let fabric = Fabric::ideal();
        let initiator = Endpoint::new(
            fabric.attach(NodeId(0)),
            TransportConfig {
                progress_mode: ProgressMode::NicThread,
                ..Default::default()
            },
        );
        let target = caller_driven(&fabric, NodeId(1));
        let header = |md_handle| ResponseHeader {
            initiator: ProcessId::new(1, 1),
            target: ProcessId::new(0, 1),
            portal_index: 0,
            match_bits: MatchBits::ZERO,
            offset: 0,
            md_handle,
            eq_handle: 0,
            requested_length: 8,
            manipulated_length: 8,
        };
        let ack = |n| Ack { header: header(n) };
        let reply = PortalsMessage::Reply(Reply {
            header: header(9),
            payload: Gather::from_vec(vec![5; 8]),
        });
        let mut step = Step::new(&target.shared);
        step.send_ack(NodeId(0), ack(1));
        step.send_ack(NodeId(0), ack(2));
        step.send(NodeId(0), &reply);
        step.send_ack(NodeId(0), ack(3));
        step.finish();
        let wire: Vec<PortalsMessage> = (0..4)
            .map(|_| {
                let msg = initiator.recv_timeout(Duration::from_secs(5)).unwrap();
                PortalsMessage::decode_gather(&msg.payload).unwrap()
            })
            .collect();
        let expected = [
            PortalsMessage::Ack(ack(1)),
            PortalsMessage::AckBatch(vec![ack(2)]),
            reply,
            PortalsMessage::AckBatch(vec![ack(3)]),
        ];
        assert_eq!(wire, expected);
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
