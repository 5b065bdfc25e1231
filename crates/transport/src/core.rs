//! The transport progress engine: all per-peer protocol state, driven the same
//! way in either progress mode.
//!
//! [`ProgressCore`] owns the state machines (fragmentation, go-back-N,
//! credits, timers) and exposes re-entrant steps: `on_send` for submission,
//! `progress_once` for "advance everything that is ready". The endpoint keeps
//! one core under one mutex whatever the
//! [`ProgressMode`](portals_types::ProgressMode): the submitting caller runs
//! `on_send` inline — the op descriptor passes from the caller's stack
//! straight into the state machines, no command queue, no handoff — and the
//! mode only names the thread that calls `progress_once` (the node's NIC
//! thread, or whichever caller is blocked in a wait).
//!
//! Two receive-path optimisations live here:
//!
//! * **Batched drain.** One progress step drains the inbound queue to
//!   exhaustion, in runs of up to [`RECV_BATCH`] datagrams,
//!   amortising the doorbell wakeup over the burst. What a run delivers goes
//!   up in one push: one lock, one ring.
//! * **Coalesced acks.** Within one run the core sends at most one
//!   cumulative ACK per source. Cumulative acknowledgments are monotone per
//!   (src, dst) stream, so the last value observed in the batch subsumes every
//!   earlier one; suppressed sends are counted in
//!   [`TransportStats::acks_coalesced`].
//!
//!   Coalescing is safe against the go-back-N drop path (`seq > expected`
//!   dropped, later retransmitted): the receiver's cumulative ack is *monotone
//!   nondecreasing* — `expected` only advances when the exactly-expected
//!   sequence arrives, and a dropped out-of-order packet leaves it untouched.
//!   A batch that drops fragment `k` and then sees fragments `k+1..k+n` emits
//!   the same cumulative value (`k-1`) for all of them, so the coalesced ack
//!   can never claim a dropped-then-retransmitted fragment. The endpoint-level
//!   proptest in `tests/faults.rs` locks this in under jitter + loss.
//!
//! Retransmission deadlines are tracked in a min-heap keyed by `(Instant,
//! NodeId)` with lazy invalidation: entries are validated against the peer's
//! current deadline when they surface, so arming is an O(log n) push and the
//! idle-loop cost no longer scans every sender peer.

use crate::config::TransportConfig;
use crate::endpoint::{Delivery, IncomingMessage, StreamFragment};
use crate::peer::{ReceiverPeer, Released, SenderPeer};
use crate::stats::{FlowStats, TransportStats};
use portals_net::{Datagram, Link};
use portals_obs::{Counter, Layer, Obs, Stage, TraceEvent};
use portals_wire::{Packet, PacketHeader};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use portals_types::{DoorbellQueue, Gather, NodeId, WireError};

/// Maximum inbound datagrams one run of a progress step drains. Within one
/// run at most one cumulative ACK is sent per source (the later cumulative
/// subsumes the earlier).
const RECV_BATCH: usize = 64;

/// Sentinel for "no published deadline".
pub(crate) const DEADLINE_NONE: u64 = u64::MAX;

/// Process-wide epoch for publishing `Instant`s through atomics.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch (saturating at zero for pre-epoch
/// instants, which read back as "due now").
pub(crate) fn instant_to_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch())
        .as_nanos()
        .min((DEADLINE_NONE - 1) as u128) as u64
}

/// Inverse of [`instant_to_ns`]. Must not be called with [`DEADLINE_NONE`].
pub(crate) fn ns_to_instant(ns: u64) -> Instant {
    epoch() + Duration::from_nanos(ns)
}

/// The re-entrant transport progress engine (see the module docs). Exactly
/// one thread is inside a core at a time: the endpoint's mutex serialises
/// submitting callers against whoever steps it.
pub(crate) struct ProgressCore {
    link: Box<dyn Link>,
    nid: NodeId,
    cfg: TransportConfig,
    obs: Obs,
    /// Extend DATA packet CRCs over the body: the link said it can corrupt
    /// bytes in flight.
    checksum_body: bool,
    /// This NIC's inbound datagram queue (drained by `progress_once` /
    /// `on_inbound`).
    inbound: Arc<DoorbellQueue<Datagram>>,
    /// Published copy of the nearest deadline (retransmission timer or
    /// caller-pumped wire delivery), as ns-since-epoch, [`DEADLINE_NONE`]
    /// when idle. Lets peers' wait loops answer "does this core need
    /// servicing?" without taking its lock.
    deadline_ns: Arc<AtomicU64>,
    /// Where deliveries go up, on the same doorbell as `inbound`.
    delivered: Arc<DoorbellQueue<Delivery>>,
    /// The current run's deliveries, in order, pushed up together when the
    /// run ends. Streamed fragments coalesce here while contiguous (same
    /// source, same message, continuing offset): placement still overlaps
    /// the wire at run granularity, but the consumer pays one queue hop and
    /// one scatter per run instead of one per MTU fragment.
    staged: Vec<Delivery>,
    stats: Arc<TransportStats>,
    flow: Arc<FlowStats>,
    outstanding: Arc<AtomicUsize>,
    tx_peers: HashMap<NodeId, SenderPeer>,
    rx_peers: HashMap<NodeId, ReceiverPeer>,
    /// Per-destination retransmission counters
    /// (`transport.peer_retransmissions{node, peer}`), created lazily on the
    /// first retransmission to that peer.
    peer_retx: HashMap<NodeId, Counter>,
    /// Min-heap of retransmission deadlines. Entries are hints, not truth: a
    /// peer's deadline moves every time it sends or is acked, and stale
    /// entries are discarded (or corrected) when they reach the top.
    timers: BinaryHeap<Reverse<(Instant, NodeId)>>,
}

impl ProgressCore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        link: Box<dyn Link>,
        cfg: TransportConfig,
        checksum_body: bool,
        obs: Obs,
        delivered: Arc<DoorbellQueue<Delivery>>,
        stats: Arc<TransportStats>,
        flow: Arc<FlowStats>,
        outstanding: Arc<AtomicUsize>,
        deadline_ns: Arc<AtomicU64>,
    ) -> ProgressCore {
        let nid = link.nid();
        let inbound = link.inbound_receiver();
        ProgressCore {
            link,
            nid,
            cfg,
            obs,
            checksum_body,
            inbound,
            deadline_ns,
            delivered,
            staged: Vec::new(),
            stats,
            flow,
            outstanding,
            tx_peers: HashMap::new(),
            rx_peers: HashMap::new(),
            peer_retx: HashMap::new(),
            timers: BinaryHeap::new(),
        }
    }

    /// One progress step: deliver due wire packets, drain this NIC's inbound
    /// queue through the protocol state machines, fire due retransmission
    /// timers and republish the next deadline. Returns `true` if any datagram
    /// was processed.
    ///
    /// Re-entrant in the sense required by the progress-mode contract: safe
    /// to call from any thread holding this core's lock, at any point between
    /// (not within) other core steps.
    pub(crate) fn progress_once(&mut self) -> bool {
        // Pump first so packets due *now* land in inbound queues (a global
        // drain: the single wire heap serves every node, so an active waiter
        // delivers for idle nodes too). No-op on bypass/scheduler wires and
        // on links with their own delivery agent (socket rx threads).
        self.link.pump_wire();
        let mut worked = false;
        while let Ok(d) = self.inbound.try_recv() {
            self.on_inbound(d);
            worked = true;
        }
        self.fire_timers();
        self.publish_deadline();
        worked
    }

    /// Publish min(retransmission deadline, caller-pumped wire deadline) for
    /// lock-free `has_work` checks by peers' wait loops.
    fn publish_deadline(&mut self) {
        let timer = self.next_deadline_instant();
        let wire = self.link.next_wire_deadline();
        let next = match (timer, wire) {
            (Some(t), Some(w)) => Some(t.min(w)),
            (t, w) => t.or(w),
        };
        self.deadline_ns
            .store(next.map_or(DEADLINE_NONE, instant_to_ns), Ordering::Release);
    }

    /// Fold a peer's credit-block transitions into the flow stats.
    fn drain_flow_transitions(flow: &FlowStats, peer: &mut SenderPeer) {
        let (stalls, resumes) = peer.take_credit_transitions();
        flow.credit_stalls.add(stalls);
        flow.credit_resumes.add(resumes);
        for _ in 0..stalls {
            flow.credit_blocked_now.inc();
        }
        for _ in 0..resumes {
            flow.credit_blocked_now.dec();
        }
    }

    /// The credit horizon this node advertises to `src` right now: the
    /// in-order base plus the configured window, shrunk by however many
    /// delivered *messages* are still waiting for the consumer — an
    /// oversubscribed receiver sheds load instead of buffering it. The
    /// backlog is counted in message units, not queue items: one streamed
    /// message is thousands of fragment deliveries that drain at placement
    /// speed, and shedding against the raw item count would stall every
    /// large transfer into probe backoff.
    fn advertised_credit(&self, src: NodeId) -> u64 {
        let expected = self.rx_peers.get(&src).map_or(0, ReceiverPeer::expected);
        let backlog = self
            .stats
            .messages_delivered
            .get()
            .saturating_sub(self.stats.messages_consumed.get());
        expected + (self.cfg.credit_window as u64).saturating_sub(backlog)
    }

    /// Record `nid`'s current deadline (if any) in the timer heap.
    fn arm_timer(&mut self, nid: NodeId) {
        if let Some(when) = self.tx_peers.get(&nid).and_then(SenderPeer::deadline) {
            self.timers.push(Reverse((when, nid)));
        }
    }

    /// Nearest valid retransmission deadline, popping stale heap entries as
    /// they surface.
    ///
    /// Terminates: each iteration either returns, shrinks the heap, or
    /// replaces a stale entry with the peer's exact deadline — which,
    /// deadlines being fixed within one call, cannot be stale again.
    fn next_deadline_instant(&mut self) -> Option<Instant> {
        while let Some(&Reverse((when, nid))) = self.timers.peek() {
            match self.tx_peers.get(&nid).and_then(SenderPeer::deadline) {
                Some(actual) if actual == when => return Some(when),
                Some(actual) => {
                    self.timers.pop();
                    self.timers.push(Reverse((actual, nid)));
                }
                None => {
                    self.timers.pop();
                }
            }
        }
        None
    }

    pub(crate) fn on_send(&mut self, dst: NodeId, msg: Gather) {
        self.stats.add(&self.stats.messages_sent, 1);
        let now = Instant::now();
        let peer = self
            .tx_peers
            .entry(dst)
            .or_insert_with(|| SenderPeer::new(self.cfg.initial_credits, self.checksum_body));
        let msg_id = peer.next_msg_id();
        let msg_len = msg.len() as u64;
        self.obs.tracer.emit(|| {
            TraceEvent::new(Layer::Transport, Stage::Submit)
                .node(self.nid.0)
                .peer(dst.0)
                .msg_id(msg_id)
                .bytes(msg_len)
        });
        let before = peer.outstanding();
        let packets = peer.enqueue_message(msg, &self.cfg, now);
        self.outstanding
            .fetch_add(peer.outstanding() - before, Ordering::Relaxed);
        Self::drain_flow_transitions(&self.flow, peer);
        self.send_data(dst, packets, Stage::Fragment);
        self.arm_timer(dst);
        self.publish_deadline();
    }

    /// Put `packets` on the wire, counting them and (when tracing) emitting
    /// one `stage` event per packet. Header decoding for the trace is gated on
    /// the tracer being enabled — the decode is a zero-copy header peek, and
    /// the disabled path pays only the branch.
    fn send_data(&self, dst: NodeId, packets: Vec<Gather>, stage: Stage) {
        self.stats
            .add(&self.stats.data_packets_sent, packets.len() as u64);
        if self.obs.tracer.enabled() {
            for p in &packets {
                if let Ok(pkt) = Packet::decode_gather(p) {
                    if let PacketHeader::Data { seq, msg_id, .. } = pkt.header {
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, stage)
                                .node(self.nid.0)
                                .peer(dst.0)
                                .msg_id(msg_id)
                                .seq(seq)
                                .bytes(pkt.body.len() as u64)
                        });
                    }
                }
            }
        }
        // The per-destination flush is already a coalesced burst of
        // fragments; hand it to the wire as one vector so a batching
        // backend (sendmmsg) crosses the OS boundary once for all of them.
        self.link
            .send_batch(packets.into_iter().map(|p| (dst, p)).collect());
    }

    /// Drain up to [`RECV_BATCH`] datagrams for one wakeup, then flush one
    /// cumulative ACK per source seen in the batch.
    fn on_inbound(&mut self, first: Datagram) {
        let mut pending_acks: Vec<(NodeId, u64)> = Vec::new();
        self.process_datagram(first, &mut pending_acks);
        for _ in 1..RECV_BATCH {
            match self.inbound.try_recv() {
                Ok(d) => self.process_datagram(d, &mut pending_acks),
                Err(_) => break,
            }
        }
        // Hand up what the run delivered before acking: the advertised
        // credit already reflects its message accounting.
        self.delivered.push_all(self.staged.drain(..));
        let acks: Vec<_> = pending_acks
            .into_iter()
            .map(|(src, cumulative)| {
                self.stats.add(&self.stats.acks_sent, 1);
                let credit = self.advertised_credit(src);
                (src, Packet::ack(cumulative, credit).encode())
            })
            .collect();
        self.link.send_batch(acks);
    }

    fn process_datagram(&mut self, dgram: Datagram, pending_acks: &mut Vec<(NodeId, u64)>) {
        let src = dgram.src;
        let packet = match Packet::decode_gather(&dgram.payload) {
            Ok(p) => p,
            Err(e) => {
                // CRC failures get their own counter: on a real wire they are
                // the corruption signal, and the reliability machinery treats
                // the packet exactly like a lost one (the retransmission
                // timer recovers it).
                let detail = if matches!(e, WireError::Checksum { .. }) {
                    self.stats.add(&self.stats.checksum_rejects, 1);
                    "checksum"
                } else {
                    self.stats.add(&self.stats.garbage_dropped, 1);
                    "garbage"
                };
                self.obs.tracer.emit(|| {
                    TraceEvent::new(Layer::Transport, Stage::Drop)
                        .node(self.nid.0)
                        .peer(src.0)
                        .detail(detail)
                });
                return;
            }
        };
        match packet.header {
            PacketHeader::Ack { cumulative, credit } => {
                self.stats.add(&self.stats.acks_received, 1);
                self.obs.tracer.emit(|| {
                    TraceEvent::new(Layer::Transport, Stage::Rx)
                        .node(self.nid.0)
                        .peer(src.0)
                        .seq(cumulative)
                        .detail("ack")
                });
                let now = Instant::now();
                if let Some(peer) = self.tx_peers.get_mut(&src) {
                    // Grow the credit horizon first: packets the new horizon
                    // admits and packets the cumulative ack releases go out in
                    // one pass. Monotonic max inside `grant_credit` makes
                    // reordered/duplicated acks harmless.
                    let horizon = peer.credit();
                    let granted = peer.grant_credit(credit, &self.cfg, now);
                    if peer.credit() > horizon {
                        self.flow.credits_granted.add(peer.credit() - horizon);
                    }
                    let before = peer.outstanding();
                    let outcome = peer.on_ack(cumulative, &self.cfg, now);
                    let after = peer.outstanding();
                    self.outstanding
                        .fetch_sub(before - after, Ordering::Relaxed);
                    if outcome.recovered {
                        self.stats.add(&self.stats.peers_recovered, 1);
                        self.stats.stalled_now.dec();
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, Stage::Resume)
                                .node(self.nid.0)
                                .peer(src.0)
                                .seq(cumulative)
                        });
                    }
                    Self::drain_flow_transitions(&self.flow, peer);
                    self.send_data(src, granted, Stage::Fragment);
                    self.send_data(src, outcome.released, Stage::Fragment);
                    self.arm_timer(src);
                }
            }
            PacketHeader::Probe { base } => {
                self.flow.probes_received.inc();
                self.obs.tracer.emit(|| {
                    TraceEvent::new(Layer::Transport, Stage::Rx)
                        .node(self.nid.0)
                        .peer(src.0)
                        .seq(base)
                        .detail("probe")
                });
                // Answer with a fresh cumulative ack carrying the current
                // credit horizon, coalesced with any ack already queued for
                // this source in the batch.
                let limit = self.cfg.ooo_buffer_bytes;
                let ack = self
                    .rx_peers
                    .entry(src)
                    .or_insert_with(|| ReceiverPeer::with_limit(limit))
                    .current_ack();
                match pending_acks.iter_mut().find(|(nid, _)| *nid == src) {
                    Some(_) => self.stats.add(&self.stats.acks_coalesced, 1),
                    None => pending_acks.push((src, ack)),
                }
            }
            header @ PacketHeader::Data { .. } => {
                let (seq, msg_id) = match header {
                    PacketHeader::Data { seq, msg_id, .. } => (seq, msg_id),
                    _ => unreachable!("matched Data"),
                };
                let body_len = packet.body.len() as u64;
                self.obs.tracer.emit(|| {
                    TraceEvent::new(Layer::Transport, Stage::Rx)
                        .node(self.nid.0)
                        .peer(src.0)
                        .msg_id(msg_id)
                        .seq(seq)
                        .bytes(body_len)
                });
                let limit = self.cfg.ooo_buffer_bytes;
                let peer = self
                    .rx_peers
                    .entry(src)
                    .or_insert_with(|| ReceiverPeer::with_limit(limit));
                let result = peer.on_data(header, packet.body);
                let hwm = peer.buffered_hwm() as i64;
                if result.duplicate {
                    self.stats.add(&self.stats.duplicates_dropped, 1);
                    self.obs.tracer.emit(|| {
                        TraceEvent::new(Layer::Transport, Stage::Drop)
                            .node(self.nid.0)
                            .peer(src.0)
                            .msg_id(msg_id)
                            .seq(seq)
                            .detail("duplicate")
                    });
                } else if result.out_of_order && result.buffered {
                    self.stats.add(&self.stats.ooo_buffered, 1);
                    // Only the lock holder writes the gauge, so read-then-set
                    // keeps the max without an atomic max primitive.
                    if hwm > self.stats.bytes_buffered_hwm.get() {
                        self.stats.bytes_buffered_hwm.set(hwm);
                    }
                } else if result.out_of_order {
                    self.stats.add(&self.stats.out_of_order_dropped, 1);
                    self.obs.tracer.emit(|| {
                        TraceEvent::new(Layer::Transport, Stage::Drop)
                            .node(self.nid.0)
                            .peer(src.0)
                            .msg_id(msg_id)
                            .seq(seq)
                            .detail("out_of_order")
                    });
                }
                if result.noncontiguous > 0 {
                    self.stats.add(
                        &self.stats.noncontiguous_dropped,
                        u64::from(result.noncontiguous),
                    );
                    self.obs.tracer.emit(|| {
                        TraceEvent::new(Layer::Transport, Stage::Drop)
                            .node(self.nid.0)
                            .peer(src.0)
                            .msg_id(msg_id)
                            .seq(seq)
                            .detail("noncontiguous")
                    });
                }
                for released in result.released {
                    let slice = match released {
                        Released::Frag(slice) => slice,
                        Released::Abandoned => {
                            self.staged.push(Delivery::Abandoned { src });
                            continue;
                        }
                    };
                    // In-order arrival: the packet itself, or a buffered
                    // successor it spliced back into the stream.
                    self.stats.add(&self.stats.data_packets_accepted, 1);
                    let last = slice.last();
                    if last {
                        self.stats.add(&self.stats.messages_delivered, 1);
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, Stage::Deliver)
                                .node(self.nid.0)
                                .peer(src.0)
                                .msg_id(slice.msg_id)
                                .bytes(slice.offset + slice.body.len() as u64)
                        });
                    }
                    if slice.frag_count == 1 {
                        // A single-fragment slice *is* the message.
                        self.staged.push(Delivery::Message(IncomingMessage {
                            src,
                            payload: slice.body,
                        }));
                        continue;
                    }
                    // Stream the fragment upward with its placement offset;
                    // the consumer scatters it immediately instead of waiting
                    // for the rest. Contiguous fragments within one run
                    // coalesce into a single delivery.
                    self.stats.add(&self.stats.frags_streamed, 1);
                    match self.staged.last_mut() {
                        Some(Delivery::Fragment(p))
                            if p.src == src
                                && p.msg_id == slice.msg_id
                                && p.offset + p.payload.len() as u64 == slice.offset =>
                        {
                            p.payload.append(slice.body);
                            p.last = last;
                        }
                        _ => self.staged.push(Delivery::Fragment(StreamFragment {
                            src,
                            msg_id: slice.msg_id,
                            offset: slice.offset,
                            last,
                            payload: slice.body,
                        })),
                    }
                }
                match pending_acks.iter_mut().find(|(nid, _)| *nid == src) {
                    Some(slot) => {
                        // The stream's cumulative ack is monotone, so the later
                        // value subsumes the one already queued.
                        slot.1 = result.ack;
                        self.stats.add(&self.stats.acks_coalesced, 1);
                    }
                    None => pending_acks.push((src, result.ack)),
                }
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((when, nid))) = self.timers.peek() {
            if when > now {
                break;
            }
            self.timers.pop();
            let Some(peer) = self.tx_peers.get_mut(&nid) else {
                continue;
            };
            match peer.deadline() {
                Some(actual) if actual <= now => {
                    let result = peer.on_timeout(&self.cfg, now);
                    if result.newly_stalled {
                        self.stats.add(&self.stats.peers_stalled, 1);
                        self.stats.stalled_now.inc();
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, Stage::Stall)
                                .node(self.nid.0)
                                .peer(nid.0)
                        });
                    }
                    let n = result.resend.len() as u64;
                    self.stats.add(&self.stats.retransmissions, n);
                    if n > 0 {
                        let me = self.nid.0;
                        self.peer_retx
                            .entry(nid)
                            .or_insert_with(|| {
                                self.obs.registry.counter(
                                    "transport.peer_retransmissions",
                                    &[("node", me.to_string()), ("peer", nid.0.to_string())],
                                )
                            })
                            .add(n);
                    }
                    let bytes: u64 = result.resend.iter().map(|p| p.len() as u64).sum();
                    self.stats.add(&self.stats.resend_bytes, bytes);
                    self.send_data(nid, result.resend, Stage::Retransmit);
                    if let Some(probe) = result.probe {
                        self.flow.probes_sent.inc();
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, Stage::Retransmit)
                                .node(self.nid.0)
                                .peer(nid.0)
                                .detail("probe")
                        });
                        self.link.send(nid, probe);
                    }
                    self.arm_timer(nid);
                }
                // The entry was stale; re-file it under the peer's real
                // deadline so the timer still fires.
                Some(actual) => self.timers.push(Reverse((actual, nid))),
                None => {}
            }
        }
    }
}
