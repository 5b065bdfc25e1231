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
//! mode only names the thread that calls `progress_once` (the endpoint's NIC
//! thread, or whichever caller is blocked in a wait).
//!
//! Two receive-path optimisations live here:
//!
//! * **Batched drain.** One progress step drains the inbound queue to
//!   exhaustion, in runs of up to [`RECV_BATCH`] datagrams,
//!   amortising the doorbell wakeup over the burst. What a run delivers goes
//!   up in one push: one lock, one ring.
//! * **Coalesced acks, sent after dispatch.** A step owes at most one
//!   cumulative ACK per source: cumulative acknowledgments are monotone per
//!   (src, dst) stream, so the last value observed subsumes every earlier
//!   one; suppressed sends are counted in
//!   [`TransportStats::acks_coalesced`]. The owed acks are core state, not
//!   sent by the step: whoever stepped sends them ([`ProgressCore::flush_acks`])
//!   once it has dispatched what the step delivered, so on a shared CPU the
//!   ack does not wake the peer ahead of the local engine. Two things send
//!   one earlier. A full run of [`RECV_BATCH`] datagrams flushes at once, so
//!   a receiver that never idles still acks every `RECV_BATCH` datagrams.
//!   And data to a source that is owed an ack carries it: the ACK goes
//!   first in the same `send_batch` as the data (one `sendmmsg` on UDP, one
//!   push on the fabric) — the same packet as before, one wire call fewer.
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
use crate::stats::TransportStats;
use portals_net::{Datagram, Link};
use portals_obs::{Counter, Layer, Obs, Stage, TraceEvent};
use portals_wire::{Packet, PacketHeader};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use portals_types::{DoorbellQueue, Gather, NodeId, WireError};

/// Maximum inbound datagrams one run of a progress step drains. A run that
/// drains this many sends the cumulative ACKs it owes (one per source) before
/// the next run starts; a shorter run, the last of its step, leaves them owed
/// until the step's deliveries have been dispatched.
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
    /// Where deliveries go up: on the same doorbell as `inbound`, except
    /// beneath a standalone NIC-thread endpoint, whose caller has its own.
    delivered: Arc<DoorbellQueue<Delivery>>,
    /// The current run's deliveries, in order, pushed up together when the
    /// run ends. Streamed fragments coalesce here while contiguous (same
    /// source, same message, continuing offset): placement still overlaps
    /// the wire at run granularity, but the consumer pays one queue hop and
    /// one scatter per run instead of one per MTU fragment.
    staged: Vec<Delivery>,
    /// The cumulative ACK owed to each source (at most one entry per source),
    /// until [`ProgressCore::flush_acks`] or data to that source sends it.
    acks_owed: Vec<(NodeId, u64)>,
    stats: Arc<TransportStats>,
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
            acks_owed: Vec::new(),
            stats,
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
    /// was processed. The acks the step's last run owes stay owed
    /// ([`ProgressCore::owes_acks`]) for the caller to send with
    /// [`ProgressCore::flush_acks`] once it has dispatched the deliveries.
    ///
    /// Re-entrant in the sense required by the progress-mode contract: safe
    /// to call from any thread holding this core's lock, at any point between
    /// (not within) other core steps.
    pub(crate) fn progress_once(&mut self) -> bool {
        // Pump first so packets due *now* land in inbound queues (a global
        // drain: the single wire heap serves every node, so an active waiter
        // delivers for idle nodes too). No-op on bypass/scheduler wires and
        // on links with their own delivery agent: a socket's rx thread has
        // already pushed what it took, and is often the thread running this
        // step.
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

    /// Fold a peer's credit-block transitions into the `flow.*` series.
    fn drain_flow_transitions(stats: &TransportStats, peer: &mut SenderPeer) {
        let (stalls, resumes) = peer.take_credit_transitions();
        stats.credit_stalls.add(stalls);
        stats.credit_resumes.add(resumes);
        for _ in 0..stalls {
            stats.credit_blocked_now.inc();
        }
        for _ in 0..resumes {
            stats.credit_blocked_now.dec();
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
        self.stats.messages_sent.add(1);
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
        Self::drain_flow_transitions(&self.stats, peer);
        self.send_data(dst, packets, Stage::Fragment);
        self.arm_timer(dst);
        self.publish_deadline();
    }

    /// Put `packets` on the wire, counting them and (when tracing) emitting
    /// one `stage` event per packet. Header decoding for the trace is gated on
    /// the tracer being enabled — the decode is a zero-copy header peek, and
    /// the disabled path pays only the branch. An ACK owed to `dst` leaves
    /// first in the same batch.
    fn send_data(&mut self, dst: NodeId, packets: Vec<Gather>, stage: Stage) {
        if packets.is_empty() {
            return;
        }
        self.stats.data_packets_sent.add(packets.len() as u64);
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
        let owed = self
            .acks_owed
            .iter()
            .position(|&(src, _)| src == dst)
            .map(|i| self.acks_owed.remove(i));
        // The per-destination flush is already a coalesced burst of
        // fragments; hand it to the wire as one vector so a batching
        // backend (sendmmsg) crosses the OS boundary once for all of them.
        let batch = owed
            .map(|(_, cumulative)| self.ack(dst, cumulative))
            .into_iter()
            .chain(packets)
            .map(|p| (dst, p))
            .collect();
        self.link.send_batch(batch);
    }

    /// True while a cumulative ACK is owed to some source.
    pub(crate) fn owes_acks(&self) -> bool {
        !self.acks_owed.is_empty()
    }

    /// Send every owed cumulative ACK, one per source, in one batch.
    pub(crate) fn flush_acks(&mut self) {
        if self.acks_owed.is_empty() {
            return;
        }
        let acks = self
            .acks_owed
            .iter()
            .map(|&(src, cumulative)| (src, self.ack(src, cumulative)))
            .collect();
        self.acks_owed.clear();
        self.link.send_batch(acks);
    }

    /// Encode (and count) the cumulative ACK for `src`, carrying the credit
    /// horizon as of now.
    fn ack(&self, src: NodeId, cumulative: u64) -> Gather {
        self.stats.acks_sent.add(1);
        Packet::ack(cumulative, self.advertised_credit(src)).encode()
    }

    /// Owe `src` the cumulative ACK `cumulative`, replacing (and counting as
    /// coalesced) any ACK already owed to it: the stream's cumulative ack is
    /// monotone, so the later value subsumes the earlier.
    fn owe_ack(&mut self, src: NodeId, cumulative: u64) {
        match self.acks_owed.iter_mut().find(|(nid, _)| *nid == src) {
            Some(slot) => {
                slot.1 = cumulative;
                self.stats.acks_coalesced.add(1);
            }
            None => self.acks_owed.push((src, cumulative)),
        }
    }

    /// Drain up to [`RECV_BATCH`] datagrams for one wakeup and hand up what
    /// they delivered. Their acks stay owed, unless the run drained a full
    /// `RECV_BATCH`: then the receiver may never idle, and it acks now.
    fn on_inbound(&mut self, first: Datagram) {
        self.process_datagram(first);
        let mut drained = 1;
        while drained < RECV_BATCH {
            let Ok(d) = self.inbound.try_recv() else {
                break;
            };
            self.process_datagram(d);
            drained += 1;
        }
        // Hand up what the run delivered before acking: the advertised
        // credit already reflects its message accounting.
        self.delivered.push_all(self.staged.drain(..));
        if drained == RECV_BATCH {
            self.flush_acks();
        }
    }

    fn process_datagram(&mut self, dgram: Datagram) {
        let src = dgram.src;
        let packet = match Packet::decode_gather(&dgram.payload) {
            Ok(p) => p,
            Err(e) => {
                // CRC failures get their own counter: on a real wire they are
                // the corruption signal, and the reliability machinery treats
                // the packet exactly like a lost one (the retransmission
                // timer recovers it).
                let detail = if matches!(e, WireError::Checksum { .. }) {
                    self.stats.checksum_rejects.add(1);
                    "checksum"
                } else {
                    self.stats.garbage_dropped.add(1);
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
                self.stats.acks_received.add(1);
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
                        self.stats.credits_granted.add(peer.credit() - horizon);
                    }
                    let before = peer.outstanding();
                    let outcome = peer.on_ack(cumulative, &self.cfg, now);
                    let after = peer.outstanding();
                    self.outstanding
                        .fetch_sub(before - after, Ordering::Relaxed);
                    if outcome.recovered {
                        self.stats.peers_recovered.add(1);
                        self.stats.stalled_now.dec();
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, Stage::Resume)
                                .node(self.nid.0)
                                .peer(src.0)
                                .seq(cumulative)
                        });
                    }
                    Self::drain_flow_transitions(&self.stats, peer);
                    self.send_data(src, granted, Stage::Fragment);
                    self.send_data(src, outcome.released, Stage::Fragment);
                    self.arm_timer(src);
                }
            }
            PacketHeader::Probe { base } => {
                self.stats.probes_received.inc();
                self.obs.tracer.emit(|| {
                    TraceEvent::new(Layer::Transport, Stage::Rx)
                        .node(self.nid.0)
                        .peer(src.0)
                        .seq(base)
                        .detail("probe")
                });
                // Answer with a fresh cumulative ack carrying the current
                // credit horizon, coalesced with any ack already owed to this
                // source.
                let limit = self.cfg.ooo_buffer_bytes;
                let ack = self
                    .rx_peers
                    .entry(src)
                    .or_insert_with(|| ReceiverPeer::with_limit(limit))
                    .current_ack();
                self.owe_ack(src, ack);
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
                    self.stats.duplicates_dropped.add(1);
                    self.obs.tracer.emit(|| {
                        TraceEvent::new(Layer::Transport, Stage::Drop)
                            .node(self.nid.0)
                            .peer(src.0)
                            .msg_id(msg_id)
                            .seq(seq)
                            .detail("duplicate")
                    });
                } else if result.out_of_order && result.buffered {
                    self.stats.ooo_buffered.add(1);
                    // Only the lock holder writes the gauge, so read-then-set
                    // keeps the max without an atomic max primitive.
                    if hwm > self.stats.bytes_buffered_hwm.get() {
                        self.stats.bytes_buffered_hwm.set(hwm);
                    }
                } else if result.out_of_order {
                    self.stats.out_of_order_dropped.add(1);
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
                    self.stats
                        .noncontiguous_dropped
                        .add(u64::from(result.noncontiguous));
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
                    self.stats.data_packets_accepted.add(1);
                    let last = slice.last();
                    if last {
                        self.stats.messages_delivered.add(1);
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
                    self.stats.frags_streamed.add(1);
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
                self.owe_ack(src, result.ack);
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
                        self.stats.peers_stalled.add(1);
                        self.stats.stalled_now.inc();
                        self.obs.tracer.emit(|| {
                            TraceEvent::new(Layer::Transport, Stage::Stall)
                                .node(self.nid.0)
                                .peer(nid.0)
                        });
                    }
                    let n = result.resend.len() as u64;
                    self.stats.retransmissions.add(n);
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
                    self.stats.resend_bytes.add(bytes);
                    self.send_data(nid, result.resend, Stage::Retransmit);
                    if let Some(probe) = result.probe {
                        self.stats.probes_sent.inc();
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

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use portals_net::{Fabric, LinkCaps, Nic};
    use portals_types::Readiness;

    /// One entry per wire call the core made: a `send` or a `send_batch`.
    type Calls = Arc<Mutex<Vec<Vec<(NodeId, Gather)>>>>;

    /// A fabric NIC that records every wire call it is handed.
    struct Recording {
        nic: Nic,
        calls: Calls,
    }

    impl Link for Recording {
        fn nid(&self) -> NodeId {
            Link::nid(&self.nic)
        }
        fn send(&self, dst: NodeId, payload: Gather) {
            self.send_batch(vec![(dst, payload)]);
        }
        fn send_batch(&self, batch: Vec<(NodeId, Gather)>) {
            self.calls.lock().push(batch.clone());
            Link::send_batch(&self.nic, batch);
        }
        fn inbound_receiver(&self) -> Arc<DoorbellQueue<Datagram>> {
            Link::inbound_receiver(&self.nic)
        }
        fn caps(&self) -> LinkCaps {
            self.nic.caps()
        }
    }

    /// Node 0's core on a recording link, and raw NICs for nodes
    /// `1..=sources` that hand it DATA packets.
    struct Rig {
        core: ProgressCore,
        calls: Calls,
        sources: Vec<Nic>,
        delivered: Arc<DoorbellQueue<Delivery>>,
        stats: Arc<TransportStats>,
        next_seq: HashMap<NodeId, u64>,
        _fabric: Fabric,
    }

    impl Rig {
        fn new(sources: u32) -> Rig {
            let fabric = Fabric::ideal();
            let calls = Calls::default();
            let link = Recording {
                nic: fabric.attach(NodeId(0)),
                calls: Arc::clone(&calls),
            };
            let sources = (1..=sources).map(|n| fabric.attach(NodeId(n))).collect();
            let obs = Obs::default();
            let delivered = Arc::new(DoorbellQueue::new(
                Arc::new(Readiness::new()),
                Readiness::DELIVERED,
            ));
            let stats = Arc::new(TransportStats::new(&obs.registry, 0));
            let cfg = TransportConfig {
                mtu: 1024,
                ..Default::default()
            };
            let core = ProgressCore::new(
                Box::new(link),
                cfg,
                false,
                obs,
                Arc::clone(&delivered),
                Arc::clone(&stats),
                Arc::default(),
                Arc::new(AtomicU64::new(DEADLINE_NONE)),
            );
            Rig {
                core,
                calls,
                sources,
                delivered,
                stats,
                next_seq: HashMap::new(),
                _fabric: fabric,
            }
        }

        /// Queue `n` one-fragment messages from source node `src` at the
        /// core's NIC; returns the last sequence number sent.
        fn data_from(&mut self, src: u32, n: u64) -> u64 {
            let nic = &self.sources[src as usize - 1];
            let seq = self.next_seq.entry(NodeId(src)).or_insert(0);
            for _ in 0..n {
                let packet = Packet::data(*seq, *seq, 0, 0, 1, Gather::copy_from_slice(b"x"));
                nic.send(NodeId(0), packet.encode());
                *seq += 1;
            }
            *seq - 1
        }

        /// The wire calls so far, each decoded to (destination, header).
        fn wire_calls(&self) -> Vec<Vec<(NodeId, PacketHeader)>> {
            self.calls
                .lock()
                .iter()
                .map(|call| {
                    call.iter()
                        .map(|(dst, p)| (*dst, Packet::decode_gather(p).expect("decodes").header))
                        .collect()
                })
                .collect()
        }
    }

    fn is_ack(header: &PacketHeader, want: u64) -> bool {
        matches!(header, PacketHeader::Ack { cumulative, .. } if *cumulative == want)
    }

    #[test]
    fn a_step_that_delivers_puts_nothing_on_the_wire() {
        let mut rig = Rig::new(1);
        rig.data_from(1, 3);
        assert!(rig.core.progress_once());
        assert_eq!(rig.delivered.len(), 3, "the step delivered");
        assert!(rig.wire_calls().is_empty(), "{:?}", rig.wire_calls());
        assert_eq!(rig.stats.acks_sent.get(), 0);
        assert!(rig.core.owes_acks());
    }

    #[test]
    fn flush_acks_sends_one_cumulative_ack_per_source() {
        let mut rig = Rig::new(2);
        let last_1 = rig.data_from(1, 3);
        let last_2 = rig.data_from(2, 2);
        let last_1 = rig.data_from(1, 1).max(last_1);
        rig.core.progress_once();
        rig.core.flush_acks();
        let calls = rig.wire_calls();
        assert_eq!(calls.len(), 1, "one wire call: {calls:?}");
        assert_eq!(calls[0].len(), 2, "one ACK per source: {calls:?}");
        assert_eq!(calls[0][0].0, NodeId(1));
        assert!(is_ack(&calls[0][0].1, last_1), "{calls:?}");
        assert_eq!(calls[0][1].0, NodeId(2));
        assert!(is_ack(&calls[0][1].1, last_2), "{calls:?}");
        assert_eq!(rig.stats.acks_sent.get(), 2);
        assert_eq!(rig.stats.acks_coalesced.get(), 4);
        assert!(!rig.core.owes_acks());
        rig.core.flush_acks();
        assert_eq!(rig.wire_calls().len(), 1, "nothing left to flush");
    }

    #[test]
    fn data_to_a_source_owed_an_ack_carries_it_in_one_wire_call() {
        let mut rig = Rig::new(2);
        let last = rig.data_from(1, 2);
        rig.data_from(2, 1);
        rig.core.progress_once();
        rig.core
            .on_send(NodeId(1), Gather::copy_from_slice(b"reply"));
        let calls = rig.wire_calls();
        assert_eq!(calls.len(), 1, "{calls:?}");
        let [(to_ack, ack), (to_data, data)] = &calls[0][..] else {
            panic!("expected [ACK, DATA] in one call: {calls:?}");
        };
        assert_eq!((*to_ack, *to_data), (NodeId(1), NodeId(1)));
        assert!(is_ack(ack, last), "{calls:?}");
        assert!(matches!(data, PacketHeader::Data { .. }), "{calls:?}");
        // Node 2's ack is still owed, and leaves alone.
        assert!(rig.core.owes_acks());
        rig.core.flush_acks();
        let calls = rig.wire_calls();
        assert_eq!(calls.len(), 2);
        assert!(
            matches!(&calls[1][..], [(NodeId(2), h)] if is_ack(h, 0)),
            "{calls:?}"
        );
    }

    #[test]
    fn a_full_run_is_acked_before_the_step_returns() {
        let mut rig = Rig::new(1);
        let full = rig.data_from(1, RECV_BATCH as u64);
        let after = rig.data_from(1, 1);
        rig.core.progress_once();
        let calls = rig.wire_calls();
        assert_eq!(calls.len(), 1, "{calls:?}");
        assert!(
            matches!(&calls[0][..], [(NodeId(1), h)] if is_ack(h, full)),
            "{calls:?}"
        );
        // The second run, one datagram short of full, leaves its ack owed.
        assert!(rig.core.owes_acks());
        rig.core.flush_acks();
        assert!(is_ack(&rig.wire_calls()[1][0].1, after));
    }
}
