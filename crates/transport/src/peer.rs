//! Pure per-peer protocol state machines.
//!
//! [`SenderPeer`] and [`ReceiverPeer`] contain all the reliability logic and
//! none of the I/O: events go in (a message to send, an ack, a data packet, a
//! timeout), wire-ready packets and deliverable messages come out. The progress
//! core is a thin shell around them, and the tests below exercise loss,
//! reordering and duplication without any threads or clocks.

use crate::config::TransportConfig;
use portals_types::Gather;
use portals_wire::{Packet, PacketHeader};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Cumulative-ack value meaning "nothing received yet" (the sequence space
/// starts at 0, so the pre-first cumulative is the all-ones sentinel).
pub const ACK_NONE: u64 = u64::MAX;

/// A fragment waiting for window space (sequence not yet assigned).
#[derive(Debug, Clone)]
struct PendingFrag {
    msg_id: u64,
    /// Absolute payload offset of this fragment within its message.
    offset: u64,
    frag_index: u32,
    frag_count: u32,
    body: Gather,
}

/// A packet in flight: kept encoded for retransmission. The encoded image is
/// a [`Gather`] of refcounted segments, so keeping it (and re-sending it on
/// every timer fire) copies handles, never payload bytes.
#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    encoded: Gather,
}

/// Sender-side state for one destination.
#[derive(Debug)]
pub struct SenderPeer {
    next_seq: u64,
    /// Oldest unacknowledged sequence (== next_seq when nothing is in flight).
    base: u64,
    in_flight: VecDeque<InFlight>,
    pending: VecDeque<PendingFrag>,
    next_msg_id: u64,
    /// Deadline for the retransmission timer (None when nothing in flight),
    /// doubling as the PROBE timer while the peer is credit-blocked with an
    /// empty window.
    deadline: Option<Instant>,
    /// Consecutive timeouts without forward progress.
    retries: u32,
    /// True while the peer is past the stall threshold and has not yet made
    /// progress. Cleared (and reported via [`AckOutcome::recovered`]) by the
    /// first ack that advances the window.
    stalled: bool,
    /// Advertised credit horizon: sequences strictly below this may be sent.
    /// Monotonically non-decreasing (acks carrying stale horizons are
    /// ignored).
    credit: u64,
    /// True while pending fragments are held back by the credit horizon
    /// (window space is free, credits are not).
    credit_blocked: bool,
    /// Consecutive probe timeouts without a credit grant (bounds the probe
    /// backoff exponent; reset when credits arrive).
    probe_retries: u32,
    /// Stall/resume transitions since the last
    /// [`SenderPeer::take_credit_transitions`] — the core drains these into
    /// its flow stats.
    credit_stalls: u64,
    credit_resumes: u64,
    /// Extend each DATA packet's CRC over its body, not just the header:
    /// the wire to this peer can corrupt bytes in flight.
    checksum_body: bool,
}

/// What a timeout produced.
#[derive(Debug, PartialEq, Eq)]
pub struct TimeoutResult {
    /// Packets to retransmit (the whole window — go-back-N). Handle copies of
    /// the in-flight encodings, not fresh buffers.
    pub resend: Vec<Gather>,
    /// True the first time `retries` crosses the stall threshold.
    pub newly_stalled: bool,
    /// A credit PROBE to send instead of data: the window is empty and the
    /// peer's advertised horizon blocks everything still pending.
    pub probe: Option<Gather>,
}

/// What an ack produced.
#[derive(Debug, PartialEq, Eq)]
pub struct AckOutcome {
    /// Packets newly admitted to the window by the ack's progress.
    pub released: Vec<Gather>,
    /// True when this ack is the first forward progress after the peer had
    /// been reported stalled — the core un-marks the peer in its stats.
    pub recovered: bool,
}

impl SenderPeer {
    /// Fresh state assuming `credit` sequences may be sent before the peer
    /// advertises anything. `0` models a zero-credit start: the first
    /// PROBE/ACK exchange must complete before data flows. `checksum_body`
    /// says whether DATA packet CRCs cover the body.
    pub fn new(credit: u64, checksum_body: bool) -> SenderPeer {
        SenderPeer {
            next_seq: 0,
            base: 0,
            in_flight: VecDeque::new(),
            pending: VecDeque::new(),
            next_msg_id: 0,
            deadline: None,
            retries: 0,
            stalled: false,
            credit,
            credit_blocked: false,
            probe_retries: 0,
            credit_stalls: 0,
            credit_resumes: 0,
            checksum_body,
        }
    }

    /// Fragment `msg` per the MTU, queue the fragments, and return any packets
    /// that fit in the window right now.
    pub fn enqueue_message(
        &mut self,
        msg: Gather,
        cfg: &TransportConfig,
        now: Instant,
    ) -> Vec<Gather> {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let frag_count = frag_count_for(msg.len(), cfg.mtu);
        for i in 0..frag_count {
            let start = i as usize * cfg.mtu;
            let end = (start + cfg.mtu).min(msg.len());
            self.pending.push_back(PendingFrag {
                msg_id,
                offset: start as u64,
                frag_index: i,
                frag_count,
                body: msg.slice(start, end - start),
            });
        }
        self.admit(cfg, now)
    }

    /// Move pending fragments into the window while both window space and
    /// credits remain.
    fn admit(&mut self, cfg: &TransportConfig, now: Instant) -> Vec<Gather> {
        let credits =
            usize::try_from(self.credit.saturating_sub(self.next_seq)).unwrap_or(usize::MAX);
        let room = cfg
            .window
            .saturating_sub(self.in_flight.len())
            .min(credits)
            .min(self.pending.len());
        let first = self.next_seq;
        let probing = self.in_flight.is_empty();
        self.next_seq += room as u64;
        let packets: Vec<Packet> = (first..)
            .zip(self.pending.drain(..room))
            .map(|(seq, frag)| {
                Packet::data(
                    seq,
                    frag.msg_id,
                    frag.offset,
                    frag.frag_index,
                    frag.frag_count,
                    frag.body,
                )
            })
            .collect();
        // Body coverage is decided here, at encode time: the in-flight image
        // (and every retransmission of it) carries the same CRC. The
        // admitted packets' headers share one allocation.
        let out = Packet::encode_all(packets, self.checksum_body);
        for (seq, encoded) in (first..).zip(&out) {
            self.in_flight.push_back(InFlight {
                seq,
                encoded: encoded.clone(),
            });
        }
        // The first packets into an empty window re-arm the timer: a probe
        // deadline armed while credit-blocked may be due already, and would
        // resend the window before its acks can return.
        if !out.is_empty() && (probing || self.deadline.is_none()) {
            self.deadline = Some(now + cfg.rto_after(self.retries));
        }
        // Credit-block bookkeeping: pending work the window would take but
        // the advertised horizon forbids.
        let blocked = !self.pending.is_empty()
            && self.in_flight.len() < cfg.window
            && self.next_seq >= self.credit;
        if blocked != self.credit_blocked {
            self.credit_blocked = blocked;
            if blocked {
                self.credit_stalls += 1;
            } else {
                self.credit_resumes += 1;
                self.probe_retries = 0;
            }
        }
        // With an empty window no ack is ever coming: arm the probe timer so
        // the core wakes us to solicit credits.
        if self.credit_blocked && self.in_flight.is_empty() && self.deadline.is_none() {
            self.deadline = Some(now + cfg.rto_after(self.probe_retries));
        }
        out
    }

    /// Apply a credit horizon advertised by the peer (piggybacked on an ack
    /// or a probe response). Horizons are monotonic: stale values are
    /// ignored, so duplicated or reordered acks never shrink the window.
    /// Returns packets the new credits released.
    pub fn grant_credit(
        &mut self,
        credit: u64,
        cfg: &TransportConfig,
        now: Instant,
    ) -> Vec<Gather> {
        if credit > self.credit {
            self.credit = credit;
        }
        self.admit(cfg, now)
    }

    /// Process a cumulative acknowledgment.
    ///
    /// *Any* cumulative progress — even one fragment of a large window —
    /// resets the retry counter and clears a stall: go-back-N retransmits the
    /// whole window, so partial acks are the normal shape of recovery and
    /// must not leave the peer counted as stalled.
    pub fn on_ack(&mut self, cumulative: u64, cfg: &TransportConfig, now: Instant) -> AckOutcome {
        if cumulative == ACK_NONE {
            // "nothing received" keep-alive
            return AckOutcome {
                released: Vec::new(),
                recovered: false,
            };
        }
        let mut progressed = false;
        while let Some(front) = self.in_flight.front() {
            if front.seq <= cumulative {
                self.in_flight.pop_front();
                self.base = cumulative + 1;
                progressed = true;
            } else {
                break;
            }
        }
        let mut recovered = false;
        if progressed {
            self.retries = 0;
            recovered = std::mem::take(&mut self.stalled);
            self.deadline = if self.in_flight.is_empty() {
                None
            } else {
                Some(now + cfg.rto_after(0))
            };
        }
        AckOutcome {
            released: self.admit(cfg, now),
            recovered,
        }
    }

    /// The retransmission timer fired: resend the whole window (go-back-N) and
    /// back off — or, when the window is empty because the peer's credit
    /// horizon blocks everything pending, emit a PROBE on its own bounded
    /// exponential backoff instead of blindly retransmitting.
    pub fn on_timeout(&mut self, cfg: &TransportConfig, now: Instant) -> TimeoutResult {
        if self.in_flight.is_empty() {
            if self.credit_blocked {
                self.probe_retries = self.probe_retries.saturating_add(1);
                self.deadline = Some(now + cfg.rto_after(self.probe_retries));
                return TimeoutResult {
                    resend: Vec::new(),
                    newly_stalled: false,
                    probe: Some(Packet::probe(self.base).encode()),
                };
            }
            self.deadline = None;
            return TimeoutResult {
                resend: Vec::new(),
                newly_stalled: false,
                probe: None,
            };
        }
        self.retries = self.retries.saturating_add(1);
        self.deadline = Some(now + cfg.rto_after(self.retries));
        let newly_stalled = self.retries == cfg.stall_retries && !self.stalled;
        if newly_stalled {
            self.stalled = true;
        }
        TimeoutResult {
            resend: self.in_flight.iter().map(|p| p.encoded.clone()).collect(),
            newly_stalled,
            probe: None,
        }
    }

    /// Current retransmission deadline, if armed.
    #[inline]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Unacknowledged plus unsent fragments.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.in_flight.len() + self.pending.len()
    }

    /// Consecutive timeouts without progress.
    #[inline]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// True while the peer is past the stall threshold without progress.
    #[inline]
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// The message id the next [`SenderPeer::enqueue_message`] will assign.
    #[inline]
    pub fn next_msg_id(&self) -> u64 {
        self.next_msg_id
    }

    /// The peer's current credit horizon.
    #[inline]
    pub fn credit(&self) -> u64 {
        self.credit
    }

    /// True while pending fragments are held back by credits, not the window.
    #[inline]
    pub fn is_credit_blocked(&self) -> bool {
        self.credit_blocked
    }

    /// Drain the (stall, resume) transition counts accumulated since the last
    /// call — the core folds these into its flow stats.
    pub fn take_credit_transitions(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.credit_stalls),
            std::mem::take(&mut self.credit_resumes),
        )
    }
}

fn frag_count_for(len: usize, mtu: usize) -> u32 {
    if len == 0 {
        1 // a zero-length message still needs one (empty) fragment on the wire
    } else {
        len.div_ceil(mtu) as u32
    }
}

/// One in-order fragment released by the receiver: the unit of delivery.
/// Carries the absolute payload offset from the wire header, so the consumer
/// can place the bytes without waiting for the rest of the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragSlice {
    /// Per-(src, dst) message id assigned by the sender.
    pub msg_id: u64,
    /// Absolute payload offset of `body` within the message.
    pub offset: u64,
    /// Fragment ordinal within the message.
    pub frag_index: u32,
    /// Total fragments in the message.
    pub frag_count: u32,
    /// This fragment's payload bytes (zero-copy datagram views).
    pub body: Gather,
}

impl FragSlice {
    /// True for the message's final fragment.
    #[inline]
    pub fn last(&self) -> bool {
        self.frag_index.checked_add(1) == Some(self.frag_count)
    }
}

/// One step of a source's in-order stream, as [`ReceiverPeer::on_data`]
/// releases it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Released {
    /// The next fragment of the source's current message: it either starts a
    /// message (`frag_index == 0`, `offset == 0`) or continues the one in
    /// progress at exactly the next index and the next byte.
    Frag(FragSlice),
    /// The message in progress was broken off (the packet that followed its
    /// last released fragment did not continue it). None of its remaining
    /// fragments will be released; consumers discard what they hold of it.
    Abandoned,
}

/// What [`ReceiverPeer::on_data`] produced, beside the releases it
/// appended.
#[derive(Debug, PartialEq, Eq)]
pub struct RxResult {
    /// In-sequence packets whose fragment fields neither continued the
    /// message in progress nor started a new one. Each abandons the message
    /// it interrupted and is itself discarded unless it starts a message.
    pub noncontiguous: u32,
    /// Cumulative ack to send back ([`ACK_NONE`] if nothing in-order yet).
    pub ack: u64,
    /// The packet was a duplicate (seq below the horizon, or already held in
    /// the out-of-order buffer).
    pub duplicate: bool,
    /// The packet arrived above the in-order horizon.
    pub out_of_order: bool,
    /// The out-of-order packet was kept for later splicing (false: the
    /// buffer budget was exhausted and go-back-N retransmission recovers it).
    pub buffered: bool,
}

impl RxResult {
    /// A result with no noncontiguous arrival.
    fn held(ack: u64, duplicate: bool, out_of_order: bool, buffered: bool) -> RxResult {
        RxResult {
            noncontiguous: 0,
            ack,
            duplicate,
            out_of_order,
            buffered,
        }
    }
}

/// Where the message a source is currently sending stands: what its next
/// fragment must look like.
#[derive(Debug, Clone, Copy)]
struct OpenMessage {
    msg_id: u64,
    frag_count: u32,
    next_index: u32,
    next_offset: u64,
}

/// Receiver-side state for one source.
///
/// In-order packets stream straight out as [`FragSlice`]s; out-of-order
/// packets are buffered up to a byte budget (selective-repeat-style receive
/// under a cumulative-ack wire protocol) and spliced into the stream when the
/// hole fills. Only the *gap* is ever held.
///
/// Sequence numbers order *packets*; the fragment fields (`msg_id`, `offset`,
/// `frag_index`, `frag_count`) come off the wire beside them and are checked
/// here, once, as slices are released: every consumer above may rely on a
/// message's fragments being offset-contiguous from zero and never
/// interleaved with another message of the same source.
#[derive(Debug)]
pub struct ReceiverPeer {
    /// Next sequence expected in order.
    expected: u64,
    /// Out-of-order packets keyed by sequence, awaiting the hole to fill.
    stashed: BTreeMap<u64, FragSlice>,
    /// Bytes currently held in `stashed`.
    stashed_bytes: usize,
    /// High-water mark of `stashed_bytes`.
    stashed_hwm: usize,
    /// Byte budget for `stashed`; 0 disables buffering (pure go-back-N).
    ooo_limit: usize,
    /// The multi-fragment message whose fragments are being released.
    open: Option<OpenMessage>,
}

impl Default for ReceiverPeer {
    fn default() -> Self {
        ReceiverPeer::with_limit(crate::config::TransportConfig::default().ooo_buffer_bytes)
    }
}

impl ReceiverPeer {
    /// Fresh state for a new source with the default out-of-order budget.
    pub fn new() -> ReceiverPeer {
        ReceiverPeer::default()
    }

    /// Fresh state with an explicit out-of-order buffer budget in bytes.
    pub fn with_limit(ooo_limit: usize) -> ReceiverPeer {
        ReceiverPeer {
            expected: 0,
            stashed: BTreeMap::new(),
            stashed_bytes: 0,
            stashed_hwm: 0,
            ooo_limit,
            open: None,
        }
    }

    fn cumulative(&self) -> u64 {
        self.expected.checked_sub(1).unwrap_or(ACK_NONE)
    }

    /// Next sequence expected in order — the base the core adds its
    /// advertised credit window to when piggybacking credits on acks.
    #[inline]
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// The cumulative ack this receiver would send right now ([`ACK_NONE`]
    /// before anything arrived in order) — what a PROBE is answered with.
    #[inline]
    pub fn current_ack(&self) -> u64 {
        self.cumulative()
    }

    /// Bytes currently held in the out-of-order buffer.
    #[inline]
    pub fn buffered_bytes(&self) -> usize {
        self.stashed_bytes
    }

    /// High-water mark of [`ReceiverPeer::buffered_bytes`].
    #[inline]
    pub fn buffered_hwm(&self) -> usize {
        self.stashed_hwm
    }

    /// Process a DATA packet. In-order packets (and any buffered successors
    /// they unblock) are appended to `released`, in order: the packet itself
    /// when it arrived at the horizon, then what it spliced back. Duplicates
    /// and buffered or dropped out-of-order arrivals append nothing.
    /// Out-of-order packets are buffered within the byte budget, each copied
    /// into an allocation of its own so that it pins no receive buffer, and
    /// dropped beyond it; duplicates are suppressed. Every arrival elicits a
    /// cumulative ack so the sender can resynchronize. `released` is the
    /// caller's, reused across calls.
    pub fn on_data(
        &mut self,
        header: PacketHeader,
        body: Gather,
        released: &mut Vec<Released>,
    ) -> RxResult {
        let PacketHeader::Data {
            seq,
            msg_id,
            offset,
            frag_index,
            frag_count,
        } = header
        else {
            panic!("on_data called with an ACK header");
        };
        if seq < self.expected {
            return RxResult::held(self.cumulative(), true, false, false);
        }
        let slice = FragSlice {
            msg_id,
            offset,
            frag_index,
            frag_count,
            body,
        };
        if seq > self.expected {
            if self.stashed.contains_key(&seq) {
                return RxResult::held(self.cumulative(), true, true, false);
            }
            let fits = self.stashed_bytes + slice.body.len() <= self.ooo_limit;
            if fits {
                self.stashed_bytes += slice.body.len();
                self.stashed_hwm = self.stashed_hwm.max(self.stashed_bytes);
                let body = Gather::from_vec(slice.body.to_vec());
                self.stashed.insert(seq, FragSlice { body, ..slice });
            }
            return RxResult::held(self.cumulative(), false, true, fits);
        }
        // At the horizon: release this packet, then splice every buffered
        // successor the hole-fill unblocked.
        let mut result = RxResult::held(ACK_NONE, false, false, false);
        self.expected += 1;
        self.release(slice, released, &mut result);
        while let Some(next) = self.stashed.remove(&self.expected) {
            self.stashed_bytes -= next.body.len();
            self.expected += 1;
            self.release(next, released, &mut result);
        }
        result.ack = self.cumulative();
        result
    }

    /// Hand one in-sequence slice to the stream, enforcing contiguity: it
    /// must continue the open message exactly, or start a message. A sender
    /// that honours the protocol never fails the test; one that was restarted
    /// mid-message, or is hostile, loses the message it broke and nothing
    /// else.
    fn release(&mut self, slice: FragSlice, released: &mut Vec<Released>, out: &mut RxResult) {
        let continues = self.open.is_some_and(|m| {
            slice.msg_id == m.msg_id
                && slice.frag_count == m.frag_count
                && slice.frag_index == m.next_index
                && slice.offset == m.next_offset
        });
        if !continues {
            let interrupted = self.open.take().is_some();
            let starts = slice.frag_index == 0 && slice.offset == 0 && slice.frag_count != 0;
            if interrupted {
                released.push(Released::Abandoned);
            }
            if interrupted || !starts {
                out.noncontiguous += 1;
            }
            if !starts {
                return;
            }
        }
        // Validated: `frag_index < frag_count`, and `offset` is the sum of
        // the bytes actually released, so neither increment can overflow.
        self.open = (!slice.last()).then(|| OpenMessage {
            msg_id: slice.msg_id,
            frag_count: slice.frag_count,
            next_index: slice.frag_index + 1,
            next_offset: slice.offset + slice.body.len() as u64,
        });
        released.push(Released::Frag(slice));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_wire::Packet;
    use proptest::prelude::*;
    use std::time::Duration;

    fn cfg() -> TransportConfig {
        TransportConfig {
            mtu: 4,
            window: 3,
            rto_base: Duration::from_millis(10),
            stall_retries: 2,
            ..Default::default()
        }
    }

    fn now() -> Instant {
        Instant::now()
    }

    /// A sender whose credit horizon never binds, so a test of the window
    /// machine sees only the window.
    fn ungated() -> SenderPeer {
        SenderPeer::new(u64::MAX, false)
    }

    fn g(b: &[u8]) -> Gather {
        Gather::copy_from_slice(b)
    }

    fn decode(pkts: &[Gather]) -> Vec<Packet> {
        pkts.iter()
            .map(|b| Packet::decode_gather(b).unwrap())
            .collect()
    }

    #[test]
    fn small_message_is_one_fragment() {
        let mut tx = ungated();
        let pkts = tx.enqueue_message(g(b"hi"), &cfg(), now());
        let pkts = decode(&pkts);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].header, dh(0, 0, 0, 0, 1));
        assert_eq!(pkts[0].body, &b"hi"[..]);
    }

    #[test]
    fn zero_length_message_still_sends_a_packet() {
        let mut tx = ungated();
        let pkts = tx.enqueue_message(Gather::new(), &cfg(), now());
        assert_eq!(pkts.len(), 1);
        let p = Packet::decode_gather(&pkts[0]).unwrap();
        assert_eq!(p.header, dh(0, 0, 0, 0, 1));
        assert!(p.body.is_empty());
    }

    #[test]
    fn fragmentation_respects_mtu_and_window() {
        let mut tx = ungated();
        // 10 bytes at MTU 4 → 3 fragments; window 3 admits all immediately.
        let pkts = tx.enqueue_message(g(b"0123456789"), &cfg(), now());
        let pkts = decode(&pkts);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].body, &b"0123"[..]);
        assert_eq!(pkts[1].body, &b"4567"[..]);
        assert_eq!(pkts[2].body, &b"89"[..]);
        // A second message must wait for window space.
        let more = tx.enqueue_message(g(b"xx"), &cfg(), now());
        assert!(more.is_empty());
        assert_eq!(tx.outstanding(), 4);
    }

    #[test]
    fn ack_slides_window_and_admits_pending() {
        let mut tx = ungated();
        let t = now();
        let c = cfg();
        tx.enqueue_message(g(b"0123456789"), &c, t); // seq 0..3 in flight
        tx.enqueue_message(g(b"ab"), &c, t); // pending
        let released = tx.on_ack(1, &c, t).released; // acks seq 0,1
        let released = decode(&released);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].header, dh(3, 1, 0, 0, 1));
        assert_eq!(tx.outstanding(), 2); // seq 2 and 3 unacked
    }

    #[test]
    fn ack_none_is_a_noop() {
        let mut tx = ungated();
        let t = now();
        tx.enqueue_message(g(b"hi"), &cfg(), t);
        let before = tx.outstanding();
        assert!(tx.on_ack(ACK_NONE, &cfg(), t).released.is_empty());
        assert_eq!(tx.outstanding(), before);
    }

    #[test]
    fn stale_ack_does_not_regress() {
        let mut tx = ungated();
        let t = now();
        let c = cfg();
        tx.enqueue_message(g(b"0123456789"), &c, t);
        tx.on_ack(2, &c, t); // everything acked
        assert_eq!(tx.outstanding(), 0);
        assert!(tx.deadline().is_none());
        // A late duplicate ack for seq 0 must not break anything.
        assert!(tx.on_ack(0, &c, t).released.is_empty());
        assert_eq!(tx.outstanding(), 0);
    }

    #[test]
    fn timeout_resends_whole_window_and_backs_off() {
        let mut tx = ungated();
        let t = now();
        let c = cfg();
        tx.enqueue_message(g(b"0123456789"), &c, t);
        let r1 = tx.on_timeout(&c, t);
        assert_eq!(r1.resend.len(), 3);
        assert!(!r1.newly_stalled);
        assert_eq!(tx.retries(), 1);
        let r2 = tx.on_timeout(&c, t);
        assert_eq!(r2.resend.len(), 3);
        assert!(r2.newly_stalled); // stall_retries == 2
        let r3 = tx.on_timeout(&c, t);
        assert!(!r3.newly_stalled); // only reported once
                                    // Progress resets the stall counter.
        tx.on_ack(0, &c, t);
        assert_eq!(tx.retries(), 0);
    }

    #[test]
    fn partial_ack_progress_resets_retries_and_clears_stall() {
        // Regression (stall accounting): recovery must be recognized on ANY
        // cumulative progress, not only when the window fully drains —
        // go-back-N recovery normally acks the window one retransmission
        // round at a time.
        let mut tx = ungated();
        let t = now();
        let c = cfg();
        tx.enqueue_message(g(b"0123456789"), &c, t); // seq 0..3, window holds 3

        // Time out past the stall threshold.
        assert!(!tx.on_timeout(&c, t).newly_stalled);
        assert!(tx.on_timeout(&c, t).newly_stalled);
        assert!(tx.is_stalled());
        assert_eq!(tx.retries(), 2);

        // Partial progress: ack only seq 0, window still has seq 1,2 unacked.
        let out = tx.on_ack(0, &c, t);
        assert!(out.recovered, "first progress after a stall must recover");
        assert!(!tx.is_stalled());
        assert_eq!(tx.retries(), 0);
        assert!(tx.outstanding() > 0, "window must not be fully drained");

        // Further progress is not a second recovery.
        assert!(!tx.on_ack(1, &c, t).recovered);

        // A second stall cycle reports stall and recovery exactly once each.
        tx.on_timeout(&c, t);
        assert!(tx.on_timeout(&c, t).newly_stalled);
        assert!(!tx.on_timeout(&c, t).newly_stalled);
        assert!(tx.on_ack(3, &c, t).recovered);
        assert!(!tx.is_stalled());
    }

    #[test]
    fn ack_without_progress_does_not_recover_a_stalled_peer() {
        let mut tx = ungated();
        let t = now();
        let c = cfg();
        tx.enqueue_message(g(b"0123456789"), &c, t);
        tx.on_timeout(&c, t);
        assert!(tx.on_timeout(&c, t).newly_stalled);
        // Keep-alive and stale acks carry no progress: still stalled.
        assert!(!tx.on_ack(ACK_NONE, &c, t).recovered);
        assert!(tx.is_stalled());
        assert_eq!(tx.retries(), 2);
    }

    #[test]
    fn timeout_with_empty_window_is_noop() {
        let mut tx = ungated();
        let r = tx.on_timeout(&cfg(), now());
        assert!(r.resend.is_empty());
        assert!(tx.deadline().is_none());
    }

    #[test]
    fn timeout_resend_is_handle_copies_not_fresh_buffers() {
        let mut tx = ungated();
        let t = now();
        let c = cfg();
        let sent = tx.enqueue_message(g(b"0123456789"), &c, t);
        let r = tx.on_timeout(&c, t);
        assert_eq!(r.resend.len(), sent.len());
        for (orig, re) in sent.iter().zip(&r.resend) {
            assert_eq!(orig.to_vec(), re.to_vec());
            // Same segments, same backing storage: a resend costs handles only.
            assert_eq!(orig.segment_count(), re.segment_count());
            for (a, b) in orig.segments().iter().zip(re.segments()) {
                assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
            }
        }
    }

    fn dh(seq: u64, msg_id: u64, offset: u64, frag_index: u32, frag_count: u32) -> PacketHeader {
        PacketHeader::Data {
            seq,
            msg_id,
            offset,
            frag_index,
            frag_count,
        }
    }

    /// One arrival as the core sees it: the result, and what it released.
    struct Arrival {
        released: Vec<Released>,
        result: RxResult,
    }

    impl std::ops::Deref for Arrival {
        type Target = RxResult;
        fn deref(&self) -> &RxResult {
            &self.result
        }
    }

    fn arrive(rx: &mut ReceiverPeer, header: PacketHeader, body: Gather) -> Arrival {
        let mut released = Vec::new();
        let result = rx.on_data(header, body, &mut released);
        Arrival { released, result }
    }

    /// The fragments a result released (tests that expect no abandonment).
    fn frags(r: &Arrival) -> Vec<&FragSlice> {
        r.released
            .iter()
            .map(|rel| match rel {
                Released::Frag(s) => s,
                Released::Abandoned => panic!("unexpected abandonment"),
            })
            .collect()
    }

    /// Append a result's releases to `acc` the way a consumer would; each
    /// message comes back out at its last fragment.
    fn fold(acc: &mut Vec<u8>, r: Arrival) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for rel in r.released {
            match rel {
                Released::Frag(s) => {
                    assert_eq!(s.offset as usize, acc.len(), "contiguous from zero");
                    acc.extend(s.body.to_vec());
                    if s.last() {
                        out.push(std::mem::take(acc));
                    }
                }
                Released::Abandoned => acc.clear(),
            }
        }
        out
    }

    #[test]
    fn receiver_delivers_in_order_single_fragment() {
        let mut rx = ReceiverPeer::new();
        let r = arrive(&mut rx, dh(0, 0, 0, 0, 1), g(b"hello"));
        let f = frags(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].offset, 0);
        assert!(f[0].last());
        assert_eq!(f[0].body.to_vec(), b"hello".to_vec());
        assert_eq!(r.ack, 0);
        assert!(!r.duplicate && !r.out_of_order);
    }

    #[test]
    fn receiver_streams_fragments_with_offsets() {
        let mut rx = ReceiverPeer::new();
        let mut asm = Vec::new();
        let r0 = arrive(&mut rx, dh(0, 0, 0, 0, 2), g(b"hel"));
        assert_eq!(frags(&r0).len(), 1);
        assert_eq!(frags(&r0)[0].offset, 0);
        assert!(!frags(&r0)[0].last());
        assert!(fold(&mut asm, r0).is_empty());
        let r1 = arrive(&mut rx, dh(1, 0, 3, 1, 2), g(b"lo"));
        assert_eq!(frags(&r1).len(), 1);
        assert_eq!(frags(&r1)[0].offset, 3);
        assert!(frags(&r1)[0].last());
        assert_eq!(r1.ack, 1);
        assert_eq!(fold(&mut asm, r1), [b"hello".to_vec()]);
    }

    #[test]
    fn receiver_buffers_out_of_order_within_budget() {
        let mut rx = ReceiverPeer::new();
        let r = arrive(&mut rx, dh(5, 0, 0, 0, 1), g(b"x"));
        assert!(r.released.is_empty());
        assert!(r.out_of_order);
        assert!(r.buffered);
        assert_eq!(r.ack, ACK_NONE); // nothing in-order yet
        assert_eq!(rx.buffered_bytes(), 1);
    }

    #[test]
    fn receiver_splices_buffered_packet_when_hole_fills() {
        let mut rx = ReceiverPeer::new();
        // seq 1 (frag 1/2) arrives first: held, not delivered.
        let r1 = arrive(&mut rx, dh(1, 0, 3, 1, 2), g(b"lo"));
        assert!(r1.buffered);
        assert_eq!(rx.buffered_bytes(), 2);
        assert_eq!(rx.buffered_hwm(), 2);
        // seq 0 fills the hole: both come out, in order, in one result.
        let r0 = arrive(&mut rx, dh(0, 0, 0, 0, 2), g(b"hel"));
        assert_eq!(frags(&r0).len(), 2);
        assert_eq!(frags(&r0)[0].offset, 0);
        assert_eq!(frags(&r0)[1].offset, 3);
        assert_eq!(r0.ack, 1, "cumulative ack covers the spliced packet");
        assert_eq!(rx.buffered_bytes(), 0);
        assert_eq!(rx.buffered_hwm(), 2, "high-water mark persists");
        assert_eq!(fold(&mut Vec::new(), r0), [b"hello".to_vec()]);
    }

    #[test]
    fn receiver_drops_out_of_order_beyond_budget() {
        let mut rx = ReceiverPeer::with_limit(4);
        let r1 = arrive(&mut rx, dh(1, 0, 4, 1, 3), g(b"abcd"));
        assert!(r1.buffered, "first packet fills the budget exactly");
        let r2 = arrive(&mut rx, dh(2, 0, 8, 2, 3), g(b"efgh"));
        assert!(r2.out_of_order && !r2.buffered, "budget exhausted: dropped");
        assert_eq!(rx.buffered_bytes(), 4);
        // Go-back-N still recovers: the hole fill splices what was kept.
        let r0 = arrive(&mut rx, dh(0, 0, 0, 0, 3), g(b"wxyz"));
        assert_eq!(frags(&r0).len(), 2);
        assert_eq!(r0.ack, 1);
    }

    #[test]
    fn zero_limit_is_pure_go_back_n() {
        let mut rx = ReceiverPeer::with_limit(0);
        let r = arrive(&mut rx, dh(1, 0, 1, 1, 2), g(b"y"));
        assert!(r.out_of_order && !r.buffered);
        assert_eq!(rx.buffered_bytes(), 0);
    }

    #[test]
    fn receiver_suppresses_duplicates() {
        let mut rx = ReceiverPeer::new();
        let h = dh(0, 0, 0, 0, 1);
        let first = arrive(&mut rx, h, g(b"x"));
        assert_eq!(first.released.len(), 1);
        let dup = arrive(&mut rx, h, g(b"x"));
        assert!(dup.released.is_empty());
        assert!(dup.duplicate);
        assert_eq!(dup.ack, 0); // re-ack so the sender resyncs
    }

    #[test]
    fn noncontiguous_fragment_fields_abandon_the_message_they_break() {
        let mut rx = ReceiverPeer::new();
        let mut acc = Vec::new();
        // Message 0 opens (2 fragments), then its tail claims the wrong byte.
        assert!(fold(&mut acc, arrive(&mut rx, dh(0, 0, 0, 0, 2), g(b"hel"))).is_empty());
        let bad = arrive(&mut rx, dh(1, 0, 4, 1, 2), g(b"lo"));
        assert_eq!(bad.released, [Released::Abandoned]);
        assert_eq!(bad.noncontiguous, 1);
        assert_eq!(bad.ack, 1, "the packet is still acknowledged");
        assert!(fold(&mut acc, bad).is_empty() && acc.is_empty());
        // A stray tail with nothing open is dropped and counted.
        let stray = arrive(&mut rx, dh(2, 0, 3, 1, 2), g(b"lo"));
        assert!(stray.released.is_empty());
        assert_eq!(stray.noncontiguous, 1);
        // A new message interrupting an open one abandons it and proceeds.
        arrive(&mut rx, dh(3, 1, 0, 0, 3), g(b"ab"));
        let next = arrive(&mut rx, dh(4, 2, 0, 0, 1), g(b"whole"));
        assert_eq!(next.noncontiguous, 1);
        assert_eq!(next.released[0], Released::Abandoned);
        assert!(matches!(&next.released[1], Released::Frag(s) if s.msg_id == 2));
        // frag_count 0 can start nothing.
        assert_eq!(arrive(&mut rx, dh(5, 3, 0, 0, 0), g(b"")).noncontiguous, 1);
    }

    #[test]
    fn duplicate_of_a_buffered_packet_is_suppressed() {
        let mut rx = ReceiverPeer::new();
        let h = dh(2, 0, 2, 1, 3);
        assert!(arrive(&mut rx, h, g(b"y")).buffered);
        let dup = arrive(&mut rx, h, g(b"y"));
        assert!(dup.duplicate, "already held: retransmission suppressed");
        assert_eq!(rx.buffered_bytes(), 1, "no double accounting");
    }

    #[test]
    fn go_back_n_recovery_end_to_end() {
        // Simulate: sender emits 3 fragments; fragment 1 is lost; receiver
        // buffers fragment 2 (out of order); timeout resends; the hole fill
        // splices the stream and the message completes.
        let c = cfg();
        let t = now();
        let mut tx = ungated();
        let mut rx = ReceiverPeer::new();
        let mut asm = Vec::new();
        let pkts = tx.enqueue_message(g(b"0123456789"), &c, t);
        let pkts = decode(&pkts);

        // Deliver fragment 0 only.
        let r0 = arrive(&mut rx, pkts[0].header, pkts[0].body.clone());
        assert_eq!(r0.ack, 0);
        assert!(fold(&mut asm, r0).is_empty());
        tx.on_ack(0, &c, t);
        // Fragment 1 lost; fragment 2 arrives out of order and is held.
        let r2 = arrive(&mut rx, pkts[2].header, pkts[2].body.clone());
        assert!(r2.out_of_order && r2.buffered);
        tx.on_ack(r2.ack, &c, t); // duplicate cumulative ack: no progress

        // Timeout: resend in-flight (seq 1, 2).
        let resend = tx.on_timeout(&c, t);
        let resend = decode(&resend.resend);
        assert_eq!(resend.len(), 2);
        let mut delivered = Vec::new();
        for p in &resend {
            let r = arrive(&mut rx, p.header, p.body.clone());
            let ack = r.ack;
            delivered.extend(fold(&mut asm, r));
            tx.on_ack(ack, &c, t);
        }
        assert_eq!(delivered, [b"0123456789".to_vec()]);
        assert_eq!(tx.outstanding(), 0);
        assert_eq!(rx.buffered_bytes(), 0);
    }

    #[test]
    fn fragment_offsets_are_absolute_payload_positions() {
        let c = cfg(); // mtu 4
        let mut tx = ungated();
        let pkts = decode(&tx.enqueue_message(g(b"0123456789"), &c, now()));
        let offs: Vec<u64> = pkts
            .iter()
            .map(|p| match p.header {
                PacketHeader::Data { offset, .. } => offset,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(offs, vec![0, 4, 8]);
    }

    #[test]
    fn zero_credit_start_probes_then_flows() {
        let c = cfg();
        let t = now();
        let mut tx = SenderPeer::new(0, false);
        // Nothing may leave: no credits yet.
        assert!(tx.enqueue_message(g(b"0123456789"), &c, t).is_empty());
        assert!(tx.is_credit_blocked());
        assert!(tx.deadline().is_some(), "probe timer must be armed");
        // The timer fires a PROBE, not a retransmission.
        let r = tx.on_timeout(&c, t);
        assert!(r.resend.is_empty());
        let probe = r.probe.expect("credit-blocked empty window probes");
        assert_eq!(Packet::decode_gather(&probe).unwrap(), Packet::probe(0));
        // A credit grant releases exactly what the horizon allows.
        let released = decode(&tx.grant_credit(2, &c, t));
        assert_eq!(released.len(), 2);
        assert!(tx.is_credit_blocked(), "fragment 2 still blocked");
        // Full grant releases the rest and clears the block.
        let released = tx.grant_credit(100, &c, t);
        assert_eq!(released.len(), 1);
        assert!(!tx.is_credit_blocked());
        let (stalls, resumes) = tx.take_credit_transitions();
        assert_eq!((stalls, resumes), (1, 1));
    }

    /// A credit-blocked sender's probe deadline passes before its credit
    /// arrives (its stepper was late): the window the grant releases gets a
    /// retransmission timer of its own, so the late step resends nothing.
    #[test]
    fn a_grant_after_an_overdue_probe_deadline_rearms_the_timer() {
        let c = cfg();
        let t = now();
        let mut tx = SenderPeer::new(0, false);
        assert!(tx.enqueue_message(g(b"0123456789"), &c, t).is_empty());
        let probe_due = tx.deadline().expect("probe timer armed");
        let late = probe_due + c.rto_base / 2;
        assert_eq!(decode(&tx.grant_credit(100, &c, late)).len(), 3);
        assert_eq!(tx.deadline(), Some(late + c.rto_after(0)));
        assert!(tx.deadline().unwrap() > late, "nothing is due");
    }

    #[test]
    fn stale_credit_horizon_is_ignored() {
        let c = cfg();
        let t = now();
        let mut tx = SenderPeer::new(5, false);
        tx.enqueue_message(g(b"0123456789"), &c, t); // 3 frags, all admitted
        assert_eq!(tx.credit(), 5);
        // A reordered ack advertising less must not shrink the horizon.
        tx.grant_credit(2, &c, t);
        assert_eq!(tx.credit(), 5);
        tx.grant_credit(9, &c, t);
        assert_eq!(tx.credit(), 9);
    }

    #[test]
    fn probe_backoff_is_bounded_exponential() {
        let c = cfg();
        let t = now();
        let mut tx = SenderPeer::new(0, false);
        tx.enqueue_message(g(b"hi"), &c, t);
        let mut last = Duration::ZERO;
        for i in 1..=10u32 {
            let before = now();
            let r = tx.on_timeout(&c, before);
            assert!(r.probe.is_some());
            let gap = tx.deadline().unwrap() - before;
            assert_eq!(gap, c.rto_after(i), "probe interval follows rto backoff");
            assert!(gap >= last, "backoff never shrinks");
            last = gap;
        }
        // Capped: one more timeout stays at the max interval.
        let before = now();
        tx.on_timeout(&c, before);
        assert_eq!(
            tx.deadline().unwrap() - before,
            c.rto_base * 2u32.pow(TransportConfig::MAX_BACKOFF_EXP)
        );
    }

    #[test]
    fn credits_bind_tighter_than_window_mid_stream() {
        let c = cfg(); // window 3
        let t = now();
        let mut tx = SenderPeer::new(1, false);
        let sent = tx.enqueue_message(g(b"0123456789"), &c, t); // 3 frags
        assert_eq!(sent.len(), 1, "credit 1 admits one despite window 3");
        assert!(tx.is_credit_blocked());
        // The in-flight packet keeps the retransmission deadline armed; a
        // timeout resends it rather than probing (acks are still expected).
        let r = tx.on_timeout(&c, t);
        assert_eq!(r.resend.len(), 1);
        assert!(r.probe.is_none());
        // Ack plus a grown horizon releases the rest.
        let grants = tx.grant_credit(3, &c, t);
        let out = tx.on_ack(0, &c, t);
        assert_eq!(decode(&grants).len() + decode(&out.released).len(), 2);
    }

    proptest! {
        /// Any loss/duplication pattern that eventually lets retransmissions
        /// through yields exactly the original message sequence, in order.
        #[test]
        fn lossy_channel_preserves_message_stream(
            messages in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..8),
            loss_pattern in proptest::collection::vec(any::<bool>(), 1..64),
        ) {
            let c = TransportConfig {
                mtu: 7,
                window: 4,
                rto_base: Duration::from_millis(1),
                stall_retries: 100,
                ..Default::default()
            };
            let t = Instant::now();
            let mut tx = ungated();
            let mut rx = ReceiverPeer::new();
            let mut asm = Vec::new();
            let mut wire: VecDeque<Gather> = VecDeque::new();
            let mut received: Vec<Vec<u8>> = Vec::new();
            for m in &messages {
                wire.extend(tx.enqueue_message(Gather::from_vec(m.clone()), &c, t));
            }
            let mut loss = loss_pattern.iter().cycle();
            // Cap drops per sequence number so adversarial cyclic patterns
            // cannot align with retransmission rounds and starve one packet.
            let mut drops: std::collections::HashMap<u64, u32> = Default::default();
            let mut steps = 0usize;
            while received.len() < messages.len() {
                steps += 1;
                prop_assert!(steps < 100_000, "transport failed to converge");
                if let Some(encoded) = wire.pop_front() {
                    let p = Packet::decode_gather(&encoded).unwrap();
                    let seq = match p.header {
                        PacketHeader::Data { seq, .. } => seq,
                        _ => unreachable!("acks/probes bypass the wire here"),
                    };
                    let dropped = drops.entry(seq).or_insert(0);
                    if *loss.next().expect("cycle") && *dropped < 3 {
                        *dropped += 1;
                        continue; // dropped by the wire
                    }
                    let r = arrive(&mut rx, p.header, p.body);
                    let ack = r.ack;
                    prop_assert_eq!(r.noncontiguous, 0);
                    for s in frags(&r) {
                        prop_assert_eq!(s.offset as usize, s.frag_index as usize * c.mtu);
                    }
                    received.extend(fold(&mut asm, r));
                    wire.extend(tx.on_ack(ack, &c, t).released);
                } else {
                    // Wire empty: fire the retransmission timer.
                    wire.extend(tx.on_timeout(&c, t).resend);
                }
            }
            prop_assert_eq!(received, messages);
        }
    }
}
