//! Transport-level counters.
//!
//! The counters are [`portals_obs`] series named `transport.*` (and, for the
//! credit machinery, `flow.*`) labeled with the endpoint's node id, so a
//! registry shared across endpoints can sum one series over the whole job
//! (`registry.sum_counters("transport.…")`) — the reconciliation primitive the
//! soak harness's invariants are built on.

use portals_obs::{Counter, Gauge, Registry};

/// Counters maintained by an endpoint's progress core.
///
/// Registered as `transport.*` and `flow.*` series labeled `{node}`.
#[derive(Debug)]
pub struct TransportStats {
    /// Messages accepted for sending.
    pub messages_sent: Counter,
    /// Messages fully reassembled and delivered upward.
    pub messages_delivered: Counter,
    /// Message-unit deliveries the consumer has popped from the inbound
    /// queue: the `last` [`Delivery::Fragment`](crate::Delivery) of each
    /// message, the only one of a message that fit one fragment.
    /// `messages_delivered - messages_consumed` is the consumer backlog the
    /// receiver sheds against when advertising credits; counting message
    /// units rather than queue items keeps one large streamed message —
    /// thousands of fragment deliveries, drained at placement speed — from
    /// reading as an oversubscribed consumer.
    pub messages_consumed: Counter,
    /// DATA packets put on the wire (including retransmissions).
    pub data_packets_sent: Counter,
    /// In-order DATA packets accepted by the receiver (fed to reassembly).
    pub data_packets_accepted: Counter,
    /// DATA packets retransmitted.
    pub retransmissions: Counter,
    /// Wire bytes of retransmitted DATA packets. Retransmission re-sends the
    /// in-flight *handles* (no payload is re-encoded or copied); this counts
    /// the bytes those handles put back on the wire.
    pub resend_bytes: Counter,
    /// Duplicate DATA packets suppressed.
    pub duplicates_dropped: Counter,
    /// Out-of-order DATA packets dropped (arrived above the horizon with the
    /// buffer budget exhausted; go-back-N retransmission recovers them).
    pub out_of_order_dropped: Counter,
    /// Out-of-order DATA packets buffered for later splicing instead of
    /// dropped (selective-repeat-style receive).
    pub ooo_buffered: Counter,
    /// In-sequence DATA packets whose fragment fields (`msg_id`, `offset`,
    /// `frag_index`, `frag_count`) neither continued the source's message in
    /// progress nor started a new one. Each abandons the message it
    /// interrupted; zero with any sender that honours the protocol.
    pub noncontiguous_dropped: Counter,
    /// Fragments of multi-fragment messages handed upward individually as
    /// streaming deliveries.
    pub frags_streamed: Counter,
    /// High-water mark of bytes held in out-of-order buffers, max across
    /// sources. Written only under the core lock.
    pub bytes_buffered_hwm: Gauge,
    /// ACK packets sent.
    pub acks_sent: Counter,
    /// ACKs that were *not* sent because a later cumulative ACK to the same
    /// source in the same receive batch subsumed them.
    pub acks_coalesced: Counter,
    /// ACK packets received.
    pub acks_received: Counter,
    /// Undecodable packets discarded (wrong magic, truncated, unknown kind —
    /// everything except CRC failures, which get their own counter).
    pub garbage_dropped: Counter,
    /// Packets rejected because their CRC did not verify — bytes corrupted
    /// in flight (or a buggy sender). Kept separate from `garbage_dropped`
    /// because on a real wire this is the corruption signal, not noise.
    pub checksum_rejects: Counter,
    /// Times a peer crossed the stall threshold.
    pub peers_stalled: Counter,
    /// Times a stalled peer made progress again. Every stall that ends is
    /// matched by exactly one recovery, so `peers_stalled - peers_recovered`
    /// is the number of peers stalled right now (also kept directly in
    /// [`TransportStats::stalled_now`]).
    pub peers_recovered: Counter,
    /// Peers currently past the stall threshold without progress.
    pub stalled_now: Gauge,
    /// PROBE packets sent (credit-starved sender soliciting a window).
    pub probes_sent: Counter,
    /// PROBE packets received (each one is answered with an ack).
    pub probes_received: Counter,
    /// Times a sender peer transitioned into the credit-blocked state
    /// (window space free, advertised horizon exhausted).
    pub credit_stalls: Counter,
    /// Times a credit-blocked peer was released by a grown horizon. Every
    /// stall that ends is matched by exactly one resume.
    pub credit_resumes: Counter,
    /// Total credit horizon growth received from peers (sequences newly
    /// permitted; coarse goodput-of-credits measure).
    pub credits_granted: Counter,
    /// Sender peers currently credit-blocked.
    pub credit_blocked_now: Gauge,
    /// Parks of the endpoint's NIC thread on the link's doorbell (none
    /// where callers or the link's receive thread step).
    pub nic_parks: Counter,
    /// The `nic_parks` that ended because their bound passed, not because
    /// the doorbell rang.
    pub nic_park_timeouts: Counter,
}

impl TransportStats {
    /// How far past its in-order base a source may send while `window`
    /// messages of consumer backlog are allowed: `window` less the backlog
    /// (`messages_delivered - messages_consumed`), floored at zero.
    pub(crate) fn credit_room(&self, window: usize) -> u64 {
        let backlog = self
            .messages_delivered
            .get()
            .saturating_sub(self.messages_consumed.get());
        (window as u64).saturating_sub(backlog)
    }

    /// Register the `transport.*` and `flow.*` series for node `nid` in
    /// `registry`.
    pub fn new(registry: &Registry, nid: u32) -> TransportStats {
        let labels = [("node", nid.to_string())];
        let c = |name| registry.counter(name, &labels);
        TransportStats {
            messages_sent: c("transport.messages_sent"),
            messages_delivered: c("transport.messages_delivered"),
            messages_consumed: c("transport.messages_consumed"),
            data_packets_sent: c("transport.data_packets_sent"),
            data_packets_accepted: c("transport.data_packets_accepted"),
            retransmissions: c("transport.retransmissions"),
            resend_bytes: c("transport.resend_bytes"),
            duplicates_dropped: c("transport.duplicates_dropped"),
            out_of_order_dropped: c("transport.out_of_order_dropped"),
            ooo_buffered: c("transport.ooo_buffered"),
            noncontiguous_dropped: c("transport.noncontiguous_dropped"),
            frags_streamed: c("transport.frags_streamed"),
            bytes_buffered_hwm: registry.gauge("transport.bytes_buffered_hwm", &labels),
            acks_sent: c("transport.acks_sent"),
            acks_coalesced: c("transport.acks_coalesced"),
            acks_received: c("transport.acks_received"),
            garbage_dropped: c("transport.garbage_dropped"),
            checksum_rejects: c("transport.checksum_rejects"),
            peers_stalled: c("transport.peers_stalled"),
            peers_recovered: c("transport.peers_recovered"),
            stalled_now: registry.gauge("transport.stalled_now", &labels),
            probes_sent: c("flow.probes_sent"),
            probes_received: c("flow.probes_received"),
            credit_stalls: c("flow.credit_stalls"),
            credit_resumes: c("flow.credit_resumes"),
            credits_granted: c("flow.credits_granted"),
            credit_blocked_now: registry.gauge("flow.credit_blocked_now", &labels),
            nic_parks: c("transport.nic_parks"),
            nic_park_timeouts: c("transport.nic_park_timeouts"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_sum_across_nodes_through_one_registry() {
        let registry = Registry::new();
        let a = TransportStats::new(&registry, 0);
        let b = TransportStats::new(&registry, 1);
        a.messages_sent.add(3);
        b.messages_sent.add(4);
        b.credit_stalls.inc();
        assert_eq!(registry.sum_counters("transport.messages_sent"), 7);
        assert_eq!(registry.sum_counters("flow.credit_stalls"), 1);
    }
}
