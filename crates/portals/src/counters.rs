//! Dropped-message accounting.
//!
//! §4.8 enumerates every reason an incoming message is discarded, and each one
//! ends the same way: "the incoming message is discarded and the dropped
//! message count for the interface is incremented." We keep the total *and* a
//! per-reason breakdown so tests can assert the exact §4.8 path taken.
//!
//! The counters are [`portals_obs`] series named `portals.*`, labeled with the
//! owning interface id (and, for drops, the reason slug), so one registry
//! snapshot attributes every drop in a job to its layer and cause.

use portals_obs::{Counter, Registry};

/// The complete §4.8 drop-reason list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// "the Portal index supplied in the request is not valid"
    InvalidPortalIndex,
    /// "the cookie supplied in the request is not a valid access control entry"
    InvalidAcIndex,
    /// "the access control entry identified by the cookie does not match the
    /// identifier of the requesting process"
    AclProcessMismatch,
    /// "the [portal index in the] access control entry ... does not match the
    /// Portal index supplied in the request"
    AclPortalMismatch,
    /// "the match bits supplied in the request do not match any of the match
    /// entries with a memory descriptor that accepts the request"
    NoMatch,
    /// Ack whose event queue no longer exists.
    AckEqMissing,
    /// Reply whose memory descriptor no longer exists.
    ReplyMdMissing,
    /// Reply whose event queue "has no space and is not null".
    ReplyEqFull,
    /// Request addressed to a portal index that flow control has disabled
    /// (extension: Portals 4 lineage, `PTL_EVENT_PT_DISABLED`). Under flow
    /// control the initiator is nacked instead of silently losing the message.
    PtDisabled,
    /// Atomic request whose geometry is unusable: zero or non-lane-multiple
    /// length, a CAS touching more than one element, or a length the matched
    /// descriptor would have to truncate (partial read-modify-writes are
    /// never performed).
    AtomicInvalid,
}

impl DropReason {
    /// All reasons, for iteration in reports, in declaration order (so
    /// `ALL[r as usize] == r`).
    pub const ALL: [DropReason; 10] = [
        DropReason::InvalidPortalIndex,
        DropReason::InvalidAcIndex,
        DropReason::AclProcessMismatch,
        DropReason::AclPortalMismatch,
        DropReason::NoMatch,
        DropReason::AckEqMissing,
        DropReason::ReplyMdMissing,
        DropReason::ReplyEqFull,
        DropReason::PtDisabled,
        DropReason::AtomicInvalid,
    ];

    /// Stable human-readable name, for reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::InvalidPortalIndex => "invalid portal index",
            DropReason::InvalidAcIndex => "invalid AC index",
            DropReason::AclProcessMismatch => "ACL process mismatch",
            DropReason::AclPortalMismatch => "ACL portal mismatch",
            DropReason::NoMatch => "no matching entry",
            DropReason::AckEqMissing => "ack event queue missing",
            DropReason::ReplyMdMissing => "reply descriptor missing",
            DropReason::ReplyEqFull => "reply event queue full",
            DropReason::PtDisabled => "portal disabled by flow control",
            DropReason::AtomicInvalid => "invalid atomic geometry",
        }
    }

    /// Stable machine-readable slug, for metric labels and trace details.
    pub fn slug(self) -> &'static str {
        match self {
            DropReason::InvalidPortalIndex => "invalid_pt_index",
            DropReason::InvalidAcIndex => "invalid_ac_index",
            DropReason::AclProcessMismatch => "acl_process_mismatch",
            DropReason::AclPortalMismatch => "acl_portal_mismatch",
            DropReason::NoMatch => "no_match",
            DropReason::AckEqMissing => "ack_eq_missing",
            DropReason::ReplyMdMissing => "reply_md_missing",
            DropReason::ReplyEqFull => "reply_eq_full",
            DropReason::PtDisabled => "pt_disabled",
            DropReason::AtomicInvalid => "atomic_invalid",
        }
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-interface counters.
///
/// Registered as `portals.*` series labeled `{node, pid}` (drops additionally
/// carry `{reason}`).
#[derive(Debug)]
pub struct NiCounters {
    drops: [Counter; DropReason::ALL.len()],
    /// Put/get requests successfully translated and performed.
    pub requests_accepted: Counter,
    /// Acks successfully logged.
    pub acks_accepted: Counter,
    /// Replies successfully received.
    pub replies_accepted: Counter,
    /// Messages this interface sent.
    pub messages_sent: Counter,
    /// Events lost to event-queue circular overwrite.
    pub events_overwritten: Counter,
    /// Triggered operations launched successfully when their threshold fired.
    pub triggered_fired: Counter,
    /// Triggered operations whose launch failed at fire time.
    pub triggered_failed: Counter,
    /// Times a non-empty payload was physically copied anywhere on the data
    /// path (MD read-out, wire encode, receive coalesce, delivery into the
    /// target region). With region buffers on, only the final delivery copies.
    pub payload_copies: Counter,
    /// Payload-bearing messages delivered (puts landed, replies landed) — the
    /// denominator for copies-per-message.
    pub payload_messages: Counter,
    /// Payload bytes landed in a memory descriptor's region (put deliveries
    /// at the target, reply landings at the initiator).
    pub delivered_bytes: Counter,
    /// Payload bytes whose owning memory descriptor logged the matching
    /// completion (put commits at the target, replies landed at the
    /// initiator). The soak harness checks
    /// `Σ delivered_bytes == Σ completed_bytes` after quiesce.
    pub completed_bytes: Counter,
}

impl NiCounters {
    /// Register the `portals.*` series for interface `(nid, pid)` in
    /// `registry`.
    pub fn new(registry: &Registry, nid: u32, pid: u32) -> NiCounters {
        let labels = [("node", nid.to_string()), ("pid", pid.to_string())];
        let c = |name| registry.counter(name, &labels);
        let drops = DropReason::ALL.map(|reason| {
            registry.counter(
                "portals.dropped",
                &[
                    ("node", nid.to_string()),
                    ("pid", pid.to_string()),
                    ("reason", reason.slug().to_string()),
                ],
            )
        });
        NiCounters {
            drops,
            requests_accepted: c("portals.requests_accepted"),
            acks_accepted: c("portals.acks_accepted"),
            replies_accepted: c("portals.replies_accepted"),
            messages_sent: c("portals.messages_sent"),
            events_overwritten: c("portals.events_overwritten"),
            triggered_fired: c("portals.triggered_fired"),
            triggered_failed: c("portals.triggered_failed"),
            payload_copies: c("portals.payload_copies"),
            payload_messages: c("portals.payload_messages"),
            delivered_bytes: c("portals.delivered_bytes"),
            completed_bytes: c("portals.completed_bytes"),
        }
    }

    /// Record a drop.
    pub fn drop_message(&self, reason: DropReason) {
        self.drops[reason as usize].inc();
    }

    /// The paper's "dropped message count for the interface".
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().map(Counter::get).sum()
    }

    /// Count for one reason.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.drops[reason as usize].get()
    }

    /// Average payload copies per delivered payload-bearing message — the
    /// headline zero-copy metric (0.0 before any payload has been delivered).
    pub fn copies_per_message(&self) -> f64 {
        match self.payload_messages.get() {
            0 => 0.0,
            messages => self.payload_copies.get() as f64 / messages as f64,
        }
    }

    /// The full per-reason breakdown, in [`DropReason::ALL`] order.
    pub fn dropped_by_reason(&self) -> [(DropReason, u64); DropReason::ALL.len()] {
        DropReason::ALL.map(|reason| (reason, self.dropped(reason)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_accumulate_per_reason_and_total() {
        let c = NiCounters::new(&Registry::new(), 0, 0);
        c.drop_message(DropReason::NoMatch);
        c.drop_message(DropReason::NoMatch);
        c.drop_message(DropReason::InvalidPortalIndex);
        assert_eq!(c.dropped(DropReason::NoMatch), 2);
        assert_eq!(c.dropped(DropReason::InvalidPortalIndex), 1);
        assert_eq!(c.dropped(DropReason::AclProcessMismatch), 0);
        assert_eq!(c.dropped_total(), 3);
    }

    #[test]
    fn all_covers_every_reason_exactly_once() {
        let mut seen = std::collections::HashSet::new();
        for (i, r) in DropReason::ALL.into_iter().enumerate() {
            assert!(seen.insert(r));
            assert_eq!(r as usize, i);
        }
        assert_eq!(seen.len(), DropReason::ALL.len());
    }

    #[test]
    fn drops_attribute_per_reason_through_the_registry() {
        let registry = Registry::new();
        let c = NiCounters::new(&registry, 0, 3);
        c.drop_message(DropReason::NoMatch);
        c.drop_message(DropReason::NoMatch);
        c.drop_message(DropReason::AckEqMissing);
        assert_eq!(registry.sum_counters("portals.dropped"), 3);
        let per_reason: u64 = registry
            .snapshot()
            .iter()
            .filter(|s| s.name == "portals.dropped" && s.label("reason") == Some("no_match"))
            .filter_map(|s| s.as_counter())
            .sum();
        assert_eq!(per_reason, 2);
    }
}
