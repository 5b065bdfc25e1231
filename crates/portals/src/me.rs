//! Match entries.
//!
//! Fig. 3: "Each element of the match list specifies two bit patterns: a set of
//! 'don't care' bits, and a set of 'must match' bits. In addition ... each
//! match list element has a list of memory descriptors." A match entry also
//! filters on the initiating process (the spec's `match_id`, which may contain
//! wildcards — this is the "can choose to accept message operations from any
//! specific process" of §4.2).

use crate::MdHandle;
use portals_types::{MatchBits, MatchCriteria, ProcessId};
use std::collections::VecDeque;

/// One element of a portal's match list.
#[derive(Debug)]
pub struct MatchEntry {
    /// Which initiators may match (wildcards allowed).
    pub source: ProcessId,
    /// Must-match / don't-care bit patterns.
    pub criteria: MatchCriteria,
    /// The portal index whose match list this entry is attached to. Recorded
    /// at attach so unlink can go straight to the owning list's lock instead
    /// of scanning every portal.
    pub portal_index: u32,
    /// Ordered memory descriptors; only the front one is ever considered
    /// (Fig. 4).
    pub md_list: VecDeque<MdHandle>,
    /// Unlink this entry when its MD list empties (Fig. 4: "if the memory
    /// descriptor is unlinked and this empties the memory descriptor list, the
    /// match entry will also be unlinked if its unlink flag has been set").
    pub unlink_when_empty: bool,
}

impl MatchEntry {
    /// A new entry with an empty MD list, attached to `portal_index`.
    pub fn at_portal(
        portal_index: u32,
        source: ProcessId,
        criteria: MatchCriteria,
        unlink_when_empty: bool,
    ) -> MatchEntry {
        MatchEntry {
            source,
            criteria,
            portal_index,
            md_list: VecDeque::new(),
            unlink_when_empty,
        }
    }

    /// The match-criteria half of Fig. 4: does this entry match the incoming
    /// request's initiator and match bits?
    #[inline]
    pub fn matches(&self, initiator: ProcessId, bits: MatchBits) -> bool {
        self.source.matches(initiator) && self.criteria.matches(bits)
    }

    /// The first memory descriptor, if any.
    #[inline]
    pub fn first_md(&self) -> Option<MdHandle> {
        self.md_list.front().copied()
    }

    /// Remove a specific MD handle (unlink).
    pub fn remove_md(&mut self, md: MdHandle) -> bool {
        if let Some(pos) = self.md_list.iter().position(|h| *h == md) {
            self.md_list.remove(pos);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_types::Handle;

    #[test]
    fn matching_requires_both_source_and_bits() {
        let me = MatchEntry::at_portal(
            0,
            ProcessId::new(3, 1),
            MatchCriteria::exact(MatchBits::new(7)),
            false,
        );
        assert!(me.matches(ProcessId::new(3, 1), MatchBits::new(7)));
        assert!(
            !me.matches(ProcessId::new(3, 2), MatchBits::new(7)),
            "wrong source"
        );
        assert!(
            !me.matches(ProcessId::new(3, 1), MatchBits::new(8)),
            "wrong bits"
        );
    }

    #[test]
    fn wildcard_source_accepts_anyone() {
        let me = MatchEntry::at_portal(0, ProcessId::ANY, MatchCriteria::any(), false);
        assert!(me.matches(ProcessId::new(0, 0), MatchBits::new(0)));
        assert!(me.matches(ProcessId::new(9, 9), MatchBits::ONES));
    }

    #[test]
    fn md_list_is_fifo_and_first_only() {
        let mut me = MatchEntry::at_portal(0, ProcessId::ANY, MatchCriteria::any(), false);
        let a: MdHandle = Handle::from_raw(1);
        let b: MdHandle = Handle::from_raw(2);
        me.md_list.push_back(a);
        me.md_list.push_back(b);
        assert_eq!(me.first_md(), Some(a));
        assert!(me.remove_md(a));
        assert_eq!(me.first_md(), Some(b));
        assert!(!me.remove_md(a), "already removed");
    }
}
