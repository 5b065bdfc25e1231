//! The Portal table: ordered match lists per portal index.
//!
//! Fig. 3: "The memory buffer id, called the portal id, is used as an index
//! into the Portal table. Each element of the Portal table identifies a match
//! list." Match-list *order* is semantically load-bearing — MPI's matching
//! rules depend on receives being considered in posting order, with the
//! overflow (unexpected-message) entries last — so insertion position is part
//! of the API.
//!
//! # Index
//!
//! The Fig. 4 walk is O(list length), and MPI keeps many receives posted.
//! [`MatchList`] therefore files every entry, beside the authoritative posting
//! order, in a rank-ordered bucket keyed by `(ignore, must_match & !ignore)`:
//! under its ignore mask, then under the bits it must match there. A mask
//! leaves the index with its last entry. Bits `b` satisfy an entry with mask
//! `m` exactly when `b & !m` is its key under `m`, so [`MatchList::lookup`]
//! probes one bucket per live mask and takes the lowest-ranked candidate whose
//! source passes: the next entry the walk would try. MPI's message portal
//! holds about three masks (posted receives, the long entry, the slabs), so a
//! match is a few hash probes; one mask per entry costs one probe per entry,
//! never more in order than the walk, which stays as the oracle the index is
//! tested against (`engine::walk`).
//!
//! Posting order itself is held as a sorted list of `u64` *ranks* assigned
//! with large gaps, plus a handle→rank map, so `PTL_INS_BEFORE`/`AFTER`
//! anchor lookups are O(log n) instead of the former O(n) scan (ranks are
//! renumbered in the rare case a gap is exhausted).
//!
//! Entries attached at [`MePos::Overflow`] form the list's tail (Portals 4's
//! overflow list). The list records each put they take ([`Unexpected`]), in
//! arrival order, until a posting call claims it under the same lock.

use crate::md::MdMemory;
use crate::{EqHandle, MdHandle, MeHandle};
use portals_types::{MatchBits, MatchCriteria, ProcessId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

/// Where to insert a match entry relative to the existing list (spec:
/// `PTL_INS_BEFORE` / `PTL_INS_AFTER` on `PtlMEAttach`/`PtlMEInsert`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MePos {
    /// Head of the list: considered first.
    Front,
    /// Tail of the list, ahead of any overflow entry.
    Back,
    /// Immediately before an existing entry.
    Before(MeHandle),
    /// Immediately after an existing entry.
    After(MeHandle),
    /// Tail of the overflow entries, behind every other entry. They stay a
    /// tail: no other entry goes `Before` one but the first, or `After` one.
    Overflow,
}

/// A put an overflow entry took, kept by its portal until a posting call
/// claims it ([`Posted::Claimed`]).
#[derive(Debug, Clone)]
pub struct Unexpected {
    /// Who sent it.
    pub initiator: ProcessId,
    /// Its match bits.
    pub match_bits: MatchBits,
    /// The length it was sent with.
    pub rlength: u64,
    /// The bytes the overflow descriptor kept.
    pub mlength: u64,
    /// Where they are in the descriptor (or, unmanaged, the remote offset).
    pub offset: u64,
    /// The overflow descriptor that took it.
    pub md: MdHandle,
    /// Its memory, which outlives the descriptor's unlink.
    pub mem: MdMemory,
}

/// What a posting call did (`NetworkInterface::me_post`).
#[derive(Debug)]
pub enum Posted {
    /// The oldest matching put has landed, and is no longer recorded.
    Claimed(Unexpected),
    /// The oldest matching put is still landing: nothing changed.
    Busy,
    /// Nothing matched: the entry and its descriptor were linked.
    Linked(MeHandle, MdHandle),
    /// Nothing matched, and there was no descriptor to link. Carries the
    /// serial of the newest put recorded when the post searched: a later
    /// post bounded by it claims only a put this one saw, not one that
    /// landed since.
    Unmatched(u64),
}

/// One recorded put and whether its payload has landed.
#[derive(Debug)]
struct Record {
    /// Arrival order, and how the put's sink finds its record again.
    serial: u64,
    landed: bool,
    put: Unexpected,
}

/// Does a receive for `(source, criteria)` match a recorded put?
fn wants(source: ProcessId, criteria: MatchCriteria) -> impl Fn(&&Record) -> bool {
    move |r| source.matches(r.put.initiator) && criteria.matches(r.put.match_bits)
}

/// Rank gap left between adjacent entries so Before/After inserts bisect
/// instead of renumbering.
const RANK_GAP: u64 = 1 << 32;
/// Rank of the first entry inserted into an empty list (mid-range, leaving
/// room to grow in both directions).
const RANK_ORIGIN: u64 = 1 << 62;

#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    rank: u64,
    criteria: MatchCriteria,
}

/// One rank-ordered bucket of the index: `(rank, entry, source filter)`.
type Bucket = Vec<(u64, MeHandle, ProcessId)>;

/// One portal's ordered match list with its index layered on top.
#[derive(Debug, Default)]
pub struct MatchList {
    /// Authoritative posting order: `(rank, handle)` sorted by rank.
    entries: Vec<(u64, MeHandle)>,
    /// Per-entry rank and matching metadata (criteria are fixed at attach).
    meta: HashMap<MeHandle, EntryMeta>,
    /// Every entry, filed under its ignore mask and then under the bits it
    /// must match there (`must_match & !ignore`). A mask leaves with its last
    /// entry, so only live masks are probed.
    index: Vec<(u64, HashMap<u64, Bucket>)>,
    /// How many entries at the tail of `entries` are overflow entries.
    overflow: usize,
    /// The puts overflow entries took and nobody has claimed, oldest first.
    unexpected: VecDeque<Record>,
    next_serial: u64,
}

impl MatchList {
    /// Insert `me` at `pos` with the matching metadata the index files.
    /// Criteria and source are immutable for the lifetime of the attachment.
    /// Returns false if an anchor handle isn't present.
    pub fn insert(
        &mut self,
        me: MeHandle,
        pos: MePos,
        source: ProcessId,
        criteria: MatchCriteria,
    ) -> bool {
        debug_assert!(!self.meta.contains_key(&me), "handle inserted twice");
        let rank = match self.rank_for(pos) {
            Some(rank) => rank,
            None => return false,
        };
        let at = self.entries.partition_point(|&(r, _)| r < rank);
        self.entries.insert(at, (rank, me));
        self.overflow += usize::from(pos == MePos::Overflow);
        self.meta.insert(me, EntryMeta { rank, criteria });
        let ignore = criteria.ignore.raw();
        let at = match self.index.iter().position(|&(mask, _)| mask == ignore) {
            Some(at) => at,
            None => {
                self.index.push((ignore, HashMap::new()));
                self.index.len() - 1
            }
        };
        let key = criteria.must_match.raw() & !ignore;
        let bucket = self.index[at].1.entry(key).or_default();
        let at = bucket.partition_point(|&(r, _, _)| r < rank);
        bucket.insert(at, (rank, me, source));
        true
    }

    /// Pick a free rank realizing `pos`, renumbering if the local gap is
    /// exhausted. `None` only when an anchor handle isn't present, or would
    /// place an entry that is not overflow among the overflow entries.
    fn rank_for(&mut self, pos: MePos) -> Option<u64> {
        if self.entries.is_empty() {
            return match pos {
                MePos::Front | MePos::Back | MePos::Overflow => Some(RANK_ORIGIN),
                MePos::Before(_) | MePos::After(_) => None,
            };
        }
        // Resolve to exclusive bounds (lo, hi) the new rank must fall between;
        // None = unbounded on that side. Every entry but an overflow one goes
        // at or before `split`, the first overflow entry.
        let bounds = |list: &MatchList| -> Option<(Option<u64>, Option<u64>)> {
            let rank = |at: usize| list.entries.get(at).map(|&(r, _)| r);
            let split = list.entries.len() - list.overflow;
            let at = match pos {
                MePos::Front => 0,
                MePos::Back => split,
                MePos::Overflow => list.entries.len(),
                MePos::Before(anchor) => list.position(anchor).filter(|&at| at <= split)?,
                MePos::After(anchor) => list.position(anchor).filter(|&at| at < split)? + 1,
            };
            Some((at.checked_sub(1).and_then(rank), rank(at)))
        };
        let pick = |lo: Option<u64>, hi: Option<u64>| -> Option<u64> {
            match (lo, hi) {
                (None, Some(hi)) => (hi > 0).then(|| hi - (hi - hi / 2).min(RANK_GAP)),
                (Some(lo), None) => lo.checked_add(RANK_GAP).or_else(|| {
                    let mid = lo + (u64::MAX - lo) / 2;
                    (mid > lo).then_some(mid)
                }),
                (Some(lo), Some(hi)) => (hi - lo > 1).then(|| lo + (hi - lo) / 2),
                (None, None) => unreachable!("empty list handled above"),
            }
        };
        let (lo, hi) = bounds(self)?;
        if let Some(rank) = pick(lo, hi) {
            return Some(rank);
        }
        self.renumber();
        let (lo, hi) = bounds(self)?;
        Some(pick(lo, hi).expect("gap available after renumber"))
    }

    /// Reassign all ranks with uniform [`RANK_GAP`] spacing, preserving order.
    fn renumber(&mut self) {
        let mut translation: HashMap<u64, u64> = HashMap::with_capacity(self.entries.len());
        for (i, (rank, me)) in self.entries.iter_mut().enumerate() {
            let fresh = (i as u64 + 1) * RANK_GAP;
            translation.insert(*rank, fresh);
            *rank = fresh;
            self.meta.get_mut(me).expect("entry without meta").rank = fresh;
        }
        for bucket in self.index.iter_mut().flat_map(|(_, b)| b.values_mut()) {
            for (rank, _, _) in bucket.iter_mut() {
                *rank = translation[rank];
            }
        }
    }

    /// Remove `me`; true if it was present.
    pub fn remove(&mut self, me: MeHandle) -> bool {
        let Some(meta) = self.meta.remove(&me) else {
            return false;
        };
        let at = self.entries.partition_point(|&(r, _)| r < meta.rank);
        debug_assert_eq!(self.entries[at], (meta.rank, me));
        self.overflow -= usize::from(at >= self.entries.len() - self.overflow);
        self.entries.remove(at);
        let ignore = meta.criteria.ignore.raw();
        let key = meta.criteria.must_match.raw() & !ignore;
        let at = self.index.iter().position(|&(mask, _)| mask == ignore);
        let at = at.expect("entry without mask");
        let buckets = &mut self.index[at].1;
        let bucket = buckets.get_mut(&key).expect("entry without bucket");
        let slot = bucket.partition_point(|&(r, _, _)| r < meta.rank);
        debug_assert_eq!(bucket[slot].1, me);
        bucket.remove(slot);
        if bucket.is_empty() {
            buckets.remove(&key);
            if buckets.is_empty() {
                self.index.swap_remove(at);
            }
        }
        true
    }

    fn position(&self, me: MeHandle) -> Option<usize> {
        let rank = self.meta.get(&me)?.rank;
        let at = self.entries.partition_point(|&(r, _)| r < rank);
        debug_assert_eq!(self.entries[at].1, me);
        Some(at)
    }

    /// The lowest-ranked entry above rank `after` (from the head, for `None`)
    /// whose criteria accept `bits` and whose source accepts `initiator`,
    /// with its rank: the next entry the Fig. 4 walk would try.
    pub fn lookup(
        &self,
        initiator: ProcessId,
        bits: MatchBits,
        after: Option<u64>,
    ) -> Option<(u64, MeHandle)> {
        let mut best: Option<(u64, MeHandle)> = None;
        for (ignore, buckets) in &self.index {
            let Some(bucket) = buckets.get(&(bits.raw() & !ignore)) else {
                continue;
            };
            let from = after.map_or(0, |a| bucket.partition_point(|&(r, _, _)| r <= a));
            let found = bucket[from..]
                .iter()
                .take_while(|&&(r, _, _)| best.is_none_or(|(b, _)| r < b))
                .find(|&&(_, _, source)| source.matches(initiator));
            if let Some(&(rank, me, _)) = found {
                best = Some((rank, me));
            }
        }
        best
    }

    /// True if `me` was attached at [`MePos::Overflow`].
    pub(crate) fn is_overflow(&self, me: MeHandle) -> bool {
        self.position(me)
            .is_some_and(|at| at >= self.entries.len() - self.overflow)
    }

    /// Record a put an overflow entry took, until [`MatchList::settle`]
    /// names its serial.
    pub(crate) fn record(&mut self, put: Unexpected) -> u64 {
        self.next_serial += 1;
        let serial = self.next_serial;
        self.unexpected.push_back(Record {
            serial,
            landed: false,
            put,
        });
        serial
    }

    /// The recorded put has landed, and a post may claim it; or it was
    /// broken off, and its record goes.
    pub(crate) fn settle(&mut self, serial: u64, landed: bool) {
        let found = self.unexpected.binary_search_by_key(&serial, |r| r.serial);
        match (found, landed) {
            (Ok(at), true) => self.unexpected[at].landed = true,
            (Ok(at), false) => drop(self.unexpected.remove(at)),
            (Err(_), _) => {}
        }
    }

    /// Claim the oldest recorded put, at or before serial `upto` if given,
    /// that a receive for `(source, criteria)` matches: [`Posted::Claimed`],
    /// [`Posted::Busy`] or, with no match, [`Posted::Unmatched`].
    pub(crate) fn claim(
        &mut self,
        source: ProcessId,
        criteria: MatchCriteria,
        upto: Option<u64>,
    ) -> Posted {
        let wanted = wants(source, criteria);
        let upto = upto.unwrap_or(u64::MAX);
        let at = self
            .unexpected
            .iter()
            .take_while(|r| r.serial <= upto)
            .position(|r| wanted(&r));
        match at.map(|at| (at, self.unexpected[at].landed)) {
            Some((at, true)) => Posted::Claimed(self.unexpected.remove(at).expect("indexed").put),
            Some((_, false)) => Posted::Busy,
            None => Posted::Unmatched(self.next_serial),
        }
    }

    /// How many recorded puts a receive for `(source, criteria)` matches, and
    /// the oldest of them, landed or not. Claims nothing.
    pub(crate) fn search(
        &self,
        source: ProcessId,
        criteria: MatchCriteria,
    ) -> (usize, Option<Unexpected>) {
        let mut hits = self.unexpected.iter().filter(wants(source, criteria));
        let oldest = hits.next().map(|r| r.put.clone());
        (usize::from(oldest.is_some()) + hits.count(), oldest)
    }

    /// Walk order.
    pub fn iter(&self) -> impl Iterator<Item = MeHandle> + '_ {
        self.entries.iter().map(|&(_, me)| me)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The whole table: a fixed number of portal indices, each with its own lock.
///
/// Per-portal locking is the shard boundary of the receive path: delivery into
/// portal 3 and an `me_attach` on portal 5 proceed concurrently, while
/// operations on the *same* portal serialize, which is what keeps the Fig. 4
/// walk's posting-order semantics intact without a global interface lock.
#[derive(Debug)]
pub struct PortalTable {
    lists: Vec<parking_lot::Mutex<MatchList>>,
    states: Vec<PtState>,
}

/// Per-portal flow-control state (extension: Portals 4 `PTL_PT_FLOWCTRL`
/// lineage). A portal starts enabled; when the engine detects resource
/// exhaustion on a flow-controlled portal it latches `enabled` to false
/// exactly once and posts a `FlowCtrl` event to `flow_eq`.
#[derive(Debug)]
struct PtState {
    enabled: AtomicBool,
    flow_eq: parking_lot::Mutex<Option<EqHandle>>,
}

impl Default for PtState {
    fn default() -> PtState {
        PtState {
            enabled: AtomicBool::new(true),
            flow_eq: parking_lot::Mutex::new(None),
        }
    }
}

impl PortalTable {
    /// A table with `size` portal indices.
    pub fn new(size: usize) -> PortalTable {
        PortalTable {
            lists: (0..size).map(|_| Default::default()).collect(),
            states: (0..size).map(|_| Default::default()).collect(),
        }
    }

    /// Number of portal indices.
    pub fn size(&self) -> usize {
        self.lists.len()
    }

    /// Lock the match list at `index`, or None if out of range ("the Portal
    /// index supplied in the request is not valid", §4.8).
    pub fn lock(&self, index: u32) -> Option<parking_lot::MutexGuard<'_, MatchList>> {
        self.lists.get(index as usize).map(|m| m.lock())
    }

    /// True if the portal accepts requests (out-of-range indices are handled
    /// separately by `lock`; they report enabled here so the §4.8
    /// invalid-index drop reason wins).
    pub fn is_enabled(&self, index: u32) -> bool {
        self.states
            .get(index as usize)
            .is_none_or(|s| s.enabled.load(Ordering::Acquire))
    }

    /// Re-enable a portal after the owner drained and re-posted resources
    /// (spec lineage: `PtlPTEnable`). Idempotent.
    pub fn enable(&self, index: u32) {
        if let Some(s) = self.states.get(index as usize) {
            s.enabled.store(true, Ordering::Release);
        }
    }

    /// Latch the portal disabled. Returns true only for the caller that
    /// performed the enabled→disabled transition, so the `FlowCtrl` event
    /// fires exactly once per trip even when deliveries race.
    pub fn try_disable(&self, index: u32) -> bool {
        self.states.get(index as usize).is_some_and(|s| {
            s.enabled
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        })
    }

    /// The event queue flow-control trips on this portal are reported to.
    pub fn flow_eq(&self, index: u32) -> Option<EqHandle> {
        self.states
            .get(index as usize)
            .and_then(|s| *s.flow_eq.lock())
    }

    /// Register (or clear, with `None`) the flow-control event queue for a
    /// portal. Registering opts the portal into flow control; returns false
    /// if the index is out of range.
    pub fn set_flow_eq(&self, index: u32, eq: Option<EqHandle>) -> bool {
        match self.states.get(index as usize) {
            Some(s) => {
                *s.flow_eq.lock() = eq;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use portals_types::Handle;

    fn h(n: u64) -> MeHandle {
        Handle::from_raw(n)
    }

    const ANY_SRC: ProcessId = ProcessId::ANY;

    fn exact(n: u64) -> MatchCriteria {
        MatchCriteria::exact(MatchBits(n))
    }

    /// The first entry the index offers for `bits`.
    fn first(list: &MatchList, initiator: ProcessId, bits: u64) -> Option<MeHandle> {
        list.lookup(initiator, MatchBits(bits), None)
            .map(|(_, me)| me)
    }

    /// Insert with wildcard criteria.
    fn put_any(list: &mut MatchList, me: MeHandle, pos: MePos) -> bool {
        list.insert(me, pos, ANY_SRC, MatchCriteria::any())
    }

    #[test]
    fn pt_state_disable_latches_exactly_once() {
        let table = PortalTable::new(4);
        assert!(table.is_enabled(2));
        // First disabler wins the latch; racers observe false.
        assert!(table.try_disable(2));
        assert!(!table.try_disable(2));
        assert!(!table.is_enabled(2));
        // Other portals are unaffected.
        assert!(table.is_enabled(0));
        table.enable(2);
        assert!(table.is_enabled(2));
        assert!(table.try_disable(2));
    }

    #[test]
    fn pt_state_flow_eq_registration() {
        let table = PortalTable::new(2);
        assert_eq!(table.flow_eq(0), None);
        let eq: EqHandle = Handle::from_raw(7);
        assert!(table.set_flow_eq(0, Some(eq)));
        assert_eq!(table.flow_eq(0), Some(eq));
        assert!(table.set_flow_eq(0, None));
        assert_eq!(table.flow_eq(0), None);
        // Out of range: not registrable, but reported enabled so the §4.8
        // invalid-index path wins.
        assert!(!table.set_flow_eq(9, Some(eq)));
        assert!(table.is_enabled(9));
        assert!(!table.try_disable(9));
    }

    #[test]
    fn front_back_ordering() {
        let mut list = MatchList::default();
        put_any(&mut list, h(1), MePos::Back);
        put_any(&mut list, h(2), MePos::Back);
        put_any(&mut list, h(0), MePos::Front);
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![h(0), h(1), h(2)]);
    }

    #[test]
    fn before_after_anchors() {
        let mut list = MatchList::default();
        put_any(&mut list, h(1), MePos::Back);
        put_any(&mut list, h(3), MePos::Back);
        assert!(put_any(&mut list, h(2), MePos::Before(h(3))));
        assert!(put_any(&mut list, h(4), MePos::After(h(3))));
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![h(1), h(2), h(3), h(4)]);
    }

    #[test]
    fn overflow_entries_stay_the_tail() {
        let mut list = MatchList::default();
        put_any(&mut list, h(10), MePos::Overflow);
        put_any(&mut list, h(1), MePos::Back);
        put_any(&mut list, h(11), MePos::Overflow);
        put_any(&mut list, h(2), MePos::Back);
        assert!(put_any(&mut list, h(3), MePos::Before(h(10))));
        assert!(!put_any(&mut list, h(4), MePos::Before(h(11))));
        assert!(!put_any(&mut list, h(4), MePos::After(h(10))));
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![h(1), h(2), h(3), h(10), h(11)]);
        assert!(list.is_overflow(h(10)) && !list.is_overflow(h(3)));
        list.remove(h(10));
        put_any(&mut list, h(5), MePos::Back);
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![h(1), h(2), h(3), h(5), h(11)]);
    }

    #[test]
    fn missing_anchor_fails() {
        let mut list = MatchList::default();
        assert!(!put_any(&mut list, h(1), MePos::Before(h(99))));
        assert!(!put_any(&mut list, h(1), MePos::After(h(99))));
        assert!(list.is_empty());
    }

    #[test]
    fn remove_preserves_order() {
        let mut list = MatchList::default();
        for i in 0..4 {
            put_any(&mut list, h(i), MePos::Back);
        }
        assert!(list.remove(h(2)));
        assert!(!list.remove(h(2)));
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![h(0), h(1), h(3)]);
    }

    #[test]
    fn repeated_front_inserts_keep_order() {
        // Exhausts the downward gap and forces renumbering.
        let mut list = MatchList::default();
        for i in 0..200 {
            assert!(list.insert(h(i), MePos::Front, ANY_SRC, exact(i)));
        }
        let order: Vec<_> = list.iter().collect();
        let expect: Vec<_> = (0..200).rev().map(h).collect();
        assert_eq!(order, expect);
        // The index stays coherent across renumbering.
        assert_eq!(first(&list, ProcessId::new(0, 0), 150), Some(h(150)));
    }

    #[test]
    fn repeated_bisection_inserts_keep_order() {
        // Insert always immediately after the first entry: bisects the same
        // gap until it collapses, forcing renumbering mid-list.
        let mut list = MatchList::default();
        put_any(&mut list, h(0), MePos::Back);
        put_any(&mut list, h(1000), MePos::Back);
        for i in 1..100 {
            assert!(put_any(&mut list, h(i), MePos::After(h(0))));
        }
        let order: Vec<_> = list.iter().collect();
        let mut expect = vec![h(0)];
        expect.extend((1..100).rev().map(h));
        expect.push(h(1000));
        assert_eq!(order, expect);
    }

    #[test]
    fn lookup_hits_exact_entry() {
        let mut list = MatchList::default();
        for i in 0..64 {
            list.insert(h(i), MePos::Back, ANY_SRC, exact(i));
        }
        assert_eq!(first(&list, ProcessId::new(1, 1), 63), Some(h(63)));
        assert_eq!(first(&list, ProcessId::new(1, 1), 999), None);
    }

    #[test]
    fn wildcard_before_exact_forces_walk() {
        let mut list = MatchList::default();
        put_any(&mut list, h(100), MePos::Back); // wildcard first
        list.insert(h(1), MePos::Back, ANY_SRC, exact(1));
        // The wildcard precedes the exact entry, so it wins for bits 1 too,
        // and it catches bits nothing else matches.
        assert_eq!(first(&list, ProcessId::new(0, 0), 1), Some(h(100)));
        assert_eq!(first(&list, ProcessId::new(0, 0), 999), Some(h(100)));
        // Past the wildcard, the exact entry is next for its own bits.
        let (rank, _) = list
            .lookup(ProcessId::new(0, 0), MatchBits(1), None)
            .unwrap();
        assert_eq!(
            list.lookup(ProcessId::new(0, 0), MatchBits(1), Some(rank))
                .map(|(_, me)| me),
            Some(h(1))
        );
        assert_eq!(
            list.lookup(ProcessId::new(0, 0), MatchBits(999), Some(rank)),
            None
        );
    }

    #[test]
    fn exact_before_wildcard_still_hits() {
        let mut list = MatchList::default();
        list.insert(h(1), MePos::Back, ANY_SRC, exact(1));
        put_any(&mut list, h(100), MePos::Back);
        assert_eq!(first(&list, ProcessId::new(0, 0), 1), Some(h(1)));
        // Other bits fall through to the trailing wildcard.
        assert_eq!(first(&list, ProcessId::new(0, 0), 2), Some(h(100)));
    }

    #[test]
    fn removing_wildcard_lifts_watermark() {
        let mut list = MatchList::default();
        put_any(&mut list, h(100), MePos::Back);
        list.insert(h(1), MePos::Back, ANY_SRC, exact(1));
        assert_eq!(first(&list, ProcessId::new(0, 0), 1), Some(h(100)));
        list.remove(h(100));
        assert_eq!(first(&list, ProcessId::new(0, 0), 1), Some(h(1)));
        assert_eq!(first(&list, ProcessId::new(0, 0), 2), None);
    }

    #[test]
    fn source_filter_skips_candidate_within_fast_path() {
        let mut list = MatchList::default();
        // Two entries with the same bits, different source filters.
        list.insert(h(1), MePos::Back, ProcessId::new(7, 7), exact(5));
        list.insert(h(2), MePos::Back, ANY_SRC, exact(5));
        // Initiator (7,7) matches the first; anyone else falls through to the
        // second within the same bucket.
        assert_eq!(first(&list, ProcessId::new(7, 7), 5), Some(h(1)));
        assert_eq!(first(&list, ProcessId::new(3, 3), 5), Some(h(2)));
        list.remove(h(2));
        assert_eq!(first(&list, ProcessId::new(3, 3), 5), None);
    }

    #[test]
    fn nonzero_ignore_mask_is_not_exact() {
        let mut list = MatchList::default();
        // Ignores the low bit: matches 6 and 7, and nothing else.
        list.insert(
            h(1),
            MePos::Back,
            ANY_SRC,
            MatchCriteria::with_ignore(MatchBits(6), MatchBits(1)),
        );
        assert_eq!(first(&list, ProcessId::new(0, 0), 7), Some(h(1)));
        assert_eq!(first(&list, ProcessId::new(0, 0), 6), Some(h(1)));
        assert_eq!(first(&list, ProcessId::new(0, 0), 5), None);
    }

    #[test]
    fn table_bounds() {
        let table = PortalTable::new(4);
        assert_eq!(table.size(), 4);
        assert!(table.lock(3).is_some());
        assert!(table.lock(4).is_none());
    }

    pub(crate) mod differential {
        //! The index must agree with the reference linear walk on every list
        //! shape reachable through the public API, including wildcard-before-
        //! exact orders, MPI's mask layouts and unlink/re-insert churn.

        use super::*;
        use proptest::prelude::*;

        /// MPI's match-bit fields (`portals_mpi::bits`), as literals.
        const LONG: u64 = 1 << 31;
        const SRC_MASK: u64 = 0xffff << 32;
        const TAG_MASK: u64 = 0xffff_ffff;

        /// Reference model: the Fig. 4 walk over the list in posting order,
        /// deciding purely on criteria + source (MD evaluation excluded — the
        /// list-level contract). Every entry it would try, in order.
        fn reference_walk(
            list: &MatchList,
            crit: &HashMap<MeHandle, (ProcessId, MatchCriteria)>,
            initiator: ProcessId,
            bits: MatchBits,
        ) -> Vec<MeHandle> {
            list.iter()
                .filter(|me| {
                    let (source, criteria) = crit[me];
                    source.matches(initiator) && criteria.matches(bits)
                })
                .collect()
        }

        /// Match bits in MPI's layout: context, source rank, the `LONG` flag
        /// and a small tag, so that every mask below cuts something.
        pub(crate) fn bits_strategy() -> impl Strategy<Value = u64> {
            (0u64..2, 0u64..2, any::<bool>(), 0u64..4).prop_map(|(ctx, src, long, tag)| {
                (ctx << 48) | (src << 32) | if long { LONG } else { 0 } | tag
            })
        }

        /// Exact, low-bit and full wildcards, MPI's receive, ANY_SOURCE,
        /// ANY_TAG, both-wildcard and long-entry masks, and two masks that
        /// cut across the fields.
        pub(crate) fn ignore_strategy() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(0u64),
                Just(1u64),
                Just(u64::MAX),
                Just(LONG),
                Just(LONG | SRC_MASK),
                Just(LONG | TAG_MASK),
                Just(LONG | SRC_MASK | TAG_MASK),
                Just(!LONG),
                Just(0x0001_0001_8000_0002u64),
                Just(0xffff_0000_0000_fff1u64),
            ]
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// (bits, ignore mask, source filter, position seed)
            Insert {
                bits: u64,
                ignore: u64,
                src: Option<(u32, u32)>,
                pos: u8,
            },
            /// Remove the i-th currently attached entry (mod len).
            Remove { which: usize },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (
                    bits_strategy(),
                    ignore_strategy(),
                    (any::<bool>(), 0u32..3, 0u32..3),
                    any::<u8>()
                )
                    .prop_map(|(bits, ignore, (filtered, n, p), pos)| Op::Insert {
                        bits,
                        ignore,
                        src: filtered.then_some((n, p)),
                        pos,
                    }),
                (any::<usize>(),).prop_map(|(which,)| Op::Remove { which }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

            #[test]
            fn fast_path_agrees_with_reference_walk(
                ops in proptest::collection::vec(op_strategy(), 1..40),
                probes in proptest::collection::vec((bits_strategy(), 0u32..3, 0u32..3), 1..12),
            ) {
                let mut list = MatchList::default();
                let mut crit: HashMap<MeHandle, (ProcessId, MatchCriteria)> = HashMap::new();
                let mut attached: Vec<MeHandle> = Vec::new();
                let mut next = 0u64;

                for op in ops {
                    match op {
                        Op::Insert { bits, ignore, src, pos } => {
                            next += 1;
                            let me = h(next);
                            let criteria =
                                MatchCriteria::with_ignore(MatchBits(bits), MatchBits(ignore));
                            let source = src
                                .map_or(ProcessId::ANY, |(n, p)| ProcessId::new(n, p));
                            let pos = match (pos % 4, attached.len()) {
                                (_, 0) | (0, _) => MePos::Back,
                                (1, _) => MePos::Front,
                                (2, n) => MePos::Before(attached[pos as usize % n]),
                                (_, n) => MePos::After(attached[pos as usize % n]),
                            };
                            prop_assert!(list.insert(me, pos, source, criteria));
                            crit.insert(me, (source, criteria));
                            attached.push(me);
                        }
                        Op::Remove { which } => {
                            if !attached.is_empty() {
                                let me = attached.remove(which % attached.len());
                                prop_assert!(list.remove(me));
                                crit.remove(&me);
                            }
                        }
                    }
                    // Probe after *every* mutation so intermediate shapes
                    // (wildcard-before-exact, post-unlink holes) are covered:
                    // asked again after each answer's rank, the index must
                    // name every entry the walk would try, in order, then none.
                    for &(bits, n, p) in &probes {
                        let initiator = ProcessId::new(n, p);
                        let expect = reference_walk(&list, &crit, initiator, MatchBits(bits));
                        let mut after = None;
                        for &me in &expect {
                            let got = list.lookup(initiator, MatchBits(bits), after);
                            prop_assert_eq!(got.map(|(_, me)| me), Some(me));
                            after = got.map(|(rank, _)| rank);
                        }
                        prop_assert_eq!(list.lookup(initiator, MatchBits(bits), after), None);
                    }
                }
            }
        }
    }
}
