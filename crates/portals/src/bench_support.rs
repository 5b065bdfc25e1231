//! Support for the translation microbenchmark (Figures 3–4).
//!
//! Exposes just enough of the interface internals to measure the address
//! translation step in isolation — match-list length, wildcard density and
//! match position are the variables the Fig. 3/4 structures imply — through
//! the receive path's indexed `engine::translate` and through the reference
//! `engine::walk` it is checked against, so the two can be timed side by
//! side. Not part of the public API contract.

#![doc(hidden)]

use crate::counters::DropReason;
use crate::engine;
use crate::md::{Md, MdSpec, ReqOp};
use crate::me::MatchEntry;
use crate::ni::NiState;
use crate::table::MePos;
use portals_types::{MatchBits, MatchCriteria, NiLimits, ProcessId, Region};

/// A standalone portal table + match list for driving translation directly.
pub struct MatchBench {
    state: NiState,
}

impl MatchBench {
    /// Build a match list of `entries` entries on portal 0. Entry `i` matches
    /// exactly `MatchBits(i)` (or anything, every `wildcard_every`-th entry),
    /// each with one 4 KiB memory descriptor.
    pub fn new(entries: usize, wildcard_every: Option<usize>) -> MatchBench {
        let state = NiState::new(&NiLimits {
            max_match_entries: entries + 1,
            max_memory_descriptors: entries + 1,
            ..NiLimits::DEFAULT
        });
        for i in 0..entries {
            let criteria = match wildcard_every {
                Some(k) if i % k == k - 1 => MatchCriteria::any(),
                _ => MatchCriteria::exact(MatchBits::new(i as u64)),
            };
            let me = state
                .mes
                .insert(MatchEntry::at_portal(0, ProcessId::ANY, criteria, false))
                .expect("within the limit");
            assert!(state.table.lock(0).expect("portal 0").insert(
                me,
                MePos::Back,
                ProcessId::ANY,
                criteria
            ));
            let md = state
                .mds
                .insert(Md::from_spec(MdSpec::new(Region::zeroed(4096))))
                .expect("within the limit");
            state
                .mes
                .with_mut(me, |m| m.md_list.push_back(md))
                .expect("just inserted");
        }
        MatchBench { state }
    }

    fn run(&self, bits: u64, indexed: bool) -> Result<engine::Accepted, DropReason> {
        let list = self.state.table.lock(0).expect("portal 0");
        let translate = if indexed {
            engine::translate
        } else {
            engine::walk
        };
        translate(
            &list,
            &self.state,
            ReqOp::Put,
            ProcessId::new(0, 0),
            MatchBits::new(bits),
            0,
            64,
        )
    }

    /// One reference-walk translation for `bits`; true if it matched.
    #[inline]
    pub fn translate(&self, bits: u64) -> bool {
        self.run(bits, false).is_ok()
    }

    /// One translation through the match-list index (the receive path);
    /// true if it matched.
    #[inline]
    pub fn translate_indexed(&self, bits: u64) -> bool {
        self.run(bits, true).is_ok()
    }

    /// Run one reference-walk translation expected to fall off the list.
    #[inline]
    pub fn translate_miss(&self) -> bool {
        matches!(self.run(u64::MAX, false), Err(DropReason::NoMatch))
    }

    /// Same expected miss, answered by the index.
    #[inline]
    pub fn translate_miss_indexed(&self) -> bool {
        matches!(self.run(u64::MAX, true), Err(DropReason::NoMatch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rig_matches_expected_positions() {
        let rig = MatchBench::new(100, None);
        assert!(rig.translate(0), "first entry");
        assert!(rig.translate(99), "last entry");
        assert!(rig.translate_miss(), "no entry for MAX");
    }

    #[test]
    fn index_agrees_with_walk() {
        let rig = MatchBench::new(512, None);
        for probe in [0u64, 5, 255, 511, u64::MAX] {
            assert_eq!(
                rig.translate(probe),
                rig.translate_indexed(probe),
                "probe {probe}"
            );
        }
        assert!(rig.translate_miss_indexed(), "miss stays a miss");
    }

    #[test]
    fn index_agrees_under_wildcards() {
        let rig = MatchBench::new(100, Some(10));
        for probe in [0u64, 9, 42, 99, 0xdead_beef] {
            assert_eq!(
                rig.translate(probe),
                rig.translate_indexed(probe),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn wildcards_catch_everything_at_their_position() {
        // Every 10th entry is a wildcard: entry 9 catches any bits, so a miss
        // pattern still matches, walked or indexed.
        let rig = MatchBench::new(100, Some(10));
        assert!(rig.translate(u64::MAX - 1));
        assert!(rig.translate_indexed(u64::MAX - 1));
        assert!(!rig.translate_miss());
        assert!(!rig.translate_miss_indexed());
    }
}
