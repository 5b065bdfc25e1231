//! Match bits and match criteria.
//!
//! A Portals address includes 64 *match bits* (§4.4). Each match-list entry holds
//! two 64-bit patterns — "must match" bits and "don't care" (ignore) bits — and an
//! incoming request matches the entry iff its match bits equal the must-match bits
//! in every position *not* covered by an ignore bit:
//!
//! ```text
//! matches(incoming) := (incoming ^ must_match) & !ignore == 0
//! ```
//!
//! Higher-level protocols pack their own selection state into the 64 bits; the MPI
//! layer in this workspace packs `(context, source rank, tag)` and uses ignore bits
//! to express `MPI_ANY_SOURCE` / `MPI_ANY_TAG`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// 64 bits of user-defined matching state carried in every put/get request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MatchBits(pub u64);

impl MatchBits {
    /// All bits zero.
    pub const ZERO: MatchBits = MatchBits(0);
    /// All bits one.
    pub const ONES: MatchBits = MatchBits(u64::MAX);

    /// Construct from a raw value.
    #[inline]
    pub const fn new(bits: u64) -> Self {
        MatchBits(bits)
    }

    /// The raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for MatchBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatchBits({:#018x})", self.0)
    }
}

impl fmt::Display for MatchBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl BitAnd for MatchBits {
    type Output = MatchBits;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        MatchBits(self.0 & rhs.0)
    }
}

impl BitOr for MatchBits {
    type Output = MatchBits;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        MatchBits(self.0 | rhs.0)
    }
}

impl BitXor for MatchBits {
    type Output = MatchBits;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        MatchBits(self.0 ^ rhs.0)
    }
}

impl Not for MatchBits {
    type Output = MatchBits;
    #[inline]
    fn not(self) -> Self {
        MatchBits(!self.0)
    }
}

impl From<u64> for MatchBits {
    fn from(v: u64) -> Self {
        MatchBits(v)
    }
}

/// The matching half of a match-list entry: the "must match" pattern plus the
/// "don't care" mask (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatchCriteria {
    /// Bits that must equal the incoming match bits wherever `ignore` is 0.
    pub must_match: MatchBits,
    /// Bits the comparison ignores ("don't care").
    pub ignore: MatchBits,
}

impl MatchCriteria {
    /// Criteria that require an exact 64-bit equality.
    #[inline]
    pub const fn exact(bits: MatchBits) -> Self {
        MatchCriteria {
            must_match: bits,
            ignore: MatchBits::ZERO,
        }
    }

    /// Criteria that match *any* incoming bits.
    #[inline]
    pub const fn any() -> Self {
        MatchCriteria {
            must_match: MatchBits::ZERO,
            ignore: MatchBits::ONES,
        }
    }

    /// Criteria with an explicit ignore mask.
    #[inline]
    pub const fn with_ignore(must_match: MatchBits, ignore: MatchBits) -> Self {
        MatchCriteria { must_match, ignore }
    }

    /// The core matching predicate (§4.4).
    #[inline]
    pub fn matches(&self, incoming: MatchBits) -> bool {
        (incoming.0 ^ self.must_match.0) & !self.ignore.0 == 0
    }

    /// True if the criteria cannot reject anything.
    #[inline]
    pub fn is_wildcard(&self) -> bool {
        self.ignore == MatchBits::ONES
    }
}

impl Default for MatchCriteria {
    fn default() -> Self {
        MatchCriteria::any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_match_requires_equality() {
        let c = MatchCriteria::exact(MatchBits(0xdead_beef));
        assert!(c.matches(MatchBits(0xdead_beef)));
        assert!(!c.matches(MatchBits(0xdead_beee)));
        assert!(!c.is_wildcard());
    }

    #[test]
    fn wildcard_matches_anything() {
        let c = MatchCriteria::any();
        assert!(c.matches(MatchBits(0)));
        assert!(c.matches(MatchBits(u64::MAX)));
        assert!(c.is_wildcard());
    }

    #[test]
    fn ignore_bits_mask_out_positions() {
        // Low 16 bits are "don't care": model MPI_ANY_TAG with a 16-bit tag field.
        let c = MatchCriteria::with_ignore(MatchBits(0xaaaa_0000), MatchBits(0xffff));
        assert!(c.matches(MatchBits(0xaaaa_0000)));
        assert!(c.matches(MatchBits(0xaaaa_1234)));
        assert!(!c.matches(MatchBits(0xaaab_1234)));
    }

    #[test]
    fn bit_ops() {
        let a = MatchBits(0b1100);
        let b = MatchBits(0b1010);
        assert_eq!((a & b).raw(), 0b1000);
        assert_eq!((a | b).raw(), 0b1110);
        assert_eq!((a ^ b).raw(), 0b0110);
        assert_eq!((!MatchBits::ZERO), MatchBits::ONES);
    }

    proptest! {
        #[test]
        fn exact_criteria_match_iff_equal(bits in any::<u64>(), probe in any::<u64>()) {
            let c = MatchCriteria::exact(MatchBits(bits));
            prop_assert_eq!(c.matches(MatchBits(probe)), bits == probe);
        }

        #[test]
        fn wildcard_never_rejects(probe in any::<u64>()) {
            prop_assert!(MatchCriteria::any().matches(MatchBits(probe)));
        }

        #[test]
        fn ignored_positions_are_irrelevant(
            must in any::<u64>(), ignore in any::<u64>(), noise in any::<u64>()
        ) {
            let c = MatchCriteria::with_ignore(MatchBits(must), MatchBits(ignore));
            // Perturbing only ignored bits never changes the outcome.
            let base = MatchBits(must);
            let perturbed = MatchBits(must ^ (noise & ignore));
            prop_assert!(c.matches(base));
            prop_assert!(c.matches(perturbed));
        }

        #[test]
        fn unignored_difference_always_rejects(
            must in any::<u64>(), ignore in any::<u64>(), noise in any::<u64>()
        ) {
            let c = MatchCriteria::with_ignore(MatchBits(must), MatchBits(ignore));
            let delta = noise & !ignore;
            prop_assume!(delta != 0);
            prop_assert!(!c.matches(MatchBits(must ^ delta)));
        }
    }
}
