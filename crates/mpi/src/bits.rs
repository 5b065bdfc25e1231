//! Match-bit encoding for MPI selection state.
//!
//! §4.4: "each message contains a set of match bits that allow the receiver to
//! determine where incoming messages should be placed ... the Portals API
//! provides the flexibility needed for an efficient implementation of the
//! send/receive operations in MPI."
//!
//! The 64 bits are packed `[context:16 | source rank:16 | tag:32]`, and the
//! MPI wildcards map exactly onto the "don't care" masks of a match entry:
//! `MPI_ANY_SOURCE` ignores the rank field, `MPI_ANY_TAG` the tag field. The
//! top bit of the tag field is not a tag: it is [`LONG`], set on the put of a
//! long message. Receives ignore it, so a posted receive takes a message of
//! any size; the overflow list's long entry matches on it alone.

use portals_types::{MatchBits, MatchCriteria};

/// Communicator context id (16 bits).
pub type Context = u16;
/// The tag-space layout (`Tag`, `MAX_USER_TAG`, `COLL_TAG_BASE_OFFSET`) and
/// the [`TagError`] it bounds are defined in `portals_types::error`, beside
/// every layer's error enum, and re-exported from this, their owning crate.
pub use portals_types::{Tag, TagError, COLL_TAG_BASE_OFFSET, MAX_USER_TAG};
/// Number of reserved offsets granted to the collective library, starting at
/// [`COLL_TAG_BASE_OFFSET`].
pub const COLL_TAG_SPAN: Tag = 0x10;
/// The flag bit a long message's put carries: bit 31 of the tag field. Every
/// tag, reserved ones included, stays below it.
pub const LONG: u64 = 1 << 31;

/// Reject user tags that would match internal-protocol traffic.
#[inline]
pub fn check_user_tag(tag: Tag) -> Result<(), TagError> {
    if tag >= MAX_USER_TAG {
        Err(TagError::ReservedTag { tag })
    } else {
        Ok(())
    }
}

/// Check that for `nranks` processes the reserved band holds together:
/// barrier rounds (`MAX_USER_TAG + round`) stay below the collective-library
/// offsets, and the whole band stays below the [`LONG`] bit of the tag
/// field. Called at communicator construction.
pub fn validate_reserved_layout(nranks: usize) -> Result<(), TagError> {
    let rounds = if nranks <= 1 {
        0
    } else {
        usize::BITS - (nranks - 1).leading_zeros()
    };
    let fits_field =
        MAX_USER_TAG as u64 + COLL_TAG_BASE_OFFSET as u64 + COLL_TAG_SPAN as u64 <= LONG;
    if rounds >= COLL_TAG_BASE_OFFSET || !fits_field {
        return Err(TagError::ReservedOverflow { nranks });
    }
    Ok(())
}

const SRC_SHIFT: u32 = 32;
const CTX_SHIFT: u32 = 48;
const TAG_MASK: u64 = 0xffff_ffff;
const SRC_MASK: u64 = 0xffff << SRC_SHIFT;

/// Pack `(context, source rank, tag)` into match bits.
#[inline]
pub fn encode(context: Context, src_rank: u16, tag: Tag) -> MatchBits {
    MatchBits::new(((context as u64) << CTX_SHIFT) | ((src_rank as u64) << SRC_SHIFT) | tag as u64)
}

/// Unpack `(context, source rank, tag)`, without the [`LONG`] flag.
#[inline]
pub fn decode(bits: MatchBits) -> (Context, u16, Tag) {
    let raw = bits.raw();
    (
        (raw >> CTX_SHIFT) as u16,
        (raw >> SRC_SHIFT) as u16,
        (raw & TAG_MASK & !LONG) as u32,
    )
}

/// Build the receive-side criteria: exact context, optionally wildcarded
/// source and tag, and the [`LONG`] flag ignored.
#[inline]
pub fn recv_criteria(context: Context, src: Option<u16>, tag: Option<Tag>) -> MatchCriteria {
    let must = encode(context, src.unwrap_or(0), tag.unwrap_or(0));
    let mut ignore = LONG;
    if src.is_none() {
        ignore |= SRC_MASK;
    }
    if tag.is_none() {
        ignore |= TAG_MASK;
    }
    MatchCriteria::with_ignore(must, MatchBits::new(ignore))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let bits = encode(7, 42, 123456);
        assert_eq!(decode(bits), (7, 42, 123456));
    }

    #[test]
    fn exact_criteria_match_only_their_triple() {
        let c = recv_criteria(1, Some(2), Some(3));
        assert!(c.matches(encode(1, 2, 3)));
        assert!(c.matches(MatchBits::new(encode(1, 2, 3).raw() | LONG)));
        assert!(!c.matches(encode(1, 2, 4)));
        assert!(!c.matches(encode(1, 3, 3)));
        assert!(!c.matches(encode(2, 2, 3)));
    }

    #[test]
    fn any_source_ignores_rank_only() {
        let c = recv_criteria(5, None, Some(9));
        assert!(c.matches(encode(5, 0, 9)));
        assert!(c.matches(encode(5, 65535, 9)));
        assert!(!c.matches(encode(5, 0, 10)));
        assert!(!c.matches(encode(6, 0, 9)));
    }

    #[test]
    fn any_tag_ignores_tag_only() {
        let c = recv_criteria(5, Some(3), None);
        assert!(c.matches(encode(5, 3, 0)));
        assert!(c.matches(encode(5, 3, u32::MAX)));
        assert!(!c.matches(encode(5, 4, 0)));
    }

    #[test]
    fn fully_wild_still_pins_context() {
        let c = recv_criteria(8, None, None);
        assert!(c.matches(encode(8, 1, 2)));
        assert!(!c.matches(encode(9, 1, 2)));
    }

    #[test]
    fn user_tags_below_reserved_pass() {
        assert_eq!(check_user_tag(0), Ok(()));
        assert_eq!(check_user_tag(MAX_USER_TAG - 1), Ok(()));
        assert_eq!(
            check_user_tag(MAX_USER_TAG),
            Err(TagError::ReservedTag { tag: MAX_USER_TAG })
        );
    }

    #[test]
    fn reserved_layout_holds_for_practical_sizes() {
        for n in [1usize, 2, 3, 64, 65535] {
            assert_eq!(validate_reserved_layout(n), Ok(()));
        }
        // Any size whose round count reaches the collective band must fail;
        // unreachable on 64-bit hosts (rounds ≤ 64 < 0x100), so synthesize the
        // boundary directly.
        let rounds_at_boundary = COLL_TAG_BASE_OFFSET;
        assert!(rounds_at_boundary > usize::BITS, "layout leaves headroom");
        let top = MAX_USER_TAG + COLL_TAG_BASE_OFFSET + COLL_TAG_SPAN - 1;
        assert_eq!(top as u64 & LONG, 0, "the reserved band stays below LONG");
        assert_eq!(decode(encode(1, 2, top)), (1, 2, top));
    }

    #[test]
    fn decode_strips_the_long_flag() {
        let long = MatchBits::new(encode(4, 5, 6).raw() | LONG);
        assert_eq!(decode(long), (4, 5, 6));
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrips(ctx in any::<u16>(), src in any::<u16>(), tag in 0..LONG as u32) {
            prop_assert_eq!(decode(encode(ctx, src, tag)), (ctx, src, tag));
        }

        #[test]
        fn wildcards_never_leak_across_fields(
            ctx in any::<u16>(), src in any::<u16>(), tag in 0..LONG as u32,
            other_src in any::<u16>(), other_tag in 0..LONG as u32
        ) {
            // ANY_SOURCE accepts any source but still requires the tag.
            let c = recv_criteria(ctx, None, Some(tag));
            prop_assert!(c.matches(encode(ctx, other_src, tag)));
            prop_assert_eq!(c.matches(encode(ctx, src, other_tag)), other_tag == tag);
        }
    }
}
