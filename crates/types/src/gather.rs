//! Vectored byte sequences for zero-copy wire assembly.
//!
//! A [`Gather`] is a logical byte string stored as an ordered list of
//! [`Bytes`] segments (an iovec). The data path builds packets by *gathering*
//! header slabs and payload region views instead of coalescing them into a
//! fresh allocation: pushing a segment, slicing a sub-range and concatenating
//! two gathers are all O(segments) and copy no payload bytes.
//!
//! Only the points that genuinely need contiguous memory pay for it:
//! [`Gather::to_bytes`] is free when the gather already has a single segment
//! and coalesces otherwise, and [`Gather::peek`] copies a small fixed-size
//! prefix (wire headers) onto the caller's stack.

use crate::region::Region;
use bytes::Bytes;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// An ordered sequence of [`Bytes`] segments forming one logical byte string.
///
/// Up to two segments — a packet header and the payload view behind it — are
/// kept inline, so building, slicing and cloning a packet allocates nothing;
/// only a third segment moves them to the heap. The type stays at most 80
/// bytes (asserted below): every datagram, delivery and in-flight entry
/// moves a `Gather` by value, and a larger one costs more in copies than the
/// allocations it saves.
#[derive(Clone, Default)]
pub struct Gather {
    segs: Segs,
    len: usize,
}

#[derive(Clone)]
enum Segs {
    /// At most two segments, in order. An unused slot holds an empty
    /// [`Bytes`], which owns nothing; the second slot is used only after the
    /// first.
    Inline([Bytes; 2]),
    /// Three or more segments.
    Spilled(Vec<Bytes>),
}

impl Default for Segs {
    fn default() -> Segs {
        Segs::Inline([Bytes::new(), Bytes::new()])
    }
}

const _: () = assert!(std::mem::size_of::<Bytes>() <= 32);
const _: () = assert!(std::mem::size_of::<Gather>() <= 80);

impl Gather {
    /// An empty gather.
    pub fn new() -> Gather {
        Gather::default()
    }

    /// A gather of one segment.
    pub fn from_bytes(b: Bytes) -> Gather {
        let mut g = Gather::new();
        g.push(b);
        g
    }

    /// Take ownership of `v` as a single segment (no copy).
    pub fn from_vec(v: Vec<u8>) -> Gather {
        Gather::from_bytes(Bytes::from(v))
    }

    /// Copy `data` into a single fresh segment.
    pub fn copy_from_slice(data: &[u8]) -> Gather {
        Gather::from_bytes(Bytes::copy_from_slice(data))
    }

    /// A one-segment view of `owner`'s bytes in `range`, without copying
    /// them. The view keeps `owner` alive, and while it lives no one can
    /// write through the `Arc` (`Arc::get_mut` fails): a receive buffer is
    /// reused only once every view of it has dropped. Panics if `range`
    /// exceeds the owner's bytes.
    pub fn view<T>(owner: &Arc<T>, range: Range<usize>) -> Gather
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        Gather::from_bytes(Bytes::from_shared(Arc::clone(owner), range))
    }

    /// Total logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the gather holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (empty segments are never stored).
    pub fn segment_count(&self) -> usize {
        self.segments().len()
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Bytes] {
        match &self.segs {
            Segs::Inline(slots) => {
                let used = slots.iter().take_while(|s| !s.is_empty()).count();
                &slots[..used]
            }
            Segs::Spilled(segs) => segs,
        }
    }

    /// Append `b` as a new segment (no copy). Empty segments are dropped.
    pub fn push(&mut self, b: Bytes) {
        if b.is_empty() {
            return;
        }
        self.len += b.len();
        match &mut self.segs {
            Segs::Inline([first, _]) if first.is_empty() => *first = b,
            Segs::Inline([_, second]) if second.is_empty() => *second = b,
            Segs::Inline([first, second]) => {
                let mut segs = Vec::with_capacity(4);
                segs.push(std::mem::take(first));
                segs.push(std::mem::take(second));
                segs.push(b);
                self.segs = Segs::Spilled(segs);
            }
            Segs::Spilled(segs) => segs.push(b),
        }
    }

    /// Append every segment of `other` (no copy).
    pub fn append(&mut self, other: Gather) {
        match other.segs {
            Segs::Inline(slots) => slots.into_iter().for_each(|b| self.push(b)),
            Segs::Spilled(segs) => segs.into_iter().for_each(|b| self.push(b)),
        }
    }

    /// Zero-copy sub-gather covering `[start, start + len)`.
    ///
    /// O(segments); each produced segment is a [`Bytes::slice`] of an input
    /// segment. Panics if the range exceeds the gather.
    pub fn slice(&self, start: usize, len: usize) -> Gather {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "slice [{start}, {start}+{len}) exceeds gather of {} bytes",
            self.len
        );
        let mut out = Gather::new();
        let mut skip = start;
        let mut want = len;
        for seg in self.segments() {
            if want == 0 {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let take = (seg.len() - skip).min(want);
            out.push(seg.slice(skip..skip + take));
            skip = 0;
            want -= take;
        }
        debug_assert_eq!(out.len, len);
        out
    }

    /// Copy up to `dst.len()` leading bytes into `dst`; returns the count
    /// copied. Used to parse fixed-size wire headers without coalescing the
    /// payload behind them.
    pub fn peek(&self, dst: &mut [u8]) -> usize {
        let mut filled = 0;
        for seg in self.segments() {
            if filled == dst.len() {
                break;
            }
            let take = seg.len().min(dst.len() - filled);
            dst[filled..filled + take].copy_from_slice(&seg[..take]);
            filled += take;
        }
        filled
    }

    /// Copy the whole gather into `dst` (which must be exactly `len` bytes).
    pub fn copy_to_slice(&self, dst: &mut [u8]) {
        assert_eq!(dst.len(), self.len, "destination length mismatch");
        let mut at = 0;
        for seg in self.segments() {
            dst[at..at + seg.len()].copy_from_slice(seg);
            at += seg.len();
        }
    }

    /// Write the whole gather into `region` starting at `offset`: every
    /// segment under one hold of the region's write lock
    /// ([`Region::write_gather`]).
    pub fn copy_to_region(&self, region: &Region, offset: usize) {
        region.write_gather(offset, self, 0..self.len);
    }

    /// A contiguous view of the gather.
    ///
    /// Free when the gather has zero or one segment (the segment is shared,
    /// not copied); coalesces into a fresh allocation otherwise.
    pub fn to_bytes(&self) -> Bytes {
        match self.segments() {
            [] => Bytes::new(),
            [only] => only.clone(),
            _ => Bytes::from(self.to_vec()),
        }
    }

    /// Copy the gather out into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len];
        self.copy_to_slice(&mut v);
        v
    }

    /// Iterate the logical bytes (for tests and diagnostics; O(1) per byte).
    pub fn iter_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.segments().iter().flat_map(|s| s.iter().copied())
    }
}

impl From<Bytes> for Gather {
    fn from(b: Bytes) -> Gather {
        Gather::from_bytes(b)
    }
}

impl From<Vec<u8>> for Gather {
    fn from(v: Vec<u8>) -> Gather {
        Gather::from_vec(v)
    }
}

/// Equality is over logical bytes, not segmentation.
impl PartialEq for Gather {
    fn eq(&self, other: &Gather) -> bool {
        self.len == other.len && self.iter_bytes().eq(other.iter_bytes())
    }
}
impl Eq for Gather {}

impl PartialEq<[u8]> for Gather {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() && self.iter_bytes().eq(other.iter().copied())
    }
}
impl PartialEq<&[u8]> for Gather {
    fn eq(&self, other: &&[u8]) -> bool {
        self == *other
    }
}
impl PartialEq<Vec<u8>> for Gather {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

impl fmt::Debug for Gather {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gather")
            .field("len", &self.len)
            .field("segments", &self.segment_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn sample() -> Gather {
        let mut g = Gather::new();
        g.push(Bytes::from(vec![0u8, 1, 2]));
        g.push(Bytes::from(vec![3u8, 4]));
        g.push(Bytes::from(vec![5u8, 6, 7, 8]));
        g
    }

    #[test]
    fn push_and_len() {
        let g = sample();
        assert_eq!(g.len(), 9);
        assert_eq!(g.segment_count(), 3);
        assert_eq!(g.to_vec(), (0u8..9).collect::<Vec<_>>());
    }

    #[test]
    fn slice_crosses_segments_zero_copy() {
        let g = sample();
        let s = g.slice(2, 5);
        assert_eq!(s.to_vec(), vec![2, 3, 4, 5, 6]);
        // First produced segment aliases the first input segment's tail.
        assert_eq!(s.segments()[0].as_ref().as_ptr(), unsafe {
            g.segments()[0].as_ref().as_ptr().add(2)
        },);
        assert_eq!(g.slice(0, 0).len(), 0);
        assert_eq!(g.slice(9, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds gather")]
    fn slice_out_of_bounds_panics() {
        sample().slice(5, 5);
    }

    #[test]
    fn peek_spans_segments() {
        let g = sample();
        let mut hdr = [0u8; 4];
        assert_eq!(g.peek(&mut hdr), 4);
        assert_eq!(hdr, [0, 1, 2, 3]);
        let mut long = [0xffu8; 16];
        assert_eq!(g.peek(&mut long), 9);
        assert_eq!(&long[..9], &(0u8..9).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn to_bytes_single_segment_is_shared() {
        let g = Gather::from_vec(vec![7u8; 32]);
        let b = g.to_bytes();
        assert_eq!(b.as_ref().as_ptr(), g.segments()[0].as_ref().as_ptr());
        let multi = sample();
        assert_eq!(multi.to_bytes().to_vec(), multi.to_vec());
    }

    #[test]
    fn equality_ignores_segmentation() {
        let a = sample();
        let b = Gather::from_vec((0u8..9).collect());
        assert_eq!(a, b);
        assert_eq!(a, (0u8..9).collect::<Vec<_>>());
        assert_ne!(a, Gather::from_vec(vec![0u8; 9]));
    }

    #[test]
    fn append_concatenates_without_copy() {
        let mut a = Gather::from_vec(vec![1u8, 2]);
        let b = Gather::from_vec(vec![3u8]);
        let ptr = b.segments()[0].as_ref().as_ptr();
        a.append(b);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        assert_eq!(a.segments()[1].as_ref().as_ptr(), ptr);
    }

    #[test]
    fn a_view_holds_its_owner_until_dropped() {
        let mut owner = Arc::new(vec![1u8, 2, 3, 4, 5]);
        let g = Gather::view(&owner, 1..4);
        assert_eq!(g.to_vec(), vec![2, 3, 4]);
        assert_eq!(g.segments()[0].as_ptr(), owner[1..].as_ptr(), "no copy");
        assert!(Arc::get_mut(&mut owner).is_none(), "no writer while viewed");
        drop(g);
        assert!(Arc::get_mut(&mut owner).is_some());
    }

    #[test]
    fn copy_to_region_writes_all_segments_in_one_locked_write() {
        let g = sample();
        let r = Region::zeroed(12);
        g.copy_to_region(&r, 2);
        assert_eq!(
            r.read_vec(0, 12),
            [vec![0, 0], (0u8..9).collect(), vec![0]].concat()
        );
        // One write: a destination too short for the last segment takes
        // none of the three.
        let short = Region::zeroed(10);
        let overrun = catch_unwind(AssertUnwindSafe(|| g.copy_to_region(&short, 2)));
        assert!(overrun.is_err());
        assert_eq!(short.read_vec(0, 10), vec![0u8; 10]);
    }
}
