//! Refcounted byte regions with locked interior mutability.
//!
//! [`Region`] is the buffer model for the whole data path: a fixed-size,
//! refcounted byte slab that supports
//!
//! * **zero-copy subslicing** — [`Region::slice`] returns a [`Bytes`] window
//!   over the region's own allocation (no copy and no allocation: the view
//!   holds a strong reference on the region's `Arc`, so the memory outlives
//!   it), and
//! * **locked writes** — [`Region::write`], [`Region::write_gather`] and
//!   [`Region::rmw`] hold the region's one write lock; a delivery of many
//!   wire segments takes it once. One thread per node places every delivery
//!   (the node's step), so a writer meets another only when an application
//!   thread fills a buffer the engine is also writing.
//!
//! # Aliasing model (DESIGN.md §6c)
//!
//! Writers are mutually excluded by the region's write lock, which nothing
//! else nests inside. Readers ([`Region::slice`], [`Region::read_into`],
//! [`Region::read_vec`]) take **no** locks: like real RDMA hardware, a read
//! racing a write to the same range may observe torn bytes. Higher layers make
//! such races benign the same way Portals applications do — a buffer is only
//! read after the completion event (EQ entry or counter) for the writes
//! targeting it has been delivered, and the engine raises that event only
//! after [`Region::write`] returns.

use crate::gather::Gather;
use bytes::Bytes;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

struct RegionInner {
    /// The allocation. Held only to own the memory; all access goes through
    /// the cached `ptr`/`len` so no reference to the cell's contents is ever
    /// formed after construction.
    _buf: UnsafeCell<Box<[u8]>>,
    ptr: *mut u8,
    len: usize,
    /// Held by every writer for the whole of its mutation.
    write_lock: Mutex<()>,
}

// SAFETY: all mutation goes through `write`/`rmw`, which hold the region's
// write lock, so no two writers touch the bytes at once. Unlocked readers
// racing a writer observe torn bytes (see the module docs) but never access
// memory out of bounds.
unsafe impl Send for RegionInner {}
unsafe impl Sync for RegionInner {}

/// A refcounted, fixed-size byte slab with one write lock.
///
/// Cloning a `Region` is O(1) and yields another handle to the same memory.
/// See the module docs for the aliasing rules.
#[derive(Clone)]
pub struct Region {
    inner: Arc<RegionInner>,
}

impl Region {
    /// A zero-filled region of `len` bytes.
    pub fn zeroed(len: usize) -> Region {
        Region::from_boxed(vec![0u8; len].into_boxed_slice())
    }

    /// Take ownership of `v` without copying it.
    pub fn from_vec(v: Vec<u8>) -> Region {
        Region::from_boxed(v.into_boxed_slice())
    }

    /// Copy `data` into a new region.
    pub fn copy_from_slice(data: &[u8]) -> Region {
        Region::from_boxed(data.to_vec().into_boxed_slice())
    }

    fn from_boxed(mut buf: Box<[u8]>) -> Region {
        let ptr = buf.as_mut_ptr();
        let len = buf.len();
        Region {
            inner: Arc::new(RegionInner {
                _buf: UnsafeCell::new(buf),
                ptr,
                len,
                write_lock: Mutex::new(()),
            }),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn base_ptr(&self) -> *mut u8 {
        self.inner.ptr
    }

    /// Zero-copy [`Bytes`] view of `[offset, offset + len)`.
    ///
    /// The view keeps the region alive. Reads through it are unlocked; see
    /// the module docs for when that is safe.
    pub fn slice(&self, offset: usize, len: usize) -> Bytes {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice [{offset}, {offset}+{len}) exceeds region of {} bytes",
            self.len()
        );
        // SAFETY: the pointer stays valid while the view's handle on the
        // region's allocation is alive, and bounds were checked above.
        unsafe { Bytes::from_raw_owner(self.base_ptr().add(offset), len, self.inner.clone()) }
    }

    /// Write `src` at `offset`, holding the write lock.
    ///
    /// Panics if the range exceeds the region.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset
                .checked_add(src.len())
                .is_some_and(|end| end <= self.len()),
            "write [{offset}, {offset}+{}) exceeds region of {} bytes",
            src.len(),
            self.len()
        );
        let _guard = self.inner.write_lock.lock();
        // SAFETY: bounds checked; the write lock excludes every other writer.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base_ptr().add(offset), src.len());
        }
    }

    /// Write bytes `[range.start, range.end)` of `data` at `offset`, segment
    /// by segment under one hold of the write lock: a delivery of many wire
    /// segments takes the lock once, not once per segment.
    ///
    /// Panics, before any byte lands, if `range` exceeds `data` or the
    /// destination range exceeds the region.
    pub fn write_gather(&self, offset: usize, data: &Gather, range: Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= data.len(),
            "write of [{}, {}) exceeds gather of {} bytes",
            range.start,
            range.end,
            data.len()
        );
        let len = range.end - range.start;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len()),
            "write [{offset}, {offset}+{len}) exceeds region of {} bytes",
            self.len()
        );
        let _guard = self.inner.write_lock.lock();
        let mut skip = range.start;
        let mut at = offset;
        let mut want = len;
        for seg in data.segments() {
            if want == 0 {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let n = (seg.len() - skip).min(want);
            // SAFETY: `[at, at + n)` lies within the destination range
            // checked above; the write lock excludes every other writer.
            unsafe {
                std::ptr::copy_nonoverlapping(seg[skip..].as_ptr(), self.base_ptr().add(at), n);
            }
            skip = 0;
            at += n;
            want -= n;
        }
    }

    /// Read-modify-write `[offset, offset + len)` under the write lock.
    ///
    /// Needed when the new contents depend on the old (e.g. combining
    /// deliveries): the lock is held across both the read and the write so
    /// no other writer can interleave.
    pub fn rmw(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8])) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len()),
            "rmw [{offset}, {offset}+{len}) exceeds region of {} bytes",
            self.len()
        );
        let _guard = self.inner.write_lock.lock();
        // SAFETY: bounds checked; the write lock grants exclusive write access.
        let window = unsafe { std::slice::from_raw_parts_mut(self.base_ptr().add(offset), len) };
        f(window);
    }

    /// Copy `[offset, offset + dst.len())` into `dst` (unlocked read).
    pub fn read_into(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            offset
                .checked_add(dst.len())
                .is_some_and(|end| end <= self.len()),
            "read [{offset}, {offset}+{}) exceeds region of {} bytes",
            dst.len(),
            self.len()
        );
        // SAFETY: bounds checked; see the module docs for the torn-read model.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base_ptr().add(offset), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Copy `[offset, offset + len)` out into a fresh `Vec` (unlocked read).
    pub fn read_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(offset, &mut v);
        v
    }

    /// A region of `new_len` bytes holding this region's first
    /// `min(len, new_len)` bytes (the rest zero-filled).
    ///
    /// Used where the old `Vec` model called `resize`: existing views keep
    /// seeing the old allocation, new binds see the new one.
    pub fn resized(&self, new_len: usize) -> Region {
        let out = Region::zeroed(new_len);
        let keep = self.len().min(new_len);
        out.rmw(0, keep, |w| self.read_into(0, w));
        out
    }

    /// True if `other` is a handle to the same allocation.
    pub fn same_allocation(&self, other: &Region) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of live handles to this allocation (region clones plus
    /// zero-copy views). `1` means this handle is the sole owner — the test
    /// [`RegionPool`](crate::pool::RegionPool) uses to decide a slab is safe
    /// to hand out again.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

/// `Debug` prints length and refcount, never contents: regions may be mutated
/// concurrently, and payloads can be huge.
impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.len())
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn slice_is_zero_copy_and_sees_writes() {
        let r = Region::from_vec(vec![0u8; 16]);
        let view = r.slice(4, 8);
        assert_eq!(&view[..], &[0u8; 8][..]);
        r.write(4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // The view aliases the region's memory, so the write is visible.
        assert_eq!(&view[..], &[1, 2, 3, 4, 5, 6, 7, 8][..]);
        assert_eq!(view.as_ref().as_ptr(), r.slice(4, 1).as_ref().as_ptr());
    }

    #[test]
    fn view_keeps_region_alive() {
        let view = {
            let r = Region::from_vec(vec![9u8; 32]);
            r.slice(0, 32)
        };
        assert!(view.iter().all(|&b| b == 9));
    }

    #[test]
    fn rmw_is_read_modify_write() {
        let r = Region::from_vec(vec![1u8, 2, 3, 4]);
        r.rmw(1, 2, |w| {
            w[0] += 10;
            w[1] += 10;
        });
        assert_eq!(r.read_vec(0, 4), vec![1, 12, 13, 4]);
    }

    #[test]
    fn resized_preserves_prefix() {
        let r = Region::from_vec(vec![5u8; 10]);
        let grown = r.resized(20);
        assert_eq!(grown.len(), 20);
        assert_eq!(
            grown.read_vec(0, 20),
            [vec![5u8; 10], vec![0u8; 10]].concat()
        );
        let shrunk = r.resized(3);
        assert_eq!(shrunk.read_vec(0, 3), vec![5u8; 3]);
    }

    #[test]
    fn two_writers_lose_no_update() {
        // Two threads add into one counter with `rmw` and write their own
        // words with `write`: every increment lands, and each word holds
        // its writer's last value.
        let r = Region::zeroed(64);
        let r2 = r.clone();
        let bump = |r: &Region| {
            r.rmw(0, 8, |w| {
                let n = u64::from_le_bytes(w.try_into().unwrap());
                w.copy_from_slice(&(n + 1).to_le_bytes());
            })
        };
        let t = std::thread::spawn(move || {
            for i in 0..1000u32 {
                bump(&r2);
                r2.write(8, &i.to_le_bytes());
            }
        });
        for i in 0..1000u32 {
            bump(&r);
            r.write(32, &i.to_le_bytes());
        }
        t.join().unwrap();
        assert_eq!(r.read_vec(0, 8), 2000u64.to_le_bytes().to_vec());
        assert_eq!(r.read_vec(8, 4), 999u32.to_le_bytes().to_vec());
        assert_eq!(r.read_vec(32, 4), 999u32.to_le_bytes().to_vec());
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_bounds_write_panics() {
        Region::zeroed(4).write(2, &[0u8; 4]);
    }

    fn three_segments() -> Gather {
        let mut g = Gather::new();
        for seg in [&[1u8, 2, 3][..], &[4, 5], &[6, 7, 8, 9]] {
            g.push(Bytes::copy_from_slice(seg));
        }
        g
    }

    #[test]
    fn a_gather_write_places_a_window_across_segments() {
        let r = Region::zeroed(8);
        r.write_gather(1, &three_segments(), 2..7);
        assert_eq!(r.read_vec(0, 8), vec![0, 3, 4, 5, 6, 7, 0, 0]);
        r.write_gather(8, &three_segments(), 4..4);
    }

    #[test]
    fn a_gather_write_that_overruns_lands_nothing() {
        // Two segments would fit; the third overruns the region. The bounds
        // are checked against the whole delivery, so not even the first
        // segment lands.
        let r = Region::from_vec(vec![0xEE; 6]);
        let g = three_segments();
        let overrun = catch_unwind(AssertUnwindSafe(|| r.write_gather(0, &g, 0..g.len())));
        assert!(overrun.is_err(), "an overrunning write must panic");
        assert_eq!(r.read_vec(0, 6), vec![0xEE; 6], "no byte landed");
        let past_data = catch_unwind(AssertUnwindSafe(|| r.write_gather(0, &g, 5..10)));
        assert!(past_data.is_err(), "a window past the gather must panic");
        assert_eq!(r.read_vec(0, 6), vec![0xEE; 6], "no byte landed");
        // The lock was never taken, so the region still accepts writes.
        r.write_gather(0, &g, 0..6);
        assert_eq!(r.read_vec(0, 6), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_bounds_slice_panics() {
        let _ = Region::zeroed(4).slice(4, 1);
    }

    #[test]
    fn zero_len_ops_on_empty_region() {
        let r = Region::zeroed(0);
        assert!(r.is_empty());
        r.write(0, &[]);
        assert_eq!(r.slice(0, 0).len(), 0);
        assert!(r.read_vec(0, 0).is_empty());
    }
}
