//! A slab pool for small-message [`Region`]s.
//!
//! The eager small-message path used to allocate a fresh region per send (the
//! API-boundary copy) and drop it when the ack came back — a malloc/free pair
//! on the latency-critical path. [`RegionPool`] recycles fixed-size slabs
//! instead: `take` hands out a pooled slab when one is free and sole-owned,
//! `recycle` returns one after its completion event. The pool never blocks
//! and never fails — a miss falls back to a fresh allocation.
//!
//! Safety of reuse rests on the Portals completion contract (see
//! `region.rs`): a send buffer is recycled only after the ack/completion for
//! the operation that used it, and a slab still referenced elsewhere (e.g. a
//! retransmit queue holding wire views) is detected by its handle count and
//! quarantined until those views drop.

use crate::region::Region;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded free-list of same-sized [`Region`] slabs.
#[derive(Debug)]
pub struct RegionPool {
    /// Slab size in bytes; only regions of exactly this length are pooled.
    slab_len: usize,
    /// Bound on the free list, so a burst can't pin memory forever.
    max_free: usize,
    free: Mutex<Vec<Region>>,
    pooled: AtomicU64,
    allocated: AtomicU64,
}

impl RegionPool {
    /// A pool of `max_free` recyclable slabs of `slab_len` bytes each.
    pub fn new(slab_len: usize, max_free: usize) -> RegionPool {
        RegionPool {
            slab_len,
            max_free,
            free: Mutex::new(Vec::new()),
            pooled: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// The fixed slab size this pool serves.
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.slab_len
    }

    /// A region of `slab_len` bytes: recycled if a sole-owned slab is free,
    /// freshly allocated otherwise. Contents are unspecified on the reuse
    /// path — callers overwrite before exposing the buffer.
    pub fn take(&self) -> Region {
        self.take_tracked().0
    }

    /// [`RegionPool::take`], additionally reporting whether the region came
    /// from the pool (`true`) or a fresh allocation (`false`) — for callers
    /// mirroring the hit rate into their own metrics.
    pub fn take_tracked(&self) -> (Region, bool) {
        let mut free = self.free.lock();
        // Scan from the back (cheap swap_remove) for a slab nothing else
        // still references. A slab with live views (retransmit queue, in-
        // flight gather) stays quarantined in the list until they drop.
        for i in (0..free.len()).rev() {
            if free[i].handle_count() == 1 {
                let r = free.swap_remove(i);
                drop(free);
                self.pooled.fetch_add(1, Ordering::Relaxed);
                return (r, true);
            }
        }
        drop(free);
        self.allocated.fetch_add(1, Ordering::Relaxed);
        (Region::zeroed(self.slab_len), false)
    }

    /// Return a slab to the pool. Regions of the wrong size, or arriving when
    /// the free list is full, are simply dropped.
    pub fn recycle(&self, region: Region) {
        if region.len() != self.slab_len {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.max_free {
            free.push(region);
        }
    }

    /// How many `take` calls were served from the pool (the
    /// `regions_pooled` figure).
    pub fn pooled(&self) -> u64 {
        self.pooled.load(Ordering::Relaxed)
    }

    /// How many `take` calls fell back to a fresh allocation.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Slabs currently waiting on the free list.
    pub fn free_len(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_allocates_hit_recycles() {
        let pool = RegionPool::new(256, 8);
        let a = pool.take();
        assert_eq!(a.len(), 256);
        assert_eq!(pool.pooled(), 0);
        assert_eq!(pool.allocated(), 1);
        pool.recycle(a);
        let b = pool.take();
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.allocated(), 1);
        drop(b);
    }

    #[test]
    fn referenced_slab_is_quarantined_until_views_drop() {
        let pool = RegionPool::new(64, 8);
        let a = pool.take();
        let view = a.slice(0, 16); // second handle to the allocation
        pool.recycle(a);
        // Still referenced: take must not hand it out.
        let b = pool.take();
        assert_eq!(pool.pooled(), 0, "referenced slab must not be reused");
        drop(view);
        pool.recycle(b);
        // Both now sole-owned; the next two takes hit the pool.
        let _c = pool.take();
        let _d = pool.take();
        assert_eq!(pool.pooled(), 2);
    }

    #[test]
    fn wrong_size_and_overflow_are_dropped() {
        let pool = RegionPool::new(32, 1);
        pool.recycle(Region::zeroed(16)); // wrong size
        assert_eq!(pool.free_len(), 0);
        pool.recycle(Region::zeroed(32));
        pool.recycle(Region::zeroed(32)); // over the bound
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn reused_slab_is_writable() {
        let pool = RegionPool::new(16, 4);
        let a = pool.take();
        a.write(0, &[0xAA; 16]);
        pool.recycle(a);
        let b = pool.take();
        b.write(0, &[0x55; 8]);
        assert_eq!(&b.read_vec(0, 8), &[0x55; 8]);
    }
}
