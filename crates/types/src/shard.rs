//! Sharded generational arenas.
//!
//! A [`Sharded<T>`] spreads objects across `N` independently locked [`Arena`]s
//! so that operations on unrelated objects (say, an MD attach on one thread and
//! an event-queue poll on another) never contend on a single table lock. This
//! is the storage half of breaking up the network interface's monolithic state
//! mutex: the *ordering*-sensitive structures (match lists) keep their own
//! per-portal locks, while the flat object tables (MDs, MEs, EQs) live here.
//!
//! Handles issued by a `Sharded<T>` are ordinary [`Handle<T>`]s: the shard id
//! is folded into the slot index (`public = local * nshards + shard`), so wire
//! encoding via [`Handle::to_raw`] and the staleness guarantees of the
//! underlying generational arenas are unchanged — a stale handle fails to
//! resolve in its shard exactly as it would in one big arena.

use crate::arena::{Arena, Handle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default shard count. Small and fixed: the goal is to split *classes* of
/// concurrent activity (dispatcher delivery, API-thread attach/unlink, EQ
/// polling), not to scale to hundreds of cores.
pub const DEFAULT_SHARDS: usize = 8;

/// A fixed-width collection of independently locked generational arenas.
pub struct Sharded<T> {
    shards: Vec<Mutex<Arena<T>>>,
    /// Round-robin cursor for insert placement.
    next: AtomicUsize,
    /// Live objects across all shards, changed under the shard lock of the
    /// insert or remove that changed it, so that no count drops below the
    /// insert it undoes.
    live: AtomicUsize,
}

impl<T> Sharded<T> {
    /// Create with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Create with an explicit shard count (`nshards >= 1`).
    pub fn with_shards(nshards: usize) -> Self {
        assert!(nshards >= 1, "need at least one shard");
        Sharded {
            shards: (0..nshards).map(|_| Mutex::new(Arena::new())).collect(),
            next: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
        }
    }

    /// Number of shards (fixed at construction).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Split a public handle into `(shard, local handle)`. Returns `None` for
    /// the [`Handle::NONE`] sentinel, which must never reach an arena whose
    /// generation counter could legitimately be `u32::MAX`.
    #[inline]
    fn localize(&self, handle: Handle<T>) -> Option<(usize, Handle<T>)> {
        if handle.is_none() {
            return None;
        }
        let n = self.shards.len() as u32;
        let shard = (handle.slot() % n) as usize;
        let local = Handle::from_parts(handle.slot() / n, handle.generation());
        Some((shard, local))
    }

    /// Re-widen a local handle issued by shard `shard` into its public form.
    #[inline]
    fn globalize(&self, shard: usize, local: Handle<T>) -> Handle<T> {
        let n = self.shards.len() as u32;
        let public = local
            .slot()
            .checked_mul(n)
            .and_then(|v| v.checked_add(shard as u32))
            .expect("sharded arena index overflow");
        Handle::from_parts(public, local.generation())
    }

    /// Insert a value, returning its public handle. Shard choice is
    /// round-robin; only that one shard's lock is taken.
    pub fn insert(&self, value: T) -> Handle<T> {
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut guard = self.shards[shard].lock();
        let local = guard.insert(value);
        self.live.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        self.globalize(shard, local)
    }

    /// Run `f` with a shared view of the object, holding only its shard lock.
    /// Returns `None` if the handle is stale or the sentinel.
    pub fn with<R>(&self, handle: Handle<T>, f: impl FnOnce(&T) -> R) -> Option<R> {
        let (shard, local) = self.localize(handle)?;
        let guard = self.shards[shard].lock();
        guard.get(local).map(f)
    }

    /// Run `f` with a mutable view of the object, holding only its shard lock.
    pub fn with_mut<R>(&self, handle: Handle<T>, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let (shard, local) = self.localize(handle)?;
        let mut guard = self.shards[shard].lock();
        guard.get_mut(local).map(f)
    }

    /// Remove and return the object, invalidating the handle.
    pub fn remove(&self, handle: Handle<T>) -> Option<T> {
        self.remove_if(handle, |_| true)?
    }

    /// Run `f` with a mutable view of the object and remove it if `f`
    /// returns true, all under its shard lock. `None`: the handle is stale
    /// or the sentinel; `Some(None)`: `f` kept the object.
    pub fn remove_if(
        &self,
        handle: Handle<T>,
        f: impl FnOnce(&mut T) -> bool,
    ) -> Option<Option<T>> {
        let (shard, local) = self.localize(handle)?;
        let mut guard = self.shards[shard].lock();
        if !f(guard.get_mut(local)?) {
            return Some(None);
        }
        let removed = guard.remove(local);
        self.live.fetch_sub(1, Ordering::Relaxed);
        Some(removed)
    }

    /// True if the handle currently resolves.
    pub fn contains(&self, handle: Handle<T>) -> bool {
        self.with(handle, |_| ()).is_some()
    }

    /// Clone the object out (cheap for `Arc`-backed values such as event-queue
    /// references), without holding any lock afterwards.
    pub fn get_clone(&self, handle: Handle<T>) -> Option<T>
    where
        T: Clone,
    {
        self.with(handle, T::clone)
    }

    /// Total number of live objects across all shards, without taking a
    /// lock: a count that inserts and removes on other threads may change
    /// as soon as it is read.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// True if no objects are live (same snapshot caveat as [`Sharded::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Public handles of all live objects (snapshot).
    pub fn handles(&self) -> Vec<Handle<T>> {
        let mut out = Vec::new();
        for (shard, m) in self.shards.iter().enumerate() {
            let guard = m.lock();
            out.extend(
                guard
                    .handles()
                    .into_iter()
                    .map(|local| self.globalize(shard, local)),
            );
        }
        out
    }
}

impl<T> Default for Sharded<T> {
    fn default() -> Self {
        Sharded::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Sharded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sharded {{ shards: {}, len: {} }}",
            self.shards.len(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_with_remove_roundtrip() {
        let s: Sharded<u32> = Sharded::with_shards(4);
        let h = s.insert(7);
        assert_eq!(s.with(h, |v| *v), Some(7));
        assert_eq!(s.with_mut(h, |v| std::mem::replace(v, 9)), Some(7));
        assert_eq!(s.remove(h), Some(9));
        assert_eq!(s.with(h, |v| *v), None);
        assert!(s.is_empty());
    }

    #[test]
    fn round_robin_spreads_across_shards() {
        let s: Sharded<usize> = Sharded::with_shards(4);
        let handles: Vec<_> = (0..8).map(|i| s.insert(i)).collect();
        let shards: std::collections::HashSet<u32> = handles.iter().map(|h| h.slot() % 4).collect();
        assert_eq!(
            shards.len(),
            4,
            "8 round-robin inserts must hit all 4 shards"
        );
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(s.with(*h, |v| *v), Some(i));
        }
    }

    #[test]
    fn stale_handle_does_not_alias_after_reuse() {
        let s: Sharded<u32> = Sharded::with_shards(2);
        let handles: Vec<_> = (0..4).map(|i| s.insert(i)).collect();
        let stale = handles[1];
        s.remove(stale);
        // Force reuse of the same shard slot.
        for i in 0..4 {
            s.insert(100 + i);
        }
        assert_eq!(s.with(stale, |v| *v), None);
        assert_eq!(s.remove(stale), None);
    }

    #[test]
    fn raw_roundtrip_is_stable() {
        let s: Sharded<u8> = Sharded::with_shards(3);
        let h = s.insert(42);
        let h2 = Handle::<u8>::from_raw(h.to_raw());
        assert_eq!(s.with(h2, |v| *v), Some(42));
    }

    #[test]
    fn none_sentinel_never_resolves() {
        let s: Sharded<u8> = Sharded::new();
        s.insert(1);
        assert!(!s.contains(Handle::NONE));
        assert_eq!(s.remove(Handle::NONE), None);
    }

    #[test]
    fn concurrent_insert_remove_is_consistent() {
        use std::sync::Arc;
        let s: Arc<Sharded<u64>> = Arc::new(Sharded::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let h = s.insert(t * 1000 + i);
                        assert_eq!(s.with(h, |v| *v), Some(t * 1000 + i));
                        assert_eq!(s.remove(h), Some(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(s.is_empty());
    }

    /// Four threads insert and remove at once, each keeping some of what it
    /// inserted: the lock-free count equals a census of the shards after.
    #[test]
    fn len_matches_the_census_after_concurrent_churn() {
        use std::sync::Arc;
        let s: Arc<Sharded<u64>> = Arc::new(Sharded::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut kept = Vec::new();
                    for i in 0..500u64 {
                        let h = s.insert(t * 1000 + i);
                        if i % 3 == 0 {
                            kept.push(h);
                        } else {
                            assert_eq!(s.remove(h), Some(t * 1000 + i));
                            assert_eq!(s.remove(h), None);
                        }
                    }
                    // Of the 167 kept, 84 go through `remove_if`; the rest
                    // are asked and stay.
                    for (k, h) in kept.iter().enumerate() {
                        if k % 2 == 0 {
                            assert!(matches!(s.remove_if(*h, |_| true), Some(Some(_))));
                            assert!(s.remove_if(*h, |_| true).is_none());
                        } else {
                            assert!(matches!(s.remove_if(*h, |_| false), Some(None)));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let census: usize = s.shards.iter().map(|shard| shard.lock().len()).sum();
        assert_eq!(census, 4 * 83);
        assert_eq!(s.len(), census);
        assert_eq!(s.handles().len(), census);
    }
}
