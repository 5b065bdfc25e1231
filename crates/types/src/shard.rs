//! One-lock handle tables.
//!
//! A [`Table<T>`] is one generational [`Arena`] behind one mutex, with a
//! capacity fixed at construction. The network interface keeps its MDs, MEs,
//! EQs and CTs in four of them. One lock per table is enough because one
//! thread per node runs the receive engine (the node's step lock), so the
//! only contention is an API call on the application's thread meeting that
//! step; the *ordering*-sensitive structures (match lists) keep their own
//! per-portal locks.
//!
//! The API is closure-scoped: no guard outlives a call, so a caller can never
//! hold a table lock across another table's, and the lock order of
//! DESIGN.md §6a stays checkable at each call site.

use crate::arena::{Arena, Handle};
use crate::error::{PtlError, PtlResult};
use parking_lot::Mutex;

/// A generational arena behind one lock, holding at most `limit` objects.
pub struct Table<T> {
    arena: Mutex<Arena<T>>,
    limit: usize,
}

impl<T> Table<T> {
    /// An empty table that holds at most `limit` live objects.
    pub fn new(limit: usize) -> Self {
        Table {
            arena: Mutex::new(Arena::new()),
            limit,
        }
    }

    /// Insert a value and return its handle, or [`PtlError::NoSpace`] if the
    /// table already holds `limit` objects. The check and the insert are one
    /// critical section, so concurrent inserts never pass the limit.
    pub fn insert(&self, value: T) -> PtlResult<Handle<T>> {
        let mut arena = self.arena.lock();
        if arena.len() >= self.limit {
            return Err(PtlError::NoSpace);
        }
        Ok(arena.insert(value))
    }

    /// Run `f` with a shared view of the object under the table lock.
    /// Returns `None` if the handle is stale or the sentinel.
    pub fn with<R>(&self, handle: Handle<T>, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.arena.lock().get(handle).map(f)
    }

    /// Run `f` with a mutable view of the object under the table lock.
    pub fn with_mut<R>(&self, handle: Handle<T>, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.arena.lock().get_mut(handle).map(f)
    }

    /// Remove and return the object, invalidating the handle.
    pub fn remove(&self, handle: Handle<T>) -> Option<T> {
        self.arena.lock().remove(handle)
    }

    /// Run `f` with a mutable view of the object and remove it if `f`
    /// returns true, all under the table lock. `None`: the handle is stale
    /// or the sentinel; `Some(None)`: `f` kept the object.
    pub fn remove_if(
        &self,
        handle: Handle<T>,
        f: impl FnOnce(&mut T) -> bool,
    ) -> Option<Option<T>> {
        let mut arena = self.arena.lock();
        if !f(arena.get_mut(handle)?) {
            return Some(None);
        }
        Some(arena.remove(handle))
    }

    /// True if the handle currently resolves.
    pub fn contains(&self, handle: Handle<T>) -> bool {
        self.arena.lock().contains(handle)
    }

    /// Clone the object out (cheap for `Arc`-backed values such as event-queue
    /// references), without holding the lock afterwards.
    pub fn get_clone(&self, handle: Handle<T>) -> Option<T>
    where
        T: Clone,
    {
        self.with(handle, T::clone)
    }

    /// Number of live objects: a snapshot that inserts and removes on other
    /// threads may change as soon as it is read.
    pub fn len(&self) -> usize {
        self.arena.lock().len()
    }

    /// True if no objects are live (same snapshot caveat as [`Table::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Handles of all live objects (snapshot).
    pub fn handles(&self) -> Vec<Handle<T>> {
        self.arena.lock().handles()
    }
}

impl<T> Default for Table<T> {
    /// An empty table with no limit.
    fn default() -> Self {
        Table::new(usize::MAX)
    }
}

impl<T> std::fmt::Debug for Table<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("len", &self.len())
            .field("limit", &self.limit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_with_remove_roundtrip() {
        let s: Table<u32> = Table::default();
        let h = s.insert(7).unwrap();
        assert_eq!(s.with(h, |v| *v), Some(7));
        assert_eq!(s.with_mut(h, |v| std::mem::replace(v, 9)), Some(7));
        assert_eq!(s.remove(h), Some(9));
        assert_eq!(s.with(h, |v| *v), None);
        assert!(s.is_empty());
    }

    #[test]
    fn stale_handle_does_not_alias_after_reuse() {
        let s: Table<u32> = Table::default();
        let handles: Vec<_> = (0..4).map(|i| s.insert(i).unwrap()).collect();
        let stale = handles[1];
        s.remove(stale);
        // Force reuse of the same slot.
        for i in 0..4 {
            s.insert(100 + i).unwrap();
        }
        assert_eq!(s.with(stale, |v| *v), None);
        assert_eq!(s.remove(stale), None);
    }

    #[test]
    fn raw_roundtrip_is_stable() {
        let s: Table<u8> = Table::default();
        let h = s.insert(42).unwrap();
        let h2 = Handle::<u8>::from_raw(h.to_raw());
        assert_eq!(s.with(h2, |v| *v), Some(42));
    }

    #[test]
    fn none_sentinel_never_resolves() {
        let s: Table<u8> = Table::default();
        s.insert(1).unwrap();
        assert!(!s.contains(Handle::NONE));
        assert_eq!(s.remove(Handle::NONE), None);
    }

    #[test]
    fn concurrent_insert_remove_is_consistent() {
        let s: Arc<Table<u64>> = Arc::new(Table::default());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let h = s.insert(t * 1000 + i).unwrap();
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
    /// inserted: the count equals a census of the arena after.
    #[test]
    fn len_matches_the_census_after_concurrent_churn() {
        let s: Arc<Table<u64>> = Arc::new(Table::default());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut kept = Vec::new();
                    for i in 0..500u64 {
                        let h = s.insert(t * 1000 + i).unwrap();
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
        let census = s.arena.lock().iter().count();
        assert_eq!(census, 4 * 83);
        assert_eq!(s.len(), census);
        assert_eq!(s.handles().len(), census);
    }

    /// Four threads race to fill a table of 10 from empty: exactly 10
    /// inserts succeed, and every other one reports `NoSpace`.
    #[test]
    fn concurrent_inserts_never_pass_the_limit() {
        let s: Arc<Table<u64>> = Arc::new(Table::new(10));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (0..10u64)
                        .filter(|i| match s.insert(t * 100 + i) {
                            Ok(_) => true,
                            Err(e) => {
                                assert_eq!(e, PtlError::NoSpace);
                                false
                            }
                        })
                        .count()
                })
            })
            .collect();
        let placed: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(placed, 10);
        assert_eq!(s.len(), 10);
    }
}
