//! Generational arenas and typed handles.
//!
//! The Portals API hands out *handles* to memory descriptors, match entries and
//! event queues. A handle must become observably stale when its object is
//! unlinked/freed — the paper's receive rules (§4.8) hinge on this: an ack or
//! reply that names a since-freed event queue or memory descriptor is silently
//! dropped, not misdelivered to a recycled object.
//!
//! [`Arena`] is a generational slot arena: every slot carries a generation counter
//! bumped on removal, and a [`Handle`] embeds the generation it was issued with,
//! so lookups with stale handles fail deterministically.

use std::fmt;
use std::marker::PhantomData;

/// A typed, generational handle into an [`Arena<T>`].
///
/// `Handle<T>` is `Copy` and 8 bytes; it is what wire headers carry for the
/// "memory desc" and "event queue" fields of Tables 1–4 (serialized via
/// [`Handle::to_raw`]).
pub struct Handle<T> {
    index: u32,
    generation: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    /// A handle value that no arena will ever issue; used as the wire encoding of
    /// "no ack requested" / "no event queue".
    pub const NONE: Handle<T> = Handle {
        index: u32::MAX,
        generation: u32::MAX,
        _marker: PhantomData,
    };

    /// True if this is the sentinel [`Handle::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.index == u32::MAX && self.generation == u32::MAX
    }

    /// Pack into a `u64` for wire transmission. The value is only meaningful to
    /// the issuing process (the paper notes the target cannot interpret the
    /// initiator's memory-descriptor handle; it merely echoes it).
    #[inline]
    pub fn to_raw(self) -> u64 {
        ((self.generation as u64) << 32) | self.index as u64
    }

    /// Unpack a wire value produced by [`Handle::to_raw`].
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        Handle {
            index: raw as u32,
            generation: (raw >> 32) as u32,
            _marker: PhantomData,
        }
    }

    /// Slot index (diagnostics only).
    #[inline]
    pub fn slot(self) -> u32 {
        self.index
    }

    /// Generation counter this handle was issued with.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}

impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.generation == other.generation
    }
}
impl<T> Eq for Handle<T> {}

impl<T> std::hash::Hash for Handle<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_raw().hash(state);
    }
}

impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "Handle(NONE)")
        } else {
            write!(f, "Handle({}@g{})", self.index, self.generation)
        }
    }
}

enum Slot<T> {
    Occupied {
        generation: u32,
        value: T,
    },
    Vacant {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A generational slot arena.
///
/// Insertion reuses vacated slots (free-list) but bumps the generation so stale
/// handles cannot alias new objects. All operations are O(1); iteration is O(capacity).
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// An empty arena with room for `cap` objects before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no objects are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its handle.
    pub fn insert(&mut self, value: T) -> Handle<T> {
        self.len += 1;
        match self.free_head {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                let generation = match *slot {
                    Slot::Vacant {
                        generation,
                        next_free,
                    } => {
                        self.free_head = next_free;
                        generation
                    }
                    Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                *slot = Slot::Occupied { generation, value };
                Handle {
                    index,
                    generation,
                    _marker: PhantomData,
                }
            }
            None => {
                let index = self.slots.len() as u32;
                assert!(index < u32::MAX, "arena exhausted");
                self.slots.push(Slot::Occupied {
                    generation: 0,
                    value,
                });
                Handle {
                    index,
                    generation: 0,
                    _marker: PhantomData,
                }
            }
        }
    }

    /// Look up a handle; `None` if it was never issued here or has been removed.
    #[inline]
    pub fn get(&self, handle: Handle<T>) -> Option<&T> {
        match self.slots.get(handle.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == handle.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, handle: Handle<T>) -> Option<&mut T> {
        match self.slots.get_mut(handle.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == handle.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// True if the handle currently resolves.
    #[inline]
    pub fn contains(&self, handle: Handle<T>) -> bool {
        self.get(handle).is_some()
    }

    /// Remove and return the object, invalidating the handle (and any copies).
    pub fn remove(&mut self, handle: Handle<T>) -> Option<T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == handle.generation => {
                let next_gen = generation.wrapping_add(1);
                let old = std::mem::replace(
                    slot,
                    Slot::Vacant {
                        generation: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(handle.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Vacant { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Iterate over `(handle, &value)` pairs of live objects.
    pub fn iter(&self) -> impl Iterator<Item = (Handle<T>, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    Handle {
                        index: i as u32,
                        generation: *generation,
                        _marker: PhantomData,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }

    /// Iterate over handles of live objects (avoids borrowing values).
    pub fn handles(&self) -> Vec<Handle<T>> {
        self.iter().map(|(h, _)| h).collect()
    }

    /// Remove every object, invalidating all handles.
    pub fn clear(&mut self) {
        let handles: Vec<_> = self.handles();
        for h in handles {
            self.remove(h);
        }
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena: Arena<String> = Arena::new();
        let h = arena.insert("hello".to_string());
        assert_eq!(arena.get(h).map(String::as_str), Some("hello"));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.remove(h), Some("hello".to_string()));
        assert!(arena.is_empty());
        assert_eq!(arena.get(h), None);
    }

    #[test]
    fn stale_handle_does_not_alias_recycled_slot() {
        let mut arena: Arena<u32> = Arena::new();
        let h1 = arena.insert(1);
        arena.remove(h1);
        let h2 = arena.insert(2);
        // Slot is reused but generation differs.
        assert_eq!(h1.slot(), h2.slot());
        assert_ne!(h1, h2);
        assert_eq!(arena.get(h1), None);
        assert_eq!(arena.get(h2), Some(&2));
        // Removing with the stale handle must not free the new object.
        assert_eq!(arena.remove(h1), None);
        assert_eq!(arena.get(h2), Some(&2));
    }

    #[test]
    fn none_handle_never_resolves() {
        let mut arena: Arena<u8> = Arena::new();
        for i in 0..100 {
            arena.insert(i);
        }
        assert!(Handle::<u8>::NONE.is_none());
        assert_eq!(arena.get(Handle::NONE), None);
    }

    #[test]
    fn raw_roundtrip_preserves_identity() {
        let mut arena: Arena<u8> = Arena::new();
        let h = arena.insert(42);
        let h2 = Handle::<u8>::from_raw(h.to_raw());
        assert_eq!(h, h2);
        assert_eq!(arena.get(h2), Some(&42));
        assert_eq!(
            Handle::<u8>::from_raw(Handle::<u8>::NONE.to_raw()),
            Handle::NONE
        );
    }

    #[test]
    fn free_list_reuses_in_lifo_order() {
        let mut arena: Arena<u32> = Arena::new();
        let hs: Vec<_> = (0..4).map(|i| arena.insert(i)).collect();
        arena.remove(hs[1]);
        arena.remove(hs[3]);
        let a = arena.insert(10);
        let b = arena.insert(11);
        assert_eq!(a.slot(), 3); // last freed, first reused
        assert_eq!(b.slot(), 1);
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn iter_visits_only_live() {
        let mut arena: Arena<u32> = Arena::new();
        let hs: Vec<_> = (0..5).map(|i| arena.insert(i)).collect();
        arena.remove(hs[2]);
        let values: Vec<u32> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![0, 1, 3, 4]);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut arena: Arena<u32> = Arena::new();
        let hs: Vec<_> = (0..5).map(|i| arena.insert(i)).collect();
        arena.clear();
        assert!(arena.is_empty());
        for h in hs {
            assert_eq!(arena.get(h), None);
        }
    }

    #[test]
    fn many_cycles_do_not_confuse_generations() {
        let mut arena: Arena<usize> = Arena::new();
        let mut stale = Vec::new();
        for round in 0..50 {
            let h = arena.insert(round);
            assert_eq!(arena.get(h), Some(&round));
            arena.remove(h);
            stale.push(h);
        }
        let live = arena.insert(999);
        for h in stale {
            assert_eq!(arena.get(h), None, "stale handle resolved");
        }
        assert_eq!(arena.get(live), Some(&999));
    }
}
