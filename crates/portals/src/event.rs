//! Events and event queues.
//!
//! §4.4: "Each memory descriptor identifies a memory region and an optional
//! event queue ... the event queue is used to record information about these
//! operations." §4.8: "Event queues are circular, which prevents indexing out
//! of bounds. The higher level protocol needs to ensure that there are enough
//! event slots and the rate of event consumption is able to keep up with the
//! rate of event production to avoid missing events."
//!
//! The queue here is a fixed-capacity ring with monotonic read/write counters:
//! the producer never blocks (it overwrites the oldest unread slot), and a
//! consumer that fell behind gets [`PtlError::EqDropped`] once, then resumes
//! from the oldest surviving event — the spec's `PTL_EQ_DROPPED` behaviour.
//! `PtlEQWait` is [`NetworkInterface::eq_wait`](crate::NetworkInterface::eq_wait):
//! it parks on the node's doorbell, which the engine rings after each push.

use crate::md::Md;
use parking_lot::Mutex;
use portals_types::{Handle, MatchBits, ProcessId, PtlError, PtlResult};
use std::sync::Arc;

/// What happened (spec: `ptl_event_kind_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Target side: a put landed in one of this process's memory descriptors.
    Put,
    /// Target side: a get read from one of this process's memory descriptors.
    Get,
    /// Target side: an atomic read-modify-write landed in one of this
    /// process's memory descriptors (extension: Portals 4 lineage,
    /// `PTL_EVENT_ATOMIC`).
    Atomic,
    /// Target side: a fetching atomic read-modify-write landed and its reply
    /// (the prior value) was sent back.
    FetchAtomic,
    /// Initiator side: the reply to an earlier get arrived.
    Reply,
    /// Initiator side: the acknowledgment to an earlier put arrived.
    Ack,
    /// Initiator side: an outgoing put/get request left the interface.
    Sent,
    /// A memory descriptor reached threshold 0 and was unlinked. (Extension:
    /// Portals 3.0 signalled this implicitly; later revisions added the event,
    /// and the MPI layer uses it to recycle unexpected-message blocks.)
    Unlink,
    /// Flow control disabled a portal table entry after resource exhaustion
    /// (extension: Portals 4 lineage, `PTL_EVENT_PT_DISABLED`). Delivered to
    /// the flow-control event queue registered for the portal index; the owner
    /// must drain, re-post resources, and call `pt_enable` to resume.
    FlowCtrl,
}

impl EventKind {
    /// Stable lowercase name, for lifecycle traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Put => "put",
            EventKind::Get => "get",
            EventKind::Atomic => "atomic",
            EventKind::FetchAtomic => "fetch_atomic",
            EventKind::Reply => "reply",
            EventKind::Ack => "ack",
            EventKind::Sent => "sent",
            EventKind::Unlink => "unlink",
            EventKind::FlowCtrl => "flowctrl",
        }
    }
}

/// One event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The remote process involved: for Put/Get the request's initiator, for
    /// Ack/Reply the responder, for Sent/Unlink this process itself.
    pub initiator: ProcessId,
    /// Portal table index the operation addressed.
    pub portal_index: u32,
    /// Match bits the operation carried.
    pub match_bits: MatchBits,
    /// Requested length.
    pub rlength: u64,
    /// Manipulated length — bytes actually moved (§4.7).
    pub mlength: u64,
    /// Offset within the memory region that was used.
    pub offset: u64,
    /// The local memory descriptor involved.
    pub md: Handle<Md>,
}

struct Ring {
    slots: Vec<Option<Event>>,
    /// Total events ever written.
    write: u64,
    /// Total events ever consumed (or skipped by overflow resync).
    read: u64,
    /// Set when the writer lapped the reader; cleared when reported.
    overflowed: bool,
    /// Deliveries that have committed against a descriptor logging here but
    /// not yet pushed their event (see [`EventQueue::owe`]).
    owed: u32,
}

/// A circular event queue (spec: `ptl_handle_eq_t` target).
///
/// Shared between the application (consumer) and the NIC engine (producer)
/// under one lock; neither side ever blocks on it.
pub struct EventQueue {
    ring: Arc<Mutex<Ring>>,
}

impl EventQueue {
    /// A queue with room for `capacity` unconsumed events.
    pub fn new(capacity: usize) -> EventQueue {
        assert!(capacity > 0, "event queue capacity must be positive");
        EventQueue {
            ring: Arc::new(Mutex::new(Ring {
                slots: vec![None; capacity],
                write: 0,
                read: 0,
                overflowed: false,
                owed: 0,
            })),
        }
    }

    /// A second consumer-side reference to the same queue (used by blocking
    /// API calls so they can wait without holding the arena's shard lock).
    pub(crate) fn clone_ref(&self) -> EventQueue {
        EventQueue {
            ring: Arc::clone(&self.ring),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.lock().slots.len()
    }

    /// Unconsumed events currently queued.
    pub fn len(&self) -> usize {
        let ring = self.ring.lock();
        (ring.write - ring.read) as usize
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A delivery has committed against a descriptor that logs here and will
    /// push its event once its payload has landed. Called under the portal
    /// lock, paired with exactly one [`EventQueue::settle`].
    pub(crate) fn owe(&self) {
        self.ring.lock().owed += 1;
    }

    /// The delivery that called [`EventQueue::owe`] has pushed its events (or
    /// was aborted and never will).
    pub(crate) fn settle(&self) {
        let mut ring = self.ring.lock();
        ring.owed = ring.owed.saturating_sub(1);
    }

    /// True if no event is pending *and* none is owed: nothing has arrived
    /// that the consumer has not seen. `PtlMDUpdate`'s test — taken under the
    /// portal lock, it is atomic with message arrival even though a put's
    /// event is pushed after that lock is released.
    pub(crate) fn is_quiet(&self) -> bool {
        let ring = self.ring.lock();
        ring.write == ring.read && ring.owed == 0
    }

    /// True if one more push would overwrite (§4.8 uses this for replies:
    /// "if the event queue in the memory descriptor has no space").
    pub fn is_full(&self) -> bool {
        let ring = self.ring.lock();
        ring.write - ring.read >= ring.slots.len() as u64
    }

    /// True if `n` more pushes would all land without overwriting an unread
    /// event. Flow control uses this *before* moving data (§4.8 validates
    /// before delivery side effects) so a full queue trips the portal instead
    /// of silently losing events.
    pub fn has_room_for(&self, n: usize) -> bool {
        let ring = self.ring.lock();
        let used = ring.write - ring.read;
        used + n as u64 <= ring.slots.len() as u64
    }

    /// Producer push. Never blocks; overwrites the oldest unread event when
    /// full (circularity, §4.8). Returns false if an unread event was lost.
    /// Wakes nobody: the engine rings the node's waiters once the push is
    /// visible.
    pub fn push(&self, event: Event) -> bool {
        let mut ring = self.ring.lock();
        let cap = ring.slots.len() as u64;
        let idx = (ring.write % cap) as usize;
        ring.slots[idx] = Some(event);
        ring.write += 1;
        if ring.write - ring.read > cap {
            // Lapped the reader: the oldest unread event is gone.
            ring.read = ring.write - cap;
            ring.overflowed = true;
            return false;
        }
        true
    }

    /// Non-blocking consume (spec: `PtlEQGet`).
    pub fn try_get(&self) -> PtlResult<Event> {
        let mut ring = self.ring.lock();
        if ring.overflowed {
            ring.overflowed = false;
            return Err(PtlError::EqDropped);
        }
        if ring.read == ring.write {
            return Err(PtlError::EqEmpty);
        }
        let cap = ring.slots.len() as u64;
        let idx = (ring.read % cap) as usize;
        let event = ring.slots[idx].take().expect("ring slot populated");
        ring.read += 1;
        Ok(event)
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventQueue(len={}, cap={})", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_types::MatchBits;

    fn ev(n: u64) -> Event {
        Event {
            kind: EventKind::Put,
            initiator: ProcessId::new(0, 0),
            portal_index: 0,
            match_bits: MatchBits::new(n),
            rlength: n,
            mlength: n,
            offset: 0,
            md: Handle::NONE,
        }
    }

    #[test]
    fn fifo_order() {
        let eq = EventQueue::new(8);
        for i in 0..5 {
            assert!(eq.push(ev(i)));
        }
        for i in 0..5 {
            assert_eq!(eq.try_get().unwrap().rlength, i);
        }
        assert_eq!(eq.try_get(), Err(PtlError::EqEmpty));
    }

    #[test]
    fn circular_overflow_reports_dropped_once() {
        let eq = EventQueue::new(4);
        for i in 0..6 {
            let clean = eq.push(ev(i));
            assert_eq!(clean, i < 4, "push {i}");
        }
        // Two oldest events (0,1) were overwritten.
        assert_eq!(eq.try_get(), Err(PtlError::EqDropped));
        // After the report, consumption resumes at the oldest survivor.
        assert_eq!(eq.try_get().unwrap().rlength, 2);
        assert_eq!(eq.try_get().unwrap().rlength, 3);
        assert_eq!(eq.try_get().unwrap().rlength, 4);
        assert_eq!(eq.try_get().unwrap().rlength, 5);
        assert_eq!(eq.try_get(), Err(PtlError::EqEmpty));
    }

    #[test]
    fn is_full_tracks_occupancy() {
        let eq = EventQueue::new(2);
        assert!(!eq.is_full());
        eq.push(ev(0));
        assert!(!eq.is_full());
        eq.push(ev(1));
        assert!(eq.is_full());
        eq.try_get().unwrap();
        assert!(!eq.is_full());
    }

    #[test]
    fn has_room_for_counts_free_slots() {
        let eq = EventQueue::new(3);
        assert!(eq.has_room_for(3));
        assert!(!eq.has_room_for(4));
        eq.push(ev(0));
        assert!(eq.has_room_for(2));
        assert!(!eq.has_room_for(3));
        eq.push(ev(1));
        eq.push(ev(2));
        assert!(eq.has_room_for(0));
        assert!(!eq.has_room_for(1));
        eq.try_get().unwrap();
        assert!(eq.has_room_for(1));
    }

    #[test]
    fn len_and_capacity() {
        let eq = EventQueue::new(3);
        assert_eq!(eq.capacity(), 3);
        assert!(eq.is_empty());
        eq.push(ev(0));
        eq.push(ev(1));
        assert_eq!(eq.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = EventQueue::new(0);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let eq = std::sync::Arc::new(EventQueue::new(4096));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let eq = std::sync::Arc::new(eq.clone_ref());
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        assert!(eq.push(ev(p * 1000 + i)), "no overflow expected");
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        while let Ok(e) = eq.try_get() {
            assert!(seen.insert(e.rlength), "duplicate event {:?}", e.rlength);
        }
        assert_eq!(seen.len(), 4000);
    }

    #[test]
    fn concurrent_producer_consumer_stream() {
        let eq = std::sync::Arc::new(EventQueue::new(64));
        let producer = {
            let eq = std::sync::Arc::new(eq.clone_ref());
            std::thread::spawn(move || {
                for i in 0..5000u64 {
                    // Pace pushes so the small ring never laps the consumer.
                    while eq.len() > 32 {
                        std::thread::yield_now();
                    }
                    eq.push(ev(i));
                }
            })
        };
        let mut next = 0u64;
        while next < 5000 {
            match eq.try_get() {
                Ok(e) => {
                    assert_eq!(e.rlength, next, "stream stays ordered");
                    next += 1;
                }
                Err(PtlError::EqEmpty) => std::thread::yield_now(),
                Err(e) => panic!("consumer error: {e}"),
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn heavy_overflow_resyncs_to_survivors() {
        let eq = EventQueue::new(2);
        for i in 0..100 {
            eq.push(ev(i));
        }
        assert_eq!(eq.try_get(), Err(PtlError::EqDropped));
        assert_eq!(eq.try_get().unwrap().rlength, 98);
        assert_eq!(eq.try_get().unwrap().rlength, 99);
    }
}
