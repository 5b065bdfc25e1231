//! Counting events: lightweight completion counters for triggered operations.
//!
//! A counting event is the minimal completion primitive the paper's bypass
//! argument (§5.1) calls for once whole communication *schedules* move into
//! the interface: a pair of monotone counters (success/failure) that the §4.8
//! delivery paths bump directly — no event-queue round trip, no payload, no
//! ring buffer — plus a min-heap of parked operations (a builder's
//! `submit_after`, or a chained `triggered_ct_inc`) waiting for the success
//! count to cross their thresholds.
//!
//! # Fire-before-notify invariant
//!
//! `CountingEvent::add_and_take` extracts every newly due trigger *inside*
//! the increment's critical section and holds a `firing` guard until the
//! caller reports the batch launched (`CountingEvent::fire_done`). Waiters'
//! predicate (`CountingEvent::try_check`) is
//! `success + failure >= test && firing == 0`, so a `ct_wait` that returns at
//! threshold `T` proves every trigger with threshold ≤ `T` has already fired
//! (its put payload snapshotted from the source descriptor). That is what
//! makes "wait on the terminal counter, then free the schedule's resources"
//! safe for offloaded collectives.
//!
//! Outside an increment's critical section the heap never holds a due
//! trigger, so the wait predicate needs no heap scan. Whoever changes the
//! counter rings the node's waiters once its lock is released.

use crate::triggered::TriggeredOp;
use parking_lot::Mutex;
use portals_types::{PtlError, PtlResult};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A counting event's value (spec lineage: `ptl_ct_event_t` of the later
/// Portals revisions that grew triggered operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CtValue {
    /// Operations counted as successful.
    pub success: u64,
    /// Operations counted as failed.
    pub failure: u64,
}

/// A trigger parked until the success count reaches its threshold.
#[derive(Debug)]
struct PendingTrigger {
    threshold: u64,
    /// Registration order: equal thresholds fire FIFO.
    seq: u64,
    op: TriggeredOp,
}

impl PartialEq for PendingTrigger {
    fn eq(&self, other: &Self) -> bool {
        (self.threshold, self.seq) == (other.threshold, other.seq)
    }
}
impl Eq for PendingTrigger {}
impl PartialOrd for PendingTrigger {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTrigger {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.threshold, self.seq).cmp(&(other.threshold, other.seq))
    }
}

#[derive(Debug, Default)]
struct CtState {
    success: u64,
    failure: u64,
    /// Min-heap on (threshold, seq).
    pending: BinaryHeap<Reverse<PendingTrigger>>,
    /// Batches extracted but not yet launched (fire-before-notify guard).
    firing: usize,
    next_seq: u64,
    /// Set by `ct_free`: clones held by waiters observe it and bail out.
    freed: bool,
}

/// A counting event. Cheap to clone (one `Arc`); stored in the interface's
/// sharded arena and addressed by [`crate::CtHandle`].
#[derive(Clone, Default)]
pub struct CountingEvent {
    state: Arc<Mutex<CtState>>,
}

impl std::fmt::Debug for CountingEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CountingEvent")
            .field("success", &st.success)
            .field("failure", &st.failure)
            .field("pending", &st.pending.len())
            .finish()
    }
}

impl CountingEvent {
    /// Fresh counter at zero.
    pub(crate) fn new() -> CountingEvent {
        CountingEvent::default()
    }

    /// Current value.
    pub fn get(&self) -> CtValue {
        let st = self.state.lock();
        CtValue {
            success: st.success,
            failure: st.failure,
        }
    }

    /// Triggers currently parked (diagnostics/tests).
    pub fn pending_triggers(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Bump the success count by `n` and extract every trigger that became
    /// due, in (threshold, registration) order. A non-empty batch raises the
    /// `firing` guard: the caller must launch the ops and then call
    /// `CountingEvent::fire_done`.
    pub(crate) fn add_and_take(&self, n: u64) -> Vec<TriggeredOp> {
        let mut st = self.state.lock();
        st.success += n;
        Self::take_due(&mut st)
    }

    /// Overwrite the value (spec: `PtlCTSet`) and extract triggers made due
    /// by a forward jump. Same firing contract as
    /// `CountingEvent::add_and_take`.
    pub(crate) fn set_and_take(&self, value: CtValue) -> Vec<TriggeredOp> {
        let mut st = self.state.lock();
        st.success = value.success;
        st.failure = value.failure;
        Self::take_due(&mut st)
    }

    /// Count a failure. Failures satisfy waits but never fire triggers.
    pub(crate) fn add_failure(&self, n: u64) {
        self.state.lock().failure += n;
    }

    /// Pop all due triggers; raise the firing guard if any.
    fn take_due(st: &mut CtState) -> Vec<TriggeredOp> {
        let mut due = Vec::new();
        while st
            .pending
            .peek()
            .is_some_and(|Reverse(t)| t.threshold <= st.success)
        {
            due.push(st.pending.pop().expect("peeked").0.op);
        }
        if !due.is_empty() {
            st.firing += 1;
        }
        due
    }

    /// The batch returned by `add_and_take`/`set_and_take`/`register` has been
    /// launched: drop the firing guard.
    pub(crate) fn fire_done(&self) {
        self.state.lock().firing -= 1;
    }

    /// Park `op` until the success count reaches `threshold`. If it already
    /// has, the op is handed back (with the firing guard raised) for the
    /// caller to fire in its own context, followed by
    /// `CountingEvent::fire_done`.
    pub(crate) fn register(
        &self,
        threshold: u64,
        op: TriggeredOp,
    ) -> PtlResult<Option<TriggeredOp>> {
        let mut st = self.state.lock();
        if st.freed {
            return Err(PtlError::InvalidCt);
        }
        if st.success >= threshold {
            st.firing += 1;
            return Ok(Some(op));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending
            .push(Reverse(PendingTrigger { threshold, seq, op }));
        Ok(None)
    }

    /// The wait predicate: `Some(value)` once `success + failure >= test`
    /// and no extracted trigger batch is still launching (see the module
    /// docs); [`PtlError::InvalidCt`] once the counter has been freed.
    pub(crate) fn try_check(&self, test: u64) -> PtlResult<Option<CtValue>> {
        let st = self.state.lock();
        if st.freed {
            return Err(PtlError::InvalidCt);
        }
        if st.success + st.failure >= test && st.firing == 0 {
            Ok(Some(CtValue {
                success: st.success,
                failure: st.failure,
            }))
        } else {
            Ok(None)
        }
    }

    /// Mark freed, so clones held by waiters fail their next check with
    /// `PTL_INV_CT`, and discard parked triggers, which can never fire now.
    pub(crate) fn free(&self) {
        let mut st = self.state.lock();
        st.freed = true;
        st.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_types::Handle;

    /// A distinguishable no-op trigger for counter-only tests.
    fn marker(i: u64) -> TriggeredOp {
        TriggeredOp::CtInc {
            ct: Handle::from_raw(i),
            increment: i,
        }
    }

    fn marker_id(op: &TriggeredOp) -> u64 {
        match op {
            TriggeredOp::CtInc { increment, .. } => *increment,
            _ => panic!("marker ops only"),
        }
    }

    #[test]
    fn triggers_fire_in_threshold_then_fifo_order() {
        let ct = CountingEvent::new();
        assert!(ct.register(2, marker(20)).unwrap().is_none());
        assert!(ct.register(1, marker(10)).unwrap().is_none());
        assert!(ct.register(2, marker(21)).unwrap().is_none());
        let due = ct.add_and_take(2);
        assert_eq!(
            due.iter().map(marker_id).collect::<Vec<_>>(),
            vec![10, 20, 21]
        );
        ct.fire_done();
        assert_eq!(ct.pending_triggers(), 0);
    }

    #[test]
    fn registration_at_met_threshold_hands_op_back() {
        let ct = CountingEvent::new();
        assert!(ct.add_and_take(3).is_empty());
        let op = ct.register(3, marker(1)).unwrap().expect("already due");
        assert_eq!(marker_id(&op), 1);
        // The guard blocks waiters until the caller reports the launch.
        assert_eq!(ct.try_check(3).unwrap(), None);
        ct.fire_done();
        assert_eq!(
            ct.try_check(3).unwrap(),
            Some(CtValue {
                success: 3,
                failure: 0
            })
        );
    }

    #[test]
    fn wait_observes_failures_but_triggers_do_not() {
        let ct = CountingEvent::new();
        assert!(ct.register(2, marker(1)).unwrap().is_none());
        ct.add_failure(2);
        // success + failure satisfies the wait...
        assert_eq!(
            ct.try_check(2).unwrap(),
            Some(CtValue {
                success: 0,
                failure: 2
            })
        );
        // ...but the trigger (thresholded on success) stays parked.
        assert_eq!(ct.pending_triggers(), 1);
    }

    #[test]
    fn set_jumps_forward_and_fires() {
        let ct = CountingEvent::new();
        assert!(ct.register(5, marker(1)).unwrap().is_none());
        let due = ct.set_and_take(CtValue {
            success: 7,
            failure: 0,
        });
        assert_eq!(due.len(), 1);
        ct.fire_done();
        assert_eq!(ct.get().success, 7);
    }

    #[test]
    fn freed_counter_rejects_waits_and_registrations() {
        let ct = CountingEvent::new();
        assert!(ct.register(9, marker(1)).unwrap().is_none());
        let waiters_clone = ct.clone();
        assert_eq!(waiters_clone.try_check(100), Ok(None));
        ct.free();
        assert_eq!(waiters_clone.try_check(100), Err(PtlError::InvalidCt));
        assert_eq!(
            ct.register(0, marker(2))
                .map(|op| op.map(|o| marker_id(&o))),
            Err(PtlError::InvalidCt)
        );
        assert_eq!(ct.pending_triggers(), 0);
    }

    mod properties {
        //! Satellite: interleaved increments and registrations never lose a
        //! due trigger and never fire one twice — the never-lose/never-double
        //! invariant of the per-counter heap.

        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        #[derive(Debug, Clone)]
        enum Step {
            Inc(u8),
            Register(u8),
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                (0u8..4).prop_map(Step::Inc),
                (0u8..24).prop_map(Step::Register),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

            #[test]
            fn never_lose_never_double_fire(steps in proptest::collection::vec(step(), 1..48)) {
                let ct = CountingEvent::new();
                // marker id -> threshold it was registered at
                let mut registered: BTreeMap<u64, u64> = BTreeMap::new();
                let mut fired: Vec<u64> = Vec::new();
                let mut next_id = 0u64;
                let mut count = 0u64;

                for s in steps {
                    match s {
                        Step::Inc(n) => {
                            count += n as u64;
                            let due = ct.add_and_take(n as u64);
                            let launched = !due.is_empty();
                            fired.extend(due.iter().map(marker_id));
                            if launched {
                                ct.fire_done();
                            }
                        }
                        Step::Register(t) => {
                            let id = next_id;
                            next_id += 1;
                            registered.insert(id, t as u64);
                            if let Some(op) = ct.register(t as u64, marker(id)).unwrap() {
                                fired.push(marker_id(&op));
                                ct.fire_done();
                            }
                        }
                    }
                    // Invariant: outside the critical section the heap never
                    // holds a due trigger.
                    prop_assert_eq!(ct.try_check(0).unwrap().unwrap().success, count);
                }

                // Exactly the triggers whose threshold was reached fired, each
                // exactly once; the rest are still parked.
                let mut expect: Vec<u64> = registered
                    .iter()
                    .filter(|(_, &t)| t <= count)
                    .map(|(&id, _)| id)
                    .collect();
                expect.sort_unstable();
                let mut got = fired.clone();
                got.sort_unstable();
                prop_assert_eq!(got.len(), fired.len()); // no-op, keeps clone used
                prop_assert_eq!(&got, &expect, "lost or double-fired a trigger");
                prop_assert_eq!(
                    ct.pending_triggers(),
                    registered.len() - expect.len(),
                    "parked count mismatch"
                );
            }

            #[test]
            fn concurrent_increments_fire_each_trigger_once(
                thresholds in proptest::collection::vec(1u64..40, 1..12),
                incs in proptest::collection::vec(1u64..4, 8..24),
            ) {
                let ct = CountingEvent::new();
                let total: u64 = incs.iter().sum();
                for (id, &t) in thresholds.iter().enumerate() {
                    if ct.register(t, marker(id as u64)).unwrap().is_some() {
                        // Threshold 0 can't occur (range starts at 1), but stay safe.
                        ct.fire_done();
                    }
                }
                let fired = Mutex::new(Vec::<u64>::new());
                std::thread::scope(|s| {
                    let (ct, fired) = (&ct, &fired);
                    for chunk in incs.chunks(4) {
                        s.spawn(move || {
                            for &n in chunk {
                                let due = ct.add_and_take(n);
                                if !due.is_empty() {
                                    fired.lock().extend(due.iter().map(marker_id));
                                    ct.fire_done();
                                }
                            }
                        });
                    }
                });
                let mut got = fired.into_inner();
                got.sort_unstable();
                let mut expect: Vec<u64> = thresholds
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t <= total)
                    .map(|(id, _)| id as u64)
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(got, expect, "racing increments lost or doubled a trigger");
                prop_assert_eq!(ct.get().success, total);
            }
        }
    }
}
