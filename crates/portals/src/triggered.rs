//! Triggered operations: data movement fired by counting events.
//!
//! A triggered put, get or atomic is an ordinary initiator operation whose
//! *launch* is deferred until a [`crate::ct::CountingEvent`] reaches a
//! threshold: its builder's `submit_after` instead of `submit`. The schedule
//! is entirely **initiator-local** — nothing new crosses the wire — which
//! keeps the paper's "minimal state in the interface" property: the remote
//! side sees plain puts, gets and atomics (the four §4.6 message types plus
//! the atomic, the fifth).
//!
//! Firing context: the §4.8 delivery paths call `ct_increment` from the
//! engine — the NIC thread under application bypass — so a chain
//! `recv → counter → triggered put` runs with zero host involvement, which is
//! the §5.1 bypass claim extended from single messages to whole collective
//! schedules. Host-side registrations whose threshold is already met fire in
//! the registering thread instead.
//!
//! Lock discipline: ops are extracted from the counter under its lock but
//! fired *after* it is released, and the engine drops the portal-list lock
//! before incrementing; firing re-enters the normal launch path and may take
//! arena shard locks and send on the endpoint, none of which nest inside a
//! counter or portal lock. A `CtInc` trigger may recurse into another
//! counter; chains terminate because counters are monotone and each heap
//! only shrinks while firing.

use crate::builder::Op;
use crate::ni::{self, NiCore};
use crate::node::NodeShared;
use crate::CtHandle;
use portals_obs::{Layer, Stage, TraceEvent};

/// An operation parked on a counting event until its threshold is reached.
#[derive(Debug, Clone)]
pub(crate) enum TriggeredOp {
    /// A put, get or atomic, exactly as its builder's `submit` would launch
    /// it. The source descriptor's bytes are read at *fire* time, not at
    /// registration.
    Launch(Op),
    /// Increment another counting event — the chaining primitive.
    CtInc {
        /// Counter to bump.
        ct: CtHandle,
        /// Success increment.
        increment: u64,
    },
}

/// Launch one extracted trigger. Never called holding a counter or portal
/// lock (see module docs).
pub(crate) fn fire(core: &NiCore, node: &NodeShared, op: TriggeredOp) {
    let result = match op {
        TriggeredOp::Launch(op) => ni::launch(core, node, op),
        TriggeredOp::CtInc { ct, increment } => {
            // A chained increment cannot fail, so it is counted before it
            // lands: whoever reads the chained counter's new value and then
            // `triggered_fired` finds this fire already there.
            core.counters.triggered_fired.inc();
            ct_increment(core, node, ct, increment);
            return;
        }
    };
    let counter = match result {
        Ok(()) => &core.counters.triggered_fired,
        Err(_) => &core.counters.triggered_failed,
    };
    counter.inc();
}

/// Count `n` successes on `h`, fire every trigger that becomes due, in
/// (threshold, registration) order, and then ring the waiters. Returns false
/// if the handle is stale.
pub(crate) fn ct_increment(core: &NiCore, node: &NodeShared, h: CtHandle, n: u64) -> bool {
    let Some(ct) = core.state.cts.get_clone(h) else {
        return false;
    };
    let due = ct.add_and_take(n);
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Ct)
            .node(core.id.nid.0)
            .bytes(n)
            .detail(if due.is_empty() { "" } else { "fired" })
    });
    if !due.is_empty() {
        for op in due {
            fire(core, node, op);
        }
        ct.fire_done();
    }
    core.completed();
    true
}
