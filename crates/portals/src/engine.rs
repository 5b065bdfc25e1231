//! The receive engine: §4.8 of the paper, executed either by the node's
//! NIC thread (application bypass) or inside API calls (host driven).
//!
//! Processing order for put/get/atomic requests (`admit`, written once):
//!
//! 1. portal index validity;
//! 2. access control (cookie → entry → process id and portal index match);
//! 3. address translation (Fig. 4): walk the match list in order; for each
//!    entry whose source filter and match criteria pass, consult only the
//!    *first* memory descriptor — if it accepts, perform the operation,
//!    handle unlinks, log the event; if it rejects, continue down the list;
//! 4. if the list is exhausted the message is discarded and the dropped
//!    message count incremented.
//!
//! Translation asks the match list's index ([`MatchList::lookup`]) for the
//! next entry the walk would try and consults its first descriptor; a
//! rejection asks again after that entry. The reference `walk` is kept only
//! as the oracle the index is tested and timed against.
//!
//! A put or a reply is received by one sequence whatever shape it arrived in
//! — **begin** (every check and state transition, at header time), **write**
//! (payload bytes scattered at their offsets, once per fragment), **finish**
//! (events, ack, counting event). The engine holds the target portal's list
//! lock for the *begin* of a put and for the whole of a get or an atomic; see
//! the section comment above `PutSink` for what that lock does and does not
//! cover. Acks and replies "bypass the access control checks and the
//! translation step" and touch no portal: an ack needs only its event queue
//! to still exist; a reply needs its memory descriptor to exist and its event
//! queue (if any) to have space.

use crate::counters::DropReason;
use crate::event::{Event, EventKind};
use crate::md::{MdMemory, MdVerdict, ReqOp};
use crate::ni::{NiCore, NiState, NACK_MLENGTH};
use crate::node::Step;
use crate::table::{MatchList, Unexpected};
use crate::{CtHandle, EqHandle, MdHandle, MeHandle};
use parking_lot::MutexGuard;
use portals_obs::{Layer, Stage, TraceEvent};
use portals_types::{Gather, Handle, MatchBits, ProcessId};
use portals_wire::{
    Ack, AtomicOp, AtomicRequest, GetRequest, PortalsMessage, Reply, RequestHeader, ResponseHeader,
    RAW_HANDLE_NONE,
};

/// A successful Fig. 4 translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Accepted {
    pub me: MeHandle,
    pub md: MdHandle,
    /// Manipulated length (§4.7).
    pub mlength: u64,
    /// Offset within the region actually used.
    pub offset: u64,
}

/// Evaluate one entry's first memory descriptor against the request.
/// `None`: the entry or descriptor is gone or the descriptor rejected —
/// translation continues down the list either way.
fn try_entry(
    state: &NiState,
    me_h: MeHandle,
    op: ReqOp,
    offset: u64,
    rlength: u64,
) -> Option<Accepted> {
    let md_h = state.mes.with(me_h, |me| me.first_md())??;
    match state
        .mds
        .with(md_h, |md| md.evaluate(op, rlength, offset))?
    {
        MdVerdict::Accept { mlength, offset } => Some(Accepted {
            me: me_h,
            md: md_h,
            mlength,
            offset,
        }),
        MdVerdict::Reject(_) => None,
    }
}

/// The Fig. 4 reference walk over an already locked match list: the oracle
/// `translate` is tested and timed against.
pub(crate) fn walk(
    list: &MatchList,
    state: &NiState,
    op: ReqOp,
    initiator: ProcessId,
    match_bits: MatchBits,
    offset: u64,
    rlength: u64,
) -> Result<Accepted, DropReason> {
    for me_h in list.iter() {
        let matched = state.mes.with(me_h, |me| me.matches(initiator, match_bits));
        if matched != Some(true) {
            continue;
        }
        // Only the first MD of the list is considered (Fig. 4).
        if let Some(accepted) = try_entry(state, me_h, op, offset, rlength) {
            return Ok(accepted);
        }
    }
    Err(DropReason::NoMatch)
}

/// Translation over a locked list: the walk's answer, taken from the index
/// one candidate at a time.
pub(crate) fn translate(
    list: &MatchList,
    state: &NiState,
    op: ReqOp,
    initiator: ProcessId,
    match_bits: MatchBits,
    offset: u64,
    rlength: u64,
) -> Result<Accepted, DropReason> {
    let mut after = None;
    while let Some((rank, me_h)) = list.lookup(initiator, match_bits, after) {
        debug_assert!(after < Some(rank), "the index went backwards");
        if let Some(accepted) = try_entry(state, me_h, op, offset, rlength) {
            return Ok(accepted);
        }
        after = Some(rank);
    }
    Err(DropReason::NoMatch)
}

/// Record a §4.8 drop: bump the per-reason counter and emit the lifecycle
/// trace event, so every discarded message is attributed exactly once in both
/// views.
fn drop_msg(core: &NiCore, reason: DropReason) {
    core.counters.drop_message(reason);
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Drop)
            .node(core.id.nid.0)
            .detail(reason.slug())
    });
}

/// The events an accepted operation's commit produced, all bound for the
/// matched descriptor's queue.
struct Committed {
    eq: Option<EqHandle>,
    /// The operation's own event.
    event: Event,
    /// The auto-unlink the commit performed, if it did.
    unlink: Option<Event>,
}

/// Post-acceptance bookkeeping: consume threshold, auto-unlink the MD and
/// possibly its match entry (Fig. 4), and build the operation's events. Runs
/// under the portal's list lock (`list` is the locked list the entry lives
/// on). `None` only if the descriptor vanished between acceptance and commit,
/// in which case the caller must not count the operation as completed.
fn commit(
    core: &NiCore,
    list: &mut MatchList,
    accepted: Accepted,
    h: &RequestHeader,
    kind: EventKind,
) -> Option<Committed> {
    let state = &core.state;
    let (unlink_md, eq) = state.mds.with_mut(accepted.md, |md| {
        (md.commit(accepted.mlength, accepted.offset), md.eq)
    })?;
    let event = Event {
        kind,
        initiator: h.initiator,
        portal_index: h.portal_index,
        match_bits: h.match_bits,
        rlength: h.length,
        mlength: accepted.mlength,
        offset: accepted.offset,
        md: accepted.md,
    };
    let mut unlink = None;
    if unlink_md && state.mds.with(accepted.md, |m| m.pending_ops) == Some(0) {
        state.mds.remove(accepted.md);
        unlink = Some(Event {
            kind: EventKind::Unlink,
            initiator: core.id,
            ..event
        });
        let now_empty = state.mes.with_mut(accepted.me, |me| {
            me.remove_md(accepted.md);
            me.md_list.is_empty() && me.unlink_when_empty
        });
        if now_empty == Some(true) {
            state.mes.remove(accepted.me);
            list.remove(accepted.me);
        }
    }
    Some(Committed { eq, event, unlink })
}

impl Committed {
    /// Make the commit's events visible: the operation's own (unless the
    /// operation was aborted after committing), then the unlink.
    fn fire(&self, core: &NiCore, step: &mut Step, completed: bool) {
        let own = completed.then_some(self.event);
        for event in own.into_iter().chain(self.unlink) {
            push_event(core, step, self.eq, event);
        }
    }
}

fn push_event(core: &NiCore, step: &mut Step, eq: Option<EqHandle>, event: Event) {
    if let Some(eqh) = eq {
        core.push_event(step, eqh, event);
        core.obs.tracer.emit(|| {
            TraceEvent::new(Layer::Portals, Stage::Event)
                .node(core.id.nid.0)
                .bytes(event.mlength)
                .detail(event.kind.name())
        });
    }
}

/// Latch `portal_index` disabled (exactly once per trip, however many
/// deliveries race) and tell the owner by pushing [`EventKind::FlowCtrl`] to
/// the portal's registered flow event queue. Called with the portal's list
/// lock held, which is what serializes the trip against `pt_disable`'s
/// quiescence guarantee.
fn trip_flow_control(core: &NiCore, step: &mut Step, h: &RequestHeader) {
    if core.state.table.try_disable(h.portal_index) {
        let flow_eq = core.state.table.flow_eq(h.portal_index);
        push_event(
            core,
            step,
            flow_eq,
            Event {
                kind: EventKind::FlowCtrl,
                initiator: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                rlength: h.length,
                mlength: 0,
                offset: 0,
                md: Handle::NONE,
            },
        );
    }
}

/// Where a request's acknowledgment goes — the initiator's `(md, eq)` raw
/// handles — when it asked for one.
pub(crate) type AckTo = Option<(u64, u64)>;

/// The ack channel a request's wire fields name, if any.
pub(crate) fn ack_to(ack_md: u64, ack_eq: u64) -> AckTo {
    (ack_md != RAW_HANDLE_NONE).then_some((ack_md, ack_eq))
}

/// The header every response to `h` carries: ids swapped (§4.7), the
/// request's addressing echoed, and what was done where.
fn response(
    h: &RequestHeader,
    (md_handle, eq_handle): (u64, u64),
    offset: u64,
    mlength: u64,
) -> ResponseHeader {
    ResponseHeader {
        initiator: h.target,
        target: h.initiator,
        portal_index: h.portal_index,
        match_bits: h.match_bits,
        offset,
        md_handle,
        eq_handle,
        requested_length: h.length,
        manipulated_length: mlength,
    }
}

/// Acknowledge `h` to its initiator: `mlength` bytes landed at `offset` — or,
/// with `mlength == NACK_MLENGTH`, nothing landed and the initiator should
/// re-issue. Acks after the step's first to the same node wait for the
/// step's batch ([`Step::send_ack`]).
fn send_ack(step: &mut Step, h: &RequestHeader, to: (u64, u64), offset: u64, mlength: u64) {
    let ack = Ack {
        header: response(h, to, offset, mlength),
    };
    step.send_ack(h.initiator.nid, ack);
}

/// §4.8 steps 1–3 for a put, get or atomic request (`kind` says which):
/// portal validity, flow-control state, access control, translation, and the
/// flow-control resource checks. Returns the portal's locked match list and
/// the accepted translation, or `None` with the drop already counted — and,
/// on a flow-disabled or just-tripped portal, nacked through `ack` so the
/// initiator re-issues instead of losing the message.
fn admit<'a>(
    core: &'a NiCore,
    step: &mut Step,
    h: &RequestHeader,
    kind: EventKind,
    ack: AckTo,
) -> Option<(MutexGuard<'a, MatchList>, Accepted)> {
    let state = &core.state;
    let Some(list) = state.table.lock(h.portal_index) else {
        drop_msg(core, DropReason::InvalidPortalIndex);
        return None;
    };
    // Refuse on behalf of a disabled portal. The drop is counted before a
    // trip's `FlowCtrl` event or the nack can be seen; the nack goes out with
    // the list lock released.
    let refuse = |list: MutexGuard<'a, MatchList>, step: &mut Step| {
        drop(list);
        if let Some(to) = ack {
            send_ack(step, h, to, 0, NACK_MLENGTH);
        }
    };
    if !state.table.is_enabled(h.portal_index) {
        drop_msg(core, DropReason::PtDisabled);
        refuse(list, step);
        return None;
    }
    if let Err(r) = state
        .acl
        .read()
        .check(h.cookie, h.initiator, h.portal_index, core)
    {
        drop_msg(core, r.into());
        return None;
    }
    // A plain atomic only mutates; a fetching atomic also reads the prior
    // value back, so its descriptor must enable both operations.
    let op = match kind {
        EventKind::Get => ReqOp::Get,
        EventKind::FetchAtomic => ReqOp::FetchAtomic,
        _ => ReqOp::Put,
    };
    let atomic = matches!(kind, EventKind::Atomic | EventKind::FetchAtomic);
    // Flow control is armed for this delivery when the interface switch is on
    // *and* the owner registered a flow EQ for the portal (opt-in per index).
    // A get never trips it: it carries no payload to lose and its reply path
    // has no nack channel.
    let flow_armed = kind != EventKind::Get
        && core.config.flow_control
        && state.table.flow_eq(h.portal_index).is_some();
    let accepted = match translate(
        &list,
        state,
        op,
        h.initiator,
        h.match_bits,
        h.offset,
        h.length,
    ) {
        // Truncation is acceptance-time rejection for an atomic: an RMW
        // applied to a prefix of the requested lanes would be a different
        // operation, not a shorter one.
        Ok(a) if atomic && a.mlength != h.length => {
            drop_msg(core, DropReason::AtomicInvalid);
            return None;
        }
        Ok(a) => a,
        // An exhausted match list on a flow-controlled portal is the
        // resource-exhaustion signal (the MPI layer's unexpected-message
        // blocks ran out): trip instead of silently dropping.
        Err(DropReason::NoMatch) if flow_armed => {
            drop_msg(core, DropReason::PtDisabled);
            trip_flow_control(core, step, h);
            refuse(list, step);
            return None;
        }
        Err(reason) => {
            drop_msg(core, reason);
            return None;
        }
    };
    // §4.8 validates before delivery side effects: if the accepted MD's event
    // queue cannot take this operation's event (plus one slot of headroom so
    // the consumer still sees completions while tripping), disable the portal
    // *before* any data moves, so nothing is half-delivered.
    if flow_armed {
        let md_eq = state.mds.with(accepted.md, |md| md.eq).flatten();
        let room = md_eq.map(|eqh| state.eqs.with(eqh, |q| q.has_room_for(2)));
        if room == Some(Some(false)) {
            drop_msg(core, DropReason::PtDisabled);
            trip_flow_control(core, step, h);
            refuse(list, step);
            return None;
        }
    }
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Match)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail(kind.name())
    });
    Some((list, accepted))
}

/// Count `mlength` payload bytes of `what` landed in this process's memory.
fn count_landed(core: &NiCore, peer: ProcessId, mlength: u64, what: &'static str) {
    if mlength > 0 {
        core.counters.payload_copies.inc();
    }
    core.counters.payload_messages.inc();
    core.counters.delivered_bytes.add(mlength);
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Deliver)
            .node(core.id.nid.0)
            .peer(peer.nid.0)
            .bytes(mlength)
            .detail(what)
    });
}

/// Apply §4.8 to one whole get, atomic or ack for `core`. Puts and replies
/// take the streamed sequence below ([`put_begin`], [`reply_begin`]) in
/// whatever shape they arrive, and a batch's acks come one by one; one handed
/// here is counted as garbage.
pub(crate) fn deliver(core: &NiCore, step: &mut Step, msg: PortalsMessage) {
    match msg {
        PortalsMessage::Get(get) => handle_get(core, step, get),
        PortalsMessage::Atomic(atomic) => handle_atomic(core, step, atomic),
        PortalsMessage::Ack(ack) => handle_ack(core, step, ack),
        PortalsMessage::Put(_) | PortalsMessage::Reply(_) | PortalsMessage::AckBatch(_) => {
            crate::stream::garbage(step.node);
        }
    }
}

fn handle_get(core: &NiCore, step: &mut Step, get: GetRequest) {
    let h = get.header;
    // A get to a flow-disabled portal is dropped like any other §4.8 drop of
    // a get (no payload to lose, no nack channel on the reply path). The MPI
    // layer only flow-controls its put-target portals, so this path is never
    // taken end-to-end there.
    let Some((mut list, accepted)) = admit(core, step, &h, EventKind::Get, None) else {
        return;
    };
    let state = &core.state;
    let ct = state.mds.with(accepted.md, |md| md.ct).flatten();
    let payload = state
        .mds
        .with(accepted.md, |md| {
            md.payload_gather(accepted.offset, accepted.mlength)
        })
        .unwrap_or_default();
    core.counters.requests_accepted.inc();
    // A get moves no bytes into this process's memory: the reply's landing at
    // the initiator is where delivered/completed bytes are accounted.
    if let Some(committed) = commit(core, &mut list, accepted, &h, EventKind::Get) {
        committed.fire(core, step, true);
    }
    drop(list);

    // "the reply is generated whenever the operation succeeds" (§4.7) — it is
    // not optional, unlike the ack.
    let reply = PortalsMessage::Reply(Reply {
        header: response(
            &h,
            (get.reply_md, RAW_HANDLE_NONE),
            accepted.offset,
            accepted.mlength,
        ),
        payload,
    });
    step.send(h.initiator.nid, &reply);

    // Get served from this descriptor: bump its counter after the reply is on
    // the wire and every lock is dropped.
    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, step, ct, 1);
    }
}

/// §4.8 applied to an atomic or fetch-atomic request. The prologue is the
/// put's ([`admit`]), but the data phase is a read-modify-write executed
/// *here*, under the portal's list lock — the target process runs no code.
/// That lock is the atomicity domain: it already serializes put admission per
/// portal, so concurrent atomics from any number of initiators are applied
/// one at a time, which a get-modify-put built from the plain operations
/// could never guarantee.
///
/// Geometry is validated before any byte moves: the touched length must be a
/// nonzero multiple of the 8-byte lane, a CAS must touch exactly one lane, and
/// the matched descriptor must accept the full length (`mlength == rlength`) —
/// a truncated RMW would half-apply, so it drops as [`DropReason::AtomicInvalid`]
/// instead.
fn handle_atomic(core: &NiCore, step: &mut Step, atomic: AtomicRequest) {
    let h = atomic.header;
    // Lane geometry first — it is a property of the request alone, and
    // nothing downstream may see a partial RMW.
    let lane = portals_wire::AtomicDatatype::WIDTH;
    if h.length == 0
        || h.length % lane != 0
        || (atomic.op == AtomicOp::Cas && h.length != lane)
        || Some(atomic.payload.len() as u64) != atomic.op.operand_len(h.length)
    {
        drop_msg(core, DropReason::AtomicInvalid);
        return;
    }
    // Fetching atomics have no nack channel (their reply path mirrors the
    // get's), so a disabled portal drops them like a get.
    let (kind, ack) = if atomic.fetch {
        (EventKind::FetchAtomic, None)
    } else {
        (EventKind::Atomic, ack_to(atomic.ack_md, atomic.ack_eq))
    };
    let Some((mut list, accepted)) = admit(core, step, &h, kind, ack) else {
        return;
    };
    let state = &core.state;
    let ct = state.mds.with(accepted.md, |md| md.ct).flatten();
    // The read-modify-write, under the portal lock. Operands are small (one
    // value per lane), so the flatten here is cheap and keeps the lane
    // arithmetic out of the gather path.
    let operand = atomic.payload.to_vec();
    let old = state
        .mds
        .with(accepted.md, |md| {
            md.atomic_rmw(accepted.offset, atomic.op, atomic.datatype, &operand)
        })
        .unwrap_or_default();
    count_landed(core, h.initiator, accepted.mlength, kind.name());
    core.counters.requests_accepted.inc();
    if let Some(committed) = commit(core, &mut list, accepted, &h, kind) {
        // Counted before the event can wake anyone, as every path here does.
        core.counters.completed_bytes.add(accepted.mlength);
        committed.fire(core, step, true);
    }
    drop(list);

    if atomic.fetch {
        // The prior value travels back exactly like a get's reply and lands at
        // offset 0 of the initiator's fetch descriptor via `reply_begin`.
        let reply = PortalsMessage::Reply(Reply {
            header: response(
                &h,
                (atomic.reply_md, RAW_HANDLE_NONE),
                accepted.offset,
                accepted.mlength,
            ),
            payload: Gather::from_vec(old),
        });
        step.send(h.initiator.nid, &reply);
    } else if let Some(to) = ack {
        send_ack(step, &h, to, accepted.offset, accepted.mlength);
    }

    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, step, ct, 1);
    }
}

fn handle_ack(core: &NiCore, step: &mut Step, ack: Ack) {
    // §4.8: "Upon receipt of an acknowledgment, the runtime system only needs
    // to confirm that the event queue still exists."
    let h = ack.header;
    let event = Event {
        kind: EventKind::Ack,
        initiator: h.initiator,
        portal_index: h.portal_index,
        match_bits: h.match_bits,
        rlength: h.requested_length,
        mlength: h.manipulated_length,
        offset: h.offset,
        md: Handle::from_raw(h.md_handle),
    };
    let eqh: EqHandle = Handle::from_raw(h.eq_handle);
    let has_eq = h.eq_handle != RAW_HANDLE_NONE && core.state.eqs.contains(eqh);
    // A counting event on the source MD consumes the ack even when no event
    // queue does — a triggered schedule has no EQ at all, only counters.
    let mdh: MdHandle = Handle::from_raw(h.md_handle);
    let ct = core.state.mds.with(mdh, |md| md.ct).flatten();
    if !has_eq && ct.is_none() {
        drop_msg(core, DropReason::AckEqMissing);
        return;
    }
    // Counted before the event is pushed, so a waiter the event wakes reads
    // a count that includes it. A queue the application frees between the
    // check above and the push loses the event but keeps the count.
    core.counters.acks_accepted.inc();
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Deliver)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .detail("ack")
    });
    if has_eq {
        core.push_event(step, eqh, event);
    }
    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, step, ct, 1);
    }
}

// ---------------------------------------------------------------------------
// The receive sequence for payload-bearing messages: begin → write → finish
// ---------------------------------------------------------------------------
//
// §4.8 splits into two halves. At *header* time — as soon as a put's or a
// reply's fixed header is in hand, whether or not its payload is — `begin`
// runs every check and state transition (portal validity, ACL, translation,
// flow control, threshold commit, managed-offset advance, auto-unlink), all
// under the portal lock, and captures a clone of the matched descriptor's
// memory map. Payload bytes are then scattered into that memory at their
// absolute offsets with no portal lock held, one `write` per delivery as it
// comes off the wire, so placement overlaps transfer; a delivery takes each
// backing region's write lock once, whatever its segment count. Events,
// counting events and the ack are fired only by `finish`, so the §4.8
// observable order — data before event — is preserved.
//
// Matching at header time is what a receiver-side NIC does. A message's match
// outcome reflects the list state at arrival order: the transport delivers
// per-source fragments in order and non-interleaved.
//
// What the portal lock covers: admission and commit, so two messages can
// never both consume a descriptor's last threshold count or the same managed
// offset, and an atomic's read-modify-write, which must not interleave with
// another contribution. What it does not cover: a plain overwrite's data
// movement and the event push. The gap between commit and event is closed for
// `PtlMDUpdate` — which tests "has anything arrived that I have not seen" —
// by the event queue itself: `begin` marks the queue as owed an event under
// the portal lock and `finish` settles it
// ([`EventQueue::owe`](crate::event::EventQueue)). For a posting call it is
// closed by the overflow record: `begin` makes it under the portal lock,
// `finish` marks it landed before the event, `abort` removes it.
//
// Partial-delivery visibility: between begin and finish the target region
// holds a mix of old and new bytes. This is exactly the §6c torn-read/RDMA
// contract — the paper's semantics make no promise about a region's contents
// before the completion event is delivered.

/// An accepted put between header and completion: the matched region plus
/// everything completion needs. Payload writes go through the captured
/// [`MdMemory`] clone — region handles are refcounted, so the bytes land in
/// the application's memory even if the descriptor is auto-unlinked before
/// the tail arrives (the RDMA model: the NIC holds the registration, not the
/// descriptor table).
pub(crate) struct PutSink {
    header: RequestHeader,
    ack: AckTo,
    accepted: Accepted,
    /// Where payload lands.
    mem: MdMemory,
    ct: Option<CtHandle>,
    committed: Option<Committed>,
    /// The serial of the put's record, if an overflow entry took it.
    record: Option<u64>,
}

/// Run the §4.8 receive checks for a put, up to and including commit; data
/// movement and event visibility belong to the sink. `None`: dropped (and
/// possibly nacked) at header time — swallow whatever payload is still to
/// come.
pub(crate) fn put_begin(
    core: &NiCore,
    step: &mut Step,
    h: RequestHeader,
    ack: AckTo,
) -> Option<PutSink> {
    let (mut list, accepted) = admit(core, step, &h, EventKind::Put, ack)?;
    let state = &core.state;
    // Capture the counting event and the memory map before commit can
    // auto-unlink the descriptor.
    let Some((mem, ct)) = state.mds.with(accepted.md, |md| (md.region.clone(), md.ct)) else {
        drop_msg(core, DropReason::NoMatch);
        return None;
    };
    // A put an overflow entry takes is recorded for a posting call to claim
    // once it has landed.
    let record = list.is_overflow(accepted.me).then(|| {
        list.record(Unexpected {
            initiator: h.initiator,
            match_bits: h.match_bits,
            rlength: h.length,
            mlength: accepted.mlength,
            offset: accepted.offset,
            md: accepted.md,
            mem: mem.clone(),
        })
    });
    // Commit under the portal lock — threshold, managed offset and
    // auto-unlink — but hold the resulting events back until the payload has
    // landed; until then the queue is owed one.
    let committed = commit(core, &mut list, accepted, &h, EventKind::Put);
    if let Some(eq) = committed.as_ref().and_then(|c| c.eq) {
        state.eqs.with(eq, |queue| queue.owe());
    }
    drop(list);
    Some(PutSink {
        header: h,
        ack,
        accepted,
        mem,
        ct,
        committed,
        record,
    })
}

impl PutSink {
    /// Scatter payload bytes at `payload_off` (offset within the message's
    /// payload) into the matched region, clamped to the manipulated length —
    /// bytes past `mlength` are the truncated tail and are dropped here,
    /// preserving §4.8 truncation. The first `take` bytes are copied straight
    /// from the delivery's segments, under one write lock per backing region.
    pub(crate) fn write(&self, payload_off: u64, data: &Gather) {
        let room = self.accepted.mlength.saturating_sub(payload_off);
        let take = (data.len() as u64).min(room) as usize;
        if take > 0 {
            self.mem
                .write_gather(self.accepted.offset + payload_off, data, take);
        }
    }

    /// Complete the put: counters, the held-back events, the optional ack and
    /// the counting-event increment.
    pub(crate) fn finish(self, core: &NiCore, step: &mut Step) {
        let h = self.header;
        let accepted = self.accepted;
        count_landed(core, h.initiator, accepted.mlength, "put");
        core.counters.requests_accepted.inc();
        if self.committed.is_some() {
            core.counters.completed_bytes.add(accepted.mlength);
        }
        // Claimable before its event says so.
        self.settle_record(core, true);
        self.settle(core, step, true);
        // "the target optionally sends an acknowledgment message" (§4.3): only
        // if the initiator asked and the operation was accepted.
        if let Some(to) = self.ack {
            send_ack(step, &h, to, accepted.offset, accepted.mlength);
        }
        // Put delivered: count it and fire whatever the schedule parked on it
        // — still engine context, zero host involvement.
        if let Some(ct) = self.ct {
            crate::triggered::ct_increment(core, step, ct, 1);
        }
    }

    /// The payload will never be complete (its length contradicted the header,
    /// or the sender broke the message off): no `Put` event, no ack, no
    /// counting-event increment, no record. What `begin` committed stays
    /// committed — the threshold count is spent — so an auto-unlink it
    /// performed is still reported.
    pub(crate) fn abort(self, core: &NiCore, step: &mut Step) {
        self.settle_record(core, false);
        self.settle(core, step, false);
    }

    /// Mark the put's record, if it has one, landed or broken off.
    fn settle_record(&self, core: &NiCore, landed: bool) {
        if let Some(serial) = self.record {
            let list = core.state.table.lock(self.header.portal_index);
            list.expect("admitted index in range")
                .settle(serial, landed);
        }
    }

    /// Fire the commit's events and settle the queue's debt.
    fn settle(&self, core: &NiCore, step: &mut Step, completed: bool) {
        if let Some(committed) = &self.committed {
            committed.fire(core, step, completed);
            if let Some(eq) = committed.eq {
                core.state.eqs.with(eq, |queue| queue.settle());
            }
        }
    }
}

/// An accepted reply between header and completion. The descriptor stays
/// pinned (its `pending_ops` is *not* decremented until the sink is finished
/// or aborted), so the §4.7 rule — a get's MD "must not be unlinked until the
/// reply is received" — holds across the interval.
pub(crate) struct ReplySink {
    header: ResponseHeader,
    md_handle: MdHandle,
    mem: MdMemory,
    mlength: u64,
    eq: Option<EqHandle>,
    ct: Option<CtHandle>,
}

/// The get a reply answers is over, landed or lost: release the descriptor's
/// pending-operation pin and perform the unlink it was deferring — or the MD
/// stays pinned forever and every later `md_unlink` reports `MdInUse`.
fn release_reply_pin(core: &NiCore, md_handle: MdHandle) {
    core.state.mds.remove_if(md_handle, |md| {
        md.pending_ops = md.pending_ops.saturating_sub(1);
        md.options.unlink_on_exhaustion && !md.threshold.active() && md.pending_ops == 0
    });
}

/// Run the §4.8 reply checks: "Each reply message includes a handle for a
/// memory descriptor. If this descriptor exists, it is used to receive the
/// message. A reply message will be dropped if the memory descriptor ...
/// doesn't exist or if the event queue in the memory descriptor has no space
/// and is not null. ... Every memory descriptor accepts and truncates
/// incoming reply messages." `None`: dropped and counted.
pub(crate) fn reply_begin(core: &NiCore, h: ResponseHeader) -> Option<ReplySink> {
    let state = &core.state;
    let md_handle: MdHandle = Handle::from_raw(h.md_handle);
    let landing = state.mds.with(md_handle, |md| {
        // Accept-and-truncate, decided up front from the declared length;
        // replies always overwrite, landing at the region start.
        let mlength = h.manipulated_length.min(md.len() as u64);
        (md.region.clone(), mlength, md.eq, md.ct)
    });
    let Some((mem, mlength, eq, ct)) = landing else {
        drop_msg(core, DropReason::ReplyMdMissing);
        return None;
    };
    if let Some(eqh) = eq {
        if state.eqs.with(eqh, |queue| queue.is_full()) == Some(true) {
            release_reply_pin(core, md_handle);
            drop_msg(core, DropReason::ReplyEqFull);
            return None;
        }
    }
    Some(ReplySink {
        header: h,
        md_handle,
        mem,
        mlength,
        eq,
        ct,
    })
}

impl ReplySink {
    /// Scatter reply payload bytes at `payload_off` into the descriptor's
    /// region, truncating past `mlength`: the first `take` bytes straight
    /// from the delivery's segments, under one write lock per backing region.
    pub(crate) fn write(&self, payload_off: u64, data: &Gather) {
        let room = self.mlength.saturating_sub(payload_off);
        let take = (data.len() as u64).min(room) as usize;
        if take > 0 {
            self.mem.write_gather(payload_off, data, take);
        }
    }

    /// Complete the reply: counters, the descriptor's pin, the reply event
    /// and the counting-event increment. The reply's landing is both the
    /// delivery and the initiating get's completion, so both byte counters
    /// advance. If the event queue filled between begin and finish the event
    /// is counted as overwritten — the same back-pressure signal any racing
    /// queue gives.
    pub(crate) fn finish(self, core: &NiCore, step: &mut Step) {
        let h = self.header;
        count_landed(core, h.initiator, self.mlength, "reply");
        core.counters.completed_bytes.add(self.mlength);
        core.counters.replies_accepted.inc();
        release_reply_pin(core, self.md_handle);
        if let Some(eqh) = self.eq {
            let event = Event {
                kind: EventKind::Reply,
                initiator: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                rlength: h.requested_length,
                mlength: self.mlength,
                offset: 0,
                md: self.md_handle,
            };
            core.push_event(step, eqh, event);
        }
        // Every lock is released before firing, so a trigger's own
        // launch can re-enter the arena without self-deadlock.
        if let Some(ct) = self.ct {
            crate::triggered::ct_increment(core, step, ct, 1);
        }
    }

    /// The payload will never be complete: no `Reply` event, no counting-event
    /// increment; the get it answered is over all the same.
    pub(crate) fn abort(self, core: &NiCore) {
        release_reply_pin(core, self.md_handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AccessControlList;
    use crate::md::{Md, MdOptions, MdSpec, Threshold};
    use crate::me::MatchEntry;
    use crate::table::MePos;
    use portals_types::Region;
    use portals_types::{MatchCriteria, NiLimits};
    use std::collections::HashMap;

    /// Build a state and attach one entry+MD through the same structures the
    /// API uses (entry metadata must reach the list for the index to work).
    fn attach(
        state: &NiState,
        portal: u32,
        pos: MePos,
        source: ProcessId,
        criteria: MatchCriteria,
        spec: MdSpec,
    ) -> (MeHandle, MdHandle) {
        let me = state
            .mes
            .insert(MatchEntry::at_portal(portal, source, criteria, false))
            .unwrap();
        assert!(state
            .table
            .lock(portal)
            .unwrap()
            .insert(me, pos, source, criteria));
        let mut md = Md::from_spec(spec);
        md.owner = Some(me);
        let mdh = state.mds.insert(md).unwrap();
        state
            .mes
            .with_mut(me, |m| m.md_list.push_back(mdh))
            .unwrap();
        (me, mdh)
    }

    fn open_state() -> NiState {
        let state = NiState::new(&NiLimits::DEFAULT);
        // Cookie 0 of the standard ACL admits anyone in the tests' world.
        *state.acl.write() = AccessControlList::standard(8);
        state
    }

    fn state_with_entry(
        criteria: MatchCriteria,
        source: ProcessId,
        md_len: usize,
        options: MdOptions,
        threshold: Threshold,
    ) -> (NiState, MeHandle, MdHandle) {
        let state = open_state();
        let (me, md) = attach(
            &state,
            0,
            MePos::Back,
            source,
            criteria,
            MdSpec::new(Region::from_vec(vec![0u8; md_len]))
                .with_options(options)
                .with_threshold(threshold),
        );
        (state, me, md)
    }

    /// Run translation and the reference walk and require agreement — every
    /// unit test below doubles as an index differential check.
    fn translate_put(
        state: &NiState,
        initiator: ProcessId,
        pt: u32,
        bits: MatchBits,
        offset: u64,
        len: u64,
    ) -> Result<Accepted, DropReason> {
        let list = state.table.lock(pt).expect("test portals in range");
        let fast = translate(&list, state, ReqOp::Put, initiator, bits, offset, len);
        let slow = walk(&list, state, ReqOp::Put, initiator, bits, offset, len);
        assert_eq!(fast, slow, "index and walk disagree");
        fast
    }

    #[test]
    fn match_walk_accepts_first_match() {
        let (state, me, md) = state_with_entry(
            MatchCriteria::exact(MatchBits::new(7)),
            ProcessId::ANY,
            64,
            MdOptions::default(),
            Threshold::Infinite,
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::new(7), 4, 10)
            .expect("accept");
        assert_eq!(
            r,
            Accepted {
                me,
                md,
                mlength: 10,
                offset: 4
            }
        );
    }

    #[test]
    fn wrong_bits_fall_off_the_list() {
        let (state, _, _) = state_with_entry(
            MatchCriteria::exact(MatchBits::new(7)),
            ProcessId::ANY,
            64,
            MdOptions::default(),
            Threshold::Infinite,
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::new(8), 0, 1);
        assert_eq!(r, Err(DropReason::NoMatch));
    }

    #[test]
    fn source_filter_excludes_other_processes() {
        let (state, _, _) = state_with_entry(
            MatchCriteria::any(),
            ProcessId::new(3, 3),
            64,
            MdOptions::default(),
            Threshold::Infinite,
        );
        assert!(translate_put(&state, ProcessId::new(3, 3), 0, MatchBits::ZERO, 0, 1).is_ok());
        assert_eq!(
            translate_put(&state, ProcessId::new(3, 4), 0, MatchBits::ZERO, 0, 1),
            Err(DropReason::NoMatch)
        );
    }

    #[test]
    fn md_rejection_continues_down_the_list() {
        // First entry matches but its MD only accepts gets; second entry
        // accepts puts. Translation must land on the second (Fig. 4).
        let state = open_state();
        let (_, _) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])).with_options(MdOptions {
                op_put: false,
                ..Default::default()
            }),
        );
        let (me2, md2) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])),
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::ZERO, 0, 8)
            .expect("accept at second entry");
        assert_eq!(r.me, me2);
        assert_eq!(r.md, md2);
    }

    #[test]
    fn indexed_hit_with_rejecting_md_falls_back_to_walk() {
        // Exact entry for bits 5 whose MD rejects puts, then a wildcard entry
        // that accepts: the index offers the first, its MD rejects, and the
        // engine asks again after it and lands on the wildcard, exactly as
        // the walk would.
        let state = open_state();
        let (_, _) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(5)),
            MdSpec::new(Region::from_vec(vec![0u8; 64])).with_options(MdOptions {
                op_put: false,
                ..Default::default()
            }),
        );
        let (me2, md2) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])),
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::new(5), 0, 8)
            .expect("falls through to the wildcard");
        assert_eq!((r.me, r.md), (me2, md2));
    }

    #[test]
    fn only_first_md_of_an_entry_is_considered() {
        // Entry's first MD rejects (op disabled); a perfectly good second MD
        // sits behind it — but Fig. 4 says only the first is considered, so
        // translation must fall through to NoMatch.
        let state = open_state();
        let (me, _) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])).with_options(MdOptions {
                op_put: false,
                ..Default::default()
            }),
        );
        let good = state
            .mds
            .insert(Md::from_spec(MdSpec::new(Region::from_vec(vec![0u8; 64]))))
            .unwrap();
        state
            .mes
            .with_mut(me, |m| m.md_list.push_back(good))
            .unwrap();

        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::ZERO, 0, 8);
        assert_eq!(r, Err(DropReason::NoMatch));
    }

    #[test]
    fn empty_md_list_continues_walk() {
        let state = open_state();
        let empty = state
            .mes
            .insert(MatchEntry::at_portal(
                0,
                ProcessId::ANY,
                MatchCriteria::any(),
                false,
            ))
            .unwrap();
        assert!(state.table.lock(0).unwrap().insert(
            empty,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any()
        ));
        let (_, md) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 8])),
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::ZERO, 0, 4)
            .expect("walks past empty entry");
        assert_eq!(r.md, md);
    }

    #[test]
    fn posted_receives_on_the_message_portal_follow_the_walk() {
        // The message portal as MPI lays it out (`portals_mpi::bits`): 64
        // exact receives that ignore the LONG flag, one ANY_TAG receive
        // posted halfway through them, then the long entry and two wildcard
        // slabs. Receives are inserted before the long entry, as `irecv`
        // does, in one order and probed in another.
        const LONG: u64 = 1 << 31;
        const TAG_MASK: u64 = 0xffff_ffff;
        let bits = |src: u64, tag: u64| (1u64 << 48) | (src << 32) | tag;
        let crit = |must: u64, ignore: u64| {
            MatchCriteria::with_ignore(MatchBits::new(must), MatchBits::new(ignore))
        };
        let buffer = || MdSpec::new(Region::from_vec(vec![0u8; 64]));
        let state = open_state();
        let any = ProcessId::ANY;
        let (long_me, _) = attach(
            &state,
            0,
            MePos::Back,
            any,
            crit(LONG, !LONG),
            MdSpec::new(Region::from_vec(Vec::new())).with_options(MdOptions {
                truncate: true,
                ..Default::default()
            }),
        );
        let (slab, _) = attach(&state, 0, MePos::Back, any, MatchCriteria::any(), buffer());
        attach(&state, 0, MePos::Back, any, MatchCriteria::any(), buffer());
        let mut recv = HashMap::new();
        let mut any_tag = None;
        for i in 0..64u64 {
            if i == 32 {
                let pos = MePos::Before(long_me);
                let (me, _) = attach(
                    &state,
                    0,
                    pos,
                    any,
                    crit(bits(0, 0), LONG | TAG_MASK),
                    buffer(),
                );
                any_tag = Some(me);
            }
            let tag = (i * 37) % 64;
            let pos = MePos::Before(long_me);
            let (me, _) = attach(&state, 0, pos, any, crit(bits(0, tag), LONG), buffer());
            recv.insert(tag, (me, any_tag.is_none()));
        }
        let any_tag = any_tag.expect("posted");
        let pick = |bits: u64| {
            translate_put(&state, ProcessId::new(1, 1), 0, MatchBits::new(bits), 0, 8)
                .expect("the slabs catch everything")
                .me
        };
        for i in 0..64u64 {
            let tag = (i * 23 + 5) % 64;
            let (me, before_any_tag) = recv[&tag];
            let expect = if before_any_tag { me } else { any_tag };
            assert_eq!(pick(bits(0, tag)), expect, "tag {tag}");
            assert_eq!(pick(bits(0, tag) | LONG), expect, "long, tag {tag}");
            // Rank 1 has nothing posted: a short message goes to the first
            // slab, a long one to the long entry.
            assert_eq!(pick(bits(1, tag)), slab, "unexpected, tag {tag}");
            assert_eq!(
                pick(bits(1, tag) | LONG),
                long_me,
                "unexpected long, tag {tag}"
            );
        }
    }

    mod differential {
        //! Engine-level differential proptest — with MD evaluation in the
        //! loop, translation must pick the same entry (or the same drop) as
        //! the reference walk, across wildcard orderings, rejecting
        //! descriptors and unlink churn.

        use super::*;
        use crate::table::tests::differential::{bits_strategy, ignore_strategy};
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// bits, ignore mask, optional source filter, position seed,
            /// and whether the entry's MD accepts puts.
            Insert {
                bits: u64,
                ignore: u64,
                src: Option<(u32, u32)>,
                pos: u8,
                op_put: bool,
            },
            /// Remove the i-th currently attached entry (mod len).
            Remove { which: usize },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (
                    bits_strategy(),
                    ignore_strategy(),
                    (any::<bool>(), 0u32..3, 0u32..3),
                    any::<u8>(),
                    any::<bool>()
                )
                    .prop_map(|(bits, ignore, (filtered, n, p), pos, op_put)| {
                        Op::Insert {
                            bits,
                            ignore,
                            src: filtered.then_some((n, p)),
                            pos,
                            op_put,
                        }
                    }),
                (any::<usize>(),).prop_map(|(which,)| Op::Remove { which }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

            #[test]
            fn indexed_translation_matches_reference_walk(
                ops in proptest::collection::vec(op_strategy(), 1..32),
                probes in proptest::collection::vec((bits_strategy(), 0u32..3, 0u32..3), 1..10),
            ) {
                let state = open_state();
                let mut attached: Vec<MeHandle> = Vec::new();

                for op in ops {
                    match op {
                        Op::Insert { bits, ignore, src, pos, op_put } => {
                            let criteria =
                                MatchCriteria::with_ignore(MatchBits(bits), MatchBits(ignore));
                            let source =
                                src.map_or(ProcessId::ANY, |(n, p)| ProcessId::new(n, p));
                            let pos = match (pos % 4, attached.len()) {
                                (_, 0) | (0, _) => MePos::Back,
                                (1, _) => MePos::Front,
                                (2, n) => MePos::Before(attached[pos as usize % n]),
                                (_, n) => MePos::After(attached[pos as usize % n]),
                            };
                            let (me, _) = attach(
                                &state,
                                0,
                                pos,
                                source,
                                criteria,
                                MdSpec::new(Region::from_vec(vec![0u8; 32]))
                                    .with_options(MdOptions { op_put, ..Default::default() }),
                            );
                            attached.push(me);
                        }
                        Op::Remove { which } => {
                            if !attached.is_empty() {
                                let me = attached.remove(which % attached.len());
                                let mds = state.mes.remove(me).expect("attached").md_list;
                                state.table.lock(0).unwrap().remove(me);
                                for md in mds {
                                    state.mds.remove(md);
                                }
                            }
                        }
                    }
                    // Probe after every mutation so intermediate shapes are
                    // covered; the helper asserts fast == slow internally.
                    for &(bits, n, p) in &probes {
                        let _ = translate_put(
                            &state,
                            ProcessId::new(n, p),
                            0,
                            MatchBits(bits),
                            0,
                            8,
                        );
                    }
                }
            }
        }
    }
}
