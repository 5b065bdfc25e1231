//! The Portals layer's one receive entry point: the per-source stream state
//! machine.
//!
//! The transport hands up every message as [`StreamFragment`]s carrying
//! absolute payload offsets — one fragment, offset 0 and `last`, for a
//! message that fit one. This module is the glue between that fragment
//! stream and the §4.8 receive sequence in [`crate::engine`]: as soon as the
//! fixed wire header is complete it calls the engine's `begin` (validity,
//! ACL, translation, commit) and obtains a *sink* — a captured mapping of the
//! matched memory — into which every subsequent fragment is written at its
//! offset the moment it leaves the wire. The last fragment calls `finish`. A
//! message that arrived in one fragment runs the same three steps back to
//! back.
//!
//! Two integrity rules hold whatever the shape. A put or reply whose header
//! and whole payload arrive in one fragment is judged whole: if its length
//! contradicts its header it is node-level garbage before lookup and commit.
//! One whose payload is still coming is committed at header time, and a
//! length that then fails to total what the header declared aborts it: no
//! completion event, no ack, no counting-event increment, the threshold
//! spent.
//!
//! Messages that must be seen whole (acks, gets and atomics — all header, or
//! a read-modify-write that must not half-apply) accumulate and are decoded
//! and run through the engine on their last fragment.
//!
//! The transport delivers a source's fragments in order, offset-contiguous
//! and non-interleaved — and enforces it against the wire — so one state per
//! source suffices and a fragment's offset is trusted.

use crate::engine::{self, PutSink, ReplySink};
use crate::ni::NiCore;
use crate::node::{lookup, node_drop_trace, NodeShared, Step};
use portals_transport::StreamFragment;
use portals_types::{Gather, NodeId};
use portals_wire::{Head, PortalsMessage};
use std::ops::Range;
use std::sync::Arc;

/// Where a source's in-flight message is in its delivery lifecycle. A sink
/// carries the payload's place in the message, as its head declared it.
pub(crate) enum MsgStream {
    /// Still collecting the fixed wire header; holds everything received so
    /// far.
    Head(Gather),
    /// Needed whole: accumulate and dispatch on the last fragment.
    Accumulate(Gather),
    /// A put past `begin`: fragments scatter straight into the matched region.
    Put(Arc<NiCore>, PutSink, Range<usize>),
    /// A reply past `begin`: fragments scatter into the requesting descriptor.
    Reply(Arc<NiCore>, ReplySink, Range<usize>),
    /// Rejected at header time: swallow fragments until the message ends.
    Discard,
}

/// Feed one transport fragment through the stream state machine. A message's
/// first fragment starts its head from the fragment's own bytes.
pub(crate) fn on_fragment(step: &mut Step, frag: StreamFragment) {
    let mut streams = step.node.streams.lock();
    let (src, last) = (frag.src, frag.last);
    let end = frag.offset + frag.payload.len() as u64;
    let next = match streams.remove(&src) {
        Some(state) => advance(step, state, frag),
        None => classify(step, frag.payload, last),
    };
    if last {
        finalize(step, next, end);
    } else {
        streams.insert(src, next);
    }
}

/// The transport gave up on the message `src` was sending: undo what can be
/// undone.
pub(crate) fn on_abandoned(step: &mut Step, src: NodeId) {
    let state = step.node.streams.lock().remove(&src);
    if let Some(state) = state {
        abort(step, state);
    }
}

/// Apply one fragment to the current state, returning the next state.
fn advance(step: &mut Step, state: MsgStream, frag: StreamFragment) -> MsgStream {
    match state {
        MsgStream::Head(mut acc) => {
            acc.append(frag.payload);
            classify(step, acc, frag.last)
        }
        MsgStream::Accumulate(mut acc) => {
            acc.append(frag.payload);
            MsgStream::Accumulate(acc)
        }
        // A sink exists only once the header is complete, and fragments are
        // contiguous, so these offsets are at or past the payload's start.
        MsgStream::Put(core, sink, payload) => {
            sink.write(frag.offset - payload.start as u64, &frag.payload);
            MsgStream::Put(core, sink, payload)
        }
        MsgStream::Reply(core, sink, payload) => {
            sink.write(frag.offset - payload.start as u64, &frag.payload);
            MsgStream::Reply(core, sink, payload)
        }
        MsgStream::Discard => MsgStream::Discard,
    }
}

/// Try to classify an accumulating head (`whole`: it is the entire message).
/// Stays in [`MsgStream::Head`] until the fixed fields are complete, then runs
/// the node-level §4.8 checks and the engine's `begin`, feeding any payload
/// bytes that rode along with the header fragments into the fresh sink.
fn classify(step: &mut Step, acc: Gather, whole: bool) -> MsgStream {
    let (msg, payload) = match PortalsMessage::head(&acc) {
        Ok(Some(Head { msg, payload })) => (msg, payload),
        Ok(None) => return MsgStream::Head(acc),
        // A bad field, or a payload no buffer could hold.
        Err(_) => return garbage(step.node),
    };
    if !matches!(msg, PortalsMessage::Put(_) | PortalsMessage::Reply(_)) {
        return MsgStream::Accumulate(acc);
    }
    // A message in hand whole is judged whole: a length its header
    // contradicts is garbage before anything is looked up or committed.
    if whole && acc.len() != payload.end {
        return garbage(step.node);
    }
    let Some(core) = lookup(step.node, msg.wire_target()) else {
        return MsgStream::Discard;
    };
    // Payload bytes that arrived in the same fragments as the header.
    let prefix = acc.slice(payload.start, acc.len() - payload.start);
    match msg {
        PortalsMessage::Put(put) => {
            let ack = engine::ack_to(put.ack_md, put.ack_eq);
            match engine::put_begin(&core, step, put.header, ack) {
                Some(sink) => {
                    sink.write(0, &prefix);
                    MsgStream::Put(core, sink, payload)
                }
                None => MsgStream::Discard,
            }
        }
        PortalsMessage::Reply(reply) => match engine::reply_begin(&core, reply.header) {
            Some(sink) => {
                sink.write(0, &prefix);
                MsgStream::Reply(core, sink, payload)
            }
            None => MsgStream::Discard,
        },
        _ => unreachable!("accumulated above"),
    }
}

/// The last fragment of a message has been applied; `end` is where it ended.
/// Complete whatever the stream became — or, if a put's or reply's payload
/// did not total what its header declared, abort it.
fn finalize(step: &mut Step, state: MsgStream, end: u64) {
    match state {
        MsgStream::Put(_, _, ref payload) | MsgStream::Reply(_, _, ref payload)
            if end != payload.end as u64 =>
        {
            abort(step, state)
        }
        // A header that never completed decodes as garbage there.
        MsgStream::Head(acc) | MsgStream::Accumulate(acc) => dispatch_whole(step, &acc),
        MsgStream::Put(core, sink, _) => sink.finish(&core, step),
        MsgStream::Reply(core, sink, _) => sink.finish(&core, step),
        MsgStream::Discard => {}
    }
}

/// A message needed whole — an ack, a get, an atomic — from the node-level
/// checks on. Decoding peeks the fixed headers into a stack buffer and leaves
/// any operand as zero-copy sub-slices of the fragments' views. A batch's
/// acks go through the checks and the engine one by one, in order, inside
/// the one [`Step`].
fn dispatch_whole(step: &mut Step, acc: &Gather) {
    match PortalsMessage::decode_gather(acc) {
        Ok(PortalsMessage::AckBatch(acks)) => acks
            .into_iter()
            .for_each(|ack| deliver(step, PortalsMessage::Ack(ack))),
        Ok(msg) => deliver(step, msg),
        Err(_) => {
            garbage(step.node);
        }
    }
}

fn deliver(step: &mut Step, msg: PortalsMessage) {
    if let Some(core) = lookup(step.node, msg.wire_target()) {
        engine::deliver(&core, step, msg);
    }
}

/// A message that will never complete correctly is garbage, whatever state it
/// reached (one already rejected at header time was counted then).
fn abort(step: &mut Step, state: MsgStream) {
    // Sinks first — an auto-unlink committed at header time is still
    // reported — so whoever sees the count also sees the events.
    match state {
        MsgStream::Put(core, sink, _) => sink.abort(&core, step),
        MsgStream::Reply(core, sink, _) => sink.abort(&core),
        MsgStream::Head(_) | MsgStream::Accumulate(_) => {}
        MsgStream::Discard => return,
    }
    garbage(step.node);
}

/// Count a node-level garbage drop; the message's remaining fragments, if
/// any, are swallowed.
pub(crate) fn garbage(shared: &NodeShared) -> MsgStream {
    shared.dropped_garbage.inc();
    node_drop_trace(shared, "garbage");
    MsgStream::Discard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        EventKind, MdOptions, MdSpec, MePos, NetworkInterface, NiConfig, Node, NodeConfig, Posted,
        Threshold,
    };
    use portals_net::Fabric;
    use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, Region};
    use portals_wire::{PutRequest, RequestHeader, RAW_HANDLE_NONE};

    /// Run one fragment through the stream in a dispatch step of its own.
    fn feed(ni: &NetworkInterface, frag: StreamFragment) {
        let mut step = Step::new(&ni.node);
        on_fragment(&mut step, frag);
        step.finish();
    }

    /// The transport gave up on `src`'s message, in a step of its own.
    fn abandon(ni: &NetworkInterface, src: NodeId) {
        let mut step = Step::new(&ni.node);
        on_abandoned(&mut step, src);
        step.finish();
    }

    /// The wire image of a 32-byte put from (0, 1) to portal 0 of `target`.
    fn put_to(target: ProcessId) -> Gather {
        PortalsMessage::Put(PutRequest {
            header: RequestHeader {
                initiator: ProcessId::new(0, 1),
                target,
                portal_index: 0,
                cookie: 0,
                match_bits: MatchBits::ZERO,
                offset: 0,
                length: 32,
            },
            ack_md: RAW_HANDLE_NONE,
            ack_eq: RAW_HANDLE_NONE,
            payload: Gather::from_vec(vec![7; 32]),
        })
        .encode_gather()
    }

    /// A put whose header and whole payload arrive in one fragment is judged
    /// whole: a length its header contradicts makes it garbage before lookup
    /// and commit, so the one-shot descriptor it matched keeps its threshold
    /// and reports no `Unlink`.
    #[test]
    fn a_mislengthed_put_in_one_fragment_commits_nothing() {
        let fabric = Fabric::ideal();
        let node = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
        let ni = node.create_ni(1, NiConfig::default()).unwrap();
        let eq = ni.eq_alloc(8).unwrap();
        let me = ni
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), true, MePos::Back)
            .unwrap();
        let one_shot = MdOptions {
            unlink_on_exhaustion: true,
            ..MdOptions::default()
        };
        let spec = MdSpec::new(Region::zeroed(64))
            .with_eq(eq)
            .with_threshold(Threshold::Count(1))
            .with_options(one_shot);
        ni.md_attach(me, spec).unwrap();
        let whole = |payload: Gather| StreamFragment {
            src: NodeId(0),
            msg_id: 0,
            offset: 0,
            last: true,
            payload,
        };
        let put = put_to(ni.id());
        feed(&ni, whole(put.slice(0, put.len() - 1)));
        assert_eq!(node.dropped_garbage(), 1);
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(ni.resources_in_use(), (1, 1), "nothing committed");
        // Judged before lookup: garbage, not a missing process.
        let stray = put_to(ProcessId::new(1, 9));
        feed(&ni, whole(stray.slice(0, stray.len() - 1)));
        assert_eq!((node.dropped_garbage(), node.dropped_no_process()), (2, 0));

        feed(&ni, whole(put));
        let kinds = [ni.eq_get(eq).unwrap().kind, ni.eq_get(eq).unwrap().kind];
        assert_eq!(kinds, [EventKind::Put, EventKind::Unlink]);
        assert_eq!(ni.resources_in_use(), (0, 0));
    }

    /// `PtlMDUpdate`'s "nothing has arrived that I have not seen" test must
    /// hold across the gap between a put's commit and its event, which for a
    /// streamed put is as long as its payload takes to arrive.
    #[test]
    fn md_update_is_refused_between_a_puts_begin_and_finish() {
        let fabric = Fabric::ideal();
        let node = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
        let ni = node.create_ni(1, NiConfig::default()).unwrap();
        let eq = ni.eq_alloc(8).unwrap();
        let me = ni
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        let md = ni
            .md_attach(me, MdSpec::new(Region::zeroed(64)).with_eq(eq))
            .unwrap();
        let msg = PortalsMessage::Put(PutRequest {
            header: RequestHeader {
                initiator: ProcessId::new(0, 1),
                target: ni.id(),
                portal_index: 0,
                cookie: 0,
                match_bits: MatchBits::ZERO,
                offset: 0,
                length: 32,
            },
            ack_md: RAW_HANDLE_NONE,
            ack_eq: RAW_HANDLE_NONE,
            payload: Gather::from_vec(vec![7; 32]),
        })
        .encode();
        // Eight of the 32 payload bytes ride with the header.
        let cut = msg.len() - 24;
        let frag = |range: std::ops::Range<usize>| StreamFragment {
            src: NodeId(0),
            msg_id: 0,
            offset: range.start as u64,
            last: range.end == msg.len(),
            payload: Gather::copy_from_slice(&msg[range]),
        };
        let update = || ni.md_update(md, Some(eq), |_| ());

        feed(&ni, frag(0..cut));
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(update(), Err(PtlError::NoUpdate), "owed event not seen");
        feed(&ni, frag(cut..msg.len()));
        assert_eq!(update(), Err(PtlError::NoUpdate), "pushed event not seen");
        assert_eq!(ni.eq_get(eq).unwrap().kind, EventKind::Put);
        assert_eq!(update(), Ok(()));

        // A put the sender broke off settles its debt without an event.
        feed(&ni, frag(0..cut));
        assert_eq!(update(), Err(PtlError::NoUpdate));
        abandon(&ni, NodeId(0));
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(update(), Ok(()));
        assert_eq!(node.dropped_garbage(), 1);
    }

    /// The interface of process 1 on node 1, an event queue, and one overflow
    /// entry on portal 0 whose offset-managed slab of `slab` bytes unlinks
    /// once fewer than `min_free` are left.
    fn overflow_rig(slab: usize, min_free: usize) -> (Node, NetworkInterface, crate::EqHandle) {
        let fabric = Fabric::ideal();
        let node = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
        let ni = node.create_ni(1, NiConfig::default()).unwrap();
        let eq = ni.eq_alloc(16).unwrap();
        let any = MatchCriteria::any();
        let me = ni
            .me_attach(0, ProcessId::ANY, any, false, MePos::Overflow)
            .unwrap();
        let options = MdOptions {
            truncate: true,
            manage_local_offset: true,
            min_free,
            ..MdOptions::default()
        };
        let spec = MdSpec::new(Region::zeroed(slab))
            .with_eq(eq)
            .with_options(options);
        ni.md_attach(me, spec).unwrap();
        (node, ni, eq)
    }

    /// The wire image of a put of `payload` from process 1 on node `nid` to
    /// portal 0 of `ni`, cut `cut` bytes into the payload into two fragments
    /// (one when that is the whole message).
    fn put_in_two(
        ni: &NetworkInterface,
        nid: u32,
        bits: u64,
        payload: &[u8],
        cut: usize,
    ) -> Vec<StreamFragment> {
        put_declaring(ni, nid, bits, payload, payload.len() as u64, cut)
    }

    /// [`put_in_two`], with a header that declares `declared` payload bytes.
    fn put_declaring(
        ni: &NetworkInterface,
        nid: u32,
        bits: u64,
        payload: &[u8],
        declared: u64,
        cut: usize,
    ) -> Vec<StreamFragment> {
        let msg = PortalsMessage::Put(PutRequest {
            header: RequestHeader {
                initiator: ProcessId::new(nid, 1),
                target: ni.id(),
                portal_index: 0,
                cookie: 0,
                match_bits: MatchBits::new(bits),
                offset: 0,
                length: declared,
            },
            ack_md: RAW_HANDLE_NONE,
            ack_eq: RAW_HANDLE_NONE,
            payload: Gather::copy_from_slice(payload),
        })
        .encode();
        let cut = msg.len() - payload.len() + cut;
        let frag = |range: std::ops::Range<usize>| StreamFragment {
            src: NodeId(nid),
            msg_id: 0,
            offset: range.start as u64,
            last: range.end == msg.len(),
            payload: Gather::copy_from_slice(&msg[range]),
        };
        if cut == msg.len() {
            vec![frag(0..cut)]
        } else {
            vec![frag(0..cut), frag(cut..msg.len())]
        }
    }

    fn deliver_all(ni: &NetworkInterface, frags: Vec<StreamFragment>) {
        frags.into_iter().for_each(|f| feed(ni, f));
    }

    fn post(ni: &NetworkInterface, source: ProcessId, bits: u64) -> Posted {
        let criteria = MatchCriteria::exact(MatchBits::new(bits));
        ni.me_post(0, source, criteria, None, None).unwrap()
    }

    /// How many unclaimed records portal 0 holds.
    fn records(ni: &NetworkInterface) -> usize {
        ni.me_search(0, ProcessId::ANY, MatchCriteria::any())
            .unwrap()
            .0
    }

    /// A put whose header declares more bytes than any message can hold is
    /// garbage at its head, even streamed into a slab that would truncate
    /// it: nothing is committed, and the fragment after the head is
    /// swallowed.
    #[test]
    fn a_put_declaring_an_uncountable_length_commits_nothing() {
        let (node, ni, eq) = overflow_rig(256, 0);
        deliver_all(&ni, put_declaring(&ni, 0, 5, &[7; 16], u64::MAX, 8));
        assert_eq!(node.dropped_garbage(), 1);
        assert_eq!(records(&ni), 0);
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(ni.resources_in_use(), (1, 1), "nothing committed");
        // The source's next message starts afresh.
        deliver_all(&ni, put_in_two(&ni, 0, 5, &[7; 16], 8));
        assert_eq!(ni.eq_get(eq).unwrap().kind, EventKind::Put);
        assert_eq!(node.dropped_garbage(), 1);
    }

    #[test]
    fn a_post_claims_the_oldest_matching_record_across_initiators() {
        let (_node, ni, _eq) = overflow_rig(256, 0);
        deliver_all(&ni, put_in_two(&ni, 0, 5, b"first", 5));
        deliver_all(&ni, put_in_two(&ni, 2, 5, b"second", 6));
        deliver_all(&ni, put_in_two(&ni, 0, 6, b"other", 5));
        assert_eq!(records(&ni), 3);
        let Posted::Claimed(put) = post(&ni, ProcessId::ANY, 5) else {
            panic!("the oldest match has landed");
        };
        assert_eq!(put.initiator, ProcessId::new(0, 1));
        assert_eq!(put.mem.read(put.offset, put.mlength), b"first");
        assert_eq!(records(&ni), 2, "the others stay");
        let Posted::Claimed(put) = post(&ni, ProcessId::new(2, 1), 5) else {
            panic!("the second initiator's put");
        };
        assert_eq!(put.mem.read(put.offset, put.mlength), b"second");
        assert!(matches!(post(&ni, ProcessId::ANY, 5), Posted::Unmatched(_)));
        assert!(matches!(post(&ni, ProcessId::ANY, 6), Posted::Claimed(_)));
        assert_eq!(records(&ni), 0);
    }

    /// A post bounded by an earlier unmatched post's serial cannot take a
    /// put recorded after that post searched: the earlier receive, offered
    /// again, would match it first.
    #[test]
    fn a_bounded_post_skips_puts_recorded_after_the_bound() {
        let (_node, ni, _eq) = overflow_rig(256, 0);
        let Posted::Unmatched(seen) = post(&ni, ProcessId::ANY, 5) else {
            panic!("nothing recorded yet");
        };
        deliver_all(&ni, put_in_two(&ni, 0, 5, b"late", 2));
        let criteria = MatchCriteria::exact(MatchBits::new(5));
        let bounded = ni.me_post(0, ProcessId::ANY, criteria, None, Some(seen));
        assert!(matches!(bounded.unwrap(), Posted::Unmatched(_)));
        assert_eq!(records(&ni), 1, "a bounded miss changes nothing");
        // Linked behind the hidden put, a receive would never see it.
        let spec = MdSpec::new(Region::zeroed(8));
        let linked = ni.me_post(0, ProcessId::ANY, criteria, Some(spec), Some(seen));
        assert_eq!(linked.unwrap_err(), PtlError::InvalidArgument);
        let Posted::Claimed(put) = post(&ni, ProcessId::ANY, 5) else {
            panic!("an unbounded post sees the late put");
        };
        assert_eq!(put.mem.read(put.offset, put.mlength), b"late");
    }

    #[test]
    fn a_post_is_busy_until_the_put_it_matches_has_landed() {
        let (_node, ni, eq) = overflow_rig(256, 0);
        let mut frags = put_in_two(&ni, 0, 5, &[7; 32], 8).into_iter();
        feed(&ni, frags.next().unwrap());
        assert!(matches!(post(&ni, ProcessId::ANY, 5), Posted::Busy));
        assert_eq!(records(&ni), 1, "a busy post changes nothing");
        feed(&ni, frags.next().unwrap());
        assert_eq!(ni.eq_get(eq).unwrap().kind, EventKind::Put);
        let Posted::Claimed(put) = post(&ni, ProcessId::ANY, 5) else {
            panic!("landed");
        };
        assert_eq!((put.rlength, put.mlength), (32, 32));
        assert_eq!(put.mem.read(put.offset, 32), [7; 32]);
    }

    #[test]
    fn a_broken_off_overflow_put_leaves_no_record() {
        let (node, ni, eq) = overflow_rig(256, 0);
        let mut frags = put_in_two(&ni, 0, 5, &[7; 32], 8).into_iter();
        feed(&ni, frags.next().unwrap());
        assert_eq!(records(&ni), 1);
        abandon(&ni, NodeId(0));
        assert_eq!(records(&ni), 0);
        assert!(matches!(post(&ni, ProcessId::ANY, 5), Posted::Unmatched(_)));
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(node.dropped_garbage(), 1);
    }

    #[test]
    fn a_record_outlives_its_slabs_unlink() {
        // 32 bytes leave 8 of 40, under the 16 the slab must keep free.
        let (_node, ni, eq) = overflow_rig(40, 16);
        deliver_all(&ni, put_in_two(&ni, 0, 5, &[9; 32], 32));
        let kinds = [ni.eq_get(eq).unwrap().kind, ni.eq_get(eq).unwrap().kind];
        assert_eq!(kinds, [EventKind::Put, EventKind::Unlink]);
        assert_eq!(ni.resources_in_use(), (1, 0), "the slab is gone");
        let Posted::Claimed(put) = post(&ni, ProcessId::ANY, 5) else {
            panic!("landed");
        };
        assert_eq!(ni.md_read(put.md, 0, 1), Err(PtlError::InvalidMd));
        assert_eq!(put.mem.read(put.offset, put.mlength), [9; 32]);
    }

    #[test]
    fn an_unmatched_post_links_ahead_of_every_overflow_entry() {
        let (_node, ni, eq) = overflow_rig(256, 0);
        let any = MatchCriteria::any();
        let late = ni
            .me_attach(0, ProcessId::ANY, any, false, MePos::Overflow)
            .unwrap();
        ni.md_attach(late, MdSpec::new(Region::zeroed(64)).with_eq(eq))
            .unwrap();
        let buf = Region::zeroed(32);
        let spec = MdSpec::new(buf.clone())
            .with_eq(eq)
            .with_threshold(Threshold::Count(1))
            .with_options(MdOptions {
                unlink_on_exhaustion: true,
                ..MdOptions::default()
            });
        let criteria = MatchCriteria::exact(MatchBits::new(5));
        let Posted::Linked(_, md) = ni
            .me_post(0, ProcessId::ANY, criteria, Some(spec), None)
            .unwrap()
        else {
            panic!("nothing to claim");
        };
        deliver_all(&ni, put_in_two(&ni, 0, 5, &[3; 16], 8));
        let ev = ni.eq_get(eq).unwrap();
        assert_eq!((ev.kind, ev.md), (EventKind::Put, md));
        assert_eq!(buf.read_vec(0, 16), [3; 16]);
        assert_eq!(records(&ni), 0, "a linked receive's put is not recorded");
        // The entry unlinked with its one-shot descriptor.
        assert_eq!(ni.eq_get(eq).unwrap().kind, EventKind::Unlink);
        assert_eq!(ni.resources_in_use(), (2, 2));
        // No other entry may go among the overflow entries.
        let among = ni.me_attach(0, ProcessId::ANY, any, false, MePos::After(late));
        assert_eq!(among, Err(PtlError::InvalidMe));
    }
}
