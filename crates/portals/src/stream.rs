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
use crate::node::{lookup, node_drop_trace, NodeShared};
use portals_transport::StreamFragment;
use portals_types::{Gather, NodeId};
use portals_wire::{PortalsMessage, StreamHead};
use std::sync::Arc;

/// Where a source's in-flight message is in its delivery lifecycle.
pub(crate) enum MsgStream {
    /// Still collecting the fixed wire header; holds everything received so
    /// far.
    Head(Gather),
    /// Needed whole: accumulate and dispatch on the last fragment.
    Accumulate(Gather),
    /// A put past `begin`: fragments scatter straight into the matched region.
    Put(Arc<NiCore>, PutSink),
    /// A reply past `begin`: fragments scatter into the requesting descriptor.
    Reply(Arc<NiCore>, ReplySink),
    /// Rejected at header time: swallow fragments until the message ends.
    Discard,
}

/// Feed one transport fragment through the stream state machine. A message's
/// first fragment starts its head from the fragment's own bytes.
pub(crate) fn on_fragment(shared: &NodeShared, frag: StreamFragment) {
    let mut streams = shared.streams.lock();
    let (src, last) = (frag.src, frag.last);
    let end = frag.offset + frag.payload.len() as u64;
    let next = match streams.remove(&src) {
        Some(state) => advance(shared, state, frag),
        None => classify(shared, frag.payload, last),
    };
    if last {
        finalize(shared, next, end);
    } else {
        streams.insert(src, next);
    }
}

/// The transport gave up on the message `src` was sending: undo what can be
/// undone.
pub(crate) fn on_abandoned(shared: &NodeShared, src: NodeId) {
    if let Some(state) = shared.streams.lock().remove(&src) {
        abort(shared, state);
    }
}

/// Apply one fragment to the current state, returning the next state.
fn advance(shared: &NodeShared, state: MsgStream, frag: StreamFragment) -> MsgStream {
    match state {
        MsgStream::Head(mut acc) => {
            acc.append(frag.payload);
            classify(shared, acc, frag.last)
        }
        MsgStream::Accumulate(mut acc) => {
            acc.append(frag.payload);
            MsgStream::Accumulate(acc)
        }
        // A sink exists only once the header is complete, and fragments are
        // contiguous, so these offsets are at or past the payload's start.
        MsgStream::Put(core, sink) => {
            sink.write(
                frag.offset - PortalsMessage::PUT_PAYLOAD_AT as u64,
                &frag.payload,
            );
            MsgStream::Put(core, sink)
        }
        MsgStream::Reply(core, sink) => {
            sink.write(
                frag.offset - PortalsMessage::REPLY_PAYLOAD_AT as u64,
                &frag.payload,
            );
            MsgStream::Reply(core, sink)
        }
        MsgStream::Discard => MsgStream::Discard,
    }
}

/// Try to classify an accumulating head (`whole`: it is the entire message).
/// Stays in [`MsgStream::Head`] until the fixed prefix is complete, then runs
/// the node-level §4.8 checks and the engine's `begin`, feeding any payload
/// bytes that rode along with the header fragments into the fresh sink.
fn classify(shared: &NodeShared, acc: Gather, whole: bool) -> MsgStream {
    let mut head = [0u8; PortalsMessage::MAX_FIXED];
    let got = acc.peek(&mut head);
    let head = match PortalsMessage::peek_stream_head(&head[..got]) {
        Ok(Some(h)) => h,
        Ok(None) => return MsgStream::Head(acc),
        Err(_) => return garbage(shared),
    };
    let (target, payload_at, declared) = match &head {
        StreamHead::Put { header, .. } => {
            (header.target, PortalsMessage::PUT_PAYLOAD_AT, header.length)
        }
        StreamHead::Reply { header } => (
            header.target,
            PortalsMessage::REPLY_PAYLOAD_AT,
            header.manipulated_length,
        ),
        StreamHead::Other => return MsgStream::Accumulate(acc),
    };
    // A message in hand whole is judged whole: a length its header
    // contradicts is garbage before anything is looked up or committed.
    if whole && (acc.len() - payload_at) as u64 != declared {
        return garbage(shared);
    }
    let Some(core) = lookup(shared, target) else {
        return MsgStream::Discard;
    };
    // Payload bytes that arrived in the same fragments as the header.
    let prefix = acc.slice(payload_at, acc.len() - payload_at);
    match head {
        StreamHead::Put {
            header,
            ack_md,
            ack_eq,
        } => match engine::put_begin(&core, shared, header, engine::ack_to(ack_md, ack_eq)) {
            Some(sink) => {
                sink.write(0, &prefix);
                MsgStream::Put(core, sink)
            }
            None => MsgStream::Discard,
        },
        StreamHead::Reply { header } => match engine::reply_begin(&core, header) {
            Some(sink) => {
                sink.write(0, &prefix);
                MsgStream::Reply(core, sink)
            }
            None => MsgStream::Discard,
        },
        StreamHead::Other => unreachable!("returned above"),
    }
}

/// The last fragment of a message has been applied; `end` is where it ended.
/// Complete whatever the stream became — or, if a put's or reply's payload
/// did not total what its header declared, abort it.
fn finalize(shared: &NodeShared, state: MsgStream, end: u64) {
    let declared_end = match &state {
        MsgStream::Put(_, sink) => PortalsMessage::PUT_PAYLOAD_AT as u64 + sink.declared_len(),
        MsgStream::Reply(_, sink) => PortalsMessage::REPLY_PAYLOAD_AT as u64 + sink.declared_len(),
        _ => end,
    };
    if end != declared_end {
        return abort(shared, state);
    }
    match state {
        // A header that never completed decodes as garbage there.
        MsgStream::Head(acc) | MsgStream::Accumulate(acc) => dispatch_whole(shared, &acc),
        MsgStream::Put(core, sink) => sink.finish(&core, shared),
        MsgStream::Reply(core, sink) => sink.finish(&core, shared),
        MsgStream::Discard => {}
    }
}

/// A message needed whole — an ack, a get, an atomic — from the node-level
/// checks on. Decoding peeks the fixed headers into a stack buffer and leaves
/// any operand as zero-copy sub-slices of the fragments' views. A batch's
/// acks go through the checks and the engine one by one, in order, inside
/// the one dispatch step (one [`Burst`](crate::node::Burst)).
fn dispatch_whole(shared: &NodeShared, acc: &Gather) {
    match PortalsMessage::decode_gather(acc) {
        Ok(PortalsMessage::AckBatch(acks)) => acks
            .into_iter()
            .for_each(|ack| deliver(shared, PortalsMessage::Ack(ack))),
        Ok(msg) => deliver(shared, msg),
        Err(_) => {
            garbage(shared);
        }
    }
}

fn deliver(shared: &NodeShared, msg: PortalsMessage) {
    if let Some(core) = lookup(shared, msg.wire_target()) {
        engine::deliver(&core, shared, msg);
    }
}

/// A message that will never complete correctly is garbage, whatever state it
/// reached (one already rejected at header time was counted then).
fn abort(shared: &NodeShared, state: MsgStream) {
    // Sinks first — an auto-unlink committed at header time is still
    // reported — so whoever sees the count also sees the events.
    match state {
        MsgStream::Put(core, sink) => sink.abort(&core),
        MsgStream::Reply(core, sink) => sink.abort(&core),
        MsgStream::Head(_) | MsgStream::Accumulate(_) => {}
        MsgStream::Discard => return,
    }
    garbage(shared);
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
    use crate::{EventKind, MdOptions, MdSpec, MePos, NiConfig, Node, NodeConfig, Threshold};
    use portals_net::Fabric;
    use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, Region};
    use portals_wire::{PutRequest, RequestHeader, RAW_HANDLE_NONE};

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
        on_fragment(&ni.node, whole(put.slice(0, put.len() - 1)));
        assert_eq!(node.dropped_garbage(), 1);
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(ni.resources_in_use(), (1, 1), "nothing committed");
        // Judged before lookup: garbage, not a missing process.
        let stray = put_to(ProcessId::new(1, 9));
        on_fragment(&ni.node, whole(stray.slice(0, stray.len() - 1)));
        assert_eq!((node.dropped_garbage(), node.dropped_no_process()), (2, 0));

        on_fragment(&ni.node, whole(put));
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
        let cut = PortalsMessage::PUT_PAYLOAD_AT + 8;
        let frag = |range: std::ops::Range<usize>| StreamFragment {
            src: NodeId(0),
            msg_id: 0,
            offset: range.start as u64,
            last: range.end == msg.len(),
            payload: Gather::copy_from_slice(&msg[range]),
        };
        let update = || ni.md_update(md, Some(eq), |_| ());

        on_fragment(&ni.node, frag(0..cut));
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(update(), Err(PtlError::NoUpdate), "owed event not seen");
        on_fragment(&ni.node, frag(cut..msg.len()));
        assert_eq!(update(), Err(PtlError::NoUpdate), "pushed event not seen");
        assert_eq!(ni.eq_get(eq).unwrap().kind, EventKind::Put);
        assert_eq!(update(), Ok(()));

        // A put the sender broke off settles its debt without an event.
        on_fragment(&ni.node, frag(0..cut));
        assert_eq!(update(), Err(PtlError::NoUpdate));
        on_abandoned(&ni.node, NodeId(0));
        assert_eq!(ni.eq_get(eq), Err(PtlError::EqEmpty));
        assert_eq!(update(), Ok(()));
        assert_eq!(node.dropped_garbage(), 1);
    }
}
