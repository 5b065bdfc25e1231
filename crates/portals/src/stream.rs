//! Messages that arrive in pieces: the per-source stream state machine.
//!
//! A message larger than one transport fragment arrives as a sequence of
//! [`StreamFragment`]s carrying absolute payload offsets. This module is the
//! glue between that fragment stream and the §4.8 receive sequence in
//! [`crate::engine`]: as soon as the fixed wire header is complete it calls
//! the engine's `begin` (validity, ACL, translation, commit) and obtains a
//! *sink* — a captured mapping of the matched memory — into which every
//! subsequent fragment is written at its offset the moment it leaves the
//! wire. The last fragment calls `finish`. A message that arrived whole runs
//! the same three steps back to back ([`crate::engine::deliver`]); the only
//! thing this module adds is the waiting in between.
//!
//! Messages that must be seen whole (anything on a host-driven node, and
//! acks, gets and atomics — all header, or a read-modify-write that must not
//! half-apply) accumulate and take the whole-message
//! [`dispatch`](crate::node) path on completion.
//!
//! The transport delivers a source's fragments in order, offset-contiguous
//! and non-interleaved — and enforces it against the wire — so one state per
//! source suffices and a fragment's offset is trusted.

use crate::engine::{self, PutSink, ReplySink};
use crate::ni::NiCore;
use crate::node::{dispatch, lookup, node_drop_trace, NodeShared};
use portals_transport::StreamFragment;
use portals_types::{Gather, NodeId, ProgressMode};
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

/// Feed one transport fragment through the stream state machine.
pub(crate) fn on_fragment(shared: &NodeShared, frag: StreamFragment) {
    let mut streams = shared.streams.lock();
    let state = streams
        .remove(&frag.src)
        .unwrap_or(MsgStream::Head(Gather::new()));
    let (src, last) = (frag.src, frag.last);
    let end = frag.offset + frag.payload.len() as u64;
    let next = advance(shared, state, frag);
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
            classify(shared, acc)
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

/// Try to classify an accumulating head. Stays in [`MsgStream::Head`] until
/// the fixed prefix is complete, then runs the node-level §4.8 checks and the
/// engine's `begin`, feeding any payload bytes that rode along with the header
/// fragments into the fresh sink.
fn classify(shared: &NodeShared, acc: Gather) -> MsgStream {
    let mut head = [0u8; PortalsMessage::MAX_FIXED];
    let got = acc.peek(&mut head);
    let head = match PortalsMessage::peek_stream_head(&head[..got]) {
        Ok(Some(h)) => h,
        Ok(None) => return MsgStream::Head(acc),
        Err(_) => {
            shared.dropped_garbage.inc();
            node_drop_trace(shared, "garbage");
            return MsgStream::Discard;
        }
    };
    let (target, payload_at) = match &head {
        StreamHead::Put { header, .. } => (header.target, PortalsMessage::PUT_PAYLOAD_AT),
        StreamHead::Reply { header } => (header.target, PortalsMessage::REPLY_PAYLOAD_AT),
        StreamHead::Other => return MsgStream::Accumulate(acc),
    };
    let Some(core) = lookup(shared, target) else {
        return MsgStream::Discard;
    };
    // A host-driven node hands raw messages to the application: whole.
    if shared.mode == ProgressMode::HostDriven {
        return MsgStream::Accumulate(acc);
    }
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
/// did not total what its header declared, abort it: the same verdict
/// [`PortalsMessage::decode_gather`] gives a message that arrived whole.
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
        MsgStream::Head(acc) | MsgStream::Accumulate(acc) => dispatch(shared, &acc),
        MsgStream::Put(core, sink) => sink.finish(&core, shared),
        MsgStream::Reply(core, sink) => sink.finish(&core, shared),
        MsgStream::Discard => {}
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
    shared.dropped_garbage.inc();
    node_drop_trace(shared, "garbage");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, MdSpec, MePos, NiConfig, Node, NodeConfig};
    use portals_net::Fabric;
    use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, Region};
    use portals_wire::{PutRequest, RequestHeader, RAW_HANDLE_NONE};

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
