//! The [`Link`] trait: what the transport needs from a wire.
//!
//! The transport's reliability machinery (go-back-N windows, cumulative acks,
//! credit flow control) was written against the in-process [`Nic`] — but
//! nothing in it is specific to a simulated wire. This trait captures the
//! exact contract the transport consumes: an unreliable, unordered-in-the-
//! worst-case datagram service with a doorbell. Backends:
//!
//! * the in-process fabric ([`Nic`] — deterministic, seeded fault injection,
//!   modelled latency/bandwidth; stays authoritative for protocol testing);
//! * a real UDP socket (`portals-netudp` — real OS boundaries, real loss).
//!
//! # Delivery guarantees (and non-guarantees)
//!
//! A `Link` promises *at-most-once, possibly-reordered, possibly-lost*
//! datagram delivery and nothing more. The fault-free fabric happens to be
//! reliable and in-order; UDP over loopback usually is too; the transport
//! must not (and does not) depend on either. A backend that can corrupt
//! payloads in flight says so in [`LinkCaps::body_checksum`], and the
//! transport extends packet CRCs over the body.

use crate::driver::DriverHub;
use crate::nic::Datagram;
use portals_types::{DoorbellQueue, Gather, NodeId};
use std::sync::Arc;
use std::time::Instant;

/// What a wire says about itself. The transport asks once, when an endpoint
/// is built on the link.
#[derive(Debug)]
pub struct LinkCaps {
    /// Handle for cooperative caller-driven progress among the nodes sharing
    /// this backend's process, and — on a backend whose link takes datagrams
    /// on a receive thread of its own — for hosting the endpoint's step on
    /// that thread ([`DriverHub::host`]).
    pub hub: DriverHub,
    /// Hard upper bound on a single datagram's payload size, if the wire has
    /// one (a UDP socket does; the in-process fabric does not). The
    /// transport clamps its MTU to this.
    pub max_datagram: Option<usize>,
    /// The fragment size this wire performs best at, if it has an opinion.
    /// Adopted by the transport when its MTU is left at the follow-the-link
    /// default (`TransportConfig::mtu = 0` in `portals-transport`); an
    /// explicitly configured MTU always wins. A socket backend with a real
    /// frame size limit leaves this `None` and states `max_datagram`.
    pub preferred_mtu: Option<usize>,
    /// `true` when this wire can corrupt payload bytes in flight, so packet
    /// CRCs must cover bodies, not just headers. The in-process fabric
    /// hands over refcounted memory and says `false`; real sockets say
    /// `true`.
    pub body_checksum: bool,
}

/// An unreliable datagram endpoint bound to one node id — the lowest layer
/// the transport builds on.
///
/// The queueing contract: a datagram accepted by [`Link::send`] is either
/// pushed onto the destination's inbound queue (which raises
/// [`Readiness::INBOUND`](portals_types::Readiness::INBOUND) on its doorbell
/// after the enqueue) or silently dropped. Sends never block on the receiver
/// and never report failure — exactly a NIC ring buffer's semantics; recovery
/// is the caller's job.
pub trait Link: Send + Sync + 'static {
    /// The node id this endpoint is bound to.
    fn nid(&self) -> NodeId;

    /// Fire a datagram at `dst`. Best-effort: may be dropped on the floor
    /// (unroutable, lossy wire, full socket buffer) without feedback.
    fn send(&self, dst: NodeId, payload: Gather);

    /// Fire a batch of datagrams in one call. Same per-datagram semantics as
    /// [`Link::send`] — each datagram is independently best-effort, and the
    /// batch implies nothing about ordering or atomicity. The default loops
    /// over `send`, so backends without a batched wire primitive are
    /// untouched. Both backends here override it: the socket backend to
    /// amortize the OS boundary (`sendmmsg`: one syscall for the whole
    /// vector), the in-process fabric ([`Nic`](crate::Nic)) so that on its
    /// bypass wire each run of datagrams to one node is one push onto that
    /// node's inbound queue (one lock, one doorbell ring). The transport
    /// sends an ACK it owes a peer in front of the next data to that peer,
    /// in one such batch.
    fn send_batch(&self, batch: Vec<(NodeId, Gather)>) {
        for (dst, payload) in batch {
            self.send(dst, payload);
        }
    }

    /// The inbound queue. All arriving datagrams land here, in arrival
    /// order; its doorbell ([`DoorbellQueue::readiness`]) is the one the node
    /// built on this link parks on.
    fn inbound_receiver(&self) -> Arc<DoorbellQueue<Datagram>>;

    /// This wire's properties and its [`DriverHub`].
    fn caps(&self) -> LinkCaps;

    /// On a caller-pumped wire, deliver every due packet and return the next
    /// delivery deadline. Backends with their own delivery agent (a
    /// scheduler thread, a socket rx thread — which on UDP also runs the
    /// step that calls this) return `None` and need no pumping.
    fn pump_wire(&self) -> Option<Instant> {
        None
    }

    /// Delivery deadline of the earliest packet a caller-pumped wire is
    /// holding, without pumping it. `None` when idle or not caller-pumped.
    fn next_wire_deadline(&self) -> Option<Instant> {
        None
    }
}
