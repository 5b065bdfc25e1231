//! Portals 3.0 — protocol building blocks for low overhead communication.
//!
//! This crate is the paper's primary contribution rebuilt in Rust: a
//! connectionless, *matching* put/get data-movement API in which the target —
//! not the application — decides where incoming messages land.
//!
//! # The model (§4 of the paper)
//!
//! * A **Portal** is an opening in a process's address space: an index into the
//!   per-process *Portal table*, each entry of which heads an ordered **match
//!   list** ([`me`]).
//! * Each match entry carries must-match/ignore bit patterns plus a source
//!   process filter, and a list of **memory descriptors** ([`md`]); only the
//!   *first* MD of a matching entry is considered for an incoming operation.
//! * MDs name a memory region, an operation mask, a threshold, truncate/unlink
//!   behaviour, and an optional **event queue** ([`event`]) where completed
//!   operations are logged.
//! * **Access control lists** ([`acl`]) gate put/get requests by initiator
//!   process id and portal index, with wildcards (§4.5).
//! * Four message types cross the wire — put request, acknowledgment, get
//!   request, reply (§4.6, implemented in `portals-wire`) — and the receive
//!   rules of §4.8, including every reason a message may be dropped and the
//!   per-interface dropped-message counters, are implemented in [`engine`].
//!
//! # Progress models (§5.1/5.3)
//!
//! The defining experiment of the paper contrasts *application bypass* —
//! message selection and delivery proceed with no application involvement,
//! as when Portals runs in NIC firmware — against host-driven layers (GM-style)
//! that only make progress inside library calls. Both are first-class here:
//! see [`ProgressMode`], a property of the node. A bypass node's NIC thread
//! (our "NIC firmware") runs the receive rules; a host-driven node's NIC
//! thread enqueues raw messages that are processed only inside API calls on
//! the application's thread.
//!
//! # Quick start
//!
//! Applications should import through [`prelude`] — the one sanctioned
//! surface covering construction, builders, specs, events, handles, and the
//! layered [`ErrorKind`]:
//!
//! ```
//! use portals::{Node, NiConfig, MdSpec, Region, AckRequest, MePos};
//! use portals_net::{Fabric, FabricConfig};
//! use portals_types::{MatchCriteria, MatchBits, NodeId, ProcessId};
//!
//! let fabric = Fabric::ideal();
//! let sender_node = Node::new(fabric.attach(NodeId(0)), Default::default());
//! let target_node = Node::new(fabric.attach(NodeId(1)), Default::default());
//! let sender = sender_node.create_ni(1, NiConfig::default()).unwrap();
//! let target = target_node.create_ni(1, NiConfig::default()).unwrap();
//!
//! // Target: portal 4 accepts puts with match bits 42 into a 1 KiB buffer.
//! let eq = target.eq_alloc(16).unwrap();
//! let me = target
//!     .me_attach(4, ProcessId::ANY, MatchCriteria::exact(MatchBits::new(42)), false, MePos::Back)
//!     .unwrap();
//! let buf = Region::zeroed(1024);
//! target.md_attach(me, MdSpec::new(buf.clone()).with_eq(eq)).unwrap();
//!
//! // Initiator: bind the outgoing buffer and put.
//! let src = Region::from_vec(b"hello, portals".to_vec());
//! let md = sender.md_bind(MdSpec::new(src)).unwrap();
//! sender
//!     .put_op(md)
//!     .target(ProcessId::new(1, 1), 4)
//!     .bits(MatchBits::new(42))
//!     .ack(AckRequest::NoAck)
//!     .submit()
//!     .unwrap();
//!
//! let ev = target.eq_wait(eq).unwrap();
//! assert_eq!(ev.mlength, 14);
//! assert_eq!(buf.read_vec(0, 14), b"hello, portals");
//! ```

#![warn(missing_docs)]

pub mod acl;
pub mod bench_support;
pub mod builder;
pub mod counters;
pub mod ct;
pub mod engine;
pub mod event;
pub mod md;
pub mod me;
pub mod ni;
pub mod node;
pub mod prelude;
pub(crate) mod stream;
pub mod table;
pub mod triggered;

pub use acl::{AcEntry, AcMatch, AccessControlList, PortalMatch};
pub use builder::{AtomicBuilder, GetBuilder, PutBuilder};
pub use counters::{DropReason, NiCounters};
pub use ct::{CountingEvent, CtValue};
pub use event::{Event, EventKind, EventQueue};
pub use md::{Md, MdMemory, MdOptions, MdSpec, MdVerdict, ReqOp, Segment, Threshold};
pub use me::MatchEntry;
pub use ni::{AckRequest, NetworkInterface, NiConfig, NACK_MLENGTH};
pub use node::{Node, NodeConfig, ProcessDirectory};
pub use portals_transport::TransportConfig;
pub use portals_types::{ErrorKind, Gather, ProgressMode, Region, RegionPool};
pub use portals_wire::{AtomicDatatype, AtomicOp};
pub use table::MePos;

/// Handle to a memory descriptor.
pub type MdHandle = portals_types::Handle<md::Md>;
/// Handle to a match entry.
pub type MeHandle = portals_types::Handle<me::MatchEntry>;
/// Handle to an event queue.
pub type EqHandle = portals_types::Handle<event::EventQueue>;
/// Handle to a counting event.
pub type CtHandle = portals_types::Handle<ct::CountingEvent>;
