//! The one sanctioned import surface for applications built on Portals.
//!
//! `use portals::prelude::*;` brings in everything a consumer of the stack
//! needs — node/interface construction, the op-spec builders, memory and
//! match-entry specs, events, handles, the vocabulary types, and every
//! per-layer error enum — without reaching into individual modules or
//! sibling crates. Code layered *inside* the stack (transport, wire, the
//! engine) keeps importing precisely; applications, examples, and tests
//! should start here.
//!
//! ```
//! use portals::prelude::*;
//! use portals_net::Fabric;
//! use portals_types::NodeId;
//!
//! let fabric = Fabric::ideal();
//! let node = Node::new(fabric.attach(NodeId(0)), Default::default());
//! let ni = node.create_ni(1, NiConfig::default()).unwrap();
//! let md = ni.md_bind(MdSpec::new(Region::zeroed(64))).unwrap();
//! let err = ni
//!     .put_op(md)
//!     .submit() // no target: rejected before anything hits the wire
//!     .unwrap_err();
//! assert_eq!(err, PtlError::InvalidArgument);
//! ```

// Construction: nodes and interfaces.
pub use crate::ni::{AckRequest, NetworkInterface, NiConfig, NACK_MLENGTH};
pub use crate::node::{Node, NodeConfig, ProcessDirectory};
pub use portals_transport::TransportConfig;
pub use portals_types::ProgressMode;

// Data movement: op-spec builders and the atomic vocabulary.
pub use crate::builder::{AtomicBuilder, GetBuilder, PutBuilder};
pub use portals_wire::{AtomicDatatype, AtomicOp};

// Memory descriptors, match entries, portal-table placement.
pub use crate::md::{MdOptions, MdSpec, ReqOp, Threshold};
pub use crate::table::{MePos, Posted, Unexpected};

// Completion: events and counting events.
pub use crate::ct::CtValue;
pub use crate::event::{Event, EventKind};

// Observability: drop accounting.
pub use crate::counters::{DropReason, NiCounters};

// Handles.
pub use crate::{CtHandle, EqHandle, MdHandle, MeHandle};

// Vocabulary types shared by every layer.
pub use portals_types::{Gather, MatchBits, MatchCriteria, NodeId, ProcessId, Rank, Region};

// Errors: every layer's enum.
pub use portals_types::{CollError, FsError, PtlError, PtlResult, RecvError, TagError, WireError};
