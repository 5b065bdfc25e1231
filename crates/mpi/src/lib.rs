//! An MPI-subset message passing layer over Portals.
//!
//! §5.2 of the paper: "The semantics of Portals 3.0 support the necessary
//! progress engine for an MPI implementation without the need for explicit
//! application intervention." This crate demonstrates that claim — and its
//! negation — by running one wire protocol under two matching choices:
//!
//! * **The protocol.** A message of at most
//!   [`MpiConfig::slab_min_free`](config::MpiConfig::slab_min_free) bytes is
//!   one eager put. A longer one exposes the send buffer for a get, then is
//!   one put flagged long: a posted receive takes it whole, and the ack
//!   completes the send; with no receive posted, an overflow entry truncates
//!   it to nothing and records it, and the receiver pulls it with one get
//!   once the receive is posted. Unexpected eager messages land in
//!   managed-offset overflow slabs, exactly the "amount of memory ... based
//!   on the needs and behavior of the application" design of §4.1.
//!
//! * [`Protocol::HardwareMatching`] — the Portals way. Posted receives become
//!   match entries + memory descriptors; incoming messages of *any* size are
//!   steered directly into the user buffer by the receive engine (NIC
//!   firmware in the paper, the node's NIC thread here) with no library
//!   involvement. A receive is posted by one interface call that, under
//!   the portal lock, either claims the oldest matching unexpected message
//!   or links the receive, so no arrival slips between the two.
//!
//! * [`Protocol::LibraryMatching`] — the GM-style baseline of §5.3. No
//!   receiver-side hardware matching: every message overflows, short ones
//!   are copied out of the slabs by the library, and long ones are pulled
//!   by the *library* with a get. All matching happens inside MPI calls, so
//!   if the application computes instead of calling MPI, nothing moves — the
//!   behaviour Figure 6 shows for MPICH/GM.
//!
//! Combined with the node's progress mode
//! ([`ProgressMode`](portals::ProgressMode)), this reproduces the paper's
//! §5.3 experiment: see [`bypass`].
//!
//! MPI ordering (non-overtaking) holds because the transport is ordered per
//! process pair, the interface records unexpected arrivals in wire order,
//! and receives are offered to it in posting order, none overtaking one
//! still waiting for its message to land.

#![warn(missing_docs)]

pub mod bits;
pub mod bypass;
pub mod comm;
pub mod config;
pub mod engine;
pub mod nx;
pub mod osc;
pub mod request;

pub use comm::{Communicator, Mpi};
pub use config::{MpiConfig, Protocol};
pub use engine::{AdaptiveReport, MpiEngine};
pub use osc::{RmaRequest, WinAccumulate, WinGet, WinPut, Window};
pub use portals::{AtomicDatatype, AtomicOp};
pub use request::{Completion, Request, Status};
