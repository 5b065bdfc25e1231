//! An MPI-subset message passing layer over Portals.
//!
//! §5.2 of the paper: "The semantics of Portals 3.0 support the necessary
//! progress engine for an MPI implementation without the need for explicit
//! application intervention." This crate demonstrates that claim — and its
//! negation — by implementing the same MPI surface over two protocols:
//!
//! * [`Protocol::EagerDirect`] — the Portals way. Posted receives become match
//!   entries + memory descriptors; incoming messages of *any* size are steered
//!   directly into the user buffer by the receive engine (NIC firmware in the
//!   paper, the node's NIC thread here) with no library involvement.
//!   Unexpected messages land in managed-offset overflow slabs, exactly the
//!   "amount of memory ... based on the needs and behavior of the application"
//!   design of §4.1. The race between posting a receive and an unexpected
//!   arrival is closed with the spec's `PtlMDUpdate` conditional update.
//!
//! * [`Protocol::Rendezvous`] — the GM-style baseline of §5.3. No receiver-side
//!   hardware matching: short messages are buffered and copied by the library,
//!   long messages send a request-to-send and the *library* later pulls the
//!   payload with a get. All matching happens inside MPI calls, so if the
//!   application computes instead of calling MPI, nothing moves — the behaviour
//!   Figure 6 shows for MPICH/GM.
//!
//! Combined with the node's progress mode
//! ([`ProgressMode`](portals::ProgressMode)), this reproduces the paper's
//! §5.3 experiment: see [`bypass`].
//!
//! MPI ordering (non-overtaking) holds because the transport is ordered per
//! process pair, the Portals event queue serializes arrivals, and matching —
//! hardware or software — always examines receives in posting order and
//! arrivals in wire order.

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
