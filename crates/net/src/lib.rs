//! A simulated system-area network fabric — the Myrinet stand-in.
//!
//! The paper's implementations ran over real Myrinet hardware (with the RTS/CTS
//! kernel module or MCP firmware underneath Portals). This crate provides the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * **unreliable datagram service** between attached NICs — packets, not
//!   messages; reliability is the transport's job (as it was the RTS/CTS
//!   module's);
//! * a **link model** with per-hop latency, finite bandwidth (serialization
//!   delay) and per-packet overhead, so put/get benches show realistic
//!   latency/bandwidth curves;
//! * **in-order per-(src,dst) delivery** in the fault-free configuration — the
//!   property Portals assumes of its transport — with optional *fault injection*
//!   (loss, duplication, jitter-induced reordering, partitions) so the
//!   transport's recovery machinery can be tested;
//! * fabric-wide **statistics**.
//!
//! The fabric is in-process: every simulated node attaches a [`Nic`], and a
//! single scheduler thread models the wire, delivering packets at their computed
//! arrival times.

#![warn(missing_docs)]

mod clock;
mod config;
mod driver;
mod fabric;
mod fault;
mod link;
mod nic;
mod stats;

pub use clock::SimClock;
pub use config::{FabricConfig, LinkModel};
pub use driver::{DriverHub, DriverRegistry, NodeDriver};
pub use fabric::Fabric;
pub use fault::FaultPlan;
pub use link::{Link, LinkCaps};
pub use nic::{Datagram, Nic, RecvError};
pub use stats::FabricStats;
