//! Reliable, ordered, connectionless message delivery — the RTS/CTS-module
//! stand-in.
//!
//! §3 of the paper: on Cplant™, Portals sat on an "RTS/CTS module, which is
//! responsible for packetization and flow control", with the Myrinet control
//! program underneath as "essentially a packet delivery device". Portals itself
//! *assumes* its transport provides "protected, reliable, in-order delivery"
//! (§2) while remaining connectionless from the application's point of view.
//!
//! This crate provides that contract over the (possibly lossy) simulated fabric:
//!
//! * **packetization** — messages are fragmented to a configurable MTU
//!   ([`TransportConfig::mtu`]);
//! * **flow control** — a per-destination go-back-N sliding window
//!   ([`TransportConfig::window`]) bounds in-flight packets;
//! * **reliability** — cumulative acknowledgments, retransmission with
//!   exponential backoff, duplicate suppression, in-order reassembly;
//! * **connectionless API** — [`Endpoint::send`] takes a destination and a
//!   message; per-peer state is created lazily on first use and is invisible to
//!   callers, exactly as Portals requires ("a process is not required to
//!   explicitly establish a point-to-point connection", §4.1).
//!
//! The protocol state machines ([`peer`]) are pure — they consume events and
//! return actions — so the reliability logic is exercised directly by unit and
//! property tests, independent of threads and clocks.
//!
//! On permanent unreachability: the paper's machines treated node death as a
//! job-level event (the runtime tears the job down), not a transport-level one,
//! so this transport never "gives up" — it retries with capped backoff for as
//! long as the endpoint lives, and exposes a *stalled peer* gauge the runtime
//! can watch.

#![warn(missing_docs)]

pub mod config;
mod core;
pub mod endpoint;
pub mod peer;
pub mod stats;

pub use config::TransportConfig;
pub use endpoint::{Delivery, Endpoint, IncomingMessage, StreamFragment};
pub use portals_types::ProgressMode;
pub use stats::TransportStats;
