//! Real-network UDP backend for the Portals transport.
//!
//! Everything above the [`Link`](portals_net::Link) trait — the go-back-N
//! transport, the Portals building blocks, MPI, the runtime — was developed
//! against the in-process simulated fabric. This crate swaps the bottom
//! layer for an actual UDP socket, so the same protocol stack runs across
//! real OS process boundaries with real (or shimmed-in) datagram loss:
//!
//! * [`UdpLink`] — one UDP socket presented as a `Link`: an rx thread drains
//!   the socket into the inbound queue, sends frame-and-forward from the
//!   calling thread, a `NodeId` → `SocketAddr` peer table does the routing
//!   (seeded by rendezvous, refreshed by learning inbound source addresses).
//! * [`frame`] — the 18-byte datagram frame carrying node-id routing and a
//!   header CRC; payload integrity rides on the transport packet's own CRC,
//!   which [`UdpLink`] forces on via `LinkCaps::body_checksum`.
//! * [`RendezvousServer`] / [`register`] — the discovery service: N
//!   processes register `(job, rank, nprocs, udp-addr)` over TCP and all
//!   receive the ordered peer address list once the job is complete.
//!
//! The in-process fabric stays the reference backend — deterministic,
//! seeded faults, modelled latency — and this crate is the proof that the
//! layering holds: `Endpoint::new(UdpLink::bind(..)?, cfg)` is the entire
//! integration surface.

#![warn(missing_docs)]

pub mod frame;
mod link;
mod mmsg;
mod rendezvous;
mod stats;

pub use link::{UdpLink, UdpLinkConfig};
pub use mmsg::UDP_MAX_DATAGRAM;
pub use rendezvous::{register, RendezvousServer, RendezvousTicket};
pub use stats::UdpStats;
