//! Wire formats for the Portals 3.0 reproduction.
//!
//! §4.6 of the paper ("The Semantics of Message Transmission") defines exactly
//! four message types and enumerates the information each carries on the wire:
//!
//! | Table | Type | New (non-echoed) information |
//! |-------|------|------------------------------|
//! | 1 | put request | everything, plus payload |
//! | 2 | acknowledgment | manipulated length |
//! | 3 | get request | everything (no event-queue handle) |
//! | 4 | reply | manipulated length + payload |
//!
//! This crate implements those formats with a fixed little-endian layout, plus
//! the packet header used by the transport (the RTS/CTS-module stand-in) for
//! fragmentation and reliability.
//!
//! A Portals message is an envelope, its fixed fields, then its payload, and
//! one decoder knows that layout: [`PortalsMessage::head`] reads the first
//! two from a message's leading bytes and says where the payload starts and
//! how long the header declares it, with checked arithmetic, so a span no
//! buffer could hold is a [`WireError`]. The stream machine that scatters a
//! payload as it arrives and [`PortalsMessage::decode_gather`] both stand on
//! it; [`PortalsMessage::encode_gather`] is the one encoder.
//!
//! One deliberate deviation from Table 1 is documented in [`put::PutRequest`]:
//! the put request carries the initiator's *event queue* handle alongside the
//! memory-descriptor handle, because §4.8 requires the acknowledgment to name
//! the event queue directly ("Acknowledgment messages include a handle for the
//! event queue where the event should be recorded").

#![warn(missing_docs)]

pub mod ack;
pub mod atomic;
pub mod checksum;
pub mod error;
pub mod get;
pub mod header;
pub mod message;
pub mod op;
pub mod packet;
pub mod put;
pub mod reply;

pub use ack::Ack;
pub use atomic::{AtomicDatatype, AtomicOp, AtomicRequest};
pub use error::WireError;
pub use get::GetRequest;
pub use header::{RawHandle, RequestHeader, ResponseHeader, RAW_HANDLE_NONE};
pub use message::{Head, PortalsMessage};
pub use op::Operation;
pub use packet::{Packet, PacketHeader, PacketKind};
pub use put::PutRequest;
pub use reply::Reply;
