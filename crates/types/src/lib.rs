//! Core identifiers, handles, match bits, limits and error codes shared by every
//! layer of the Portals 3.0 reproduction.
//!
//! This crate is deliberately dependency-light: everything above it — the network
//! fabric, the transport, the Portals library itself, the MPI layer and the
//! runtime — agrees on these vocabulary types.
//!
//! The names follow the Portals 3.0 specification (Sandia tech report SAND99-2959)
//! where a direct analogue exists: [`ProcessId`] is `ptl_process_id_t`,
//! [`MatchBits`] is `ptl_match_bits_t`, [`PtlError`] collects the `PTL_*` return
//! codes, and the `*_handle` types correspond to `ptl_handle_*_t`.

#![warn(missing_docs)]

pub mod arena;
pub mod error;
pub mod gather;
pub mod id;
pub mod limits;
pub mod matchbits;
pub mod pool;
pub mod readiness;
pub mod region;
pub mod shard;
pub mod stripe;

pub use arena::{Arena, Handle};
pub use error::{
    CollError, FsError, PtlError, PtlResult, RecvError, Tag, TagError, WireError,
    COLL_TAG_BASE_OFFSET, MAX_USER_TAG,
};
pub use gather::Gather;
pub use id::{NodeId, ProcessId, Rank, UserId, ANY_NID, ANY_PID};
pub use limits::NiLimits;
pub use matchbits::{MatchBits, MatchCriteria};
pub use pool::RegionPool;
pub use readiness::{cpus_online, DoorbellQueue, Driving, ProgressMode, Readiness, StandBy};
pub use region::Region;
pub use shard::Table;
