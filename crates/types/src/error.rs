//! Error codes.
//!
//! Portals 3.0 is a C API returning `PTL_*` status codes; we map those onto a Rust
//! error enum. The variants keep the spec's names (minus the prefix) so the
//! correspondence with the paper and the SAND report is direct.
//!
//! Every layer's error enum is *defined* here — [`WireError`], [`RecvError`],
//! [`CollError`], [`FsError`], [`TagError`] — and re-exported from its home
//! crate, so the layered [`ErrorKind`] can wrap all of them losslessly without
//! inverting the crate dependency order. Code above the owning layer matches on
//! `ErrorKind`; code inside a layer keeps using its own enum.

use std::fmt;

/// Result alias used across the Portals crates.
pub type PtlResult<T> = Result<T, PtlError>;

/// The Portals error codes (spec: `ptl_err_t`).
///
/// Only the codes the library can actually produce are represented; codes tied to
/// C-API misuse that Rust's type system makes unrepresentable (e.g. invalid handle
/// *types*) are omitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtlError {
    /// Generic failure (`PTL_FAIL`).
    Fail,
    /// A table, queue or list has no free space (`PTL_NO_SPACE`).
    NoSpace,
    /// An argument was out of range or otherwise invalid (`PTL_INV_ARG` family).
    InvalidArgument,
    /// A stale or never-valid memory-descriptor handle (`PTL_INV_MD`).
    InvalidMd,
    /// A stale or never-valid match-entry handle (`PTL_INV_ME`).
    InvalidMe,
    /// A stale or never-valid event-queue handle (`PTL_INV_EQ`).
    InvalidEq,
    /// A stale or never-valid counting-event handle (`PTL_INV_CT`; triggered-ops
    /// extension — counting events postdate the 3.0 spec).
    InvalidCt,
    /// A bad network-interface handle (`PTL_INV_NI`).
    InvalidNi,
    /// Portal table index out of range (`PTL_INV_PTINDEX`).
    InvalidPortalIndex,
    /// Access-control index out of range (`PTL_AC_INV_INDEX`).
    InvalidAcIndex,
    /// Process id malformed for this operation (`PTL_INV_PROC`).
    InvalidProcess,
    /// The event queue was empty (`PTL_EQ_EMPTY`).
    EqEmpty,
    /// Events were dropped because the circular queue wrapped over unconsumed
    /// entries (`PTL_EQ_DROPPED`). Carries the event that *was* successfully read.
    EqDropped,
    /// The MD has pending operations and cannot be unlinked/updated
    /// (`PTL_MD_IN_USE`).
    MdInUse,
    /// An MD update lost the race with the progress engine (`PTL_NOUPDATE`).
    NoUpdate,
    /// The operation would exceed a configured interface limit.
    LimitExceeded,
    /// The network interface has been shut down.
    NiShutdown,
    /// A blocking call timed out (extension; the C API used polling instead).
    Timeout,
}

impl PtlError {
    /// Short spec-style name, e.g. `PTL_NO_SPACE`.
    pub fn spec_name(self) -> &'static str {
        match self {
            PtlError::Fail => "PTL_FAIL",
            PtlError::NoSpace => "PTL_NO_SPACE",
            PtlError::InvalidArgument => "PTL_INV_ARG",
            PtlError::InvalidMd => "PTL_INV_MD",
            PtlError::InvalidMe => "PTL_INV_ME",
            PtlError::InvalidEq => "PTL_INV_EQ",
            PtlError::InvalidCt => "PTL_INV_CT",
            PtlError::InvalidNi => "PTL_INV_NI",
            PtlError::InvalidPortalIndex => "PTL_INV_PTINDEX",
            PtlError::InvalidAcIndex => "PTL_AC_INV_INDEX",
            PtlError::InvalidProcess => "PTL_INV_PROC",
            PtlError::EqEmpty => "PTL_EQ_EMPTY",
            PtlError::EqDropped => "PTL_EQ_DROPPED",
            PtlError::MdInUse => "PTL_MD_IN_USE",
            PtlError::NoUpdate => "PTL_NOUPDATE",
            PtlError::LimitExceeded => "PTL_LIMIT_EXCEEDED",
            PtlError::NiShutdown => "PTL_NI_SHUTDOWN",
            PtlError::Timeout => "PTL_TIMEOUT",
        }
    }
}

impl fmt::Display for PtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_name())
    }
}

impl std::error::Error for PtlError {}

// ---------------------------------------------------------------------------
// Layer error enums, defined here so `ErrorKind` can wrap them all.
// Each is re-exported from the crate that conceptually owns it.
// ---------------------------------------------------------------------------

/// Why a buffer failed to decode (owned by `portals-wire`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header for its claimed type.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// First byte is not a known operation code.
    UnknownOperation(u8),
    /// Atomic request carried an unknown op or datatype byte.
    UnknownAtomic(u8),
    /// Unknown packet kind byte.
    UnknownPacketKind(u8),
    /// Declared payload length disagrees with the buffer.
    LengthMismatch {
        /// Length the header declared.
        declared: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Magic bytes / version did not match.
    BadMagic,
    /// Stored checksum disagrees with the checksum of the received bytes —
    /// the datagram was corrupted in flight.
    Checksum {
        /// Checksum the sender stored in the header.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated buffer: need {needed} bytes, have {available}")
            }
            WireError::UnknownOperation(b) => write!(f, "unknown operation code {b:#04x}"),
            WireError::UnknownAtomic(b) => write!(f, "unknown atomic op/datatype byte {b:#04x}"),
            WireError::UnknownPacketKind(b) => write!(f, "unknown packet kind {b:#04x}"),
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header declares {declared}, buffer has {actual}"
                )
            }
            WireError::BadMagic => f.write_str("bad magic/version"),
            WireError::Checksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: header stores {stored:#010x}, bytes hash to {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Errors from the fabric receive calls (owned by `portals-net`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// `try_recv` found nothing pending.
    Empty,
    /// `recv_timeout` expired.
    Timeout,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Empty => f.write_str("no packet pending"),
            RecvError::Timeout => f.write_str("receive timed out"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A collective that could not complete correctly (owned by `portals-runtime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollError {
    /// A peer's message did not fit the receive buffer sized for it — the
    /// ranks disagree about the collective's geometry.
    Truncated {
        /// Bytes the receive buffer was sized for.
        expected: usize,
        /// Bytes the peer actually sent.
        got: usize,
    },
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::Truncated { expected, got } => write!(
                f,
                "collective message truncated: expected {expected} bytes, peer sent {got}"
            ),
        }
    }
}

impl std::error::Error for CollError {}

/// Client-visible file-service errors (owned by `portals-pfs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound,
    /// Access outside the file.
    OutOfRange,
    /// Server rejected the request.
    Rejected,
    /// Undecodable record.
    Malformed,
    /// No reply within the deadline.
    Timeout,
    /// Portals-level failure.
    Portals(PtlError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => f.write_str("file not found"),
            FsError::OutOfRange => f.write_str("access out of range"),
            FsError::Rejected => f.write_str("request rejected"),
            FsError::Malformed => f.write_str("malformed record"),
            FsError::Timeout => f.write_str("file server timed out"),
            FsError::Portals(e) => write!(f, "portals error: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<PtlError> for FsError {
    fn from(e: PtlError) -> FsError {
        FsError::Portals(e)
    }
}

/// MPI tag (user tags must stay below [`MAX_USER_TAG`]). Lives here, beside
/// [`TagError`], so the error can render the layout bounds it enforces; the
/// MPI layer re-exports it.
pub type Tag = u32;

/// Tags at or above this value are reserved for internal protocols
/// (barrier rounds, collective plumbing).
pub const MAX_USER_TAG: Tag = 1 << 30;

/// First reserved offset granted to the collective library; barrier rounds
/// occupy reserved offsets *below* this.
pub const COLL_TAG_BASE_OFFSET: Tag = 0x100;

/// A tag was structurally unusable (owned by `portals-mpi`) — the typed
/// alternative to silently matching (or colliding with) internal-protocol
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagError {
    /// A user operation named a tag in the reserved range.
    ReservedTag {
        /// The offending tag.
        tag: Tag,
    },
    /// This world size needs more barrier-round tags than the reserved band
    /// below [`COLL_TAG_BASE_OFFSET`] provides: rounds would collide with
    /// collective-library tags.
    ReservedOverflow {
        /// World size that overflows the layout.
        nranks: usize,
    },
}

impl fmt::Display for TagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagError::ReservedTag { tag } => {
                write!(
                    f,
                    "tag {tag} is reserved (user tags must be < {MAX_USER_TAG})"
                )
            }
            TagError::ReservedOverflow { nranks } => write!(
                f,
                "{nranks} ranks need ≥ {COLL_TAG_BASE_OFFSET} barrier-round tags, \
                 colliding with collective tags"
            ),
        }
    }
}

impl std::error::Error for TagError {}

/// One error type spanning every layer of the stack.
///
/// Each variant wraps the owning layer's full enum, so conversion through
/// `From` is lossless in both information and type: `ErrorKind::from(e)` keeps
/// everything `e` carried, and matching on the variant recovers the original.
/// Flow-control failures in particular surface uniformly — a credit stall
/// times out as `Net(RecvError::Timeout)`, a server shedding load as
/// `Fs(FsError::Rejected)`, a disabled-portal drop as a Portals-level code —
/// without each consumer growing its own wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A Portals API / §4.8 receive-rule failure.
    Portals(PtlError),
    /// A fabric receive failure.
    Net(RecvError),
    /// A wire decode failure.
    Wire(WireError),
    /// A collective-library failure.
    Coll(CollError),
    /// A file-service failure.
    Fs(FsError),
    /// An MPI tag-space violation.
    Tag(TagError),
}

impl ErrorKind {
    /// The layer the error originated in, for logs and metrics labels.
    pub fn layer(&self) -> &'static str {
        match self {
            ErrorKind::Portals(_) => "portals",
            ErrorKind::Net(_) => "net",
            ErrorKind::Wire(_) => "wire",
            ErrorKind::Coll(_) => "coll",
            ErrorKind::Fs(_) => "fs",
            ErrorKind::Tag(_) => "tag",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::Portals(e) => write!(f, "portals: {e}"),
            ErrorKind::Net(e) => write!(f, "net: {e}"),
            ErrorKind::Wire(e) => write!(f, "wire: {e}"),
            ErrorKind::Coll(e) => write!(f, "coll: {e}"),
            ErrorKind::Fs(e) => write!(f, "fs: {e}"),
            ErrorKind::Tag(e) => write!(f, "tag: {e}"),
        }
    }
}

impl std::error::Error for ErrorKind {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ErrorKind::Portals(e) => Some(e),
            ErrorKind::Net(e) => Some(e),
            ErrorKind::Wire(e) => Some(e),
            ErrorKind::Coll(e) => Some(e),
            ErrorKind::Fs(e) => Some(e),
            ErrorKind::Tag(e) => Some(e),
        }
    }
}

impl From<PtlError> for ErrorKind {
    fn from(e: PtlError) -> ErrorKind {
        ErrorKind::Portals(e)
    }
}
impl From<RecvError> for ErrorKind {
    fn from(e: RecvError) -> ErrorKind {
        ErrorKind::Net(e)
    }
}
impl From<WireError> for ErrorKind {
    fn from(e: WireError) -> ErrorKind {
        ErrorKind::Wire(e)
    }
}
impl From<CollError> for ErrorKind {
    fn from(e: CollError) -> ErrorKind {
        ErrorKind::Coll(e)
    }
}
impl From<FsError> for ErrorKind {
    fn from(e: FsError) -> ErrorKind {
        ErrorKind::Fs(e)
    }
}
impl From<TagError> for ErrorKind {
    fn from(e: TagError) -> ErrorKind {
        ErrorKind::Tag(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_spec_names() {
        assert_eq!(PtlError::NoSpace.to_string(), "PTL_NO_SPACE");
        assert_eq!(PtlError::EqDropped.to_string(), "PTL_EQ_DROPPED");
    }

    #[test]
    fn errors_are_small() {
        // PtlError rides inside every result on the hot path; keep it a bare tag.
        assert_eq!(std::mem::size_of::<PtlError>(), 1);
    }

    #[test]
    fn error_kind_from_is_lossless() {
        // Every layer enum converts in and matches back out unchanged.
        let w = WireError::Truncated {
            needed: 8,
            available: 3,
        };
        assert_eq!(ErrorKind::from(w), ErrorKind::Wire(w));
        let r = RecvError::Timeout;
        assert_eq!(ErrorKind::from(r), ErrorKind::Net(r));
        let c = CollError::Truncated {
            expected: 64,
            got: 128,
        };
        assert_eq!(ErrorKind::from(c), ErrorKind::Coll(c));
        let fs = FsError::Portals(PtlError::NoSpace);
        assert_eq!(ErrorKind::from(fs), ErrorKind::Fs(fs));
        let t = TagError::ReservedTag { tag: MAX_USER_TAG };
        assert_eq!(ErrorKind::from(t), ErrorKind::Tag(t));
        assert_eq!(
            ErrorKind::from(PtlError::EqDropped),
            ErrorKind::Portals(PtlError::EqDropped)
        );
    }

    #[test]
    fn error_kind_display_names_the_layer() {
        let e = ErrorKind::from(RecvError::Timeout);
        assert_eq!(e.layer(), "net");
        assert_eq!(e.to_string(), "net: receive timed out");
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn fs_error_from_ptl_is_lossless() {
        assert_eq!(
            FsError::from(PtlError::Timeout),
            FsError::Portals(PtlError::Timeout)
        );
    }
}
