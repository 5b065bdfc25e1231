//! Memory descriptors.
//!
//! §4.4: "Each memory descriptor identifies a memory region and an optional
//! event queue." An MD is the unit that *accepts or rejects* an incoming
//! operation (§4.8 gives the exhaustive reject reasons: "the memory descriptor
//! has not been enabled for the incoming operation; or, the length specified in
//! the request is too long ... and the truncate option has not been enabled")
//! and the unit that auto-unlinks once consumed (Fig. 4).

use crate::{CtHandle, EqHandle};
use portals_types::{Gather, Region};
use portals_wire::{AtomicDatatype, AtomicOp};

/// One piece of a scattered memory region.
///
/// The backing store is a refcounted [`Region`]: the paper requires "all
/// buffers used in the transmission of messages are maintained in user-space"
/// (§4.1), so the application allocates the region and keeps a handle while
/// the NIC engine reads and writes it in place — our safe-Rust stand-in for
/// DMA into pinned user pages.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Backing region.
    pub region: Region,
    /// Start within the region.
    pub offset: usize,
    /// Bytes of the region this segment covers.
    pub len: usize,
}

impl Segment {
    /// A segment covering `region[offset..offset+len]`. Panics if the range
    /// exceeds the region (a program structure error, caught at build time).
    pub fn new(region: Region, offset: usize, len: usize) -> Segment {
        assert!(
            offset + len <= region.len(),
            "segment [{offset}, {}) exceeds buffer of {} bytes",
            offset + len,
            region.len()
        );
        Segment {
            region,
            offset,
            len,
        }
    }
}

/// The memory a descriptor names: one contiguous buffer, or a gather/scatter
/// list of segments.
///
/// Scattered regions are the paper's §7 future-work item ("we would like to
/// extend the API to support gather/scatter operations more efficiently"),
/// realized here: an incoming put scatters across the segments in order, a
/// get gathers from them, and region offsets address the *logical*
/// concatenation.
#[derive(Debug, Clone)]
pub enum MdMemory {
    /// A single region, first `length` bytes.
    Contiguous {
        /// Backing region.
        region: Region,
        /// Descriptor length (may cover a prefix of the region).
        length: usize,
    },
    /// An ordered gather/scatter list.
    Scattered {
        /// The pieces, addressed as their concatenation.
        segments: Vec<Segment>,
    },
}

impl MdMemory {
    /// Total logical length.
    pub fn len(&self) -> usize {
        match self {
            MdMemory::Contiguous { length, .. } => *length,
            MdMemory::Scattered { segments } => segments.iter().map(|s| s.len).sum(),
        }
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write `data` at logical `offset`. Caller has validated bounds.
    pub fn write(&self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        match self {
            MdMemory::Contiguous { region, .. } => {
                region.write(offset as usize, data);
            }
            MdMemory::Scattered { segments } => {
                let mut remaining = data;
                let mut logical = offset as usize;
                for seg in segments {
                    if remaining.is_empty() {
                        break;
                    }
                    if logical >= seg.len {
                        logical -= seg.len;
                        continue;
                    }
                    let n = remaining.len().min(seg.len - logical);
                    seg.region.write(seg.offset + logical, &remaining[..n]);
                    remaining = &remaining[n..];
                    logical = 0;
                }
                debug_assert!(remaining.is_empty(), "write past scattered region");
            }
        }
    }

    /// Scatter a [`Gather`]'s chunks into the region at logical `offset`,
    /// chunk by chunk — the wire segments are never coalesced first. This is
    /// the single unavoidable payload copy of the receive path: the move from
    /// the NIC's datagram buffers into the application's memory.
    pub fn write_gather(&self, offset: u64, data: &Gather) {
        let mut at = offset;
        for seg in data.segments() {
            self.write(at, seg);
            at += seg.len() as u64;
        }
    }

    /// Read `mlength` bytes at logical `offset` into a fresh `Vec` (the
    /// read half of an atomic's read-modify-write). Caller has validated
    /// bounds.
    pub fn read(&self, offset: u64, mlength: u64) -> Vec<u8> {
        match self {
            MdMemory::Contiguous { region, .. } => {
                region.read_vec(offset as usize, mlength as usize)
            }
            MdMemory::Scattered { segments } => {
                let mut out = Vec::with_capacity(mlength as usize);
                let mut logical = offset as usize;
                let mut want = mlength as usize;
                for seg in segments {
                    if want == 0 {
                        break;
                    }
                    if logical >= seg.len {
                        logical -= seg.len;
                        continue;
                    }
                    let n = want.min(seg.len - logical);
                    out.extend_from_slice(&seg.region.read_vec(seg.offset + logical, n));
                    want -= n;
                    logical = 0;
                }
                debug_assert_eq!(want, 0, "read past scattered region");
                out
            }
        }
    }

    /// Zero-copy gather of `[offset, offset + mlength)`: one region view for
    /// a contiguous descriptor, one view per overlapped segment for a
    /// scattered one — iovecs are never coalesced. Caller has validated
    /// bounds.
    pub fn gather(&self, offset: u64, mlength: u64) -> Gather {
        match self {
            MdMemory::Contiguous { region, .. } => {
                Gather::from_bytes(region.slice(offset as usize, mlength as usize))
            }
            MdMemory::Scattered { segments } => {
                let mut out = Gather::new();
                let mut logical = offset as usize;
                let mut want = mlength as usize;
                for seg in segments {
                    if want == 0 {
                        break;
                    }
                    if logical >= seg.len {
                        logical -= seg.len;
                        continue;
                    }
                    let n = want.min(seg.len - logical);
                    out.push(seg.region.slice(seg.offset + logical, n));
                    want -= n;
                    logical = 0;
                }
                debug_assert_eq!(want, 0, "gather past scattered region");
                out
            }
        }
    }
}

/// How many operations an MD will accept before going inactive (spec:
/// `ptl_md_t.threshold`, where `PTL_MD_THRESH_INF` never exhausts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threshold {
    /// Never exhausts.
    Infinite,
    /// Accepts this many more operations; at 0 the MD is inactive and rejects.
    Count(u32),
}

impl Threshold {
    /// True if the MD can still accept an operation.
    #[inline]
    pub fn active(self) -> bool {
        !matches!(self, Threshold::Count(0))
    }

    /// Consume one operation; returns the new value.
    #[inline]
    pub fn decrement(self) -> Threshold {
        match self {
            Threshold::Infinite => Threshold::Infinite,
            Threshold::Count(n) => Threshold::Count(n.saturating_sub(1)),
        }
    }
}

/// Behaviour flags (spec: `PTL_MD_OP_PUT`, `PTL_MD_OP_GET`, `PTL_MD_TRUNCATE`,
/// `PTL_MD_MANAGE_REMOTE`, `PTL_MD_EVENT_START_DISABLE`-era flags reduced to
/// what the paper's semantics need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdOptions {
    /// Accept incoming put operations.
    pub op_put: bool,
    /// Accept incoming get operations.
    pub op_get: bool,
    /// Accept over-long requests by truncating them (§4.8).
    pub truncate: bool,
    /// Ignore the initiator-supplied offset and use (then advance) a locally
    /// managed offset instead — the mechanism MPI uses to pack eager
    /// unexpected messages back-to-back into a buffer slab.
    pub manage_local_offset: bool,
    /// Unlink the MD from its match entry when the threshold reaches zero
    /// (spec: `PTL_UNLINK` vs `PTL_RETAIN`).
    pub unlink_on_exhaustion: bool,
    /// Unlink the MD once its remaining space falls below this many bytes
    /// (0 disables). This is the `max_size`/min-free mechanism later Portals
    /// revisions added for exactly the MPI unexpected-message slab: rotate to
    /// a fresh slab before a message could fail to fit. Only meaningful with
    /// `manage_local_offset`.
    pub min_free: usize,
}

impl Default for MdOptions {
    fn default() -> Self {
        MdOptions {
            op_put: true,
            op_get: true,
            truncate: true,
            manage_local_offset: false,
            unlink_on_exhaustion: false,
            min_free: 0,
        }
    }
}

/// Everything needed to create an MD (spec: `ptl_md_t`).
#[derive(Debug, Clone)]
pub struct MdSpec {
    /// The memory this descriptor names.
    pub region: MdMemory,
    /// Behaviour flags.
    pub options: MdOptions,
    /// Operation budget.
    pub threshold: Threshold,
    /// Event queue to log to, if any.
    pub eq: Option<EqHandle>,
    /// Counting event bumped by the §4.8 delivery paths, if any.
    pub ct: Option<CtHandle>,
}

impl MdSpec {
    /// Spec covering the whole region, default options, infinite threshold,
    /// no event queue.
    pub fn new(region: Region) -> MdSpec {
        let length = region.len();
        MdSpec {
            region: MdMemory::Contiguous { region, length },
            options: MdOptions::default(),
            threshold: Threshold::Infinite,
            eq: None,
            ct: None,
        }
    }

    /// Spec over a gather/scatter segment list (§7 future-work extension).
    pub fn scattered(segments: Vec<Segment>) -> MdSpec {
        MdSpec {
            region: MdMemory::Scattered { segments },
            options: MdOptions::default(),
            threshold: Threshold::Infinite,
            eq: None,
            ct: None,
        }
    }

    /// Set the event queue.
    pub fn with_eq(mut self, eq: EqHandle) -> MdSpec {
        self.eq = Some(eq);
        self
    }

    /// Attach a counting event: each §4.8 delivery through this descriptor
    /// (put delivered, get served, reply landed, ack consumed) counts one
    /// success on it.
    pub fn with_ct(mut self, ct: CtHandle) -> MdSpec {
        self.ct = Some(ct);
        self
    }

    /// Set the threshold.
    pub fn with_threshold(mut self, threshold: Threshold) -> MdSpec {
        self.threshold = threshold;
        self
    }

    /// Set the options.
    pub fn with_options(mut self, options: MdOptions) -> MdSpec {
        self.options = options;
        self
    }

    /// Restrict the region length (contiguous regions only).
    pub fn with_length(mut self, length: usize) -> MdSpec {
        match &mut self.region {
            MdMemory::Contiguous { length: l, .. } => *l = length,
            MdMemory::Scattered { .. } => {
                panic!("with_length applies to contiguous regions; size segments instead")
            }
        }
        self
    }
}

/// Why an MD turned an operation away (§4.8, final list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdReject {
    /// "the memory descriptor has not been enabled for the incoming operation"
    OpDisabled,
    /// The threshold is exhausted.
    Inactive,
    /// "the length specified in the request is too long ... and the truncate
    /// option has not been enabled"
    TooLong,
}

/// The MD's verdict on an incoming operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdVerdict {
    /// Accepted: move `mlength` bytes at `offset` within the region.
    Accept {
        /// Bytes to move (the *manipulated length*, §4.7).
        mlength: u64,
        /// Offset within the region actually used.
        offset: u64,
    },
    /// Rejected; translation continues down the match list (Fig. 4).
    Reject(MdReject),
}

/// The kind of incoming operation an MD is asked to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOp {
    /// A put request wants to write. A plain atomic also translates as a put
    /// (it only mutates; the initiator sees nothing back but the ack).
    Put,
    /// A get request wants to read.
    Get,
    /// A fetching atomic both reads (the prior value travels back) and
    /// writes, so the descriptor must enable both operations.
    FetchAtomic,
}

/// A live memory descriptor.
#[derive(Debug)]
pub struct Md {
    /// The memory region (shared with the application).
    pub region: MdMemory,
    /// Behaviour flags.
    pub options: MdOptions,
    /// Remaining operation budget.
    pub threshold: Threshold,
    /// Event queue handle, if logging.
    pub eq: Option<EqHandle>,
    /// Counting event bumped by the §4.8 delivery paths, if any.
    pub ct: Option<CtHandle>,
    /// Locally managed offset (used when `options.manage_local_offset`).
    pub local_offset: u64,
    /// Operations in flight that must complete before unlink (a get's MD
    /// "must not be unlinked until the reply is received", §4.7).
    pub pending_ops: u32,
    /// The match entry this MD is attached to, if any (`md_attach` sets it,
    /// `md_bind` leaves it `None`). Recorded so unlink can detach from the
    /// owning entry directly instead of scanning the whole entry table.
    pub owner: Option<crate::MeHandle>,
}

impl Md {
    /// Instantiate from a spec.
    pub fn from_spec(spec: MdSpec) -> Md {
        Md {
            region: spec.region,
            options: spec.options,
            threshold: spec.threshold,
            eq: spec.eq,
            ct: spec.ct,
            local_offset: 0,
            pending_ops: 0,
            owner: None,
        }
    }

    /// §4.8 acceptance check. Pure: does not mutate; [`Md::commit`] applies the
    /// side effects after the data movement succeeds.
    pub fn evaluate(&self, op: ReqOp, rlength: u64, req_offset: u64) -> MdVerdict {
        let enabled = match op {
            ReqOp::Put => self.options.op_put,
            ReqOp::Get => self.options.op_get,
            ReqOp::FetchAtomic => self.options.op_put && self.options.op_get,
        };
        if !enabled {
            return MdVerdict::Reject(MdReject::OpDisabled);
        }
        if !self.threshold.active() {
            return MdVerdict::Reject(MdReject::Inactive);
        }
        let offset = if self.options.manage_local_offset {
            self.local_offset
        } else {
            req_offset
        };
        let available = (self.region.len() as u64).saturating_sub(offset);
        if rlength <= available {
            MdVerdict::Accept {
                mlength: rlength,
                offset,
            }
        } else if self.options.truncate {
            MdVerdict::Accept {
                mlength: available,
                offset,
            }
        } else {
            MdVerdict::Reject(MdReject::TooLong)
        }
    }

    /// Apply the side effects of an accepted operation: consume threshold,
    /// advance the managed offset. Returns true if the MD should now be
    /// unlinked — because the threshold is exhausted with the unlink option
    /// set, or because remaining space dropped below `min_free`.
    pub fn commit(&mut self, mlength: u64, offset: u64) -> bool {
        self.threshold = self.threshold.decrement();
        if self.options.manage_local_offset {
            self.local_offset = offset + mlength;
        }
        let exhausted = self.options.unlink_on_exhaustion && !self.threshold.active();
        let starved = self.options.min_free > 0
            && self.options.manage_local_offset
            && (self.region.len() as u64).saturating_sub(self.local_offset)
                < self.options.min_free as u64;
        exhausted || starved
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Write `data` into the region at `offset` (the put side of data
    /// movement). Caller has already validated bounds via [`Md::evaluate`].
    pub fn write(&self, offset: u64, data: &[u8]) {
        self.region.write(offset, data);
    }

    /// Read `mlength` bytes from the region at `offset` (the get side).
    pub fn read(&self, offset: u64, mlength: u64) -> Vec<u8> {
        self.region.read(offset, mlength)
    }

    /// Apply an atomic read-modify-write at `offset` and return the *prior*
    /// bytes. `operand` holds one value per 8-byte lane (for CAS it is
    /// `compare ++ operand`, and the caller has validated a single lane).
    ///
    /// Atomicity comes from the caller, not this method: the engine holds the
    /// portal's list lock across translation, this RMW and the event push —
    /// the same lock that serializes put delivery — so concurrent atomics
    /// from any number of initiators compose, which is why accumulate must
    /// run engine-side rather than as get-modify-put from the initiator.
    ///
    /// CAS compares raw bytes (not float equality), so it is well-defined for
    /// every datatype and never surprised by NaN.
    pub fn atomic_rmw(
        &self,
        offset: u64,
        op: AtomicOp,
        datatype: AtomicDatatype,
        operand: &[u8],
    ) -> Vec<u8> {
        let (compare, operand) = match op {
            AtomicOp::Cas => operand.split_at(operand.len() / 2),
            _ => (&[][..], operand),
        };
        let old = self.read(offset, operand.len() as u64);
        let mut new = vec![0u8; operand.len()];
        for (lane, (cur, inc)) in old.chunks_exact(8).zip(operand.chunks_exact(8)).enumerate() {
            let at = lane * 8;
            let out = &mut new[at..at + 8];
            match op {
                AtomicOp::Swap => out.copy_from_slice(inc),
                AtomicOp::Cas => {
                    let cmp = &compare[at..at + 8];
                    out.copy_from_slice(if cur == cmp { inc } else { cur });
                }
                AtomicOp::Sum | AtomicOp::Min | AtomicOp::Max => match datatype {
                    AtomicDatatype::U64 => {
                        let a = u64::from_le_bytes(cur.try_into().expect("8-byte lane"));
                        let b = u64::from_le_bytes(inc.try_into().expect("8-byte lane"));
                        let r = match op {
                            AtomicOp::Sum => a.wrapping_add(b),
                            AtomicOp::Min => a.min(b),
                            _ => a.max(b),
                        };
                        out.copy_from_slice(&r.to_le_bytes());
                    }
                    AtomicDatatype::I64 => {
                        let a = i64::from_le_bytes(cur.try_into().expect("8-byte lane"));
                        let b = i64::from_le_bytes(inc.try_into().expect("8-byte lane"));
                        let r = match op {
                            AtomicOp::Sum => a.wrapping_add(b),
                            AtomicOp::Min => a.min(b),
                            _ => a.max(b),
                        };
                        out.copy_from_slice(&r.to_le_bytes());
                    }
                    AtomicDatatype::F64 => {
                        let a = f64::from_le_bytes(cur.try_into().expect("8-byte lane"));
                        let b = f64::from_le_bytes(inc.try_into().expect("8-byte lane"));
                        let r = match op {
                            AtomicOp::Sum => a + b,
                            AtomicOp::Min => a.min(b),
                            _ => a.max(b),
                        };
                        out.copy_from_slice(&r.to_le_bytes());
                    }
                },
            }
        }
        self.write(offset, &new);
        old
    }

    /// Zero-copy gather of `[offset, offset + mlength)` — region views, one
    /// per scattered segment, never coalesced. The initiator-side source of
    /// puts and the target-side source of get replies.
    pub fn payload_gather(&self, offset: u64, mlength: u64) -> Gather {
        self.region.gather(offset, mlength)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md_with(options: MdOptions, threshold: Threshold, len: usize) -> Md {
        Md::from_spec(
            MdSpec::new(Region::from_vec(vec![0u8; len]))
                .with_options(options)
                .with_threshold(threshold),
        )
    }

    #[test]
    fn accepts_fitting_put() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 100);
        assert_eq!(
            md.evaluate(ReqOp::Put, 40, 10),
            MdVerdict::Accept {
                mlength: 40,
                offset: 10
            }
        );
    }

    #[test]
    fn rejects_disabled_op() {
        let md = md_with(
            MdOptions {
                op_put: false,
                ..Default::default()
            },
            Threshold::Infinite,
            100,
        );
        assert_eq!(
            md.evaluate(ReqOp::Put, 1, 0),
            MdVerdict::Reject(MdReject::OpDisabled)
        );
        // Get is still allowed.
        assert!(matches!(
            md.evaluate(ReqOp::Get, 1, 0),
            MdVerdict::Accept { .. }
        ));
    }

    #[test]
    fn rejects_when_inactive() {
        let md = md_with(MdOptions::default(), Threshold::Count(0), 100);
        assert_eq!(
            md.evaluate(ReqOp::Put, 1, 0),
            MdVerdict::Reject(MdReject::Inactive)
        );
    }

    #[test]
    fn truncates_overlong_when_enabled() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 100);
        assert_eq!(
            md.evaluate(ReqOp::Put, 500, 30),
            MdVerdict::Accept {
                mlength: 70,
                offset: 30
            }
        );
        // Offset beyond the region truncates to zero bytes.
        assert_eq!(
            md.evaluate(ReqOp::Put, 500, 200),
            MdVerdict::Accept {
                mlength: 0,
                offset: 200
            }
        );
    }

    #[test]
    fn rejects_overlong_without_truncate() {
        let md = md_with(
            MdOptions {
                truncate: false,
                ..Default::default()
            },
            Threshold::Infinite,
            100,
        );
        assert_eq!(
            md.evaluate(ReqOp::Put, 101, 0),
            MdVerdict::Reject(MdReject::TooLong)
        );
        assert!(matches!(
            md.evaluate(ReqOp::Put, 100, 0),
            MdVerdict::Accept { .. }
        ));
    }

    #[test]
    fn managed_offset_ignores_request_offset_and_advances() {
        let mut md = md_with(
            MdOptions {
                manage_local_offset: true,
                ..Default::default()
            },
            Threshold::Infinite,
            100,
        );
        // Request offset 90 is ignored; local offset 0 is used.
        let MdVerdict::Accept { mlength, offset } = md.evaluate(ReqOp::Put, 30, 90) else {
            panic!("expected accept");
        };
        assert_eq!((mlength, offset), (30, 0));
        md.commit(mlength, offset);
        // Next operation packs immediately after.
        let MdVerdict::Accept { offset, .. } = md.evaluate(ReqOp::Put, 30, 0) else {
            panic!("expected accept");
        };
        assert_eq!(offset, 30);
    }

    #[test]
    fn threshold_counts_down_and_requests_unlink() {
        let mut md = md_with(
            MdOptions {
                unlink_on_exhaustion: true,
                ..Default::default()
            },
            Threshold::Count(2),
            10,
        );
        assert!(!md.commit(1, 0));
        assert!(md.commit(1, 1), "second commit exhausts threshold");
        assert_eq!(
            md.evaluate(ReqOp::Put, 1, 0),
            MdVerdict::Reject(MdReject::Inactive)
        );
    }

    #[test]
    fn retain_option_does_not_unlink() {
        let mut md = md_with(MdOptions::default(), Threshold::Count(1), 10);
        assert!(
            !md.commit(1, 0),
            "PTL_RETAIN semantics: exhausted but retained"
        );
    }

    #[test]
    fn write_and_read_roundtrip() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 16);
        md.write(4, b"abcd");
        assert_eq!(md.read(4, 4), b"abcd");
        assert_eq!(md.read(0, 2), vec![0, 0]);
    }

    #[test]
    fn zero_length_write_never_touches_buffer() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 0);
        md.write(0, b""); // must not panic on the empty region
        assert!(md.read(0, 0).is_empty());
    }

    #[test]
    fn spec_builder_defaults() {
        let buf = Region::from_vec(vec![1, 2, 3]);
        let spec = MdSpec::new(buf);
        assert_eq!(spec.region.len(), 3);
        assert_eq!(spec.threshold, Threshold::Infinite);
        assert!(spec.eq.is_none());
        let spec = spec.with_length(2).with_threshold(Threshold::Count(5));
        assert_eq!(spec.region.len(), 2);
        assert_eq!(spec.threshold, Threshold::Count(5));
    }

    #[test]
    fn min_free_requests_unlink_when_space_runs_low() {
        let mut md = md_with(
            MdOptions {
                manage_local_offset: true,
                min_free: 10,
                ..Default::default()
            },
            Threshold::Infinite,
            32,
        );
        // 32-byte slab: after 20 bytes, 12 remain (>= 10): keep.
        let MdVerdict::Accept { mlength, offset } = md.evaluate(ReqOp::Put, 20, 0) else {
            panic!("accept")
        };
        assert!(!md.commit(mlength, offset));
        // After 4 more, 8 remain (< 10): rotate.
        let MdVerdict::Accept { mlength, offset } = md.evaluate(ReqOp::Put, 4, 0) else {
            panic!("accept")
        };
        assert!(md.commit(mlength, offset));
    }

    #[test]
    fn min_free_ignored_without_managed_offset() {
        let mut md = md_with(
            MdOptions {
                min_free: 1000,
                ..Default::default()
            },
            Threshold::Infinite,
            32,
        );
        assert!(
            !md.commit(32, 0),
            "min_free only applies to managed-offset slabs"
        );
    }

    #[test]
    fn scattered_region_concatenates_segments() {
        let b1 = Region::from_vec(vec![0u8; 10]);
        let b2 = Region::from_vec(vec![0u8; 10]);
        // Region = b1[2..6] ++ b2[0..5]  (4 + 5 = 9 logical bytes)
        let region = MdMemory::Scattered {
            segments: vec![
                Segment::new(b1.clone(), 2, 4),
                Segment::new(b2.clone(), 0, 5),
            ],
        };
        assert_eq!(region.len(), 9);
        region.write(0, b"abcdefghi");
        assert_eq!(b1.read_vec(2, 4), b"abcd");
        assert_eq!(b2.read_vec(0, 5), b"efghi");
        assert_eq!(region.read(0, 9), b"abcdefghi");
        // Offset reads/writes straddle the boundary.
        assert_eq!(region.read(3, 3), b"def");
        region.write(2, b"XY");
        assert_eq!(region.read(0, 9), b"abXYefghi".to_vec());
    }

    #[test]
    fn scattered_md_accepts_and_truncates_like_contiguous() {
        let seg = |n| Segment::new(Region::from_vec(vec![0u8; n]), 0, n);
        let md = Md::from_spec(MdSpec::scattered(vec![seg(4), seg(4), seg(4)]));
        assert_eq!(md.len(), 12);
        assert_eq!(
            md.evaluate(ReqOp::Put, 10, 0),
            MdVerdict::Accept {
                mlength: 10,
                offset: 0
            }
        );
        // Over-long truncates at the logical total.
        assert_eq!(
            md.evaluate(ReqOp::Put, 99, 4),
            MdVerdict::Accept {
                mlength: 8,
                offset: 4
            }
        );
    }

    #[test]
    fn scattered_write_read_roundtrip_through_md() {
        let b1 = Region::from_vec(vec![0u8; 6]);
        let b2 = Region::from_vec(vec![0u8; 6]);
        let md = Md::from_spec(MdSpec::scattered(vec![
            Segment::new(b1.clone(), 0, 6),
            Segment::new(b2.clone(), 3, 3),
        ]));
        md.write(4, b"12345");
        assert_eq!(md.read(4, 5), b"12345");
        assert_eq!(b1.read_vec(4, 2), b"12");
        assert_eq!(b2.read_vec(3, 3), b"345");
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn oversized_segment_rejected() {
        let _ = Segment::new(Region::from_vec(vec![0u8; 4]), 2, 3);
    }

    #[test]
    #[should_panic(expected = "contiguous regions")]
    fn with_length_rejected_on_scattered() {
        let seg = Segment::new(Region::from_vec(vec![0u8; 4]), 0, 4);
        let _ = MdSpec::scattered(vec![seg]).with_length(2);
    }

    #[test]
    fn threshold_helpers() {
        assert!(Threshold::Infinite.active());
        assert!(Threshold::Count(1).active());
        assert!(!Threshold::Count(0).active());
        assert_eq!(Threshold::Count(1).decrement(), Threshold::Count(0));
        assert_eq!(Threshold::Count(0).decrement(), Threshold::Count(0));
        assert_eq!(Threshold::Infinite.decrement(), Threshold::Infinite);
    }

    #[test]
    fn fetch_atomic_needs_both_operations_enabled() {
        for (op_put, op_get, ok) in [
            (true, true, true),
            (true, false, false),
            (false, true, false),
        ] {
            let md = md_with(
                MdOptions {
                    op_put,
                    op_get,
                    ..Default::default()
                },
                Threshold::Infinite,
                64,
            );
            let verdict = md.evaluate(ReqOp::FetchAtomic, 8, 0);
            assert_eq!(
                matches!(verdict, MdVerdict::Accept { .. }),
                ok,
                "op_put={op_put} op_get={op_get}"
            );
        }
    }

    #[test]
    fn atomic_rmw_sum_per_datatype() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 8);
        md.write(0, &10u64.to_le_bytes());
        let old = md.atomic_rmw(0, AtomicOp::Sum, AtomicDatatype::U64, &5u64.to_le_bytes());
        assert_eq!(old, 10u64.to_le_bytes());
        assert_eq!(md.read(0, 8), 15u64.to_le_bytes());

        md.write(0, &(-4i64).to_le_bytes());
        let old = md.atomic_rmw(0, AtomicOp::Sum, AtomicDatatype::I64, &3i64.to_le_bytes());
        assert_eq!(old, (-4i64).to_le_bytes());
        assert_eq!(md.read(0, 8), (-1i64).to_le_bytes());

        md.write(0, &1.5f64.to_le_bytes());
        let old = md.atomic_rmw(
            0,
            AtomicOp::Sum,
            AtomicDatatype::F64,
            &0.25f64.to_le_bytes(),
        );
        assert_eq!(old, 1.5f64.to_le_bytes());
        assert_eq!(md.read(0, 8), 1.75f64.to_le_bytes());
    }

    #[test]
    fn atomic_rmw_min_max_respect_signedness() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 8);
        // -1 as u64 is huge; min must differ between the signed views.
        md.write(0, &(-1i64).to_le_bytes());
        let _ = md.atomic_rmw(0, AtomicOp::Min, AtomicDatatype::U64, &7u64.to_le_bytes());
        assert_eq!(md.read(0, 8), 7u64.to_le_bytes());

        md.write(0, &(-1i64).to_le_bytes());
        let _ = md.atomic_rmw(0, AtomicOp::Min, AtomicDatatype::I64, &7i64.to_le_bytes());
        assert_eq!(md.read(0, 8), (-1i64).to_le_bytes());

        md.write(0, &2.0f64.to_le_bytes());
        let _ = md.atomic_rmw(0, AtomicOp::Max, AtomicDatatype::F64, &3.5f64.to_le_bytes());
        assert_eq!(md.read(0, 8), 3.5f64.to_le_bytes());
    }

    #[test]
    fn atomic_rmw_multi_lane_sum() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 24);
        for lane in 0..3u64 {
            md.write(lane * 8, &(lane * 100).to_le_bytes());
        }
        let mut operand = Vec::new();
        for lane in 0..3u64 {
            operand.extend_from_slice(&(lane + 1).to_le_bytes());
        }
        let old = md.atomic_rmw(0, AtomicOp::Sum, AtomicDatatype::U64, &operand);
        assert_eq!(old.len(), 24);
        for lane in 0..3u64 {
            let at = (lane * 8) as usize;
            assert_eq!(old[at..at + 8], (lane * 100).to_le_bytes());
            assert_eq!(md.read(lane * 8, 8), (lane * 100 + lane + 1).to_le_bytes());
        }
    }

    #[test]
    fn atomic_rmw_swap_and_cas() {
        let md = md_with(MdOptions::default(), Threshold::Infinite, 8);
        md.write(0, &111u64.to_le_bytes());
        let old = md.atomic_rmw(
            0,
            AtomicOp::Swap,
            AtomicDatatype::U64,
            &222u64.to_le_bytes(),
        );
        assert_eq!(old, 111u64.to_le_bytes());
        assert_eq!(md.read(0, 8), 222u64.to_le_bytes());

        // CAS operand = compare ++ swap. Mismatched compare leaves the value.
        let mut cas = Vec::new();
        cas.extend_from_slice(&999u64.to_le_bytes());
        cas.extend_from_slice(&333u64.to_le_bytes());
        let old = md.atomic_rmw(0, AtomicOp::Cas, AtomicDatatype::U64, &cas);
        assert_eq!(old, 222u64.to_le_bytes());
        assert_eq!(md.read(0, 8), 222u64.to_le_bytes());

        // Matching compare swaps.
        let mut cas = Vec::new();
        cas.extend_from_slice(&222u64.to_le_bytes());
        cas.extend_from_slice(&333u64.to_le_bytes());
        let old = md.atomic_rmw(0, AtomicOp::Cas, AtomicDatatype::U64, &cas);
        assert_eq!(old, 222u64.to_le_bytes());
        assert_eq!(md.read(0, 8), 333u64.to_le_bytes());
    }
}
