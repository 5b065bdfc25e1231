//! Builders for the data-movement verbs.
//!
//! `PtlPut` and `PtlGet` are 7/8-argument calls; at that arity every call
//! site is a positional-argument puzzle (swap `cookie` and `portal_index` and
//! nothing but the ACL notices). [`PutBuilder`] and [`GetBuilder`] name each
//! argument and default the optional ones, so a put reads as what it is:
//!
//! ```
//! # use portals::{Node, NiConfig, MdSpec, Region, AckRequest, MePos};
//! # use portals_net::Fabric;
//! # use portals_types::{MatchCriteria, MatchBits, NodeId, ProcessId};
//! # let fabric = Fabric::ideal();
//! # let sender_node = Node::new(fabric.attach(NodeId(0)), Default::default());
//! # let target_node = Node::new(fabric.attach(NodeId(1)), Default::default());
//! # let sender = sender_node.create_ni(1, NiConfig::default()).unwrap();
//! # let target = target_node.create_ni(1, NiConfig::default()).unwrap();
//! # let eq = target.eq_alloc(16).unwrap();
//! # let me = target
//! #     .me_attach(4, ProcessId::ANY, MatchCriteria::exact(MatchBits::new(42)), false, MePos::Back)
//! #     .unwrap();
//! # let buf = Region::zeroed(1024);
//! # target.md_attach(me, MdSpec::new(buf.clone()).with_eq(eq)).unwrap();
//! # let src = Region::from_vec(b"hello".to_vec());
//! # let md = sender.md_bind(MdSpec::new(src)).unwrap();
//! sender
//!     .put_op(md)
//!     .target(ProcessId::new(1, 1), 4)
//!     .bits(MatchBits::new(42))
//!     .submit()
//!     .unwrap();
//! # target.eq_wait(eq).unwrap();
//! ```
//!
//! Every builder ends in one of two calls that take the same fully checked
//! operation: `submit` launches it now, `submit_after(ct, threshold)` parks
//! it on a counting event until the counter's success count reaches the
//! threshold (spec lineage: `PtlTriggeredPut`/`PtlTriggeredGet`/
//! `PtlTriggeredAtomic`). The target — and, for gets, the length; for
//! atomics, the operation — has no safe default and must be set first;
//! either call returns [`PtlError::InvalidArgument`] otherwise.

use crate::ni::{launch, AckRequest, NetworkInterface};
use crate::triggered::TriggeredOp;
use crate::{CtHandle, MdHandle};
use portals_types::{MatchBits, ProcessId, PtlError, PtlResult};
use portals_wire::{AtomicDatatype, AtomicOp};

/// One data-movement operation, checked and complete: what `submit` launches
/// and `submit_after` parks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    /// Source (put, atomic operand) or reply (get) descriptor.
    pub(crate) md: MdHandle,
    pub(crate) target: ProcessId,
    pub(crate) portal_index: u32,
    pub(crate) cookie: u32,
    pub(crate) match_bits: MatchBits,
    pub(crate) remote_offset: u64,
    pub(crate) verb: Verb,
}

/// What an [`Op`] does at the target.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Verb {
    Put {
        ack: AckRequest,
    },
    Get {
        length: u64,
    },
    Atomic {
        op: AtomicOp,
        datatype: AtomicDatatype,
        fetch_md: Option<MdHandle>,
        ack: AckRequest,
        length: u64,
    },
}

/// The arguments every verb shares, as a builder collects them.
struct Head {
    md: MdHandle,
    target: Option<(ProcessId, u32)>,
    cookie: u32,
    match_bits: MatchBits,
    remote_offset: u64,
}

impl Head {
    fn new(md: MdHandle) -> Head {
        Head {
            md,
            target: None,
            cookie: 0,
            match_bits: MatchBits::ZERO,
            remote_offset: 0,
        }
    }

    /// The one validation point for `submit` and `submit_after` alike: a
    /// set, wildcard-free target and, for an atomic, a lane geometry the
    /// target would accept — a bad operation is refused before it is
    /// launched or parked, not when it fires.
    fn op(self, verb: Verb) -> PtlResult<Op> {
        let (target, portal_index) = self.target.ok_or(PtlError::InvalidArgument)?;
        if target.has_wildcard() {
            return Err(PtlError::InvalidProcess);
        }
        if let Verb::Atomic { op, length, .. } = verb {
            // The target would only drop it (`DropReason::AtomicInvalid`),
            // and a local error is debuggable.
            let lane = AtomicDatatype::WIDTH;
            if length == 0 || length % lane != 0 || (op == AtomicOp::Cas && length != lane) {
                return Err(PtlError::InvalidArgument);
            }
        }
        Ok(Op {
            md: self.md,
            target,
            portal_index,
            cookie: self.cookie,
            match_bits: self.match_bits,
            remote_offset: self.remote_offset,
            verb,
        })
    }
}

/// The setters every builder shares, writing into its [`Head`].
macro_rules! head_setters {
    () => {
        /// The destination process and portal index. Required.
        pub fn target(mut self, target: ProcessId, portal_index: u32) -> Self {
            self.head.target = Some((target, portal_index));
            self
        }

        /// Match bits the target's match list is probed with. Default zero.
        pub fn bits(mut self, match_bits: MatchBits) -> Self {
            self.head.match_bits = match_bits;
            self
        }

        /// ACL cookie (§4.5). Default 0, the "same application" entry.
        pub fn cookie(mut self, cookie: u32) -> Self {
            self.head.cookie = cookie;
            self
        }

        /// Offset within the target's memory region. Default 0 (ignored when
        /// the target descriptor manages its own local offset).
        pub fn offset(mut self, remote_offset: u64) -> Self {
            self.head.remote_offset = remote_offset;
            self
        }
    };
}

/// A put under construction (see [`NetworkInterface::put_op`]).
///
/// Defaults: no ack, cookie 0 (the "same application" ACL entry), match bits
/// zero, remote offset 0.
#[must_use = "a put builder does nothing until .submit()"]
pub struct PutBuilder<'a> {
    ni: &'a NetworkInterface,
    head: Head,
    ack: AckRequest,
}

impl<'a> PutBuilder<'a> {
    pub(crate) fn new(ni: &'a NetworkInterface, md: MdHandle) -> PutBuilder<'a> {
        PutBuilder {
            ni,
            head: Head::new(md),
            ack: AckRequest::NoAck,
        }
    }

    head_setters!();

    /// Request (or decline) a delivery acknowledgment. Default no ack.
    pub fn ack(mut self, ack: AckRequest) -> Self {
        self.ack = ack;
        self
    }

    fn checked(self) -> PtlResult<(&'a NetworkInterface, Op)> {
        let op = self.head.op(Verb::Put { ack: self.ack })?;
        Ok((self.ni, op))
    }

    /// Initiate the put (spec: `PtlPut`). Logs a `Sent` event to the MD's
    /// queue, and later an `Ack` event if an ack was requested and the target
    /// accepted.
    pub fn submit(self) -> PtlResult<()> {
        let (ni, op) = self.checked()?;
        launch(&ni.core, &ni.node, op)
    }

    /// Park the put on `ct` until its success count reaches `threshold`
    /// (spec lineage: `PtlTriggeredPut`); it then launches in whatever
    /// context bumped the counter — the engine's, for a delivery. The source
    /// bytes are read at fire time. If the threshold is already met the put
    /// launches now, in this thread.
    pub fn submit_after(self, ct: CtHandle, threshold: u64) -> PtlResult<()> {
        let (ni, op) = self.checked()?;
        ni.register_trigger(ct, threshold, TriggeredOp::Launch(op))
    }
}

/// A get under construction (see [`NetworkInterface::get_op`]).
///
/// Defaults: cookie 0, match bits zero, remote offset 0. The target and the
/// length are required.
#[must_use = "a get builder does nothing until .submit()"]
pub struct GetBuilder<'a> {
    ni: &'a NetworkInterface,
    head: Head,
    length: Option<u64>,
}

impl<'a> GetBuilder<'a> {
    pub(crate) fn new(ni: &'a NetworkInterface, md: MdHandle) -> GetBuilder<'a> {
        GetBuilder {
            ni,
            head: Head::new(md),
            length: None,
        }
    }

    head_setters!();

    /// Number of bytes to read. Required (the target may truncate).
    pub fn length(mut self, length: u64) -> Self {
        self.length = Some(length);
        self
    }

    fn checked(self) -> PtlResult<(&'a NetworkInterface, Op)> {
        let length = self.length.ok_or(PtlError::InvalidArgument)?;
        let op = self.head.op(Verb::Get { length })?;
        Ok((self.ni, op))
    }

    /// Initiate the get (spec: `PtlGet`); the reply lands at the start of
    /// this MD's region. The MD stays pinned ([`PtlError::MdInUse`]) until
    /// the reply arrives.
    pub fn submit(self) -> PtlResult<()> {
        let (ni, op) = self.checked()?;
        launch(&ni.core, &ni.node, op)
    }

    /// Park the get on `ct` until its success count reaches `threshold`
    /// (spec lineage: `PtlTriggeredGet`); same firing contract as
    /// [`PutBuilder::submit_after`].
    pub fn submit_after(self, ct: CtHandle, threshold: u64) -> PtlResult<()> {
        let (ni, op) = self.checked()?;
        ni.register_trigger(ct, threshold, TriggeredOp::Launch(op))
    }
}

/// An atomic read-modify-write under construction (see
/// [`NetworkInterface::atomic_op`]). The builder's MD is the *operand
/// source*: its region holds one operand value per 8-byte lane of the touched
/// length (for a compare-and-swap, the compare value followed by the swap
/// value).
///
/// Defaults: no ack, cookie 0, match bits zero, remote offset 0, datatype
/// [`AtomicDatatype::U64`], length one lane (8 bytes). The target and the
/// operation are required. Calling [`AtomicBuilder::fetch`] turns the
/// operation into a fetching atomic: the value the target held *before* the
/// RMW lands at offset 0 of the given descriptor, which stays pinned until
/// its reply arrives, exactly like a get's.
#[must_use = "an atomic builder does nothing until .submit()"]
pub struct AtomicBuilder<'a> {
    ni: &'a NetworkInterface,
    head: Head,
    fetch_md: Option<MdHandle>,
    ack: AckRequest,
    op: Option<AtomicOp>,
    datatype: AtomicDatatype,
    length: u64,
}

impl<'a> AtomicBuilder<'a> {
    pub(crate) fn new(ni: &'a NetworkInterface, md: MdHandle) -> AtomicBuilder<'a> {
        AtomicBuilder {
            ni,
            head: Head::new(md),
            fetch_md: None,
            ack: AckRequest::NoAck,
            op: None,
            datatype: AtomicDatatype::U64,
            length: AtomicDatatype::WIDTH,
        }
    }

    head_setters!();

    /// The combining operation applied at the target. Required.
    pub fn op(mut self, op: AtomicOp) -> Self {
        self.op = Some(op);
        self
    }

    /// Lane interpretation for sum/min/max. Default [`AtomicDatatype::U64`]
    /// (swap and compare-and-swap move raw bytes either way).
    pub fn datatype(mut self, datatype: AtomicDatatype) -> Self {
        self.datatype = datatype;
        self
    }

    /// Fetch the prior value into `fetch_md` (spec lineage:
    /// `PtlFetchAtomic`). The reply lands at the descriptor's offset 0.
    pub fn fetch(mut self, fetch_md: MdHandle) -> Self {
        self.fetch_md = Some(fetch_md);
        self
    }

    /// Request a delivery acknowledgment (plain atomics only — a fetching
    /// atomic completes through its reply instead). Default no ack.
    pub fn ack(mut self, ack: AckRequest) -> Self {
        self.ack = ack;
        self
    }

    /// Bytes touched at the target: a nonzero multiple of the 8-byte lane
    /// (exactly one lane for compare-and-swap). Default one lane.
    pub fn length(mut self, length: u64) -> Self {
        self.length = length;
        self
    }

    fn checked(self) -> PtlResult<(&'a NetworkInterface, Op)> {
        let op = self.op.ok_or(PtlError::InvalidArgument)?;
        let op = self.head.op(Verb::Atomic {
            op,
            datatype: self.datatype,
            fetch_md: self.fetch_md,
            ack: self.ack,
            length: self.length,
        })?;
        Ok((self.ni, op))
    }

    /// Initiate the atomic (spec lineage: `PtlAtomic` / `PtlFetchAtomic`).
    /// Logs a `Sent` event to the operand MD's queue; completion arrives as
    /// an `Ack` (plain, if requested) or a `Reply` on the fetch descriptor.
    pub fn submit(self) -> PtlResult<()> {
        let (ni, op) = self.checked()?;
        launch(&ni.core, &ni.node, op)
    }

    /// Park the atomic on `ct` until its success count reaches `threshold`
    /// (spec lineage: `PtlTriggeredAtomic`); same firing contract as
    /// [`PutBuilder::submit_after`]. The operand is read at fire time.
    pub fn submit_after(self, ct: CtHandle, threshold: u64) -> PtlResult<()> {
        let (ni, op) = self.checked()?;
        ni.register_trigger(ct, threshold, TriggeredOp::Launch(op))
    }
}
