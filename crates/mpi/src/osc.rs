//! One-sided communication: MPI-3 RMA windows over Portals counting events.
//!
//! §2 of the paper: the Puma MPI "contained a preliminary implementation of
//! the MPI-2 one-sided functions", and §4.4 notes that Portals addressing
//! `(process id, portal id, match bits, offset)` is exactly the triple-style
//! addressing one-sided models (shmem, ST, MPI-2) use. This module grows that
//! preliminary implementation into an MPI-3-shaped RMA layer in the foMPI
//! style: a [`Window`] exposes a byte region on every rank, and every access —
//! puts, gets, *and* atomics — runs with **no code executing in the target
//! process** (under application bypass; a host-driven target serves one-sided
//! traffic only inside its own MPI calls, which is precisely the §5.2
//! progress problem the paper describes).
//!
//! # Operations
//!
//! All data movement is nonblocking and returns an [`RmaRequest`]:
//!
//! * [`Window::rput`] / [`Window::rget`] — one-sided write/read;
//! * [`Window::raccumulate`] — element-wise sum/min/max/swap applied by the
//!   *target's* receive engine under its portal lock, so concurrent
//!   contributions from any number of origins serialize correctly
//!   (`MPI_Accumulate`);
//! * [`Window::rget_accumulate`] / [`Window::rfetch_and_op`] — the same RMW
//!   with the prior value fetched back (`MPI_Get_accumulate`,
//!   `MPI_Fetch_and_op`);
//! * [`Window::rcompare_and_swap`] — single-element CAS
//!   (`MPI_Compare_and_swap`).
//!
//! The builder spellings [`Window::put_to`], [`Window::get_from`] and
//! [`Window::accumulate_to`] name the same operations fluently, mirroring the
//! Portals-level `put_op`/`get_op`/`atomic_op` builders.
//!
//! # Completion: counting events, not polling
//!
//! Each operation carries its own counting event; its ack or reply bumps it
//! in engine context, and a pre-registered triggered increment
//! (`PtlTriggeredCTInc` lineage) chains the completion into the window's
//! flush counter — also in engine context. [`Window::flush_all`] is therefore
//! a single `ct_wait` for "flush counter == operations issued": no event-queue
//! polling loop, and under a threadless (caller-driven) node the wait parks
//! on the readiness doorbell exactly like every other blocked Portals call —
//! the 1 ms pump loop the old blocking `get` spun on is gone.
//!
//! # Notified access
//!
//! A put submitted with [`WinPut::notify`] matches a second exposure entry
//! whose descriptor carries the window's *notification* counting event: the
//! delivery bumps it NIC-side, and the target observes it by blocking on
//! [`Window::wait_notified`] — no target-side polling, no message processing
//! (foMPI's `MPI_Put_notify` shape).
//!
//! # Epochs
//!
//! Windows are always exposed (creation is collective and barriers). The
//! passive-target epoch calls [`Window::lock_all`] / [`Window::unlock_all`]
//! delimit access epochs: `unlock_all` completes every outstanding operation
//! at the origin. [`Window::sync`] (flush + barrier) is the active-target
//! fence equivalent.

use crate::comm::Communicator;
use portals::{
    AckRequest, AtomicDatatype, AtomicOp, CtHandle, MdHandle, MdOptions, MdSpec, MeHandle, MePos,
    Region, Threshold,
};
use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, PtlResult, Rank};
use std::collections::HashMap;
use std::time::Duration;

/// Portal index reserved for one-sided windows.
const PT_OSC: u32 = 3;
/// ACL cookie: same-application entry.
const COOKIE: u32 = 0;
/// High bits marking window traffic; the low 32 bits carry the window id.
const OSC_BASE: u64 = 0x05C0_0000_0000_0000;
/// Set on notified accesses: matches the notification exposure entry, whose
/// descriptor bumps the target's notification counter on delivery.
const OSC_NOTIFY: u64 = 1 << 40;
/// Backstop for completion waits: one-sided traffic that is dropped at the
/// target (§4.8) never completes, and a bounded error beats a silent hang.
const RMA_TIMEOUT: Duration = Duration::from_secs(60);

fn window_bits(win_id: u32) -> MatchBits {
    MatchBits::new(OSC_BASE | win_id as u64)
}

fn notify_bits(win_id: u32) -> MatchBits {
    MatchBits::new(OSC_BASE | OSC_NOTIFY | win_id as u64)
}

/// Handle to an outstanding one-sided operation (the `MPI_Request` of the RMA
/// surface). Complete it with [`Window::wait`] — which returns the fetched
/// bytes for get-class operations — or collectively with
/// [`Window::flush_all`].
#[derive(Debug, PartialEq, Eq, Hash)]
#[must_use = "an RMA request must be completed with Window::wait or a flush"]
pub struct RmaRequest {
    id: u64,
}

/// Initiator-side resources pinned by one outstanding operation.
struct OpRes {
    /// Bumped (engine context) by the operation's ack or reply; chained into
    /// the window flush counter by a triggered increment.
    ct: CtHandle,
    /// Descriptors to unlink once the operation completes.
    mds: Vec<MdHandle>,
    /// Landing buffer for get-class operations (get, fetching atomics).
    result: Option<Region>,
}

/// An exposed memory window across all ranks of a communicator.
///
/// Creation is collective: every rank calls [`Window::create`] with the same
/// `win_id` (ids are application-managed, like tag space) and its local
/// region. The region stays exposed until the window is dropped.
pub struct Window {
    comm: Communicator,
    win_id: u32,
    me: MeHandle,
    notify_me: MeHandle,
    local: Region,
    /// Target-side: bumped by every *notified* access that lands here.
    notify_ct: CtHandle,
    /// Origin-side: one increment per completed operation, fed by each
    /// operation's triggered chain.
    flush_ct: CtHandle,
    /// Operations issued from this origin (the flush counter's target value).
    issued: u64,
    /// Outstanding (not yet reaped) operations by request id.
    inflight: HashMap<u64, OpRes>,
    next_id: u64,
    /// A `lock_all` passive epoch is open.
    locked: bool,
}

impl Window {
    /// Collectively create a window exposing `local` on this rank.
    pub fn create(comm: &Communicator, win_id: u32, local: Region) -> PtlResult<Window> {
        let ni = comm.engine().ni();
        let flush_ct = ni.ct_alloc()?;
        let notify_ct = ni.ct_alloc()?;
        let expose = MdOptions {
            op_put: true,
            op_get: true,
            truncate: false, // out-of-range one-sided access is an error
            ..Default::default()
        };
        let me = ni.me_attach(
            PT_OSC,
            ProcessId::ANY,
            MatchCriteria::exact(window_bits(win_id)),
            false,
            MePos::Back,
        )?;
        ni.md_attach(me, MdSpec::new(local.clone()).with_options(expose))?;
        // Second exposure over the same region for notified accesses: same
        // geometry, but deliveries bump the notification counter.
        let notify_me = ni.me_attach(
            PT_OSC,
            ProcessId::ANY,
            MatchCriteria::exact(notify_bits(win_id)),
            false,
            MePos::Back,
        )?;
        ni.md_attach(
            notify_me,
            MdSpec::new(local.clone())
                .with_options(expose)
                .with_ct(notify_ct),
        )?;
        let win = Window {
            comm: comm.clone(),
            win_id,
            me,
            notify_me,
            local,
            notify_ct,
            flush_ct,
            issued: 0,
            inflight: HashMap::new(),
            next_id: 0,
            locked: false,
        };
        // Exposure epoch starts aligned, so no rank touches a window that is
        // not yet attached anywhere.
        win.comm.barrier();
        Ok(win)
    }

    /// The window id.
    pub fn id(&self) -> u32 {
        self.win_id
    }

    /// This rank's exposed region.
    pub fn local(&self) -> &Region {
        &self.local
    }

    // ----- op plumbing ------------------------------------------------------

    /// Allocate one operation's completion counter and chain it into the
    /// window flush counter *before* the operation is on the wire (the
    /// trigger fires immediately if the completion somehow races first).
    fn begin_op(&self) -> PtlResult<CtHandle> {
        let ni = self.comm.engine().ni();
        let ct = ni.ct_alloc()?;
        if let Err(e) = ni.triggered_ct_inc(self.flush_ct, 1, ct, 1) {
            let _ = ni.ct_free(ct);
            return Err(e);
        }
        Ok(ct)
    }

    /// Register a submitted operation and hand back its request.
    fn finish_op(
        &mut self,
        ct: CtHandle,
        mds: Vec<MdHandle>,
        result: Option<Region>,
    ) -> RmaRequest {
        let id = self.next_id;
        self.next_id += 1;
        self.issued += 1;
        self.inflight.insert(id, OpRes { ct, mds, result });
        RmaRequest { id }
    }

    /// Roll an operation back after a submit failure: unlinking the MDs and
    /// freeing the counter discards the parked trigger, so the flush counter
    /// never waits on an operation that was never issued.
    fn abort_op(&self, ct: CtHandle, mds: &[MdHandle]) {
        let ni = self.comm.engine().ni();
        for &md in mds {
            let _ = ni.md_unlink(md);
        }
        let _ = ni.ct_free(ct);
    }

    fn reap(&self, res: OpRes) -> Option<Vec<u8>> {
        let ni = self.comm.engine().ni();
        for md in res.mds {
            let _ = ni.md_unlink(md);
        }
        let _ = ni.ct_free(res.ct);
        res.result.map(|r| r.read_vec(0, r.len()))
    }

    // ----- nonblocking operations ------------------------------------------

    /// Nonblocking one-sided write of `data` into `target`'s window at byte
    /// `offset` (`MPI_Rput`).
    pub fn rput(&mut self, target: Rank, offset: u64, data: &[u8]) -> PtlResult<RmaRequest> {
        self.rput_inner(target, offset, data, false)
    }

    fn rput_inner(
        &mut self,
        target: Rank,
        offset: u64,
        data: &[u8],
        notify: bool,
    ) -> PtlResult<RmaRequest> {
        let ni = self.comm.engine().ni();
        let ct = self.begin_op()?;
        let md = match ni.md_bind(
            MdSpec::new(Region::copy_from_slice(data))
                .with_ct(ct)
                .with_threshold(Threshold::Count(1)),
        ) {
            Ok(md) => md,
            Err(e) => {
                self.abort_op(ct, &[]);
                return Err(e);
            }
        };
        let bits = if notify {
            notify_bits(self.win_id)
        } else {
            window_bits(self.win_id)
        };
        if let Err(e) = ni
            .put_op(md)
            .target(self.comm.process(target), PT_OSC)
            .bits(bits)
            .ack(AckRequest::Ack)
            .cookie(COOKIE)
            .offset(offset)
            .submit()
        {
            self.abort_op(ct, &[md]);
            return Err(e);
        }
        Ok(self.finish_op(ct, vec![md], None))
    }

    /// Nonblocking one-sided read of `len` bytes from `target`'s window at
    /// `offset` (`MPI_Rget`). [`Window::wait`] returns the bytes.
    pub fn rget(&mut self, target: Rank, offset: u64, len: usize) -> PtlResult<RmaRequest> {
        let ni = self.comm.engine().ni();
        let ct = self.begin_op()?;
        let dst = Region::zeroed(len);
        let md = match ni.md_bind(
            MdSpec::new(dst.clone())
                .with_ct(ct)
                .with_threshold(Threshold::Count(1)),
        ) {
            Ok(md) => md,
            Err(e) => {
                self.abort_op(ct, &[]);
                return Err(e);
            }
        };
        if let Err(e) = ni
            .get_op(md)
            .target(self.comm.process(target), PT_OSC)
            .bits(window_bits(self.win_id))
            .cookie(COOKIE)
            .offset(offset)
            .length(len as u64)
            .submit()
        {
            self.abort_op(ct, &[md]);
            return Err(e);
        }
        Ok(self.finish_op(ct, vec![md], Some(dst)))
    }

    /// Nonblocking accumulate (`MPI_Raccumulate`): apply `op` element-wise to
    /// `target`'s window at `offset`, with one `datatype` value per 8-byte
    /// lane of `operand`. The read-modify-write runs in the target's receive
    /// engine under its portal lock, so concurrent accumulates from any
    /// number of origins serialize — the reason this is an engine operation
    /// and not a get-modify-put. Use [`Window::rcompare_and_swap`] for CAS.
    pub fn raccumulate(
        &mut self,
        target: Rank,
        offset: u64,
        op: AtomicOp,
        datatype: AtomicDatatype,
        operand: &[u8],
    ) -> PtlResult<RmaRequest> {
        if op == AtomicOp::Cas {
            return Err(PtlError::InvalidArgument);
        }
        let ni = self.comm.engine().ni();
        let ct = self.begin_op()?;
        let md = match ni.md_bind(
            MdSpec::new(Region::copy_from_slice(operand))
                .with_ct(ct)
                .with_threshold(Threshold::Count(1)),
        ) {
            Ok(md) => md,
            Err(e) => {
                self.abort_op(ct, &[]);
                return Err(e);
            }
        };
        if let Err(e) = ni
            .atomic_op(md)
            .target(self.comm.process(target), PT_OSC)
            .bits(window_bits(self.win_id))
            .op(op)
            .datatype(datatype)
            .ack(AckRequest::Ack)
            .cookie(COOKIE)
            .offset(offset)
            .length(operand.len() as u64)
            .submit()
        {
            self.abort_op(ct, &[md]);
            return Err(e);
        }
        Ok(self.finish_op(ct, vec![md], None))
    }

    /// Nonblocking fetching accumulate (`MPI_Rget_accumulate`): like
    /// [`Window::raccumulate`], but [`Window::wait`] returns the target's
    /// *prior* bytes.
    pub fn rget_accumulate(
        &mut self,
        target: Rank,
        offset: u64,
        op: AtomicOp,
        datatype: AtomicDatatype,
        operand: &[u8],
    ) -> PtlResult<RmaRequest> {
        if op == AtomicOp::Cas {
            return Err(PtlError::InvalidArgument);
        }
        self.fetch_atomic(target, offset, op, datatype, operand, operand.len())
    }

    /// Nonblocking single-element fetch-and-op (`MPI_Fetch_and_op`):
    /// [`Window::wait`] returns the prior 8 bytes.
    pub fn rfetch_and_op(
        &mut self,
        target: Rank,
        offset: u64,
        op: AtomicOp,
        datatype: AtomicDatatype,
        operand: [u8; 8],
    ) -> PtlResult<RmaRequest> {
        if op == AtomicOp::Cas {
            return Err(PtlError::InvalidArgument);
        }
        self.fetch_atomic(target, offset, op, datatype, &operand, 8)
    }

    /// Nonblocking single-element compare-and-swap (`MPI_Compare_and_swap`):
    /// swaps `swap` into the target's 8 bytes at `offset` iff they equal
    /// `compare` (raw byte comparison). [`Window::wait`] returns the prior
    /// bytes, so `prior == compare` is the success test.
    pub fn rcompare_and_swap(
        &mut self,
        target: Rank,
        offset: u64,
        compare: [u8; 8],
        swap: [u8; 8],
    ) -> PtlResult<RmaRequest> {
        let mut operand = [0u8; 16];
        operand[..8].copy_from_slice(&compare);
        operand[8..].copy_from_slice(&swap);
        // Datatype is irrelevant for CAS (raw byte equality), but the wire
        // carries one; U64 is the canonical spelling.
        self.fetch_atomic(
            target,
            offset,
            AtomicOp::Cas,
            AtomicDatatype::U64,
            &operand,
            8,
        )
    }

    /// Shared body of the fetching atomics: an operand descriptor plus a
    /// fetch descriptor the prior value lands in.
    fn fetch_atomic(
        &mut self,
        target: Rank,
        offset: u64,
        op: AtomicOp,
        datatype: AtomicDatatype,
        operand: &[u8],
        fetch_len: usize,
    ) -> PtlResult<RmaRequest> {
        let ni = self.comm.engine().ni();
        let ct = self.begin_op()?;
        let prior = Region::zeroed(fetch_len);
        let fetch = match ni.md_bind(MdSpec::new(prior.clone()).with_ct(ct)) {
            Ok(md) => md,
            Err(e) => {
                self.abort_op(ct, &[]);
                return Err(e);
            }
        };
        let src = match ni.md_bind(
            MdSpec::new(Region::copy_from_slice(operand)).with_threshold(Threshold::Count(1)),
        ) {
            Ok(md) => md,
            Err(e) => {
                self.abort_op(ct, &[fetch]);
                return Err(e);
            }
        };
        if let Err(e) = ni
            .atomic_op(src)
            .target(self.comm.process(target), PT_OSC)
            .bits(window_bits(self.win_id))
            .op(op)
            .datatype(datatype)
            .fetch(fetch)
            .cookie(COOKIE)
            .offset(offset)
            .length(fetch_len as u64)
            .submit()
        {
            self.abort_op(ct, &[src, fetch]);
            return Err(e);
        }
        Ok(self.finish_op(ct, vec![src, fetch], Some(prior)))
    }

    // ----- builders ---------------------------------------------------------

    /// Start building a put to `target` (see [`WinPut`]):
    /// `win.put_to(rank).offset(8).notify().submit(data)`.
    pub fn put_to(&mut self, target: Rank) -> WinPut<'_> {
        WinPut {
            win: self,
            target,
            offset: 0,
            notify: false,
        }
    }

    /// Start building a get from `target` (see [`WinGet`]):
    /// `win.get_from(rank).offset(8).length(64).submit()`.
    pub fn get_from(&mut self, target: Rank) -> WinGet<'_> {
        WinGet {
            win: self,
            target,
            offset: 0,
            length: None,
        }
    }

    /// Start building an accumulate to `target` (see [`WinAccumulate`]):
    /// `win.accumulate_to(rank).op(AtomicOp::Sum).fetch().submit(&operand)`.
    pub fn accumulate_to(&mut self, target: Rank) -> WinAccumulate<'_> {
        WinAccumulate {
            win: self,
            target,
            offset: 0,
            op: None,
            datatype: AtomicDatatype::U64,
            fetch: false,
        }
    }

    // ----- completion -------------------------------------------------------

    /// Wait for one operation to complete; returns the fetched bytes for
    /// get-class operations (`rget`, `rget_accumulate`, `rfetch_and_op`,
    /// `rcompare_and_swap`), `None` for puts and plain accumulates — or for
    /// a request a flush already retired.
    pub fn wait(&mut self, req: RmaRequest) -> PtlResult<Option<Vec<u8>>> {
        let Some(res) = self.inflight.get(&req.id) else {
            return Ok(None); // already retired by a flush
        };
        let ni = self.comm.engine().ni();
        ni.ct_poll(res.ct, 1, RMA_TIMEOUT)?;
        let res = self.inflight.remove(&req.id).expect("checked above");
        Ok(self.reap(res))
    }

    /// Nonblocking completion probe: `true` once `req` has completed (its
    /// result stays claimable via [`Window::wait`], which then returns
    /// immediately).
    pub fn test(&mut self, req: &RmaRequest) -> PtlResult<bool> {
        let Some(res) = self.inflight.get(&req.id) else {
            return Ok(true);
        };
        let ni = self.comm.engine().ni();
        Ok(ni.ct_get(res.ct)?.success >= 1)
    }

    /// Complete every outstanding operation issued from this origin
    /// (`MPI_Win_flush_all`): one counting-event wait for "completions ==
    /// issued". Resources of result-less operations are reclaimed; get-class
    /// results stay claimable through [`Window::wait`].
    pub fn flush_all(&mut self) -> PtlResult<()> {
        let ni = self.comm.engine().ni();
        ni.ct_poll(self.flush_ct, self.issued, RMA_TIMEOUT)?;
        let retired: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, res)| res.result.is_none())
            .map(|(&id, _)| id)
            .collect();
        for id in retired {
            let res = self.inflight.remove(&id).expect("listed above");
            self.reap(res);
        }
        Ok(())
    }

    /// Complete outstanding operations to `target` (`MPI_Win_flush`).
    /// Completion is tracked per window, not per target, so this is the
    /// conservative over-approximation: it completes everything, exactly like
    /// [`Window::flush_all`] — always correct, occasionally stronger than
    /// MPI requires.
    pub fn flush(&mut self, _target: Rank) -> PtlResult<()> {
        self.flush_all()
    }

    /// Open a passive-target access epoch on every rank
    /// (`MPI_Win_lock_all`). Windows here are always exposed, so this only
    /// marks the epoch; it never blocks or communicates.
    pub fn lock_all(&mut self) {
        self.locked = true;
    }

    /// Close the passive-target epoch (`MPI_Win_unlock_all`): completes every
    /// outstanding operation at the origin.
    pub fn unlock_all(&mut self) -> PtlResult<()> {
        self.flush_all()?;
        self.locked = false;
        Ok(())
    }

    /// Whether a [`Window::lock_all`] epoch is currently open.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Active-target synchronization: complete local operations, then
    /// barrier, so afterwards every rank observes every other rank's
    /// accesses (`MPI_Win_fence`).
    pub fn sync(&mut self) -> PtlResult<()> {
        self.flush_all()?;
        self.comm.barrier();
        Ok(())
    }

    // ----- notified access --------------------------------------------------

    /// Target side of notified access: block until `count` notified accesses
    /// have landed in this rank's window (cumulative since creation). The
    /// wait is a counting-event wait — it parks on the node's readiness
    /// doorbell under a threadless node and never polls.
    pub fn wait_notified(&self, count: u64) -> PtlResult<()> {
        let ni = self.comm.engine().ni();
        ni.ct_wait(self.notify_ct, count).map(|_| ())
    }

    /// Notified accesses that have landed so far (nonblocking).
    pub fn notified(&self) -> PtlResult<u64> {
        let ni = self.comm.engine().ni();
        Ok(ni.ct_get(self.notify_ct)?.success)
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        let ni = self.comm.engine().ni();
        for (_, res) in self.inflight.drain() {
            for md in res.mds {
                let _ = ni.md_unlink(md);
            }
            let _ = ni.ct_free(res.ct);
        }
        let _ = ni.me_unlink(self.me);
        let _ = ni.me_unlink(self.notify_me);
        let _ = ni.ct_free(self.flush_ct);
        let _ = ni.ct_free(self.notify_ct);
    }
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Window(id={}, issued={}, inflight={})",
            self.win_id,
            self.issued,
            self.inflight.len()
        )
    }
}

/// A one-sided put under construction (see [`Window::put_to`]).
#[must_use = "a put spec does nothing until .submit(data)"]
pub struct WinPut<'w> {
    win: &'w mut Window,
    target: Rank,
    offset: u64,
    notify: bool,
}

impl WinPut<'_> {
    /// Byte offset within the target's window. Default 0.
    pub fn offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Bump the target's notification counter on delivery, observable there
    /// via [`Window::wait_notified`].
    pub fn notify(mut self) -> Self {
        self.notify = true;
        self
    }

    /// Issue the put.
    pub fn submit(self, data: &[u8]) -> PtlResult<RmaRequest> {
        self.win
            .rput_inner(self.target, self.offset, data, self.notify)
    }
}

/// A one-sided get under construction (see [`Window::get_from`]).
#[must_use = "a get spec does nothing until .submit()"]
pub struct WinGet<'w> {
    win: &'w mut Window,
    target: Rank,
    offset: u64,
    length: Option<usize>,
}

impl WinGet<'_> {
    /// Byte offset within the target's window. Default 0.
    pub fn offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Bytes to read. Required.
    pub fn length(mut self, length: usize) -> Self {
        self.length = Some(length);
        self
    }

    /// Issue the get; [`Window::wait`] returns the bytes.
    pub fn submit(self) -> PtlResult<RmaRequest> {
        let length = self.length.ok_or(PtlError::InvalidArgument)?;
        self.win.rget(self.target, self.offset, length)
    }
}

/// An accumulate under construction (see [`Window::accumulate_to`]).
#[must_use = "an accumulate spec does nothing until .submit(operand)"]
pub struct WinAccumulate<'w> {
    win: &'w mut Window,
    target: Rank,
    offset: u64,
    op: Option<AtomicOp>,
    datatype: AtomicDatatype,
    fetch: bool,
}

impl WinAccumulate<'_> {
    /// Byte offset within the target's window. Default 0.
    pub fn offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// The combining operation. Required ([`AtomicOp::Cas`] is spelled
    /// [`Window::rcompare_and_swap`]).
    pub fn op(mut self, op: AtomicOp) -> Self {
        self.op = Some(op);
        self
    }

    /// Lane interpretation for sum/min/max. Default [`AtomicDatatype::U64`].
    pub fn datatype(mut self, datatype: AtomicDatatype) -> Self {
        self.datatype = datatype;
        self
    }

    /// Fetch the prior value; [`Window::wait`] returns it.
    pub fn fetch(mut self) -> Self {
        self.fetch = true;
        self
    }

    /// Issue the accumulate with one `datatype` value per 8-byte lane of
    /// `operand`.
    pub fn submit(self, operand: &[u8]) -> PtlResult<RmaRequest> {
        let op = self.op.ok_or(PtlError::InvalidArgument)?;
        if self.fetch {
            self.win
                .rget_accumulate(self.target, self.offset, op, self.datatype, operand)
        } else {
            self.win
                .raccumulate(self.target, self.offset, op, self.datatype, operand)
        }
    }
}
