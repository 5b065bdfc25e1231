//! The collective communication library.
//!
//! §2: the Puma MPI "utilized a high-performance collective communication
//! library implemented directly on Portals". Ours runs over the Portals-backed
//! matching engine on reserved tags (invisible to application send/recv), with
//! classic distributed-memory algorithms:
//!
//! * broadcast / reduce — binomial trees;
//! * allreduce — recursive doubling (with the non-power-of-two fold-in);
//! * allgather — ring;
//! * gather / scatter — linear to/from the root;
//! * alltoall — fully posted nonblocking exchange;
//! * barrier — the communicator's dissemination barrier.

use parking_lot::Mutex;
use portals::{
    AtomicDatatype, AtomicOp, CtHandle, MdHandle, MdOptions, MdSpec, MePos, Region, Threshold,
};
use portals_mpi::bits::{Context, MAX_USER_TAG};
use portals_mpi::{Communicator, Request};
use portals_types::{MatchBits, MatchCriteria, ProcessId, Rank};

// Collective tags live in the band `[MAX_USER_TAG + COLL_TAG_BASE_OFFSET,
// MAX_USER_TAG + COLL_TAG_BASE_OFFSET + COLL_TAG_SPAN)` granted by the MPI
// layer; `validate_reserved_layout` (checked at communicator construction)
// keeps barrier rounds below it. Drifting outside the band is a compile error.
const _: () = assert!(
    0x10a >= portals_mpi::bits::COLL_TAG_BASE_OFFSET
        && 0x100 == portals_mpi::bits::COLL_TAG_BASE_OFFSET
        && 0x10a < portals_mpi::bits::COLL_TAG_BASE_OFFSET + portals_mpi::bits::COLL_TAG_SPAN,
    "collective tags outside the reserved band granted by the MPI layer"
);

const TAG_BCAST: u32 = MAX_USER_TAG + 0x100;
const TAG_REDUCE: u32 = MAX_USER_TAG + 0x101;
const TAG_ALLRED_PRE: u32 = MAX_USER_TAG + 0x102;
const TAG_ALLRED_STEP: u32 = MAX_USER_TAG + 0x103;
const TAG_ALLRED_POST: u32 = MAX_USER_TAG + 0x104;
const TAG_GATHER: u32 = MAX_USER_TAG + 0x105;
const TAG_SCATTER: u32 = MAX_USER_TAG + 0x106;
const TAG_ALLGATHER: u32 = MAX_USER_TAG + 0x107;
const TAG_ALLTOALL: u32 = MAX_USER_TAG + 0x108;
/// Clear-to-send for size-announced transfers (gather/scatter).
const TAG_XFER_CTS: u32 = MAX_USER_TAG + 0x109;
/// Payload of a size-announced transfer.
const TAG_XFER_DATA: u32 = MAX_USER_TAG + 0x10a;

/// A collective that could not complete correctly. Defined in
/// `portals_types::error` (so the layered `ErrorKind` can wrap it) and
/// re-exported from its owning crate.
pub use portals_types::CollError;

/// Element-wise reduction operator over `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    #[inline]
    fn combine(self, into: &mut [f64], other: &[f64]) {
        debug_assert_eq!(into.len(), other.len());
        match self {
            ReduceOp::Sum => into.iter_mut().zip(other).for_each(|(a, b)| *a += b),
            ReduceOp::Min => into.iter_mut().zip(other).for_each(|(a, b)| *a = a.min(*b)),
            ReduceOp::Max => into.iter_mut().zip(other).for_each(|(a, b)| *a = a.max(*b)),
        }
    }

    /// The equivalent engine-side atomic, applied over
    /// [`AtomicDatatype::F64`] lanes. Lane-for-lane identical to
    /// [`ReduceOp::combine`] with the existing value on the left — the
    /// property the offloaded/host-driven differential test relies on.
    fn atomic_op(self) -> AtomicOp {
        match self {
            ReduceOp::Sum => AtomicOp::Sum,
            ReduceOp::Min => AtomicOp::Min,
            ReduceOp::Max => AtomicOp::Max,
        }
    }

    /// The operator's identity element: what a stage buffer is initialised
    /// to, so the first contribution to land passes through unchanged.
    fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }
}

/// The collective library bound to one communicator.
pub struct Collectives {
    comm: Communicator,
    /// Present iff built by [`Collectives::triggered`].
    offload: Option<Mutex<OffloadState>>,
}

impl Collectives {
    /// Bind to a communicator. `barrier`, `bcast` and `allreduce` run as host
    /// send/recv loops — the reference the triggered schedules are checked
    /// against.
    pub fn new(comm: Communicator) -> Collectives {
        Collectives {
            comm,
            offload: None,
        }
    }

    /// Bind to a communicator with `barrier`/`bcast`/`allreduce` routed
    /// through pre-posted triggered schedules on the Portals interface
    /// (§5.1 extended from single messages to whole schedules): the host
    /// pre-posts the full schedule, then blocks on one terminal counting
    /// event; everything in between runs in engine context.
    ///
    /// Pre-posts the first barrier slot and runs one host barrier so every
    /// rank's slot exists before any round message can be sent;
    /// construction is therefore collective.
    pub fn triggered(comm: Communicator) -> Collectives {
        let mut st = OffloadState {
            next_seq: 0,
            next_barrier: None,
            zero_md: comm
                .engine()
                .ni()
                .md_bind(MdSpec::new(Region::zeroed(0)))
                .expect("bind zero-length barrier source"),
            active: false,
        };
        if comm.size() > 1 {
            let seq = st.alloc_seq();
            st.next_barrier = Some(post_barrier_slot(&comm, seq));
            // Everyone's slot 0 must exist before anyone's round-0 put.
            comm.barrier();
        }
        Collectives {
            offload: Some(Mutex::new(st)),
            ..Collectives::new(comm)
        }
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    fn me(&self) -> usize {
        self.comm.rank().0 as usize
    }

    fn n(&self) -> usize {
        self.comm.size()
    }

    // -- small blocking plumbing on reserved tags ---------------------------

    fn send_to(&self, to: usize, tag: u32, data: &[u8]) {
        let req = self.comm.isend_reserved(Rank(to as u32), tag, data);
        self.comm.wait(req);
    }

    fn isend_to(&self, to: usize, tag: u32, data: &[u8]) -> Request {
        self.comm.isend_reserved(Rank(to as u32), tag, data)
    }

    fn send_region_to(&self, to: usize, tag: u32, data: Region) {
        let req = self.comm.isend_region_reserved(Rank(to as u32), tag, data);
        self.comm.wait(req);
    }

    fn isend_region_to(&self, to: usize, tag: u32, data: Region) -> Request {
        self.comm.isend_region_reserved(Rank(to as u32), tag, data)
    }

    fn recv_from(&self, from: usize, tag: u32, cap: usize) -> Vec<u8> {
        self.try_recv_from(from, tag, cap)
            .expect("collective message truncated: peers disagree on sizes")
    }

    fn try_recv_from(&self, from: usize, tag: u32, cap: usize) -> Result<Vec<u8>, CollError> {
        let buf = Region::zeroed(cap);
        let req = self
            .comm
            .irecv_reserved(Rank(from as u32), tag, buf.clone());
        let st = self.comm.wait(req).status().expect("collective recv");
        if st.truncated {
            return Err(CollError::Truncated {
                expected: cap,
                got: st.full_len,
            });
        }
        Ok(buf.read_vec(0, st.len))
    }

    /// Send `data` preceded by a size announcement: the receiver posts an
    /// exactly-sized receive MD and clears the payload to fly only once that
    /// landing zone exists. Works for any length up to the interface limit —
    /// unlike a plain eager send, the payload can never be truncated by an
    /// overflow slab or a guessed receive cap.
    fn send_sized(&self, to: usize, tag: u32, data: &[u8]) {
        self.send_to(to, tag, &(data.len() as u64).to_le_bytes());
        let cts = self.recv_from(to, TAG_XFER_CTS, 0);
        debug_assert!(cts.is_empty());
        self.send_to(to, TAG_XFER_DATA, data);
    }

    /// Receive one [`Collectives::send_sized`] transfer: read the announced
    /// length, post a receive MD of exactly that size, then send clear-to-send.
    fn recv_sized(&self, from: usize, tag: u32) -> Result<Vec<u8>, CollError> {
        let hdr = self.try_recv_from(from, tag, 8)?;
        let len = u64::from_le_bytes(hdr.try_into().map_err(|_| CollError::Truncated {
            expected: 8,
            got: 0,
        })?) as usize;
        let buf = Region::zeroed(len);
        let req = self
            .comm
            .irecv_reserved(Rank(from as u32), TAG_XFER_DATA, buf.clone());
        self.send_to(from, TAG_XFER_CTS, &[]);
        let st = self.comm.wait(req).status().expect("sized transfer recv");
        if st.truncated || st.len != len {
            return Err(CollError::Truncated {
                expected: len,
                got: st.full_len,
            });
        }
        Ok(buf.read_vec(0, st.len))
    }

    // -- collectives --------------------------------------------------------

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        if self.offload.is_some() {
            let p = self.start_barrier();
            self.finish_barrier(p);
        } else {
            self.comm.barrier();
        }
    }

    /// Binomial-tree broadcast: `data` must be the same length on every rank;
    /// after the call every rank holds the root's bytes.
    pub fn bcast(&self, root: usize, data: &mut [u8]) {
        if self.offload.is_some() {
            let p = self.start_bcast(root, data);
            self.finish_bcast(p, data);
            return;
        }
        self.bcast_host(root, data);
    }

    fn bcast_host(&self, root: usize, data: &mut [u8]) {
        let n = self.n();
        if n == 1 {
            return;
        }
        let me = self.me();
        let vrank = (me + n - root) % n;
        // Receive from the parent…
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let parent = ((vrank - mask) + root) % n;
                let got = self.recv_from(parent, TAG_BCAST, data.len());
                assert_eq!(got.len(), data.len(), "bcast length mismatch");
                data.copy_from_slice(&got);
                break;
            }
            mask <<= 1;
        }
        // …then forward to children in decreasing mask order.
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && vrank + mask < n {
                let child = ((vrank + mask) + root) % n;
                self.send_to(child, TAG_BCAST, data);
            }
            mask >>= 1;
        }
    }

    /// Binomial-tree reduction of `f64` vectors to `root`; returns the result
    /// there, `None` elsewhere.
    pub fn reduce(&self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let n = self.n();
        let me = self.me();
        let vrank = (me + n - root) % n;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask == 0 {
                let partner = vrank | mask;
                if partner < n {
                    let from = (partner + root) % n;
                    let bytes = self.recv_from(from, TAG_REDUCE, data.len() * 8);
                    op.combine(&mut acc, &decode_f64(&bytes));
                }
            } else {
                let parent = ((vrank & !mask) + root) % n;
                self.send_region_to(parent, TAG_REDUCE, Region::from_vec(encode_f64(&acc)));
                return None;
            }
            mask <<= 1;
        }
        debug_assert_eq!(me, root);
        Some(acc)
    }

    /// Allreduce: every rank ends with the element-wise reduction of all
    /// ranks' `data`.
    pub fn allreduce(&self, data: &mut [f64], op: ReduceOp) {
        if self.offload.is_some() {
            let p = self.start_allreduce(data, op);
            self.finish_allreduce(p, data);
            return;
        }
        self.allreduce_rd(data, op);
    }

    /// Recursive-doubling allreduce with the standard non-power-of-two
    /// fold-in: extras hand their data to a partner, the power-of-two core
    /// runs log rounds, the result is handed back.
    fn allreduce_rd(&self, data: &mut [f64], op: ReduceOp) {
        let n = self.n();
        if n == 1 {
            return;
        }
        let me = self.me();
        let p = n.next_power_of_two() >> if n.is_power_of_two() { 0 } else { 1 };
        let extra = n - p;

        if me >= p {
            // Extra rank: fold into (me - p), then receive the final result.
            self.send_region_to(me - p, TAG_ALLRED_PRE, Region::from_vec(encode_f64(data)));
            let result = self.recv_from(me - p, TAG_ALLRED_POST, data.len() * 8);
            data.copy_from_slice(&decode_f64(&result));
            return;
        }
        if me < extra {
            let bytes = self.recv_from(me + p, TAG_ALLRED_PRE, data.len() * 8);
            op.combine(data, &decode_f64(&bytes));
        }
        // Core recursive doubling among ranks 0..p.
        let mut mask = 1usize;
        while mask < p {
            let partner = me ^ mask;
            // Exchange simultaneously: post the receive, send, wait both.
            let buf = Region::zeroed(data.len() * 8);
            let rreq = self
                .comm
                .irecv_reserved(Rank(partner as u32), TAG_ALLRED_STEP, buf.clone());
            let sreq =
                self.isend_region_to(partner, TAG_ALLRED_STEP, Region::from_vec(encode_f64(data)));
            let st = self.comm.wait(rreq).status().expect("allreduce step");
            self.comm.wait(sreq);
            assert_eq!(st.len, data.len() * 8);
            op.combine(data, &decode_f64(&buf.read_vec(0, buf.len())));
            mask <<= 1;
        }
        if me < extra {
            self.send_region_to(me + p, TAG_ALLRED_POST, Region::from_vec(encode_f64(data)));
        }
    }

    /// Gather every rank's bytes at `root` (rank-ordered); `Ok(None)`
    /// elsewhere. Each receive is sized from the arrival envelope, so parts
    /// of any length work — there is no built-in cap.
    pub fn gather(&self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, CollError> {
        let n = self.n();
        let me = self.me();
        if me != root {
            self.send_sized(root, TAG_GATHER, mine);
            return Ok(None);
        }
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = mine.to_vec();
        // Collect from everyone else (any completion order; ranks are matched
        // by source).
        for (r, slot) in out.iter_mut().enumerate() {
            if r != me {
                *slot = self.recv_sized(r, TAG_GATHER)?;
            }
        }
        Ok(Some(out))
    }

    /// Scatter `parts[i]` from `root` to rank `i`; returns this rank's part.
    /// The receive is sized from the arrival envelope, so parts of any length
    /// work — there is no built-in cap.
    pub fn scatter(&self, root: usize, parts: Option<&[Vec<u8>]>) -> Result<Vec<u8>, CollError> {
        let n = self.n();
        let me = self.me();
        if me == root {
            let parts = parts.expect("root must supply parts");
            assert_eq!(parts.len(), n, "one part per rank");
            for r in (0..n).filter(|&r| r != me) {
                self.send_sized(r, TAG_SCATTER, &parts[r]);
            }
            Ok(parts[me].clone())
        } else {
            self.recv_sized(root, TAG_SCATTER)
        }
    }

    /// Every rank ends with every rank's bytes, rank-ordered. All
    /// contributions must be the same length. Ring: n−1 steps, each rank
    /// forwards one block per step.
    pub fn allgather(&self, mine: &[u8]) -> Vec<Vec<u8>> {
        let n = self.n();
        let me = self.me();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = mine.to_vec();
        if n == 1 {
            return out;
        }
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for step in 0..n - 1 {
            let send_block = (me + n - step) % n;
            let recv_block = (me + n - step - 1) % n;
            let buf = Region::zeroed(mine.len());
            let rreq = self
                .comm
                .irecv_reserved(Rank(left as u32), TAG_ALLGATHER, buf.clone());
            let sreq = self.isend_to(right, TAG_ALLGATHER, &out[send_block]);
            let st = self.comm.wait(rreq).status().expect("allgather ring");
            self.comm.wait(sreq);
            assert_eq!(st.len, mine.len(), "allgather blocks must be equal-sized");
            out[recv_block] = buf.read_vec(0, st.len);
        }
        out
    }

    /// Personalized all-to-all: rank `i` receives `parts[i]` from every rank.
    pub fn alltoall(&self, parts: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let n = self.n();
        let me = self.me();
        assert_eq!(parts.len(), n, "one part per destination");
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = parts[me].clone();
        let cap = parts.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let bufs: Vec<_> = (0..n).map(|_| Region::zeroed(cap)).collect();
        let rreqs: Vec<(usize, Request)> = (0..n)
            .filter(|&r| r != me)
            .map(|r| {
                (
                    r,
                    self.comm
                        .irecv_reserved(Rank(r as u32), TAG_ALLTOALL, bufs[r].clone()),
                )
            })
            .collect();
        let sreqs: Vec<Request> = (0..n)
            .filter(|&r| r != me)
            .map(|r| self.isend_to(r, TAG_ALLTOALL, &parts[r]))
            .collect();
        for (r, req) in rreqs {
            let st = self.comm.wait(req).status().expect("alltoall");
            assert!(!st.truncated, "alltoall part exceeded the agreed maximum");
            out[r] = bufs[r].read_vec(0, st.len);
        }
        for req in sreqs {
            self.comm.wait(req);
        }
        out
    }
}

// -- offloaded (triggered) collectives --------------------------------------
//
// The host's only jobs are to pre-post the schedule (match entries with
// counting events, plus puts and atomics parked on those counters) and to block
// on ONE terminal counter. Every intermediate step — combine, forward,
// hand-back — fires in engine context the moment its input counter crosses
// threshold. Collective traffic lives on its own portal (`PT_COLL`) with
// per-invocation match bits, invisible to the MPI portals 0–2.

/// Portal reserved for offloaded collective schedules (MPI owns 0–2).
const PT_COLL: u32 = 3;
/// ACL entry 0: "same application, any portal".
const COLL_COOKIE: u32 = 0;

const KIND_BCAST: u64 = 2;
const KIND_FOLD: u64 = 3;
const KIND_FINAL: u64 = 4;
/// Allreduce stage `j` uses kind `KIND_STAGE + j`.
const KIND_STAGE: u64 = 16;
/// Barrier round `r` uses kind `KIND_BARRIER + r`. Rounds must be
/// distinguishable — a round-`r` message may only satisfy the round-`r`
/// receive, or the dissemination proof (completion ⟹ every rank entered)
/// collapses and parked data sends can race ahead of a rank that has not
/// posted its landing entries yet.
const KIND_BARRIER: u64 = 64;

/// `[kind:8 | context:16 | seq:32]` — disjoint per communicator + invocation.
fn coll_bits(kind: u64, ctx: Context, seq: u32) -> MatchBits {
    MatchBits(kind << 48 | (ctx as u64) << 32 | seq as u64)
}

/// ⌈log₂ n⌉ for n ≥ 2: dissemination-barrier round count.
fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n >= 2);
    usize::BITS - (n - 1).leading_zeros()
}

/// The pre-posted receive side of one barrier invocation: one match entry and
/// counter per dissemination round, plus a chained conjunction counter per
/// round.
///
/// The conjunction chain is what makes the dissemination proof hold: classic
/// dissemination sends round `r` only after receiving *all* rounds `0..r` —
/// parking it on round `r−1` alone lets a rank fire ahead of its earlier
/// rounds, and then fence completion no longer proves every rank entered.
/// `dones[r−1]` reaches 2 exactly when rounds `0..=r` have all arrived
/// (one chained increment from `recvs[r]`, one from the previous link).
struct BarrierSlot {
    seq: u32,
    /// `recvs[r]` counts the (single) round-`r` message; target 1.
    recvs: Vec<CtHandle>,
    /// `dones[r−1]` = "rounds `0..=r` all received" for r ≥ 1; target 2.
    dones: Vec<CtHandle>,
}

impl BarrierSlot {
    /// The counter + threshold whose completion proves every rank entered
    /// this invocation.
    fn terminal(&self) -> (CtHandle, u64) {
        match self.dones.last() {
            Some(&d) => (d, 2),
            None => (self.recvs[0], 1),
        }
    }
}

struct OffloadState {
    /// Invocation sequence, identical on every rank because collective calls
    /// are ordered identically on every rank.
    next_seq: u32,
    /// Slot for the *next* barrier invocation, posted one ahead: completing
    /// barrier `i` proves every rank entered `i`, hence every rank posted
    /// `i+1` — so an early round-0 put for `i+1` always finds its entry.
    next_barrier: Option<BarrierSlot>,
    /// Persistent zero-length source for barrier round puts.
    zero_md: MdHandle,
    /// One outstanding offloaded collective at a time.
    active: bool,
}

impl OffloadState {
    fn alloc_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }
}

/// Post the receive side of barrier invocation `seq`: ⌈log₂ n⌉ wildcard-free
/// match entries, one per dissemination round, each with a zero-length MD
/// counting its single round message and self-unlinking afterwards.
fn post_barrier_slot(comm: &Communicator, seq: u32) -> BarrierSlot {
    let ni = comm.engine().ni();
    let rounds = ceil_log2(comm.size()) as u64;
    let recvs: Vec<CtHandle> = (0..rounds)
        .map(|r| {
            let ct = ni.ct_alloc().expect("allocate barrier counter");
            let me = ni
                .me_attach(
                    PT_COLL,
                    ProcessId::ANY,
                    MatchCriteria::exact(coll_bits(KIND_BARRIER + r, comm.context(), seq)),
                    true,
                    MePos::Back,
                )
                .expect("attach barrier entry");
            ni.md_attach(
                me,
                MdSpec::new(Region::zeroed(0))
                    .with_ct(ct)
                    .with_threshold(Threshold::Count(1))
                    .with_options(MdOptions {
                        unlink_on_exhaustion: true,
                        ..Default::default()
                    }),
            )
            .expect("attach barrier descriptor");
            ct
        })
        .collect();
    // Conjunction chain: dones[r−1] gets one increment when round r arrives
    // and one when the previous link completes, so it reaches 2 exactly when
    // rounds 0..=r have all been received.
    let mut dones = Vec::new();
    let mut prev = (recvs[0], 1u64);
    for &recv in &recvs[1..] {
        let d = ni.ct_alloc().expect("allocate barrier chain counter");
        ni.triggered_ct_inc(d, 1, recv, 1)
            .expect("chain round receive");
        ni.triggered_ct_inc(d, 1, prev.0, prev.1)
            .expect("chain previous link");
        dones.push(d);
        prev = (d, 2);
    }
    BarrierSlot { seq, recvs, dones }
}

/// A pre-posted offloaded collective: everything between [`Collectives`]
/// `start_*` and `finish_*` runs without host involvement.
pub struct PendingColl {
    /// Counters to wait on at finish; `waits[0]` is the terminal one.
    waits: Vec<(CtHandle, u64)>,
    /// Buffer holding this rank's result, if the user slice must be filled.
    result: Option<Region>,
    /// Initiator-side bind MDs to unlink at finish.
    binds: Vec<MdHandle>,
    /// Non-terminal counters to free at finish.
    cts: Vec<CtHandle>,
}

impl PendingColl {
    /// The terminal counter and its threshold — reaching it means the whole
    /// schedule ran. `None` for the single-rank no-op.
    pub fn terminal(&self) -> Option<(CtHandle, u64)> {
        self.waits.first().copied()
    }

    fn noop() -> PendingColl {
        PendingColl {
            waits: Vec::new(),
            result: None,
            binds: Vec::new(),
            cts: Vec::new(),
        }
    }
}

impl Collectives {
    /// True when this library routes barrier/bcast/allreduce through
    /// triggered schedules.
    pub fn offloaded(&self) -> bool {
        self.offload.is_some()
    }

    fn offload_state(&self) -> parking_lot::MutexGuard<'_, OffloadState> {
        let mut st = self
            .offload
            .as_ref()
            .expect("offloaded collectives not enabled")
            .lock();
        assert!(!st.active, "one offloaded collective at a time");
        st.active = true;
        st
    }

    /// Enter the pre-posted barrier invocation: post the *next* slot, park
    /// each round-`r` send (r ≥ 1) on the "rounds 0..r−1 all received" chain
    /// link, send round 0 directly. Returns the wait list for this
    /// invocation's counters — terminal first. Every entry must be waited
    /// before the counters are freed: freeing one early would discard a
    /// parked round send or chain increment that a peer still depends on.
    fn enter_fence(&self, st: &mut OffloadState) -> Vec<(CtHandle, u64)> {
        let n = self.n();
        let me = self.me();
        let ni = self.comm.engine().ni();
        let rounds = ceil_log2(n) as u64;
        let slot = st.next_barrier.take().expect("barrier slot pre-posted");
        let next_seq = st.alloc_seq();
        st.next_barrier = Some(post_barrier_slot(&self.comm, next_seq));
        let mut prev = (slot.recvs[0], 1u64);
        for r in 1..rounds {
            let peer = Rank(((me + (1usize << r)) % n) as u32);
            ni.put_op(st.zero_md)
                .target(self.comm.process(peer), PT_COLL)
                .bits(coll_bits(KIND_BARRIER + r, self.comm.context(), slot.seq))
                .cookie(COLL_COOKIE)
                .submit_after(prev.0, prev.1)
                .expect("park barrier round");
            prev = (slot.dones[(r - 1) as usize], 2);
        }
        let peer0 = Rank(((me + 1) % n) as u32);
        ni.put_op(st.zero_md)
            .target(self.comm.process(peer0), PT_COLL)
            .bits(coll_bits(KIND_BARRIER, self.comm.context(), slot.seq))
            .cookie(COLL_COOKIE)
            .submit()
            .expect("send barrier round 0");
        let mut waits: Vec<(CtHandle, u64)> = slot.recvs.iter().map(|&c| (c, 1)).collect();
        waits.extend(slot.dones.iter().map(|&d| (d, 2)));
        // Move the terminal link to the front (it is the last entry when the
        // chain is non-empty, and already first for the single-round fence).
        if !slot.dones.is_empty() {
            let last = waits.len() - 1;
            waits.swap(0, last);
        }
        waits
    }

    /// Pre-post an offloaded barrier. The returned schedule is complete once
    /// the terminal counter reaches ⌈log₂ n⌉ — no host progress needed in
    /// between.
    pub fn start_barrier(&self) -> PendingColl {
        let mut st = self.offload_state();
        if self.n() == 1 {
            return PendingColl::noop();
        }
        let waits = self.enter_fence(&mut st);
        PendingColl {
            waits,
            result: None,
            binds: Vec::new(),
            cts: Vec::new(),
        }
    }

    /// Pre-post an offloaded binomial broadcast of `data` from `root`.
    ///
    /// Non-root ranks post a plain landing entry counting one put and
    /// park their forwarding puts at threshold 1 on it; the root parks its
    /// child puts on the fence counter — so the data wave starts only after
    /// every rank has posted, and propagates entirely in engine context.
    pub fn start_bcast(&self, root: usize, data: &[u8]) -> PendingColl {
        let mut st = self.offload_state();
        let n = self.n();
        if n == 1 {
            return PendingColl::noop();
        }
        let me = self.me();
        let ni = self.comm.engine().ni();
        let ctx = self.comm.context();
        let seq = st.alloc_seq();
        // Terminal counter of the fence this invocation is about to enter:
        // completing it proves every rank has posted its landing entries.
        let (fence_ct, fence_thr) = st
            .next_barrier
            .as_ref()
            .expect("slot pre-posted")
            .terminal();
        let bits = coll_bits(KIND_BCAST, ctx, seq);
        let vrank = (me + n - root) % n;

        // Root: `buf` carries the payload. Non-root: it is the landing area.
        let buf = Region::copy_from_slice(data);
        let send_md = ni
            .md_bind(MdSpec::new(buf.clone()))
            .expect("bind bcast buffer");
        let mut waits = Vec::new();
        if vrank != 0 {
            let ct = ni.ct_alloc().expect("allocate bcast counter");
            let meh = ni
                .me_attach(
                    PT_COLL,
                    ProcessId::ANY,
                    MatchCriteria::exact(bits),
                    true,
                    MePos::Back,
                )
                .expect("attach bcast entry");
            ni.md_attach(
                meh,
                MdSpec::new(buf.clone())
                    .with_ct(ct)
                    .with_threshold(Threshold::Count(1))
                    .with_options(MdOptions {
                        unlink_on_exhaustion: true,
                        ..Default::default()
                    }),
            )
            .expect("attach bcast descriptor");
            waits.push((ct, 1));
        }
        let (trig_ct, threshold) = if vrank == 0 {
            (fence_ct, fence_thr)
        } else {
            (waits[0].0, 1)
        };
        // Same child set and order as the host binomial tree: masks below the
        // receive mask, largest (deepest subtree) first.
        let mut mask = 1usize;
        while mask < n && vrank & mask == 0 {
            mask <<= 1;
        }
        let mut m = mask >> 1;
        while m > 0 {
            if vrank & m == 0 && vrank + m < n {
                let child = Rank((((vrank + m) + root) % n) as u32);
                ni.put_op(send_md)
                    .target(self.comm.process(child), PT_COLL)
                    .bits(bits)
                    .cookie(COLL_COOKIE)
                    .submit_after(trig_ct, threshold)
                    .expect("park bcast forward");
            }
            m >>= 1;
        }
        waits.extend(self.enter_fence(&mut st));
        PendingColl {
            waits,
            result: (vrank != 0).then_some(buf),
            binds: vec![send_md],
            cts: Vec::new(),
        }
    }

    /// Pre-post an offloaded recursive-doubling allreduce over `data`.
    ///
    /// Identity-initialised stage descriptors (one per stage) fold the two
    /// per-stage contributions in the engine: each rank's stage-`j` sends —
    /// one to the stage partner, one loopback to itself — are `F64` atomics
    /// of the reduction's operator, parked on the stage-`j−1` counter.
    /// Non-power-of-two sizes use the standard fold-in: extras fold their
    /// vector into a core partner's up front (an atomic parked on the fence)
    /// and receive the final result back.
    ///
    /// An empty vector, like a single rank, returns at once without taking a
    /// sequence number, so every rank's sequence stays aligned: an atomic
    /// must touch at least one lane.
    pub fn start_allreduce(&self, data: &[f64], op: ReduceOp) -> PendingColl {
        let mut st = self.offload_state();
        let n = self.n();
        if n == 1 || data.is_empty() {
            return PendingColl::noop();
        }
        let me = self.me();
        let ni = self.comm.engine().ni();
        let ctx = self.comm.context();
        let seq = st.alloc_seq();
        // Terminal counter of the fence this invocation is about to enter:
        // completing it proves every rank has posted its landing entries.
        let (fence_ct, fence_thr) = st
            .next_barrier
            .as_ref()
            .expect("slot pre-posted")
            .terminal();
        let p = n.next_power_of_two() >> if n.is_power_of_two() { 0 } else { 1 };
        let extra = n - p;
        let park_atomic = |md: MdHandle, dest: usize, bits: MatchBits, trig: CtHandle, thr: u64| {
            ni.atomic_op(md)
                .target(self.comm.process(Rank(dest as u32)), PT_COLL)
                .bits(bits)
                .cookie(COLL_COOKIE)
                .op(op.atomic_op())
                .datatype(AtomicDatatype::F64)
                .length(data.len() as u64 * AtomicDatatype::WIDTH)
                .submit_after(trig, thr)
        };
        let unlink = MdOptions {
            unlink_on_exhaustion: true,
            ..Default::default()
        };

        let mut waits = Vec::new();
        let mut binds = Vec::new();
        let mut cts = Vec::new();
        let result;

        if me < p {
            let stages = ceil_log2(p) as u64; // p ≥ 2 whenever n ≥ 2
                                              // Fold buffer: starts as this rank's own contribution; an extra's
                                              // vector (if any) is folded into it by an atomic.
            let fold_buf = Region::from_vec(encode_f64(data));
            let fold_bind = ni
                .md_bind(MdSpec::new(fold_buf.clone()))
                .expect("bind fold buffer");
            binds.push(fold_bind);
            let c0 = (me < extra).then(|| {
                let ct = ni.ct_alloc().expect("allocate fold counter");
                let meh = ni
                    .me_attach(
                        PT_COLL,
                        ProcessId::ANY,
                        MatchCriteria::exact(coll_bits(KIND_FOLD, ctx, seq)),
                        true,
                        MePos::Back,
                    )
                    .expect("attach fold entry");
                ni.md_attach(
                    meh,
                    MdSpec::new(fold_buf.clone())
                        .with_ct(ct)
                        .with_threshold(Threshold::Count(1))
                        .with_options(unlink),
                )
                .expect("attach fold descriptor");
                ct
            });
            // Per-stage identity-initialised buffers.
            let mut stage_bufs = Vec::new();
            let mut stage_cts = Vec::new();
            for j in 1..=stages {
                let buf = Region::from_vec(encode_f64(&vec![op.identity(); data.len()]));
                let ct = ni.ct_alloc().expect("allocate stage counter");
                let meh = ni
                    .me_attach(
                        PT_COLL,
                        ProcessId::ANY,
                        MatchCriteria::exact(coll_bits(KIND_STAGE + j, ctx, seq)),
                        true,
                        MePos::Back,
                    )
                    .expect("attach stage entry");
                ni.md_attach(
                    meh,
                    MdSpec::new(buf.clone())
                        .with_ct(ct)
                        .with_threshold(Threshold::Count(2))
                        .with_options(unlink),
                )
                .expect("attach stage descriptor");
                stage_bufs.push(buf);
                stage_cts.push(ct);
            }
            // Park the sends: stage j ships the previous stage's result to the
            // partner and (loopback) to this rank's own stage-j entry.
            let mut prev_bind = fold_bind;
            let (mut trig, mut thr) = match c0 {
                Some(c) => (c, 1),
                None => (fence_ct, fence_thr),
            };
            for j in 1..=stages {
                let partner = me ^ (1usize << (j - 1));
                let bits_j = coll_bits(KIND_STAGE + j, ctx, seq);
                for dest in [partner, me] {
                    park_atomic(prev_bind, dest, bits_j, trig, thr).expect("park stage send");
                }
                let bind = ni
                    .md_bind(MdSpec::new(stage_bufs[(j - 1) as usize].clone()))
                    .expect("bind stage buffer");
                binds.push(bind);
                prev_bind = bind;
                trig = stage_cts[(j - 1) as usize];
                thr = 2;
            }
            // Hand the finished vector back to the folded-in extra.
            if me < extra {
                ni.put_op(prev_bind)
                    .target(self.comm.process(Rank((me + p) as u32)), PT_COLL)
                    .bits(coll_bits(KIND_FINAL, ctx, seq))
                    .cookie(COLL_COOKIE)
                    .submit_after(trig, thr)
                    .expect("park final hand-back");
            }
            waits.push((trig, thr)); // == (stage R counter, 2)
            cts.extend(c0);
            cts.extend(&stage_cts[..stage_cts.len() - 1]);
            result = stage_bufs.pop();
        } else {
            // Extra rank: fold the input into the core partner's once every
            // rank has posted (fence), receive the final result.
            let input_bind = ni
                .md_bind(MdSpec::new(Region::from_vec(encode_f64(data))))
                .expect("bind extra input");
            binds.push(input_bind);
            let final_buf = Region::zeroed(data.len() * 8);
            let cf = ni.ct_alloc().expect("allocate final counter");
            let meh = ni
                .me_attach(
                    PT_COLL,
                    ProcessId::ANY,
                    MatchCriteria::exact(coll_bits(KIND_FINAL, ctx, seq)),
                    true,
                    MePos::Back,
                )
                .expect("attach final entry");
            ni.md_attach(
                meh,
                MdSpec::new(final_buf.clone())
                    .with_ct(cf)
                    .with_threshold(Threshold::Count(1))
                    .with_options(unlink),
            )
            .expect("attach final descriptor");
            let bits = coll_bits(KIND_FOLD, ctx, seq);
            park_atomic(input_bind, me - p, bits, fence_ct, fence_thr).expect("park extra fold-in");
            waits.push((cf, 1));
            result = Some(final_buf);
        }
        waits.extend(self.enter_fence(&mut st));
        PendingColl {
            waits,
            result,
            binds,
            cts,
        }
    }

    /// Complete an offloaded barrier.
    pub fn finish_barrier(&self, p: PendingColl) {
        self.finish_common(p);
    }

    /// Complete an offloaded broadcast into `data` (same slice length as
    /// `start_bcast` was given).
    pub fn finish_bcast(&self, p: PendingColl, data: &mut [u8]) {
        if let Some(buf) = self.finish_common(p) {
            data.copy_from_slice(&buf.read_vec(0, data.len()));
        }
    }

    /// Complete an offloaded allreduce into `data`.
    pub fn finish_allreduce(&self, p: PendingColl, data: &mut [f64]) {
        if let Some(buf) = self.finish_common(p) {
            data.copy_from_slice(&decode_f64(&buf.read_vec(0, buf.len())));
        }
    }

    /// Wait every counter (the terminal one first, then the fence — which
    /// must also complete before its round sends may be reclaimed), then
    /// release the schedule's resources.
    fn finish_common(&self, p: PendingColl) -> Option<Region> {
        let ni = self.comm.engine().ni();
        for &(ct, target) in &p.waits {
            ni.ct_wait(ct, target).expect("offloaded collective wait");
        }
        for md in p.binds {
            let _ = ni.md_unlink(md);
        }
        for (ct, _) in p.waits {
            let _ = ni.ct_free(ct);
        }
        for ct in p.cts {
            let _ = ni.ct_free(ct);
        }
        self.offload
            .as_ref()
            .expect("offloaded collectives not enabled")
            .lock()
            .active = false;
        p.result
    }
}

/// Pack f64s little-endian.
pub fn encode_f64(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack little-endian f64s.
pub fn decode_f64(bytes: &[u8]) -> Vec<f64> {
    assert_eq!(bytes.len() % 8, 0, "f64 payload must be 8-byte aligned");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_roundtrip() {
        let data = vec![1.5, -2.25, f64::MAX, 0.0, f64::MIN_POSITIVE];
        assert_eq!(decode_f64(&encode_f64(&data)), data);
    }

    #[test]
    fn combine_identities_pass_first_arrival_through() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            for v in [3.5f64, -2.25, 0.0] {
                let mut a = [op.identity()];
                op.combine(&mut a, &[v]);
                assert_eq!(a, [v], "{op:?} identity");
                let mut a = [v];
                op.combine(&mut a, &[op.identity()]);
                assert_eq!(a, [v], "{op:?} identity (sym)");
            }
        }
    }

    #[test]
    fn reduce_op_combine() {
        let mut a = vec![1.0, 5.0, 3.0];
        ReduceOp::Sum.combine(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, 4.0]);
        ReduceOp::Min.combine(&mut a, &[3.0, 0.0, 9.0]);
        assert_eq!(a, vec![2.0, 0.0, 4.0]);
        ReduceOp::Max.combine(&mut a, &[0.0, 7.0, 4.5]);
        assert_eq!(a, vec![2.0, 7.0, 4.5]);
    }
}
