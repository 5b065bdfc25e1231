//! The MPI progress engine.
//!
//! One engine exists per process. It owns a Portals [`NetworkInterface`], one
//! event queue for all MPI traffic, and the receives the interface has not
//! taken yet, in posting order. Unexpected arrivals are the interface's: its
//! overflow entries (the long entry and the slabs) record every put they
//! take, in wire-arrival order, eager and long alike, and posting a receive
//! ([`NetworkInterface::me_post`]) claims the oldest matching one or links
//! the receive, in one step under the portal lock. Receives are offered in
//! posting order and none overtakes one still waiting, so the MPI
//! non-overtaking rule holds across sizes.
//!
//! Portal assignments:
//!
//! | portal | use |
//! |---|---|
//! | 0 (`PT_MSG`) | every message: posted receives, the long entry, overflow slabs |
//! | 2 (`PT_RDVZ`) | exposed long sends: the receiver's get, then its FIN put |
//!
//! One protocol at every size. A message of at most
//! [`MpiConfig::slab_min_free`] bytes is *eager*: one put, which a posted
//! receive or an overflow slab takes whole. A longer one is *long*: the
//! sender exposes its buffer on `PT_RDVZ` under a serial, then puts the whole
//! message with the [`bits::LONG`] flag and the serial as remote offset. A
//! posted receive takes it whole and the ack completes the send. With no
//! receive posted, the long entry truncates it to zero bytes and records it,
//! and the receiver pulls it with one get once the receive is posted.
//!
//! Under [`Protocol::HardwareMatching`] posted receives are *hardware* match
//! entries: the Portals receive engine steers data into user buffers with no
//! MPI involvement (application bypass). Under [`Protocol::LibraryMatching`]
//! no hardware entries exist: everything overflows, and a receive claims its
//! message from the interface's record only inside MPI calls — the GM-style
//! baseline.

use crate::bits::{self, Tag};
use crate::config::{MpiConfig, Protocol};
use crate::request::{Completion, ReqKind, Request, Status};
use parking_lot::Mutex;
use portals::{
    AckRequest, EqHandle, EventKind, MdHandle, MdOptions, MdSpec, MeHandle, MePos,
    NetworkInterface, Posted, Region, RegionPool, Threshold, Unexpected,
};
use portals_obs::{Counter, Layer, Stage, TraceEvent};
use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, PtlResult, Rank};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

const PT_MSG: u32 = 0;
const PT_RDVZ: u32 = 2;
/// ACL cookie: entry 0 = same parallel application (§4.5).
const COOKIE: u32 = 0;

/// A receive the interface has not taken yet.
struct PostedRecv {
    id: u64,
    criteria: MatchCriteria,
    buf: Region,
    cap: usize,
}

/// An in-flight send tracked for completion and, under flow control, re-issue
/// when the target nacks its put (its portal was flow-disabled). Keyed in
/// `EngState::sends` by the put's descriptor.
struct SendInfo {
    /// The user request this send completes.
    id: u64,
    dest: ProcessId,
    /// The put's match bits, [`bits::LONG`] included for a long send.
    match_bits: MatchBits,
    /// The put's remote offset: the serial of a long send, 0 for an eager
    /// one.
    serial: u64,
    /// A long send's exposure on `PT_RDVZ` (entry, descriptor).
    exposure: Option<(MeHandle, MdHandle)>,
    /// The pooled slab backing this send (small eager snapshots only),
    /// returned to the pool once its ack arrives.
    pooled: Option<Region>,
    /// Message length, reported as the requested length on completion.
    total_len: u64,
    /// Bytes the receiver's get took (the `Get` event's manipulated length),
    /// reported as delivered when a pulled send completes.
    pulled: u64,
    /// Of a pulled send's two closing events — its put's ack and the
    /// receiver's FIN — how many have arrived. The receiver's interface acks
    /// after pushing the event its library pulls on, so they can reach this
    /// engine in either order.
    closed: u8,
}

struct EngState {
    next_req: u64,
    next_serial: u64,
    sends: HashMap<MdHandle, SendInfo>,
    send_done: HashMap<u64, (u64, u64)>,
    /// Receives the interface has not taken, in posting order.
    waiting: VecDeque<PostedRecv>,
    /// An overflow put landed, or the last offer ended at one still landing.
    reoffer: bool,
    /// Receives linked as hardware entries, by their descriptor.
    linked: HashMap<MdHandle, u64>,
    recv_done: HashMap<u64, Status>,
    /// Long-message pulls by their get's MD: the receive and its message.
    pulls: HashMap<MdHandle, (u64, Unexpected)>,
    /// The long entry's descriptor. The long entry is the first overflow
    /// entry: it matches [`bits::LONG`] alone and takes every long put no
    /// posted receive took. Its MD keeps none of the put's bytes and never
    /// exhausts: zero bytes long, truncating, infinite threshold. It does
    /// not manage its offset, so the put's remote offset — the sender's
    /// serial — is recorded as the put's offset (`Md::evaluate` accepts zero
    /// bytes at any requested offset). Every other `PT_MSG` MD manages its
    /// own offset and ignores the serial. (Portals 3.3 added `hdr_data` for
    /// out-of-band fields like this one.)
    long_md: MdHandle,
    slab_me: MeHandle,
    slab_mds: HashSet<MdHandle>,
}

/// Protocol choices made per send. Both counts are always zero: there is
/// one protocol and nothing to choose. The type stays only because the
/// benchmark's rig (`benchmark/src/rig.rs`) reads these two fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveReport {
    /// Always 0.
    pub eager_decisions: u64,
    /// Always 0.
    pub rdvz_decisions: u64,
}

/// Largest eager message served from the send-side region pool, bytes:
/// sends at or below it snapshot into a recycled slab instead of a fresh
/// allocation; larger sends (and all long sends) allocate.
const POOL_SLAB: usize = 2048;

/// Bound on the send-side pool's free list (slabs kept for reuse).
const POOL_FREE: usize = 64;

/// The per-process MPI engine (see module docs).
pub struct MpiEngine {
    ni: NetworkInterface,
    eq: EqHandle,
    config: MpiConfig,
    state: Mutex<EngState>,
    /// Zero-length source of every FIN put (never consumed: no threshold, no
    /// event queue).
    fin_md: MdHandle,
    /// Slab pool for small eager sends (the malloc/free pair that path used
    /// to pay per message): [`POOL_SLAB`]-byte slabs, at most [`POOL_FREE`]
    /// kept for reuse.
    pool: RegionPool,
    /// `mpi.regions_pooled`: takes served from a recycled slab.
    regions_pooled: Counter,
    /// `mpi.regions_allocated`: pool-eligible takes that fell back to a
    /// fresh allocation (cold pool or quarantined slabs).
    regions_allocated: Counter,
}

impl MpiEngine {
    /// One MPI-layer lifecycle trace event (no-op when tracing is disabled).
    fn trace(&self, stage: Stage, bytes: u64, detail: &'static str) {
        self.ni.obs().tracer.emit(|| {
            TraceEvent::new(Layer::Mpi, stage)
                .node(self.ni.id().nid.0)
                .bytes(bytes)
                .detail(detail)
        });
    }

    /// Build an engine on a network interface, setting up the message portal:
    /// the long entry and the overflow slabs behind it.
    pub fn new(ni: NetworkInterface, config: MpiConfig) -> PtlResult<MpiEngine> {
        let eq = ni.eq_alloc(config.eq_capacity)?;
        // Opt the message portal into flow control: when slabs run out,
        // senders are nacked and this engine gets a FlowCtrl event to re-post
        // and resume, instead of messages silently dropping.
        if ni.flow_control() {
            ni.pt_flow_ctrl(PT_MSG, Some(eq))?;
        }
        let overflow =
            |criteria| ni.me_attach(PT_MSG, ProcessId::ANY, criteria, false, MePos::Overflow);
        let long_me = overflow(MatchCriteria::with_ignore(
            MatchBits::new(bits::LONG),
            MatchBits::new(!bits::LONG),
        ))?;
        let long_md = ni.md_attach(
            long_me,
            MdSpec::new(Region::zeroed(0))
                .with_eq(eq)
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    ..Default::default()
                }),
        )?;
        let slab_me = overflow(MatchCriteria::any())?;
        let labels = [("node", ni.id().nid.0.to_string())];
        let regions_pooled = ni.obs().registry.counter("mpi.regions_pooled", &labels);
        let regions_allocated = ni.obs().registry.counter("mpi.regions_allocated", &labels);
        let fin_md = ni.md_bind(MdSpec::new(Region::zeroed(0)))?;
        let engine = MpiEngine {
            fin_md,
            pool: RegionPool::new(POOL_SLAB, POOL_FREE),
            regions_pooled,
            regions_allocated,
            ni,
            eq,
            config,
            state: Mutex::new(EngState {
                next_req: 0,
                // Serial 0 would be indistinguishable from the offset a
                // posted receive acks with.
                next_serial: 1,
                sends: HashMap::new(),
                send_done: HashMap::new(),
                waiting: VecDeque::new(),
                reoffer: false,
                linked: HashMap::new(),
                recv_done: HashMap::new(),
                pulls: HashMap::new(),
                long_md,
                slab_me,
                slab_mds: HashSet::new(),
            }),
        };
        {
            let mut st = engine.state.lock();
            for _ in 0..config.slab_count {
                engine.attach_slab(&mut st)?;
            }
        }
        Ok(engine)
    }

    /// The underlying interface (for counters and diagnostics).
    pub fn ni(&self) -> &NetworkInterface {
        &self.ni
    }

    /// The engine configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.config
    }

    fn attach_slab(&self, st: &mut EngState) -> PtlResult<()> {
        let md = self.ni.md_attach(
            st.slab_me,
            MdSpec::new(Region::zeroed(self.config.slab_size))
                .with_eq(self.eq)
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    manage_local_offset: true,
                    unlink_on_exhaustion: false,
                    min_free: self.config.slab_min_free,
                }),
        )?;
        st.slab_mds.insert(md);
        Ok(())
    }

    // ----- sending -----------------------------------------------------------

    /// Nonblocking send of `data` to `dest` with the given context/rank/tag
    /// triple. The data is snapshotted (the caller's slice need not outlive
    /// the request) — the one API-boundary copy. Small eager sends snapshot
    /// into a pooled slab recycled on completion; larger ones allocate. Use
    /// [`MpiEngine::isend_region`] to send a caller-owned region with no copy.
    pub fn isend(
        &self,
        context: bits::Context,
        my_rank: u16,
        dest: ProcessId,
        tag: Tag,
        data: &[u8],
    ) -> PtlResult<Request> {
        let match_bits = bits::encode(context, my_rank, tag);
        let len = data.len();
        if len <= POOL_SLAB.min(self.config.slab_min_free) {
            let slab = self.take_pooled();
            if !data.is_empty() {
                slab.write(0, data);
            }
            return self.isend_inner(dest, match_bits, slab, len, true);
        }
        self.isend_inner(dest, match_bits, Region::copy_from_slice(data), len, false)
    }

    /// Nonblocking send of a caller-owned region. Zero-copy: the MD is bound
    /// directly over `data`, so the bytes travel from this region to the
    /// target without an intermediate snapshot. The caller must not mutate
    /// the region until the request completes.
    pub fn isend_region(
        &self,
        context: bits::Context,
        my_rank: u16,
        dest: ProcessId,
        tag: Tag,
        data: Region,
    ) -> PtlResult<Request> {
        let len = data.len();
        self.isend_inner(dest, bits::encode(context, my_rank, tag), data, len, false)
    }

    /// A [`POOL_SLAB`]-byte region from the pool, with the hit/miss mirrored
    /// into the obs counters.
    fn take_pooled(&self) -> Region {
        let (slab, hit) = self.pool.take_tracked();
        if hit {
            self.regions_pooled.inc();
        } else {
            self.regions_allocated.inc();
        }
        slab
    }

    /// The shared isend body. `len` is the message length — `data` may be a
    /// pooled slab longer than the message, so the MD is bound `len`-long
    /// over its front. `pooled` (eager sends only) marks the region for
    /// recycling when the send's ack arrives.
    fn isend_inner(
        &self,
        dest: ProcessId,
        match_bits: MatchBits,
        data: Region,
        len: usize,
        pooled: bool,
    ) -> PtlResult<Request> {
        // Checked before anything is exposed or tracked: the put would fail
        // the same way, leaving both behind.
        if len > self.ni.limits().max_message_size {
            return Err(PtlError::LimitExceeded);
        }
        let long = len > self.config.slab_min_free;
        let mut st = self.state.lock();
        let id = st.next_req;
        st.next_req += 1;
        self.trace(
            Stage::Submit,
            len as u64,
            if long { "long" } else { "eager" },
        );

        let (put_bits, serial, exposure) = if long {
            // Expose the payload for a pull, in case no receive is posted.
            // One entry, used at most twice: the receiver's get reads the
            // payload (its event records how much), and the receiver's
            // zero-length FIN put — sent once the reply has landed — exhausts
            // the descriptor, which unlinks both.
            let serial = st.next_serial;
            st.next_serial += 1;
            let me = self.ni.me_attach(
                PT_RDVZ,
                ProcessId::ANY,
                MatchCriteria::exact(MatchBits::new(serial)),
                true,
                MePos::Back,
            )?;
            let md = self.ni.md_attach(
                me,
                MdSpec::new(data.clone())
                    .with_length(len)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(2))
                    .with_options(MdOptions {
                        op_put: true,
                        op_get: true,
                        truncate: true,
                        unlink_on_exhaustion: true,
                        ..Default::default()
                    }),
            )?;
            let flagged = MatchBits::new(match_bits.raw() | bits::LONG);
            (flagged, serial, Some((me, md)))
        } else {
            (match_bits, 0, None)
        };
        // The put goes from a descriptor of its own, which never exhausts:
        // a nacked put is re-put from it as it is, and its real ack unlinks
        // it.
        let md = self.ni.md_bind(
            MdSpec::new(data.clone())
                .with_length(len)
                .with_eq(self.eq)
                .with_threshold(Threshold::Infinite),
        )?;
        st.sends.insert(
            md,
            SendInfo {
                id,
                dest,
                match_bits: put_bits,
                serial,
                exposure,
                pooled: pooled.then(|| data.clone()),
                total_len: len as u64,
                pulled: 0,
                closed: 0,
            },
        );
        self.ni
            .put_op(md)
            .target(dest, PT_MSG)
            .bits(put_bits)
            .offset(serial)
            .ack(AckRequest::Ack)
            .cookie(COOKIE)
            .submit()?;
        Ok(Request {
            id,
            kind: ReqKind::Send,
        })
    }

    // ----- receiving ----------------------------------------------------------

    /// Nonblocking receive into `buf` (up to `cap` bytes). `src`/`tag` of
    /// `None` are the MPI wildcards.
    pub fn irecv(
        &self,
        context: bits::Context,
        src: Option<u16>,
        tag: Option<Tag>,
        buf: Region,
        cap: usize,
    ) -> PtlResult<Request> {
        let criteria = bits::recv_criteria(context, src, tag);
        let mut st = self.state.lock();
        let id = st.next_req;
        st.next_req += 1;
        self.drain(&mut st);
        st.waiting.push_back(PostedRecv {
            id,
            criteria,
            buf,
            cap,
        });
        self.offer(&mut st)
            .inspect_err(|_| st.waiting.retain(|r| r.id != id))?;
        Ok(Request {
            id,
            kind: ReqKind::Recv,
        })
    }

    /// Offer the waiting receives to the interface, front to back. Each one
    /// claims the oldest message it matches, or under hardware matching is
    /// linked as a match entry. No later receive may take a message an
    /// earlier one would match first. So a receive whose message is still
    /// landing ends the pass; and once one finds nothing, the later ones
    /// claim only messages recorded before it searched. Either way the
    /// message's `Put` event, or the next drain, offers the list again.
    fn offer(&self, st: &mut EngState) -> PtlResult<()> {
        st.reoffer = false;
        let mut upto = None;
        let mut at = 0;
        while let Some(r) = st.waiting.get(at) {
            let spec = (self.config.protocol == Protocol::HardwareMatching).then(|| {
                // The MD is single-use, so managing its offset still lands
                // the data at 0 — and ignores a long put's serial.
                MdSpec::new(r.buf.clone())
                    .with_length(r.cap)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1))
                    .with_options(MdOptions {
                        op_put: true,
                        op_get: false,
                        truncate: true,
                        manage_local_offset: true,
                        unlink_on_exhaustion: true,
                        ..Default::default()
                    })
            });
            match self
                .ni
                .me_post(PT_MSG, ProcessId::ANY, r.criteria, spec, upto)?
            {
                Posted::Claimed(put) => {
                    let r = st.waiting.remove(at).expect("indexed");
                    self.deliver(st, r, put);
                }
                Posted::Linked(_, md) => {
                    let r = st.waiting.remove(at).expect("indexed");
                    st.linked.insert(md, r.id);
                }
                Posted::Busy => {
                    st.reoffer = true;
                    return Ok(());
                }
                Posted::Unmatched(seen) => {
                    upto = upto.or(Some(seen));
                    at += 1;
                }
            }
        }
        Ok(())
    }

    /// Hand an unexpected message to receive `r`: copy it out of its slab,
    /// or start pulling it from the sender's exposure.
    fn deliver(&self, st: &mut EngState, r: PostedRecv, put: Unexpected) {
        if put.md == st.long_md {
            return self.start_pull(st, r, put);
        }
        let n = put.mlength.min(r.cap as u64);
        put.mem.gather(put.offset, n).copy_to_region(&r.buf, 0);
        self.complete(st, r.id, put.match_bits, n, put.rlength, "eager_slab");
    }

    /// Receive `id` is complete: `len` of the `full_len` bytes of the
    /// message `match_bits` names have landed.
    fn complete(
        &self,
        st: &mut EngState,
        id: u64,
        match_bits: MatchBits,
        len: u64,
        full_len: u64,
        how: &'static str,
    ) {
        let (_, src_rank, tag) = bits::decode(match_bits);
        let status = Status {
            source: Rank(src_rank as u32),
            tag,
            len: len as usize,
            truncated: full_len > len,
            full_len: full_len as usize,
        };
        st.recv_done.insert(id, status);
        self.trace(Stage::Deliver, len, how);
    }

    /// Pull a long message, still in the sender's buffer and exposed on
    /// `PT_RDVZ` under the serial the long entry kept as its offset, with one
    /// get bound directly over the user's receive region: the reply lands at
    /// the MD start, and the streaming transport scatters it there fragment
    /// by fragment. The get asks for `min(rlength, cap)` bytes (§4.8
    /// truncation, decided here from the length the long entry recorded).
    fn start_pull(&self, st: &mut EngState, r: PostedRecv, put: Unexpected) {
        let pull_len = put.rlength.min(r.cap as u64);
        let (sender, serial) = (put.initiator, put.offset);
        let md = self
            .ni
            .md_bind(
                MdSpec::new(r.buf)
                    .with_length(pull_len as usize)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1)),
            )
            .expect("bind long-message pull md");
        st.pulls.insert(md, (r.id, put));
        self.ni
            .get_op(md)
            .target(sender, PT_RDVZ)
            .bits(MatchBits::new(serial))
            .cookie(COOKIE)
            .length(pull_len)
            .submit()
            .expect("long-message get");
    }

    /// Nonblocking probe (MPI_Iprobe): report the oldest arrived-but-unclaimed
    /// message matching `(src, tag)` without consuming it. Only messages that
    /// arrived *unexpected* are visible — which is the situation probe exists
    /// for (deciding how to post the receive).
    pub fn iprobe(
        &self,
        context: bits::Context,
        src: Option<u16>,
        tag: Option<Tag>,
    ) -> Option<Status> {
        let mut st = self.state.lock();
        self.drain(&mut st);
        self.arrived(&st, bits::recv_criteria(context, src, tag))
    }

    /// Blocking probe (MPI_Probe): [`MpiEngine::iprobe`]'s test as one more
    /// predicate on the wait loop, so it parks like every other wait.
    pub fn probe(&self, context: bits::Context, src: Option<u16>, tag: Option<Tag>) -> Status {
        let criteria = bits::recv_criteria(context, src, tag);
        self.wait_until(Instant::now() + Duration::from_secs(300), |st| {
            self.arrived(st, criteria)
        })
        .expect("MPI probe timed out (5 min)")
    }

    /// The oldest arrived-but-unclaimed message matching `criteria` — none
    /// while a waiting receive's message is still landing, which may be this
    /// one and is that receive's.
    fn arrived(&self, st: &EngState, criteria: MatchCriteria) -> Option<Status> {
        if st.reoffer {
            return None;
        }
        let put = self.unexpected(criteria).1?;
        let (_, src_rank, tag) = bits::decode(put.match_bits);
        Some(Status {
            source: Rank(src_rank as u32),
            tag,
            len: put.rlength as usize,
            truncated: false,
            full_len: put.rlength as usize,
        })
    }

    /// The interface's search of the message portal's unexpected puts.
    fn unexpected(&self, criteria: MatchCriteria) -> (usize, Option<Unexpected>) {
        self.ni
            .me_search(PT_MSG, ProcessId::ANY, criteria)
            .expect("the message portal exists")
    }

    // ----- completion ----------------------------------------------------------

    /// Nonblocking completion test. Consumes the request when complete.
    pub fn test(&self, req: Request) -> Option<Completion> {
        let mut st = self.state.lock();
        self.drain(&mut st);
        Self::take_completion(&mut st, req)
    }

    /// Drive progress without testing anything (an `MPI_Test`-like call for
    /// the Figure 6 "test calls during work" variant).
    pub fn progress(&self) {
        let mut st = self.state.lock();
        self.drain(&mut st);
    }

    /// The one blocking loop behind every wait: drain, ask `done`, and
    /// otherwise block briefly on the event queue (on a host-driven node this
    /// wait is also what runs the Portals receive engine) until `done`
    /// yields or `deadline` passes.
    fn wait_until<T>(
        &self,
        deadline: Instant,
        mut done: impl FnMut(&mut EngState) -> Option<T>,
    ) -> Option<T> {
        loop {
            {
                let mut st = self.state.lock();
                self.drain(&mut st);
                if let Some(t) = done(&mut st) {
                    return Some(t);
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            match self.ni.eq_poll(self.eq, Duration::from_micros(200)) {
                Ok(ev) => self.handle_event(&mut self.state.lock(), ev),
                Err(PtlError::Timeout) | Err(PtlError::EqEmpty) => {}
                Err(PtlError::EqDropped) => self.recover_dropped_events(&mut self.state.lock()),
                Err(e) => panic!("event queue failure: {e}"),
            }
        }
    }

    /// Block until `req` completes or `timeout` expires.
    pub fn wait_timeout(&self, req: Request, timeout: Duration) -> Option<Completion> {
        self.wait_until(Instant::now() + timeout, |st| {
            Self::take_completion(st, req)
        })
    }

    /// Block until `req` completes.
    pub fn wait(&self, req: Request) -> Completion {
        self.wait_timeout(req, Duration::from_secs(300))
            .expect("MPI wait timed out (5 min)")
    }

    /// Wait for every request, in order.
    pub fn wait_all(&self, reqs: &[Request]) -> Vec<Completion> {
        reqs.iter().map(|r| self.wait(*r)).collect()
    }

    /// Wait until any one of `reqs` completes; returns its index and
    /// completion (MPI_Waitany).
    pub fn wait_any(&self, reqs: &[Request]) -> (usize, Completion) {
        assert!(!reqs.is_empty(), "wait_any needs at least one request");
        self.wait_until(Instant::now() + Duration::from_secs(300), |st| {
            reqs.iter()
                .enumerate()
                .find_map(|(i, r)| Self::take_completion(st, *r).map(|c| (i, c)))
        })
        .expect("MPI wait_any timed out (5 min)")
    }

    fn take_completion(st: &mut EngState, req: Request) -> Option<Completion> {
        match req.kind {
            ReqKind::Send => {
                st.send_done
                    .remove(&req.id)
                    .map(|(delivered, requested)| Completion::Send {
                        delivered,
                        requested,
                    })
            }
            ReqKind::Recv => st.recv_done.remove(&req.id).map(Completion::Recv),
        }
    }

    /// Bytes of unexpected-message buffering currently attached (the §4.1
    /// memory-scaling metric: independent of peer count). The long entry
    /// holds no bytes.
    pub fn unexpected_buffer_bytes(&self) -> usize {
        self.state.lock().slab_mds.len() * self.config.slab_size
    }

    /// Unconsumed unexpected arrivals, eager and long (diagnostics).
    pub fn unexpected_pending(&self) -> usize {
        self.unexpected(MatchCriteria::any()).0
    }

    /// Sends submitted and not yet complete (diagnostics).
    pub fn sends_pending(&self) -> usize {
        self.state.lock().sends.len()
    }

    /// Takes served from the region pool (the `mpi.regions_pooled` metric).
    pub fn regions_pooled(&self) -> u64 {
        self.pool.pooled()
    }

    /// Pool-eligible takes that fell back to a fresh allocation.
    pub fn regions_allocated(&self) -> u64 {
        self.pool.allocated()
    }

    /// Always zeros (see [`AdaptiveReport`]).
    pub fn adaptive_report(&self) -> AdaptiveReport {
        AdaptiveReport::default()
    }

    // ----- event processing -----------------------------------------------------

    /// Consume every pending event, then offer the waiting receives if
    /// anything since the last offer calls for it.
    fn drain(&self, st: &mut EngState) {
        loop {
            match self.ni.eq_get(self.eq) {
                Ok(ev) => self.handle_event(st, ev),
                Err(PtlError::EqEmpty) => break,
                Err(PtlError::EqDropped) => self.recover_dropped_events(st),
                Err(e) => panic!("event queue failure: {e}"),
            }
        }
        if st.reoffer {
            self.offer(st).expect("post a waiting receive");
        }
    }

    /// The MPI event queue lapped its consumer and unread events are gone.
    /// A lost overflow `Put` event loses no message: the interface keeps the
    /// put until a receive claims it, and the waiting receives are offered
    /// again. A lost direct `Put` event is a receive that never completes, so
    /// without flow control the panic stands. With flow control the data
    /// path cannot have overwritten (the engine trips the portal before
    /// pushing into a near-full queue), so the lost events are bookkeeping;
    /// re-arm the resources they would have replenished and keep going.
    fn recover_dropped_events(&self, st: &mut EngState) {
        if !self.ni.flow_control() {
            panic!("MPI event queue overflowed — raise MpiConfig::eq_capacity");
        }
        self.trace(Stage::Event, 0, "eq_dropped_recover");
        st.reoffer = true;
        self.attach_slab(st).expect("replenish slab after eq drop");
        let _ = self.ni.pt_enable(PT_MSG);
    }

    fn handle_event(&self, st: &mut EngState, ev: portals::Event) {
        match ev.kind {
            EventKind::Sent => {}
            EventKind::Ack => {
                if ev.mlength == portals::NACK_MLENGTH {
                    // The target's portal is flow-disabled: nothing was
                    // delivered, the message is still ours — re-issue.
                    self.retry_send(st, ev.md);
                } else if let Some(mut info) = st.sends.remove(&ev.md) {
                    let _ = self.ni.md_unlink(ev.md);
                    if let Some(slab) = info.pooled.take() {
                        self.pool.recycle(slab);
                    }
                    match info.exposure {
                        // The long entry took the put at its serial: the
                        // receiver pulls, and the send completes once its FIN
                        // has landed too.
                        Some((_, exposure)) if ev.offset == info.serial => {
                            info.closed += 1;
                            st.sends.insert(exposure, info);
                            self.close_pulled(st, exposure);
                        }
                        // A posted receive (or, eager, a slab) took the put:
                        // the target reports what it accepted, and nobody
                        // will pull.
                        exposure => {
                            if let Some((me, _)) = exposure {
                                let _ = self.ni.me_unlink(me);
                            }
                            st.send_done.insert(info.id, (ev.mlength, ev.rlength));
                        }
                    }
                }
            }
            EventKind::Get => {
                // The receiver's get matched an exposure. This is logged
                // before the reply leaves — the payload is still being read
                // out of the send buffer — so it only records how much was
                // taken; the FIN completes the send.
                if let Some(key) = Self::exposing(st, ev.md) {
                    st.sends.get_mut(&key).expect("keyed").pulled = ev.mlength;
                }
            }
            EventKind::Reply => {
                // A long payload has fully landed in the user buffer.
                if let Some((id, put)) = st.pulls.remove(&ev.md) {
                    let _ = self.ni.md_unlink(ev.md);
                    self.complete(st, id, put.match_bits, ev.mlength, put.rlength, "pulled");
                    // FIN: every byte has arrived, so nothing the sender's
                    // buffer holds from now on can reach this one (a late
                    // retransmission is a duplicate, and discarded). `PT_RDVZ`
                    // is not flow controlled, so this put cannot be nacked.
                    self.ni
                        .put_op(self.fin_md)
                        .target(put.initiator, PT_RDVZ)
                        .bits(MatchBits::new(put.offset))
                        .cookie(COOKIE)
                        .submit()
                        .expect("long-message FIN");
                }
            }
            EventKind::Put => self.handle_put_event(st, ev),
            EventKind::Atomic | EventKind::FetchAtomic => {
                // RMA windows run on their own portal with per-window queues;
                // the point-to-point engine's EQ never sees atomic traffic.
            }
            EventKind::Unlink => {
                // A slab rotated out: attach a replacement. (The interface's
                // record of each put the slab took keeps its memory until a
                // receive claims it.)
                if st.slab_mds.remove(&ev.md) {
                    self.attach_slab(st).expect("replenish slab");
                }
            }
            EventKind::FlowCtrl => {
                // The portal tripped: senders are being nacked and will
                // retry. Re-post the exhausted resource, then resume. Each
                // trip adds one slab of headroom, so sustained
                // oversubscription grows buffering until the receiver keeps
                // up.
                self.trace(Stage::Event, 0, "flowctrl_resume");
                if ev.portal_index == PT_MSG {
                    self.attach_slab(st).expect("replenish slab after trip");
                }
                let _ = self.ni.pt_enable(ev.portal_index);
            }
        }
    }

    /// The key in `sends` of the long send exposed through `md`: the put's
    /// descriptor until its ack arrives, the exposure's after.
    fn exposing(st: &EngState, md: MdHandle) -> Option<MdHandle> {
        st.sends
            .iter()
            .find(|(_, s)| s.exposure.is_some_and(|(_, e)| e == md))
            .map(|(key, _)| *key)
    }

    /// Complete a pulled send once both its ack and the receiver's FIN have
    /// arrived. Its put's descriptor is gone by then and the exposure
    /// unlinked itself on the FIN: nothing reads the buffer any more.
    fn close_pulled(&self, st: &mut EngState, key: MdHandle) {
        if st.sends.get(&key).is_some_and(|s| s.closed == 2) {
            let info = st.sends.remove(&key).expect("checked");
            st.send_done.insert(info.id, (info.pulled, info.total_len));
        }
    }

    /// Re-issue a nacked put. The nack guarantees the target delivered
    /// nothing, so the MD still holds the complete message: put again, a
    /// long one at its serial. The cycle repeats until the target re-enables
    /// its portal and acks for real; the transport's credit window paces the
    /// retries.
    fn retry_send(&self, st: &mut EngState, md: MdHandle) {
        let Some(info) = st.sends.get(&md) else {
            return;
        };
        let (dest, bits, serial) = (info.dest, info.match_bits, info.serial);
        self.trace(Stage::Retransmit, info.total_len, "nack_retry");
        self.ni
            .put_op(md)
            .target(dest, PT_MSG)
            .bits(bits)
            .offset(serial)
            .ack(AckRequest::Ack)
            .cookie(COOKIE)
            .submit()
            .expect("nack retry re-put");
    }

    fn handle_put_event(&self, st: &mut EngState, ev: portals::Event) {
        if ev.portal_index == PT_RDVZ {
            // The receiver's FIN: its reply has landed, so the exposed buffer
            // is quiescent. The exposure unlinked itself on this second
            // (last) use.
            if let Some(key) = Self::exposing(st, ev.md) {
                st.sends.get_mut(&key).expect("keyed").closed += 1;
                self.close_pulled(st, key);
            }
            return;
        }
        let Some(id) = st.linked.remove(&ev.md) else {
            // An overflow entry took a put, which has now landed: a waiting
            // receive may claim it.
            st.reoffer = true;
            return;
        };
        // Direct delivery into a linked receive.
        self.complete(st, id, ev.match_bits, ev.mlength, ev.rlength, "direct");
    }
}

impl std::fmt::Debug for MpiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpiEngine({}, {:?})", self.ni.id(), self.config.protocol)
    }
}
