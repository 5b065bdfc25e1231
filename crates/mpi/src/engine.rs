//! The MPI progress engine.
//!
//! One engine exists per process. It owns a Portals [`NetworkInterface`], one
//! event queue for all MPI traffic, and the per-process matching state:
//! posted receives (in posting order) and unexpected arrivals (in
//! wire-arrival order, eager and long alike, so the MPI non-overtaking rule
//! holds across sizes).
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
//! no hardware entries exist: everything overflows and is matched here,
//! inside MPI calls — the GM-style baseline.

use crate::bits::{self, Tag};
use crate::config::{MpiConfig, Protocol};
use crate::request::{Completion, ReqKind, Request, Status};
use parking_lot::Mutex;
use portals::{
    AckRequest, EqHandle, EventKind, MdHandle, MdOptions, MdSpec, MeHandle, MePos,
    NetworkInterface, Region, RegionPool, Threshold,
};
use portals_obs::{Counter, Layer, Stage, TraceEvent};
use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, PtlResult, Rank};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

const PT_MSG: u32 = 0;
const PT_RDVZ: u32 = 2;
/// ACL cookie: entry 0 = same parallel application (§4.5).
const COOKIE: u32 = 0;

/// A posted-but-unmatched receive.
struct PostedRecv {
    id: u64,
    criteria: MatchCriteria,
    buf: Region,
    cap: usize,
    /// `Some` when a hardware match entry backs this receive.
    hw: Option<(MeHandle, MdHandle)>,
}

/// An unexpected message, waiting for its receive.
struct Arrival {
    bits: MatchBits,
    /// The message's full length.
    rlength: usize,
    body: Body,
}

/// Where an unexpected message's bytes are.
enum Body {
    /// An eager message: `mlength` bytes at `offset` of an overflow slab.
    Slab {
        buf: Region,
        offset: usize,
        mlength: usize,
    },
    /// A long message: still in the sender's buffer, exposed on `PT_RDVZ`
    /// under `serial`.
    Exposed { sender: ProcessId, serial: u64 },
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

/// An outstanding long-message pull: one get bound over the user's receive
/// region, keyed in `EngState::pulls` by that MD.
struct PullState {
    /// The receive request this pull completes.
    id: u64,
    src: u16,
    tag: Tag,
    total_len: u64,
    cap: usize,
    sender: ProcessId,
    serial: u64,
}

struct EngState {
    next_req: u64,
    next_serial: u64,
    sends: HashMap<MdHandle, SendInfo>,
    send_done: HashMap<u64, (u64, u64)>,
    recvs: Vec<PostedRecv>,
    recv_done: HashMap<u64, Status>,
    pulls: HashMap<MdHandle, PullState>,
    unexpected: VecDeque<Arrival>,
    /// The long entry, between the posted receives and the slabs: it
    /// matches [`bits::LONG`] alone and takes every long put no posted
    /// receive took. Its MD keeps none of the put's bytes and never
    /// exhausts: zero bytes long, truncating, infinite threshold. It does
    /// not manage its offset, so the put's remote offset — the sender's
    /// serial — comes back as the `Put` event's offset (`Md::evaluate`
    /// accepts zero bytes at any requested offset). Every other `PT_MSG` MD
    /// manages its own offset and ignores the serial. (Portals 3.3 added
    /// `hdr_data` for out-of-band fields like this one.)
    long_me: MeHandle,
    long_md: MdHandle,
    slab_me: MeHandle,
    slab_mds: HashMap<MdHandle, Region>,
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
    /// to pay per message).
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
        let long_criteria =
            MatchCriteria::with_ignore(MatchBits::new(bits::LONG), MatchBits::new(!bits::LONG));
        let long_me = ni.me_attach(PT_MSG, ProcessId::ANY, long_criteria, false, MePos::Back)?;
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
        let slab_me = ni.me_attach(
            PT_MSG,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )?;
        let labels = [("node", ni.id().nid.0.to_string())];
        let regions_pooled = ni.obs().registry.counter("mpi.regions_pooled", &labels);
        let regions_allocated = ni.obs().registry.counter("mpi.regions_allocated", &labels);
        let fin_md = ni.md_bind(MdSpec::new(Region::zeroed(0)))?;
        let engine = MpiEngine {
            fin_md,
            pool: RegionPool::new(config.pool_slab, config.pool_free),
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
                recvs: Vec::new(),
                recv_done: HashMap::new(),
                pulls: HashMap::new(),
                unexpected: VecDeque::new(),
                long_me,
                long_md,
                slab_me,
                slab_mds: HashMap::new(),
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
        let buf = Region::zeroed(self.config.slab_size);
        let md = self.ni.md_attach(
            st.slab_me,
            MdSpec::new(buf.clone())
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
        st.slab_mds.insert(md, buf);
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
        if len <= self.config.pool_slab.min(self.config.slab_min_free) && self.config.pool_slab > 0
        {
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

    /// A `pool_slab`-byte region from the pool, with the hit/miss mirrored
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
        // The put goes from a descriptor of its own, so that its threshold
        // is not the exposure's.
        let md = self.ni.md_bind(
            MdSpec::new(data.clone())
                .with_length(len)
                .with_eq(self.eq)
                .with_threshold(Threshold::Count(1)),
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

        // Already arrived? Take the oldest matching arrival.
        if let Some(i) = st.unexpected.iter().position(|a| criteria.matches(a.bits)) {
            let arrival = st.unexpected.remove(i).expect("indexed");
            self.deliver(&mut st, id, buf, cap, arrival);
            return Ok(Request {
                id,
                kind: ReqKind::Recv,
            });
        }

        if self.config.protocol == Protocol::LibraryMatching {
            st.recvs.push(PostedRecv {
                id,
                criteria,
                buf,
                cap,
                hw: None,
            });
            return Ok(Request {
                id,
                kind: ReqKind::Recv,
            });
        }
        // Post a hardware match entry ahead of the long entry, with an
        // inactive MD, then activate it atomically against the event queue
        // (the PtlMDUpdate pattern). The MD is single-use, so managing its
        // offset still lands the data at 0 — and ignores a long put's serial.
        let long_me = st.long_me;
        let me = self.ni.me_attach(
            PT_MSG,
            ProcessId::ANY,
            criteria,
            true,
            MePos::Before(long_me),
        )?;
        let md = self.ni.md_attach(
            me,
            MdSpec::new(buf.clone())
                .with_length(cap)
                .with_eq(self.eq)
                .with_threshold(Threshold::Count(0))
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    manage_local_offset: true,
                    unlink_on_exhaustion: true,
                    ..Default::default()
                }),
        )?;
        st.recvs.push(PostedRecv {
            id,
            criteria,
            buf,
            cap,
            hw: Some((me, md)),
        });
        loop {
            match self
                .ni
                .md_update(md, Some(self.eq), |m| m.threshold = Threshold::Count(1))
            {
                Ok(()) => break,
                Err(PtlError::NoUpdate) => {
                    // Pending events might include the very message this
                    // receive wants: drain and re-check. If one did, the
                    // receive is no longer posted — delivered from a slab, or
                    // matched by a long arrival whose pull is now in flight —
                    // and its entry is gone. An empty queue refuses the
                    // update when a put has matched and is still landing: its
                    // event is imminent, so sleep until it is pushed rather
                    // than spin against the thread that must push it.
                    if !self.drain(&mut st) {
                        let brief = Duration::from_micros(200);
                        if let Ok(ev) = self.ni.eq_poll(self.eq, brief) {
                            self.handle_event(&mut st, ev);
                        }
                    }
                    if !st.recvs.iter().rev().any(|r| r.id == id) {
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Request {
            id,
            kind: ReqKind::Recv,
        })
    }

    /// Hand an unexpected message to receive `id`: copy it out of its slab,
    /// or start pulling it from the sender's exposure.
    fn deliver(&self, st: &mut EngState, id: u64, buf: Region, cap: usize, a: Arrival) {
        match a.body {
            Body::Slab {
                buf: slab,
                offset,
                mlength,
            } => {
                let n = mlength.min(cap);
                if n > 0 {
                    buf.write(0, &slab.slice(offset, n));
                }
                let (_, src_rank, tag) = bits::decode(a.bits);
                st.recv_done.insert(
                    id,
                    Status {
                        source: Rank(src_rank as u32),
                        tag,
                        len: n,
                        truncated: a.rlength > n,
                        full_len: a.rlength,
                    },
                );
                self.trace(Stage::Deliver, n as u64, "eager_slab");
            }
            Body::Exposed { sender, serial } => {
                let (_, src, tag) = bits::decode(a.bits);
                let pull = PullState {
                    id,
                    src,
                    tag,
                    total_len: a.rlength as u64,
                    cap,
                    sender,
                    serial,
                };
                self.start_pull(st, buf, pull);
            }
        }
    }

    /// Pull a long message with one get bound directly over the user's
    /// receive region: the reply lands at the MD start, and the streaming
    /// transport scatters it there fragment by fragment. The get asks for
    /// `min(total_len, cap)` bytes (§4.8 truncation, decided here from the
    /// length the long entry's event reported).
    fn start_pull(&self, st: &mut EngState, buf: Region, pull: PullState) {
        let pull_len = pull.total_len.min(pull.cap as u64);
        let (sender, serial) = (pull.sender, pull.serial);
        let md = self
            .ni
            .md_bind(
                MdSpec::new(buf)
                    .with_length(pull_len as usize)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1)),
            )
            .expect("bind long-message pull md");
        st.pulls.insert(md, pull);
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
        Self::arrived(&st, bits::recv_criteria(context, src, tag))
    }

    /// Blocking probe (MPI_Probe): [`MpiEngine::iprobe`]'s test as one more
    /// predicate on the wait loop, so it parks like every other wait.
    pub fn probe(&self, context: bits::Context, src: Option<u16>, tag: Option<Tag>) -> Status {
        let criteria = bits::recv_criteria(context, src, tag);
        self.wait_until(Instant::now() + Duration::from_secs(300), |st| {
            Self::arrived(st, criteria)
        })
        .expect("MPI probe timed out (5 min)")
    }

    /// The oldest arrived-but-unclaimed message matching `criteria`.
    fn arrived(st: &EngState, criteria: MatchCriteria) -> Option<Status> {
        let a = st.unexpected.iter().find(|a| criteria.matches(a.bits))?;
        let (_, src_rank, tag) = bits::decode(a.bits);
        Some(Status {
            source: Rank(src_rank as u32),
            tag,
            len: a.rlength,
            truncated: false,
            full_len: a.rlength,
        })
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
    /// otherwise block briefly on the event queue (under a host-driven
    /// interface this is also what pumps the Portals raw queue) until `done`
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
        self.state.lock().unexpected.len()
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

    /// Consume every pending event; true if there was any.
    fn drain(&self, st: &mut EngState) -> bool {
        let mut any = false;
        loop {
            match self.ni.eq_get(self.eq) {
                Ok(ev) => self.handle_event(st, ev),
                Err(PtlError::EqEmpty) => return any,
                Err(PtlError::EqDropped) => self.recover_dropped_events(st),
                Err(e) => panic!("event queue failure: {e}"),
            }
            any = true;
        }
    }

    /// The MPI event queue lapped its consumer and unread events are gone.
    /// Without flow control that is unrecoverable (a lost Put event is a lost
    /// message) and the old behaviour — panic — stands. With flow control the
    /// data path cannot have overwritten (the engine trips the portal before
    /// pushing into a near-full queue), so the lost events are bookkeeping;
    /// re-arm the resources they would have replenished and keep going.
    fn recover_dropped_events(&self, st: &mut EngState) {
        if !self.ni.flow_control() {
            panic!("MPI event queue overflowed — raise MpiConfig::eq_capacity");
        }
        self.trace(Stage::Event, 0, "eq_dropped_recover");
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
                if let Some(p) = st.pulls.remove(&ev.md) {
                    let _ = self.ni.md_unlink(ev.md);
                    st.recv_done.insert(
                        p.id,
                        Status {
                            source: Rank(p.src as u32),
                            tag: p.tag,
                            len: ev.mlength as usize,
                            truncated: p.total_len as usize > p.cap,
                            full_len: p.total_len as usize,
                        },
                    );
                    self.trace(Stage::Deliver, ev.mlength, "pulled");
                    // FIN: every byte has arrived, so nothing the sender's
                    // buffer holds from now on can reach this one (a late
                    // retransmission is a duplicate, and discarded). `PT_RDVZ`
                    // is not flow controlled, so this put cannot be nacked.
                    self.ni
                        .put_op(self.fin_md)
                        .target(p.sender, PT_RDVZ)
                        .bits(MatchBits::new(p.serial))
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
                // A slab rotated out: attach a replacement. (Buffers stay
                // alive via Arc until their last unexpected message is
                // consumed.)
                if st.slab_mds.remove(&ev.md).is_some() {
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
    /// nothing, so the MD still holds the complete message: restore its
    /// single-use threshold and put again, a long one at its serial. The
    /// cycle repeats until the target re-enables its portal and acks for
    /// real; the transport's credit window paces the retries.
    fn retry_send(&self, st: &mut EngState, md: MdHandle) {
        let Some(info) = st.sends.get(&md) else {
            return;
        };
        let (dest, bits, serial) = (info.dest, info.match_bits, info.serial);
        self.trace(Stage::Retransmit, info.total_len, "nack_retry");
        let _ = self
            .ni
            .md_update(md, None, |m| m.threshold = Threshold::Count(1));
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
        let body = if ev.md == st.long_md {
            // A long message no posted receive took: its bytes stay with the
            // sender until the receive is posted and pulls them.
            Body::Exposed {
                sender: ev.initiator,
                serial: ev.offset,
            }
        } else if let Some(buf) = st.slab_mds.get(&ev.md).cloned() {
            // An eager message landed in an overflow slab.
            Body::Slab {
                buf,
                offset: ev.offset as usize,
                mlength: ev.mlength as usize,
            }
        } else {
            // Direct delivery into a posted hardware receive.
            if let Some(pos) = st
                .recvs
                .iter()
                .position(|r| r.hw.map(|(_, md)| md) == Some(ev.md))
            {
                let r = st.recvs.remove(pos);
                let (_, src_rank, tag) = bits::decode(ev.match_bits);
                st.recv_done.insert(
                    r.id,
                    Status {
                        source: Rank(src_rank as u32),
                        tag,
                        len: ev.mlength as usize,
                        truncated: ev.rlength > ev.mlength,
                        full_len: ev.rlength as usize,
                    },
                );
                self.trace(Stage::Deliver, ev.mlength, "direct");
            }
            return;
        };
        let arrival = Arrival {
            bits: ev.match_bits,
            rlength: ev.rlength as usize,
            body,
        };
        if let Some(pos) = st
            .recvs
            .iter()
            .position(|r| r.criteria.matches(arrival.bits))
        {
            let r = st.recvs.remove(pos);
            if let Some((me, _)) = r.hw {
                // The receive was posted but not yet activated when this
                // message arrived: tear the hardware entry down and deliver
                // from the overflow.
                let _ = self.ni.me_unlink(me);
            }
            self.deliver(st, r.id, r.buf, r.cap, arrival);
        } else {
            st.unexpected.push_back(arrival);
        }
    }
}

impl std::fmt::Debug for MpiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpiEngine({}, {:?})", self.ni.id(), self.config.protocol)
    }
}
