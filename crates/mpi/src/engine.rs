//! The MPI progress engine.
//!
//! One engine exists per process. It owns a Portals [`NetworkInterface`], one
//! event queue for all MPI traffic, and the per-process matching state:
//! posted receives (in posting order), unexpected arrivals and rendezvous
//! announcements (in wire-arrival order, totally ordered by a stamp so the
//! MPI non-overtaking rule holds even when the two protocols mix).
//!
//! Portal assignments:
//!
//! | portal | use |
//! |---|---|
//! | 0 (`PT_MSG`) | eager message data: posted receives + overflow slabs |
//! | 1 (`PT_CTRL`) | rendezvous request-to-send records |
//! | 2 (`PT_RDVZ`) | exposed send buffers: the receiver's get, then its FIN put |
//!
//! In [`Protocol::EagerDirect`] posted receives are *hardware* match entries:
//! the Portals receive engine steers data into user buffers with no MPI
//! involvement (application bypass). In [`Protocol::Rendezvous`] no hardware
//! entries exist: everything funnels through the slabs and is matched here,
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
const PT_CTRL: u32 = 1;
const PT_RDVZ: u32 = 2;
/// ACL cookie: entry 0 = same parallel application (§4.5).
const COOKIE: u32 = 0;
/// Size of one rendezvous RTS record on the wire.
const RTS_SIZE: usize = 16;
/// Control slab capacity (RTS records).
const CTRL_SLAB_RECORDS: usize = 4096;
/// Adaptive-protocol EWMA smoothing factor.
const EWMA_ALPHA: f64 = 0.25;
/// In the adaptive band, try the out-of-favor protocol once every this many
/// decisions so a stale EWMA can recover.
const EXPLORE_EVERY: u64 = 16;

/// A posted-but-unmatched receive.
struct PostedRecv {
    id: u64,
    criteria: MatchCriteria,
    buf: Region,
    cap: usize,
    /// `Some` when a hardware match entry backs this receive (EagerDirect).
    hw: Option<(MeHandle, MdHandle)>,
}

/// An eager message sitting in an overflow slab.
struct Arrival {
    stamp: u64,
    bits: MatchBits,
    buf: Region,
    offset: usize,
    mlength: usize,
    rlength: usize,
}

/// An in-flight put tracked for completion and, under flow control, re-issue
/// when the target nacks it (its portal was flow-disabled).
struct SendInfo {
    /// The user request this put completes, or `None` for an RTS record —
    /// its ack only confirms the announcement is buffered at the target.
    id: Option<u64>,
    dest: ProcessId,
    match_bits: MatchBits,
    portal: u32,
    /// The pooled slab backing this send (eager snapshots and RTS records
    /// only), returned to the pool once its ack arrives. `None` for
    /// caller-owned and oversize buffers.
    pooled: Option<Region>,
    /// Message length, reported as the requested length on completion.
    total_len: u64,
    /// Rendezvous only: bytes the receiver's get took (the `Get` event's
    /// manipulated length), reported as delivered when the FIN lands.
    pulled: u64,
    /// Submission time, for the adaptive protocol's cost EWMA.
    started: Instant,
}

/// A rendezvous announcement waiting for its receive.
struct RtsRecord {
    stamp: u64,
    bits: MatchBits,
    sender: ProcessId,
    serial: u64,
    total_len: u64,
}

/// An outstanding rendezvous pull: one get bound over the user's receive
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
    next_stamp: u64,
    sends: HashMap<MdHandle, SendInfo>,
    send_done: HashMap<u64, (u64, u64)>,
    recvs: Vec<PostedRecv>,
    recv_done: HashMap<u64, Status>,
    pulls: HashMap<MdHandle, PullState>,
    unexpected: VecDeque<Arrival>,
    rts_waiting: VecDeque<RtsRecord>,
    slab_me: MeHandle,
    slab_mds: HashMap<MdHandle, Region>,
    ctrl_me: MeHandle,
    ctrl_mds: HashMap<MdHandle, Region>,
}

/// Adaptive-protocol selector state (see [`Protocol::Adaptive`]).
struct AdaptiveState {
    /// EWMA of completion cost per arm, ns per byte; zero = no sample yet.
    eager_ns_per_byte: f64,
    rdvz_ns_per_byte: f64,
    eager_decisions: u64,
    rdvz_decisions: u64,
    explorations: u64,
    in_band: u64,
}

/// Snapshot of the adaptive selector, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveReport {
    /// Measured eager cost, ns per byte (EWMA; zero = never sampled).
    pub eager_ns_per_byte: f64,
    /// Measured rendezvous cost, ns per byte (EWMA; zero = never sampled).
    pub rdvz_ns_per_byte: f64,
    /// In-band sends that chose eager.
    pub eager_decisions: u64,
    /// In-band sends that chose rendezvous.
    pub rdvz_decisions: u64,
    /// Decisions overridden to re-sample the out-of-favor arm.
    pub explorations: u64,
}

/// The per-process MPI engine (see module docs).
pub struct MpiEngine {
    ni: NetworkInterface,
    eq: EqHandle,
    config: MpiConfig,
    state: Mutex<EngState>,
    /// Zero-length source of every rendezvous FIN put (never consumed: no
    /// threshold, no event queue).
    fin_md: MdHandle,
    /// Slab pool for small eager sends and RTS records (the malloc/free pair
    /// those paths used to pay per message).
    pool: RegionPool,
    /// `mpi.regions_pooled`: takes served from a recycled slab.
    regions_pooled: Counter,
    /// `mpi.regions_allocated`: pool-eligible takes that fell back to a
    /// fresh allocation (cold pool or quarantined slabs).
    regions_allocated: Counter,
    /// Adaptive-protocol selector (unused under the fixed protocols).
    adaptive: Mutex<AdaptiveState>,
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

    /// Build an engine on a network interface, setting up the message portal,
    /// overflow slabs and control portal.
    pub fn new(ni: NetworkInterface, config: MpiConfig) -> PtlResult<MpiEngine> {
        let eq = ni.eq_alloc(config.eq_capacity)?;
        // Opt the two put-target portals into flow control: when slabs run
        // out, senders are nacked and this engine gets a FlowCtrl event to
        // re-post and resume, instead of messages silently dropping.
        if ni.flow_control() {
            ni.pt_flow_ctrl(PT_MSG, Some(eq))?;
            ni.pt_flow_ctrl(PT_CTRL, Some(eq))?;
        }
        let slab_me = ni.me_attach(
            PT_MSG,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )?;
        let ctrl_me = ni.me_attach(
            PT_CTRL,
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
            adaptive: Mutex::new(AdaptiveState {
                eager_ns_per_byte: 0.0,
                rdvz_ns_per_byte: 0.0,
                eager_decisions: 0,
                rdvz_decisions: 0,
                explorations: 0,
                in_band: 0,
            }),
            ni,
            eq,
            config,
            state: Mutex::new(EngState {
                next_req: 0,
                next_serial: 0,
                next_stamp: 0,
                sends: HashMap::new(),
                send_done: HashMap::new(),
                recvs: Vec::new(),
                recv_done: HashMap::new(),
                pulls: HashMap::new(),
                unexpected: VecDeque::new(),
                rts_waiting: VecDeque::new(),
                slab_me,
                slab_mds: HashMap::new(),
                ctrl_me,
                ctrl_mds: HashMap::new(),
            }),
        };
        {
            let mut st = engine.state.lock();
            for _ in 0..config.slab_count {
                engine.attach_slab(&mut st)?;
            }
            engine.attach_ctrl_slab(&mut st)?;
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

    fn attach_ctrl_slab(&self, st: &mut EngState) -> PtlResult<()> {
        let buf = Region::zeroed(RTS_SIZE * CTRL_SLAB_RECORDS);
        let md = self.ni.md_attach(
            st.ctrl_me,
            MdSpec::new(buf.clone())
                .with_eq(self.eq)
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    manage_local_offset: true,
                    unlink_on_exhaustion: false,
                    min_free: RTS_SIZE,
                }),
        )?;
        st.ctrl_mds.insert(md, buf);
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
        let rendezvous = self.choose_rendezvous(data.len());
        if !rendezvous && data.len() <= self.config.pool_slab && self.config.pool_slab > 0 {
            let slab = self.take_pooled();
            if !data.is_empty() {
                slab.write(0, data);
            }
            return self.isend_inner(context, my_rank, dest, tag, slab, data.len(), true, false);
        }
        let len = data.len();
        self.isend_inner(
            context,
            my_rank,
            dest,
            tag,
            Region::copy_from_slice(data),
            len,
            false,
            rendezvous,
        )
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
        let rendezvous = self.choose_rendezvous(len);
        self.isend_inner(context, my_rank, dest, tag, data, len, false, rendezvous)
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

    /// Pick the protocol arm for a `len`-byte send.
    fn choose_rendezvous(&self, len: usize) -> bool {
        match self.config.protocol {
            Protocol::EagerDirect => false,
            Protocol::Rendezvous { eager_limit } => len >= eager_limit,
            Protocol::Adaptive {
                min_eager,
                max_eager,
            } => {
                if len < min_eager {
                    return false;
                }
                if len >= max_eager {
                    return true;
                }
                let mut a = self.adaptive.lock();
                a.in_band += 1;
                // Favor the measured-cheaper arm; before both arms have a
                // sample, pick the unsampled one so the comparison exists.
                let favored = if a.eager_ns_per_byte == 0.0 {
                    false
                } else if a.rdvz_ns_per_byte == 0.0 {
                    true
                } else {
                    a.rdvz_ns_per_byte < a.eager_ns_per_byte
                };
                let both_sampled = a.eager_ns_per_byte > 0.0 && a.rdvz_ns_per_byte > 0.0;
                let pick = if both_sampled && a.in_band % EXPLORE_EVERY == 0 {
                    a.explorations += 1;
                    !favored
                } else {
                    favored
                };
                if pick {
                    a.rdvz_decisions += 1;
                } else {
                    a.eager_decisions += 1;
                }
                pick
            }
        }
    }

    /// Fold a completed send's measured cost into its arm's EWMA (adaptive
    /// protocol only).
    fn note_send_cost(&self, rendezvous: bool, len: u64, started: Instant) {
        if !matches!(self.config.protocol, Protocol::Adaptive { .. }) {
            return;
        }
        let per_byte = started.elapsed().as_nanos() as f64 / len.max(1) as f64;
        let mut a = self.adaptive.lock();
        let slot = if rendezvous {
            &mut a.rdvz_ns_per_byte
        } else {
            &mut a.eager_ns_per_byte
        };
        *slot = if *slot == 0.0 {
            per_byte
        } else {
            *slot + EWMA_ALPHA * (per_byte - *slot)
        };
    }

    /// The shared isend body. `len` is the message length — `data` may be a
    /// pooled slab longer than the message, so the MD is bound `len`-long
    /// over its front. `pooled` (eager sends only) marks the region for
    /// recycling when the send's ack arrives.
    #[allow(clippy::too_many_arguments)]
    fn isend_inner(
        &self,
        context: bits::Context,
        my_rank: u16,
        dest: ProcessId,
        tag: Tag,
        data: Region,
        len: usize,
        pooled: bool,
        rendezvous: bool,
    ) -> PtlResult<Request> {
        // One get moves a rendezvous payload, so it is bounded like any other
        // single Portals operation (an eager put fails the same way).
        if rendezvous && len > self.ni.limits().max_message_size {
            return Err(PtlError::LimitExceeded);
        }
        let match_bits = bits::encode(context, my_rank, tag);
        let started = Instant::now();
        let mut st = self.state.lock();
        let id = st.next_req;
        st.next_req += 1;

        self.trace(
            Stage::Submit,
            len as u64,
            if rendezvous { "rendezvous" } else { "eager" },
        );

        if rendezvous {
            // Expose the payload for the receiver's pull, then announce it.
            // One entry, used exactly twice: the receiver's get reads the
            // payload (its event records how much), and the receiver's
            // zero-length FIN put — sent once the reply has landed — completes
            // the send and exhausts the descriptor, which unlinks both.
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
            st.sends.insert(
                md,
                SendInfo {
                    id: Some(id),
                    dest,
                    match_bits,
                    portal: PT_RDVZ,
                    pooled: None,
                    total_len: len as u64,
                    pulled: 0,
                    started,
                },
            );

            let mut rts = [0u8; RTS_SIZE];
            rts[0..8].copy_from_slice(&serial.to_le_bytes());
            rts[8..16].copy_from_slice(&(len as u64).to_le_bytes());
            // RTS records are the highest-rate small allocation on the
            // rendezvous path: serve them from the pool too.
            let rts_pooled = self.config.pool_slab >= RTS_SIZE;
            let rts_region = if rts_pooled {
                let slab = self.take_pooled();
                slab.write(0, &rts);
                slab
            } else {
                Region::copy_from_slice(&rts)
            };
            if self.ni.flow_control() {
                // The announcement must survive a flow-disabled control
                // portal: request an ack so a nack can trigger re-issue, and
                // keep the MD linked until the target confirms buffering.
                let rts_md = self.ni.md_bind(
                    MdSpec::new(rts_region.clone())
                        .with_length(RTS_SIZE)
                        .with_eq(self.eq)
                        .with_threshold(Threshold::Count(1)),
                )?;
                st.sends.insert(
                    rts_md,
                    SendInfo {
                        id: None,
                        dest,
                        match_bits,
                        portal: PT_CTRL,
                        pooled: rts_pooled.then(|| rts_region.clone()),
                        total_len: RTS_SIZE as u64,
                        started,
                        pulled: 0,
                    },
                );
                self.ni
                    .put_op(rts_md)
                    .target(dest, PT_CTRL)
                    .bits(match_bits)
                    .ack(AckRequest::Ack)
                    .cookie(COOKIE)
                    .submit()?;
            } else {
                // The RTS needs no completion tracking: put() snapshots the
                // payload synchronously, so the MD can be unlinked immediately
                // and the slab recycled (the pool quarantines it while wire
                // views still reference it).
                let rts_md = self
                    .ni
                    .md_bind(MdSpec::new(rts_region.clone()).with_length(RTS_SIZE))?;
                self.ni
                    .put_op(rts_md)
                    .target(dest, PT_CTRL)
                    .bits(match_bits)
                    .cookie(COOKIE)
                    .submit()?;
                let _ = self.ni.md_unlink(rts_md);
                if rts_pooled {
                    self.pool.recycle(rts_region);
                }
            }
        } else {
            let md = self.ni.md_bind(
                MdSpec::new(data.clone())
                    .with_length(len)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1)),
            )?;
            st.sends.insert(
                md,
                SendInfo {
                    id: Some(id),
                    dest,
                    match_bits,
                    portal: PT_MSG,
                    pooled: pooled.then(|| data.clone()),
                    total_len: len as u64,
                    started,
                    pulled: 0,
                },
            );
            self.ni
                .put_op(md)
                .target(dest, PT_MSG)
                .bits(match_bits)
                .ack(AckRequest::Ack)
                .cookie(COOKIE)
                .submit()?;
        }
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

        // Already arrived? Pick the oldest matching arrival across the eager
        // and rendezvous queues (the stamp preserves wire order between them).
        if self.take_waiting_match(&mut st, id, &criteria, &buf, cap) {
            return Ok(Request {
                id,
                kind: ReqKind::Recv,
            });
        }

        match self.config.protocol {
            Protocol::EagerDirect | Protocol::Adaptive { .. } => {
                // Post a hardware match entry ahead of the overflow slab, with
                // an inactive MD, then activate it atomically against the
                // event queue (the PtlMDUpdate pattern).
                let slab_me = st.slab_me;
                let me = self.ni.me_attach(
                    PT_MSG,
                    ProcessId::ANY,
                    criteria,
                    true,
                    MePos::Before(slab_me),
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
                            // Pending events might include the very message
                            // this receive wants: drain and re-check. If one
                            // did, the receive is no longer posted — delivered
                            // from a slab, or matched by an announcement whose
                            // pull is now in flight — and its entry is gone.
                            // An empty queue refuses the update when a put
                            // has matched and is still landing: its event is
                            // imminent, so sleep until it is pushed rather
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
            }
            Protocol::Rendezvous { .. } => {
                // Library-side matching only.
                st.recvs.push(PostedRecv {
                    id,
                    criteria,
                    buf,
                    cap,
                    hw: None,
                });
            }
        }
        Ok(Request {
            id,
            kind: ReqKind::Recv,
        })
    }

    /// Search both waiting queues for the oldest arrival matching `criteria`;
    /// consume it into `buf` (or start the rendezvous pull). True if matched.
    fn take_waiting_match(
        &self,
        st: &mut EngState,
        id: u64,
        criteria: &MatchCriteria,
        buf: &Region,
        cap: usize,
    ) -> bool {
        let eager_pos = st
            .unexpected
            .iter()
            .position(|a| criteria.matches(a.bits))
            .map(|i| (st.unexpected[i].stamp, i));
        let rts_pos = st
            .rts_waiting
            .iter()
            .position(|r| criteria.matches(r.bits))
            .map(|i| (st.rts_waiting[i].stamp, i));
        match (eager_pos, rts_pos) {
            (None, None) => false,
            (Some((_, i)), None) => {
                let arrival = st.unexpected.remove(i).expect("indexed");
                self.complete_eager(st, id, buf, cap, arrival);
                true
            }
            (None, Some((_, i))) => {
                let rts = st.rts_waiting.remove(i).expect("indexed");
                self.start_pull(st, id, buf.clone(), cap, rts);
                true
            }
            (Some((es, ei)), Some((rs, ri))) => {
                if es < rs {
                    let arrival = st.unexpected.remove(ei).expect("indexed");
                    self.complete_eager(st, id, buf, cap, arrival);
                } else {
                    let rts = st.rts_waiting.remove(ri).expect("indexed");
                    self.start_pull(st, id, buf.clone(), cap, rts);
                }
                true
            }
        }
    }

    /// Copy a slab arrival into the receive buffer and complete the request.
    fn complete_eager(&self, st: &mut EngState, id: u64, buf: &Region, cap: usize, a: Arrival) {
        let n = a.mlength.min(cap);
        if n > 0 {
            buf.write(0, &a.buf.slice(a.offset, n));
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

    /// Pull a matched announcement with one get bound directly over the
    /// user's receive region: the reply lands at the MD start, and the
    /// streaming transport scatters it there fragment by fragment. The get
    /// asks for `min(total_len, cap)` bytes (§4.8 truncation, decided here
    /// from the announced length).
    fn start_pull(&self, st: &mut EngState, id: u64, buf: Region, cap: usize, rts: RtsRecord) {
        let pull_len = rts.total_len.min(cap as u64);
        let (_, src, tag) = bits::decode(rts.bits);
        let md = self
            .ni
            .md_bind(
                MdSpec::new(buf)
                    .with_length(pull_len as usize)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1)),
            )
            .expect("bind rendezvous pull md");
        st.pulls.insert(
            md,
            PullState {
                id,
                src,
                tag,
                total_len: rts.total_len,
                cap,
                sender: rts.sender,
                serial: rts.serial,
            },
        );
        self.ni
            .get_op(md)
            .target(rts.sender, PT_RDVZ)
            .bits(MatchBits::new(rts.serial))
            .cookie(COOKIE)
            .length(pull_len)
            .submit()
            .expect("rendezvous get");
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
        let eager = st
            .unexpected
            .iter()
            .filter(|a| criteria.matches(a.bits))
            .min_by_key(|a| a.stamp)
            .map(|a| (a.stamp, a.bits, a.rlength as u64));
        let rts = st
            .rts_waiting
            .iter()
            .filter(|r| criteria.matches(r.bits))
            .min_by_key(|r| r.stamp)
            .map(|r| (r.stamp, r.bits, r.total_len));
        let (_, bits, len) = match (eager, rts) {
            (None, None) => return None,
            (Some(e), None) => e,
            (None, Some(r)) => r,
            (Some(e), Some(r)) => {
                if e.0 < r.0 {
                    e
                } else {
                    r
                }
            }
        };
        let (_, src_rank, tag) = bits::decode(bits);
        Some(Status {
            source: Rank(src_rank as u32),
            tag,
            len: len as usize,
            truncated: false,
            full_len: len as usize,
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
    /// memory-scaling metric: independent of peer count).
    pub fn unexpected_buffer_bytes(&self) -> usize {
        let st = self.state.lock();
        st.slab_mds.len() * self.config.slab_size + st.ctrl_mds.len() * RTS_SIZE * CTRL_SLAB_RECORDS
    }

    /// Unconsumed unexpected arrivals (diagnostics).
    pub fn unexpected_pending(&self) -> usize {
        self.state.lock().unexpected.len()
    }

    /// Sends submitted and not yet complete, RTS announcements awaiting
    /// their ack included (diagnostics).
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

    /// Snapshot of the adaptive protocol selector (zeros under the fixed
    /// protocols).
    pub fn adaptive_report(&self) -> AdaptiveReport {
        let a = self.adaptive.lock();
        AdaptiveReport {
            eager_ns_per_byte: a.eager_ns_per_byte,
            rdvz_ns_per_byte: a.rdvz_ns_per_byte,
            eager_decisions: a.eager_decisions,
            rdvz_decisions: a.rdvz_decisions,
            explorations: a.explorations,
        }
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
        self.attach_ctrl_slab(st)
            .expect("replenish control slab after eq drop");
        let _ = self.ni.pt_enable(PT_MSG);
        let _ = self.ni.pt_enable(PT_CTRL);
    }

    fn handle_event(&self, st: &mut EngState, ev: portals::Event) {
        match ev.kind {
            EventKind::Sent => {}
            EventKind::Ack => {
                if ev.mlength == portals::NACK_MLENGTH {
                    // The target's portal is flow-disabled: nothing was
                    // delivered, the message is still ours — re-issue.
                    self.retry_send(st, ev.md);
                } else if let Some(info) = st.sends.remove(&ev.md) {
                    // Eager send (or RTS announcement) completion: the target
                    // reports what it accepted.
                    if let Some(id) = info.id {
                        st.send_done.insert(id, (ev.mlength, ev.rlength));
                        self.note_send_cost(false, info.total_len, info.started);
                    }
                    let _ = self.ni.md_unlink(ev.md);
                    if let Some(slab) = info.pooled {
                        self.pool.recycle(slab);
                    }
                }
            }
            EventKind::Get => {
                // The receiver's get matched our exposure. This is logged
                // before the reply leaves — the payload is still being read
                // out of the send buffer — so it only records how much was
                // taken; the FIN put completes the send.
                if let Some(info) = st.sends.get_mut(&ev.md) {
                    info.pulled = ev.mlength;
                }
            }
            EventKind::Reply => {
                // A rendezvous payload has fully landed in the user buffer.
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
                    self.trace(Stage::Deliver, ev.mlength, "rendezvous");
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
                        .expect("rendezvous FIN");
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
                } else if st.ctrl_mds.remove(&ev.md).is_some() {
                    self.attach_ctrl_slab(st).expect("replenish control slab");
                }
            }
            EventKind::FlowCtrl => {
                // A portal tripped: senders are being nacked and will retry.
                // Re-post the exhausted resource, then resume. Each trip adds
                // one slab of headroom, so sustained oversubscription grows
                // buffering until the receiver keeps up.
                self.trace(Stage::Event, 0, "flowctrl_resume");
                match ev.portal_index {
                    PT_MSG => self.attach_slab(st).expect("replenish slab after trip"),
                    PT_CTRL => self
                        .attach_ctrl_slab(st)
                        .expect("replenish control slab after trip"),
                    _ => {}
                }
                let _ = self.ni.pt_enable(ev.portal_index);
            }
        }
    }

    /// Re-issue a nacked put. The nack guarantees the target delivered
    /// nothing, so the MD still holds the complete message: restore its
    /// single-use threshold and put again. The cycle repeats until the target
    /// re-enables its portal and acks for real; the transport's credit window
    /// paces the retries.
    fn retry_send(&self, st: &mut EngState, md: MdHandle) {
        let Some(info) = st.sends.get(&md) else {
            return;
        };
        let (dest, bits, portal) = (info.dest, info.match_bits, info.portal);
        self.trace(Stage::Retransmit, 0, "nack_retry");
        let _ = self
            .ni
            .md_update(md, None, |m| m.threshold = Threshold::Count(1));
        self.ni
            .put_op(md)
            .target(dest, portal)
            .bits(bits)
            .ack(AckRequest::Ack)
            .cookie(COOKIE)
            .submit()
            .expect("nack retry re-put");
    }

    fn handle_put_event(&self, st: &mut EngState, ev: portals::Event) {
        if ev.portal_index == PT_CTRL {
            // A rendezvous announcement.
            let Some(buf) = st.ctrl_mds.get(&ev.md).cloned() else {
                return;
            };
            debug_assert_eq!(ev.mlength as usize, RTS_SIZE, "malformed RTS record");
            let (serial, total_len) = {
                let b = buf.slice(ev.offset as usize, RTS_SIZE);
                let serial = u64::from_le_bytes(b[0..8].try_into().expect("slice"));
                let total = u64::from_le_bytes(b[8..16].try_into().expect("slice"));
                (serial, total)
            };
            let stamp = st.next_stamp;
            st.next_stamp += 1;
            let rts = RtsRecord {
                stamp,
                bits: ev.match_bits,
                sender: ev.initiator,
                serial,
                total_len,
            };
            if let Some(pos) = st.recvs.iter().position(|r| r.criteria.matches(rts.bits)) {
                let r = st.recvs.remove(pos);
                if let Some((me, _)) = r.hw {
                    let _ = self.ni.me_unlink(me);
                }
                self.start_pull(st, r.id, r.buf, r.cap, rts);
            } else {
                st.rts_waiting.push_back(rts);
            }
        } else if ev.portal_index == PT_RDVZ {
            // The receiver's FIN: its reply has landed, so the exposed buffer
            // is quiescent and the rendezvous send is complete. The exposure
            // unlinked itself on this second (last) use.
            if let Some(info) = st.sends.remove(&ev.md) {
                if let Some(id) = info.id {
                    st.send_done.insert(id, (info.pulled, info.total_len));
                    self.note_send_cost(true, info.total_len, info.started);
                }
            }
        } else if let Some(buf) = st.slab_mds.get(&ev.md).cloned() {
            // An eager message landed in the overflow slab.
            let stamp = st.next_stamp;
            st.next_stamp += 1;
            let arrival = Arrival {
                stamp,
                bits: ev.match_bits,
                buf,
                offset: ev.offset as usize,
                mlength: ev.mlength as usize,
                rlength: ev.rlength as usize,
            };
            if let Some(pos) = st
                .recvs
                .iter()
                .position(|r| r.criteria.matches(arrival.bits))
            {
                let r = st.recvs.remove(pos);
                if let Some((me, _)) = r.hw {
                    // The receive was posted but not yet activated when this
                    // message arrived: tear the hardware entry down and
                    // deliver from the slab.
                    let _ = self.ni.me_unlink(me);
                }
                let buf = r.buf.clone();
                self.complete_eager(st, r.id, &buf, r.cap, arrival);
            } else {
                st.unexpected.push_back(arrival);
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
                self.trace(Stage::Deliver, ev.mlength, "eager_direct");
            }
        }
    }
}

impl std::fmt::Debug for MpiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpiEngine({}, {:?})", self.ni.id(), self.config.protocol)
    }
}
