//! Communicators: the user-facing MPI surface.

use crate::bits::{check_user_tag, validate_reserved_layout, Context, Tag, MAX_USER_TAG};
use crate::config::MpiConfig;
use crate::engine::MpiEngine;
use crate::request::{Completion, Request, Status};
use portals::{NetworkInterface, Region};
use portals_types::{ProcessId, PtlResult, Rank};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Per-process MPI context: the engine plus the world process map.
///
/// Construct one per process with [`Mpi::init`]; get communicators from
/// [`Mpi::world`] and [`Communicator::dup`].
pub struct Mpi {
    engine: Arc<MpiEngine>,
    ranks: Arc<Vec<ProcessId>>,
    my_rank: Rank,
    next_context: Arc<AtomicU16>,
}

impl Mpi {
    /// Initialize MPI for this process. `ranks[i]` is the process id of world
    /// rank `i`; `my_rank` must index this process's own id.
    pub fn init(
        ni: NetworkInterface,
        ranks: Vec<ProcessId>,
        my_rank: Rank,
        config: MpiConfig,
    ) -> PtlResult<Mpi> {
        assert!(
            ranks.len() <= u16::MAX as usize,
            "ranks must fit in 16 match bits"
        );
        // Reserved-tag hygiene: the barrier/collective band above
        // MAX_USER_TAG must hold together for this world size.
        if let Err(e) = validate_reserved_layout(ranks.len()) {
            panic!("reserved tag layout: {e}");
        }
        assert_eq!(
            ranks.get(my_rank.index()),
            Some(&ni.id()),
            "my_rank must map to this interface's process id"
        );
        let engine = Arc::new(MpiEngine::new(ni, config)?);
        Ok(Mpi {
            engine,
            ranks: Arc::new(ranks),
            my_rank,
            next_context: Arc::new(AtomicU16::new(1)),
        })
    }

    /// The world communicator (context 0, all processes).
    pub fn world(&self) -> Communicator {
        Communicator {
            engine: Arc::clone(&self.engine),
            ranks: Arc::clone(&self.ranks),
            my_rank: self.my_rank,
            context: 0,
            next_context: Arc::clone(&self.next_context),
        }
    }

    /// The engine (diagnostics, manual progress).
    pub fn engine(&self) -> &MpiEngine {
        &self.engine
    }
}

/// A communication context over an ordered set of processes.
///
/// ```
/// use portals::{Node, NodeConfig, NiConfig};
/// use portals_mpi::{Mpi, MpiConfig};
/// use portals_net::Fabric;
/// use portals_types::{NodeId, ProcessId, Rank};
///
/// let fabric = Fabric::ideal();
/// let ranks = vec![ProcessId::new(0, 1), ProcessId::new(1, 1)];
/// let n0 = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
/// let n1 = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
/// let mpi0 = Mpi::init(n0.create_ni(1, NiConfig::default()).unwrap(),
///                      ranks.clone(), Rank(0), MpiConfig::default()).unwrap();
/// let mpi1 = Mpi::init(n1.create_ni(1, NiConfig::default()).unwrap(),
///                      ranks, Rank(1), MpiConfig::default()).unwrap();
///
/// let receiver = std::thread::spawn(move || {
///     let world = mpi1.world();
///     let (data, status) = world.recv(Some(Rank(0)), Some(7), 64);
///     (data, status.source)
/// });
/// mpi0.world().send(Rank(1), 7, b"hello mpi");
/// let (data, source) = receiver.join().unwrap();
/// assert_eq!(data, b"hello mpi");
/// assert_eq!(source, Rank(0));
/// ```
#[derive(Clone)]
pub struct Communicator {
    engine: Arc<MpiEngine>,
    ranks: Arc<Vec<ProcessId>>,
    my_rank: Rank,
    context: Context,
    next_context: Arc<AtomicU16>,
}

impl Communicator {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.my_rank
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The context id (diagnostics).
    pub fn context(&self) -> Context {
        self.context
    }

    /// Process id of a rank.
    pub fn process(&self, rank: Rank) -> ProcessId {
        self.ranks[rank.index()]
    }

    /// The engine driving this communicator.
    pub fn engine(&self) -> &MpiEngine {
        &self.engine
    }

    fn check_tag(tag: Tag) {
        if let Err(e) = check_user_tag(tag) {
            panic!("{e}");
        }
    }

    /// Nonblocking send (MPI_Isend).
    pub fn isend(&self, dest: Rank, tag: Tag, data: &[u8]) -> Request {
        Self::check_tag(tag);
        self.isend_internal(dest, tag, data)
    }

    fn isend_internal(&self, dest: Rank, tag: Tag, data: &[u8]) -> Request {
        self.engine
            .isend(
                self.context,
                self.my_rank.0 as u16,
                self.process(dest),
                tag,
                data,
            )
            .expect("isend")
    }

    /// Nonblocking zero-copy send of a caller-owned region (no MPI_ analogue;
    /// the region is bound directly to the send MD, so no snapshot copy is
    /// taken). The caller must not mutate the region until completion.
    pub fn isend_region(&self, dest: Rank, tag: Tag, data: Region) -> Request {
        Self::check_tag(tag);
        self.isend_region_internal(dest, tag, data)
    }

    fn isend_region_internal(&self, dest: Rank, tag: Tag, data: Region) -> Request {
        self.engine
            .isend_region(
                self.context,
                self.my_rank.0 as u16,
                self.process(dest),
                tag,
                data,
            )
            .expect("isend_region")
    }

    /// Nonblocking receive into a shared buffer (MPI_Irecv). `src`/`tag` of
    /// `None` are `MPI_ANY_SOURCE`/`MPI_ANY_TAG`.
    pub fn irecv(&self, src: Option<Rank>, tag: Option<Tag>, buf: Region) -> Request {
        if let Some(t) = tag {
            Self::check_tag(t);
        }
        self.irecv_internal(src, tag, buf)
    }

    fn irecv_internal(&self, src: Option<Rank>, tag: Option<Tag>, buf: Region) -> Request {
        let cap = buf.len();
        self.engine
            .irecv(self.context, src.map(|r| r.0 as u16), tag, buf, cap)
            .expect("irecv")
    }

    /// Blocking send (MPI_Send).
    pub fn send(&self, dest: Rank, tag: Tag, data: &[u8]) {
        let req = self.isend(dest, tag, data);
        self.engine.wait(req);
    }

    /// Blocking receive of up to `max_len` bytes (MPI_Recv). Returns the
    /// received bytes and status.
    pub fn recv(&self, src: Option<Rank>, tag: Option<Tag>, max_len: usize) -> (Vec<u8>, Status) {
        let buf = Region::zeroed(max_len);
        let req = self.irecv(src, tag, buf.clone());
        let status = self
            .engine
            .wait(req)
            .status()
            .expect("recv request completes with a status");
        let data = buf.read_vec(0, status.len);
        (data, status)
    }

    /// Wait for one request (MPI_Wait).
    pub fn wait(&self, req: Request) -> Completion {
        self.engine.wait(req)
    }

    /// Test one request (MPI_Test).
    pub fn test(&self, req: Request) -> Option<Completion> {
        self.engine.test(req)
    }

    /// Wait for all requests, in order (MPI_Waitall).
    pub fn wait_all(&self, reqs: &[Request]) -> Vec<Completion> {
        self.engine.wait_all(reqs)
    }

    /// Combined send+receive (MPI_Sendrecv).
    pub fn sendrecv(
        &self,
        dest: Rank,
        send_tag: Tag,
        data: &[u8],
        src: Option<Rank>,
        recv_tag: Option<Tag>,
        max_len: usize,
    ) -> (Vec<u8>, Status) {
        let buf = Region::zeroed(max_len);
        let rreq = self.irecv(src, recv_tag, buf.clone());
        let sreq = self.isend(dest, send_tag, data);
        let status = self.engine.wait(rreq).status().expect("recv status");
        self.engine.wait(sreq);
        let data = buf.read_vec(0, status.len);
        (data, status)
    }

    /// Nonblocking probe for an arrived, unclaimed message (MPI_Iprobe).
    /// `Status::len` reports the full message length, so the caller can size
    /// the receive buffer.
    pub fn iprobe(&self, src: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        self.engine
            .iprobe(self.context, src.map(|r| r.0 as u16), tag)
    }

    /// Blocking probe (MPI_Probe): wait until a matching message has arrived.
    pub fn probe(&self, src: Option<Rank>, tag: Option<Tag>) -> Status {
        self.engine
            .probe(self.context, src.map(|r| r.0 as u16), tag)
    }

    /// Nonblocking send on a reserved (internal) tag — for protocol layers
    /// such as the collective library, not applications.
    #[doc(hidden)]
    pub fn isend_reserved(&self, dest: Rank, tag: Tag, data: &[u8]) -> Request {
        debug_assert!(tag >= MAX_USER_TAG);
        self.isend_internal(dest, tag, data)
    }

    /// Nonblocking zero-copy send of a caller-owned region on a reserved
    /// (internal) tag.
    #[doc(hidden)]
    pub fn isend_region_reserved(&self, dest: Rank, tag: Tag, data: Region) -> Request {
        debug_assert!(tag >= MAX_USER_TAG);
        self.isend_region_internal(dest, tag, data)
    }

    /// Nonblocking receive on a reserved (internal) tag.
    #[doc(hidden)]
    pub fn irecv_reserved(&self, src: Rank, tag: Tag, buf: Region) -> Request {
        debug_assert!(tag >= MAX_USER_TAG);
        self.irecv_internal(Some(src), Some(tag), buf)
    }

    /// Dissemination barrier (MPI_Barrier): ⌈log₂ n⌉ rounds of paired
    /// zero-byte messages on reserved tags.
    pub fn barrier(&self) {
        let n = self.size();
        if n <= 1 {
            return;
        }
        let me = self.my_rank.0 as usize;
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let to = Rank(((me + dist) % n) as u32);
            let from = Rank(((me + n - dist) % n) as u32);
            let tag = MAX_USER_TAG + round;
            let buf = Region::zeroed(0);
            let rreq = self.irecv_internal(Some(from), Some(tag), buf);
            let sreq = self.isend_internal(to, tag, &[]);
            self.engine.wait(rreq);
            self.engine.wait(sreq);
            dist <<= 1;
            round += 1;
        }
    }

    /// Duplicate this communicator with a fresh context (MPI_Comm_dup).
    /// Collective in the loose sense: every process must perform the same
    /// sequence of `dup` calls so contexts agree.
    pub fn dup(&self) -> Communicator {
        let context = self.next_context.fetch_add(1, Ordering::SeqCst);
        assert!(context != u16::MAX, "context space exhausted");
        if let Err(e) = validate_reserved_layout(self.size()) {
            panic!("reserved tag layout: {e}");
        }
        Communicator {
            engine: Arc::clone(&self.engine),
            ranks: Arc::clone(&self.ranks),
            my_rank: self.my_rank,
            context,
            next_context: Arc::clone(&self.next_context),
        }
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Communicator(ctx={}, rank={}/{})",
            self.context,
            self.my_rank,
            self.size()
        )
    }
}
