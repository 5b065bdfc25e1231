//! The UDP socket [`Link`] backend: a socket, and the one receive thread
//! that drains it and — beneath an endpoint that would otherwise spawn a NIC
//! thread — runs that endpoint's step on what it drained.

use crate::frame::{self, FrameError, FRAME_HEADER};
use crate::mmsg::{self, RecvMeta, Run};
use crate::stats::UdpStats;
use parking_lot::{Mutex, RwLock};
use portals_net::{Datagram, DriverHub, DriverRegistry, Link, LinkCaps};
use portals_obs::Obs;
use portals_types::{DoorbellQueue, Gather, NodeId, Readiness};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the receive thread blocks in the kernel before re-checking the
/// shutdown flag. Bounds teardown latency, not delivery latency (a datagram
/// arriving mid-wait wakes the call immediately).
const RX_POLL: Duration = Duration::from_millis(5);

/// How late a wait of [`RX_POLL`] on the socket's read timeout can end: the
/// kernel counts that timeout in scheduler ticks, 10 ms apart at the
/// coarsest. A hosted stepper's timer due sooner than this is waited for on
/// a high-resolution timer instead.
const RX_POLL_SLACK: Duration = Duration::from_millis(15);

/// Send retries on `WouldBlock`/`Interrupted` before the datagram is dropped.
/// Dropping is legal — this is an unreliable link and the transport
/// retransmits — but riding out transient buffer pressure is far cheaper
/// than a retransmission timeout.
const SEND_RETRIES: u32 = 16;

/// `sendmmsg`/`recvmmsg` vector length: how many entries one kernel crossing
/// moves at most. A send entry is a run of up to [`mmsg::MAX_SEGMENTS`]
/// frames (one GSO send of at most [`mmsg::UDP_MAX_DATAGRAM`] bytes), a
/// receive entry a buffer of one datagram or of several the kernel coalesced
/// (GRO). A bulk stream at the 1432-byte MTU fills a 64 KiB run with 45
/// frames, so the transport's window of 64 fragments is two entries; the
/// vector length then matters only for streams of small or mixed frames,
/// which form runs of one. The rx thread allocates one 64 KiB buffer per
/// slot, enough for the largest coalesced buffer.
const BATCH: usize = 32;

/// Most datagrams the rx thread takes off the socket before it steps a
/// hosted endpoint on them: one run of the transport's receive drain, which
/// acks once per run. A GRO buffer counts as the datagrams it holds, and is
/// taken whole.
const DRAIN: usize = 64;

/// Back off before retry `attempt` (1-based): two free yields for
/// scheduling blips, then an exponentially growing sleep from 10 µs capped
/// at 1.28 ms — roughly 10 ms of total budget across [`SEND_RETRIES`]
/// attempts. A full loopback socket buffer drains in well under that, so
/// transient pressure is actually absorbed; the 16 bare `spin_loop` hints
/// this replaces bought only nanoseconds and effectively always fell
/// through to a drop.
fn backoff(attempt: u32) {
    if attempt <= 2 {
        std::thread::yield_now();
    } else {
        let us = 10u64 << (attempt - 3).min(7);
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// Drive `op` until it succeeds or the bounded backoff budget runs out,
/// retrying `WouldBlock`/`Interrupted` with [`backoff`] and counting each
/// retry in `retries`. Non-transient errors return immediately.
fn retry_transient<T>(
    retries: &portals_obs::Counter,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempts = 0;
    loop {
        match op() {
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
                    && attempts < SEND_RETRIES =>
            {
                attempts += 1;
                retries.inc();
                backoff(attempts);
            }
            other => return other,
        }
    }
}

/// Configuration for a [`UdpLink`].
#[derive(Debug, Clone)]
pub struct UdpLinkConfig {
    /// Local socket address to bind (port 0 picks a free port).
    pub bind: SocketAddr,
    /// The node id this endpoint speaks as.
    pub nid: NodeId,
    /// Hard bound on a single datagram's *payload* (the encoded transport
    /// packet; the 18-byte frame header rides on top). Reported to the
    /// transport as [`LinkCaps::max_datagram`] so it sizes fragments to
    /// fit. The default stays under a 1500-byte Ethernet MTU; loopback and
    /// jumbo-frame fabrics can raise it (clamped to what a UDP datagram can
    /// physically carry), and the rendezvous exchange negotiates a job-wide
    /// value via [`UdpLink::set_max_payload`].
    pub max_payload: usize,
    /// Send-side seeded loss shim: probability in `[0, 1]` that a datagram
    /// is silently dropped instead of sent. Real loss recovery (the
    /// transport's go-back-N machinery) can then be exercised over a
    /// loopback wire that never loses anything by itself. Drop decisions
    /// are made per datagram *below* the batch boundary — before frames are
    /// grouped into runs and vectors — in submission order, whichever entry
    /// point carried it.
    pub loss: f64,
    /// Seed for the loss shim (deterministic per link instance).
    pub seed: u64,
    /// Observability sinks; `net.udp.*` counters register here.
    pub obs: Obs,
}

impl Default for UdpLinkConfig {
    fn default() -> Self {
        UdpLinkConfig {
            bind: "127.0.0.1:0".parse().expect("literal addr"),
            nid: NodeId(0),
            max_payload: 1432,
            loss: 0.0,
            seed: 0,
            obs: Obs::default(),
        }
    }
}

/// Clamp a configured payload bound to what one UDP datagram can carry
/// alongside the frame header.
fn clamp_payload(max_payload: usize) -> usize {
    max_payload.clamp(64, mmsg::UDP_MAX_DATAGRAM - FRAME_HEADER)
}

/// A real UDP socket presented as a [`Link`]: the transport's reliability
/// machinery runs over actual OS datagrams, process boundaries and all.
///
/// A dedicated receive thread, `portals-udp-rx-<nid>`, drains the socket
/// (readiness-driven from the kernel's side: it parks in `recvmmsg`), cuts
/// each buffer the kernel coalesced (GRO) back into its datagrams,
/// validates each frame on its own, learns peer addresses, and feeds the
/// inbound queue —
/// the same delivery contract the in-process fabric's scheduler thread
/// provides, with one push and one doorbell ring per received batch. That
/// is all it does for a bare link. An endpoint built on the link in the
/// NIC-thread or host-driven mode hosts its stepper here
/// ([`DriverHub::host`]) instead of spawning a NIC thread, and the receive
/// thread then steps it after each batch and when its next timer is due: the
/// thread that takes a datagram runs the protocol on it. Sends go straight
/// to the socket from the calling thread, through one tx path for
/// [`Link::send`] (a vector of one) and [`Link::send_batch`] alike: each
/// frame is encoded straight into one wire buffer, consecutive frames to
/// one peer of one size (the last may be shorter) form a run, and one
/// `sendmmsg` call moves a vector of runs, each run one GSO send the kernel
/// cuts into datagrams. Where the kernel refuses GSO, the link re-sends
/// that run frame by frame and sends runs of one from then on
/// (`net.udp.gso_fallbacks`).
///
/// Peer routing: a [`NodeId`] → [`SocketAddr`] table, seeded explicitly via
/// [`UdpLink::set_peer`] (from the rendezvous exchange) and kept fresh by
/// learning the source address of every valid inbound frame — so a
/// responder can answer a node it never registered.
pub struct UdpLink {
    nid: NodeId,
    socket: UdpSocket,
    local_addr: SocketAddr,
    peers: Arc<RwLock<HashMap<NodeId, SocketAddr>>>,
    inbound: Arc<DoorbellQueue<Datagram>>,
    drivers: Arc<DriverRegistry>,
    stats: Arc<UdpStats>,
    /// Payload bound; atomic so the rendezvous exchange can install the
    /// negotiated job-wide value after bind but before the transport reads
    /// [`Link::caps`].
    max_payload: AtomicUsize,
    /// Most frames one run may carry: [`mmsg::MAX_SEGMENTS`], or 1 once
    /// the kernel has refused a GSO send.
    run_frames: AtomicUsize,
    loss: f64,
    rng: Mutex<SmallRng>,
    shutdown: Arc<AtomicBool>,
    rx_thread: Option<JoinHandle<()>>,
}

impl UdpLink {
    /// Bind a UDP socket per `cfg` and start the receive thread.
    pub fn bind(cfg: UdpLinkConfig) -> std::io::Result<UdpLink> {
        let socket = UdpSocket::bind(cfg.bind)?;
        // Cover a full go-back-N window of jumbo datagrams (64 × 64 KiB ≈
        // 4 MiB) in each direction: the stock ~212 KiB rcvbuf holds three
        // jumbo frames, and a sender bursting its window over loopback
        // loses everything past them to buffer overrun — throughput
        // collapses into retransmission storms. Best effort: without
        // CAP_NET_ADMIN the kernel clamps to `net.core.rmem_max` and the
        // transport still recovers the drops, just slower.
        mmsg::set_buffer_sizes(&socket, 8 * 1024 * 1024);
        let local_addr = socket.local_addr()?;
        let rx_socket = socket.try_clone()?;
        rx_socket.set_read_timeout(Some(RX_POLL))?;
        mmsg::enable_gro(&rx_socket);

        let inbound = Arc::new(DoorbellQueue::new(
            Arc::new(Readiness::new()),
            Readiness::INBOUND,
        ));
        let peers = Arc::new(RwLock::new(HashMap::new()));
        let drivers = Arc::new(DriverRegistry::hosting());
        let stats = Arc::new(UdpStats::new(&cfg.obs.registry, cfg.nid.0));
        let shutdown = Arc::new(AtomicBool::new(false));

        let rx = RxThread {
            nid: cfg.nid,
            socket: rx_socket,
            peers: Arc::clone(&peers),
            out: Arc::clone(&inbound),
            drivers: Arc::clone(&drivers),
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
        };
        let rx_thread = std::thread::Builder::new()
            .name(format!("portals-udp-rx-{}", cfg.nid.0))
            .spawn(move || rx.run())?;

        Ok(UdpLink {
            nid: cfg.nid,
            socket,
            local_addr,
            peers,
            inbound,
            drivers,
            stats,
            max_payload: AtomicUsize::new(clamp_payload(cfg.max_payload)),
            run_frames: AtomicUsize::new(mmsg::MAX_SEGMENTS),
            loss: cfg.loss,
            rng: Mutex::new(SmallRng::seed_from_u64(cfg.seed)),
            shutdown,
            rx_thread: Some(rx_thread),
        })
    }

    /// The socket address this link is bound to (what peers send to).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The node id this link speaks as.
    pub fn nid(&self) -> NodeId {
        self.nid
    }

    /// Route `nid` to `addr`. Usually called once per peer with addresses
    /// from the rendezvous exchange; inbound traffic keeps the table fresh
    /// afterwards.
    pub fn set_peer(&self, nid: NodeId, addr: SocketAddr) {
        self.peers.write().insert(nid, addr);
    }

    /// The socket address currently routed for `nid`, if any.
    pub fn peer_addr(&self, nid: NodeId) -> Option<SocketAddr> {
        self.peers.read().get(&nid).copied()
    }

    /// The current per-datagram payload bound.
    pub fn max_payload(&self) -> usize {
        self.max_payload.load(Ordering::Relaxed)
    }

    /// Install a (negotiated) payload bound, clamped to what one UDP
    /// datagram can carry. The rendezvous exchange calls this with the
    /// job-wide minimum MTU so every rank fragments identically; it must
    /// run before the transport endpoint is built (the endpoint reads
    /// [`Link::caps`] once, at construction).
    pub fn set_max_payload(&self, max_payload: usize) {
        self.max_payload
            .store(clamp_payload(max_payload), Ordering::Relaxed);
    }

    /// The live `net.udp.*` counters; read a value with `.get()` at the
    /// point it is needed.
    pub fn stats(&self) -> &UdpStats {
        &self.stats
    }

    /// The per-datagram drop decision of the seeded loss shim. Sits below
    /// the batch boundary: consulted per datagram, in submission order,
    /// before runs are formed, so the same send stream draws the same RNG
    /// sequence however it was cut into vectors and runs.
    fn shim_drops(&self) -> bool {
        self.loss > 0.0 && self.rng.lock().gen::<f64>() < self.loss
    }

    /// The one tx path, for a vector of any length including one: resolve,
    /// shim and frame per datagram, then send in runs.
    fn transmit(&self, batch: &[(NodeId, Gather)]) {
        // Resolve and apply the loss shim per datagram, in submission order,
        // before runs are formed: a dropped datagram simply never enters the
        // wire buffer. Each survivor's header and payload are copied exactly
        // once, straight into that buffer.
        let mut wire = Vec::with_capacity(
            batch
                .iter()
                .map(|(_, payload)| FRAME_HEADER + payload.len())
                .sum(),
        );
        let mut frames: Vec<(SocketAddr, usize)> = Vec::with_capacity(batch.len());
        for (dst, payload) in batch {
            let Some(addr) = self.peer_addr(*dst) else {
                self.stats.unroutable.inc();
                continue;
            };
            if self.shim_drops() {
                self.stats.shim_dropped.inc();
                continue;
            }
            frame::encode_header(self.nid, *dst, payload.len(), &mut wire);
            for seg in payload.segments() {
                wire.extend_from_slice(seg.as_ref());
            }
            frames.push((addr, FRAME_HEADER + payload.len()));
        }
        self.send_frames(&wire, &frames, &mut |runs| {
            mmsg::send_batch(&self.socket, runs)
        });
    }

    /// Put `frames`, laid back to back in `wire`, on the wire in runs,
    /// [`BATCH`] runs per call of `send` (`sendmmsg`). Transient pressure
    /// on the *next unsent* run is retried with the bounded backoff (partial
    /// progress resets the budget). A run the kernel refuses to segment
    /// switches the link to runs of one and is re-sent that way, with all
    /// that follows it.
    fn send_frames(
        &self,
        wire: &[u8],
        frames: &[(SocketAddr, usize)],
        send: &mut dyn FnMut(&[Run<'_>]) -> io::Result<usize>,
    ) {
        let plan = plan_runs(frames, self.run_frames.load(Ordering::Relaxed));
        let mut at = 0; // where the next run's bytes start in `wire`
        let runs: Vec<Run<'_>> = plan
            .iter()
            .map(|range| {
                let (addr, segment) = frames[range.start];
                let len: usize = frames[range.clone()].iter().map(|&(_, len)| len).sum();
                at += len;
                Run {
                    addr,
                    bytes: &wire[at - len..at],
                    segment,
                    frames: range.len(),
                }
            })
            .collect();
        for first in (0..runs.len()).step_by(BATCH) {
            let chunk = &runs[first..runs.len().min(first + BATCH)];
            let mut done = 0;
            while done < chunk.len() {
                let sent = retry_transient(&self.stats.wouldblock_retries, || send(&chunk[done..]));
                match sent {
                    Ok(n) if n > 0 => {
                        self.account(&chunk[done..done + n]);
                        done += n;
                    }
                    Err(e) if chunk[done].frames > 1 && mmsg::refuses_segmentation(&e) => {
                        // Nothing of the refused run left. Runs of one from
                        // now on, starting with it; counted by whichever
                        // sender switched the link.
                        if self.run_frames.swap(1, Ordering::Relaxed) > 1 {
                            self.stats.gso_fallbacks.inc();
                        }
                        let rest = plan[first + done].start;
                        let skip: usize = frames[..rest].iter().map(|&(_, len)| len).sum();
                        return self.send_frames(&wire[skip..], &frames[rest..], send);
                    }
                    // A zero-progress return or a hard error drops the rest
                    // of the vector: unreliable link, transport recovers.
                    Ok(_) | Err(_) => {
                        let lost: usize = chunk[done..].iter().map(|run| run.frames).sum();
                        self.stats.send_errors.add(lost as u64);
                        break;
                    }
                }
            }
        }
    }

    /// Count one wire call that moved `runs`, each frame as one datagram.
    fn account(&self, runs: &[Run<'_>]) {
        let frames: usize = runs.iter().map(|run| run.frames).sum();
        let bytes: usize = runs.iter().map(|run| run.bytes.len()).sum();
        self.stats.batches_sent.inc();
        self.stats.send_batch_frames.observe(frames as u64);
        self.stats.datagrams_sent.add(frames as u64);
        self.stats
            .bytes_sent
            .add((bytes - FRAME_HEADER * frames) as u64);
        self.stats.frame_bytes_sent.add(bytes as u64);
    }
}

/// Cut `frames` — each its destination and wire length, in submission order
/// — into runs: consecutive frames to one destination, all the length of the
/// first except a shorter last one, at most `max_frames` of them and
/// [`mmsg::UDP_MAX_DATAGRAM`] bytes together. Returns each run as the range
/// of `frames` it covers; the ranges tile `frames` in order.
fn plan_runs<A: PartialEq>(frames: &[(A, usize)], max_frames: usize) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    let mut bytes = 0;
    for (i, (addr, len)) in frames.iter().enumerate() {
        if let Some(run) = runs.last_mut() {
            let (head, segment) = &frames[run.start];
            let open = frames[run.end - 1].1 == *segment;
            if open
                && addr == head
                && len <= segment
                && run.len() < max_frames
                && bytes + len <= mmsg::UDP_MAX_DATAGRAM
            {
                run.end = i + 1;
                bytes += len;
                continue;
            }
        }
        runs.push(i..i + 1);
        bytes = *len;
    }
    runs
}

impl Link for UdpLink {
    fn nid(&self) -> NodeId {
        self.nid
    }

    fn send(&self, dst: NodeId, payload: Gather) {
        self.transmit(&[(dst, payload)]);
    }

    fn send_batch(&self, batch: Vec<(NodeId, Gather)>) {
        self.transmit(&batch);
    }

    fn inbound_receiver(&self) -> Arc<DoorbellQueue<Datagram>> {
        Arc::clone(&self.inbound)
    }

    fn caps(&self) -> LinkCaps {
        LinkCaps {
            hub: DriverHub::new(self.nid, Arc::clone(&self.drivers)),
            max_datagram: Some(self.max_payload()),
            preferred_mtu: None,
            // Kernel buffers, NIC DMA, a real wire: bytes can rot where the
            // in-process fabric's refcounted handoff cannot.
            body_checksum: true,
        }
    }
}

impl Drop for UdpLink {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.rx_thread.take() {
            let _ = handle.join();
        }
        self.drivers.unregister(self.nid);
    }
}

impl std::fmt::Debug for UdpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UdpLink({} @ {})", self.nid, self.local_addr)
    }
}

/// The receive side, owned by the rx thread.
struct RxThread {
    nid: NodeId,
    socket: UdpSocket,
    peers: Arc<RwLock<HashMap<NodeId, SocketAddr>>>,
    out: Arc<DoorbellQueue<Datagram>>,
    /// Where an endpoint on this link hosts the stepper this thread runs.
    drivers: Arc<DriverRegistry>,
    stats: Arc<UdpStats>,
    shutdown: Arc<AtomicBool>,
}

impl RxThread {
    fn run(self) {
        // One max-size buffer per batch slot: frames above max_payload
        // still parse (the bound is a courtesy to senders, not a
        // receive-side limit).
        let mut bufs: Vec<Vec<u8>> = (0..BATCH).map(|_| vec![0u8; 65536]).collect();
        let mut metas: Vec<RecvMeta> = Vec::with_capacity(BATCH);
        let mut accepted: Vec<Datagram> = Vec::with_capacity(BATCH);
        // When the hosted stepper must step again, if one is hosted.
        let mut next: Option<Instant> = None;
        while !self.shutdown.load(Ordering::Acquire) {
            metas.clear();
            // Block for the first datagram, drain whatever else is already
            // queued in the same syscall: up to RX_POLL on the socket's read
            // timeout, or exactly until the hosted stepper's next timer when
            // that timeout's ticks could overshoot it.
            let received = match next.map(|at| at.saturating_duration_since(Instant::now())) {
                Some(left) if left < RX_POLL_SLACK => {
                    match mmsg::wait_readable(&self.socket, left.min(RX_POLL)) {
                        Ok(true) => mmsg::recv_batch(&self.socket, &mut bufs, &mut metas, true),
                        other => other.map(|_| 0),
                    }
                }
                _ => mmsg::recv_batch(&self.socket, &mut bufs, &mut metas, true),
            };
            match received {
                Ok(n) if n > 0 => {
                    self.take(&bufs, &metas, &mut accepted);
                    // Beneath a hosted stepper (it asked to be stepped again
                    // by `next`), what else has arrived by now joins the
                    // batch before the step, which acks once for all of it.
                    while next.is_some() && accepted.len() < DRAIN {
                        metas.clear();
                        match mmsg::recv_batch(&self.socket, &mut bufs, &mut metas, false) {
                            Ok(n) if n > 0 => self.take(&bufs, &metas, &mut accepted),
                            _ => break,
                        }
                    }
                    // One lock and one doorbell per burst: a parked consumer
                    // wakes once and drains the whole of it.
                    self.out.push_all(accepted.drain(..));
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                // On Linux a previous send to an unreachable port can surface
                // here as ECONNREFUSED; not a receive failure.
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => {}
                Err(_) => break, // socket gone
            }
            // Step the hosted endpoint on what just arrived, or on a timer
            // that came due while the socket was silent.
            next = self.drivers.step_hosted();
        }
    }

    /// Count one received batch and keep the datagrams it carried: each
    /// buffer cut at the segment size the kernel reported, each piece
    /// validated on its own, so a bad frame drops only itself.
    fn take(&self, bufs: &[Vec<u8>], metas: &[RecvMeta], accepted: &mut Vec<Datagram>) {
        let mut datagrams = 0;
        for meta in metas {
            for frame in mmsg::segments(&bufs[meta.buf][..meta.len], meta.segment) {
                datagrams += 1;
                accepted.extend(self.accept(frame, meta.addr));
            }
        }
        self.stats.batches_received.inc();
        self.stats.recv_batch_frames.observe(datagrams);
    }

    /// Validate one received frame; `Some` is the datagram it carried.
    fn accept(&self, buf: &[u8], from: SocketAddr) -> Option<Datagram> {
        let (src, dst, payload) = match frame::decode(buf) {
            Ok(parts) => parts,
            Err(FrameError::Truncated) => {
                self.stats.truncated.inc();
                return None;
            }
            Err(FrameError::BadMagic) => {
                self.stats.bad_magic.inc();
                return None;
            }
            Err(FrameError::Checksum) => {
                self.stats.checksum_rejects.inc();
                return None;
            }
        };
        if dst != self.nid {
            self.stats.misrouted.inc();
            return None;
        }
        // Learn-on-rx: the freshest return address for this peer is the one
        // it just sent from. Read-check first — the address is almost always
        // already known, and taking the write lock per inbound datagram
        // would serialize this thread against every concurrent
        // `peer_addr()` read on the send path.
        let known = self.peers.read().get(&src) == Some(&from);
        if !known {
            self.peers.write().insert(src, from);
        }
        self.stats.datagrams_received.inc();
        self.stats.bytes_received.add(payload.len() as u64);
        self.stats.frame_bytes_received.add(buf.len() as u64);
        Some(Datagram {
            src,
            dst,
            payload: Gather::from_vec(payload.to_vec()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_obs::Registry;
    use std::io;
    use std::sync::atomic::AtomicU32;

    fn would_block() -> io::Error {
        io::Error::new(ErrorKind::WouldBlock, "buffer full")
    }

    /// The regression the bounded backoff exists for: pressure that
    /// persists for a couple of milliseconds (a full socket buffer the
    /// kernel is draining) must be absorbed by the retry loop, not fall
    /// through to a drop. The 16 bare `spin_loop` hints this replaced
    /// burned their whole budget in nanoseconds and always dropped here.
    #[test]
    fn retry_absorbs_transient_pressure() {
        let stats = UdpStats::new(&Registry::new(), 0);
        let t0 = Instant::now();
        let result = retry_transient(&stats.wouldblock_retries, || {
            if t0.elapsed() < Duration::from_millis(2) {
                Err(would_block())
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(result.unwrap(), 7, "2 ms of pressure must be ridden out");
        assert!(
            stats.wouldblock_retries.get() > 0,
            "the retry counter must record the absorbed pressure"
        );
    }

    #[test]
    fn retry_budget_is_bounded() {
        let stats = UdpStats::new(&Registry::new(), 0);
        let calls = AtomicU32::new(0);
        let result: io::Result<()> = retry_transient(&stats.wouldblock_retries, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(would_block())
        });
        assert_eq!(result.unwrap_err().kind(), ErrorKind::WouldBlock);
        assert_eq!(calls.load(Ordering::Relaxed), SEND_RETRIES + 1);
        assert_eq!(stats.wouldblock_retries.get(), SEND_RETRIES as u64);
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let stats = UdpStats::new(&Registry::new(), 0);
        let result: io::Result<()> = retry_transient(&stats.wouldblock_retries, || {
            Err(io::Error::new(ErrorKind::PermissionDenied, "nope"))
        });
        assert_eq!(result.unwrap_err().kind(), ErrorKind::PermissionDenied);
        assert_eq!(stats.wouldblock_retries.get(), 0);
    }

    /// Wire lengths the planner sees on a stream: full fragments, a short
    /// last fragment, an ACK, a jumbo fragment.
    const LENS: [usize; 5] = [1450, 1450, 700, 38, 40000];

    proptest::proptest! {
        /// The runs put every frame back in submission order, each run
        /// keeps the limits, and a run ends only where the next frame could
        /// not have joined it.
        #[test]
        fn runs_tile_the_frames_within_the_limits(
            picks in proptest::collection::vec((0u8..3, 0usize..LENS.len()), 0..200),
            max_frames in 1usize..=64,
        ) {
            let frames: Vec<(u8, usize)> =
                picks.iter().map(|&(addr, pick)| (addr % 2, LENS[pick])).collect();
            let runs = plan_runs(&frames, max_frames);
            let tiled: Vec<usize> = runs.iter().flat_map(|run| run.clone()).collect();
            proptest::prop_assert_eq!(tiled, (0..frames.len()).collect::<Vec<_>>());
            for (k, run) in runs.iter().enumerate() {
                let members = &frames[run.clone()];
                let (head, segment) = members[0];
                let (last, body) = members.split_last().expect("no empty run");
                proptest::prop_assert!(members.iter().all(|&(addr, _)| addr == head));
                proptest::prop_assert!(body.iter().all(|&(_, len)| len == segment));
                proptest::prop_assert!(last.1 <= segment);
                proptest::prop_assert!(members.len() <= max_frames);
                let bytes: usize = members.iter().map(|&(_, len)| len).sum();
                proptest::prop_assert!(members.len() == 1 || bytes <= mmsg::UDP_MAX_DATAGRAM);
                if let Some(next) = runs.get(k + 1) {
                    let (addr, len) = frames[next.start];
                    let could_join = addr == head
                        && last.1 == segment
                        && len <= segment
                        && members.len() < max_frames
                        && bytes + len <= mmsg::UDP_MAX_DATAGRAM;
                    proptest::prop_assert!(!could_join, "run {k} ended early");
                }
            }
        }
    }

    #[test]
    fn equal_frames_to_one_peer_fill_runs_to_a_limit() {
        let addr = |n| (n, 1450);
        // 45 frames of 1450 bytes fill 65 250 of the 65 507 bytes a run holds.
        let frames: Vec<(u8, usize)> = (0..100).map(|_| addr(0)).collect();
        assert_eq!(plan_runs(&frames, 64), [0..45, 45..90, 90..100]);
        assert_eq!(plan_runs(&frames[..30], 16), [0..16, 16..30]);
        assert_eq!(plan_runs(&frames[..3], 1), [0..1, 1..2, 2..3]);
        // A shorter frame ends its run; a longer one starts the next.
        let mixed = [(0, 100), (0, 100), (0, 60), (0, 60), (0, 100), (1, 100)];
        assert_eq!(plan_runs(&mixed, 64), [0..3, 3..4, 4..5, 5..6]);
    }

    /// A frame of 40 bytes, then ten of 100 and a shorter last one: a run of
    /// one, then a run of eleven. Frame `i` is `len` copies of `i`.
    fn two_runs() -> (Vec<(SocketAddr, usize)>, Vec<u8>) {
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("literal addr");
        let frames: Vec<(SocketAddr, usize)> = std::iter::once(40)
            .chain([100; 10])
            .chain([60])
            .map(|len| (addr, len))
            .collect();
        let wire = frames
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, len))| std::iter::repeat_n(i as u8, len))
            .collect();
        (frames, wire)
    }

    /// Run `send_frames` against a kernel that fails every entry of more
    /// than one frame with `errno`, reporting it as `sendmmsg` does: an
    /// error only when the first entry failed. Returns each call's entries
    /// as their frame counts, and the bytes the kernel took, in order.
    fn send_refused(link: &UdpLink, errno: i32) -> (Vec<Vec<usize>>, Vec<u8>) {
        let (frames, wire) = two_runs();
        let mut calls = Vec::new();
        let mut taken = Vec::new();
        link.send_frames(&wire, &frames, &mut |runs| {
            calls.push(runs.iter().map(|run| run.frames).collect());
            let n = match runs.iter().position(|run| run.frames > 1) {
                Some(0) => return Err(io::Error::from_raw_os_error(errno)),
                Some(n) => n,
                None => runs.len(),
            };
            runs[..n]
                .iter()
                .for_each(|run| taken.extend_from_slice(run.bytes));
            Ok(n)
        });
        (calls, taken)
    }

    /// The refusal fallback: a run the kernel will not segment is re-sent
    /// one frame per entry, nothing lost or sent twice, and the link sends
    /// runs of one from then on, counted once.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_refused_run_is_resent_frame_by_frame_and_runs_stay_off() {
        for errno in [5, 22, 92] {
            let link = UdpLink::bind(UdpLinkConfig::default()).expect("bind loopback");
            let (_, wire) = two_runs();
            let (calls, taken) = send_refused(&link, errno);
            assert_eq!(calls, [vec![1, 11], vec![11], vec![1; 11]], "errno {errno}");
            assert_eq!(taken, wire, "errno {errno}: every frame once, in order");
            let s = link.stats();
            assert_eq!(s.gso_fallbacks.get(), 1);
            assert_eq!(s.datagrams_sent.get(), 12);
            assert_eq!(s.batches_sent.get(), 2, "the refused call moved nothing");
            assert_eq!(s.send_errors.get(), 0);
            // For the rest of its life: runs of one, and no second switch.
            let (calls, taken) = send_refused(&link, errno);
            assert_eq!(calls, [vec![1; 12]]);
            assert_eq!(taken, wire);
            assert_eq!(s.gso_fallbacks.get(), 1);
        }
    }

    /// Any other error on a run is the socket failing, not a refusal: the
    /// run is dropped like a single datagram would be, and runs stay on.
    #[test]
    fn a_hard_error_on_a_run_drops_it_and_keeps_runs() {
        let link = UdpLink::bind(UdpLinkConfig::default()).expect("bind loopback");
        let (calls, taken) = send_refused(&link, 1); // EPERM
        if mmsg::MAX_SEGMENTS > 1 {
            assert_eq!(calls, [vec![1, 11], vec![11]]);
            assert_eq!(taken.len(), 40);
            assert_eq!(link.stats().send_errors.get(), 11);
            assert_eq!(link.stats().gso_fallbacks.get(), 0);
            assert_eq!(send_refused(&link, 1).0, [vec![1, 11], vec![11]]);
        } else {
            assert_eq!(calls, [vec![1; 12]]);
        }
    }

    #[test]
    fn payload_bound_is_clamped_to_a_real_datagram() {
        assert_eq!(clamp_payload(1432), 1432);
        assert_eq!(
            clamp_payload(1 << 20),
            mmsg::UDP_MAX_DATAGRAM - FRAME_HEADER
        );
        assert_eq!(clamp_payload(0), 64);
    }
}
