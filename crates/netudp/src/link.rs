//! The UDP socket [`Link`] backend.

use crate::frame::{self, FrameError, FRAME_HEADER};
use crate::mmsg::{self, RecvMeta};
use crate::stats::UdpStats;
use parking_lot::{Mutex, RwLock};
use portals_net::{Datagram, DriverHub, DriverRegistry, Link, LinkCaps};
use portals_obs::Obs;
use portals_types::{DoorbellQueue, Gather, NodeId, Readiness};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the receive thread blocks in the kernel before re-checking the
/// shutdown flag. Bounds teardown latency, not delivery latency (a datagram
/// arriving mid-wait wakes the call immediately).
const RX_POLL: Duration = Duration::from_millis(5);

/// Send retries on `WouldBlock`/`Interrupted` before the datagram is dropped.
/// Dropping is legal — this is an unreliable link and the transport
/// retransmits — but riding out transient buffer pressure is far cheaper
/// than a retransmission timeout.
const SEND_RETRIES: u32 = 16;

/// `sendmmsg`/`recvmmsg` vector length: how many datagrams one kernel
/// crossing moves at most. 32 × 1432-byte frames ≈ 45 KiB per syscall; past
/// that the copy dominates and bigger vectors stop paying. The rx thread
/// allocates one 64 KiB buffer per slot.
const BATCH: usize = 32;

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
    /// are made per datagram *below* the batch boundary — inside the mmsg
    /// vector — in submission order, whichever entry point carried it.
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
/// A dedicated receive thread drains the socket (readiness-driven from the
/// kernel's side: it parks in `recvmmsg`), validates frames, learns peer
/// addresses, and feeds the inbound queue — the same delivery contract the
/// in-process fabric's scheduler thread provides, with one push and one
/// doorbell ring per received batch. Sends go straight to the socket from
/// the calling thread; [`Link::send_batch`] moves a whole vector of datagrams
/// per `sendmmsg` call, and [`Link::send`] is a vector of one through the
/// same path.
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

        let inbound = Arc::new(DoorbellQueue::new(
            Arc::new(Readiness::new()),
            Readiness::INBOUND,
        ));
        let peers = Arc::new(RwLock::new(HashMap::new()));
        let stats = Arc::new(UdpStats::new(&cfg.obs.registry, cfg.nid.0));
        let shutdown = Arc::new(AtomicBool::new(false));

        let rx = RxThread {
            nid: cfg.nid,
            socket: rx_socket,
            peers: Arc::clone(&peers),
            out: Arc::clone(&inbound),
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
            drivers: Arc::new(DriverRegistry::new()),
            stats,
            max_payload: AtomicUsize::new(clamp_payload(cfg.max_payload)),
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

    /// Frame `payload` for the wire: header plus the gather's segments
    /// copied exactly once into one contiguous datagram buffer.
    fn encode_frame(&self, dst: NodeId, payload: &Gather) -> Vec<u8> {
        let len = payload.len();
        let mut buf = Vec::with_capacity(FRAME_HEADER + len);
        frame::encode_header(self.nid, dst, len, &mut buf);
        for seg in payload.segments() {
            buf.extend_from_slice(seg.as_ref());
        }
        buf
    }

    /// The per-datagram drop decision of the seeded loss shim. Sits below
    /// the batch boundary: consulted per datagram while building an mmsg
    /// vector, so the same send stream draws the same RNG sequence however
    /// it was cut into vectors.
    fn shim_drops(&self) -> bool {
        self.loss > 0.0 && self.rng.lock().gen::<f64>() < self.loss
    }

    /// The one tx path, for a vector of any length including one: frame,
    /// shim, `sendmmsg` in chunks of [`BATCH`].
    fn transmit(&self, batch: &[(NodeId, Gather)]) {
        // Resolve and apply the loss shim per datagram while building the
        // vector: the shim sits below the batch boundary, so a dropped
        // datagram simply never enters the mmsg vector.
        let mut frames: Vec<(SocketAddr, Vec<u8>)> = Vec::with_capacity(batch.len());
        for (dst, payload) in batch {
            let Some(addr) = self.peer_addr(*dst) else {
                self.stats.unroutable.inc();
                continue;
            };
            if self.shim_drops() {
                self.stats.shim_dropped.inc();
                continue;
            }
            frames.push((addr, self.encode_frame(*dst, payload)));
        }
        for chunk in frames.chunks(BATCH) {
            self.send_frames(chunk);
        }
    }

    /// Put one pre-framed mmsg vector on the wire, retrying transient
    /// pressure on the *next unsent* datagram with the bounded backoff
    /// (partial progress resets the budget).
    fn send_frames(&self, frames: &[(SocketAddr, Vec<u8>)]) {
        let mut done = 0;
        while done < frames.len() {
            match retry_transient(&self.stats.wouldblock_retries, || {
                mmsg::send_batch(&self.socket, &frames[done..])
            }) {
                Ok(n) if n > 0 => {
                    self.stats.batches_sent.inc();
                    self.stats.send_batch_frames.observe(n as u64);
                    for (_, buf) in &frames[done..done + n] {
                        self.stats.datagrams_sent.inc();
                        self.stats.bytes_sent.add((buf.len() - FRAME_HEADER) as u64);
                        self.stats.frame_bytes_sent.add(buf.len() as u64);
                    }
                    done += n;
                }
                // A zero-progress return or a hard error drops the rest of
                // the vector: unreliable link, transport recovers.
                Ok(_) | Err(_) => {
                    self.stats.send_errors.add((frames.len() - done) as u64);
                    return;
                }
            }
        }
    }
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
        while !self.shutdown.load(Ordering::Acquire) {
            metas.clear();
            // Block (up to RX_POLL) for the first datagram, drain whatever
            // else is already queued in the same syscall.
            let received = mmsg::recv_batch(&self.socket, &mut bufs, &mut metas);
            match received {
                Ok(n) if n > 0 => {}
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                // On Linux a previous send to an unreachable port can surface
                // here as ECONNREFUSED; not a receive failure.
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => continue,
                Err(_) => break, // socket gone
            }
            self.stats.batches_received.inc();
            self.stats.recv_batch_frames.observe(metas.len() as u64);
            accepted.extend(
                metas
                    .iter()
                    .filter_map(|meta| self.accept(&bufs[meta.buf][..meta.len], meta.addr)),
            );
            // One lock and one doorbell per batch: a parked consumer wakes
            // once and drains the whole burst.
            self.out.push_all(accepted.drain(..));
        }
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
    use std::time::Instant;

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
