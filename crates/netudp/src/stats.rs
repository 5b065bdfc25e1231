//! UDP link counters.
//!
//! Registered as `net.udp.*` series labeled `{node}`, on the same registry as
//! the `transport.*` / `flow.*` series, so the observability tooling (the
//! `tables` bin, the soak invariants) can reconcile socket-level traffic with
//! protocol-level traffic: every datagram the transport put on this link is
//! either counted sent here, dropped by the loss shim, or unroutable.

use portals_obs::{Counter, Histogram, Registry};

/// Bucket upper bounds for the batch-size histograms: how many datagrams
/// each `sendmmsg`/`recvmmsg` call actually moved.
const BATCH_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Counters maintained by a [`UdpLink`](crate::UdpLink).
#[derive(Debug)]
pub struct UdpStats {
    /// Datagrams handed to the socket (after the loss shim).
    pub datagrams_sent: Counter,
    /// Payload bytes handed to the socket (frame headers excluded).
    pub bytes_sent: Counter,
    /// Wire bytes handed to the socket: payload plus the 18-byte frame
    /// header, per datagram — what actually crossed the OS boundary, so the
    /// `tables` bin can reconcile socket traffic without losing one header
    /// per datagram.
    pub frame_bytes_sent: Counter,
    /// Well-formed datagrams delivered into the inbound queue.
    pub datagrams_received: Counter,
    /// Payload bytes delivered into the inbound queue.
    pub bytes_received: Counter,
    /// Wire bytes of well-formed received datagrams (payload + frame
    /// header).
    pub frame_bytes_received: Counter,
    /// Batched send calls (`sendmmsg` or the per-datagram fallback): the
    /// send-side syscall count. `datagrams_sent / batches_sent` is the
    /// realized outbound batch size.
    pub batches_sent: Counter,
    /// Batched receive calls that returned at least one datagram: the
    /// receive-side syscall count (timeouts excluded).
    pub batches_received: Counter,
    /// Datagrams per send batch (`net.udp.send_batch_frames`).
    pub send_batch_frames: Histogram,
    /// Datagrams per receive batch (`net.udp.recv_batch_frames`).
    pub recv_batch_frames: Histogram,
    /// Datagrams rejected on receive because the frame was shorter than its
    /// header or shorter than the length the header declared (a truncated
    /// read or a foreign sender).
    pub truncated: Counter,
    /// Datagrams rejected because the frame checksum did not verify.
    pub checksum_rejects: Counter,
    /// Datagrams rejected because the frame carried the wrong magic/version
    /// (something other than a Portals peer is talking to this port).
    pub bad_magic: Counter,
    /// Datagrams rejected because the frame's destination was some other
    /// node id (stale peer table on the sender's side).
    pub misrouted: Counter,
    /// `WouldBlock`/`Interrupted` send retries (bounded; the datagram is
    /// dropped when the budget runs out — it is an unreliable link).
    pub wouldblock_retries: Counter,
    /// Sends dropped on the floor by the seeded loss shim
    /// ([`UdpLinkConfig::loss`](crate::UdpLinkConfig)).
    pub shim_dropped: Counter,
    /// Sends dropped because no socket address is known for the destination
    /// node id.
    pub unroutable: Counter,
    /// Sends dropped after exhausting the retry budget or on a hard socket
    /// error.
    pub send_errors: Counter,
}

impl UdpStats {
    /// Register the `net.udp.*` series for node `nid` in `registry`.
    pub fn new(registry: &Registry, nid: u32) -> UdpStats {
        let labels = [("node", nid.to_string())];
        let c = |name| registry.counter(name, &labels);
        let h = |name| registry.histogram(name, &labels, &BATCH_BOUNDS);
        UdpStats {
            datagrams_sent: c("net.udp.datagrams_sent"),
            bytes_sent: c("net.udp.bytes_sent"),
            frame_bytes_sent: c("net.udp.frame_bytes_sent"),
            datagrams_received: c("net.udp.datagrams_received"),
            bytes_received: c("net.udp.bytes_received"),
            frame_bytes_received: c("net.udp.frame_bytes_received"),
            batches_sent: c("net.udp.batches_sent"),
            batches_received: c("net.udp.batches_recv"),
            send_batch_frames: h("net.udp.send_batch_frames"),
            recv_batch_frames: h("net.udp.recv_batch_frames"),
            truncated: c("net.udp.truncated"),
            checksum_rejects: c("net.udp.checksum_rejects"),
            bad_magic: c("net.udp.bad_magic"),
            misrouted: c("net.udp.misrouted"),
            wouldblock_retries: c("net.udp.wouldblock_retries"),
            shim_dropped: c("net.udp.shim_dropped"),
            unroutable: c("net.udp.unroutable"),
            send_errors: c("net.udp.send_errors"),
        }
    }
}
