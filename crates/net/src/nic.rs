//! The NIC endpoint: what a simulated node holds to talk to the fabric.

use crate::driver::DriverHub;
use crate::fabric::Shared;
use crate::link::{Link, LinkCaps};
use crate::stats::NicStats;
use portals_types::{DoorbellQueue, Gather, NodeId};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One packet on the wire: source, destination, opaque payload.
#[derive(Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload bytes: a gather of cheaply clonable segments, so forwarding a
    /// datagram never copies the data it carries.
    pub payload: Gather,
}

impl fmt::Debug for Datagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Datagram({} -> {}, {} B)",
            self.src,
            self.dst,
            self.payload.len()
        )
    }
}

/// Errors from the receive calls. Defined in `portals_types::error` (so the
/// layered `ErrorKind` can wrap it) and re-exported from its owning crate.
pub use portals_types::RecvError;

/// A network interface attached to a fabric.
///
/// Sending is wait-free from the caller's perspective (the wire model delays
/// *delivery*, not the send call — as with a real NIC ring buffer). Receiving
/// offers blocking, non-blocking and bounded-wait variants; the Portals NIC
/// engine built on top chooses per its progress model.
pub struct Nic {
    nid: NodeId,
    shared: Arc<Shared>,
    /// Shared with this node's route: the fabric pushes, which rings the
    /// doorbell the queue is bound to. The fabric also rings it bare when a
    /// packet is scheduled toward this node on a caller-pumped wire.
    inbound: Arc<DoorbellQueue<Datagram>>,
    stats: Arc<NicStats>,
}

impl Nic {
    pub(crate) fn new(
        nid: NodeId,
        shared: Arc<Shared>,
        inbound: Arc<DoorbellQueue<Datagram>>,
        stats: Arc<NicStats>,
    ) -> Self {
        Nic {
            nid,
            shared,
            inbound,
            stats,
        }
    }

    /// This NIC's node id.
    #[inline]
    pub fn nid(&self) -> NodeId {
        self.nid
    }

    /// Send a packet to `dst`. Sends to unattached nodes vanish (counted in
    /// fabric stats) — the wire gives no failure feedback, just like hardware.
    pub fn send(&self, dst: NodeId, payload: impl Into<Gather>) {
        let payload = payload.into();
        self.stats.record_send(payload.len());
        self.shared.send(Datagram {
            src: self.nid,
            dst,
            payload,
        });
    }

    fn count(&self, received: Result<Datagram, RecvError>) -> Result<Datagram, RecvError> {
        if let Ok(d) = &received {
            self.stats.record_recv(d.payload.len());
        }
        received
    }

    /// Block until a packet arrives.
    pub fn recv(&self) -> Result<Datagram, RecvError> {
        self.count(self.inbound.recv())
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Datagram, RecvError> {
        self.count(self.inbound.try_recv())
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Datagram, RecvError> {
        self.count(self.inbound.recv_timeout(timeout))
    }

    /// Number of packets queued for this NIC right now.
    pub fn pending(&self) -> usize {
        self.inbound.len()
    }

    /// This NIC's traffic counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// On a caller-pumped wire (see
    /// [`FabricConfig::caller_driven_wire`](crate::FabricConfig)), deliver
    /// every due wire packet and return the next delivery deadline, if any.
    /// A no-op returning `None` on bypass wires and scheduler-thread wires.
    pub fn pump_wire(&self) -> Option<Instant> {
        self.shared.pump_wire()
    }

    /// Delivery deadline of the earliest packet scheduled on a caller-pumped
    /// wire, without pumping. `None` on bypass/scheduler wires or when idle.
    pub fn next_wire_deadline(&self) -> Option<Instant> {
        self.shared.next_wire_deadline()
    }
}

/// The in-process fabric is the reference [`Link`] backend: deterministic,
/// seeded fault injection, caller-pumpable wire — and a refcounted handoff
/// that cannot corrupt payloads, so body checksums stay off.
impl Link for Nic {
    fn nid(&self) -> NodeId {
        Nic::nid(self)
    }

    fn send(&self, dst: NodeId, payload: Gather) {
        Nic::send(self, dst, payload)
    }

    /// On the bypass wire, each run of consecutive datagrams to one node is
    /// one push onto its inbound queue: one lock, one doorbell ring. A
    /// modelled or faulty wire sends them one by one. Counted per datagram
    /// either way, as that many [`Nic::send`]s would be.
    fn send_batch(&self, batch: Vec<(NodeId, Gather)>) {
        for (_, payload) in &batch {
            self.stats.record_send(payload.len());
        }
        self.shared.send_batch(self.nid, batch)
    }

    fn inbound_receiver(&self) -> Arc<DoorbellQueue<Datagram>> {
        Arc::clone(&self.inbound)
    }

    fn caps(&self) -> LinkCaps {
        LinkCaps {
            hub: DriverHub::new(self.nid, Arc::clone(&self.shared.registry)),
            max_datagram: None,
            // Datagrams are refcounted views — a 64 KiB fragment moves no
            // more bytes than a small one, and bulk transfers pay per-packet
            // protocol cost 8x less often than at the Myrinet-era 8 KiB
            // default.
            preferred_mtu: Some(64 * 1024),
            body_checksum: false,
        }
    }

    fn pump_wire(&self) -> Option<Instant> {
        Nic::pump_wire(self)
    }

    fn next_wire_deadline(&self) -> Option<Instant> {
        Nic::next_wire_deadline(self)
    }
}

impl Drop for Nic {
    fn drop(&mut self) {
        self.shared.registry.unregister(self.nid);
        self.shared.routes.write().remove(&self.nid);
    }
}

impl fmt::Debug for Nic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nic({})", self.nid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;

    #[test]
    fn loopback_send_recv() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        a.send(NodeId(0), Gather::copy_from_slice(b"self"));
        let d = a.recv().unwrap();
        assert_eq!(d.src, NodeId(0));
        assert_eq!(d.dst, NodeId(0));
        assert_eq!(d.payload.to_vec(), b"self");
    }

    #[test]
    fn try_recv_empty() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        assert_eq!(a.try_recv().unwrap_err(), RecvError::Empty);
    }

    #[test]
    fn recv_timeout_expires() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let err = a.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn pending_counts_queued() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        for _ in 0..3 {
            a.send(NodeId(1), Gather::copy_from_slice(b"x"));
        }
        assert_eq!(b.pending(), 3);
    }

    #[test]
    fn nic_stats_track_traffic() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        a.send(NodeId(1), Gather::from_vec(vec![0u8; 100]));
        let _ = b.recv().unwrap();
        assert_eq!(a.stats().sent.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(
            a.stats()
                .bytes_sent
                .load(std::sync::atomic::Ordering::Relaxed),
            100
        );
        assert_eq!(
            b.stats()
                .received
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            b.stats()
                .bytes_received
                .load(std::sync::atomic::Ordering::Relaxed),
            100
        );
    }
}
