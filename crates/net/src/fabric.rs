//! The fabric: routing, the wire-model scheduler, partitions.

use crate::clock::SimClock;
use crate::config::FabricConfig;
use crate::driver::DriverRegistry;
#[cfg(test)]
use crate::driver::NodeDriver;
use crate::nic::{Datagram, Nic};
use crate::stats::FabricStats;
use parking_lot::{Condvar, Mutex, RwLock};
use portals_obs::{Layer, Stage, TraceEvent, NONE_U64};
use portals_types::{DoorbellQueue, Gather, NodeId, Readiness};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A packet waiting on the simulated wire.
struct ScheduledPacket {
    deliver_at: Duration,
    seq: u64,
    /// True when this copy was created by fault-injected duplication.
    dup: bool,
    datagram: Datagram,
}

// BinaryHeap is a max-heap; order by Reverse externally, so implement Ord by
// (deliver_at, seq) ascending-when-reversed.
impl PartialEq for ScheduledPacket {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for ScheduledPacket {}
impl PartialOrd for ScheduledPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

struct WireState {
    heap: BinaryHeap<Reverse<ScheduledPacket>>,
    next_seq: u64,
    rng: SmallRng,
    /// Per-node egress "busy until" time (fabric-relative) for serialization.
    egress_busy: HashMap<NodeId, Duration>,
    shutdown: bool,
}

pub(crate) struct Shared {
    pub(crate) clock: SimClock,
    pub(crate) config: FabricConfig,
    pub(crate) stats: FabricStats,
    /// Each attached node's inbound queue, shared with its [`Nic`].
    pub(crate) routes: RwLock<HashMap<NodeId, Arc<DoorbellQueue<Datagram>>>>,
    /// Caller-driven nodes that volunteered to be serviced from peers' wait
    /// loops (see [`crate::NodeDriver`]); shared with every
    /// [`crate::DriverHub`] this fabric's NICs hand out.
    pub(crate) registry: Arc<DriverRegistry>,
    partitions: RwLock<HashSet<(NodeId, NodeId)>>,
    wire: Mutex<WireState>,
    wire_cond: Condvar,
    /// True when the link model and fault plan allow delivering in the sender's
    /// thread (zero delay, no faults) — the scheduler is skipped entirely.
    bypass_wire: bool,
    /// True when a timed/faulty wire is pumped by callers (via
    /// [`Shared::pump_wire`]) instead of a scheduler thread.
    caller_pumped: bool,
    /// Single-pumper exclusion for [`Shared::pump_wire`]: packets must leave
    /// the heap in (deliver_at, seq) order, so only one caller drains at a
    /// time; others skip (the pumper delivers their packets too).
    pump_lock: Mutex<()>,
    alive: AtomicBool,
}

impl Shared {
    fn is_partitioned(&self, src: NodeId, dst: NodeId) -> bool {
        let p = self.partitions.read();
        p.contains(&(src, dst))
    }

    /// Push a run of datagrams, all bound for `dst`, onto its inbound queue:
    /// one lock, one doorbell ring. Returns `false` if `dst` is not attached,
    /// having counted and traced each datagram of the run as unroutable
    /// (`seq` is the wire sequence, [`NONE_U64`] on the bypass path).
    fn deliver_run(&self, dst: NodeId, run: impl IntoIterator<Item = Datagram>, seq: u64) -> bool {
        let routes = self.routes.read();
        let Some(inbound) = routes.get(&dst) else {
            for datagram in run {
                self.stats.packets_unroutable.inc();
                self.config.obs.tracer.emit(|| {
                    TraceEvent::new(Layer::Fabric, Stage::Drop)
                        .node(dst.0)
                        .peer(datagram.src.0)
                        .seq(seq)
                        .detail("unroutable")
                });
            }
            return false;
        };
        let (mut packets, mut bytes) = (0, 0);
        inbound.push_all(run.into_iter().inspect(|datagram| {
            packets += 1;
            bytes += datagram.payload.len() as u64;
        }));
        self.stats.packets_delivered.add(packets);
        self.stats.bytes_delivered.add(bytes);
        true
    }

    /// Hand a packet the modelled wire carried to the destination NIC's
    /// inbound queue. `seq` is its wire sequence number and `dup` marks
    /// fault-injected copies.
    fn deliver(&self, datagram: Datagram, seq: u64, dup: bool) {
        let (src, dst) = (datagram.src.0, datagram.dst.0);
        let bytes = datagram.payload.len() as u64;
        if self.deliver_run(datagram.dst, Some(datagram), seq) {
            self.config.obs.tracer.emit(|| {
                TraceEvent::new(Layer::Fabric, Stage::WireDeliver)
                    .node(dst)
                    .peer(src)
                    .seq(seq)
                    .bytes(bytes)
                    .detail(if dup { "dup" } else { "" })
            });
        }
    }

    /// Count a datagram onto the wire. `false` if its link is severed: the
    /// datagram is counted lost and traced as a drop.
    fn admit(&self, datagram: &Datagram) -> bool {
        self.stats.packets_sent.inc();
        self.stats.bytes_sent.add(datagram.payload.len() as u64);
        if !self.is_partitioned(datagram.src, datagram.dst) {
            return true;
        }
        self.stats.packets_lost.inc();
        self.config.obs.tracer.emit(|| {
            TraceEvent::new(Layer::Fabric, Stage::Drop)
                .node(datagram.src.0)
                .peer(datagram.dst.0)
                .detail("partitioned")
        });
        false
    }

    /// Entry point used by [`Nic::send_batch`](crate::Link::send_batch). On
    /// the bypass wire each run of consecutive datagrams to one destination
    /// is one push (one lock, one ring); a modelled or faulty wire takes them
    /// one [`Shared::send`] at a time, so its loss, jitter and duplicate
    /// draws are those of the same datagrams sent singly.
    pub(crate) fn send_batch(&self, src: NodeId, batch: Vec<(NodeId, Gather)>) {
        let datagrams = batch
            .into_iter()
            .map(|(dst, payload)| Datagram { src, dst, payload });
        if !self.bypass_wire {
            datagrams.for_each(|datagram| self.send(datagram));
            return;
        }
        let mut run: Vec<Datagram> = Vec::new();
        for datagram in datagrams.filter(|datagram| self.admit(datagram)) {
            if let Some(last) = run.last() {
                if last.dst != datagram.dst {
                    self.deliver_run(last.dst, run.drain(..), NONE_U64);
                }
            }
            run.push(datagram);
        }
        if let Some(first) = run.first() {
            self.deliver_run(first.dst, run, NONE_U64);
        }
    }

    /// Entry point used by [`Nic::send`].
    pub(crate) fn send(&self, datagram: Datagram) {
        if !self.admit(&datagram) {
            return;
        }
        if self.bypass_wire {
            self.deliver_run(datagram.dst, Some(datagram), NONE_U64);
            return;
        }
        let tracer = &self.config.obs.tracer;
        let dst_node = datagram.dst;
        let (src, dst) = (datagram.src.0, datagram.dst.0);
        let bytes = datagram.payload.len() as u64;

        let now = self.clock.now();
        let link = &self.config.link;
        let faults = &self.config.faults;
        let mut wire = self.wire.lock();

        // Fault: loss.
        if faults.loss_probability > 0.0 && wire.rng.gen::<f64>() < faults.loss_probability {
            self.stats.packets_lost.inc();
            tracer.emit(|| {
                TraceEvent::new(Layer::Fabric, Stage::Drop)
                    .node(src)
                    .peer(dst)
                    .bytes(bytes)
                    .detail("wire_loss")
            });
            return;
        }

        // Egress serialization: the packet cannot start until the link is free.
        let busy = wire
            .egress_busy
            .get(&datagram.src)
            .copied()
            .unwrap_or(Duration::ZERO);
        let start = busy.max(now);
        let occupy = link.occupancy(datagram.payload.len());
        wire.egress_busy.insert(datagram.src, start + occupy);
        // Jitter is sampled per wire *copy*, below, from this common base —
        // a fault-injected duplicate takes an independent draw, so a lucky
        // duplicate can arrive before (and reorder ahead of) the original.
        let base_deliver_at = start + occupy + link.latency;
        let jittered = |wire: &mut WireState| {
            if faults.max_jitter > Duration::ZERO {
                let j = wire.rng.gen_range(0.0..faults.max_jitter.as_secs_f64());
                base_deliver_at + Duration::from_secs_f64(j)
            } else {
                base_deliver_at
            }
        };

        let deliver_at = jittered(&mut wire);
        let duplicate = faults.duplicate_probability > 0.0
            && wire.rng.gen::<f64>() < faults.duplicate_probability;

        let seq = wire.next_seq;
        wire.next_seq += 1;
        tracer.emit(|| {
            TraceEvent::new(Layer::Fabric, Stage::Wire)
                .node(src)
                .peer(dst)
                .seq(seq)
                .bytes(bytes)
        });
        wire.heap.push(Reverse(ScheduledPacket {
            deliver_at,
            seq,
            dup: false,
            datagram: datagram.clone(),
        }));
        if duplicate {
            self.stats.packets_duplicated.inc();
            let dup_deliver_at = jittered(&mut wire);
            let seq = wire.next_seq;
            wire.next_seq += 1;
            tracer.emit(|| {
                TraceEvent::new(Layer::Fabric, Stage::Wire)
                    .node(src)
                    .peer(dst)
                    .seq(seq)
                    .bytes(bytes)
                    .detail("dup")
            });
            wire.heap.push(Reverse(ScheduledPacket {
                deliver_at: dup_deliver_at,
                seq,
                dup: true,
                datagram,
            }));
        }
        drop(wire);
        if self.caller_pumped {
            // No scheduler thread to wake. Ring the destination's doorbell
            // (sequence bump only, no bits — nothing is queued yet) so a
            // parked waiter re-derives its park deadline from the new wire
            // schedule and pumps the packet out at its delivery time.
            if let Some(inbound) = self.routes.read().get(&dst_node) {
                inbound.readiness().ring();
            }
        } else {
            self.wire_cond.notify_one();
        }
    }

    /// Deliver every wire packet whose time has come, in (deliver_at, seq)
    /// order, and return the delivery deadline of the next pending packet (if
    /// any). Only meaningful on a caller-pumped wire; a no-op returning `None`
    /// otherwise.
    ///
    /// Any caller-driven progress loop may call this; a non-blocking try-lock
    /// keeps ordering single-threaded (losers return the next deadline
    /// without draining).
    pub(crate) fn pump_wire(&self) -> Option<Instant> {
        if !self.caller_pumped {
            return None;
        }
        let Some(_pumper) = self.pump_lock.try_lock() else {
            return self.next_wire_deadline();
        };
        loop {
            let now = self.clock.now();
            let mut wire = self.wire.lock();
            match wire.heap.peek() {
                Some(Reverse(pkt)) if pkt.deliver_at <= now => {
                    let pkt = wire.heap.pop().expect("peeked").0;
                    // Deliver outside the wire lock (see wire_scheduler).
                    drop(wire);
                    self.deliver(pkt.datagram, pkt.seq, pkt.dup);
                }
                Some(Reverse(pkt)) => return Some(self.clock.instant_at(pkt.deliver_at)),
                None => return None,
            }
        }
    }

    /// Delivery deadline of the earliest scheduled wire packet, if any (and
    /// only if the wire is caller-pumped).
    pub(crate) fn next_wire_deadline(&self) -> Option<Instant> {
        if !self.caller_pumped {
            return None;
        }
        let wire = self.wire.lock();
        wire.heap
            .peek()
            .map(|Reverse(pkt)| self.clock.instant_at(pkt.deliver_at))
    }
}

/// The simulated network fabric.
///
/// Create one with [`Fabric::new`], attach NICs with [`Fabric::attach`], and let
/// it drop when the simulation ends (the wire scheduler thread is joined on
/// drop). `Fabric` is usually wrapped in an [`Arc`] and shared with every
/// simulated node.
pub struct Fabric {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl Fabric {
    /// Build a fabric with the given configuration and start its wire scheduler.
    pub fn new(config: FabricConfig) -> Self {
        let bypass_wire = config.faults.is_fault_free()
            && config.link.latency == Duration::ZERO
            && config.link.per_packet_overhead == Duration::ZERO
            && config.link.bandwidth_bytes_per_sec.is_infinite();
        let caller_pumped = config.caller_driven_wire && !bypass_wire;
        let shared = Arc::new(Shared {
            clock: SimClock::new(),
            stats: FabricStats::new(&config.obs.registry),
            routes: RwLock::new(HashMap::new()),
            registry: Arc::new(DriverRegistry::new()),
            partitions: RwLock::new(HashSet::new()),
            wire: Mutex::new(WireState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                rng: SmallRng::seed_from_u64(config.seed),
                egress_busy: HashMap::new(),
                shutdown: false,
            }),
            wire_cond: Condvar::new(),
            bypass_wire,
            caller_pumped,
            pump_lock: Mutex::new(()),
            alive: AtomicBool::new(true),
            config,
        });

        let scheduler = if bypass_wire || caller_pumped {
            None
        } else {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("portals-net-wire".into())
                    .spawn(move || wire_scheduler(shared))
                    .expect("spawn wire scheduler"),
            )
        };

        Fabric {
            shared,
            scheduler: Mutex::new(scheduler),
        }
    }

    /// An ideal fabric: instantaneous, lossless, in-order.
    pub fn ideal() -> Self {
        Fabric::new(FabricConfig::ideal())
    }

    /// Attach a NIC for node `nid`. Panics if the node is already attached —
    /// attaching twice is a program structure bug, not a runtime condition.
    pub fn attach(&self, nid: NodeId) -> Nic {
        let inbound = Arc::new(DoorbellQueue::new(
            Arc::new(Readiness::new()),
            Readiness::INBOUND,
        ));
        let prev = self.shared.routes.write().insert(nid, Arc::clone(&inbound));
        assert!(prev.is_none(), "node {nid} attached twice");
        Nic::new(nid, Arc::clone(&self.shared), inbound)
    }

    /// The fabric clock (shared by all NICs).
    pub fn clock(&self) -> SimClock {
        self.shared.clock
    }

    /// The live wire-level counters (`fabric.*`); read a value with
    /// `.get()` at the point it is needed.
    pub fn stats(&self) -> &FabricStats {
        &self.shared.stats
    }

    /// Sever the directed link `src → dst`. Packets sent while severed are lost
    /// (and counted as lost). Use [`Fabric::partition`] for both directions.
    pub fn sever(&self, src: NodeId, dst: NodeId) {
        self.shared.partitions.write().insert((src, dst));
    }

    /// Sever both directions between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut p = self.shared.partitions.write();
        p.insert((a, b));
        p.insert((b, a));
    }

    /// Restore both directions between `a` and `b`.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut p = self.shared.partitions.write();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    /// Number of currently attached NICs.
    pub fn attached_count(&self) -> usize {
        self.shared.routes.read().len()
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.shared.alive.store(false, Ordering::SeqCst);
        {
            let mut wire = self.shared.wire.lock();
            wire.shutdown = true;
        }
        self.wire_cond_notify();
        if let Some(handle) = self.scheduler.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Fabric {
    fn wire_cond_notify(&self) {
        self.shared.wire_cond.notify_all();
    }
}

/// The wire scheduler: sleeps until the earliest packet's delivery time, then
/// delivers every due packet in (time, seq) order.
fn wire_scheduler(shared: Arc<Shared>) {
    let mut wire = shared.wire.lock();
    loop {
        if wire.shutdown && wire.heap.is_empty() {
            return;
        }
        let now = shared.clock.now();
        match wire.heap.peek() {
            Some(Reverse(pkt)) if pkt.deliver_at <= now => {
                let pkt = wire.heap.pop().expect("peeked").0;
                // Deliver without holding the wire lock: the push wakes the
                // destination, which may send straight away.
                drop(wire);
                shared.deliver(pkt.datagram, pkt.seq, pkt.dup);
                wire = shared.wire.lock();
            }
            Some(Reverse(pkt)) => {
                let deadline = shared.clock.instant_at(pkt.deliver_at);
                let _timed_out = shared.wire_cond.wait_until(&mut wire, deadline);
            }
            None => {
                if wire.shutdown {
                    return;
                }
                shared.wire_cond.wait(&mut wire);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkModel;
    use crate::fault::FaultPlan;
    use crate::link::Link;
    use bytes::Bytes;
    use portals_obs::Obs;

    fn dgram(src: u32, dst: u32, len: usize) -> Bytes {
        let _ = (src, dst);
        Bytes::from(vec![0u8; len])
    }

    #[test]
    fn ideal_fabric_delivers_in_order() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        for i in 0..100u8 {
            a.send(NodeId(1), Bytes::from(vec![i]));
        }
        for i in 0..100u8 {
            let d = b.recv().unwrap();
            assert_eq!(d.src, NodeId(0));
            assert_eq!(d.payload.to_bytes()[0], i);
        }
    }

    #[test]
    fn timed_fabric_delivers_in_order() {
        let cfg = FabricConfig::default().with_link(LinkModel {
            latency: Duration::from_micros(50),
            bandwidth_bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            per_packet_overhead: Duration::from_micros(1),
        });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        for i in 0..50u8 {
            a.send(NodeId(1), Bytes::from(vec![i; 64]));
        }
        for i in 0..50u8 {
            let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(d.payload.to_bytes()[0], i);
        }
    }

    #[test]
    fn latency_is_observed() {
        let latency = Duration::from_millis(20);
        let cfg = FabricConfig::default().with_link(LinkModel {
            latency,
            bandwidth_bytes_per_sec: f64::INFINITY,
            per_packet_overhead: Duration::ZERO,
        });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        let t0 = std::time::Instant::now();
        a.send(NodeId(1), Bytes::from_static(b"x"));
        let _ = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= latency,
            "delivered after {elapsed:?}, expected >= {latency:?}"
        );
    }

    #[test]
    fn loss_injection_drops_packets() {
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan::lossy(1.0))
            .with_link(LinkModel {
                latency: Duration::from_micros(1),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        for _ in 0..10 {
            a.send(NodeId(1), dgram(0, 1, 8));
        }
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        let stats = fabric.stats();
        assert_eq!(stats.packets_lost.get(), 10);
        assert_eq!(stats.packets_delivered.get(), 0);
    }

    #[test]
    fn duplication_injection_duplicates() {
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan::duplicating(1.0))
            .with_link(LinkModel {
                latency: Duration::from_micros(1),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        a.send(NodeId(1), dgram(0, 1, 8));
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert_eq!(fabric.stats().packets_duplicated.get(), 1);
    }

    #[test]
    fn jittered_duplicate_can_precede_original() {
        // Regression: jitter used to be sampled once, before the duplicate
        // decision, so both wire copies shared one delivery time and the
        // duplicate's larger wire seq always sorted it second — a duplicate
        // could never reorder ahead of its original. Each copy now takes an
        // independent jitter draw, so over enough trials some duplicate must
        // win the race.
        let (obs, ring) = portals_obs::Obs::with_ring(8192);
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan {
                duplicate_probability: 1.0,
                max_jitter: Duration::from_micros(500),
                ..FaultPlan::NONE
            })
            .with_seed(7)
            .with_obs(obs)
            .with_link(LinkModel {
                latency: Duration::from_micros(1),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        const N: usize = 100;
        for i in 0..N {
            a.send(NodeId(1), Bytes::from(vec![i as u8]));
        }
        // Every packet is duplicated, so 2N deliveries.
        for _ in 0..2 * N {
            b.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(fabric.stats().packets_duplicated.get() as usize, N);

        // WireDeliver events are emitted in delivery order. With dup
        // probability 1.0 the original of send k has wire seq 2k and its
        // duplicate has 2k+1; the duplicate reordered ahead iff seq 2k+1 was
        // delivered before seq 2k. The trace write trails the channel send,
        // so give the scheduler thread a moment to finish recording.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let deliveries: Vec<u64> = loop {
            let d: Vec<u64> = ring
                .events()
                .iter()
                .filter(|e| e.stage == portals_obs::Stage::WireDeliver)
                .map(|e| e.seq)
                .collect();
            if d.len() >= 2 * N || std::time::Instant::now() > deadline {
                break d;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(deliveries.len(), 2 * N);
        let mut dup_first = 0;
        for k in 0..N as u64 {
            let orig_pos = deliveries.iter().position(|&s| s == 2 * k).unwrap();
            let dup_pos = deliveries.iter().position(|&s| s == 2 * k + 1).unwrap();
            if dup_pos < orig_pos {
                dup_first += 1;
            }
        }
        assert!(
            dup_first > 0,
            "no duplicate ever arrived before its original across {N} sends"
        );
    }

    #[test]
    fn partition_loses_traffic_and_heal_restores() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        fabric.partition(NodeId(0), NodeId(1));
        a.send(NodeId(1), dgram(0, 1, 4));
        assert!(b.try_recv().is_err());
        fabric.heal(NodeId(0), NodeId(1));
        a.send(NodeId(1), dgram(0, 1, 4));
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn sever_is_directional() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        fabric.sever(NodeId(0), NodeId(1));
        a.send(NodeId(1), dgram(0, 1, 4));
        assert!(b.try_recv().is_err());
        // Reverse direction still works.
        b.send(NodeId(0), dgram(1, 0, 4));
        assert!(a.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        a.send(NodeId(99), dgram(0, 99, 4));
        assert_eq!(fabric.stats().packets_unroutable.get(), 1);
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let fabric = Fabric::ideal();
        let _a = fabric.attach(NodeId(0));
        let _b = fabric.attach(NodeId(0));
    }

    #[test]
    fn bandwidth_serializes_back_to_back_sends() {
        // 1 MB at 10 MB/s = 100 ms per packet; 3 packets ~= 300 ms from one egress.
        let cfg = FabricConfig::default().with_link(LinkModel {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 10.0 * 1024.0 * 1024.0,
            per_packet_overhead: Duration::ZERO,
        });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            a.send(NodeId(1), Bytes::from(vec![0u8; 1024 * 1024]));
        }
        for _ in 0..3 {
            b.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(250),
            "3 MB arrived in {elapsed:?}"
        );
    }

    #[test]
    fn seeded_loss_is_deterministic() {
        let run = |seed: u64| {
            let cfg = FabricConfig::default()
                .with_faults(FaultPlan::lossy(0.5))
                .with_seed(seed)
                .with_link(LinkModel {
                    latency: Duration::from_micros(1),
                    bandwidth_bytes_per_sec: f64::INFINITY,
                    per_packet_overhead: Duration::ZERO,
                });
            let fabric = Fabric::new(cfg);
            let a = fabric.attach(NodeId(0));
            let b = fabric.attach(NodeId(1));
            for i in 0..200u8 {
                a.send(NodeId(1), Bytes::from(vec![i]));
            }
            let mut got = Vec::new();
            while let Ok(d) = b.recv_timeout(Duration::from_millis(100)) {
                got.push(d.payload.to_bytes()[0]);
            }
            got
        };
        let first = run(1234);
        let second = run(1234);
        let different = run(99);
        assert_eq!(first, second, "same seed, same survivors");
        assert!(!first.is_empty() && first.len() < 200, "50% loss plausible");
        assert_ne!(first, different, "different seed, different pattern");
    }

    #[test]
    fn delivery_raises_inbound_readiness() {
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        let r = Arc::clone(b.inbound_receiver().readiness());
        assert_eq!(r.peek() & portals_types::Readiness::INBOUND, 0);
        a.send(NodeId(1), dgram(0, 1, 4));
        assert_ne!(r.peek() & portals_types::Readiness::INBOUND, 0);
        assert_eq!(
            r.take(portals_types::Readiness::INBOUND),
            portals_types::Readiness::INBOUND
        );
        assert!(b.try_recv().is_ok());
    }

    #[test]
    fn bypass_batch_to_one_node_is_one_push_counted_as_its_sends() {
        let batch = || (0..5u8).map(|i| (NodeId(1), Gather::from_vec(vec![i; 10 + i as usize])));
        let fabric = |obs: &Obs| Fabric::new(FabricConfig::ideal().with_obs(obs.clone()));
        let (batched_obs, singles_obs) = (Obs::default(), Obs::default());
        let (batched, singles) = (fabric(&batched_obs), fabric(&singles_obs));
        let (a, b) = (batched.attach(NodeId(0)), batched.attach(NodeId(1)));
        let (a1, _b1) = (singles.attach(NodeId(0)), singles.attach(NodeId(1)));
        let doorbell = Arc::clone(b.inbound_receiver().readiness());
        let before = doorbell.seq();
        a.send_batch(batch().collect());
        assert_eq!(doorbell.seq(), before + 1, "one ring for the run");
        for (i, (_, sent)) in batch().enumerate() {
            assert_eq!(b.try_recv().expect("queued in order").payload, sent, "#{i}");
        }
        for (dst, payload) in batch() {
            a1.send(dst, payload);
        }
        assert_eq!(
            batched_obs.registry.snapshot(),
            singles_obs.registry.snapshot()
        );
        assert_eq!(batched.stats().packets_delivered.get(), 5);
    }

    #[test]
    fn batched_drops_are_counted_and_traced_per_datagram() {
        let (obs, ring) = portals_obs::Obs::with_ring(64);
        let fabric = Fabric::new(FabricConfig::ideal().with_obs(obs));
        let (a, b, c) = (
            fabric.attach(NodeId(0)),
            fabric.attach(NodeId(1)),
            fabric.attach(NodeId(2)),
        );
        fabric.sever(NodeId(0), NodeId(1));
        let to = |n| (NodeId(n), Gather::copy_from_slice(b"x"));
        a.send_batch(vec![to(1), to(2), to(1), to(99), to(99), to(2)]);
        let stats = fabric.stats();
        assert_eq!(stats.packets_sent.get(), 6);
        assert_eq!(stats.packets_lost.get(), 2, "partitioned");
        assert_eq!(stats.packets_unroutable.get(), 2);
        assert_eq!(stats.packets_delivered.get(), 2);
        assert_eq!((b.pending(), c.pending()), (0, 2));
        let drops = |why: &str| {
            ring.events()
                .iter()
                .filter(|e| e.stage == Stage::Drop && e.detail == why)
                .count()
        };
        assert_eq!((drops("partitioned"), drops("unroutable")), (2, 2));
    }

    #[test]
    fn lossy_wire_drops_the_same_set_batched_or_single() {
        const N: u8 = 200;
        let survivors = |batched: bool| {
            let fabric = Fabric::new(
                FabricConfig::default()
                    .with_faults(FaultPlan::lossy(0.5))
                    .with_seed(1234)
                    .with_link(LinkModel {
                        latency: Duration::from_micros(1),
                        bandwidth_bytes_per_sec: f64::INFINITY,
                        per_packet_overhead: Duration::ZERO,
                    }),
            );
            let (a, b) = (fabric.attach(NodeId(0)), fabric.attach(NodeId(1)));
            let stream = (0..N).map(|i| (NodeId(1), Gather::from_vec(vec![i])));
            if batched {
                a.send_batch(stream.collect());
            } else {
                stream.for_each(|(dst, payload)| a.send(dst, payload));
            }
            let lost = fabric.stats().packets_lost.get();
            let got: Vec<u8> = (0..u64::from(N) - lost)
                .map(|_| {
                    b.recv_timeout(Duration::from_secs(5))
                        .expect("survivor")
                        .payload
                        .to_vec()[0]
                })
                .collect();
            (lost, got)
        };
        let (lost, singles) = survivors(false);
        assert!(lost > 0 && lost < u64::from(N), "50% of {N}: {lost}");
        assert_eq!(survivors(true), (lost, singles));
    }

    #[test]
    fn caller_pumped_wire_delivers_only_when_pumped() {
        let latency = Duration::from_millis(5);
        let cfg = FabricConfig::default()
            .with_caller_driven_wire(true)
            .with_link(LinkModel {
                latency,
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        for i in 0..10u8 {
            a.send(NodeId(1), Bytes::from(vec![i]));
        }
        // Nothing moves without a pump (no scheduler thread exists).
        std::thread::sleep(2 * latency);
        assert!(b.try_recv().is_err(), "no delivery before a pump");
        let next = a.pump_wire();
        assert!(next.is_none(), "all packets were due and must be drained");
        for i in 0..10u8 {
            let d = b.try_recv().expect("pumped delivery");
            assert_eq!(d.payload.to_bytes()[0], i, "in (time, seq) order");
        }
    }

    #[test]
    fn caller_pumped_wire_reports_future_deadline() {
        let latency = Duration::from_secs(3600); // far future: never due in-test
        let cfg = FabricConfig::default()
            .with_caller_driven_wire(true)
            .with_link(LinkModel {
                latency,
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let a = fabric.attach(NodeId(0));
        let _b = fabric.attach(NodeId(1));
        assert!(a.pump_wire().is_none(), "empty wire has no deadline");
        a.send(NodeId(1), dgram(0, 1, 4));
        let deadline = a.pump_wire().expect("scheduled packet has a deadline");
        assert!(deadline > std::time::Instant::now());
    }

    #[test]
    fn service_peers_skips_self_and_prunes_dead() {
        use std::sync::atomic::AtomicU64;
        struct CountingDriver {
            serviced: AtomicU64,
        }
        impl NodeDriver for CountingDriver {
            fn service(&self) -> bool {
                self.serviced.fetch_add(1, Ordering::SeqCst);
                true
            }
            fn has_work(&self) -> bool {
                true
            }
        }
        let fabric = Fabric::ideal();
        let a = fabric.attach(NodeId(0));
        let b = fabric.attach(NodeId(1));
        let da = Arc::new(CountingDriver {
            serviced: AtomicU64::new(0),
        });
        let db = Arc::new(CountingDriver {
            serviced: AtomicU64::new(0),
        });
        let hub_a = a.caps().hub;
        let hub_b = b.caps().hub;
        hub_a.register(Arc::downgrade(&da) as std::sync::Weak<dyn NodeDriver>);
        hub_b.register(Arc::downgrade(&db) as std::sync::Weak<dyn NodeDriver>);
        assert!(hub_a.service_peers());
        assert_eq!(da.serviced.load(Ordering::SeqCst), 0, "never services self");
        assert_eq!(db.serviced.load(Ordering::SeqCst), 1);
        // Drop b's driver: the dead weak must be pruned, not serviced.
        drop(db);
        assert!(!hub_a.service_peers());
        assert!(hub_b.service_peers(), "a's driver still registered");
        assert_eq!(da.serviced.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn detached_nic_frees_route() {
        let fabric = Fabric::ideal();
        {
            let _a = fabric.attach(NodeId(0));
            assert_eq!(fabric.attached_count(), 1);
        }
        assert_eq!(fabric.attached_count(), 0);
        // Re-attach after detach is allowed.
        let _a2 = fabric.attach(NodeId(0));
        assert_eq!(fabric.attached_count(), 1);
    }
}
