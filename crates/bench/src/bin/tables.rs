//! Tables 1–4 and Figures 1–4 regeneration as text reports.
//!
//! * Tables 1–4: the exact field inventory of each wire message, with our
//!   encoded sizes — verifying the implementation carries precisely the
//!   paper's information (plus the one documented addition, the ack event
//!   queue handle; see `portals-wire` docs).
//! * Figure 1/2: measured one-way put and round-trip get times across sizes.
//! * Figures 3/4: translation walk cost vs match-list length.
//! * §4.8 appendix: the per-reason message-rejection breakdown from the NI
//!   counters, exercised by a batch of deliberately malformed requests.
//!
//! Run: `cargo run --release -p portals-bench --bin tables`

use bytes::Bytes;
use portals::bench_support::MatchBench;
use portals::{
    AcEntry, AcMatch, AckRequest, EventKind, MdSpec, MePos, NiConfig, Node, NodeConfig,
    PortalMatch, Region,
};
use portals_bench::PutGetRig;
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_obs::Obs;
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId};
use portals_wire::{
    Ack, GetRequest, PortalsMessage, PutRequest, Reply, RequestHeader, ResponseHeader,
    RAW_HANDLE_NONE,
};
use std::time::Instant;

fn main() {
    tables_1_to_4();
    fig1_put_timing();
    fig2_get_timing();
    fig34_translation();
    sec48_drop_reasons();
    drop_attribution();
    net_udp_counters();
    large_message_pipeline();
}

fn tables_1_to_4() {
    println!("== Tables 1-4: information passed on the wire ==\n");
    let fields_t1 = [
        ("operation", "indicates a put request"),
        ("initiator", "local process id"),
        ("target", "target process id"),
        ("portal index", "target Portal table entry"),
        ("cookie", "access control table entry"),
        ("match bits", "matching criteria"),
        ("offset", "offset within the target memory"),
        ("memory desc", "local memory region for an ack"),
        (
            "ack event queue",
            "REPRODUCTION ADDITION: eq handle the ack names (per sec 4.8)",
        ),
        ("length", "length of the data"),
        ("data", "payload"),
    ];
    let put = PutRequest {
        header: RequestHeader {
            initiator: ProcessId::new(0, 1),
            target: ProcessId::new(1, 1),
            portal_index: 4,
            cookie: 0,
            match_bits: MatchBits::new(42),
            offset: 0,
            length: 50 * 1024,
        },
        ack_md: 7,
        ack_eq: 8,
        payload: Bytes::from(vec![0u8; 50 * 1024]).into(),
    };
    println!(
        "Table 1 — put request ({} header bytes + payload):",
        PutRequest::WIRE_HEADER_SIZE
    );
    for (f, d) in fields_t1 {
        println!("  {f:<16} {d}");
    }
    let encoded = PortalsMessage::Put(put).encode();
    println!("  encoded 50 KB put: {} bytes total\n", encoded.len());

    println!("Table 2 — acknowledgment ({} bytes):", Ack::WIRE_SIZE);
    println!("  echoed: initiator/target (swapped), portal index, match bits, offset,");
    println!("          memory desc, event queue, requested length");
    println!("  new:    manipulated length\n");

    println!("Table 3 — get request ({} bytes):", GetRequest::WIRE_SIZE);
    println!("  as Table 1 minus payload and ack handles; memory desc names the");
    println!("  local region for the reply; NO event queue handle (sec 4.7)\n");

    println!(
        "Table 4 — reply ({} header bytes + payload):",
        Reply::WIRE_HEADER_SIZE
    );
    println!("  echoed as Table 2; new: manipulated length and the data\n");

    // Round-trip sanity so the report never lies about the implementation.
    let ack = PortalsMessage::Ack(Ack {
        header: ResponseHeader {
            initiator: ProcessId::new(1, 1),
            target: ProcessId::new(0, 1),
            portal_index: 4,
            match_bits: MatchBits::new(42),
            offset: 0,
            md_handle: 7,
            eq_handle: RAW_HANDLE_NONE,
            requested_length: 10,
            manipulated_length: 10,
        },
    });
    assert_eq!(PortalsMessage::decode(&ack.encode()).unwrap(), ack);
}

fn fig1_put_timing() {
    println!("== Figure 1: put (send) path, one-way time observed at target ==\n");
    println!(
        "{:>10} {:>14} {:>14}",
        "size(B)", "no-ack (us)", "with-ack rtt (us)"
    );
    for size in [0usize, 1024, 50 * 1024, 256 * 1024] {
        let rig = PutGetRig::new(FabricConfig::ideal(), size.max(1));
        let md = rig
            .initiator
            .md_bind(MdSpec::new(Region::from_vec(vec![1u8; size])))
            .unwrap();
        let iters = 300;
        for _ in 0..30 {
            rig.put_once(md, AckRequest::NoAck);
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            rig.put_once(md, AckRequest::NoAck);
        }
        let no_ack = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let ieq = rig.initiator.eq_alloc(1024).unwrap();
        let md2 = rig
            .initiator
            .md_bind(MdSpec::new(Region::from_vec(vec![1u8; size])).with_eq(ieq))
            .unwrap();
        let t0 = Instant::now();
        for _ in 0..iters {
            rig.put_once(md2, AckRequest::Ack);
            loop {
                if rig.initiator.eq_wait(ieq).unwrap().kind == EventKind::Ack {
                    break;
                }
            }
        }
        let with_ack = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        println!("{size:>10} {no_ack:>14.2} {with_ack:>14.2}");
    }
    println!();
}

fn fig2_get_timing() {
    println!("== Figure 2: get path, request + reply round trip ==\n");
    println!("{:>10} {:>14}", "size(B)", "rtt (us)");
    for size in [1usize, 1024, 50 * 1024, 256 * 1024] {
        let fabric = Fabric::new(FabricConfig::ideal());
        let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
        let nb = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
        let initiator = na.create_ni(1, NiConfig::default()).unwrap();
        let target = nb.create_ni(1, NiConfig::default()).unwrap();
        let me = target
            .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
        target
            .md_attach(me, MdSpec::new(Region::from_vec(vec![9u8; size])))
            .unwrap();
        let ieq = initiator.eq_alloc(1024).unwrap();
        let md = initiator
            .md_bind(MdSpec::new(Region::zeroed(size)).with_eq(ieq))
            .unwrap();
        let iters = 300;
        let pull = || {
            initiator
                .get_op(md)
                .target(target.id(), 0)
                .length(size as u64)
                .submit()
                .unwrap();
            loop {
                if initiator.eq_wait(ieq).unwrap().kind == EventKind::Reply {
                    break;
                }
            }
        };
        for _ in 0..30 {
            pull();
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            pull();
        }
        let rtt = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        println!("{size:>10} {rtt:>14.2}");
    }
    println!();
}

fn fig34_translation() {
    println!("== Figures 3-4: address translation walk cost ==\n");
    println!(
        "{:>10} {:>16} {:>16} {:>16} {:>16}",
        "entries", "walk-last (ns)", "indexed (ns)", "walk-miss (ns)", "idx-miss (ns)"
    );
    for len in [1usize, 16, 64, 256, 1024, 4096] {
        let rig = MatchBench::new(len, None);
        let iters = 20_000u64;
        let time = |f: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        };
        let hit = time(&|| rig.translate((len - 1) as u64));
        let hit_idx = time(&|| rig.translate_indexed((len - 1) as u64));
        let miss = time(&|| rig.translate_miss());
        let miss_idx = time(&|| rig.translate_miss_indexed());
        println!("{len:>10} {hit:>16.1} {hit_idx:>16.1} {miss:>16.1} {miss_idx:>16.1}");
    }
    println!("\n(walk grows linearly with search depth; the exact-bits index is flat)");
}

fn sec48_drop_reasons() {
    println!("\n== Sec 4.8: message rejection, per-reason breakdown ==\n");
    let fabric = Fabric::new(FabricConfig::ideal());
    let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let nb = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
    let initiator = na.create_ni(1, NiConfig::default()).unwrap();
    let target = nb.create_ni(1, NiConfig::default()).unwrap();
    let limits = target.limits();

    // Portal 0 accepts only match bits 42; ACL entry 2 opens portal 5 alone.
    let me = target
        .me_attach(
            0,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(42)),
            false,
            MePos::Back,
        )
        .unwrap();
    target
        .md_attach(me, MdSpec::new(Region::zeroed(64)))
        .unwrap();
    target
        .acl_set(
            2,
            AcEntry::Allow {
                id: AcMatch::SameApplication,
                portal: PortalMatch::Index(5),
            },
        )
        .unwrap();

    let md = initiator
        .md_bind(MdSpec::new(Region::from_vec(vec![7u8; 64])))
        .unwrap();
    let bits = MatchBits::new(42);
    let tid = target.id();
    // One doomed request per reason the initiator can provoke from here.
    let bad_portal = limits.max_portal_table_size as u32;
    let bad_cookie = limits.max_access_control_entries as u32;
    initiator
        .put_op(md)
        .target(tid, bad_portal)
        .bits(bits)
        .submit()
        .unwrap();
    initiator
        .put_op(md)
        .target(tid, 0)
        .bits(bits)
        .cookie(bad_cookie)
        .submit()
        .unwrap();
    initiator
        .put_op(md)
        .target(tid, 0)
        .bits(bits)
        .cookie(2)
        .submit() // cookie 2 opens portal 5, not 0
        .unwrap();
    initiator
        .put_op(md)
        .target(tid, 0)
        .bits(MatchBits::new(41))
        .submit()
        .unwrap();

    // Bypass-mode delivery is asynchronous; wait for all four rejections.
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while target.counters().dropped_total() < 4 {
        assert!(Instant::now() < deadline, "drops not observed in time");
        std::thread::yield_now();
    }
    let snapshot = target.counters();
    println!("{:>6} reason", "drops");
    for (reason, count) in snapshot.dropped_by_reason() {
        if count > 0 {
            println!("{count:>6} {reason}");
        }
    }
    println!(
        "{:>6} total (requests accepted: {})",
        snapshot.dropped_total(),
        snapshot.requests_accepted
    );
    println!(
        "copies/message at target: {:.2} ({} copies / {} messages)",
        snapshot.copies_per_message(),
        snapshot.payload_copies,
        snapshot.payload_messages
    );
    let ts = na.transport_stats();
    println!(
        "transport resend_bytes: {} (of {} data packets sent)",
        ts.resend_bytes, ts.data_packets_sent
    );
}

/// The observability layer's payoff view: run a short seeded workload over a
/// faulty wire and attribute every lost or discarded packet to the layer that
/// saw it, read straight out of the shared metrics registry. Every injected
/// fault must be accounted for *below* the Portals layer; the only
/// application-visible drops are the deliberately doomed requests.
fn drop_attribution() {
    println!("\n== Per-layer drop attribution: seeded faulty wire ==\n");
    const PUTS: usize = 60;
    const DOOMED: u64 = 3;

    let obs = Obs::default();
    let fabric = Fabric::new(
        FabricConfig::default()
            .with_link(LinkModel {
                latency: std::time::Duration::from_micros(5),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: std::time::Duration::ZERO,
            })
            .with_faults(FaultPlan {
                loss_probability: 0.10,
                duplicate_probability: 0.10,
                max_jitter: std::time::Duration::from_micros(50),
            })
            .with_seed(4242)
            .with_obs(obs.clone()),
    );
    let na = Node::new(
        fabric.attach(NodeId(0)),
        NodeConfig {
            obs: obs.clone(),
            ..Default::default()
        },
    );
    let nb = Node::new(
        fabric.attach(NodeId(1)),
        NodeConfig {
            obs: obs.clone(),
            ..Default::default()
        },
    );
    let a = na.create_ni(1, NiConfig::default()).unwrap();
    let b = nb.create_ni(1, NiConfig::default()).unwrap();

    let ct = b.ct_alloc().unwrap();
    let me = b
        .me_attach(
            0,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(1)),
            false,
            MePos::Back,
        )
        .unwrap();
    b.md_attach(me, MdSpec::new(Region::zeroed(256)).with_ct(ct))
        .unwrap();

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![3u8; 128])))
        .unwrap();
    for _ in 0..PUTS {
        a.put_op(md)
            .target(ProcessId::new(1, 1), 0)
            .bits(MatchBits::new(1))
            .submit()
            .unwrap();
    }
    // The deliberate §4.8 rejections: wrong match bits.
    for _ in 0..DOOMED {
        a.put_op(md)
            .target(ProcessId::new(1, 1), 0)
            .bits(MatchBits::new(9))
            .submit()
            .unwrap();
    }

    b.ct_wait(ct, PUTS as u64).unwrap();
    assert!(na.flush_transport(std::time::Duration::from_secs(10)));
    assert!(nb.flush_transport(std::time::Duration::from_secs(10)));
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while obs.registry.sum_counters("portals.dropped") < DOOMED {
        assert!(
            Instant::now() < deadline,
            "doomed puts not rejected in time"
        );
        std::thread::yield_now();
    }

    let sum = |name: &str| obs.registry.sum_counters(name);
    let row = |layer: &str, series: &str, count: u64, disposition: &str| {
        println!("{layer:>10} {series:<24} {count:>6}  {disposition}");
    };
    println!(
        "{:>10} {:<24} {:>6}  disposition",
        "layer", "series", "count"
    );
    row(
        "fabric",
        "packets_lost",
        sum("fabric.packets_lost"),
        "injected by the wire; repaired below",
    );
    row(
        "fabric",
        "packets_duplicated",
        sum("fabric.packets_duplicated"),
        "injected by the wire; suppressed below",
    );
    row(
        "transport",
        "retransmissions",
        sum("transport.retransmissions"),
        "go-back-N repair traffic for the losses",
    );
    row(
        "transport",
        "duplicates_dropped",
        sum("transport.duplicates_dropped"),
        "wire dups + stale retransmits, absorbed",
    );
    row(
        "transport",
        "out_of_order_dropped",
        sum("transport.out_of_order_dropped"),
        "out-of-window arrivals, resent in order",
    );
    row(
        "transport",
        "garbage_dropped",
        sum("transport.garbage_dropped"),
        "undecodable datagrams",
    );
    // `portals.dropped` is labelled per {node, reason}; fold the node axis
    // away and show only the reasons that actually fired.
    let mut by_reason: Vec<(String, u64)> = Vec::new();
    for s in obs.registry.snapshot() {
        if s.name != "portals.dropped" {
            continue;
        }
        let (reason, count) = (
            s.label("reason").unwrap_or("?").to_string(),
            s.as_counter().unwrap_or(0),
        );
        match by_reason.iter_mut().find(|(r, _)| *r == reason) {
            Some(slot) => slot.1 += count,
            None => by_reason.push((reason, count)),
        }
    }
    for (reason, count) in by_reason.iter().filter(|(_, c)| *c > 0) {
        println!(
            "{:>10} {:<24} {count:>6}  §4.8 rejection, surfaced to the app",
            "portals",
            format!("dropped{{{reason}}}"),
        );
    }
    row(
        "portals",
        "node_dropped_no_process",
        sum("portals.node_dropped_no_process"),
        "misrouted destination pid",
    );
    row(
        "portals",
        "node_dropped_garbage",
        sum("portals.node_dropped_garbage"),
        "undecodable portals message",
    );
    println!(
        "\nexactly-once check: transport delivered {}/{} submitted messages; \
         target completed {} puts",
        sum("transport.messages_delivered"),
        sum("transport.messages_sent"),
        b.ct_get(ct).unwrap().success,
    );
}

/// The real-network backend's counter inventory: drive the transport over
/// two loopback UDP links — one with a seeded 5% send-side loss shim — plus
/// a handful of hand-corrupted datagrams, then dump every `net.udp.*`
/// series from the shared registry alongside the transport-layer repair
/// counters they feed.
fn net_udp_counters() {
    use portals_netudp::{frame, UdpLink, UdpLinkConfig};
    use portals_transport::{Endpoint, TransportConfig};
    use portals_types::Gather;

    println!("\n== net.udp.*: loopback UDP backend counters ==\n");
    let obs = Obs::default();
    let mk = |nid: u32, loss: f64| {
        UdpLink::bind(UdpLinkConfig {
            nid: NodeId(nid),
            loss,
            seed: 7,
            obs: obs.clone(),
            ..Default::default()
        })
        .unwrap()
    };
    let a_link = mk(0, 0.05);
    let b_link = mk(1, 0.0);
    a_link.set_peer(NodeId(1), b_link.local_addr());
    b_link.set_peer(NodeId(0), a_link.local_addr());
    let b_addr = b_link.local_addr();

    let cfg = TransportConfig {
        rto_base: std::time::Duration::from_millis(5),
        ..Default::default()
    };
    let a = Endpoint::with_obs(a_link, cfg, obs.clone());
    let b = Endpoint::with_obs(b_link, cfg, obs.clone());
    let payload: Vec<u8> = (0..4096u32).map(|i| (i * 13) as u8).collect();
    for _ in 0..50 {
        a.send(NodeId(1), Gather::from_vec(payload.clone()));
    }
    for _ in 0..50 {
        let m = b
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("udp delivery");
        assert_eq!(m.payload.len(), payload.len());
    }
    assert!(a.flush(std::time::Duration::from_secs(10)));

    // Hostile input: raw garbage and a CRC-corrupted frame at b's port.
    let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    raw.send_to(b"not a frame at all", b_addr).unwrap();
    let mut forged = Vec::new();
    frame::encode_header(NodeId(0), NodeId(1), 4, &mut forged);
    forged.extend_from_slice(b"evil");
    forged[6] ^= 0x01;
    raw.send_to(&forged, b_addr).unwrap();
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let n = obs.registry.sum_counters("net.udp.bad_magic")
            + obs.registry.sum_counters("net.udp.checksum_rejects");
        if n >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "hostile datagrams not counted");
        std::thread::yield_now();
    }

    println!("{:>6} {:<28} {:>10}", "node", "series", "count");
    let mut rows: Vec<(String, String, u64)> = obs
        .registry
        .snapshot()
        .into_iter()
        .filter(|s| s.name.starts_with("net.udp."))
        .map(|s| {
            (
                s.label("node").unwrap_or("?").to_string(),
                s.name.to_string(),
                s.as_counter().unwrap_or(0),
            )
        })
        .collect();
    rows.sort();
    for (node, series, count) in rows {
        println!("{node:>6} {series:<28} {count:>10}");
    }

    // Wire reconciliation: every datagram the sockets accepted carries the
    // 18-byte frame header, so framed-byte accounting must equal payload
    // bytes plus one header per datagram, on both sides. (bytes_sent alone
    // under-reports what crossed the OS boundary by exactly that margin —
    // the bug this series exists to fix.)
    let sum = |name: &str| obs.registry.sum_counters(name);
    let header = frame::FRAME_HEADER as u64;
    assert_eq!(
        sum("net.udp.frame_bytes_sent"),
        sum("net.udp.bytes_sent") + header * sum("net.udp.datagrams_sent"),
        "send-side wire bytes must be payload + one frame header per datagram"
    );
    assert_eq!(
        sum("net.udp.frame_bytes_received"),
        sum("net.udp.bytes_received") + header * sum("net.udp.datagrams_received"),
        "receive-side wire bytes must be payload + one frame header per datagram"
    );
    println!(
        "\nwire reconciliation: frame_bytes_sent {} = bytes_sent {} + {header} B \
         header x {} datagrams (both directions verified)",
        sum("net.udp.frame_bytes_sent"),
        sum("net.udp.bytes_sent"),
        sum("net.udp.datagrams_sent"),
    );
    println!(
        "batched wire: {} datagrams sent in {} syscalls ({:.2} per call), \
         {} received in {} syscalls ({:.2} per call)",
        sum("net.udp.datagrams_sent"),
        sum("net.udp.batches_sent"),
        sum("net.udp.datagrams_sent") as f64 / sum("net.udp.batches_sent").max(1) as f64,
        sum("net.udp.datagrams_received"),
        sum("net.udp.batches_recv"),
        sum("net.udp.datagrams_received") as f64 / sum("net.udp.batches_recv").max(1) as f64,
    );
    println!(
        "repair feedback: transport.retransmissions {} (covering the shim's \
         {} dropped datagrams), transport.checksum_rejects {}",
        sum("transport.retransmissions"),
        sum("net.udp.shim_dropped"),
        sum("transport.checksum_rejects"),
    );
}

/// The streaming large-message data path, end to end: a two-rank MPI world
/// under the adaptive protocol sweeps message sizes across the
/// eager/rendezvous crossover, then sends a run of pure rendezvous messages,
/// and reports what the path exposes — streamed fragments and out-of-order
/// buffering at the transport, the adaptive crossover decisions, the Portals
/// operations one rendezvous message costs, and the slab pool's hit rate.
fn large_message_pipeline() {
    use portals_mpi::{Mpi, MpiConfig};
    use portals_types::Rank;

    println!("\n== Large-message pipeline: streaming delivery + one-get rendezvous ==\n");

    // Sizes straddling the adaptive crossover: small ones favour eager,
    // multi-MiB ones always take the rendezvous pull. Several rounds so the
    // EWMA selector has real samples on both arms (plus explorations).
    const SIZES: [usize; 5] = [
        2 * 1024,
        16 * 1024,
        128 * 1024,
        1024 * 1024,
        4 * 1024 * 1024,
    ];
    const ROUNDS: usize = 6;
    /// Back-to-back 4 MiB messages (above the band: always rendezvous) whose
    /// Portals operations are counted per message.
    const RDVZ_MSGS: u64 = 8;
    const RDVZ_LEN: usize = 4 * 1024 * 1024;

    let fabric = Fabric::new(FabricConfig::ideal());
    let ranks: Vec<ProcessId> = (0..2).map(|i| ProcessId::new(i, 1)).collect();
    let nodes: Vec<Node> = (0..2u32)
        .map(|i| Node::new(fabric.attach(NodeId(i)), NodeConfig::default()))
        .collect();
    let mpis: Vec<Mpi> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let ni = node.create_ni(1, NiConfig::default()).unwrap();
            Mpi::init(ni, ranks.clone(), Rank(i as u32), MpiConfig::adaptive()).unwrap()
        })
        .collect();
    let mut it = mpis.into_iter();
    let (m0, m1) = (it.next().unwrap(), it.next().unwrap());

    let receiver = std::thread::spawn(move || {
        let comm = m1.world();
        for _ in 0..ROUNDS {
            for size in SIZES {
                let buf = Region::zeroed(size);
                let req = comm.irecv(Some(Rank(0)), Some(1), buf);
                comm.wait(req);
                comm.send(Rank(0), 2, b"k");
            }
        }
        // A reply can only follow a receive posted below, so this snapshot
        // cannot race the sender's head start.
        let before = comm.engine().ni().counters();
        for _ in 0..RDVZ_MSGS {
            let req = comm.irecv(Some(Rank(0)), Some(3), Region::zeroed(RDVZ_LEN));
            comm.wait(req);
        }
        let replies = comm.engine().ni().counters().replies_accepted - before.replies_accepted;
        let pool = (
            comm.engine().regions_pooled(),
            comm.engine().regions_allocated(),
        );
        (replies, pool)
    });

    let comm = m0.world();
    for _ in 0..ROUNDS {
        for size in SIZES {
            let req = comm.isend_region(Rank(1), 1, Region::zeroed(size));
            comm.wait(req);
            comm.recv(Some(Rank(1)), Some(2), 1);
        }
    }
    let adaptive = comm.engine().adaptive_report();
    // From here on the only requests this rank serves are the receiver's
    // gets (no payload lands here) and its zero-length FIN puts (counted as
    // payload messages), so the two separate.
    let before = comm.engine().ni().counters();
    for _ in 0..RDVZ_MSGS {
        let req = comm.isend_region(Rank(1), 3, Region::zeroed(RDVZ_LEN));
        comm.wait(req);
    }
    let after = comm.engine().ni().counters();
    let fins = after.payload_messages - before.payload_messages;
    let gets = after.requests_accepted - before.requests_accepted - fins;
    let sender_pool = (
        comm.engine().regions_pooled(),
        comm.engine().regions_allocated(),
    );
    let (replies, recv_pool) = receiver.join().unwrap();
    let ts = nodes[1].transport_stats();

    println!("transport (receiver, streaming delivery):");
    println!("  frags_streamed      {:>10}", ts.frags_streamed);
    println!("  ooo_buffered        {:>10}", ts.ooo_buffered);
    println!("  bytes_buffered_hwm  {:>10}", ts.bytes_buffered_hwm);

    println!(
        "\nrendezvous, per message ({RDVZ_MSGS} x {} MiB):",
        RDVZ_LEN >> 20
    );
    for (what, n) in [("gets", gets), ("replies", replies), ("FINs", fins)] {
        println!("  {what:<19} {:>10.2}", n as f64 / RDVZ_MSGS as f64);
    }

    println!("\nadaptive crossover (sender decisions):");
    println!("  eager decisions     {:>10}", adaptive.eager_decisions);
    println!("  rdvz decisions      {:>10}", adaptive.rdvz_decisions);
    println!("  explorations        {:>10}", adaptive.explorations);
    println!(
        "  eager cost          {:>10.3} ns/B (EWMA)",
        adaptive.eager_ns_per_byte
    );
    println!(
        "  rdvz cost           {:>10.3} ns/B (EWMA)",
        adaptive.rdvz_ns_per_byte
    );

    println!("\nslab pool (eager snapshots + RTS records):");
    for (who, (pooled, allocated)) in [("sender", sender_pool), ("receiver", recv_pool)] {
        let hit = pooled as f64 / (pooled + allocated).max(1) as f64 * 100.0;
        println!("  {who:<9} pooled {pooled:>6}  alloc'd {allocated:>6}  hit {hit:>5.1}%");
    }
    drop(comm);
    drop(nodes);
}
