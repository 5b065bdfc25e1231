//! Loopback integration tests: the UDP link alone, and the full transport
//! stack running over it.

use portals_net::Link;
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::{Endpoint, TransportConfig};
use portals_types::{Gather, NodeId};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

fn link(nid: u32) -> UdpLink {
    UdpLink::bind(UdpLinkConfig {
        nid: NodeId(nid),
        ..Default::default()
    })
    .expect("bind loopback")
}

fn wire(a: &UdpLink, b: &UdpLink) {
    a.set_peer(b.nid(), b.local_addr());
    b.set_peer(a.nid(), a.local_addr());
}

fn recv_one(l: &UdpLink, timeout: Duration) -> Option<portals_net::Datagram> {
    l.inbound_receiver().recv_timeout(timeout).ok()
}

#[test]
fn datagram_roundtrip_over_loopback() {
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    a.send(NodeId(1), Gather::copy_from_slice(b"over the real wire"));
    let d = recv_one(&b, Duration::from_secs(5)).expect("delivered");
    assert_eq!(d.src, NodeId(0));
    assert_eq!(d.dst, NodeId(1));
    assert_eq!(d.payload.to_vec(), b"over the real wire");
    assert_eq!(a.stats().datagrams_sent.get(), 1);
    assert_eq!(b.stats().datagrams_received.get(), 1);
}

/// The `net.udp.*` series the benchmark reads by name: a rename would
/// silently zero its netudp rows.
#[test]
fn bound_link_registers_the_series_the_benchmark_reads() {
    let obs = portals_obs::Obs::default();
    let _link = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(0),
        obs: obs.clone(),
        ..Default::default()
    })
    .expect("bind loopback");
    let registered: Vec<_> = obs.registry.snapshot().iter().map(|s| s.name).collect();
    for name in [
        "net.udp.datagrams_sent",
        "net.udp.datagrams_received",
        "net.udp.bytes_sent",
        "net.udp.frame_bytes_sent",
        "net.udp.batches_sent",
        "net.udp.batches_recv",
        "net.udp.checksum_rejects",
        "net.udp.send_errors",
        "net.udp.wouldblock_retries",
    ] {
        assert!(registered.contains(&name), "{name} not registered");
    }
}

#[test]
fn receiver_learns_sender_address() {
    // b never calls set_peer: the inbound frame teaches it where a lives.
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    a.send(NodeId(1), Gather::copy_from_slice(b"ping"));
    recv_one(&b, Duration::from_secs(5)).expect("ping");
    assert_eq!(b.peer_addr(NodeId(0)), Some(a.local_addr()));
    b.send(NodeId(0), Gather::copy_from_slice(b"pong"));
    let d = recv_one(&a, Duration::from_secs(5)).expect("pong");
    assert_eq!(d.payload.to_vec(), b"pong");
}

#[test]
fn unroutable_destination_is_counted_not_fatal() {
    let a = link(0);
    a.send(NodeId(9), Gather::copy_from_slice(b"nowhere"));
    assert_eq!(a.stats().unroutable.get(), 1);
    assert_eq!(a.stats().datagrams_sent.get(), 0);
}

#[test]
fn loss_shim_drops_sends() {
    let a = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(0),
        loss: 1.0,
        seed: 42,
        ..Default::default()
    })
    .unwrap();
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    for _ in 0..10 {
        a.send(NodeId(1), Gather::copy_from_slice(b"doomed"));
    }
    assert_eq!(a.stats().shim_dropped.get(), 10);
    assert_eq!(a.stats().datagrams_sent.get(), 0);
    assert!(recv_one(&b, Duration::from_millis(100)).is_none());
}

#[test]
fn foreign_and_corrupt_datagrams_are_rejected_and_counted() {
    let b = link(1);
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();

    // Garbage that is not a frame at all.
    raw.send_to(b"GET / HTTP/1.1\r\n", b.local_addr()).unwrap();
    // A valid frame with a flipped header byte (CRC must catch it).
    let a = link(0);
    a.set_peer(NodeId(1), b.local_addr());
    a.send(NodeId(1), Gather::copy_from_slice(b"template"));
    let template = recv_one(&b, Duration::from_secs(5)).expect("template");
    assert_eq!(template.payload.to_vec(), b"template");
    // Rebuild the same frame by hand and corrupt the dst field.
    let mut buf = Vec::new();
    portals_netudp::frame::encode_header(NodeId(0), NodeId(1), 8, &mut buf);
    buf.extend_from_slice(b"template");
    buf[6] ^= 0x01; // dst byte — CRC now mismatches
    raw.send_to(&buf, b.local_addr()).unwrap();
    // A frame addressed to some other node id (valid CRC).
    let mut mis = Vec::new();
    portals_netudp::frame::encode_header(NodeId(0), NodeId(7), 3, &mut mis);
    mis.extend_from_slice(b"mis");
    raw.send_to(&mis, b.local_addr()).unwrap();
    // A frame whose declared length exceeds the datagram.
    let mut short = Vec::new();
    portals_netudp::frame::encode_header(NodeId(0), NodeId(1), 100, &mut short);
    short.extend_from_slice(b"tiny");
    raw.send_to(&short, b.local_addr()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = b.stats();
        if s.bad_magic.get() >= 1
            && s.checksum_rejects.get() >= 1
            && s.misrouted.get() >= 1
            && s.truncated.get() >= 1
        {
            break;
        }
        assert!(Instant::now() < deadline, "rejects never counted: {s:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Nothing rejected was delivered.
    assert_eq!(b.stats().datagrams_received.get(), 1);
}

#[test]
fn transport_over_udp_delivers_large_messages() {
    // The full reliability stack over real sockets: fragmentation sized by
    // the link's datagram bound, body CRCs forced on, reassembly across
    // many datagrams.
    let a_link = link(0);
    let b_link = link(1);
    wire(&a_link, &b_link);
    let a = Endpoint::new(a_link, TransportConfig::default());
    let b = Endpoint::new(b_link, TransportConfig::default());
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 31) as u8).collect();
    a.send(NodeId(1), Gather::from_vec(payload.clone()));
    let m = b.recv_timeout(Duration::from_secs(20)).expect("delivered");
    assert_eq!(m.src, NodeId(0));
    assert_eq!(m.payload.to_vec(), payload);
    // The default 8 KiB transport MTU cannot fit in a 1432-byte datagram:
    // the link's bound must have forced fragmentation.
    assert!(
        a.stats().data_packets_sent.get() >= 70,
        "expected ~72 clamped fragments, got {}",
        a.stats().data_packets_sent.get()
    );
}

#[test]
fn transport_over_lossy_udp_recovers() {
    // Seeded send-side loss on both links: the go-back-N machinery must
    // retransmit over the real wire until everything lands, byte-exact.
    let obs = portals_obs::Obs::default();
    let mk = |nid, seed| {
        UdpLink::bind(UdpLinkConfig {
            nid: NodeId(nid),
            loss: 0.15,
            seed,
            obs: obs.clone(),
            ..Default::default()
        })
        .unwrap()
    };
    let a_link = mk(0, 7);
    let b_link = mk(1, 11);
    wire(&a_link, &b_link);
    let cfg = TransportConfig {
        rto_base: Duration::from_millis(5),
        ..Default::default()
    };
    let a = Endpoint::new(a_link, cfg);
    let b = Endpoint::new(b_link, cfg);
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 7) as u8).collect();
    for _ in 0..5 {
        a.send(NodeId(1), Gather::from_vec(payload.clone()));
    }
    for _ in 0..5 {
        let m = b
            .recv_timeout(Duration::from_secs(30))
            .expect("lossy delivery");
        assert_eq!(m.payload.to_vec(), payload);
    }
    assert!(a.flush(Duration::from_secs(10)), "acks must drain");
    assert!(
        a.stats().retransmissions.get() > 0,
        "15% loss must force retransmissions"
    );
    // Wire reconciliation under loss, DATA and ACKs in both directions: what
    // the shim dropped is on neither side of the identity.
    let sum = |name: &str| obs.registry.sum_counters(name);
    let header = portals_netudp::frame::FRAME_HEADER as u64;
    assert!(sum("net.udp.shim_dropped") > 0);
    assert_eq!(
        sum("net.udp.frame_bytes_sent"),
        sum("net.udp.bytes_sent") + header * sum("net.udp.datagrams_sent")
    );
    assert_eq!(
        sum("net.udp.frame_bytes_received"),
        sum("net.udp.bytes_received") + header * sum("net.udp.datagrams_received")
    );
}

#[test]
fn send_batch_moves_a_vector_per_syscall() {
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    let batch: Vec<_> = (0..20u8)
        .map(|i| (NodeId(1), Gather::from_vec(vec![i; 100 + i as usize])))
        .collect();
    a.send_batch(batch);
    let mut got = Vec::new();
    for _ in 0..20 {
        got.push(recv_one(&b, Duration::from_secs(5)).expect("delivered"));
    }
    // UDP over loopback happens to preserve order, and sendmmsg submits the
    // vector in order — but sort anyway to keep only the contract under test.
    let mut lens: Vec<usize> = got.iter().map(|d| d.payload.len()).collect();
    lens.sort_unstable();
    assert_eq!(lens, (0..20).map(|i| 100 + i).collect::<Vec<_>>());
    let s = a.stats();
    assert_eq!(s.datagrams_sent.get(), 20);
    assert!(
        s.batches_sent.get() < 20,
        "20 datagrams must cross in fewer than 20 syscalls (got {})",
        s.batches_sent.get()
    );
    // The receive side drains multiple frames per recvmmsg wakeup; at
    // minimum it must count its batches.
    let deadline = Instant::now() + Duration::from_secs(5);
    while b.stats().datagrams_received.get() < 20 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(b.stats().batches_received.get() >= 1);
}

/// Longer than the link's `sendmmsg` vector (32): one `send_batch` of this
/// many datagrams is two wire calls.
const LONG_VECTOR: u8 = 40;

fn tagged(range: std::ops::Range<u8>) -> Vec<(NodeId, Gather)> {
    range
        .map(|i| (NodeId(1), Gather::from_vec(vec![i; 10 + i as usize])))
        .collect()
}

#[test]
fn one_tx_path_is_accounted_once() {
    // `send` and `send_batch` are one path: singles interleaved with vectors
    // longer than the constant land in one set of counters, one accounting
    // block per wire call.
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    a.send(NodeId(1), Gather::from_vec(vec![200; 7])); // 1 call
    a.send_batch(tagged(0..LONG_VECTOR)); // 32 + 8: 2 calls
    a.send(NodeId(1), Gather::from_vec(vec![201; 7])); // 1 call
    a.send_batch(tagged(0..LONG_VECTOR)); // 2 calls
    a.send_batch(tagged(0..1)); // a vector of one: 1 call
    let s = a.stats();
    assert_eq!(s.datagrams_sent.get(), 2 * LONG_VECTOR as u64 + 3);
    assert_eq!(s.batches_sent.get(), 7, "one count per wire call");
    assert_eq!(
        s.frame_bytes_sent.get(),
        s.bytes_sent.get() + portals_netudp::frame::FRAME_HEADER as u64 * s.datagrams_sent.get()
    );
    assert_eq!(s.send_errors.get(), 0);
}

#[test]
fn loss_shim_drops_the_same_set_whichever_entry_point_carried_it() {
    // Two links with the same seed send the same 120-datagram stream to one
    // receiver: one as singles, one as a single, a long vector, singles and
    // a vector of the rest. The shim draws per datagram in submission
    // order, so the survivors are the same set.
    let mk = |nid| {
        UdpLink::bind(UdpLinkConfig {
            nid: NodeId(nid),
            loss: 0.3,
            seed: 99,
            ..Default::default()
        })
        .unwrap()
    };
    let (singles, mixed) = (mk(0), mk(2));
    let b = link(1);
    singles.set_peer(NodeId(1), b.local_addr());
    mixed.set_peer(NodeId(1), b.local_addr());
    const N: u8 = 120;
    for (_, g) in tagged(0..N) {
        singles.send(NodeId(1), g);
    }
    let mut stream = tagged(0..N).into_iter();
    let (_, first) = stream.next().unwrap();
    mixed.send(NodeId(1), first);
    mixed.send_batch(stream.by_ref().take(LONG_VECTOR as usize).collect());
    for (_, g) in stream.by_ref().take(5) {
        mixed.send(NodeId(1), g);
    }
    mixed.send_batch(stream.collect());

    let dropped = singles.stats().shim_dropped.get();
    assert!(dropped > 0 && dropped < N as u64, "30% of 120: {dropped}");
    assert_eq!(mixed.stats().shim_dropped.get(), dropped);
    let mut survivors = [Vec::new(), Vec::new()];
    for _ in 0..2 * (N as u64 - dropped) {
        let d = recv_one(&b, Duration::from_secs(5)).expect("survivor delivered");
        survivors[(d.src.0 / 2) as usize].push(d.payload.to_vec()[0]);
    }
    survivors.iter_mut().for_each(|s| s.sort_unstable());
    assert_eq!(survivors[0], survivors[1]);
}

#[test]
fn loss_shim_sits_below_the_batch_boundary() {
    // Per-datagram drop decisions inside the mmsg vector: a full-loss link
    // sends nothing even through send_batch, and the drops are counted
    // individually.
    let a = UdpLink::bind(UdpLinkConfig {
        nid: NodeId(0),
        loss: 1.0,
        seed: 42,
        ..Default::default()
    })
    .unwrap();
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    let batch: Vec<_> = (0..10u8)
        .map(|_| (NodeId(1), Gather::copy_from_slice(b"doomed")))
        .collect();
    a.send_batch(batch);
    assert_eq!(a.stats().shim_dropped.get(), 10);
    assert_eq!(a.stats().datagrams_sent.get(), 0);
    assert_eq!(
        a.stats().batches_sent.get(),
        0,
        "an all-dropped vector never hits the socket"
    );
    assert!(recv_one(&b, Duration::from_millis(100)).is_none());
}

#[test]
fn frame_bytes_count_the_wire_not_just_the_payload() {
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    a.send(NodeId(1), Gather::copy_from_slice(b"0123456789"));
    let batch: Vec<_> = (0..4u8)
        .map(|_| (NodeId(1), Gather::copy_from_slice(b"0123456789")))
        .collect();
    a.send_batch(batch);
    let header = portals_netudp::frame::FRAME_HEADER as u64;
    let s = a.stats();
    assert_eq!(s.datagrams_sent.get(), 5);
    assert_eq!(s.bytes_sent.get(), 50);
    assert_eq!(
        s.frame_bytes_sent.get(),
        s.bytes_sent.get() + header * s.datagrams_sent.get(),
        "wire accounting must include one 18-byte header per datagram"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while b.stats().datagrams_received.get() < 5 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    let r = b.stats();
    assert_eq!(
        r.frame_bytes_received.get(),
        r.bytes_received.get() + header * r.datagrams_received.get()
    );
    assert_eq!(r.frame_bytes_received.get(), s.frame_bytes_sent.get());
}

#[test]
fn routing_follows_a_peer_across_rebinds() {
    // Two-link churn: node 1 goes away and comes back on a fresh port (same
    // node id). Learn-on-rx must re-point node 0's routing at the new
    // address even though the stale entry was "known".
    let a = link(0);
    let b1 = link(1);
    a.set_peer(NodeId(1), b1.local_addr());
    b1.set_peer(NodeId(0), a.local_addr());
    b1.send(NodeId(0), Gather::copy_from_slice(b"from b1"));
    recv_one(&a, Duration::from_secs(5)).expect("b1 heard");
    assert_eq!(a.peer_addr(NodeId(1)), Some(b1.local_addr()));
    let old_addr = b1.local_addr();
    drop(b1);

    let b2 = link(1); // rebinds: same nid, new ephemeral port
    assert_ne!(b2.local_addr(), old_addr, "rebind must land on a new port");
    b2.set_peer(NodeId(0), a.local_addr());
    b2.send(NodeId(0), Gather::copy_from_slice(b"from b2"));
    recv_one(&a, Duration::from_secs(5)).expect("b2 heard");
    assert_eq!(
        a.peer_addr(NodeId(1)),
        Some(b2.local_addr()),
        "learn-on-rx must follow the rebind"
    );
    // And the reply path actually reaches the reborn peer.
    a.send(NodeId(1), Gather::copy_from_slice(b"hello again"));
    let d = recv_one(&b2, Duration::from_secs(5)).expect("reply routed to new addr");
    assert_eq!(d.payload.to_vec(), b"hello again");
}

#[test]
fn negotiated_jumbo_payload_cuts_fragment_count() {
    // set_max_payload (what rendezvous negotiation calls) installed before
    // endpoint construction: a 100 KB message needs ~2 jumbo datagrams
    // instead of ~72 MTU-sized ones.
    let a_link = link(0);
    let b_link = link(1);
    a_link.set_max_payload(portals_netudp::UDP_MAX_DATAGRAM);
    b_link.set_max_payload(portals_netudp::UDP_MAX_DATAGRAM);
    wire(&a_link, &b_link);
    let a = Endpoint::new(a_link, TransportConfig::default());
    let b = Endpoint::new(b_link, TransportConfig::default());
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 13) as u8).collect();
    a.send(NodeId(1), Gather::from_vec(payload.clone()));
    let m = b.recv_timeout(Duration::from_secs(20)).expect("delivered");
    assert_eq!(m.payload.to_vec(), payload);
    assert!(
        a.stats().data_packets_sent.get() <= 16,
        "jumbo datagrams must collapse the fragment count, got {}",
        a.stats().data_packets_sent.get()
    );
}

#[test]
fn transport_over_udp_bidirectional_pingpong() {
    let a_link = link(0);
    let b_link = link(1);
    wire(&a_link, &b_link);
    let a = Endpoint::new(a_link, TransportConfig::default());
    let b = Endpoint::new(b_link, TransportConfig::default());
    for i in 0..100u32 {
        a.send(NodeId(1), Gather::from_vec(i.to_le_bytes().to_vec()));
        let m = b.recv_timeout(Duration::from_secs(5)).expect("ping");
        assert_eq!(
            u32::from_le_bytes(m.payload.to_vec().try_into().unwrap()),
            i
        );
        b.send(
            NodeId(0),
            Gather::from_vec((i + 1000).to_le_bytes().to_vec()),
        );
        let m = a.recv_timeout(Duration::from_secs(5)).expect("pong");
        assert_eq!(
            u32::from_le_bytes(m.payload.to_vec().try_into().unwrap()),
            i + 1000
        );
    }
}
