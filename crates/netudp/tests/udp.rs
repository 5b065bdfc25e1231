//! Loopback integration tests: the UDP link alone, and the full transport
//! stack running over it.

use portals_net::{Link, LinkCaps};
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::{Endpoint, TransportConfig};
use portals_types::{DoorbellQueue, Gather, NodeId, ProgressMode};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Every test takes a turn: shared, except the census, which counts this
/// process's threads and so runs alone.
static TURNS: RwLock<()> = RwLock::new(());

fn turn() -> RwLockReadGuard<'static, ()> {
    TURNS.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    TURNS.write().unwrap_or_else(PoisonError::into_inner)
}

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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
    let a = link(0);
    a.send(NodeId(9), Gather::copy_from_slice(b"nowhere"));
    assert_eq!(a.stats().unroutable.get(), 1);
    assert_eq!(a.stats().datagrams_sent.get(), 0);
}

#[test]
fn loss_shim_drops_sends() {
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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

/// Two links with the same seed send the same 120-datagram `stream` to one
/// receiver: one as singles, one as a single, a long vector, singles and a
/// vector of the rest. The shim draws per datagram in submission order, so
/// the survivors are the same set. Returns the two senders.
fn send_the_stream_twice(stream: fn(std::ops::Range<u8>) -> Vec<(NodeId, Gather)>) -> [UdpLink; 2] {
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
    for (_, g) in stream(0..N) {
        singles.send(NodeId(1), g);
    }
    let mut stream = stream(0..N).into_iter();
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
    [singles, mixed]
}

#[test]
fn loss_shim_drops_the_same_set_whichever_entry_point_carried_it() {
    let _turn = turn();
    send_the_stream_twice(tagged);
}

/// The same stream with every frame one size: the mixed sender's vectors
/// now form runs, its singles cannot, and the shim still draws per datagram
/// before either.
#[test]
fn loss_shim_drops_the_same_set_when_frames_form_runs() {
    let _turn = turn();
    let [singles, mixed] = send_the_stream_twice(|range| {
        range
            .map(|i| (NodeId(1), Gather::from_vec(vec![i; 64])))
            .collect()
    });
    let sent = singles.stats().datagrams_sent.get();
    assert_eq!(mixed.stats().datagrams_sent.get(), sent);
    assert_eq!(singles.stats().batches_sent.get(), sent, "one call each");
    if cfg!(target_os = "linux") {
        assert!(
            mixed.stats().batches_sent.get() < 10,
            "the mixed sender's survivors form runs: {} calls",
            mixed.stats().batches_sent.get()
        );
    }
}

/// `n` frames to node 1 of `len` payload bytes each, frame `i` filled with
/// `i`: all one size, so consecutive ones form runs.
fn equal(n: u8, len: usize) -> Vec<(NodeId, Gather)> {
    (0..n)
        .map(|i| (NodeId(1), Gather::from_vec(vec![i; len])))
        .collect()
}

/// Take `n` datagrams off `l`'s inbound queue, in arrival order.
fn recv_n(l: &UdpLink, n: usize) -> Vec<portals_net::Datagram> {
    (0..n)
        .map(|k| recv_one(l, Duration::from_secs(5)).unwrap_or_else(|| panic!("datagram {k}")))
        .collect()
}

/// A received payload is a view into the receive buffer it arrived in, so
/// the receive thread must never write into a buffer while a view of it is
/// alive. Hold every payload of a first burst, sent frame by frame and as
/// one run, while later bursts of other bytes arrive through the same
/// receive slots: the held bytes must not change.
#[test]
fn held_payloads_survive_later_arrivals() {
    let _turn = turn();
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    let burst = |fill: u8| -> Vec<(NodeId, Gather)> {
        (0..40u8)
            .map(|i| (NodeId(1), Gather::from_vec(vec![fill ^ i; 1000])))
            .collect()
    };
    for (dst, payload) in burst(0) {
        a.send(dst, payload);
    }
    a.send_batch(burst(0x80));
    let held = recv_n(&b, 80);
    for round in 1..=8u8 {
        let fill = round.wrapping_mul(0x11);
        a.send_batch(burst(fill));
        for (i, d) in recv_n(&b, 40).iter().enumerate() {
            assert_eq!(
                d.payload.to_vec(),
                vec![fill ^ i as u8; 1000],
                "round {round}"
            );
        }
    }
    for (i, d) in held.iter().enumerate() {
        let want = ((i / 40) as u8 * 0x80) ^ (i % 40) as u8;
        assert_eq!(d.payload.to_vec(), vec![want; 1000], "held datagram {i}");
    }
}

/// Longer than one `sendmmsg` vector, short enough for one GSO run: a
/// `send_batch` of equal frames to one peer is one wire call, and the
/// receiver cuts it back into every datagram, byte-exact and in order.
#[cfg(target_os = "linux")]
#[test]
fn equal_frames_to_one_peer_cross_in_one_wire_call() {
    let _turn = turn();
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    a.send_batch(equal(LONG_VECTOR, 100));
    let s = a.stats();
    assert_eq!(s.batches_sent.get(), 1, "one run, one wire call");
    assert_eq!(s.datagrams_sent.get(), LONG_VECTOR as u64);
    assert_eq!(s.bytes_sent.get(), 100 * LONG_VECTOR as u64);
    for (i, d) in recv_n(&b, LONG_VECTOR as usize).iter().enumerate() {
        assert_eq!(d.src, NodeId(0));
        assert_eq!(d.payload.to_vec(), vec![i as u8; 100], "datagram {i}");
    }
    let r = b.stats();
    assert_eq!(r.datagrams_received.get(), LONG_VECTOR as u64);
    assert_eq!(r.bytes_received.get(), s.bytes_sent.get());
    assert_eq!(
        r.frame_bytes_received.get(),
        s.frame_bytes_sent.get(),
        "every wire byte counted once on each side"
    );
}

/// A run is one size except its last frame, which may be shorter: ten
/// 100-byte frames and a 50-byte one are still one run.
#[cfg(target_os = "linux")]
#[test]
fn a_shorter_last_frame_stays_in_the_run() {
    let _turn = turn();
    let a = link(0);
    let b = link(1);
    a.set_peer(NodeId(1), b.local_addr());
    let mut batch = equal(10, 100);
    batch.push((NodeId(1), Gather::from_vec(vec![10; 50])));
    a.send_batch(batch);
    assert_eq!(a.stats().batches_sent.get(), 1);
    assert_eq!(a.stats().datagrams_sent.get(), 11);
    let got = recv_n(&b, 11);
    for (i, d) in got.iter().enumerate() {
        let len = if i == 10 { 50 } else { 100 };
        assert_eq!(d.payload.to_vec(), vec![i as u8; len], "datagram {i}");
    }
}

/// Frames to two peers, interleaved in fours: each four is a run of its
/// own, so the vector of ten runs is one wire call, and each peer takes
/// exactly its own frames, in order.
#[cfg(target_os = "linux")]
#[test]
fn frames_to_two_peers_never_share_a_run() {
    let _turn = turn();
    let a = link(0);
    let (b, c) = (link(1), link(2));
    a.set_peer(NodeId(1), b.local_addr());
    a.set_peer(NodeId(2), c.local_addr());
    let batch: Vec<(NodeId, Gather)> = (0..LONG_VECTOR)
        .map(|i| {
            let dst = NodeId(1 + u32::from(i / 4 % 2));
            (dst, Gather::from_vec(vec![i; 64]))
        })
        .collect();
    a.send_batch(batch);
    assert_eq!(a.stats().batches_sent.get(), 1);
    assert_eq!(a.stats().datagrams_sent.get(), LONG_VECTOR as u64);
    for (peer, nid) in [(&b, 1u8), (&c, 2)] {
        let tags: Vec<u8> = recv_n(peer, LONG_VECTOR as usize / 2)
            .iter()
            .map(|d| d.payload.to_vec()[0])
            .collect();
        let own: Vec<u8> = (0..LONG_VECTOR).filter(|i| 1 + i / 4 % 2 == nid).collect();
        assert_eq!(tags, own, "node {nid}");
        assert_eq!(peer.stats().misrouted.get(), 0);
    }
}

/// Make every send on `socket` a GSO send cut at `segment` bytes.
#[cfg(target_os = "linux")]
fn segment_sends(socket: &UdpSocket, segment: u16) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    let value = i32::from(segment);
    // SAFETY: `value` is a valid `int` for the length passed.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_UDP,
            UDP_SEGMENT,
            (&value as *const i32).cast(),
            4,
        )
    };
    assert_eq!(rc, 0, "UDP_SEGMENT: {}", std::io::Error::last_os_error());
}

/// A foreign sender's GSO buffer of ten frames, one with a corrupted
/// header: the receiver validates each frame on its own, so that frame
/// alone is dropped and counted, and the other nine arrive in order.
#[cfg(target_os = "linux")]
#[test]
fn a_corrupt_frame_in_a_run_drops_only_itself() {
    let _turn = turn();
    let b = link(1);
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let header = portals_netudp::frame::FRAME_HEADER;
    let mut buffer = Vec::new();
    for i in 0..10u8 {
        let at = buffer.len();
        portals_netudp::frame::encode_header(NodeId(0), NodeId(1), 100, &mut buffer);
        buffer.extend_from_slice(&[i; 100]);
        if i == 4 {
            buffer[at + 6] ^= 0x01; // dst byte: the header CRC now fails
        }
    }
    segment_sends(&raw, (header + 100) as u16);
    raw.send_to(&buffer, b.local_addr()).unwrap();
    let tags: Vec<u8> = recv_n(&b, 9)
        .iter()
        .map(|d| {
            assert_eq!(d.payload.len(), 100);
            d.payload.to_vec()[0]
        })
        .collect();
    assert_eq!(tags, [0, 1, 2, 3, 5, 6, 7, 8, 9]);
    let r = b.stats();
    assert_eq!(r.checksum_rejects.get(), 1);
    assert_eq!(r.datagrams_received.get(), 9);
    assert_eq!(r.truncated.get() + r.bad_magic.get() + r.misrouted.get(), 0);
    assert_eq!(b.peer_addr(NodeId(0)), Some(raw.local_addr().unwrap()));
}

#[test]
fn loss_shim_sits_below_the_batch_boundary() {
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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

/// The stack's threads in this process, sorted. The kernel keeps 15 bytes of
/// a thread's name, so `portals-udp-rx-<nid>` reads back as
/// `portals-udp-rx-`.
#[cfg(target_os = "linux")]
fn stack_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("portals-"))
        .collect();
    names.sort();
    names
}

/// Poll for up to `within` until the stack's threads are `expected` (a
/// thread names itself as it starts, and one handed its own teardown leaves
/// a moment after the call that started it).
#[cfg(target_os = "linux")]
fn await_threads(expected: &[&str], within: Duration) -> Vec<String> {
    let deadline = Instant::now() + within;
    loop {
        let threads = stack_threads();
        if threads == expected || Instant::now() >= deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Panics on the stack's own threads, counted: a panic on a receive thread
/// ends that thread, not the test that caused it.
fn stack_panics() -> usize {
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().map(str::to_owned);
            if name.is_some_and(|name| name.starts_with("portals-")) {
                PANICS.fetch_add(1, Ordering::SeqCst);
            }
            previous(info);
        }));
    });
    PANICS.load(Ordering::SeqCst)
}

const MODES: [ProgressMode; 3] = [
    ProgressMode::NicThread,
    ProgressMode::HostDriven,
    ProgressMode::CallerDriven,
];

fn mode(progress_mode: ProgressMode) -> TransportConfig {
    TransportConfig {
        progress_mode,
        ..Default::default()
    }
}

/// A bare endpoint on UDP owns no thread of its own in any mode: the
/// socket's receive thread steps it (NIC-thread, host-driven) or only feeds
/// the caller that does (caller-driven), and it goes with the link.
#[cfg(target_os = "linux")]
#[test]
fn a_udp_endpoint_owns_only_its_receive_thread() {
    let _alone = alone();
    assert_eq!(stack_threads(), Vec::<String>::new(), "before any link");
    for progress_mode in MODES {
        {
            let (a_link, b_link) = (link(0), link(1));
            wire(&a_link, &b_link);
            let a = Endpoint::new(a_link, mode(progress_mode));
            let b = Endpoint::new(b_link, mode(progress_mode));
            a.send(NodeId(1), Gather::copy_from_slice(b"census"));
            let m = b.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert_eq!(m.payload.to_vec(), b"census");
            let rx = ["portals-udp-rx-", "portals-udp-rx-"];
            assert_eq!(
                await_threads(&rx, Duration::from_secs(5)),
                rx,
                "{progress_mode:?}: one receive thread per endpoint, no portals-node-*"
            );
        }
        assert_eq!(
            stack_threads(),
            Vec::<String>::new(),
            "{progress_mode:?}: dropped"
        );
    }
}

/// A [`UdpLink`] an endpoint owns while the test keeps a handle on it.
struct Held(Arc<UdpLink>);

impl Link for Held {
    fn nid(&self) -> NodeId {
        Link::nid(&*self.0)
    }
    fn send(&self, dst: NodeId, payload: Gather) {
        self.0.send(dst, payload)
    }
    fn send_batch(&self, batch: Vec<(NodeId, Gather)>) {
        self.0.send_batch(batch)
    }
    fn inbound_receiver(&self) -> Arc<DoorbellQueue<portals_net::Datagram>> {
        self.0.inbound_receiver()
    }
    fn caps(&self) -> LinkCaps {
        self.0.caps()
    }
}

/// The receive thread that steps an endpoint also keeps its timers: a
/// message sent while its destination is unroutable goes out on its first
/// retransmission, `rto_base` after the send, with nothing arriving at the
/// sender's socket to wake that thread. `rto_base` is below the thread's
/// idle poll, and the thread has just begun an idle wait when the message
/// is sent (a stray datagram poked it): a retransmission that waited for the
/// poll would come late.
///
/// The best of three trials must arrive within 2 × `rto_base`: a thread
/// descheduled on a loaded box can make any one trial late, but a timer
/// that waits for the poll is late in every one.
#[test]
fn a_timer_fires_on_time_on_a_silent_socket() {
    let _alone = alone();
    let rto = Duration::from_millis(2);
    let trial = || {
        let sender = Arc::new(link(0));
        // A bare link: it takes the message and never answers.
        let receiver = link(1);
        let endpoint = Endpoint::new(
            Held(Arc::clone(&sender)),
            TransportConfig {
                rto_base: rto,
                ..Default::default()
            },
        );
        let poke = UdpSocket::bind("127.0.0.1:0").unwrap();
        poke.send_to(b"not a frame", sender.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while sender.stats().bad_magic.get() == 0 {
            assert!(Instant::now() < deadline, "the poke never arrived");
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        endpoint.send(NodeId(1), Gather::copy_from_slice(b"unroutable at first"));
        sender.set_peer(NodeId(1), receiver.local_addr());
        let d = receiver
            .inbound_receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("retransmitted");
        let took = t0.elapsed();
        assert_eq!(
            sender.stats().unroutable.get(),
            1,
            "the first send had no route"
        );
        assert_eq!(d.src, NodeId(0));
        assert_eq!(sender.stats().datagrams_received.get(), 0);
        assert_eq!(
            sender.stats().bad_magic.get(),
            1,
            "nothing else reached the sender"
        );
        took
    };
    let trials: Vec<Duration> = (0..3).map(|_| trial()).collect();
    let best = trials.iter().min().unwrap();
    assert!(
        *best < 2 * rto,
        "retransmitted {trials:?} after the send, never within {:?}",
        2 * rto
    );
}

/// Tearing an endpoint down mid-stream: 4 MiB in flight, the receiving
/// endpoint dropped at a different point of it 50 times, the sending one 50
/// times. Each drop waits out the receive thread's step and joins it, within
/// a second, and no thread of the stack panics.
#[test]
fn an_endpoint_dropped_mid_stream_stops_promptly() {
    let _turn = turn();
    let panics = stack_panics();
    let body = Gather::from_vec(vec![0x5a; 4 << 20]);
    for run in 0..100u64 {
        let (a_link, b_link) = (link(0), link(1));
        wire(&a_link, &b_link);
        let a = Endpoint::new(a_link, TransportConfig::default());
        let b = Endpoint::new(b_link, TransportConfig::default());
        a.send(NodeId(1), body.clone());
        // Somewhere in the first three quarters of the ~2 950 fragments.
        let mid = 1 + (run % 10) * 220;
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.stats().data_packets_accepted.get() < mid {
            assert!(Instant::now() < deadline, "run {run}: the stream stalled");
            std::thread::sleep(Duration::from_micros(100));
        }
        let (first, second) = if run < 50 { (b, a) } else { (a, b) };
        for (which, endpoint) in [("first", first), ("second", second)] {
            let t = Instant::now();
            drop(endpoint);
            let took = t.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "run {run}: {which} drop took {took:?}"
            );
        }
    }
    assert_eq!(stack_panics(), panics, "a thread of the stack panicked");
}

/// A node above an endpoint, reduced to what its teardown needs: the last
/// reference to it, which its first dispatch lets go of.
struct SelfOwned {
    endpoint: Endpoint,
    last: Mutex<Option<Arc<SelfOwned>>>,
}

impl AsRef<Endpoint> for SelfOwned {
    fn as_ref(&self) -> &Endpoint {
        &self.endpoint
    }
}

fn let_go(owner: &SelfOwned) -> bool {
    while owner.endpoint.pop_delivery().is_some() {}
    owner.last.lock().unwrap().take();
    true
}

/// The endpoint dropped from inside its own step: a node whose last
/// reference goes in a dispatch running on the receive thread. Stopping
/// there must not wait for the step it is in, and the stepper it leaves
/// behind must not be dropped on that thread, whose link joins it. The
/// endpoint goes, and so does its receive thread. Only a NIC-thread
/// endpoint dispatches there: a host-driven one's dispatcher runs inside
/// API calls, whose caller holds the node.
#[cfg(target_os = "linux")]
#[test]
fn an_endpoint_dropped_by_its_own_dispatch_stops() {
    let _alone = alone();
    let panics = stack_panics();
    let progress_mode = ProgressMode::NicThread;
    let (a_link, b_link) = (link(0), link(1));
    wire(&a_link, &b_link);
    let a = Endpoint::new(a_link, mode(progress_mode));
    let owner = Endpoint::with_dispatcher(
        b_link,
        mode(progress_mode),
        portals_obs::Obs::default(),
        |endpoint| SelfOwned {
            endpoint,
            last: Mutex::new(None),
        },
        let_go,
    );
    *owner.last.lock().unwrap() = Some(Arc::clone(&owner));
    let gone = Arc::downgrade(&owner);
    drop(owner);
    a.send(NodeId(1), Gather::copy_from_slice(b"the last straw"));
    let deadline = Instant::now() + Duration::from_secs(1);
    while gone.strong_count() > 0 {
        assert!(
            Instant::now() < deadline,
            "{progress_mode:?}: never dropped"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        await_threads(&["portals-udp-rx-"], Duration::from_secs(1)),
        ["portals-udp-rx-"],
        "{progress_mode:?}: only the sender's receive thread is left"
    );
    assert_eq!(stack_panics(), panics, "a thread of the stack panicked");
}
