//! The per-layer ladder: the same 8 B echo and 4 MiB transfer issued at each
//! layer's own public API, from the wire up, plus four direct calls into
//! `wire` and `types`.
//!
//! A layer's own cost is its rung minus the rung below it. Both ends of a
//! rung are threads of this one process, pinned to the same CPU as the
//! workloads; on the UDP wire the datagrams still cross the kernel's loopback
//! path. The MPI rung on top is the workload itself (see the runner).
//!
//! Every probe is measured once: in the traced pass of the workload whose op
//! rests on it ([`PROBES`]), with that pass's whole ladder time split over
//! that workload's few probes.

use crate::inputs::{Inputs, BODY_LEN};
use crate::rig::{
    self, crc32, AckRequest, EqHandle, EventKind, Fabric, FabricConfig, Gather, Link, MatchBits,
    MatchCriteria, MdSpec, MePos, NetworkInterface, NodeId, PortalsMessage, ProcessId, PutRequest,
    Region, RequestHeader,
};
use crate::stats::{self, Block};
use std::hint::black_box;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The probes behind each workload: the rungs under its op on its wire, and
/// the direct calls whose cost its metrics should follow. `halo_inproc` has
/// none: nothing below MPI issues its one-sided step.
pub const PROBES: [(&str, &[&str]); 6] = [
    (
        "pp_inproc",
        &[
            "net.rtt_p50_us",
            "transport.rtt_p50_us",
            "portals.rtt_p50_us",
            "wire.header_encode_ns",
            "wire.header_decode_ns",
        ],
    ),
    ("pp_inproc_threadless", &["portals.rtt_p50_us.threadless"]),
    ("msgrate_inproc", &["types.region_alloc_ns"]),
    (
        "bulk_inproc",
        &[
            "net.xfer_mib_s",
            "transport.xfer_mib_s",
            "portals.put_mib_s",
            "portals.get_mib_s",
        ],
    ),
    (
        "pp_udp",
        &[
            "netudp.raw_socket_rtt_p50_us",
            "netudp.rtt_p50_us",
            "transport.udp_rtt_p50_us",
            "portals.udp_rtt_p50_us",
        ],
    ),
    (
        "bulk_udp",
        &[
            "netudp.raw_socket_mib_s",
            "netudp.xfer_mib_s",
            "transport.udp_xfer_mib_s",
            "portals.udp_put_mib_s",
            "wire.crc32c_gib_s",
        ],
    ),
];

/// The probes measured in `workload`'s traced pass.
pub fn probes(workload: &str) -> &'static [&'static str] {
    PROBES
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(&[], |(_, names)| names)
}

/// Payload bound of a UDP link datagram (the stack's default MTU) …
const UDP_PAYLOAD: usize = 1432;
/// … and what that is on the socket, with the link's 18-byte frame header.
const UDP_FRAME: usize = UDP_PAYLOAD + 18;
/// Datagram size on the fabric (its preferred fragment size).
const FABRIC_PAYLOAD: usize = 64 * 1024;
/// Datagrams sent before the sender waits for the receiver's token: links
/// are unreliable and unpaced, so a bare 4 MiB burst would overrun a socket
/// buffer. 64 × 1450 B stays under the stock receive buffer.
const WINDOW: usize = 64;

// What a datagram on a link rung means, told by its length.
const PING: usize = 8;
const TOKEN: usize = 1;
const STOP: usize = 2;
const RESYNC: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;
/// How long a link rung waits for an answer before it counts the op as failed.
const LOST: Duration = Duration::from_millis(100);

/// What a rung moves: the 8 B echo (result in µs) or the 4 MiB transfer
/// (result in MiB/s).
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Echo,
    Bulk,
}

/// Ops the rungs ran and how many of them never got their answer.
#[derive(Default)]
pub struct Tally {
    /// Ops started, warm-up included.
    pub attempted: u64,
    /// Ops whose answer was lost or timed out.
    pub failed: u64,
}

impl Tally {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

/// Repeat `op` for `each`, in time-sliced blocks, after a short warm-up;
/// returns the block-robust op time in µs and ops per second.
fn measure(each: Duration, tally: &mut Tally, mut op: impl FnMut() -> bool) -> (f64, f64) {
    let warm = Instant::now();
    while warm.elapsed() < each / 10 {
        tally.count(op());
    }
    let mut blocks = Vec::new();
    let start = Instant::now();
    while start.elapsed() < each {
        let mut samples = Vec::new();
        let t_block = Instant::now();
        while t_block.elapsed() < each / 16 {
            let t0 = Instant::now();
            let ok = op();
            samples.push(t0.elapsed().as_nanos() as u64);
            tally.count(ok);
        }
        blocks.push(Block::from_samples(&samples, t_block.elapsed()));
    }
    (stats::op_p50_us(&blocks), stats::ops_per_s(&blocks))
}

/// Cost of one call of `f` in ns, for calls too short to time one by one:
/// the lower quartile over batches of 1000.
fn ns_per_call(each: Duration, mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 1000;
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < each {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    stats::percentile(&stats::sorted(samples), 0.25)
}

/// The 4 MiB body cut into `size`-byte datagram payloads, as views.
fn datagrams(body: &Region, size: usize) -> Vec<Gather> {
    let count = (BODY_LEN / size).div_ceil(WINDOW) * WINDOW;
    (0..count)
        .map(|i| Gather::from_bytes(body.slice((i * size) % (BODY_LEN - size), size)))
        .collect()
}

/// One pass over the probes of one workload.
struct Ladder {
    /// Time each probe measures for.
    each: Duration,
    /// The seeded 4 MiB the bulk probes move.
    body: Region,
    tally: Tally,
}

impl Ladder {
    /// Link rung: `Link::send`/`send_batch` one way, the inbound receiver the
    /// other; the transfer goes in windows, each answered by a token.
    fn link_rung<L: Link>(&mut self, a: L, b: L, size: usize, shape: Shape) -> f64 {
        let rx_a = a.inbound_receiver();
        let rx_b = b.inbound_receiver();
        let (to_a, to_b) = (a.nid(), b.nid());
        let echo = std::thread::spawn(move || {
            let mut in_window = 0;
            while let Ok(d) = rx_b.recv() {
                match d.payload.len() {
                    STOP => break,
                    PING => b.send(to_a, d.payload),
                    RESYNC => in_window = 0,
                    _ => {
                        in_window += 1;
                        if in_window == WINDOW {
                            in_window = 0;
                            b.send(to_a, Gather::copy_from_slice(&[0; TOKEN]));
                        }
                    }
                }
            }
        });
        let value = match shape {
            Shape::Echo => {
                let ping = Gather::copy_from_slice(&[7; PING]);
                let (rtt_us, _) = measure(self.each, &mut self.tally, || {
                    a.send(to_b, ping.clone());
                    rx_a.recv_timeout(LOST).is_ok()
                });
                rtt_us
            }
            Shape::Bulk => {
                let payloads = datagrams(&self.body, size);
                let (_, per_s) = measure(self.each, &mut self.tally, || {
                    let mut ok = true;
                    for window in payloads.chunks(WINDOW) {
                        a.send_batch(window.iter().map(|p| (to_b, p.clone())).collect());
                        if rx_a.recv_timeout(LOST).is_err() {
                            // A datagram of the window was lost: the op
                            // fails, and the receiver starts counting afresh
                            // so that later windows are not out of phase.
                            ok = false;
                            a.send(to_b, Gather::copy_from_slice(&[0; RESYNC]));
                        }
                    }
                    ok
                });
                per_s * (payloads.len() * size) as f64 / MIB
            }
        };
        a.send(to_b, Gather::copy_from_slice(&[0; STOP]));
        echo.join().expect("link echo thread");
        value
    }

    /// The kernel's share of the UDP rungs: the same datagram sizes and the
    /// same windowing over two plain `std::net::UdpSocket`s.
    fn raw_socket_rung(&mut self, shape: Shape) -> f64 {
        let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind a loopback socket");
        let (a, b) = (bind(), bind());
        a.connect(b.local_addr().expect("addr")).expect("connect");
        b.connect(a.local_addr().expect("addr")).expect("connect");
        a.set_read_timeout(Some(LOST)).expect("set timeout");
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; UDP_FRAME];
            let mut in_window = 0;
            while let Ok(n) = b.recv(&mut buf) {
                match n {
                    STOP => break,
                    PING => drop(b.send(&buf[..n])),
                    RESYNC => in_window = 0,
                    _ => {
                        in_window += 1;
                        if in_window == WINDOW {
                            in_window = 0;
                            let _ = b.send(&[0; TOKEN]);
                        }
                    }
                }
            }
        });
        let mut buf = [0u8; UDP_FRAME];
        let value = match shape {
            Shape::Echo => {
                let (rtt_us, _) = measure(self.each, &mut self.tally, || {
                    a.send(&[7; PING]).is_ok() && a.recv(&mut buf).is_ok()
                });
                rtt_us
            }
            Shape::Bulk => {
                let frame = [0x5a; UDP_FRAME];
                let count = (BODY_LEN / UDP_PAYLOAD).div_ceil(WINDOW) * WINDOW;
                let (_, per_s) = measure(self.each, &mut self.tally, || {
                    let mut ok = true;
                    for _ in 0..count / WINDOW {
                        for _ in 0..WINDOW {
                            ok &= a.send(&frame).is_ok();
                        }
                        if a.recv(&mut buf).is_err() {
                            ok = false;
                            let _ = a.send(&[0; RESYNC]);
                        }
                    }
                    ok
                });
                per_s * (count * UDP_PAYLOAD) as f64 / MIB
            }
        };
        let _ = a.send(&[0; STOP]);
        echo.join().expect("socket echo thread");
        value
    }

    /// Transport rung: `Endpoint::send` one way, `recv` the other; 4 MiB goes
    /// as one message and a 1 B message comes back.
    fn transport_rung<L: Link>(&mut self, a: L, b: L, shape: Shape) -> f64 {
        let (to_a, to_b) = (a.nid(), b.nid());
        let (ea, eb) = (rig::endpoint(a), rig::endpoint(b));
        let echo = std::thread::spawn(move || {
            while let Some(m) = eb.recv() {
                match m.payload.len() {
                    STOP => break,
                    PING => eb.send(to_a, m.payload),
                    _ => eb.send(to_a, Gather::copy_from_slice(&[0; TOKEN])),
                }
            }
        });
        // The transport retransmits until it is through: an answer that
        // takes this long means a wedged endpoint, and the op fails.
        let wait = Duration::from_secs(5);
        let message = match shape {
            Shape::Echo => Gather::copy_from_slice(&[7; PING]),
            Shape::Bulk => Gather::from_bytes(self.body.slice(0, BODY_LEN)),
        };
        let (rtt_us, per_s) = measure(self.each, &mut self.tally, || {
            ea.send(to_b, message.clone());
            ea.recv_timeout(wait).is_some()
        });
        ea.send(to_b, Gather::copy_from_slice(&[0; STOP]));
        echo.join().expect("transport echo thread");
        match shape {
            Shape::Echo => rtt_us,
            Shape::Bulk => per_s * BODY_LEN as f64 / MIB,
        }
    }

    /// Portals rung: `put_op` → `eq_wait` echo for the round trip (the
    /// paper's §3 number), an acked 4 MiB put, or a 4 MiB get.
    fn portals_rung<L: Link>(&mut self, a: L, b: L, threadless: bool, op: PortalsOp) -> f64 {
        let (node_a, na) = rig::node_with_ni(a, threadless);
        let (node_b, nb) = rig::node_with_ni(b, threadless);
        let (a_id, b_id) = (na.id(), nb.id());
        let eq_a = na.eq_alloc(64).expect("eq");
        let eq_b = nb.eq_alloc(64).expect("eq");
        expose(&na, 0, Region::zeroed(PING), Some(eq_a));
        expose(&nb, 0, Region::zeroed(PING), Some(eq_b));
        if op != PortalsOp::Echo {
            // Seeded bytes on both sides: a region nobody wrote would read
            // from the kernel's one zero page and flatter the get.
            let remote = Region::copy_from_slice(&self.body.read_vec(0, BODY_LEN));
            expose(&nb, 1, remote, None);
        }

        // Interface calls return errors only for misuse, and the transport
        // under them never gives up: a fault here is a harness bug (panic,
        // and the runner reports the crash) or a wedge (the watchdog).
        let stop = Arc::new(AtomicBool::new(false));
        let echo = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let md = nb.md_bind(MdSpec::new(Region::zeroed(PING))).expect("md");
                while !stop.load(Ordering::Relaxed) {
                    if nb.eq_poll(eq_b, Duration::from_millis(10)).is_ok() {
                        nb.put_op(md).target(a_id, 0).submit().expect("echo put");
                    }
                }
            }
        });

        let value = match op {
            PortalsOp::Echo => {
                let md = na.md_bind(MdSpec::new(Region::zeroed(PING))).expect("md");
                let (rtt_us, _) = measure(self.each, &mut self.tally, || {
                    na.put_op(md).target(b_id, 0).submit().expect("put");
                    na.eq_wait(eq_a).expect("echo event");
                    true
                });
                rtt_us
            }
            PortalsOp::Put | PortalsOp::Get => {
                let eq = na.eq_alloc(64).expect("eq");
                let md = na
                    .md_bind(MdSpec::new(self.body.clone()).with_eq(eq))
                    .expect("md");
                let (_, per_s) = measure(self.each, &mut self.tally, || {
                    if op == PortalsOp::Put {
                        na.put_op(md)
                            .target(b_id, 1)
                            .ack(AckRequest::Ack)
                            .submit()
                            .expect("put");
                        wait_for(&na, eq, EventKind::Ack);
                    } else {
                        na.get_op(md)
                            .target(b_id, 1)
                            .length(BODY_LEN as u64)
                            .submit()
                            .expect("get");
                        wait_for(&na, eq, EventKind::Reply);
                    }
                    true
                });
                per_s * BODY_LEN as f64 / MIB
            }
        };
        stop.store(true, Ordering::Relaxed);
        echo.join().expect("portals echo thread");
        drop((na, node_a, node_b));
        value
    }

    /// Measure the probe called `name`.
    fn probe(&mut self, name: &str) -> f64 {
        // An ideal fabric is a routing table, no thread: idle under a UDP probe.
        let fabric = Fabric::new(FabricConfig::ideal());
        let nics = || (fabric.attach(NodeId(0)), fabric.attach(NodeId(1)));
        let (udp, each) = (rig::udp_link_pair, self.each);
        match name {
            "net.rtt_p50_us" => {
                let (a, b) = nics();
                self.link_rung(a, b, FABRIC_PAYLOAD, Shape::Echo)
            }
            "net.xfer_mib_s" => {
                let (a, b) = nics();
                self.link_rung(a, b, FABRIC_PAYLOAD, Shape::Bulk)
            }
            "netudp.rtt_p50_us" => {
                let (a, b) = udp();
                self.link_rung(a, b, UDP_PAYLOAD, Shape::Echo)
            }
            "netudp.xfer_mib_s" => {
                let (a, b) = udp();
                self.link_rung(a, b, UDP_PAYLOAD, Shape::Bulk)
            }
            "netudp.raw_socket_rtt_p50_us" => self.raw_socket_rung(Shape::Echo),
            "netudp.raw_socket_mib_s" => self.raw_socket_rung(Shape::Bulk),
            "transport.rtt_p50_us" => {
                let (a, b) = nics();
                self.transport_rung(a, b, Shape::Echo)
            }
            "transport.xfer_mib_s" => {
                let (a, b) = nics();
                self.transport_rung(a, b, Shape::Bulk)
            }
            "transport.udp_rtt_p50_us" => {
                let (a, b) = udp();
                self.transport_rung(a, b, Shape::Echo)
            }
            "transport.udp_xfer_mib_s" => {
                let (a, b) = udp();
                self.transport_rung(a, b, Shape::Bulk)
            }
            "portals.rtt_p50_us" => {
                let (a, b) = nics();
                self.portals_rung(a, b, false, PortalsOp::Echo)
            }
            "portals.rtt_p50_us.threadless" => {
                let (a, b) = nics();
                self.portals_rung(a, b, true, PortalsOp::Echo)
            }
            "portals.put_mib_s" => {
                let (a, b) = nics();
                self.portals_rung(a, b, false, PortalsOp::Put)
            }
            "portals.get_mib_s" => {
                let (a, b) = nics();
                self.portals_rung(a, b, false, PortalsOp::Get)
            }
            "portals.udp_rtt_p50_us" => {
                let (a, b) = udp();
                self.portals_rung(a, b, false, PortalsOp::Echo)
            }
            "portals.udp_put_mib_s" => {
                let (a, b) = udp();
                self.portals_rung(a, b, false, PortalsOp::Put)
            }
            "wire.header_encode_ns" => {
                let msg = small_put();
                ns_per_call(each, || drop(black_box(black_box(&msg).encode())))
            }
            "wire.header_decode_ns" => {
                let encoded = small_put().encode();
                ns_per_call(each, || {
                    drop(black_box(PortalsMessage::decode(black_box(&encoded))))
                })
            }
            // Checksummed the way `bulk_udp` is: one pass per 1432-byte
            // datagram body.
            "wire.crc32c_gib_s" => {
                let body = self.body.read_vec(0, BODY_LEN);
                let (_, passes) = measure(each, &mut Tally::default(), || {
                    for chunk in body.chunks(UDP_PAYLOAD) {
                        black_box(crc32(black_box(chunk)));
                    }
                    true
                });
                passes * BODY_LEN as f64 / (1024.0 * MIB)
            }
            "types.region_alloc_ns" => ns_per_call(each, || drop(black_box(Region::zeroed(1024)))),
            other => unreachable!("no probe called {other}"),
        }
    }
}

/// What the Portals rung issues.
#[derive(Clone, Copy, PartialEq)]
enum PortalsOp {
    Echo,
    Put,
    Get,
}

/// Open portal `index` of `ni` onto `region` for puts and gets from anyone.
fn expose(ni: &NetworkInterface, index: u32, region: Region, eq: Option<EqHandle>) {
    let me = ni
        .me_attach(
            index,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )
        .expect("attach a match entry");
    let spec = MdSpec::new(region);
    ni.md_attach(
        me,
        if let Some(eq) = eq {
            spec.with_eq(eq)
        } else {
            spec
        },
    )
    .expect("attach a descriptor");
}

fn wait_for(ni: &NetworkInterface, eq: EqHandle, kind: EventKind) {
    while ni.eq_wait(eq).expect("event").kind != kind {}
}

/// The 8 B put request the header probes encode and decode.
fn small_put() -> PortalsMessage {
    PortalsMessage::Put(PutRequest {
        header: RequestHeader {
            initiator: ProcessId::new(0, 1),
            target: ProcessId::new(1, 1),
            portal_index: 0,
            cookie: 0,
            match_bits: MatchBits::new(0xfeed_f00d),
            offset: 0,
            length: PING as u64,
        },
        ack_md: 7,
        ack_eq: 8,
        payload: Gather::copy_from_slice(&[7; PING]),
    })
}

/// Measure `workload`'s probes for `seconds` in total, split evenly; returns
/// `(metric, value)` pairs and the rungs' op tally.
pub fn run(workload: &str, seed: u64, seconds: f64) -> (Vec<(&'static str, f64)>, Tally) {
    let names = probes(workload);
    let mut ladder = Ladder {
        each: Duration::from_secs_f64(seconds) / names.len().max(1) as u32,
        body: Region::copy_from_slice(Inputs::generate(seed).body(BODY_LEN)),
        tally: Tally::default(),
    };
    let values = names.iter().map(|&n| (n, ladder.probe(n))).collect();
    (values, ladder.tally)
}
