//! Heap allocations per fragment on the bulk path, pinned.
//!
//! A 4 MiB message moves between two transport endpoints at a 1432-byte
//! MTU (clamped under the datagram bound on UDP), over the ideal in-process fabric and over a loopback `UdpLink`
//! pair. After warm-up, each side may make at most one heap allocation per
//! data fragment: the payload is placed by reference on the way down and
//! viewed in place in its receive buffer on the way up, so what remains is
//! per-batch bookkeeping. Each side is the threads that run its protocol:
//! its NIC thread (`portals-node-<nid>`) or the receive thread that hosts
//! its stepper (`portals-udp-rx-<nid>`), plus the test thread while it
//! calls that side's endpoint.
//!
//! This file is its own test binary because it installs a counting global
//! allocator.

use portals_net::Fabric;
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::{Endpoint, TransportConfig};
use portals_types::{Gather, NodeId, Region};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const SENDER: u8 = 0;
const RECEIVER: u8 = 1;
const OTHER: u8 = 2;
const UNSET: u8 = 3;

/// Allocations (including reallocations) per side since the last reset.
static COUNTS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

thread_local! {
    /// Which side this thread's allocations count for; looked up from the
    /// thread's name on its first allocation.
    static SIDE: Cell<u8> = const { Cell::new(UNSET) };
}

/// The side a thread of this name runs: node 0 sends, node 1 receives.
fn side_of(name: Option<&str>) -> u8 {
    let Some(name) = name.filter(|n| n.starts_with("portals-")) else {
        return OTHER;
    };
    if name.ends_with("-0") {
        SENDER
    } else if name.ends_with("-1") {
        RECEIVER
    } else {
        OTHER
    }
}

fn count() {
    let side = SIDE.with(|side| {
        if side.get() == UNSET {
            // Set first: the name lookup's own allocations count as other.
            side.set(OTHER);
            side.set(side_of(std::thread::current().name()));
        }
        side.get()
    });
    COUNTS[usize::from(side)].fetch_add(1, Ordering::Relaxed);
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The two tests share the counters: one at a time.
static TURN: Mutex<()> = Mutex::new(());

const MESSAGE: usize = 4 << 20;
const MTU: usize = 1432;
const WARMUP: usize = 3;
const MEASURED: usize = 4;

/// Run the test thread's allocations for `side` while `f` runs.
fn as_side<T>(side: u8, f: impl FnOnce() -> T) -> T {
    let outer = SIDE.with(|s| s.replace(side));
    let out = f();
    SIDE.with(|s| s.set(outer));
    out
}

/// Move `MESSAGE` bytes from `a` (node 0) to `b` (node 1) `WARMUP` times,
/// then `MEASURED` times counted. Returns each side's allocations per data
/// fragment sent in the counted rounds.
fn per_fragment(a: &Endpoint, b: &Endpoint) -> (f64, f64) {
    let payload = Region::from_vec((0..MESSAGE).map(|i| (i * 7 + 3) as u8).collect());
    let round = || {
        as_side(SENDER, || {
            a.send(NodeId(1), Gather::from_bytes(payload.slice(0, MESSAGE)))
        });
        let m = as_side(RECEIVER, || b.recv_timeout(Duration::from_secs(60)))
            .expect("the message arrives");
        assert_eq!(m.payload.len(), MESSAGE);
        assert!(
            as_side(SENDER, || a.flush(Duration::from_secs(30))),
            "acks drain"
        );
        as_side(RECEIVER, || drop(m));
    };
    for _ in 0..WARMUP {
        round();
    }
    let sent = a.stats().data_packets_sent.get();
    COUNTS.iter().for_each(|c| c.store(0, Ordering::Relaxed));
    for _ in 0..MEASURED {
        round();
    }
    let tx = COUNTS[usize::from(SENDER)].load(Ordering::Relaxed);
    let rx = COUNTS[usize::from(RECEIVER)].load(Ordering::Relaxed);
    let fragments = (a.stats().data_packets_sent.get() - sent) as f64;
    eprintln!("{fragments} fragments: {tx} sender allocations, {rx} receiver allocations");
    (tx as f64 / fragments, rx as f64 / fragments)
}

fn config() -> TransportConfig {
    TransportConfig {
        mtu: MTU,
        ..Default::default()
    }
}

fn assert_at_most_one(wire: &str, (tx, rx): (f64, f64)) {
    assert!(
        tx <= 1.0 && rx <= 1.0,
        "{wire}: {tx:.2} sender and {rx:.2} receiver allocations per fragment; at most 1 each"
    );
}

#[test]
fn a_bulk_message_allocates_at_most_once_per_fragment_on_the_fabric() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::ideal();
    let a = Endpoint::new(fabric.attach(NodeId(0)), config());
    let b = Endpoint::new(fabric.attach(NodeId(1)), config());
    assert_at_most_one("fabric", per_fragment(&a, &b));
}

#[test]
fn a_bulk_message_allocates_at_most_once_per_fragment_over_udp() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let link = |nid| {
        UdpLink::bind(UdpLinkConfig {
            nid: NodeId(nid),
            ..Default::default()
        })
        .expect("bind loopback")
    };
    let (a_link, b_link) = (link(0), link(1));
    a_link.set_peer(b_link.nid(), b_link.local_addr());
    b_link.set_peer(a_link.nid(), a_link.local_addr());
    let a = Endpoint::new(a_link, config());
    let b = Endpoint::new(b_link, config());
    assert_at_most_one("udp", per_fragment(&a, &b));
}
