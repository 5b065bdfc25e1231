//! `Endpoint::flush` waits without burning the CPU it waits for.
//!
//! Acknowledgments are produced by another thread (the peer's stepper, the
//! wire's scheduler) that may share the flusher's CPU, so a flush that spins
//! starves exactly what it is waiting on. In both progress modes the wait
//! parks on the readiness doorbell; the thread's own CPU time, read with
//! `getrusage(RUSAGE_THREAD)`, must be a small share of the wall time.
#![cfg(target_os = "linux")]

use portals_net::{Fabric, FabricConfig, LinkModel};
use portals_transport::{Endpoint, ProgressMode, TransportConfig};
use portals_types::{Gather, NodeId};
use std::time::{Duration, Instant};

/// `struct rusage` up to the two `timeval`s this test reads; the fourteen
/// `long`s after them are padding here. Declared locally against the C
/// library `std` already links, as `crates/netudp/src/mmsg.rs` does.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    _rest: [i64; 14],
}

const RUSAGE_THREAD: i32 = 1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU time (user + system) the calling thread has consumed.
fn thread_cpu_time() -> Duration {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage`-sized buffer.
    assert_eq!(unsafe { getrusage(RUSAGE_THREAD, &mut ru) }, 0);
    let tv = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1000);
    tv(ru.utime) + tv(ru.stime)
}

fn flush_parks(mode: ProgressMode) {
    let latency = Duration::from_millis(2);
    let fabric = Fabric::new(FabricConfig::default().with_link(LinkModel {
        latency,
        bandwidth_bytes_per_sec: f64::INFINITY,
        per_packet_overhead: Duration::ZERO,
    }));
    // A window of 4 makes the 50 messages thirteen round trips: the wait is
    // long against the fixed cost of processing their datagrams, which in
    // caller-driven mode is this thread's to pay.
    let cfg = TransportConfig {
        progress_mode: mode,
        window: 4,
        ..Default::default()
    };
    let a = Endpoint::new(fabric.attach(NodeId(0)), cfg);
    let b = Endpoint::new(fabric.attach(NodeId(1)), cfg);
    // The peer has a caller of its own blocked in `recv`, as peers do: when
    // callers drive, it is the one that runs the receiving side.
    let receiver = std::thread::spawn(move || {
        (0..50)
            .map_while(|_| b.recv_timeout(Duration::from_secs(10)))
            .count()
    });
    for i in 0..50u8 {
        a.send(NodeId(1), Gather::from_vec(vec![i; 1024]));
    }
    let (cpu0, t0) = (thread_cpu_time(), Instant::now());
    assert!(a.flush(Duration::from_secs(10)), "flush timed out");
    let (cpu, wall) = (thread_cpu_time() - cpu0, t0.elapsed());
    eprintln!("{mode:?}: cpu {cpu:?} wall {wall:?}");
    assert_eq!(a.outstanding(), 0);
    assert!(
        wall >= 26 * latency,
        "thirteen windows cross the link and back: {wall:?} is too soon"
    );
    assert!(
        cpu * 10 < wall,
        "{mode:?}: flush used {cpu:?} of CPU while waiting {wall:?}"
    );
    assert_eq!(receiver.join().unwrap(), 50);
}

#[test]
fn flush_parks_beside_a_nic_thread() {
    flush_parks(ProgressMode::NicThread);
}

#[test]
fn flush_parks_when_the_caller_drives() {
    flush_parks(ProgressMode::CallerDriven);
}
