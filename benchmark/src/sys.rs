//! The three Linux calls the harness needs and `std` does not expose: CPU
//! affinity (placement is fixed by the harness, not the scheduler) and
//! `getrusage` (CPU time, context switches, peak RSS). Declared locally
//! against the C library `std` already links, as `crates/netudp/src/mmsg.rs`
//! does for `sendmmsg`.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark pins CPUs and reads rusage through Linux system calls");

use std::time::Duration;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

/// `struct rusage`, x86-64/aarch64 Linux layout: two `timeval`s, then 14
/// `long`s of which the harness reads three (`ru_maxrss`, and the last two,
/// `ru_nvcsw` and `ru_nivcsw`).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    _ixrss_to_nsignals: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Confine the calling thread — and every thread and process it later
/// creates — to the highest-numbered CPU of the mask it inherited. Returns
/// that CPU's number.
///
/// One CPU, not two: with two, every handoff between a rank and a library
/// thread may or may not cross CPUs, and the spin-then-park waits flip
/// between two regimes; with one, `available_parallelism()` is 1, the spin
/// budget is zero and every run takes the same path.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer and its
    // size is passed alongside; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = highest_cpu(&set).ok_or_else(|| std::io::Error::other("empty affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t`-sized buffer that outlives the call.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

fn highest_cpu(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

/// What `getrusage(RUSAGE_SELF)` says about this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// CPU time in user mode.
    pub user: Duration,
    /// CPU time in the kernel.
    pub sys: Duration,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size (the `VmHWM` of `/proc/self/status`), KiB.
    pub peak_rss_kib: u64,
}

impl Usage {
    /// Read the calling process's counters.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` of the layout the
        // kernel fills on 64-bit Linux.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let tv = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1000);
        Usage {
            user: tv(ru.utime),
            sys: tv(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            peak_rss_kib: ru.maxrss_kib as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_picks_the_top_set_bit() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(highest_cpu(&set), None);
        set[0] = 0b0111;
        assert_eq!(highest_cpu(&set), Some(2));
        set[1] = 1 << 5;
        assert_eq!(highest_cpu(&set), Some(69));
    }

    #[test]
    fn usage_reads_a_live_process() {
        let u = Usage::now();
        assert!(u.peak_rss_kib > 0);
    }
}
