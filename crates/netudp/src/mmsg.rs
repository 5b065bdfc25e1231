//! Batched wire I/O: `sendmmsg` / `recvmmsg` behind a portable seam, with
//! UDP segmentation offload in both directions.
//!
//! One syscall per 1432-byte datagram tops out at a few hundred MiB/s on
//! loopback (EXPERIMENTS.md, "The bulk UDP ladder"), and a vector of them per
//! syscall still pays the kernel's per-datagram path for each. These helpers
//! move a vector of *runs* per kernel crossing, and each run is up to 64
//! datagrams that cross the kernel as one:
//!
//! * [`send_batch`] — hand a slice of [`Run`]s to `sendmmsg`, one entry per
//!   run. A run of several frames carries a `UDP_SEGMENT` control message
//!   with its segment size (GSO): the kernel cuts the one buffer into
//!   datagrams of that size, the last one possibly shorter, below the socket.
//!   A run of one frame carries no control message. Returns how many leading
//!   runs the kernel accepted (always a prefix), so the caller retries the
//!   remainder and sees `WouldBlock` only when the *next* run cannot be
//!   queued. A kernel that cannot segment refuses the run outright
//!   ([`refuses_segmentation`]); no datagram of it left.
//! * [`recv_batch`] — `recvmmsg` with `MSG_WAITFORONE`: block (bounded by
//!   the socket's read timeout) until at least one buffer arrives, then
//!   drain everything else already queued, up to the vector length, without
//!   blocking again; or, not blocking at all, only what is already queued.
//!   On a socket with [`enable_gro`], one buffer may hold several datagrams
//!   of one sender, coalesced by the kernel (GRO); the `UDP_GRO` control
//!   message reports their size in [`RecvMeta::segment`], and [`segments`]
//!   cuts the buffer back into them.
//! * [`wait_readable`] — `ppoll` for a wait shorter or more exact than the
//!   socket's read timeout, which the kernel counts in scheduler ticks.
//!
//! The FFI surface is declared locally against the C library that `std`
//! already links on Linux — no new dependency — and kept to the exact
//! subset used here. Off Linux the same functions degrade to
//! `send_to`/`recv_from` loops with identical semantics (a batch size of 1
//! per syscall, and [`MAX_SEGMENTS`] of 1, so every run is one frame), so
//! `UdpLink` never needs platform knowledge of its own.

use std::net::{SocketAddr, UdpSocket};

/// Largest payload a single UDP/IPv4 datagram can carry
/// (65535 − 8-byte UDP header − 20-byte IP header). Frames above this can
/// never leave the socket; [`UdpLinkConfig`](crate::UdpLinkConfig) clamps
/// its payload bound under it.
pub const UDP_MAX_DATAGRAM: usize = 65507;

/// One `sendmmsg` entry: consecutive frames to one address, contiguous in
/// the caller's buffer. Every frame but the last is `segment` bytes long,
/// and the last is no longer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'a> {
    /// Destination socket address of every frame in the run.
    pub addr: SocketAddr,
    /// The frames, back to back.
    pub bytes: &'a [u8],
    /// Length of each frame but the last: the GSO segment size.
    pub segment: usize,
    /// How many frames (datagrams on the wire) the run holds.
    pub frames: usize,
}

/// One received buffer's placement: which buffer it landed in, how many
/// bytes, the sender's socket address, and the size of the datagrams the
/// kernel coalesced into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvMeta {
    /// Index into the caller's buffer slice.
    pub buf: usize,
    /// Buffer length in bytes.
    pub len: usize,
    /// Source socket address.
    pub addr: SocketAddr,
    /// The `UDP_GRO` segment size the kernel reported, `0` when it reported
    /// none: see [`segments`].
    pub segment: usize,
}

/// The datagrams in one received buffer: cut at `segment` bytes, the last
/// piece possibly shorter. A `segment` of zero (none reported) or at least
/// the buffer's length means the buffer is one datagram, so an empty buffer
/// is one empty datagram.
pub(crate) fn segments(buf: &[u8], segment: usize) -> impl Iterator<Item = &[u8]> {
    let size = if segment == 0 || segment >= buf.len() {
        buf.len().max(1)
    } else {
        segment
    };
    (0..buf.len().max(1))
        .step_by(size)
        .map(move |at| &buf[at..(at + size).min(buf.len())])
}

#[cfg(target_os = "linux")]
pub(crate) use linux::{
    enable_gro, recv_batch, refuses_segmentation, send_batch, set_buffer_sizes, wait_readable,
    MAX_SEGMENTS,
};

#[cfg(not(target_os = "linux"))]
pub(crate) use portable::{
    enable_gro, recv_batch, refuses_segmentation, send_batch, set_buffer_sizes, wait_readable,
    MAX_SEGMENTS,
};

#[cfg(target_os = "linux")]
mod linux {
    use super::{RecvMeta, Run, SocketAddr, UdpSocket};
    use std::io;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddrV4, SocketAddrV6};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    /// `recvmmsg`: return once at least one datagram has been read, with
    /// whatever else was already queued — never block for a *second* one.
    const MSG_WAITFORONE: i32 = 0x10000;
    /// `recvmmsg`: take only what is already queued; `EAGAIN` if nothing is.
    const MSG_DONTWAIT: i32 = 0x40;

    /// `struct iovec` (one segment per datagram; frames arrive contiguous).
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct msghdr`, Linux layout (`repr(C)` inserts the padding after
    /// `namelen` and `flags` that the C definition has on 64-bit targets).
    #[repr(C)]
    struct MsgHdr {
        name: *mut AddrStorage,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// Raw bytes of a `sockaddr_in` / `sockaddr_in6` (28 bytes covers the
    /// larger of the two), encoded and decoded field-by-field below so no
    /// layout-punning is needed.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct AddrStorage {
        bytes: [u8; 28],
    }

    impl AddrStorage {
        const ZERO: AddrStorage = AddrStorage { bytes: [0; 28] };
    }

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` on the 64-bit targets.
    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    const POLLIN: i16 = 1;

    /// Most frames one GSO send may carry: `UDP_MAX_SEGMENTS` on the kernels
    /// that have the smallest one (later kernels allow 128).
    pub(crate) const MAX_SEGMENTS: usize = 64;

    const SOL_UDP: i32 = 17;
    /// Send-side control message: cut this buffer into datagrams of the
    /// `u16` segment size it carries.
    const UDP_SEGMENT: i32 = 103;
    /// Socket option and receive-side control message: coalesce datagrams
    /// of one sender into one buffer, and report their size as an `int`.
    const UDP_GRO: i32 = 104;

    /// `struct cmsghdr` and room for one small payload: 16 bytes of header
    /// on the 64-bit targets, then `CMSG_DATA` at the next 8-byte boundary.
    /// Sized for one `UDP_SEGMENT` (`u16`) or `UDP_GRO` (`int`) value.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct Cmsg {
        len: usize,
        level: i32,
        kind: i32,
        data: [u8; 8],
    }

    impl Cmsg {
        const ZERO: Cmsg = Cmsg {
            len: 0,
            level: 0,
            kind: 0,
            data: [0; 8],
        };
        /// `CMSG_LEN(0)`: where the payload starts.
        const HEADER: usize = 16;

        /// The `UDP_SEGMENT` control message for a run cut at `segment`.
        fn segment(segment: usize) -> Cmsg {
            let mut data = [0; 8];
            data[..2].copy_from_slice(&(segment as u16).to_ne_bytes());
            Cmsg {
                len: Self::HEADER + 2,
                level: SOL_UDP,
                kind: UDP_SEGMENT,
                data,
            }
        }

        /// The segment size a received `UDP_GRO` control message reports;
        /// `0` for no such message or a truncated one.
        fn gro_segment(&self, controllen: usize) -> usize {
            let whole = controllen >= Self::HEADER + 4 && self.len >= Self::HEADER + 4;
            if whole && self.level == SOL_UDP && self.kind == UDP_GRO {
                let size = i32::from_ne_bytes(self.data[..4].try_into().expect("4 bytes"));
                usize::try_from(size).unwrap_or(0)
            } else {
                0
            }
        }
    }

    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const ENOPROTOOPT: i32 = 92;

    /// Whether a failed `sendmmsg` entry that carried `UDP_SEGMENT` was the
    /// kernel refusing to segment, rather than the socket failing: `EIO`
    /// where the route's device has no checksum offload, `EINVAL` or
    /// `ENOPROTOOPT` where the kernel or the socket does not support it.
    pub(crate) fn refuses_segmentation(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(EIO | EINVAL | ENOPROTOOPT))
    }

    /// Ask the kernel to coalesce datagrams of one sender into one buffer
    /// (`UDP_GRO`), reported by [`recv_batch`] as [`RecvMeta::segment`].
    /// Best effort: a kernel without it delivers every datagram on its own,
    /// which [`recv_batch`] takes just the same.
    pub(crate) fn enable_gro(socket: &UdpSocket) {
        let on: i32 = 1;
        // SAFETY: `on` is a valid `int` for the length passed.
        let _ = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_UDP,
                UDP_GRO,
                (&on as *const i32).cast(),
                4,
            )
        };
    }

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    /// Privileged variants that ignore the `net.core.{w,r}mem_max` clamp
    /// (need CAP_NET_ADMIN; tried first, with the clamped call as
    /// fallback).
    const SO_SNDBUFFORCE: i32 = 32;
    const SO_RCVBUFFORCE: i32 = 33;

    extern "C" {
        fn sendmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            vec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut core::ffi::c_void,
        ) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const TimeSpec,
            sigmask: *const core::ffi::c_void,
        ) -> i32;
    }

    /// Block until a datagram is queued on `socket` or `timeout` passes, on
    /// a high-resolution timer. Returns whether one is queued (or the socket
    /// has an error for the next receive to report).
    pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout = TimeSpec {
            sec: timeout.as_secs() as i64,
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `timeout` are valid for the call; a null signal
        // mask leaves the mask unchanged.
        let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n > 0)
    }

    /// Best-effort socket buffer sizing. The default ~212 KiB receive
    /// buffer holds three jumbo datagrams; a go-back-N window of 64 × 64 KiB
    /// frames overflows it instantly and loopback "loses" most of the burst
    /// to rcvbuf overrun, collapsing throughput into retransmission storms.
    /// Ask for enough to hold the whole in-flight window. Failure is fine —
    /// an undersized buffer only costs performance (the transport recovers
    /// the drops), so the result is advisory.
    pub(crate) fn set_buffer_sizes(socket: &UdpSocket, bytes: usize) {
        let fd = socket.as_raw_fd();
        let val = bytes.min(i32::MAX as usize) as i32;
        let set = |opt_force: i32, opt: i32| unsafe {
            // The FORCE variant bypasses the sysctl clamp when the process
            // has CAP_NET_ADMIN; otherwise fall back to the clamped set
            // (the kernel grants min(val, {w,r}mem_max), doubled for
            // bookkeeping).
            if setsockopt(fd, SOL_SOCKET, opt_force, (&val as *const i32).cast(), 4) != 0 {
                let _ = setsockopt(fd, SOL_SOCKET, opt, (&val as *const i32).cast(), 4);
            }
        };
        set(SO_RCVBUFFORCE, SO_RCVBUF);
        set(SO_SNDBUFFORCE, SO_SNDBUF);
    }

    /// Encode `addr` into sockaddr bytes; returns the storage and its
    /// meaningful length (`sizeof(sockaddr_in)` = 16 or `sockaddr_in6` = 28).
    fn encode_addr(addr: &SocketAddr) -> (AddrStorage, u32) {
        let mut s = AddrStorage::ZERO;
        match addr {
            SocketAddr::V4(v4) => {
                s.bytes[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                s.bytes[2..4].copy_from_slice(&v4.port().to_be_bytes());
                s.bytes[4..8].copy_from_slice(&v4.ip().octets());
                (s, 16)
            }
            SocketAddr::V6(v6) => {
                s.bytes[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                s.bytes[2..4].copy_from_slice(&v6.port().to_be_bytes());
                s.bytes[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                s.bytes[8..24].copy_from_slice(&v6.ip().octets());
                s.bytes[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (s, 28)
            }
        }
    }

    /// Decode the sockaddr the kernel filled in. `None` for address
    /// families a UDP socket cannot produce.
    fn decode_addr(s: &AddrStorage) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes([s.bytes[0], s.bytes[1]]);
        let port = u16::from_be_bytes([s.bytes[2], s.bytes[3]]);
        match family {
            AF_INET => {
                let ip = Ipv4Addr::new(s.bytes[4], s.bytes[5], s.bytes[6], s.bytes[7]);
                Some(SocketAddr::V4(SocketAddrV4::new(ip, port)))
            }
            AF_INET6 => {
                let mut octets = [0u8; 16];
                octets.copy_from_slice(&s.bytes[8..24]);
                let flowinfo = u32::from_ne_bytes([s.bytes[4], s.bytes[5], s.bytes[6], s.bytes[7]]);
                let scope =
                    u32::from_ne_bytes([s.bytes[24], s.bytes[25], s.bytes[26], s.bytes[27]]);
                Some(SocketAddr::V6(SocketAddrV6::new(
                    Ipv6Addr::from(octets),
                    port,
                    flowinfo,
                    scope,
                )))
            }
            _ => None,
        }
    }

    /// Send `runs` in one `sendmmsg` call, one entry each; a run of several
    /// frames carries its segment size in a `UDP_SEGMENT` control message.
    /// Returns how many leading runs the kernel accepted; an error is
    /// returned only when the *first* run failed, exactly the contract the
    /// retry loop in `UdpLink` wants.
    pub(crate) fn send_batch(socket: &UdpSocket, runs: &[Run<'_>]) -> io::Result<usize> {
        debug_assert!(!runs.is_empty());
        let mut addrs: Vec<(AddrStorage, u32)> =
            runs.iter().map(|r| encode_addr(&r.addr)).collect();
        let mut iovs: Vec<IoVec> = runs
            .iter()
            .map(|r| IoVec {
                base: r.bytes.as_ptr() as *mut u8,
                len: r.bytes.len(),
            })
            .collect();
        let mut cmsgs: Vec<Cmsg> = runs.iter().map(|r| Cmsg::segment(r.segment)).collect();
        let aptr = addrs.as_mut_ptr();
        let iptr = iovs.as_mut_ptr();
        let cptr = cmsgs.as_mut_ptr();
        let mut hdrs: Vec<MMsgHdr> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| unsafe {
                let (control, controllen) = if run.frames > 1 {
                    (cptr.add(i).cast(), std::mem::size_of::<Cmsg>())
                } else {
                    (std::ptr::null_mut(), 0)
                };
                MMsgHdr {
                    hdr: MsgHdr {
                        name: &mut (*aptr.add(i)).0,
                        namelen: (*aptr.add(i)).1,
                        iov: iptr.add(i),
                        iovlen: 1,
                        control,
                        controllen,
                        flags: 0,
                    },
                    len: 0,
                }
            })
            .collect();
        let n = unsafe { sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), hdrs.len() as u32, 0) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    /// Drain up to `bufs.len()` buffers in one `recvmmsg` call. With
    /// `block`, waits only for the first (bounded by the socket's
    /// `SO_RCVTIMEO`, so the rx thread's shutdown poll still works);
    /// without, fails with `WouldBlock` when nothing is queued. Everything
    /// already queued rides along free. Successful receives are appended to
    /// `out`, each with the `UDP_GRO` segment size its control message
    /// reported, if any.
    pub(crate) fn recv_batch(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<RecvMeta>,
        block: bool,
    ) -> io::Result<usize> {
        debug_assert!(!bufs.is_empty());
        let mut addrs: Vec<AddrStorage> = vec![AddrStorage::ZERO; bufs.len()];
        let mut iovs: Vec<IoVec> = bufs
            .iter_mut()
            .map(|b| IoVec {
                base: b.as_mut_ptr(),
                len: b.len(),
            })
            .collect();
        let mut cmsgs: Vec<Cmsg> = vec![Cmsg::ZERO; bufs.len()];
        let aptr = addrs.as_mut_ptr();
        let iptr = iovs.as_mut_ptr();
        let cptr = cmsgs.as_mut_ptr();
        let mut hdrs: Vec<MMsgHdr> = (0..bufs.len())
            .map(|i| unsafe {
                MMsgHdr {
                    hdr: MsgHdr {
                        name: aptr.add(i),
                        namelen: 28,
                        iov: iptr.add(i),
                        iovlen: 1,
                        control: cptr.add(i).cast(),
                        controllen: std::mem::size_of::<Cmsg>(),
                        flags: 0,
                    },
                    len: 0,
                }
            })
            .collect();
        let n = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                hdrs.len() as u32,
                if block { MSG_WAITFORONE } else { MSG_DONTWAIT },
                std::ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        for i in 0..n as usize {
            if let Some(addr) = decode_addr(&addrs[i]) {
                out.push(RecvMeta {
                    buf: i,
                    len: hdrs[i].len as usize,
                    addr,
                    segment: cmsgs[i].gro_segment(hdrs[i].hdr.controllen),
                });
            }
        }
        Ok(n as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod portable {
    use super::{RecvMeta, Run, SocketAddr, UdpSocket};
    use std::io;
    use std::time::Duration;

    /// No segmentation offload here: every run is one frame.
    pub(crate) const MAX_SEGMENTS: usize = 1;

    /// Never asked: no run carries more than one frame.
    pub(crate) fn refuses_segmentation(_e: &io::Error) -> bool {
        false
    }

    /// Receive coalescing is a Linux-path optimisation; elsewhere every
    /// datagram arrives on its own.
    pub(crate) fn enable_gro(_socket: &UdpSocket) {}

    /// Per-datagram `send_to` loop with `sendmmsg` result semantics: a
    /// prefix count on partial progress, an error only when the first
    /// datagram failed.
    pub(crate) fn send_batch(socket: &UdpSocket, runs: &[Run<'_>]) -> io::Result<usize> {
        let mut sent = 0;
        for run in runs {
            debug_assert_eq!(run.frames, 1, "runs of one off Linux");
            match socket.send_to(run.bytes, run.addr) {
                Ok(_) => sent += 1,
                Err(e) if sent == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(sent)
    }

    /// Single `recv_from` presented as a batch of one; without `block`,
    /// `WouldBlock` unless a datagram is already queued.
    pub(crate) fn recv_batch(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<RecvMeta>,
        block: bool,
    ) -> io::Result<usize> {
        if !block && !wait_readable(socket, Duration::ZERO)? {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let (len, addr) = socket.recv_from(&mut bufs[0])?;
        out.push(RecvMeta {
            buf: 0,
            len,
            addr,
            segment: 0,
        });
        Ok(1)
    }

    /// Socket buffer sizing is a Linux-path optimisation; elsewhere the OS
    /// defaults stand.
    pub(crate) fn set_buffer_sizes(_socket: &UdpSocket, _bytes: usize) {}

    /// A one-byte peek under a temporary read timeout: whether a datagram
    /// (or an error for the next receive to report) is queued by
    /// `timeout`.
    pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
        let restore = socket.read_timeout()?;
        socket.set_read_timeout(Some(timeout.max(Duration::from_micros(1))))?;
        let peeked = socket.peek_from(&mut [0u8; 1]);
        socket.set_read_timeout(restore)?;
        match peeked {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            _ => Ok(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;
    use std::time::Duration;

    /// A run of the one frame `bytes`.
    fn one(addr: SocketAddr, bytes: &[u8]) -> Run<'_> {
        Run {
            addr,
            bytes,
            segment: bytes.len(),
            frames: 1,
        }
    }

    #[test]
    fn segments_cut_at_the_reported_size() {
        let buf: Vec<u8> = (0..10).collect();
        let cut = |segment| segments(&buf, segment).collect::<Vec<_>>();
        assert_eq!(cut(4), [&buf[0..4], &buf[4..8], &buf[8..10]]);
        assert_eq!(cut(5), [&buf[0..5], &buf[5..10]]);
        // None reported, or no smaller than the buffer: one datagram.
        for segment in [0, 10, 11, 65536] {
            assert_eq!(cut(segment), [&buf[..]], "segment {segment}");
        }
        assert_eq!(segments(&[], 0).collect::<Vec<_>>(), [&[] as &[u8]]);
        assert_eq!(segments(&[], 4).collect::<Vec<_>>(), [&[] as &[u8]]);
    }

    #[test]
    fn batch_roundtrip_over_loopback() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dst = rx.local_addr().unwrap();

        let frames: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 64 + i as usize]).collect();
        let runs: Vec<Run> = frames.iter().map(|f| one(dst, f)).collect();
        let mut done = 0;
        while done < runs.len() {
            done += send_batch(&tx, &runs[done..]).expect("send batch");
        }

        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 2048]).collect();
        let mut got: Vec<(Vec<u8>, SocketAddr)> = Vec::new();
        while got.len() < frames.len() {
            let mut metas = Vec::new();
            recv_batch(&rx, &mut bufs, &mut metas, true).expect("recv batch");
            for m in metas {
                got.push((bufs[m.buf][..m.len].to_vec(), m.addr));
            }
        }
        assert_eq!(got.len(), 5);
        let from = tx.local_addr().unwrap();
        for (i, (payload, addr)) in got.iter().enumerate() {
            assert_eq!(payload, &vec![i as u8; 64 + i], "datagram {i}");
            assert_eq!(*addr, from);
        }
    }

    #[test]
    fn recv_batch_times_out_when_idle() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut bufs = vec![vec![0u8; 256]; 4];
        let mut metas = Vec::new();
        let err = recv_batch(&rx, &mut bufs, &mut metas, true).expect_err("nothing to read");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        assert!(metas.is_empty());
    }

    #[test]
    fn wait_readable_reports_a_queued_datagram_and_times_out_without_one() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let t0 = std::time::Instant::now();
        assert!(!wait_readable(&rx, Duration::from_millis(2)).unwrap());
        assert!(t0.elapsed() >= Duration::from_millis(2));
        tx.send_to(b"here", rx.local_addr().unwrap()).unwrap();
        assert!(wait_readable(&rx, Duration::from_secs(5)).unwrap());
        let mut bufs = vec![vec![0u8; 64]; 2];
        let mut metas = Vec::new();
        assert_eq!(recv_batch(&rx, &mut bufs, &mut metas, true).unwrap(), 1);
        assert_eq!(&bufs[metas[0].buf][..metas[0].len], b"here");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn ipv6_addrs_roundtrip() {
        let tx = UdpSocket::bind("[::1]:0").unwrap();
        let rx = UdpSocket::bind("[::1]:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dst = rx.local_addr().unwrap();
        send_batch(&tx, &[one(dst, b"six")]).unwrap();
        let mut bufs = vec![vec![0u8; 256]; 2];
        let mut metas = Vec::new();
        recv_batch(&rx, &mut bufs, &mut metas, true).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(&bufs[metas[0].buf][..metas[0].len], b"six");
        assert_eq!(metas[0].addr, tx.local_addr().unwrap());
    }

    /// Send `runs` to a fresh receiver and take back every datagram, as
    /// `(bytes, reported segment size)` per received buffer.
    #[cfg(target_os = "linux")]
    fn gso_roundtrip(gro: bool, runs: &[(usize, usize)]) -> Vec<(Vec<u8>, usize)> {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if gro {
            enable_gro(&rx);
        }
        let dst = rx.local_addr().unwrap();
        // Frame `k` of a run is `segment` bytes of `k`, the last one byte
        // shorter.
        let bodies: Vec<Vec<u8>> = runs
            .iter()
            .map(|&(frames, segment)| {
                (0..frames)
                    .flat_map(|k| {
                        let len = if k + 1 == frames {
                            segment - 1
                        } else {
                            segment
                        };
                        std::iter::repeat_n(k as u8, len)
                    })
                    .collect()
            })
            .collect();
        let entries: Vec<Run> = runs
            .iter()
            .zip(&bodies)
            .map(|(&(frames, segment), bytes)| Run {
                addr: dst,
                bytes,
                segment,
                frames,
            })
            .collect();
        assert_eq!(send_batch(&tx, &entries).unwrap(), entries.len());
        let total: usize = runs.iter().map(|&(frames, _)| frames).sum();
        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 65536]).collect();
        let mut got = Vec::new();
        let mut datagrams = 0;
        while datagrams < total {
            let mut metas = Vec::new();
            recv_batch(&rx, &mut bufs, &mut metas, true).expect("recv batch");
            for m in metas {
                datagrams += segments(&bufs[m.buf][..m.len], m.segment).count();
                got.push((bufs[m.buf][..m.len].to_vec(), m.segment));
            }
        }
        got
    }

    /// One `sendmmsg` entry of five frames is five datagrams on the wire: a
    /// receiver without GRO reads them one by one, a receiver with it reads
    /// one buffer and the segment size to cut it at.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_run_crosses_as_one_and_splits_back() {
        let apart = gso_roundtrip(false, &[(5, 100)]);
        let sizes: Vec<(usize, usize)> = apart.iter().map(|(b, s)| (b.len(), *s)).collect();
        assert_eq!(sizes, [(100, 0), (100, 0), (100, 0), (100, 0), (99, 0)]);
        for (k, (bytes, _)) in apart.iter().enumerate() {
            assert!(bytes.iter().all(|&b| b == k as u8), "datagram {k}");
        }
        let whole = gso_roundtrip(true, &[(5, 100)]);
        assert_eq!(whole.len(), 1, "one buffer");
        let (bytes, segment) = &whole[0];
        assert_eq!(*segment, 100);
        let cut: Vec<&[u8]> = segments(bytes, *segment).collect();
        assert_eq!(cut.len(), 5);
        for (k, piece) in cut.iter().enumerate() {
            let len = if k == 4 { 99 } else { 100 };
            assert_eq!(*piece, vec![k as u8; len].as_slice(), "datagram {k}");
        }
        // A lone datagram on a GRO socket reports no segment size.
        let lone = gso_roundtrip(true, &[(1, 40)]);
        assert_eq!(lone.len(), 1);
        assert_eq!(lone[0].0.len(), 39);
        assert_eq!(segments(&lone[0].0, lone[0].1).count(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn only_segmentation_refusals_switch_runs_off() {
        for errno in [5, 22, 92] {
            assert!(refuses_segmentation(&io::Error::from_raw_os_error(errno)));
        }
        for errno in [1, 11, 90, 105, 111] {
            assert!(!refuses_segmentation(&io::Error::from_raw_os_error(errno)));
        }
        assert!(!refuses_segmentation(&io::ErrorKind::WouldBlock.into()));
    }
}
