//! Batched wire I/O: `sendmmsg` / `recvmmsg` behind a portable seam.
//!
//! One syscall per 1432-byte datagram tops out at ~170 MiB/s on loopback
//! (EXPERIMENTS.md §5). These helpers move a whole vector of datagrams per
//! kernel crossing:
//!
//! * [`send_batch`] — hand a slice of `(SocketAddr, framed bytes)` pairs to
//!   `sendmmsg`; returns how many of them the kernel accepted (always a
//!   prefix), so the caller retries the remainder and sees `WouldBlock`
//!   only when the *next* datagram cannot be queued.
//! * [`recv_batch`] — `recvmmsg` with `MSG_WAITFORONE`: block (bounded by
//!   the socket's read timeout) until at least one datagram arrives, then
//!   drain everything else already queued, up to the vector length, without
//!   blocking again; or, not blocking at all, only what is already queued.
//! * [`wait_readable`] — `ppoll` for a wait shorter or more exact than the
//!   socket's read timeout, which the kernel counts in scheduler ticks.
//!
//! The FFI surface is declared locally against the C library that `std`
//! already links on Linux — no new dependency — and kept to the exact
//! subset used here. Off Linux the same two functions degrade to
//! `send_to`/`recv_from` loops with identical semantics (a batch size of 1
//! per syscall), so `UdpLink` never needs platform knowledge of its own.

use std::net::{SocketAddr, UdpSocket};

/// Largest payload a single UDP/IPv4 datagram can carry
/// (65535 − 8-byte UDP header − 20-byte IP header). Frames above this can
/// never leave the socket; [`UdpLinkConfig`](crate::UdpLinkConfig) clamps
/// its payload bound under it.
pub const UDP_MAX_DATAGRAM: usize = 65507;

/// One received datagram's placement: which buffer it landed in, how many
/// bytes, and the sender's socket address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvMeta {
    /// Index into the caller's buffer slice.
    pub buf: usize,
    /// Datagram length in bytes.
    pub len: usize,
    /// Source socket address.
    pub addr: SocketAddr,
}

#[cfg(target_os = "linux")]
pub(crate) use linux::{recv_batch, send_batch, set_buffer_sizes, wait_readable};

#[cfg(not(target_os = "linux"))]
pub(crate) use portable::{recv_batch, send_batch, set_buffer_sizes, wait_readable};

#[cfg(target_os = "linux")]
mod linux {
    use super::{RecvMeta, SocketAddr, UdpSocket};
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

    /// Send `frames` (already wire-framed) in one `sendmmsg` call. Returns
    /// how many leading frames the kernel accepted; an error is returned
    /// only when the *first* frame failed, exactly the contract the retry
    /// loop in `UdpLink` wants.
    pub(crate) fn send_batch(
        socket: &UdpSocket,
        frames: &[(SocketAddr, Vec<u8>)],
    ) -> io::Result<usize> {
        debug_assert!(!frames.is_empty());
        let mut addrs: Vec<(AddrStorage, u32)> =
            frames.iter().map(|(a, _)| encode_addr(a)).collect();
        let mut iovs: Vec<IoVec> = frames
            .iter()
            .map(|(_, b)| IoVec {
                base: b.as_ptr() as *mut u8,
                len: b.len(),
            })
            .collect();
        let aptr = addrs.as_mut_ptr();
        let iptr = iovs.as_mut_ptr();
        let mut hdrs: Vec<MMsgHdr> = (0..frames.len())
            .map(|i| unsafe {
                MMsgHdr {
                    hdr: MsgHdr {
                        name: &mut (*aptr.add(i)).0,
                        namelen: (*aptr.add(i)).1,
                        iov: iptr.add(i),
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
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

    /// Drain up to `bufs.len()` datagrams in one `recvmmsg` call. With
    /// `block`, waits only for the first (bounded by the socket's
    /// `SO_RCVTIMEO`, so the rx thread's shutdown poll still works);
    /// without, fails with `WouldBlock` when nothing is queued. Everything
    /// already queued rides along free. Successful receives are appended to
    /// `out`.
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
        let aptr = addrs.as_mut_ptr();
        let iptr = iovs.as_mut_ptr();
        let mut hdrs: Vec<MMsgHdr> = (0..bufs.len())
            .map(|i| unsafe {
                MMsgHdr {
                    hdr: MsgHdr {
                        name: aptr.add(i),
                        namelen: 28,
                        iov: iptr.add(i),
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
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
                });
            }
        }
        Ok(n as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod portable {
    use super::{RecvMeta, SocketAddr, UdpSocket};
    use std::io;
    use std::time::Duration;

    /// Per-datagram `send_to` loop with `sendmmsg` result semantics: a
    /// prefix count on partial progress, an error only when the first
    /// datagram failed.
    pub(crate) fn send_batch(
        socket: &UdpSocket,
        frames: &[(SocketAddr, Vec<u8>)],
    ) -> io::Result<usize> {
        let mut sent = 0;
        for (addr, buf) in frames {
            match socket.send_to(buf, *addr) {
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
        out.push(RecvMeta { buf: 0, len, addr });
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

    #[test]
    fn batch_roundtrip_over_loopback() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dst = rx.local_addr().unwrap();

        let frames: Vec<(SocketAddr, Vec<u8>)> =
            (0..5u8).map(|i| (dst, vec![i; 64 + i as usize])).collect();
        let mut done = 0;
        while done < frames.len() {
            done += send_batch(&tx, &frames[done..]).expect("send batch");
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
        send_batch(&tx, &[(dst, b"six".to_vec())]).unwrap();
        let mut bufs = vec![vec![0u8; 256]; 2];
        let mut metas = Vec::new();
        recv_batch(&rx, &mut bufs, &mut metas, true).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(&bufs[metas[0].buf][..metas[0].len], b"six");
        assert_eq!(metas[0].addr, tx.local_addr().unwrap());
    }
}
