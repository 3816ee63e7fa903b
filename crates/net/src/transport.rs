//! Non-blocking UDP transport: socket wrapper, readiness polling,
//! datagram addressing, and deterministic loss injection.
//!
//! One socket serves every engine hosted by a runtime thread (file
//! descriptors are scarce next to engines), so each datagram carries a
//! destination identifier in front of the wire frame:
//!
//! ```text
//! [to: packed id]  [frame: see hyperring-wire]
//! ```
//!
//! [`UdpNetwork`](crate::UdpNetwork) and
//! [`LoopbackCarrier`](crate::LoopbackCarrier) both send this one format.
//! Readiness is poll(2) via a hand-declared FFI binding — the build is
//! offline, so no libc crate — gated to unix; elsewhere the endpoint
//! degrades to short receive timeouts.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use hyperring_core::Message;
use hyperring_id::{IdSpace, NodeId};
use hyperring_wire::{decode_datagram, decode_id, encode_frame, encode_id, WireError};

/// Readiness: wait for the socket to become readable.
pub const WAIT_READ: i16 = 0x001; // POLLIN
/// Readiness: wait for the socket to accept more output.
pub const WAIT_WRITE: i16 = 0x004; // POLLOUT

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
        #[cfg(target_os = "linux")]
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> i32;
    }

    /// Best-effort bump of the kernel send/receive buffers (many engines
    /// share one socket, so the default ~200 KiB of slack overflows — and
    /// UDP drops silently — during join-wave bursts). The kernel clamps
    /// the request to `net.core.{r,w}mem_max`; failure is ignored, it
    /// only lowers the overload ceiling.
    #[cfg(target_os = "linux")]
    pub fn grow_buffers(fd: RawFd, bytes: i32) {
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        const SO_RCVBUF: i32 = 8;
        for opt in [SO_SNDBUF, SO_RCVBUF] {
            // SAFETY: optval points at a live i32 and optlen matches it.
            unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&bytes as *const i32).cast(),
                    std::mem::size_of::<i32>() as u32,
                );
            }
        }
    }

    /// Blocks until `fd` is ready for `events` or `timeout_ms` elapses.
    /// Returns the ready events (0 on timeout).
    pub fn wait(fd: RawFd, events: i16, timeout_ms: i32) -> io::Result<i16> {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        // SAFETY: `pfd` is a properly initialized pollfd and lives across
        // the call; nfds is 1.
        let rc = unsafe { poll(&mut pfd, 1, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0); // treat EINTR as a timeout; callers re-poll
            }
            return Err(err);
        }
        Ok(if rc == 0 { 0 } else { pfd.revents })
    }
}

/// A non-blocking UDP socket bound to the loopback interface.
#[derive(Debug)]
pub struct UdpEndpoint {
    socket: UdpSocket,
}

impl UdpEndpoint {
    /// Binds a fresh non-blocking socket to `127.0.0.1:0`.
    pub fn bind() -> io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            sys::grow_buffers(socket.as_raw_fd(), 4 << 20);
        }
        Ok(UdpEndpoint { socket })
    }

    /// The bound address (the port is kernel-assigned).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Attempts to send one datagram. Returns `Ok(false)` when the socket
    /// would block (caller keeps the datagram queued and waits for
    /// [`WAIT_WRITE`] readiness).
    pub fn try_send(&self, bytes: &[u8], to: SocketAddr) -> io::Result<bool> {
        match self.socket.send_to(bytes, to) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            // The kernel can report a previous datagram's failure (e.g.
            // ECONNREFUSED from a closed peer port) on this call; the
            // protocol treats it as loss.
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// Attempts to receive one datagram into `buf`. Returns `None` when
    /// the socket would block.
    pub fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        match self.socket.recv_from(buf) {
            Ok((n, from)) => Ok(Some((n, from))),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Waits until the socket is ready for `events` (a bitmask of
    /// [`WAIT_READ`] / [`WAIT_WRITE`]) or the timeout passes. Returns the
    /// ready events, 0 on timeout.
    #[cfg(unix)]
    pub fn wait(&self, events: i16, timeout: Duration) -> io::Result<i16> {
        use std::os::fd::AsRawFd;
        // Round sub-millisecond timeouts up: poll(2) only has millisecond
        // resolution and a 0 would busy-spin the caller.
        let ms = timeout
            .as_millis()
            .max(u128::from(!timeout.is_zero()))
            .min(i32::MAX as u128) as i32;
        sys::wait(self.socket.as_raw_fd(), events, ms)
    }

    /// Portable fallback: without poll(2), pretend readiness after a short
    /// sleep — the non-blocking calls above report `WouldBlock` truthfully
    /// either way, this only costs latency.
    #[cfg(not(unix))]
    pub fn wait(&self, events: i16, timeout: Duration) -> io::Result<i16> {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        Ok(events)
    }
}

/// Appends `[to][frame(from, msg)]` onto `buf`; returns the datagram
/// length.
pub fn encode_plain(
    space: &IdSpace,
    to: NodeId,
    from: NodeId,
    msg: &Message,
    buf: &mut Vec<u8>,
) -> usize {
    let start = buf.len();
    encode_id(space, &to, buf);
    encode_frame(space, from, msg, buf);
    buf.len() - start
}

/// Decodes a `[to][frame]` datagram.
pub fn decode_plain(space: &IdSpace, bytes: &[u8]) -> Result<(NodeId, NodeId, Message), WireError> {
    let (to, used) = decode_id(space, bytes)?;
    let (from, msg) = decode_datagram(space, &bytes[used..])?;
    Ok((to, from, msg))
}

/// Deterministic receive-side packet-loss injector (xorshift64*, one per
/// runtime thread, so a seeded run drops a reproducible pseudo-random
/// subset of its arrivals).
#[derive(Debug)]
pub struct LossInjector {
    state: u64,
    drop_permille: u32,
}

impl LossInjector {
    /// An injector dropping roughly `drop_permille`/1000 of arrivals.
    pub fn new(seed: u64, drop_permille: u32) -> Self {
        LossInjector {
            state: seed | 1, // xorshift state must be non-zero
            drop_permille: drop_permille.min(1000),
        }
    }

    /// Whether to drop the next arrival.
    pub fn drop_next(&mut self) -> bool {
        if self.drop_permille == 0 {
            return false;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let sample = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32;
        (sample % 1000) < u64::from(self.drop_permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::new(4, 5).unwrap()
    }

    #[test]
    fn plain_datagram_round_trips_through_a_real_socket() {
        let sp = space();
        let a = UdpEndpoint::bind().unwrap();
        let b = UdpEndpoint::bind().unwrap();
        let to = sp.parse_id("01230").unwrap();
        let from = sp.parse_id("32101").unwrap();
        let mut out = Vec::new();
        encode_plain(&sp, to, from, &Message::CpRst { level: 2 }, &mut out);
        assert!(a.try_send(&out, b.local_addr().unwrap()).unwrap());
        assert!(b.wait(WAIT_READ, Duration::from_secs(5)).unwrap() & WAIT_READ != 0);
        let mut buf = [0u8; 2048];
        let (n, _) = b.try_recv(&mut buf).unwrap().expect("datagram arrived");
        let (got_to, got_from, msg) = decode_plain(&sp, &buf[..n]).unwrap();
        assert_eq!((got_to, got_from), (to, from));
        assert!(matches!(msg, Message::CpRst { level: 2 }));
        for len in 0..n {
            assert!(
                decode_plain(&sp, &buf[..len]).is_err(),
                "a {len}-byte prefix of a {n}-byte datagram decoded"
            );
        }
    }

    #[test]
    fn loss_injector_is_deterministic_and_calibrated() {
        let drops = |seed: u64| -> (u32, Vec<bool>) {
            let mut inj = LossInjector::new(seed, 100); // 10%
            let pattern: Vec<bool> = (0..10_000).map(|_| inj.drop_next()).collect();
            (pattern.iter().filter(|&&d| d).count() as u32, pattern)
        };
        let (count_a, pattern_a) = drops(7);
        let (_, pattern_b) = drops(7);
        assert_eq!(pattern_a, pattern_b, "same seed, same drops");
        assert!((800..1200).contains(&count_a), "{count_a} drops out of 10k");
        let mut none = LossInjector::new(7, 0);
        assert!((0..1000).all(|_| !none.drop_next()));
    }
}
