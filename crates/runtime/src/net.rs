//! Nonblocking TCP connect for the epoll reactor.
//!
//! `std` has no way to *start* a TCP connection without blocking: the
//! socket only becomes nonblocking after [`std::net::TcpStream::connect`]
//! has already returned. A reactor-driven client needs the opposite —
//! create the socket in nonblocking mode, issue `connect(2)`, and let
//! `EINPROGRESS` hand the rest to epoll's writability notification.
//!
//! This module adds exactly that, with the same hand-rolled no-new-deps
//! discipline as [`crate::reactor`]: a two-function `extern "C"` glibc
//! shim (`socket`, `connect`) inside a scoped `#[allow(unsafe_code)]`
//! block, plus one `FromRawFd` conversion that hands the freshly created
//! fd to a [`TcpStream`] for safe ownership. Completion is later
//! detected entirely in safe code: when the reactor reports the socket
//! writable, `TcpStream::take_error()` yields `None` for an established
//! connection and the deferred `ECONNREFUSED`-style error otherwise.

use std::io;
use std::net::{SocketAddr, TcpStream};

/// Outcome of [`tcp_connect_nonblocking`]: either the three-way
/// handshake finished immediately (loopback often does), or it is in
/// flight and the socket should be registered for writability.
#[derive(Debug)]
pub enum ConnectStart {
    /// The connection is already established; the stream is nonblocking.
    Connected(TcpStream),
    /// `connect(2)` returned `EINPROGRESS`: register the stream with the
    /// reactor ([`crate::Interest::WRITABLE`]) and, once writable, call
    /// [`TcpStream::take_error`] to learn whether the handshake
    /// succeeded.
    Pending(TcpStream),
}

impl ConnectStart {
    /// The stream, regardless of handshake progress.
    pub fn stream(&self) -> &TcpStream {
        match self {
            ConnectStart::Connected(s) | ConnectStart::Pending(s) => s,
        }
    }
}

/// Starts a TCP connection without ever blocking the caller.
///
/// The returned stream is in nonblocking mode, carries `TCP_NODELAY`
/// (every caller writes small requests or frames it wants sent at once,
/// and a stream it pools keeps the option) and owns its fd (close on
/// drop, `CLOEXEC` set at creation). On non-Linux targets this reports
/// `Unsupported`, mirroring [`crate::Reactor::new`].
pub fn tcp_connect_nonblocking(addr: SocketAddr) -> io::Result<ConnectStart> {
    let start = sys::start_connect(addr)?;
    start.stream().set_nodelay(true)?;
    Ok(start)
}

/// The `extern "C"` shim — `socket(2)` + `connect(2)`, each wrapped in a
/// safe function that turns `-1` into `io::Error::last_os_error()`. The
/// `sockaddr_in{,6}` mirrors are the kernel's own layouts; ports and
/// IPv4 addresses are stored big-endian as the ABI requires.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use super::ConnectStart;
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const EINPROGRESS: i32 = 115;

    /// Mirror of the kernel's `struct sockaddr_in`.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16, // big-endian
        sin_addr: u32, // big-endian
        sin_zero: [u8; 8],
    }

    /// Mirror of the kernel's `struct sockaddr_in6`.
    #[repr(C)]
    struct SockaddrIn6 {
        sin6_family: u16,
        sin6_port: u16, // big-endian
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, addrlen: u32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn start_connect(addr: SocketAddr) -> io::Result<ConnectStart> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }

        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockaddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from(*v4.ip()).to_be(),
                    sin_zero: [0; 8],
                };
                unsafe {
                    connect(
                        fd,
                        &sa as *const SockaddrIn as *const u8,
                        std::mem::size_of::<SockaddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockaddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                unsafe {
                    connect(
                        fd,
                        &sa as *const SockaddrIn6 as *const u8,
                        std::mem::size_of::<SockaddrIn6>() as u32,
                    )
                }
            }
        };

        if rc == 0 {
            // Loopback fast path: the handshake completed inline.
            let stream = unsafe { TcpStream::from_raw_fd(fd) };
            return Ok(ConnectStart::Connected(stream));
        }

        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINPROGRESS) {
            let stream = unsafe { TcpStream::from_raw_fd(fd) };
            return Ok(ConnectStart::Pending(stream));
        }

        unsafe {
            close(fd);
        }
        Err(err)
    }
}

/// Non-Linux stub, mirroring the reactor's: compiles everywhere, reports
/// `Unsupported` at runtime so callers fall back to blocking connects.
#[cfg(not(target_os = "linux"))]
mod sys {
    use super::ConnectStart;
    use std::io;
    use std::net::SocketAddr;

    pub fn start_connect(_addr: SocketAddr) -> io::Result<ConnectStart> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "nonblocking connect requires linux"))
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::{Interest, Reactor};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// Polls the reactor until `stream` reports writable, then checks the
    /// deferred connect error.
    fn await_established(reactor: &mut Reactor, stream: &TcpStream) -> io::Result<()> {
        let mut events = Vec::new();
        let mut fired = Vec::new();
        for _ in 0..200 {
            reactor.poll(&mut events, &mut fired, Some(Duration::from_millis(50))).unwrap();
            if events.iter().any(|e| e.token == 7 && (e.writable || e.error || e.hangup)) {
                return match stream.take_error()? {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
        }
        panic!("connect never resolved");
    }

    #[test]
    fn nonblocking_connect_completes_and_carries_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepter = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
            buf
        });

        let start = tcp_connect_nonblocking(addr).unwrap();
        let mut stream = match start {
            ConnectStart::Connected(s) => s,
            ConnectStart::Pending(s) => {
                let mut reactor = Reactor::new().unwrap();
                reactor.register(s.as_raw_fd(), 7, Interest::WRITABLE).unwrap();
                await_established(&mut reactor, &s).unwrap();
                reactor.deregister(s.as_raw_fd()).unwrap();
                s
            }
        };

        // The stream is nonblocking; switch to blocking for the echo check.
        stream.set_nonblocking(false).unwrap();
        stream.write_all(b"ping").unwrap();
        let mut back = [0u8; 4];
        stream.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping");
        assert_eq!(accepter.join().unwrap(), *b"ping");
    }

    #[test]
    fn refused_connect_surfaces_the_deferred_error() {
        // Bind then drop a listener to find a port that refuses.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        match tcp_connect_nonblocking(addr) {
            Err(_) => {} // refused inline — also acceptable
            Ok(ConnectStart::Connected(_)) => panic!("connected to a dead port"),
            Ok(ConnectStart::Pending(s)) => {
                let mut reactor = Reactor::new().unwrap();
                reactor.register(s.as_raw_fd(), 7, Interest::WRITABLE).unwrap();
                let err = await_established(&mut reactor, &s).expect_err("dead port must refuse");
                assert!(err.kind() == io::ErrorKind::ConnectionRefused, "{err:?}");
            }
        }
    }
}
