//! A small, dependency-free epoll reactor: the event loop under the
//! serving cores of `hre-svc` and `hre-cluster` and under each
//! `hre-ctrl` endpoint (all driven by `hre_svc::front`).
//!
//! One reactor owns one `epoll` instance and three facilities:
//!
//! * **Readiness** — nonblocking fds registered **edge-triggered**
//!   (`EPOLLET | EPOLLRDHUP`) under a caller-chosen `u64` token.
//!   Edge-triggered means a readiness event is delivered once per
//!   *transition*: on a readable event the owner must read until
//!   `WouldBlock` (and symmetrically for writable) or it will never
//!   hear about that fd again.
//! * **Timers** — a min-heap timer queue ([`Reactor::set_timer`]),
//!   the deadline/backoff half of the event loop: request deadlines
//!   (504s), hedge triggers, idle sweeps. Fired timers come back as
//!   tokens from [`Reactor::poll`]; [`Reactor::cancel_timer`] is O(1)
//!   (lazy deletion on pop).
//! * **Cross-thread wakeup** — a [`Waker`] (clonable, `Send`) that any
//!   thread can ping to pop the reactor out of `epoll_wait`; worker
//!   threads use it to announce completed jobs queued for a
//!   connection. Internally a nonblocking socketpair registered under
//!   the reserved [`WAKE_TOKEN`]: a full pipe means a wake is already
//!   pending, so `wake` never blocks.
//!
//! The syscall surface is a four-function `extern "C"` shim against
//! glibc (`epoll_create1` / `epoll_ctl` / `epoll_wait` / `close`) in
//! the [`sys`] module — the same no-new-deps discipline as the
//! hand-rolled HTTP layer and the vendored `signal-hook`. Everything
//! that can be done with safe std **is**: fds come from
//! `std::net`/`std::os::unix::net` types switched to nonblocking mode
//! via `set_nonblocking` (std's safe wrapper over `fcntl`), and the
//! wake pipe is a `UnixStream::pair`. The shim is the only
//! `#[allow(unsafe_code)]` in the crate.
//!
//! The reactor is deliberately *not* an executor: it hands back plain
//! `(token, readiness)` pairs and fired timer tokens, and the daemons
//! drive their per-connection state machines on top. That keeps the
//! hot loop transparent to the flight recorder and the metrics
//! reconciliation tests that pin serving behavior.

use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};

/// Token reserved for the reactor's internal wake pipe. User
/// registrations and timers must choose tokens below this.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Which readiness transitions a registration subscribes to. Always
/// edge-triggered; hangup/error are always delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer half-closes).
    pub readable: bool,
    /// Wake when the fd becomes writable again.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle keep-alive connection.
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    /// Writable only.
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    /// Both directions — a connection with a partially flushed response.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
}

/// One readiness event out of [`Reactor::poll`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// The peer closed or half-closed (EPOLLHUP / EPOLLRDHUP).
    pub hangup: bool,
    /// The fd is in an error state; the owner should close it.
    pub error: bool,
}

/// Handle for cancelling a pending timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerKey(u64);

/// What one [`Reactor::poll`] call observed beyond events and timers.
#[derive(Clone, Copy, Debug, Default)]
pub struct PollOutcome {
    /// A [`Waker`] pinged the reactor since the last poll.
    pub woken: bool,
}

/// Cross-thread wake handle: ping the reactor out of `epoll_wait`.
/// Cheap to clone, safe to use from any thread, never blocks.
#[derive(Clone)]
pub struct Waker {
    pipe: std::sync::Arc<imp::WakePipe>,
}

impl Waker {
    /// Wakes the reactor. A no-op error-wise: if the wake pipe is full
    /// a wake is already pending, and if the reactor is gone there is
    /// nobody left to wake.
    pub fn wake(&self) {
        self.pipe.ping();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// A timer queue entry; the heap is a min-heap on `(at, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TimerEntry {
    at: Instant,
    seq: u64,
    token: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The epoll reactor. One per event-loop thread; not `Sync` — only the
/// [`Waker`] crosses threads.
pub struct Reactor {
    ep: imp::Epoll,
    wake: std::sync::Arc<imp::WakePipe>,
    timers: BinaryHeap<TimerEntry>,
    cancelled: HashSet<u64>,
    next_timer_seq: u64,
    wakeups: u64,
    buf: Vec<sys::EpollEvent>,
}

impl Reactor {
    /// A fresh reactor with its wake pipe registered. Errors with
    /// `Unsupported` on platforms without epoll.
    pub fn new() -> io::Result<Reactor> {
        let ep = imp::Epoll::new()?;
        let wake = std::sync::Arc::new(imp::WakePipe::new()?);
        ep.ctl(sys::EPOLL_CTL_ADD, wake.read_fd(), WAKE_TOKEN, Interest::READABLE)?;
        Ok(Reactor {
            ep,
            wake,
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_timer_seq: 0,
            wakeups: 0,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// A cross-thread wake handle for this reactor.
    pub fn waker(&self) -> Waker {
        Waker { pipe: std::sync::Arc::clone(&self.wake) }
    }

    /// Registers `fd` (which must already be nonblocking) under `token`,
    /// edge-triggered. `token` must be below [`WAKE_TOKEN`].
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert!(token < WAKE_TOKEN, "token collides with the wake pipe");
        self.ep.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set (or token) of an already registered fd.
    pub fn reregister(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ep.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the epoll set. Closing the fd also removes it,
    /// so this is only needed to keep an fd open but silent.
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        self.ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest { readable: false, writable: false })
    }

    /// Arms a timer that fires `after` from now, delivering `token`
    /// from the [`Reactor::poll`] that observes it expire.
    pub fn set_timer(&mut self, after: Duration, token: u64) -> TimerKey {
        self.set_timer_at(Instant::now() + after, token)
    }

    /// Arms a timer for an absolute instant.
    pub fn set_timer_at(&mut self, at: Instant, token: u64) -> TimerKey {
        let seq = self.next_timer_seq;
        self.next_timer_seq += 1;
        self.timers.push(TimerEntry { at, seq, token });
        TimerKey(seq)
    }

    /// Cancels a pending timer. Cancelling an already-fired (or
    /// already-cancelled) timer is a no-op.
    pub fn cancel_timer(&mut self, key: TimerKey) {
        self.cancelled.insert(key.0);
    }

    /// How many times `epoll_wait` has returned — i.e. how often the
    /// reactor woke for events, timers, or wake pings. Exported as
    /// `hre_reactor_wakeups_total`.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Discards timers whose heap entries were lazily cancelled and
    /// returns the deadline of the next live timer.
    fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(top) = self.timers.peek() {
            if self.cancelled.remove(&top.seq) {
                self.timers.pop();
            } else {
                return Some(top.at);
            }
        }
        None
    }

    /// Waits for readiness events, fired timers, or a wake — whichever
    /// comes first, bounded by `timeout` (None = wait indefinitely for
    /// the above). Readiness lands in `events`, fired timer tokens in
    /// `fired`; both are cleared first.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        fired: &mut Vec<u64>,
        timeout: Option<Duration>,
    ) -> io::Result<PollOutcome> {
        events.clear();
        fired.clear();

        let now = Instant::now();
        let timer_wait = self.next_deadline().map(|at| at.saturating_duration_since(now));
        let wait = match (timeout, timer_wait) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let timeout_ms: i32 = match wait {
            // Round up so a sub-millisecond timer sleeps 1 ms instead of
            // busy-spinning at 0.
            Some(d) => {
                let ms = d.as_millis();
                let ms = if Duration::from_millis(ms as u64) < d { ms + 1 } else { ms };
                ms.min(i32::MAX as u128) as i32
            }
            None => -1,
        };

        let n = match self.ep.wait(&mut self.buf, timeout_ms) {
            Ok(n) => n,
            // A signal (e.g. the drain SIGTERM) interrupting the wait is
            // an empty wakeup, not an error.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        self.wakeups += 1;

        let mut outcome = PollOutcome::default();
        for i in 0..n {
            let raw = self.buf[i];
            let bits = raw.events;
            let token = raw.data;
            if token == WAKE_TOKEN {
                self.wake.drain();
                outcome.woken = true;
                continue;
            }
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }

        // Expire timers against a fresh clock so a long epoll_wait
        // cannot miss deadlines that passed while blocked.
        let now = Instant::now();
        while let Some(top) = self.timers.peek() {
            if self.cancelled.remove(&top.seq) {
                self.timers.pop();
            } else if top.at <= now {
                fired.push(self.timers.pop().expect("peeked").token);
            } else {
                break;
            }
        }
        Ok(outcome)
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("timers", &self.timers.len())
            .field("wakeups", &self.wakeups)
            .finish()
    }
}

/// The `extern "C"` syscall shim — the crate's entire unsafe surface.
/// Four glibc entry points, each wrapped in a safe function that turns
/// `-1` into `io::Error::last_os_error()`. The `epoll_event` layout is
/// packed on x86_64 exactly as glibc declares it (`__EPOLL_PACKED`),
/// and naturally aligned elsewhere.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    /// Mirror of glibc's `struct epoll_event`.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn create() -> io::Result<i32> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    pub fn ctl(epfd: i32, op: i32, fd: i32, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
        let ptr = if event.is_some() { &mut ev as *mut EpollEvent } else { std::ptr::null_mut() };
        let rc = unsafe { epoll_ctl(epfd, op, fd, ptr) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    pub fn close_fd(fd: i32) {
        unsafe {
            close(fd);
        }
    }
}

/// Non-Linux stub: the types exist so the crate compiles everywhere,
/// but [`super::Reactor::new`] reports `Unsupported` at runtime, so the
/// daemons refuse to start.
#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "the epoll reactor requires linux")
    }

    pub fn create() -> io::Result<i32> {
        Err(unsupported())
    }

    pub fn ctl(_: i32, _: i32, _: i32, _: Option<EpollEvent>) -> io::Result<()> {
        Err(unsupported())
    }

    pub fn wait(_: i32, _: &mut [EpollEvent], _: i32) -> io::Result<usize> {
        Err(unsupported())
    }

    pub fn close_fd(_: i32) {}
}

/// Safe wrappers that own the raw fds: the epoll instance and the wake
/// socketpair. All platform-specific plumbing below uses safe std APIs
/// only; the raw syscalls stay in [`sys`].
mod imp {
    use super::{sys, Interest};
    use std::io;

    /// Owned epoll fd, closed on drop.
    pub struct Epoll {
        fd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            Ok(Epoll { fd: sys::create()? })
        }

        pub fn ctl(&self, op: i32, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            if op == sys::EPOLL_CTL_DEL {
                return sys::ctl(self.fd, op, fd, None);
            }
            let mut bits = sys::EPOLLET | sys::EPOLLRDHUP;
            if interest.readable {
                bits |= sys::EPOLLIN;
            }
            if interest.writable {
                bits |= sys::EPOLLOUT;
            }
            sys::ctl(self.fd, op, fd, Some(sys::EpollEvent { events: bits, data: token }))
        }

        pub fn wait(&self, buf: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            sys::wait(self.fd, buf, timeout_ms)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            sys::close_fd(self.fd);
        }
    }

    #[cfg(unix)]
    pub struct WakePipe {
        tx: std::os::unix::net::UnixStream,
        rx: std::os::unix::net::UnixStream,
    }

    #[cfg(unix)]
    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(WakePipe { tx, rx })
        }

        pub fn read_fd(&self) -> i32 {
            use std::os::fd::AsRawFd;
            self.rx.as_raw_fd()
        }

        /// One byte into the pipe; a full pipe already guarantees a
        /// pending wake, so `WouldBlock` is success.
        pub fn ping(&self) {
            use std::io::Write;
            let _ = (&self.tx).write(&[1u8]);
        }

        /// Drains pending wake bytes so the edge-triggered registration
        /// re-arms.
        pub fn drain(&self) {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while let Ok(n) = (&self.rx).read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        }
    }

    #[cfg(not(unix))]
    pub struct WakePipe;

    #[cfg(not(unix))]
    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "the epoll reactor requires linux"))
        }

        pub fn read_fd(&self) -> i32 {
            -1
        }

        pub fn ping(&self) {}

        pub fn drain(&self) {}
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn poll_once(r: &mut Reactor, timeout: Duration) -> (Vec<Event>, Vec<u64>, PollOutcome) {
        let mut events = Vec::new();
        let mut fired = Vec::new();
        let out = r.poll(&mut events, &mut fired, Some(timeout)).expect("poll");
        (events, fired, out)
    }

    #[test]
    fn waker_pops_poll_from_another_thread() {
        let mut r = Reactor::new().expect("reactor");
        let waker = r.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let started = Instant::now();
        let (events, fired, out) = poll_once(&mut r, Duration::from_secs(5));
        t.join().unwrap();
        assert!(out.woken);
        assert!(events.is_empty() && fired.is_empty());
        assert!(started.elapsed() < Duration::from_secs(2), "wake did not interrupt the wait");
        // Coalesced wakes drain in one poll: many pings, one wake.
        let waker = r.waker();
        for _ in 0..100 {
            waker.wake();
        }
        let (_, _, out) = poll_once(&mut r, Duration::from_millis(50));
        assert!(out.woken);
        let (_, _, out) = poll_once(&mut r, Duration::from_millis(10));
        assert!(!out.woken, "stale wake bytes left in the pipe");
    }

    #[test]
    fn timers_fire_in_order_and_cancel_is_honored() {
        let mut r = Reactor::new().expect("reactor");
        let _a = r.set_timer(Duration::from_millis(30), 1);
        let b = r.set_timer(Duration::from_millis(10), 2);
        let _c = r.set_timer(Duration::from_millis(20), 3);
        r.cancel_timer(b);
        let started = Instant::now();
        let mut seen = Vec::new();
        while seen.len() < 2 && started.elapsed() < Duration::from_secs(2) {
            let (_, fired, _) = poll_once(&mut r, Duration::from_millis(100));
            seen.extend(fired);
        }
        assert_eq!(seen, vec![3, 1], "cancelled timer 2 must not fire; order is by deadline");
    }

    #[test]
    fn timer_deadline_bounds_the_wait() {
        let mut r = Reactor::new().expect("reactor");
        r.set_timer(Duration::from_millis(15), 9);
        let started = Instant::now();
        // Caller asks for a 5 s wait; the timer must cut it short.
        let (_, fired, _) = poll_once(&mut r, Duration::from_secs(5));
        let waited = started.elapsed();
        assert_eq!(fired, vec![9]);
        assert!(waited < Duration::from_secs(1), "poll overslept the timer: {waited:?}");
    }

    #[test]
    fn tcp_readiness_edge_triggered_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().unwrap();
        let mut r = Reactor::new().expect("reactor");
        r.register(listener.as_raw_fd(), 1, Interest::READABLE).expect("register listener");

        let mut client = TcpStream::connect(addr).expect("connect");
        // Accept becomes readable on the listener.
        let mut accepted = None;
        let started = Instant::now();
        while accepted.is_none() && started.elapsed() < Duration::from_secs(5) {
            let (events, _, _) = poll_once(&mut r, Duration::from_millis(200));
            if events.iter().any(|e| e.token == 1 && e.readable) {
                let (s, _) = listener.accept().expect("accept");
                s.set_nonblocking(true).expect("nonblocking");
                accepted = Some(s);
            }
        }
        let mut server = accepted.expect("no accept readiness within 5s");
        r.register(server.as_raw_fd(), 2, Interest::READABLE).expect("register conn");

        client.write_all(b"ping").expect("write");
        let mut got = Vec::new();
        let started = Instant::now();
        while got.len() < 4 && started.elapsed() < Duration::from_secs(5) {
            let (events, _, _) = poll_once(&mut r, Duration::from_millis(200));
            for e in events {
                if e.token == 2 && e.readable {
                    // Edge-triggered: drain until WouldBlock.
                    let mut chunk = [0u8; 1024];
                    loop {
                        match server.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(n) => got.extend_from_slice(&chunk[..n]),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) => panic!("read: {e}"),
                        }
                    }
                }
            }
        }
        assert_eq!(got, b"ping");

        // Peer close is a hangup-flavored readable event.
        drop(client);
        let started = Instant::now();
        let mut saw_close = false;
        while !saw_close && started.elapsed() < Duration::from_secs(5) {
            let (events, _, _) = poll_once(&mut r, Duration::from_millis(200));
            saw_close = events.iter().any(|e| e.token == 2 && (e.hangup || e.readable));
        }
        assert!(saw_close, "no hangup event after peer close");
    }

    #[test]
    fn reregister_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let mut r = Reactor::new().expect("reactor");
        // A fresh connected socket is immediately writable.
        r.register(client.as_raw_fd(), 7, Interest::WRITABLE).expect("register");
        let (events, _, _) = poll_once(&mut r, Duration::from_secs(2));
        assert!(events.iter().any(|e| e.token == 7 && e.writable), "{events:?}");
        // Switch to readable-only: no spurious writable storms.
        r.reregister(client.as_raw_fd(), 7, Interest::READABLE).expect("reregister");
        let (events, _, _) = poll_once(&mut r, Duration::from_millis(50));
        assert!(events.iter().all(|e| !(e.token == 7 && e.writable)), "{events:?}");
        r.deregister(client.as_raw_fd()).expect("deregister");
    }
}
