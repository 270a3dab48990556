//! The one socket shell around [`RingMember`].
//!
//! A [`RingSocket`] owns the listener a member's predecessor dials, the
//! connection accepted there and the connection dialed to the
//! successor, all nonblocking on a caller's [`Reactor`] under three
//! caller-chosen tokens (the first also names the member's timer). It
//! carries bytes between the sockets and the member, buffers what the
//! kernel did not take yet, and re-arms the timer at the member's
//! deadline after every input. `run_tcp` gives each ring process a
//! thread and a reactor of its own; a control-plane node runs its
//! round's member on the reactor of its control endpoint.

use crate::member::{Output, RingMember};
use crate::wire::WireMessage;
use hre_runtime::{tcp_connect_nonblocking, ConnectStart, Event, Interest, Reactor};
use hre_runtime::{ThreadOutcome, TimerKey};
use hre_sim::ProcessBehavior;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Instant;

/// Index of the predecessor's connection in [`RingSocket::conns`].
const PRED: usize = 0;
/// Index of the successor's connection.
const SUCC: usize = 1;

/// One connection and the bytes the kernel has not taken yet.
struct Conn {
    tcp: TcpStream,
    out: Vec<u8>,
    /// A dial whose handshake is still in flight.
    connecting: bool,
}

impl Conn {
    /// Writes what the kernel takes; `Err` when the connection broke.
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.tcp.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => drop(self.out.drain(..n)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e),
                Err(_) => {}
            }
        }
        Ok(())
    }

    /// Reads until the kernel has nothing more; `Err` at end of stream or
    /// when the connection broke.
    fn read_all(&mut self, into: &mut Vec<u8>) -> std::io::Result<()> {
        let mut buf = [0u8; 4096];
        loop {
            match self.tcp.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => into.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e),
                Err(_) => {}
            }
        }
    }
}

/// A [`RingMember`] on a reactor; see the module docs.
pub struct RingSocket<P: ProcessBehavior> {
    member: RingMember<P>,
    listener: TcpListener,
    successor: SocketAddr,
    /// The listener's token, then the predecessor's and the successor's
    /// connection's.
    tokens: [u64; 3],
    conns: [Option<Conn>; 2],
    timer: Option<(Instant, TimerKey)>,
    /// The process's outcome, not yet taken.
    done: Option<ThreadOutcome>,
}

impl<P> RingSocket<P>
where
    P: ProcessBehavior,
    P::Msg: WireMessage,
{
    /// Puts a started `member` on `reactor`. `listener` must be
    /// nonblocking and registered readable under `tokens[0]`; a
    /// predecessor that dialed it before now is accepted at once.
    pub fn start(
        member: RingMember<P>,
        listener: TcpListener,
        successor: SocketAddr,
        tokens: [u64; 3],
        reactor: &mut Reactor,
    ) -> RingSocket<P> {
        let conns = [None, None];
        let mut socket =
            RingSocket { member, listener, successor, tokens, conns, timer: None, done: None };
        socket.accept(reactor);
        socket.apply(reactor);
        socket
    }

    /// Whether `token` is one of this socket's.
    pub fn owns(&self, token: u64) -> bool {
        self.tokens.contains(&token)
    }

    /// The member.
    pub fn member(&self) -> &RingMember<P> {
        &self.member
    }

    /// The process's outcome, once, as soon as it finished.
    pub fn take_done(&mut self) -> Option<ThreadOutcome> {
        self.done.take()
    }

    /// Readiness on one of this socket's tokens.
    pub fn event(&mut self, reactor: &mut Reactor, ev: Event) {
        match self.tokens.iter().position(|t| *t == ev.token) {
            Some(0) => self.accept(reactor),
            Some(i) => self.io(i - 1, ev, Instant::now()),
            None => {}
        }
        self.apply(reactor);
    }

    /// The timer armed under `tokens[0]` fired.
    pub fn timer(&mut self, reactor: &mut Reactor) {
        self.timer = None;
        self.member.on_timer(Instant::now());
        self.apply(reactor);
    }

    /// Accepts every pending dial. The newest connection replaces the
    /// one before it: the predecessor dials again only after it gave its
    /// last connection up.
    fn accept(&mut self, reactor: &mut Reactor) {
        while let Ok((tcp, _)) = self.listener.accept() {
            self.conns[PRED] = None;
            let _ = tcp.set_nodelay(true);
            if tcp.set_nonblocking(true).is_ok()
                && reactor.register(tcp.as_raw_fd(), self.tokens[1], Interest::BOTH).is_ok()
            {
                self.member.on_predecessor_open();
                self.conns[PRED] = Some(Conn { tcp, out: Vec::new(), connecting: false });
            }
        }
    }

    /// Readiness on the predecessor's (`side` 0) or the successor's
    /// connection.
    fn io(&mut self, side: usize, ev: Event, now: Instant) {
        let Some(conn) = self.conns[side].as_mut() else { return };
        if conn.connecting {
            if ev.writable || ev.hangup || ev.error {
                let ok = matches!(conn.tcp.take_error(), Ok(None)) && conn.tcp.peer_addr().is_ok();
                conn.connecting = false;
                if !ok {
                    self.conns[SUCC] = None;
                }
                self.member.on_connected(ok, now);
            }
            return;
        }
        let mut bytes = Vec::new();
        let mut broken = ev.writable && conn.flush().is_err();
        if ev.readable || ev.hangup || ev.error {
            broken |= conn.read_all(&mut bytes).is_err();
        }
        if !bytes.is_empty() && side == PRED {
            self.member.on_predecessor_bytes(&bytes, now);
        } else if !bytes.is_empty() {
            self.member.on_successor_bytes(&bytes, now);
        }
        if broken {
            self.close(side, now);
        }
    }

    fn close(&mut self, side: usize, now: Instant) {
        self.conns[side] = None;
        if side == SUCC {
            self.member.on_successor_closed(now);
        }
    }

    /// Carries out the member's outputs, then re-arms its timer.
    fn apply(&mut self, reactor: &mut Reactor) {
        while let Some(output) = self.member.poll_output() {
            let now = Instant::now();
            match output {
                Output::Dial => self.dial(reactor, now),
                Output::ToPredecessor(bytes) => self.write(PRED, &bytes, now),
                Output::ToSuccessor(bytes) => self.write(SUCC, &bytes, now),
                Output::DropPredecessor => self.conns[PRED] = None,
                Output::DropSuccessor => self.conns[SUCC] = None,
                Output::Done(outcome) => self.done = Some(outcome),
            }
        }
        let want = self.member.deadline();
        if self.timer.map(|(at, _)| at) != want {
            if let Some((_, key)) = self.timer.take() {
                reactor.cancel_timer(key);
            }
            self.timer = want.map(|at| (at, reactor.set_timer_at(at, self.tokens[0])));
        }
    }

    fn write(&mut self, side: usize, bytes: &[u8], now: Instant) {
        let Some(conn) = self.conns[side].as_mut() else { return };
        conn.out.extend_from_slice(bytes);
        if conn.flush().is_err() {
            self.close(side, now);
        }
    }

    fn dial(&mut self, reactor: &mut Reactor, now: Instant) {
        self.conns[SUCC] = None;
        let started = tcp_connect_nonblocking(self.successor).and_then(|start| {
            let _ = start.stream().set_nodelay(true);
            reactor.register(start.stream().as_raw_fd(), self.tokens[2], Interest::BOTH)?;
            Ok(start)
        });
        let (tcp, connecting) = match started {
            Ok(ConnectStart::Connected(tcp)) => (tcp, false),
            Ok(ConnectStart::Pending(tcp)) => (tcp, true),
            Err(_) => return self.member.on_connected(false, now),
        };
        self.conns[SUCC] = Some(Conn { tcp, out: Vec::new(), connecting });
        if !connecting {
            self.member.on_connected(true, now);
        }
    }
}
