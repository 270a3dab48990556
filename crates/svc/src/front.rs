//! The front-connection machine: one epoll loop that accepts, reads,
//! frames, dispatches and writes HTTP/1.1 for every listener in the
//! workspace — the election daemon, the router and each control-plane
//! node.
//!
//! Connection lifecycle (DESIGN §7):
//!
//! ```text
//!            accept            ParseStep::Request
//!   listener ──────▶ READING ───────────────────────▶ Service::dispatch
//!                      ▲  ▲                             │        │
//!        flush done,   │  │ Front::answer, or the        │ Answer │ Park
//!        keep-alive    │  │ park deadline (expire)       ▼        ▼
//!                    WRITING ◀──────────────────────────────── PARKED
//! ```
//!
//! The machine owns what every listener shares: accept, the read loop
//! over [`RequestParser`], in-order responses with keep-alive and
//! pipelining, the 5 s head timer, the 400 and 413 framing answers, the
//! open-connections gauge, a parked request's deadline timer, and
//! graceful drain. A listener is a [`Service`]: its `dispatch` answers a
//! request at once or parks whatever it needs to finish it later
//! ([`Service::Parked`]), and it hands the answer back by connection
//! token through [`Front::answer`]. A parked connection reads nothing:
//! pipelined follow-ups stay in the kernel buffer and are answered in
//! order once the parked answer is written.
//!
//! The machine's one outbound path is the wire: [`Front::open_wire`]
//! sends one request to a peer on the same reactor and hands its outcome
//! to [`Service::wire_done`]. The router's attempts, trace fetches and
//! health probes and each control-plane exchange run on it, every one
//! independent of the others and under its own timeout:
//!
//! ```text
//!   pooled stream ──────────────┐
//!                               ▼          flush          response
//!   tcp_connect_nonblocking ▶ CONNECTING ─▶ SENDING ─▶ RECEIVING ─▶ Done
//!        (EINPROGRESS)          │ take_error() != None     │
//!                               └──── transport error or deadline ─▶ Failed
//! ```

use crate::api::error_json;
use crate::http::{
    ClientResponse, ParseStep, Phase, Request, RequestParser, RespStep, Response, ResponseParser,
    DEFAULT_MAX_BODY,
};
use hre_runtime::{tcp_connect_nonblocking, ConnectStart, Event, Interest, Reactor, TimerKey};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Timer-token bit marking the deadline of wire `token & !WIRE_BIT`.
const WIRE_BIT: u64 = 1 << 63;
/// Timer-token bit marking the deadline of the request parked on
/// connection `token & !DEADLINE_BIT`.
const DEADLINE_BIT: u64 = 1 << 62;
/// Timer-token bit marking a request-head timeout. Timer tokens at or
/// above it are the machine's; a service's own stay below.
const HEAD_BIT: u64 = 1 << 61;
/// How long a partial request may dribble in before the connection is
/// timed out.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);
/// How often the loop wakes to check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// What one `dispatch` decided.
pub enum Dispatch<P> {
    /// The answer, written now.
    Answer(Response),
    /// The answer comes later through [`Front::answer`]. With a deadline,
    /// [`Service::expire`] runs if it passes first.
    Park(P, Option<Instant>),
}

/// What the machine counts, reported through [`Service::tally`].
#[derive(Clone, Copy, Debug)]
pub enum Tally {
    /// A connection was accepted.
    Accepted,
    /// The number of open connections moved by this much.
    Open(i64),
    /// The reactor's `epoll_wait` returns so far.
    Wakeups(u64),
    /// A request was refused for its framing (a 400 or a 413).
    Refused,
}

/// How a wire ended, as [`Service::wire_done`] hears it.
pub enum WireOutcome {
    /// A complete response, and the stream it came on if the stream is
    /// clean for another request (nothing after the response).
    Done(ClientResponse, Option<TcpStream>),
    /// Refused, reset, malformed, or past its deadline.
    Failed,
}

/// One listener: its routes, and whatever else it drives on the
/// machine's reactor. Only `dispatch` is required.
pub trait Service {
    /// What a connection holds while its answer is produced elsewhere.
    type Parked;

    /// Answers one framed request now, or parks it.
    fn dispatch(
        &mut self,
        front: &mut Front<Self::Parked>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Self::Parked>;

    /// The deadline of the request parked on `token` passed before its
    /// answer: answer it now.
    fn expire(&mut self, _front: &mut Front<Self::Parked>, _token: u64) {}

    /// Readiness on a token the service registered itself.
    fn event(&mut self, _front: &mut Front<Self::Parked>, _ev: Event) {}

    /// Runs once, before the first poll: arms the service's first timers
    /// and opens its first wires.
    fn started(&mut self, _front: &mut Front<Self::Parked>) {}

    /// Runs after each wakeup's readiness events and before its timers,
    /// to collect work finished on other threads: an answer given here
    /// beats a deadline that fired in the same wakeup.
    fn woken(&mut self, _front: &mut Front<Self::Parked>) {}

    /// A timer the service armed fired.
    fn timer(&mut self, _front: &mut Front<Self::Parked>, _token: u64) {}

    /// The wire [`Front::open_wire`] opened under `token` ended.
    fn wire_done(&mut self, _front: &mut Front<Self::Parked>, _token: u64, _outcome: WireOutcome) {}

    /// Counts what the machine observed.
    fn tally(&self, _what: Tally) {}
}

/// A request waiting for its answer.
struct Waiting<P> {
    /// `None` while the service holds it ([`Front::unpark`]).
    state: Option<P>,
    /// The `connection:` header decided when the request was framed.
    close: bool,
    deadline: Option<TimerKey>,
}

/// One connection's state machine.
struct Conn<P> {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialized response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    /// Edge-triggered readiness we have not consumed yet.
    want_read: bool,
    head_timer: Option<TimerKey>,
    waiting: Option<Waiting<P>>,
}

/// Why [`Front::drive`] stopped working on a connection.
enum Drive {
    Keep,
    Close,
}

/// One wire's progress.
enum WirePhase {
    /// Writing the request bytes. While `connecting` (`connect(2)`
    /// returned `EINPROGRESS`), writability first means the handshake
    /// ended, and `take_error()` says how.
    Sending { out: Vec<u8>, pos: usize, connecting: bool },
    /// Request flushed; accumulating the response.
    Receiving { parser: ResponseParser },
}

/// One outbound exchange: a nonblocking socket and its deadline timer.
struct Wire {
    stream: TcpStream,
    phase: WirePhase,
    deadline: Option<TimerKey>,
}

/// The machine: the reactor and every connection of one listener.
pub struct Front<P> {
    /// The reactor the listener, its connections and the service's own
    /// sockets and timers share.
    pub reactor: Reactor,
    conns: HashMap<u64, Conn<P>>,
    wires: HashMap<u64, Wire>,
    next_token: u64,
    /// Connections to service before the next poll.
    ready: Vec<u64>,
    /// Fresh wires to drive with synthetic readiness once the code that
    /// opened them has returned.
    kick: Vec<u64>,
    max_body: usize,
    shutdown: Arc<AtomicBool>,
}

/// Serves `listener` through `svc` until `shutdown` is set and every
/// connection has drained; returns the number of connections accepted.
///
/// Drain: the listener closes, idle connections close, busy ones finish
/// their request (which carries `connection: close`), and partial reads
/// run into the head timer. Wires still out when the last connection
/// closes are dropped.
pub fn serve<S: Service>(
    svc: &mut S,
    reactor: Reactor,
    listener: TcpListener,
    max_body: usize,
    shutdown: Arc<AtomicBool>,
) -> u64 {
    let mut front = Front {
        reactor,
        conns: HashMap::new(),
        wires: HashMap::new(),
        next_token: LISTENER_TOKEN + 1,
        ready: Vec::new(),
        kick: Vec::new(),
        max_body,
        shutdown,
    };
    if front.reactor.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE).is_err() {
        return 0;
    }
    svc.started(&mut front);
    let mut listener = Some(listener);
    let mut accepted = 0u64;
    let mut events = Vec::new();
    let mut fired = Vec::new();

    loop {
        if front.draining() {
            if let Some(l) = listener.take() {
                let _ = front.reactor.deregister(l.as_raw_fd());
            }
            let idle: Vec<u64> = front
                .conns
                .iter()
                .filter(|(_, c)| c.waiting.is_none() && c.out.is_empty() && c.parser.is_idle())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                front.close(svc, token);
            }
            if front.conns.is_empty() {
                break;
            }
        }

        if front.reactor.poll(&mut events, &mut fired, Some(POLL)).is_err() {
            break;
        }
        svc.tally(Tally::Wakeups(front.reactor.wakeups()));

        for ev in events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                if let Some(l) = &listener {
                    accepted += front.accept(svc, l);
                }
            } else if let Some(conn) = front.conns.get_mut(&ev.token) {
                if ev.readable || ev.hangup || ev.error {
                    conn.want_read = true;
                }
                front.ready.push(ev.token);
            } else if front.wires.contains_key(&ev.token) {
                let writable = ev.writable || ev.error || ev.hangup;
                front.drive_wire(svc, ev.token, ev.readable, writable);
            } else {
                svc.event(&mut front, ev);
            }
        }
        svc.woken(&mut front);
        for token in fired.drain(..) {
            if token & WIRE_BIT != 0 {
                front.expire_wire(svc, token & !WIRE_BIT);
            } else if token & DEADLINE_BIT != 0 {
                front.expire_deadline(svc, token & !DEADLINE_BIT);
            } else if token & HEAD_BIT != 0 {
                front.expire_head(svc, token & !HEAD_BIT);
            } else {
                svc.timer(&mut front, token);
            }
        }
        // Fresh wires get a synthetic first drive: their fd may already
        // be writable, and edge-triggered epoll reports current readiness
        // only on the next poll. Their outcomes may answer connections.
        loop {
            for token in std::mem::take(&mut front.ready) {
                front.service(svc, token);
            }
            let kicked = std::mem::take(&mut front.kick);
            for &token in &kicked {
                front.drive_wire(svc, token, true, true);
            }
            if kicked.is_empty() && front.ready.is_empty() {
                break;
            }
        }
    }
    accepted
}

impl<P> Front<P> {
    /// A fresh token for a socket the service registers itself. Tokens
    /// stay far below the timer-token bits.
    pub fn token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// The state parked on connection `token`, if it awaits an answer.
    pub fn parked(&mut self, token: u64) -> Option<&mut P> {
        self.conns.get_mut(&token)?.waiting.as_mut()?.state.as_mut()
    }

    /// Takes the state parked on `token` out, for work that needs the
    /// whole machine. The connection keeps waiting: put the state back
    /// with [`Front::repark`] or end the wait with [`Front::answer`].
    pub fn unpark(&mut self, token: u64) -> Option<P> {
        self.conns.get_mut(&token)?.waiting.as_mut()?.state.take()
    }

    /// Puts state taken by [`Front::unpark`] back.
    pub fn repark(&mut self, token: u64, state: P) {
        if let Some(waiting) = self.conns.get_mut(&token).and_then(|c| c.waiting.as_mut()) {
            waiting.state = Some(state);
        }
    }

    /// Ends the wait of connection `token`: `resp` goes out with the
    /// `connection:` header decided when its request was framed, and the
    /// park deadline is cancelled.
    pub fn answer(&mut self, token: u64, resp: Response) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let Some(waiting) = conn.waiting.take() else { return };
        if let Some(key) = waiting.deadline {
            self.reactor.cancel_timer(key);
        }
        push_response(conn, &resp, waiting.close);
        self.ready.push(token);
    }

    /// Opens a wire: `request` goes out over `pooled` if given, else over
    /// a fresh nonblocking dial to `addr`, and the outcome reaches
    /// [`Service::wire_done`] under the returned token — a failure if
    /// `deadline` passes first. Nothing is delivered before the code that
    /// opened the wire returns to the machine.
    pub fn open_wire(
        &mut self,
        addr: &str,
        pooled: Option<TcpStream>,
        request: Vec<u8>,
        deadline: Option<Instant>,
    ) -> std::io::Result<u64> {
        let (stream, connected) = match pooled {
            Some(stream) => (stream, true),
            None => dial(addr)?,
        };
        let token = self.token();
        self.reactor.register(stream.as_raw_fd(), token, Interest::BOTH)?;
        let phase = WirePhase::Sending { out: request, pos: 0, connecting: !connected };
        let deadline = deadline.map(|at| self.reactor.set_timer_at(at, token | WIRE_BIT));
        self.wires.insert(token, Wire { stream, phase, deadline });
        self.kick.push(token);
        Ok(token)
    }

    /// Drops a wire nobody waits for: deregistered and closed, and its
    /// outcome never delivered.
    pub fn close_wire(&mut self, token: u64) {
        self.take_wire(token);
    }

    /// Removes a wire from the reactor; the stream closes when dropped.
    fn take_wire(&mut self, token: u64) -> Option<TcpStream> {
        let wire = self.wires.remove(&token)?;
        let _ = self.reactor.deregister(wire.stream.as_raw_fd());
        if let Some(key) = wire.deadline {
            self.reactor.cancel_timer(key);
        }
        Some(wire.stream)
    }

    /// Advances one wire as far as readiness allows and hands its
    /// outcome to the service if it finished.
    fn drive_wire<S: Service<Parked = P>>(
        &mut self,
        svc: &mut S,
        token: u64,
        readable: bool,
        writable: bool,
    ) {
        let Some(wire) = self.wires.get_mut(&token) else { return };
        let Poll::Ready(done) = step_wire(wire, readable, writable) else { return };
        let stream = self.take_wire(token);
        let outcome = match done {
            Some((resp, clean)) => WireOutcome::Done(resp, stream.filter(|_| clean)),
            None => WireOutcome::Failed,
        };
        svc.wire_done(self, token, outcome);
    }

    /// The deadline of wire `token` passed before its outcome.
    fn expire_wire<S: Service<Parked = P>>(&mut self, svc: &mut S, token: u64) {
        let Some(wire) = self.wires.get_mut(&token) else { return };
        wire.deadline = None; // fired: nothing to cancel
        self.take_wire(token);
        svc.wire_done(self, token, WireOutcome::Failed);
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Accepts every pending connection; returns how many.
    fn accept<S: Service<Parked = P>>(&mut self, svc: &S, listener: &TcpListener) -> u64 {
        let mut accepted = 0;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    accepted += 1;
                    svc.tally(Tally::Accepted);
                    let token = self.token();
                    if self.admit(svc, stream, token).is_ok() {
                        self.ready.push(token);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        accepted
    }

    /// Registers a fresh connection with the reactor.
    fn admit<S: Service<Parked = P>>(
        &mut self,
        svc: &S,
        stream: TcpStream,
        token: u64,
    ) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.reactor.register(stream.as_raw_fd(), token, Interest::BOTH)?;
        svc.tally(Tally::Open(1));
        self.conns.insert(
            token,
            Conn {
                stream,
                parser: RequestParser::new(self.max_body),
                out: Vec::new(),
                out_pos: 0,
                close_after_flush: false,
                want_read: true,
                head_timer: None,
                waiting: None,
            },
        );
        Ok(())
    }

    fn close<S: Service<Parked = P>>(&mut self, svc: &S, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.teardown(svc, &conn);
        }
    }

    /// Detaches a connection. A parked one is never closed here: it
    /// reads nothing and has nothing to flush until its answer.
    fn teardown<S: Service<Parked = P>>(&mut self, svc: &S, conn: &Conn<P>) {
        debug_assert!(conn.waiting.is_none(), "a parked connection outlives its answer");
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        if let Some(key) = conn.head_timer {
            self.reactor.cancel_timer(key);
        }
        svc.tally(Tally::Open(-1));
    }

    /// Advances one connection as far as readiness allows.
    fn service<S: Service<Parked = P>>(&mut self, svc: &mut S, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match self.drive(svc, token, &mut conn) {
            Drive::Keep => {
                self.conns.insert(token, conn);
            }
            Drive::Close => self.teardown(svc, &conn),
        }
    }

    fn drive<S: Service<Parked = P>>(
        &mut self,
        svc: &mut S,
        token: u64,
        conn: &mut Conn<P>,
    ) -> Drive {
        loop {
            // 1. Flush whatever response bytes are pending.
            if conn.out_pos < conn.out.len() {
                match flush(&mut conn.stream, &conn.out, &mut conn.out_pos) {
                    Ok(true) => {
                        conn.out.clear();
                        conn.out_pos = 0;
                        if conn.close_after_flush {
                            return Drive::Close;
                        }
                    }
                    Ok(false) => return Drive::Keep, // wait for writable
                    Err(_) => return Drive::Close,
                }
            }
            // 2. Parked: nothing to do until its answer arrives.
            if conn.waiting.is_some() {
                return Drive::Keep;
            }
            // 3. Frame the next request off buffered bytes.
            match conn.parser.step() {
                ParseStep::Request(req) => {
                    self.settle_head_timer(token, conn);
                    let close = req.wants_close() || self.draining();
                    match svc.dispatch(self, token, &req) {
                        Dispatch::Answer(resp) => push_response(conn, &resp, close),
                        Dispatch::Park(state, deadline) => {
                            let deadline = deadline
                                .map(|at| self.reactor.set_timer_at(at, token | DEADLINE_BIT));
                            conn.waiting = Some(Waiting { state: Some(state), close, deadline });
                        }
                    }
                    continue;
                }
                ParseStep::Malformed(why) => {
                    svc.tally(Tally::Refused);
                    push_response(conn, &Response::json(400, error_json(&why)), true);
                    continue;
                }
                ParseStep::TooLarge { declared } => {
                    svc.tally(Tally::Refused);
                    let close = self.draining();
                    push_response(conn, &self.too_large(declared), close);
                    continue;
                }
                ParseStep::NeedMore => {}
            }
            // 4. Pull fresh bytes if the socket reported readiness.
            if !conn.want_read {
                self.settle_head_timer(token, conn);
                return Drive::Keep;
            }
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return self.peer_closed(svc, conn),
                    Ok(n) => {
                        conn.parser.push(&chunk[..n]);
                        // Re-enter the step loop: there may be whole
                        // requests (or a body completion) in the buffer.
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.want_read = false;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return self.read_failed(svc, conn),
                }
            }
        }
    }

    /// Arms the head-timeout timer when a request is mid-parse with no
    /// answer owed, and cancels it when the connection is idle.
    fn settle_head_timer(&mut self, token: u64, conn: &mut Conn<P>) {
        let partial = !conn.parser.is_idle() && conn.waiting.is_none();
        match (partial, conn.head_timer) {
            (true, None) => {
                conn.head_timer = Some(self.reactor.set_timer(HEAD_DEADLINE, token | HEAD_BIT));
            }
            (false, Some(key)) => {
                self.reactor.cancel_timer(key);
                conn.head_timer = None;
            }
            _ => {}
        }
    }

    /// EOF from the peer: a clean close between requests, else a 400.
    fn peer_closed<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>) -> Drive {
        match conn.parser.phase() {
            Phase::Head if conn.parser.is_idle() => Drive::Close,
            Phase::Head => self.abort_with(svc, conn, "connection closed mid-request"),
            Phase::Body => self.abort_with(svc, conn, "connection closed mid-body"),
            Phase::Discard => self.abort_too_large(svc, conn),
        }
    }

    /// A hard read error: a 400 mid-body, else just close.
    fn read_failed<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>) -> Drive {
        match conn.parser.phase() {
            Phase::Head => Drive::Close,
            Phase::Body => self.abort_with(svc, conn, "read error mid-body"),
            Phase::Discard => self.abort_too_large(svc, conn),
        }
    }

    fn abort_with<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>, why: &str) -> Drive {
        abort(svc, conn, &Response::json(400, error_json(why)))
    }

    fn abort_too_large<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>) -> Drive {
        let declared = conn.parser.discarding().unwrap_or_default();
        abort(svc, conn, &self.too_large(declared))
    }

    /// The head timeout fired: the peer stalled mid-request.
    fn expire_head<S: Service<Parked = P>>(&mut self, svc: &S, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        conn.head_timer = None;
        if conn.waiting.is_some() || conn.parser.is_idle() {
            self.conns.insert(token, conn);
            return;
        }
        match conn.parser.phase() {
            Phase::Head => self.abort_with(svc, &mut conn, "timed out mid-request"),
            Phase::Body => self.abort_with(svc, &mut conn, "timed out reading body"),
            Phase::Discard => self.abort_too_large(svc, &mut conn),
        };
        self.teardown(svc, &conn);
    }

    /// The deadline of the request parked on `token` passed.
    fn expire_deadline<S: Service<Parked = P>>(&mut self, svc: &mut S, token: u64) {
        let Some(waiting) = self.conns.get_mut(&token).and_then(|c| c.waiting.as_mut()) else {
            return;
        };
        waiting.deadline = None;
        svc.expire(self, token);
    }

    /// The 413 for an over-cap body.
    fn too_large(&self, declared: usize) -> Response {
        let why =
            format!("request body of {declared} bytes exceeds the {} byte limit", self.max_body);
        Response::json(413, error_json(&why))
    }
}

/// Answers a connection that ends mid-request, best effort, then closes.
fn abort<P, S: Service<Parked = P>>(svc: &S, conn: &mut Conn<P>, resp: &Response) -> Drive {
    svc.tally(Tally::Refused);
    push_response(conn, resp, true);
    // Best-effort write to a peer that may be gone; then close.
    let _ = flush(&mut conn.stream, &conn.out, &mut conn.out_pos);
    Drive::Close
}

/// Serializes a response onto the connection's output buffer. Appends
/// when earlier bytes are still flushing: HTTP/1.1 responses go out in
/// order.
fn push_response<P>(conn: &mut Conn<P>, resp: &Response, close: bool) {
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    conn.out.extend_from_slice(&resp.to_bytes(close));
    conn.close_after_flush |= close;
}

/// Writes `out` from `*pos` on as far as the socket accepts; `Ok(true)`
/// when all of it is written.
fn flush(stream: &mut TcpStream, out: &[u8], pos: &mut usize) -> std::io::Result<bool> {
    while *pos < out.len() {
        match stream.write(&out[*pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Starts a nonblocking connect to `addr`; `true` when it completed at
/// once.
fn dial(addr: &str) -> std::io::Result<(TcpStream, bool)> {
    let addr =
        addr.to_socket_addrs()?.next().ok_or_else(|| std::io::Error::other("unresolvable"))?;
    Ok(match tcp_connect_nonblocking(addr)? {
        ConnectStart::Connected(s) => (s, true),
        ConnectStart::Pending(s) => (s, false),
    })
}

/// Advances one wire's state machine: pending while it waits on
/// readiness, then the response and whether its stream is clean for
/// reuse, or `None` for a transport failure (connect refused, reset,
/// desync).
fn step_wire(
    wire: &mut Wire,
    readable: bool,
    writable: bool,
) -> Poll<Option<(ClientResponse, bool)>> {
    loop {
        match &mut wire.phase {
            WirePhase::Sending { out, pos, connecting } => {
                if !writable {
                    return Poll::Pending;
                }
                // A pending error or an inspection failure both mean the
                // handshake did not complete.
                if std::mem::take(connecting) && !matches!(wire.stream.take_error(), Ok(None)) {
                    return Poll::Ready(None);
                }
                match flush(&mut wire.stream, out, pos) {
                    Ok(true) => {
                        let parser = ResponseParser::new(DEFAULT_MAX_BODY);
                        wire.phase = WirePhase::Receiving { parser };
                    }
                    Ok(false) => return Poll::Pending,
                    Err(_) => return Poll::Ready(None),
                }
            }
            WirePhase::Receiving { parser } => {
                if !readable {
                    return Poll::Pending;
                }
                let mut chunk = [0u8; 4096];
                loop {
                    match wire.stream.read(&mut chunk) {
                        // EOF before a complete response — including a
                        // pooled stream the peer closed while idle.
                        Ok(0) => return Poll::Ready(None),
                        Ok(n) => {
                            parser.push(&chunk[..n]);
                            match parser.step() {
                                RespStep::Response(resp) => {
                                    return Poll::Ready(Some((resp, parser.is_idle())));
                                }
                                RespStep::Invalid { .. } => return Poll::Ready(None),
                                RespStep::NeedMore => {}
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return Poll::Pending
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return Poll::Ready(None),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Client, RespStep, ResponseParser};
    use std::convert::Infallible;
    use std::thread::JoinHandle;

    /// Answers every request at once: the body echoed, the method, path
    /// and request headers reported as `x-method`, `x-path` and
    /// `x-req-<name>`.
    struct Echo;

    impl Service for Echo {
        type Parked = Infallible;

        fn dispatch(
            &mut self,
            _: &mut Front<Infallible>,
            _: u64,
            req: &Request,
        ) -> Dispatch<Infallible> {
            let mut resp = Response::text(200, req.body.clone())
                .with_header("x-method", req.method.clone())
                .with_header("x-path", req.path.clone());
            for (name, value) in &req.headers {
                resp = resp.with_header(&format!("x-req-{name}"), value.clone());
            }
            Dispatch::Answer(resp)
        }
    }

    /// Relays `GET /<addr>` to `<addr>` as `GET /x` over a wire with a
    /// 200 ms deadline: the status and body it got, and whether the
    /// stream came back clean as `x-clean`, or a 502 if the wire failed.
    #[derive(Default)]
    struct Relay {
        /// The connection each wire answers.
        waiting: HashMap<u64, u64>,
    }

    impl Service for Relay {
        type Parked = ();

        fn dispatch(&mut self, front: &mut Front<()>, token: u64, req: &Request) -> Dispatch<()> {
            let addr = &req.path[1..];
            let request = crate::http::request_bytes("GET", "/x", addr, &[], None);
            let deadline = Instant::now() + Duration::from_millis(200);
            match front.open_wire(addr, None, request, Some(deadline)) {
                Ok(wire) => {
                    self.waiting.insert(wire, token);
                    Dispatch::Park((), None)
                }
                Err(_) => Dispatch::Answer(Response::text(502, "no dial")),
            }
        }

        fn wire_done(&mut self, front: &mut Front<()>, wire: u64, outcome: WireOutcome) {
            let Some(conn) = self.waiting.remove(&wire) else { return };
            let resp = match outcome {
                WireOutcome::Done(resp, stream) => Response::text(resp.status, resp.body)
                    .with_header("x-clean", stream.is_some().to_string()),
                WireOutcome::Failed => Response::text(502, "failed"),
            };
            front.answer(conn, resp);
        }
    }

    /// A service on an ephemeral port; dropping it drains the machine.
    struct Served {
        addr: String,
        shutdown: Arc<AtomicBool>,
        thread: Option<JoinHandle<u64>>,
    }

    impl Served {
        fn start(max_body: usize) -> Served {
            Served::serving(Echo, max_body)
        }

        fn serving<S: Service + Send + 'static>(mut svc: S, max_body: usize) -> Served {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            let addr = listener.local_addr().expect("addr").to_string();
            let reactor = Reactor::new().expect("reactor");
            let shutdown = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&shutdown);
            let thread =
                std::thread::spawn(move || serve(&mut svc, reactor, listener, max_body, flag));
            Served { addr, shutdown, thread: Some(thread) }
        }

        fn client(&self) -> Client {
            Client::connect(&self.addr, Duration::from_secs(10)).expect("connect")
        }

        /// Drains the machine; returns the connections it accepted.
        fn stop(mut self) -> u64 {
            self.shutdown.store(true, Ordering::SeqCst);
            self.thread.take().expect("running").join().expect("front thread")
        }
    }

    impl Drop for Served {
        fn drop(&mut self) {
            self.shutdown.store(true, Ordering::SeqCst);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Reads until the peer closes and parses what arrived.
    fn read_to_close(mut stream: TcpStream) -> Vec<crate::http::ClientResponse> {
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("the machine closes the connection");
        let mut parser = ResponseParser::new(crate::http::DEFAULT_MAX_BODY);
        parser.push(&bytes);
        let mut responses = Vec::new();
        while let RespStep::Response(resp) = parser.step() {
            responses.push(resp);
        }
        assert!(parser.is_idle(), "torn response after {responses:?}");
        responses
    }

    #[test]
    fn request_response_roundtrip() {
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let mut client = served.client();
        let resp = client.post_json("/elect?verbose=1", r#"{"x":1}"#).expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), r#"{"x":1}"#);
        assert_eq!(resp.header("x-method"), Some("POST"));
        assert_eq!(resp.header("x-path"), Some("/elect")); // query string stripped
        assert_eq!(resp.header("x-req-content-length"), Some("7"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn keep_alive_carries_multiple_requests() {
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let mut client = served.client();
        for path in ["/a", "/b", "/c"] {
            let resp = client.get(path).expect("get");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("x-path"), Some(path));
        }
        drop(client);
        assert_eq!(served.stop(), 1, "three requests on one connection");
    }

    #[test]
    fn request_with_headers_carries_extras() {
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let resp = served
            .client()
            .request_with_headers(
                "POST",
                "/elect",
                &[("x-trace-id", "00000000000000ff"), ("x-parent-span", "0000000000000007")],
                Some(b"{}"),
            )
            .expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-req-x-trace-id"), Some("00000000000000ff"));
        assert_eq!(resp.header("x-req-x-parent-span"), Some("0000000000000007"));
    }

    #[test]
    fn pipelined_sends_collect_in_order_responses() {
        // Several requests in flight on one keep-alive connection: the
        // machine answers them in order off its buffer, and each response
        // is byte-identical to what the lock-step client path gets.
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let mut client = served.client();
        let paths = ["/a", "/b", "/c"];
        let sequential: Vec<_> = paths
            .iter()
            .map(|p| client.request("POST", p, Some(b"body:")).expect("request"))
            .collect();
        for p in paths {
            client.send("POST", p, &[], Some(b"body:")).expect("send");
        }
        for (i, want) in sequential.iter().enumerate() {
            let resp = client.recv().expect("recv");
            assert_eq!(resp.status, 200);
            assert_eq!((&resp.headers, &resp.body), (&want.headers, &want.body), "response {i}");
        }
    }

    #[test]
    fn oversized_body_yields_too_large_and_keep_alive_survives() {
        // An over-cap Content-Length is a 413 naming the limit; the body
        // is discarded without buffering and the *same* connection serves
        // the next request.
        let served = Served::start(64);
        let mut client = served.client();
        let resp = client.request("POST", "/elect", Some(&[b'x'; 200])).expect("oversized");
        assert_eq!(resp.status, 413);
        assert_eq!(
            resp.body_text(),
            r#"{"error":"request body of 200 bytes exceeds the 64 byte limit"}"#
        );
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        let resp = client.request("POST", "/elect", Some(&[b'y'; 10])).expect("follow-up");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, [b'y'; 10]);
    }

    #[test]
    fn oversized_body_from_a_stalling_peer_gets_413_and_a_close() {
        // Declare a huge body, send only the head and stall: the head
        // deadline gives up on the discard with a 413 and a close.
        let served = Served::start(64);
        let mut stream = TcpStream::connect(&served.addr).expect("connect");
        stream
            .write_all(b"POST /elect HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n")
            .expect("write");
        let t0 = Instant::now();
        let responses = read_to_close(stream);
        assert!(t0.elapsed() >= HEAD_DEADLINE - Duration::from_millis(100), "{:?}", t0.elapsed());
        assert_eq!(responses.len(), 1, "{responses:?}");
        assert_eq!(responses[0].status, 413);
        assert_eq!(responses[0].header("connection"), Some("close"));
        assert!(responses[0].body_text().contains("1000000 bytes"), "{:?}", responses[0]);
    }

    #[test]
    fn a_wire_carries_an_exchange_and_fails_at_its_deadline() {
        let echo = Served::start(crate::http::DEFAULT_MAX_BODY);
        let relay = Served::serving(Relay::default(), crate::http::DEFAULT_MAX_BODY);
        let mut client = relay.client();
        let resp = client.get(&format!("/{}", echo.addr)).expect("relayed");
        assert_eq!((resp.status, resp.header("x-clean")), (200, Some("true")));
        // A tar pit: the connect completes and the request goes unanswered.
        let pit = TcpListener::bind("127.0.0.1:0").expect("tar pit");
        let t0 = Instant::now();
        let resp = client.get(&format!("/{}", pit.local_addr().expect("addr"))).expect("relayed");
        assert_eq!(resp.status, 502);
        assert!(t0.elapsed() >= Duration::from_millis(200), "{:?}", t0.elapsed());
    }

    #[test]
    fn dialed_streams_carry_nodelay() {
        // Pooled streams are reused without touching the option, so the
        // dial must leave it set.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (stream, _) = dial(&addr).expect("dial");
        assert!(stream.nodelay().expect("read TCP_NODELAY"));
    }

    #[test]
    fn a_framing_error_is_answered_400_and_closed() {
        let served = Served::start(64);
        let mut stream = TcpStream::connect(&served.addr).expect("connect");
        stream.write_all(b"GARBAGE\r\n\r\nGET /never HTTP/1.1\r\n\r\n").expect("write");
        let responses = read_to_close(stream);
        assert_eq!(responses.len(), 1, "{responses:?}");
        assert_eq!(responses[0].status, 400);
        assert_eq!(responses[0].header("connection"), Some("close"));
        assert!(responses[0].body_text().contains("bad request line"), "{:?}", responses[0]);
    }
}
