//! The router's listener on the front-connection machine
//! ([`hre_svc::front`]), which runs each routed request's
//! [`ForwardMachine`] on the reactor. What a connection parks here is a
//! routed request's machine, or a trace merge waiting on its backend
//! fetches. This module keeps only what touches the OS: backend sockets,
//! the slots' idle pools, and reactor timers standing in for the
//! machine's. A machine's deadline is its connection's park deadline.
//!
//! Backend exchanges (one per attempt or trace fetch, multiplexed on the
//! same reactor):
//!
//! ```text
//!   pooled stream ──────────────┐
//!                               ▼          flush          response
//!   tcp_connect_nonblocking ▶ CONNECTING ─▶ SENDING ─▶ RECEIVING ─▶ on_response
//!        (EINPROGRESS)          │ take_error() != None     │
//!                               └────────── transport error┴──▶ on_failure
//! ```
//!
//! Attempt streams come from the slot's idle pool or a nonblocking
//! connect, and a winner's clean stream goes back to the pool. A trace
//! fetch always dials afresh: it must not take a stream a race could
//! reuse.

use crate::forward::{AttemptId, Command, ForwardMachine, Timer};
use crate::router::{route_aux, Shared};
use crate::topology::BackendSlot;
use hre_runtime::trace::{SpanRecord, TraceId};
use hre_runtime::{tcp_connect_nonblocking, ConnectStart, Event, Interest, Reactor, TimerKey};
use hre_svc::front::{self, Dispatch, Front, Service, Tally};
use hre_svc::http::{request_bytes, Request, RespStep, Response, ResponseParser};
use hre_svc::{error_json, tracewire, ClientResponse};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timer-token bit marking the adaptive hedge threshold of forward
/// `f` of front connection `conn`: `HEDGE_BIT | f << FWD_SHIFT | conn`.
const HEDGE_BIT: u64 = 1 << 60;
/// Timer-token bit marking the transport timeout of the attempt on wire
/// `token & !ATTEMPT_BIT`.
const ATTEMPT_BIT: u64 = 1 << 59;
/// Where a hedge timer keeps its forward's index. Tokens stay below
/// `1 << FWD_SHIFT`, and a request owns at most `MAX_BATCH` forwards,
/// which fit in the bits between it and `ATTEMPT_BIT`.
const FWD_SHIFT: u32 = 48;
const TOKEN_MASK: u64 = (1 << FWD_SHIFT) - 1;

/// What a front connection parks while its answer is produced.
enum Parked {
    Routed(Routed),
    Trace(TraceMerge),
}

/// A routed request: its machine and the reactor resources its
/// commands hold.
struct Routed {
    machine: ForwardMachine,
    /// Wire token of each live attempt.
    wires: Vec<(AttemptId, u64)>,
    /// Reactor key of each armed hedge and attempt timer.
    timers: Vec<(Timer, TimerKey)>,
    /// Where the machine armed its deadline: the park deadline.
    deadline: Option<Instant>,
}

impl Routed {
    /// Forgets a resolved attempt's wire.
    fn resolved(&mut self, attempt: AttemptId) -> Option<u64> {
        let i = self.wires.iter().position(|(a, _)| *a == attempt)?;
        Some(self.wires.swap_remove(i).1)
    }

    /// Forgets a timer's reactor key; the key is returned to be
    /// cancelled, or dropped when the timer fired.
    fn disarmed(&mut self, timer: Timer) -> Option<TimerKey> {
        let i = self.timers.iter().position(|(t, _)| *t == timer)?;
        Some(self.timers.swap_remove(i).1)
    }
}

/// A `GET /trace/<id>` merge: the router's own spans, and each backend's
/// as its fetch lands.
struct TraceMerge {
    trace: TraceId,
    spans: Vec<SpanRecord>,
    /// Per topology slot, the spans its backend returned.
    fetched: Vec<Vec<SpanRecord>>,
    /// Wire tokens of the fetches still out.
    pending: Vec<u64>,
}

impl TraceMerge {
    /// The merged document: the router's spans, then each backend's in
    /// topology order, each tagged with who recorded it.
    fn answer(self) -> Response {
        let mut spans = self.spans;
        spans.extend(self.fetched.into_iter().flatten());
        if spans.is_empty() {
            return Response::json(
                404,
                error_json("no spans retained for that trace (evicted, or never seen)"),
            );
        }
        Response::json(200, tracewire::trace_doc(self.trace, &spans))
    }
}

/// Whose outcome a backend exchange carries.
#[derive(Clone, Copy)]
enum Owner {
    /// An attempt of the machine parked on the wire's connection.
    Attempt(AttemptId),
    /// The trace fetch from topology slot `.0`.
    Fetch(usize),
}

/// One backend exchange's wire progress.
enum WirePhase {
    /// `connect(2)` returned `EINPROGRESS`; waiting for writability,
    /// then `take_error()` decides. The serialized request rides along.
    Connecting { out: Vec<u8> },
    /// Writing the request bytes.
    Sending { out: Vec<u8>, pos: usize },
    /// Request flushed; accumulating the response.
    Receiving { parser: ResponseParser },
}

/// One backend exchange: a nonblocking socket and whom it answers.
struct Wire {
    /// The front connection waiting on it.
    conn: u64,
    owner: Owner,
    slot: Arc<BackendSlot>,
    stream: TcpStream,
    phase: WirePhase,
}

/// How one reactor pass over a wire ended.
enum WireStep {
    /// Still waiting on readiness.
    Continue,
    /// A complete response; `clean` = the stream is reusable.
    Done { resp: ClientResponse, clean: bool },
    /// Transport failure (connect refused, reset, desync).
    Failed,
}

struct EventLoop<'a> {
    wires: HashMap<u64, Wire>,
    shared: &'a Arc<Shared>,
    /// Fresh wires to drive with synthetic readiness once their request
    /// is parked again.
    kick: Vec<u64>,
}

/// Runs the routing core until shutdown; returns the number of
/// connections accepted.
pub(crate) fn reactor_loop(reactor: Reactor, listener: TcpListener, shared: &Arc<Shared>) -> u64 {
    let mut el = EventLoop { wires: HashMap::new(), shared, kick: Vec::new() };
    front::serve(&mut el, reactor, listener, shared.cfg.max_body, Arc::clone(&shared.shutdown))
}

impl Service for EventLoop<'_> {
    type Parked = Parked;

    fn dispatch(
        &mut self,
        front: &mut Front<Parked>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Parked> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/elect") => self.route(front, token, ForwardMachine::elect(self.shared, req)),
            ("POST", "/elect/batch") => {
                self.route(front, token, ForwardMachine::batch(self.shared, req))
            }
            ("GET", path) if path.starts_with("/trace/") => {
                self.dispatch_trace(front, token, &path["/trace/".len()..])
            }
            _ => Dispatch::Answer(route_aux(req, self.shared)),
        }
    }

    /// The park deadline passed: a race hears its deadline timer, a
    /// trace merge answers with the spans it has.
    fn expire(&mut self, front: &mut Front<Parked>, token: u64) {
        match front.unpark(token) {
            Some(Parked::Trace(merge)) => {
                for &wire in &merge.pending {
                    self.close_wire(front, wire);
                }
                front.answer(token, merge.answer());
            }
            Some(routed) => {
                front.repark(token, routed);
                self.input(front, token, |r| r.machine.on_timer(Timer::Deadline));
            }
            None => {}
        }
    }

    fn event(&mut self, front: &mut Front<Parked>, ev: Event) {
        self.drive_wire(front, ev.token, ev.readable, ev.writable || ev.error || ev.hangup);
    }

    fn timer(&mut self, front: &mut Front<Parked>, token: u64) {
        let (conn, timer) = if token & HEDGE_BIT != 0 {
            let f = ((token & !HEDGE_BIT) >> FWD_SHIFT) as usize;
            (token & TOKEN_MASK, Timer::Hedge(f))
        } else if token & ATTEMPT_BIT != 0 {
            match self.wires.get(&(token & !ATTEMPT_BIT)) {
                Some(Wire { conn, owner: Owner::Attempt(id), .. }) => (*conn, Timer::Attempt(*id)),
                _ => return,
            }
        } else {
            return;
        };
        self.input(front, conn, |r| {
            r.disarmed(timer);
            r.machine.on_timer(timer);
        });
    }

    /// Fresh wires get a synthetic first drive: their fd may already be
    /// writable, and edge-triggered epoll reports current readiness only
    /// on the next poll. Their resolutions may answer requests.
    fn settle(&mut self, front: &mut Front<Parked>) -> bool {
        let kicked = std::mem::take(&mut self.kick);
        for &token in &kicked {
            self.drive_wire(front, token, true, true);
        }
        !kicked.is_empty()
    }

    fn tally(&self, what: Tally) {
        let m = &self.shared.metrics;
        match what {
            Tally::Open(delta) => {
                m.open_connections.fetch_add(delta, Ordering::Relaxed);
            }
            Tally::Wakeups(total) => m.reactor_wakeups.store(total, Ordering::Relaxed),
            // The router counts neither accepts nor framing errors.
            Tally::Accepted | Tally::Refused => {}
        }
    }
}

impl EventLoop<'_> {
    /// Starts a routed request: answers it if its machine concluded at
    /// once, else parks it until its deadline.
    fn route(
        &mut self,
        front: &mut Front<Parked>,
        token: u64,
        intake: Result<ForwardMachine, Response>,
    ) -> Dispatch<Parked> {
        let machine = match intake {
            Ok(machine) => machine,
            Err(resp) => return Dispatch::Answer(resp),
        };
        let mut routed = Routed { machine, wires: Vec::new(), timers: Vec::new(), deadline: None };
        match self.run(front, token, &mut routed) {
            Some(resp) => Dispatch::Answer(resp),
            None => {
                let deadline = routed.deadline;
                Dispatch::Park(Parked::Routed(routed), deadline)
            }
        }
    }

    /// Feeds one input to the race parked on `conn`, carries out its
    /// commands, and answers or re-parks the connection.
    fn input(&mut self, front: &mut Front<Parked>, conn: u64, feed: impl FnOnce(&mut Routed)) {
        let mut routed = match front.unpark(conn) {
            Some(Parked::Routed(routed)) => routed,
            Some(parked) => return front.repark(conn, parked),
            None => return,
        };
        feed(&mut routed);
        match self.run(front, conn, &mut routed) {
            Some(resp) => front.answer(conn, resp),
            None => front.repark(conn, Parked::Routed(routed)),
        }
    }

    /// Carries out a machine's commands; returns its answer if it gave
    /// one. A launch that cannot get airborne is fed back as a transport
    /// failure.
    fn run(
        &mut self,
        front: &mut Front<Parked>,
        conn: u64,
        routed: &mut Routed,
    ) -> Option<Response> {
        let mut answer = None;
        while let Some(command) = routed.machine.next_command() {
            match command {
                Command::Launch { attempt, slot, request } => {
                    match self.open_wire(front, conn, Owner::Attempt(attempt), slot, request) {
                        Ok(wire) => routed.wires.push((attempt, wire)),
                        Err(_) => routed.machine.on_failure(attempt),
                    }
                }
                Command::Abandon(attempt) => {
                    if let Some(wire) = routed.resolved(attempt) {
                        self.close_wire(front, wire);
                    }
                }
                Command::Arm(Timer::Deadline, at) => routed.deadline = Some(at),
                Command::Arm(timer, at) => {
                    let token = match timer {
                        Timer::Hedge(f) => HEDGE_BIT | (f as u64) << FWD_SHIFT | conn,
                        Timer::Attempt(attempt) => {
                            // A launch that failed at once has no wire,
                            // and its failure cancels this timer.
                            let Some(&(_, wire)) = routed.wires.iter().find(|(a, _)| *a == attempt)
                            else {
                                continue;
                            };
                            ATTEMPT_BIT | wire
                        }
                        Timer::Deadline => unreachable!("matched above"),
                    };
                    routed.timers.push((timer, front.reactor.set_timer_at(at, token)));
                }
                // Answering the connection cancels its park deadline.
                Command::Cancel(Timer::Deadline) => {}
                Command::Cancel(timer) => {
                    if let Some(key) = routed.disarmed(timer) {
                        front.reactor.cancel_timer(key);
                    }
                }
                Command::Answer(resp) => answer = Some(resp),
            }
        }
        answer
    }

    /// `GET /trace/<id>`: the router's own spans merged with every
    /// backend's, fetched without blocking the reactor. The request
    /// parks until each fetch answered or the fetch timeout passed.
    fn dispatch_trace(
        &mut self,
        front: &mut Front<Parked>,
        token: u64,
        tail: &str,
    ) -> Dispatch<Parked> {
        let shared = self.shared;
        // `recent` and malformed ids are the recorder's own answers.
        let Some(trace) = TraceId::from_hex(tail) else {
            return Dispatch::Answer(hre_svc::server::handle_trace(tail, &shared.recorder));
        };
        let mut spans = shared.recorder.trace_spans(trace);
        for s in &mut spans {
            s.src = "cluster".into();
        }
        let topo = shared.topology();
        let path = format!("/trace/{}", trace.to_hex());
        let mut pending = Vec::new();
        for (i, slot) in topo.slots.iter().enumerate() {
            let request = request_bytes("GET", &path, slot.addr(), &[], None);
            if let Ok(wire) =
                self.open_wire(front, token, Owner::Fetch(i), Arc::clone(slot), request)
            {
                pending.push(wire);
            }
        }
        let merge = TraceMerge { trace, spans, fetched: vec![Vec::new(); topo.len()], pending };
        if merge.pending.is_empty() {
            return Dispatch::Answer(merge.answer());
        }
        let timeout = shared.cfg.timeout.min(Duration::from_millis(500));
        Dispatch::Park(Parked::Trace(merge), Some(shared.cfg.clock.now() + timeout))
    }

    /// A trace fetch ended; the merge answers once none is out.
    fn fetch_done(
        &mut self,
        front: &mut Front<Parked>,
        conn: u64,
        wire: u64,
        i: usize,
        spans: Vec<SpanRecord>,
    ) {
        let Some(parked) = front.unpark(conn) else { return };
        let Parked::Trace(mut merge) = parked else {
            front.repark(conn, parked);
            return;
        };
        merge.pending.retain(|&w| w != wire);
        merge.fetched[i] = spans;
        if merge.pending.is_empty() {
            front.answer(conn, merge.answer());
        } else {
            front.repark(conn, Parked::Trace(merge));
        }
    }

    // ---------- wires ----------

    /// Opens a nonblocking exchange with `slot`: an attempt takes a
    /// pooled stream if there is one, anything else dials. Registered
    /// with the reactor, request bytes staged; returns the wire's token.
    fn open_wire(
        &mut self,
        front: &mut Front<Parked>,
        conn: u64,
        owner: Owner,
        slot: Arc<BackendSlot>,
        request: Vec<u8>,
    ) -> std::io::Result<u64> {
        let pooled = match owner {
            Owner::Attempt(_) => slot.take_idle(),
            Owner::Fetch(_) => None,
        };
        let (stream, connected) = match pooled {
            Some(stream) => (stream, true),
            None => dial(slot.addr())?,
        };
        let token = front.token();
        front.reactor.register(stream.as_raw_fd(), token, Interest::BOTH)?;
        let phase = if connected {
            WirePhase::Sending { out: request, pos: 0 }
        } else {
            WirePhase::Connecting { out: request }
        };
        self.wires.insert(token, Wire { conn, owner, slot, stream, phase });
        self.kick.push(token);
        Ok(token)
    }

    /// Drops a wire nobody waits for: deregistered and closed.
    fn close_wire(&mut self, front: &mut Front<Parked>, token: u64) {
        if let Some(wire) = self.wires.remove(&token) {
            let _ = front.reactor.deregister(wire.stream.as_raw_fd());
        }
    }

    /// Advances one wire as far as readiness allows and hands its
    /// outcome to its owner if it finished.
    fn drive_wire(
        &mut self,
        front: &mut Front<Parked>,
        token: u64,
        readable: bool,
        writable: bool,
    ) {
        let Some(mut wire) = self.wires.remove(&token) else { return };
        let step = step_wire(&mut wire, readable, writable);
        if let WireStep::Continue = step {
            self.wires.insert(token, wire);
            return;
        }
        let _ = front.reactor.deregister(wire.stream.as_raw_fd());
        let Wire { conn, owner, slot, stream, .. } = wire;
        match (owner, step) {
            (Owner::Attempt(id), WireStep::Done { resp, clean }) => self.input(front, conn, |r| {
                r.resolved(id);
                if r.machine.on_response(id, resp) && clean {
                    slot.put_idle(stream);
                }
            }),
            (Owner::Attempt(id), _) => self.input(front, conn, |r| {
                r.resolved(id);
                r.machine.on_failure(id);
            }),
            (Owner::Fetch(i), step) => {
                // A fetch touches no breaker, pool or counter: a failed
                // or non-200 one only contributes nothing.
                let spans = match step {
                    WireStep::Done { resp, .. } if resp.status == 200 => {
                        tracewire::spans_from_doc(&resp.body_text()).unwrap_or_default()
                    }
                    _ => Vec::new(),
                };
                let src = slot.addr();
                let spans = spans.into_iter().map(|s| SpanRecord { src: src.to_string(), ..s });
                self.fetch_done(front, conn, token, i, spans.collect());
            }
        }
    }
}

/// Starts a nonblocking connect to `addr` with `TCP_NODELAY` set; `true`
/// when it completed at once.
fn dial(addr: &str) -> std::io::Result<(TcpStream, bool)> {
    let addr =
        addr.to_socket_addrs()?.next().ok_or_else(|| std::io::Error::other("unresolvable"))?;
    let (stream, connected) = match tcp_connect_nonblocking(addr)? {
        ConnectStart::Connected(s) => (s, true),
        ConnectStart::Pending(s) => (s, false),
    };
    // Only streams dialed here enter the idle pool, and they keep the
    // option, so one `setsockopt` per stream covers every forward on it.
    stream.set_nodelay(true)?;
    Ok((stream, connected))
}

/// Advances one wire's state machine.
fn step_wire(wire: &mut Wire, mut readable: bool, mut writable: bool) -> WireStep {
    loop {
        match &mut wire.phase {
            WirePhase::Connecting { out } => {
                if !writable {
                    return WireStep::Continue;
                }
                match wire.stream.take_error() {
                    Ok(None) => {
                        let out = std::mem::take(out);
                        wire.phase = WirePhase::Sending { out, pos: 0 };
                    }
                    // A pending error or an inspection failure both
                    // mean the handshake did not complete.
                    _ => return WireStep::Failed,
                }
            }
            WirePhase::Sending { out, pos } => {
                if !writable {
                    return WireStep::Continue;
                }
                while *pos < out.len() {
                    match wire.stream.write(&out[*pos..]) {
                        Ok(0) => return WireStep::Failed,
                        Ok(n) => *pos += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            writable = false;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return WireStep::Failed,
                    }
                }
                if *pos < out.len() {
                    return WireStep::Continue;
                }
                wire.phase = WirePhase::Receiving {
                    parser: ResponseParser::new(hre_svc::http::DEFAULT_MAX_BODY),
                };
            }
            WirePhase::Receiving { parser } => {
                if !readable {
                    return WireStep::Continue;
                }
                let mut chunk = [0u8; 4096];
                loop {
                    match wire.stream.read(&mut chunk) {
                        // EOF before a complete response — including a
                        // pooled stream the backend closed while idle.
                        // A transport error; failover handles it.
                        Ok(0) => return WireStep::Failed,
                        Ok(n) => {
                            parser.push(&chunk[..n]);
                            match parser.step() {
                                RespStep::Response(resp) => {
                                    let clean = parser.is_idle();
                                    return WireStep::Done { resp, clean };
                                }
                                RespStep::Invalid { .. } => return WireStep::Failed,
                                RespStep::NeedMore => {}
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            readable = false;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return WireStep::Failed,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn dialed_streams_carry_nodelay() {
        // Pooled streams are reused without touching the option, so the
        // dial must leave it set.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (stream, _) = super::dial(&addr).expect("dial");
        assert!(stream.nodelay().expect("read TCP_NODELAY"));
    }
}
