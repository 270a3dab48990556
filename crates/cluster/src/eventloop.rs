//! The router's serving core: one reactor thread holds every client
//! connection **and** every backend attempt as a state machine, and
//! hedges are timers.
//!
//! Front-connection lifecycle (the same shape as the service daemon's,
//! DESIGN §7):
//!
//! ```text
//!            accept            ParseStep::Request
//!   listener ──────▶ READING ───────────────────────▶ dispatch
//!                      ▲  ▲                             │
//!        flush done,   │  │ last forward concluded /    │ /elect: one forward,
//!        keep-alive    │  │ deadline timer (504)        │ /elect/batch: one per shard
//!                      │  │                             ▼
//!                    WRITING ◀───────────────────── FORWARDING
//! ```
//!
//! A front request in FORWARDING owns one [`Forward`] per target: a
//! single `/elect` owns one, a batch owns one per owning shard, carrying
//! that shard's `/elect/batch` sub-body. Every forward runs the same
//! race over its candidates, and the request is answered when the last
//! one concludes (a batch's answers joined by the pure [`gather`]) or
//! when the request deadline fires first.
//!
//! Backend-attempt lifecycle (one per proxied try, multiplexed on the
//! same reactor):
//!
//! ```text
//!   pooled stream ──────────────┐
//!                               ▼          flush          response
//!   tcp_connect_nonblocking ▶ CONNECTING ─▶ SENDING ─▶ RECEIVING ─▶ resolve
//!        (EINPROGRESS)          │ take_error() != None     │
//!                               └────────── transport error┴──▶ failover
//! ```
//!
//! How an attempt resolves its forward's race:
//!
//! * 503 → busy, kept as the forward's `last_answer`; other ≥ 500 →
//!   errors, also kept; anything else is definitive and the first one
//!   wins (a hedge's win is counted). A transport error trips the
//!   breaker's failure count, closes the slot's idle streams, and fails
//!   over. With no candidate left and nothing in flight the forward
//!   answers its `last_answer`, or 502 `no backend reachable`.
//! * While exactly one attempt is live and a candidate remains, a timer
//!   at the live backend's adaptive threshold
//!   ([`crate::BackendSlot::hedge_threshold`]) is armed; when it fires
//!   the next candidate launches as a second in-flight socket.
//! * Streams come from the slot's idle pool or a nonblocking connect,
//!   and a winner's clean stream goes back to the pool.
//!
//! Spans of abandoned attempts: an attempt torn down because its forward
//! already concluded (another attempt won, or the deadline passed)
//! records no `attempt` span. Every attempt that resolved records one,
//! so the winner's tree is complete.

use crate::metrics::ClusterMetrics;
use crate::router::{
    close_request_span, gather, open_request_span, pass_through, plan_candidates, route_aux,
    split_batch, RequestSpan, Shared, Slot, TraceCtx, POLL,
};
use crate::topology::{BackendSlot, Topology};
use hre_runtime::trace::{SpanAttrs, SpanId, Stage};
use hre_runtime::{tcp_connect_nonblocking, ConnectStart, Interest, Reactor, TimerKey};
use hre_svc::http::{
    request_bytes, ParseStep, Phase, Request, RequestParser, RespStep, Response, ResponseParser,
};
use hre_svc::{error_json, ClientResponse, ElectRequest};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Timer-token bit marking the request deadline (504) for front
/// connection `token & !DEADLINE_BIT`.
const DEADLINE_BIT: u64 = 1 << 62;
/// Timer-token bit marking a request-head timeout.
const HEAD_BIT: u64 = 1 << 61;
/// Timer-token bit marking the adaptive hedge threshold of forward
/// `f` of front connection `front`: `HEDGE_BIT | f << FWD_SHIFT | front`.
const HEDGE_BIT: u64 = 1 << 60;
/// Timer-token bit marking the per-attempt transport timeout for
/// attempt `token & !ATTEMPT_BIT`.
const ATTEMPT_BIT: u64 = 1 << 59;
/// Where a hedge timer keeps its forward's index. Tokens stay below
/// `1 << FWD_SHIFT`, and a front owns at most `MAX_BATCH` forwards,
/// which fit in the bits between it and `ATTEMPT_BIT`.
const FWD_SHIFT: u32 = 48;
const TOKEN_MASK: u64 = (1 << FWD_SHIFT) - 1;
/// How long a partial request may dribble in before the connection is
/// timed out.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// A front request in flight: its envelope and the forwards it owns.
struct Front {
    span: RequestSpan,
    close: bool,
    deadline_timer: TimerKey,
    /// The one topology snapshot every forward of the request uses.
    topo: Arc<Topology>,
    forwards: Vec<Forward>,
    /// `None` for `/elect`, whose answer is its one forward's; a batch's
    /// entry slots for [`gather`] otherwise.
    batch: Option<Vec<Slot>>,
}

impl Front {
    fn done(&self) -> bool {
        self.forwards.iter().all(|f| f.answer.is_some())
    }
}

/// One target's failover/hedge race.
struct Forward {
    /// Owning backend of a batch's sub-batch: the key [`gather`] joins on.
    shard: usize,
    path: &'static str,
    body: Vec<u8>,
    candidates: Vec<usize>,
    /// Next candidate index (into `candidates`) to launch.
    next: usize,
    /// Most recently launched backend (the hedge-threshold source).
    current: usize,
    /// Backends launched as hedges (for the hedge-win counter).
    hedged: Vec<usize>,
    in_flight: usize,
    /// Best non-definitive answer seen (503 / 5xx pass-through).
    last_answer: Option<Response>,
    /// Tokens of the live attempts.
    attempt_tokens: Vec<u64>,
    hedge_timer: Option<TimerKey>,
    /// The race's outcome, once it concluded.
    answer: Option<Response>,
}

impl Forward {
    fn new(shard: usize, path: &'static str, body: Vec<u8>, candidates: Vec<usize>) -> Forward {
        Forward {
            shard,
            path,
            body,
            current: candidates[0],
            candidates,
            next: 0,
            hedged: Vec::new(),
            in_flight: 0,
            last_answer: None,
            attempt_tokens: Vec::new(),
            hedge_timer: None,
            answer: None,
        }
    }
}

/// One backend attempt's wire progress.
enum AttemptPhase {
    /// `connect(2)` returned `EINPROGRESS`; waiting for writability,
    /// then `take_error()` decides. The serialized request rides along.
    Connecting { out: Vec<u8> },
    /// Writing the request bytes.
    Sending { out: Vec<u8>, pos: usize },
    /// Request flushed; accumulating the response.
    Receiving { parser: ResponseParser },
}

/// One in-flight backend attempt: a nonblocking socket plus the span it
/// will record when it resolves.
struct Attempt {
    /// Owning front connection, and the forward within its request.
    front: u64,
    fwd: usize,
    /// Backend index within the request's topology snapshot.
    idx: usize,
    slot: Arc<BackendSlot>,
    stream: TcpStream,
    phase: AttemptPhase,
    span: SpanId,
    t0: Instant,
    ctx: TraceCtx,
    hedge: bool,
    timer: TimerKey,
}

/// One front connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    want_read: bool,
    pending: Option<Box<Front>>,
    head_timer: Option<TimerKey>,
}

/// Why [`EventLoop::drive`] stopped working on a connection.
enum Drive {
    Keep,
    Close,
}

/// How one reactor pass over an attempt ended.
enum AttemptStep {
    /// Still waiting on readiness.
    Continue,
    /// A complete response; `clean` = the stream is reusable.
    Done { resp: ClientResponse, clean: bool },
    /// Transport failure (connect refused, reset, desync, timeout).
    Failed,
}

struct EventLoop<'a> {
    reactor: Reactor,
    conns: HashMap<u64, Conn>,
    attempts: HashMap<u64, Attempt>,
    shared: &'a Arc<Shared>,
    next_token: u64,
    /// Freshly launched attempts to drive with synthetic readiness once
    /// their owning connection is back in the map.
    kick_attempts: Vec<u64>,
    /// Front connections with newly buffered output to flush.
    kick_fronts: Vec<u64>,
}

/// Runs the routing core until shutdown; returns the number of
/// connections accepted.
pub(crate) fn reactor_loop(
    reactor: Reactor,
    listener: TcpListener,
    shared: &Arc<Shared>,
    shutdown: &Arc<AtomicBool>,
) -> u64 {
    let mut el = EventLoop {
        reactor,
        conns: HashMap::new(),
        attempts: HashMap::new(),
        shared,
        next_token: 1,
        kick_attempts: Vec::new(),
        kick_fronts: Vec::new(),
    };
    let mut listener = Some(listener);
    if let Some(l) = &listener {
        if el.reactor.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE).is_err() {
            return 0;
        }
    }

    let mut accepted = 0u64;
    let mut events = Vec::new();
    let mut fired = Vec::new();

    loop {
        let draining =
            shutdown.load(Ordering::Relaxed) || el.shared.shutdown.load(Ordering::Relaxed);
        if draining {
            el.shared.shutdown.store(true, Ordering::SeqCst);
            if let Some(l) = listener.take() {
                let _ = el.reactor.deregister(l.as_raw_fd());
            }
            let idle: Vec<u64> = el
                .conns
                .iter()
                .filter(|(_, c)| c.pending.is_none() && c.out.is_empty() && c.parser.is_idle())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                el.close_front(token);
            }
            if el.conns.is_empty() {
                break;
            }
        }

        if el.reactor.poll(&mut events, &mut fired, Some(POLL)).is_err() {
            break;
        }
        el.shared.metrics.reactor_wakeups.store(el.reactor.wakeups(), Ordering::Relaxed);

        let mut to_service: Vec<u64> = Vec::new();
        for ev in events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                let Some(l) = &listener else { continue };
                loop {
                    match l.accept() {
                        Ok((stream, _peer)) => {
                            accepted += 1;
                            let token = el.token();
                            if el.admit(stream, token).is_ok() {
                                to_service.push(token);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                continue;
            }
            if el.attempts.contains_key(&ev.token) {
                el.drive_attempt(ev.token, ev.readable, ev.writable || ev.error || ev.hangup);
                continue;
            }
            if let Some(conn) = el.conns.get_mut(&ev.token) {
                if ev.readable || ev.hangup || ev.error {
                    conn.want_read = true;
                }
                to_service.push(ev.token);
            }
        }

        for timer_token in fired.drain(..) {
            if timer_token & DEADLINE_BIT != 0 {
                let token = timer_token & !DEADLINE_BIT;
                el.expire_deadline(token);
                to_service.push(token);
            } else if timer_token & HEAD_BIT != 0 {
                let token = timer_token & !HEAD_BIT;
                el.expire_head(token);
                to_service.push(token);
            } else if timer_token & HEDGE_BIT != 0 {
                let f = ((timer_token & !HEDGE_BIT) >> FWD_SHIFT) as usize;
                el.fire_hedge(timer_token & TOKEN_MASK, f);
            } else if timer_token & ATTEMPT_BIT != 0 {
                el.attempt_timed_out(timer_token & !ATTEMPT_BIT);
            }
        }

        for token in to_service {
            el.service(token);
        }
        // Settle cascades: fresh attempts get a synthetic first drive
        // (their fd may already be writable, and edge-triggered epoll
        // reports current readiness only on the next poll), and their
        // resolutions may buffer responses on front connections.
        loop {
            let atts: Vec<u64> = el.kick_attempts.drain(..).collect();
            let fronts: Vec<u64> = el.kick_fronts.drain(..).collect();
            if atts.is_empty() && fronts.is_empty() {
                break;
            }
            for t in atts {
                el.drive_attempt(t, true, true);
            }
            for t in fronts {
                el.service(t);
            }
        }
    }
    accepted
}

impl EventLoop<'_> {
    fn token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    // ---------- front connections ----------

    /// Registers a fresh client connection with the reactor.
    fn admit(&mut self, stream: TcpStream, token: u64) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.reactor.register(stream.as_raw_fd(), token, Interest::BOTH)?;
        let mut parser = RequestParser::new(hre_svc::http::DEFAULT_MAX_BODY);
        parser.set_max_body(self.shared.cfg.max_body);
        self.shared.metrics.open_connections.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            token,
            Conn {
                stream,
                parser,
                out: Vec::new(),
                out_pos: 0,
                close_after_flush: false,
                want_read: true,
                pending: None,
                head_timer: None,
            },
        );
        Ok(())
    }

    fn close_front(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            self.teardown(&mut conn);
        }
    }

    /// Detaches a connection and everything it owns: its timers and any
    /// live backend attempts feeding an abandoned request.
    fn teardown(&mut self, conn: &mut Conn) {
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        if let Some(key) = conn.head_timer {
            self.reactor.cancel_timer(key);
        }
        if let Some(mut front) = conn.pending.take() {
            self.abandon(&mut front);
        }
        self.shared.metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Cancels a request's deadline and tears down every forward's
    /// hedge timer and live attempts.
    fn abandon(&mut self, front: &mut Front) {
        self.reactor.cancel_timer(front.deadline_timer);
        for fwd in &mut front.forwards {
            self.stop_racing(fwd);
        }
    }

    /// Cancels one forward's hedge timer and drops its live attempts.
    fn stop_racing(&mut self, fwd: &mut Forward) {
        if let Some(key) = fwd.hedge_timer.take() {
            self.reactor.cancel_timer(key);
        }
        for token in fwd.attempt_tokens.drain(..) {
            if let Some(at) = self.attempts.remove(&token) {
                let _ = self.reactor.deregister(at.stream.as_raw_fd());
                self.reactor.cancel_timer(at.timer);
                if at.hedge {
                    self.shared.metrics.hedges_inflight.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        fwd.in_flight = 0;
    }

    /// Advances one front connection as far as readiness allows.
    fn service(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match self.drive(token, &mut conn) {
            Drive::Keep => {
                self.conns.insert(token, conn);
            }
            Drive::Close => self.teardown(&mut conn),
        }
    }

    fn drive(&mut self, token: u64, conn: &mut Conn) -> Drive {
        loop {
            if conn.out_pos < conn.out.len() {
                match flush(conn) {
                    Ok(true) => {
                        conn.out.clear();
                        conn.out_pos = 0;
                        if conn.close_after_flush {
                            return Drive::Close;
                        }
                    }
                    Ok(false) => return Drive::Keep,
                    Err(_) => return Drive::Close,
                }
            }
            if conn.pending.is_some() {
                return Drive::Keep;
            }
            match conn.parser.step() {
                ParseStep::Request(req) => {
                    self.settle_head_timer(token, conn);
                    let close = req.wants_close() || self.shared.shutdown.load(Ordering::Relaxed);
                    if let Some(resp) = self.dispatch(token, &req, close, conn) {
                        push_response(conn, &resp, close);
                    }
                    continue;
                }
                ParseStep::Malformed(why) => {
                    let resp = Response::json(400, error_json(&why));
                    push_response(conn, &resp, true);
                    continue;
                }
                ParseStep::TooLarge { declared } => {
                    let close = self.shared.shutdown.load(Ordering::Relaxed);
                    let resp = too_large_response(declared, self.shared);
                    push_response(conn, &resp, close);
                    continue;
                }
                ParseStep::NeedMore => {}
            }
            if !conn.want_read {
                self.settle_head_timer(token, conn);
                return Drive::Keep;
            }
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return self.peer_closed(conn),
                    Ok(n) => {
                        conn.parser.push(&chunk[..n]);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.want_read = false;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return self.read_failed(conn),
                }
            }
        }
    }

    /// Arms the head-timeout timer when a request is mid-parse with no
    /// reply owed, and cancels it when the connection goes idle.
    fn settle_head_timer(&mut self, token: u64, conn: &mut Conn) {
        let partial = !conn.parser.is_idle() && conn.pending.is_none();
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
    fn peer_closed(&mut self, conn: &mut Conn) -> Drive {
        match conn.parser.phase() {
            Phase::Head if conn.parser.is_idle() => Drive::Close,
            Phase::Head => self.abort_with(conn, "connection closed mid-request"),
            Phase::Body => self.abort_with(conn, "connection closed mid-body"),
            Phase::Discard => self.abort_too_large(conn),
        }
    }

    /// A hard read error: a 400 mid-body, else just close.
    fn read_failed(&mut self, conn: &mut Conn) -> Drive {
        match conn.parser.phase() {
            Phase::Head => Drive::Close,
            Phase::Body => self.abort_with(conn, "read error mid-body"),
            Phase::Discard => self.abort_too_large(conn),
        }
    }

    fn abort_with(&mut self, conn: &mut Conn, why: &str) -> Drive {
        let resp = Response::json(400, error_json(why));
        push_response(conn, &resp, true);
        let _ = flush(conn);
        Drive::Close
    }

    fn abort_too_large(&mut self, conn: &mut Conn) -> Drive {
        let declared = conn.parser.discarding().unwrap_or_default();
        let resp = too_large_response(declared, self.shared);
        push_response(conn, &resp, true);
        let _ = flush(conn);
        Drive::Close
    }

    /// The request-head timeout fired: the peer stalled mid-request.
    fn expire_head(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        conn.head_timer = None;
        if conn.pending.is_some() || conn.parser.is_idle() {
            self.conns.insert(token, conn);
            return;
        }
        let drive = match conn.parser.phase() {
            Phase::Head => self.abort_with(&mut conn, "timed out mid-request"),
            Phase::Body => self.abort_with(&mut conn, "timed out reading body"),
            Phase::Discard => self.abort_too_large(&mut conn),
        };
        match drive {
            Drive::Keep => {
                self.conns.insert(token, conn);
            }
            Drive::Close => self.teardown(&mut conn),
        }
    }

    // ---------- dispatch ----------

    /// Routes one parsed request. Returns the response to emit now, or
    /// `None` when the answer waits on backends.
    fn dispatch(
        &mut self,
        token: u64,
        req: &Request,
        close: bool,
        conn: &mut Conn,
    ) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/elect") => self.dispatch_elect(token, req, close, conn),
            ("POST", "/elect/batch") => self.dispatch_batch(token, req, close, conn),
            _ => Some(route_aux(req, self.shared)),
        }
    }

    /// `POST /elect`: validation failures and an empty topology answer
    /// inline (the error body byte-identical to a backend's, garbage
    /// never forwarded); otherwise one forward races the candidates.
    fn dispatch_elect(
        &mut self,
        token: u64,
        req: &Request,
        close: bool,
        conn: &mut Conn,
    ) -> Option<Response> {
        let shared = self.shared;
        let span = open_request_span(req, shared);
        let request = match ElectRequest::from_json(&req.body) {
            Ok(r) => r,
            Err(why) => {
                let resp = Response::json(400, error_json(&why));
                return Some(close_request_span(span, shared, resp));
            }
        };
        let topo = shared.topology();
        if topo.is_empty() {
            return Some(close_request_span(span, shared, no_backends(shared)));
        }
        let candidates = plan_candidates(shared, &topo, &request.labels, span.ctx());
        let forward = Forward::new(candidates[0], "/elect", req.body.clone(), candidates);
        let front = Front {
            deadline_timer: self.arm_deadline(token, &span),
            span,
            close,
            topo,
            forwards: vec![forward],
            batch: None,
        };
        self.start_front(token, conn, front)
    }

    /// `POST /elect/batch`: split by owning shard, one forward per
    /// sub-batch, each with the full breaker/failover/hedging treatment.
    fn dispatch_batch(
        &mut self,
        token: u64,
        req: &Request,
        close: bool,
        conn: &mut Conn,
    ) -> Option<Response> {
        let shared = self.shared;
        let span = open_request_span(req, shared);
        ClusterMetrics::inc(&shared.metrics.batch_requests);
        let entries = match hre_svc::batch_from_json(&req.body) {
            Ok(entries) => entries,
            Err(why) => {
                let resp = Response::json(400, error_json(&why));
                return Some(close_timed(span, shared, resp));
            }
        };
        shared.metrics.batch_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
        let topo = shared.topology();
        if topo.is_empty() {
            return Some(close_timed(span, shared, no_backends(shared)));
        }
        let (slots, subs) = split_batch(entries, &topo);
        shared.metrics.batch_fanout.fetch_add(subs.len() as u64, Ordering::Relaxed);
        let forwards = subs
            .into_iter()
            .map(|sub| {
                let candidates = plan_candidates(shared, &topo, &sub.labels, span.ctx());
                Forward::new(sub.shard, "/elect/batch", sub.body, candidates)
            })
            .collect();
        let front = Front {
            deadline_timer: self.arm_deadline(token, &span),
            span,
            close,
            topo,
            forwards,
            batch: Some(slots),
        };
        self.start_front(token, conn, front)
    }

    fn arm_deadline(&mut self, token: u64, span: &RequestSpan) -> TimerKey {
        let deadline = span.started + self.shared.cfg.deadline;
        self.reactor.set_timer_at(deadline, token | DEADLINE_BIT)
    }

    /// Launches every forward of a fresh request. Returns the answer
    /// when every forward concluded at once (each failed to connect
    /// anywhere, or a batch had nothing to forward); otherwise parks the
    /// request on the connection.
    fn start_front(&mut self, token: u64, conn: &mut Conn, mut front: Front) -> Option<Response> {
        for f in 0..front.forwards.len() {
            self.launch_next(token, &mut front, f, false);
            self.settle_hedge_timer(token, &mut front, f);
        }
        if front.done() {
            return Some(self.conclude(front));
        }
        conn.pending = Some(Box::new(front));
        None
    }

    // ---------- the forward race ----------

    /// Launches candidates of forward `f`, starting at its `next`, until
    /// one attempt is actually in flight. A synchronous connect failure
    /// gets the same bookkeeping as an asynchronous transport error and
    /// the walk continues. With no candidate left and nothing in flight
    /// the forward concludes.
    fn launch_next(&mut self, token: u64, front: &mut Front, f: usize, hedge: bool) {
        let shared = Arc::clone(self.shared);
        let fwd = &mut front.forwards[f];
        while fwd.next < fwd.candidates.len() {
            let pos = fwd.next;
            let idx = fwd.candidates[pos];
            fwd.next += 1;
            let slot = Arc::clone(&front.topo.slots[idx]);
            if hedge {
                fwd.hedged.push(idx);
            } else if pos > 0 {
                let ctx = front.span.ctx();
                shared.recorder.record_event(
                    ctx.trace_id,
                    ctx.root,
                    Stage::Failover,
                    idx as u64,
                    0,
                );
            }
            match self.start_attempt(token, f, fwd, front.span.ctx(), idx, &slot, hedge) {
                Ok(()) => {
                    fwd.in_flight += 1;
                    fwd.current = idx;
                    return;
                }
                Err(_) => {
                    // Same bookkeeping as a resolved transport error.
                    slot.breaker.record_failure_at(shared.cfg.clock.now());
                    slot.clear_idle();
                    ClusterMetrics::inc(&slot.metrics.errors);
                    ClusterMetrics::inc(&slot.metrics.failovers);
                }
            }
        }
        if fwd.in_flight == 0 {
            let answer = fwd.last_answer.take().unwrap_or_else(|| {
                ClusterMetrics::inc(&shared.metrics.request_errors);
                Response::json(502, error_json("no backend reachable"))
            });
            self.conclude_forward(fwd, answer);
        }
    }

    /// Starts one nonblocking attempt against `slot`: pooled stream or
    /// fresh nonblocking connect, registered with the reactor, request
    /// bytes staged. An `Err` means the attempt never got airborne (its
    /// `attempt` span is recorded here, error-flagged).
    #[allow(clippy::too_many_arguments)]
    fn start_attempt(
        &mut self,
        front: u64,
        f: usize,
        fwd: &mut Forward,
        ctx: TraceCtx,
        idx: usize,
        slot: &Arc<BackendSlot>,
        hedge: bool,
    ) -> std::io::Result<()> {
        let shared = self.shared;
        ClusterMetrics::inc(&slot.metrics.requests);
        let span = shared.recorder.next_span_id();
        let t0 = shared.cfg.clock.now();
        let record_failed = |shared: &Shared| {
            shared.recorder.record_span_with_id(
                span,
                ctx.trace_id,
                ctx.root,
                Stage::Attempt,
                t0,
                shared.cfg.clock.now(),
                SpanAttrs { a: idx as u64, err: true, ..Default::default() },
            );
        };
        let staged = match slot.take_idle() {
            Some(stream) => Ok((stream, true)),
            None => dial(slot.addr()),
        }
        .and_then(|(stream, connected)| {
            stream.set_nodelay(true)?;
            Ok((stream, connected))
        });
        let (stream, connected) = match staged {
            Ok(pair) => pair,
            Err(e) => {
                record_failed(shared);
                return Err(e);
            }
        };
        let token = self.token();
        if let Err(e) = self.reactor.register(stream.as_raw_fd(), token, Interest::BOTH) {
            record_failed(shared);
            return Err(e);
        }
        let out = request_bytes(
            "POST",
            fwd.path,
            slot.addr(),
            &[("x-trace-id", &ctx.trace_id.to_hex()), ("x-parent-span", &span.to_hex())],
            Some(&fwd.body),
        );
        let timer = self.reactor.set_timer(shared.cfg.timeout, token | ATTEMPT_BIT);
        if hedge {
            shared.metrics.hedges_inflight.fetch_add(1, Ordering::Relaxed);
        }
        let phase = if connected {
            AttemptPhase::Sending { out, pos: 0 }
        } else {
            AttemptPhase::Connecting { out }
        };
        self.attempts.insert(
            token,
            Attempt {
                front,
                fwd: f,
                idx,
                slot: Arc::clone(slot),
                stream,
                phase,
                span,
                t0,
                ctx,
                hedge,
                timer,
            },
        );
        fwd.attempt_tokens.push(token);
        self.kick_attempts.push(token);
        Ok(())
    }

    /// Arms or disarms forward `f`'s hedge timer to match its race:
    /// armed exactly while it is unconcluded, one attempt is live and a
    /// candidate remains, at the launched backend's adaptive threshold.
    fn settle_hedge_timer(&mut self, token: u64, front: &mut Front, f: usize) {
        let fwd = &mut front.forwards[f];
        let want = fwd.answer.is_none() && fwd.in_flight == 1 && fwd.next < fwd.candidates.len();
        match (want, fwd.hedge_timer) {
            (true, None) => {
                let threshold =
                    front.topo.slots[fwd.current].hedge_threshold(self.shared.cfg.hedge_min);
                let key = HEDGE_BIT | (f as u64) << FWD_SHIFT | token;
                fwd.hedge_timer = Some(self.reactor.set_timer(threshold, key));
            }
            (false, Some(key)) => {
                self.reactor.cancel_timer(key);
                fwd.hedge_timer = None;
            }
            _ => {}
        }
    }

    /// Forward `f`'s hedge threshold elapsed in silence: fire a
    /// duplicate at its next candidate — an extra socket and a timer,
    /// never a thread.
    fn fire_hedge(&mut self, token: u64, f: usize) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        let front = conn.pending.as_deref_mut().filter(|front| f < front.forwards.len());
        if let Some(front) = front {
            let fwd = &mut front.forwards[f];
            fwd.hedge_timer = None;
            if fwd.answer.is_none() && fwd.in_flight == 1 && fwd.next < fwd.candidates.len() {
                ClusterMetrics::inc(&front.topo.slots[fwd.current].metrics.hedges);
                let next = fwd.candidates[fwd.next] as u64;
                let ctx = front.span.ctx();
                self.shared.recorder.record_event(ctx.trace_id, ctx.root, Stage::Hedge, next, 0);
                self.launch_next(token, front, f, true);
                self.settle_hedge_timer(token, front, f);
            }
        }
        self.finish_if_done(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// The request deadline expired mid-race: every unconcluded forward
    /// answers 504 and the request is answered.
    fn expire_deadline(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        if let Some(front) = conn.pending.as_deref_mut() {
            for fwd in front.forwards.iter_mut().filter(|fwd| fwd.answer.is_none()) {
                ClusterMetrics::inc(&self.shared.metrics.request_errors);
                let answer = Response::json(504, error_json("cluster deadline expired"));
                self.conclude_forward(fwd, answer);
            }
        }
        self.finish_if_done(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// Ends a forward's race with `answer`: its hedge timer and any
    /// attempts still in flight are torn down.
    fn conclude_forward(&mut self, fwd: &mut Forward, answer: Response) {
        self.stop_racing(fwd);
        fwd.answer = Some(answer);
    }

    /// Answers the connection's request if its last forward concluded.
    fn finish_if_done(&mut self, token: u64, conn: &mut Conn) {
        if !conn.pending.as_ref().is_some_and(|front| front.done()) {
            return;
        }
        let front = conn.pending.take().expect("checked above");
        let close = front.close;
        let resp = self.conclude(*front);
        push_response(conn, &resp, close);
        self.kick_fronts.push(token);
    }

    /// Finishes a request whose forwards all concluded: deadline
    /// cancelled, the answer assembled (a batch's joined in request
    /// order), front-door latency recorded, envelope closed.
    fn conclude(&mut self, mut front: Front) -> Response {
        self.abandon(&mut front);
        let Front { span, forwards, batch, .. } = front;
        let shared = self.shared;
        let resp = match batch {
            None => forwards.into_iter().next().and_then(|f| f.answer).expect("one forward"),
            Some(slots) => {
                let answers: BTreeMap<usize, Response> = forwards
                    .into_iter()
                    .map(|f| (f.shard, f.answer.expect("every forward concluded")))
                    .collect();
                let (body, failed) = gather(&slots, &answers);
                shared.metrics.batch_entry_errors.fetch_add(failed, Ordering::Relaxed);
                Response::json(200, body).with_header("x-batch-errors", failed.to_string())
            }
        };
        close_timed(span, shared, resp)
    }

    // ---------- attempts ----------

    /// Advances one backend attempt as far as readiness allows and
    /// resolves it if it finished.
    fn drive_attempt(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(mut at) = self.attempts.remove(&token) else { return };
        match step_attempt(&mut at, readable, writable) {
            AttemptStep::Continue => {
                self.attempts.insert(token, at);
            }
            AttemptStep::Done { resp, clean } => self.attempt_done(token, at, resp, clean),
            AttemptStep::Failed => self.attempt_failed(token, at),
        }
    }

    /// The per-attempt transport timeout fired — the analogue of a
    /// blocking client's read timeout elapsing.
    fn attempt_timed_out(&mut self, token: u64) {
        let Some(at) = self.attempts.remove(&token) else { return };
        self.attempt_failed(token, at);
    }

    /// Common resolution prologue: reactor detach, span, hedge gauge,
    /// race bookkeeping. Returns the owning connection if its request
    /// still races this attempt.
    fn resolve_prologue(&mut self, token: u64, at: &Attempt, err: bool) -> Option<Conn> {
        self.reactor.cancel_timer(at.timer);
        let _ = self.reactor.deregister(at.stream.as_raw_fd());
        let shared = self.shared;
        shared.recorder.record_span_with_id(
            at.span,
            at.ctx.trace_id,
            at.ctx.root,
            Stage::Attempt,
            at.t0,
            shared.cfg.clock.now(),
            SpanAttrs { a: at.idx as u64, err, ..Default::default() },
        );
        if at.hedge {
            shared.metrics.hedges_inflight.fetch_sub(1, Ordering::Relaxed);
        }
        let mut conn = self.conns.remove(&at.front)?;
        let fwd = conn.pending.as_deref_mut().and_then(|front| front.forwards.get_mut(at.fwd));
        match fwd {
            Some(fwd) if fwd.attempt_tokens.contains(&token) => {
                fwd.attempt_tokens.retain(|t| *t != token);
                fwd.in_flight -= 1;
                Some(conn)
            }
            _ => {
                // Concluded attempts are torn down with their forward, so
                // this is only a guard: nobody is listening.
                self.conns.insert(at.front, conn);
                None
            }
        }
    }

    /// A complete backend response: a definitive answer concludes the
    /// forward, a busy or failed one keeps the race going.
    fn attempt_done(&mut self, token: u64, at: Attempt, resp: ClientResponse, clean: bool) {
        let shared = self.shared;
        let Some(mut conn) = self.resolve_prologue(token, &at, resp.status >= 500) else { return };
        let elapsed = shared.cfg.clock.now().saturating_duration_since(at.t0);
        at.slot.metrics.latency.record(elapsed);
        at.slot.breaker.record_success();
        let front = conn.pending.as_deref_mut().expect("resolve_prologue found the request");
        let fwd = &mut front.forwards[at.fwd];
        match resp.status {
            503 => {
                // Alive but saturated: not a breaker event.
                ClusterMetrics::inc(&at.slot.metrics.busy);
                fwd.last_answer = Some(pass_through(&resp, at.slot.addr()));
            }
            status if status >= 500 => {
                ClusterMetrics::inc(&at.slot.metrics.errors);
                fwd.last_answer = Some(pass_through(&resp, at.slot.addr()));
            }
            _ => {
                // Definitive answer — first one wins.
                if fwd.hedged.contains(&at.idx) {
                    ClusterMetrics::inc(&shared.metrics.hedge_wins);
                }
                let answer = pass_through(&resp, at.slot.addr());
                if clean {
                    at.slot.put_idle(at.stream);
                }
                self.conclude_forward(fwd, answer);
            }
        }
        self.keep_racing(at.front, front, at.fwd);
        self.finish_if_done(at.front, &mut conn);
        self.conns.insert(at.front, conn);
    }

    /// A transport failure: breaker failure, the slot's idle streams
    /// closed, failover.
    fn attempt_failed(&mut self, token: u64, at: Attempt) {
        let shared = self.shared;
        let Some(mut conn) = self.resolve_prologue(token, &at, true) else { return };
        at.slot.breaker.record_failure_at(shared.cfg.clock.now());
        at.slot.clear_idle();
        ClusterMetrics::inc(&at.slot.metrics.errors);
        ClusterMetrics::inc(&at.slot.metrics.failovers);
        let front = conn.pending.as_deref_mut().expect("resolve_prologue found the request");
        self.keep_racing(at.front, front, at.fwd);
        self.finish_if_done(at.front, &mut conn);
        self.conns.insert(at.front, conn);
    }

    /// After an attempt resolved without concluding forward `f`: launch
    /// the next candidate if nothing is in flight (which may conclude
    /// the forward), then re-settle its hedge timer.
    fn keep_racing(&mut self, token: u64, front: &mut Front, f: usize) {
        let fwd = &front.forwards[f];
        if fwd.answer.is_none() && fwd.in_flight == 0 {
            self.launch_next(token, front, f, false);
        }
        self.settle_hedge_timer(token, front, f);
    }
}

/// The 502 for a router that has no backends yet.
fn no_backends(shared: &Shared) -> Response {
    ClusterMetrics::inc(&shared.metrics.request_errors);
    Response::json(502, error_json("no backends configured (awaiting control-plane config)"))
}

/// Records the front-door latency and closes the envelope.
fn close_timed(span: RequestSpan, shared: &Arc<Shared>, resp: Response) -> Response {
    let spent = shared.cfg.clock.now().saturating_duration_since(span.started);
    shared.metrics.request_latency.record(spent);
    close_request_span(span, shared, resp)
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

/// Advances one attempt's wire state machine.
fn step_attempt(at: &mut Attempt, mut readable: bool, mut writable: bool) -> AttemptStep {
    loop {
        match &mut at.phase {
            AttemptPhase::Connecting { out } => {
                if !writable {
                    return AttemptStep::Continue;
                }
                match at.stream.take_error() {
                    Ok(None) => {
                        let out = std::mem::take(out);
                        at.phase = AttemptPhase::Sending { out, pos: 0 };
                    }
                    // A pending error or an inspection failure both
                    // mean the handshake did not complete.
                    _ => return AttemptStep::Failed,
                }
            }
            AttemptPhase::Sending { out, pos } => {
                if !writable {
                    return AttemptStep::Continue;
                }
                while *pos < out.len() {
                    match at.stream.write(&out[*pos..]) {
                        Ok(0) => return AttemptStep::Failed,
                        Ok(n) => *pos += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            writable = false;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return AttemptStep::Failed,
                    }
                }
                if *pos < out.len() {
                    return AttemptStep::Continue;
                }
                at.phase = AttemptPhase::Receiving {
                    parser: ResponseParser::new(hre_svc::http::DEFAULT_MAX_BODY),
                };
            }
            AttemptPhase::Receiving { parser } => {
                if !readable {
                    return AttemptStep::Continue;
                }
                let mut chunk = [0u8; 4096];
                loop {
                    match at.stream.read(&mut chunk) {
                        // EOF before a complete response — including a
                        // pooled stream the backend closed while idle.
                        // A transport error; failover handles it.
                        Ok(0) => return AttemptStep::Failed,
                        Ok(n) => {
                            parser.push(&chunk[..n]);
                            match parser.step() {
                                RespStep::Response(resp) => {
                                    let clean = parser.is_idle();
                                    return AttemptStep::Done { resp, clean };
                                }
                                RespStep::Invalid { .. } => return AttemptStep::Failed,
                                RespStep::NeedMore => {}
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            readable = false;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return AttemptStep::Failed,
                    }
                }
            }
        }
    }
}

/// Serializes a response onto the connection's output buffer, appending
/// when earlier bytes are still flushing.
fn push_response(conn: &mut Conn, resp: &Response, close: bool) {
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    conn.out.extend_from_slice(&resp.to_bytes(close));
    conn.close_after_flush |= close;
}

/// The 413 for an over-cap body.
fn too_large_response(declared: usize, shared: &Shared) -> Response {
    let why =
        format!("request body of {declared} bytes exceeds the {} byte limit", shared.cfg.max_body);
    Response::json(413, error_json(&why))
}

/// Writes as much buffered output as the socket accepts; `Ok(true)`
/// when the buffer is fully flushed.
fn flush(conn: &mut Conn) -> std::io::Result<bool> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}
