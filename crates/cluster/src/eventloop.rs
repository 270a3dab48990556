//! The router's listener on the front-connection machine
//! ([`hre_svc::front`]): forwards, backend attempts, and the hedge and
//! attempt timers, all on the machine's one reactor thread. What a
//! connection parks here is a [`Routed`] request; its park deadline
//! answers 504.
//!
//! A parked request owns one [`Forward`] per target: a
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
    close_span, gather, open_span, pass_through, plan_candidates, route_aux, split_batch, Shared,
    Slot, TraceCtx,
};
use crate::topology::{BackendSlot, Topology};
use hre_runtime::trace::{SpanAttrs, SpanId, Stage};
use hre_runtime::{tcp_connect_nonblocking, ConnectStart, Event, Interest, Reactor, TimerKey};
use hre_svc::front::{self, Dispatch, Front, Service, Tally};
use hre_svc::http::{request_bytes, Request, RespStep, Response, ResponseParser};
use hre_svc::{error_json, ClientResponse, ElectRequest, RequestSpan};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Timer-token bit marking the adaptive hedge threshold of forward
/// `f` of front connection `conn`: `HEDGE_BIT | f << FWD_SHIFT | conn`.
const HEDGE_BIT: u64 = 1 << 60;
/// Timer-token bit marking the per-attempt transport timeout for
/// attempt `token & !ATTEMPT_BIT`.
const ATTEMPT_BIT: u64 = 1 << 59;
/// Where a hedge timer keeps its forward's index. Tokens stay below
/// `1 << FWD_SHIFT`, and a request owns at most `MAX_BATCH` forwards,
/// which fit in the bits between it and `ATTEMPT_BIT`.
const FWD_SHIFT: u32 = 48;
const TOKEN_MASK: u64 = (1 << FWD_SHIFT) - 1;

/// A routed request parked on its front connection: its envelope and
/// the forwards it owns.
struct Routed {
    span: RequestSpan,
    /// The one topology snapshot every forward of the request uses.
    topo: Arc<Topology>,
    forwards: Vec<Forward>,
    /// `None` for `/elect`, whose answer is its one forward's; a batch's
    /// entry slots for [`gather`] otherwise.
    batch: Option<Vec<Slot>>,
}

impl Routed {
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
    conn: u64,
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
    attempts: HashMap<u64, Attempt>,
    shared: &'a Arc<Shared>,
    /// Freshly launched attempts to drive with synthetic readiness once
    /// their request is parked again.
    kick_attempts: Vec<u64>,
}

/// Runs the routing core until shutdown; returns the number of
/// connections accepted.
pub(crate) fn reactor_loop(reactor: Reactor, listener: TcpListener, shared: &Arc<Shared>) -> u64 {
    let mut el = EventLoop { attempts: HashMap::new(), shared, kick_attempts: Vec::new() };
    front::serve(&mut el, reactor, listener, shared.cfg.max_body, Arc::clone(&shared.shutdown))
}

impl Service for EventLoop<'_> {
    type Parked = Routed;

    fn dispatch(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Routed> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/elect") => self.dispatch_elect(front, token, req),
            ("POST", "/elect/batch") => self.dispatch_batch(front, token, req),
            _ => Dispatch::Answer(route_aux(req, self.shared)),
        }
    }

    /// The request deadline expired mid-race: every unconcluded forward
    /// answers 504 and the request is answered.
    fn expire(&mut self, front: &mut Front<Routed>, token: u64) {
        let Some(mut routed) = front.unpark(token) else { return };
        for fwd in routed.forwards.iter_mut().filter(|fwd| fwd.answer.is_none()) {
            ClusterMetrics::inc(&self.shared.metrics.request_errors);
            let answer = Response::json(504, error_json("cluster deadline expired"));
            self.conclude_forward(front, fwd, answer);
        }
        self.finish_if_done(front, token, routed);
    }

    fn event(&mut self, front: &mut Front<Routed>, ev: Event) {
        self.drive_attempt(front, ev.token, ev.readable, ev.writable || ev.error || ev.hangup);
    }

    fn timer(&mut self, front: &mut Front<Routed>, token: u64) {
        if token & HEDGE_BIT != 0 {
            let f = ((token & !HEDGE_BIT) >> FWD_SHIFT) as usize;
            self.fire_hedge(front, token & TOKEN_MASK, f);
        } else if token & ATTEMPT_BIT != 0 {
            self.attempt_timed_out(front, token & !ATTEMPT_BIT);
        }
    }

    /// Fresh attempts get a synthetic first drive: their fd may already
    /// be writable, and edge-triggered epoll reports current readiness
    /// only on the next poll. Their resolutions may answer requests.
    fn settle(&mut self, front: &mut Front<Routed>) -> bool {
        let kicked = std::mem::take(&mut self.kick_attempts);
        for &token in &kicked {
            self.drive_attempt(front, token, true, true);
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
    // ---------- dispatch ----------

    /// `POST /elect`: validation failures and an empty topology answer
    /// inline (the error body byte-identical to a backend's, garbage
    /// never forwarded); otherwise one forward races the candidates.
    fn dispatch_elect(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Routed> {
        let shared = self.shared;
        let span = open_span(req, shared);
        let request = match ElectRequest::from_json(&req.body) {
            Ok(r) => r,
            Err(why) => {
                let resp = Response::json(400, error_json(&why));
                return Dispatch::Answer(close_span(span, shared, resp));
            }
        };
        let topo = shared.topology();
        if topo.is_empty() {
            return Dispatch::Answer(close_span(span, shared, no_backends(shared)));
        }
        let candidates = plan_candidates(shared, &topo, &request.labels, TraceCtx::of(&span));
        let forward = Forward::new(candidates[0], "/elect", req.body.clone(), candidates);
        self.start(front, token, Routed { span, topo, forwards: vec![forward], batch: None })
    }

    /// `POST /elect/batch`: split by owning shard, one forward per
    /// sub-batch, each with the full breaker/failover/hedging treatment.
    fn dispatch_batch(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Routed> {
        let shared = self.shared;
        let span = open_span(req, shared);
        ClusterMetrics::inc(&shared.metrics.batch_requests);
        let entries = match hre_svc::batch_from_json(&req.body) {
            Ok(entries) => entries,
            Err(why) => {
                let resp = Response::json(400, error_json(&why));
                return Dispatch::Answer(close_timed(span, shared, resp));
            }
        };
        shared.metrics.batch_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
        let topo = shared.topology();
        if topo.is_empty() {
            return Dispatch::Answer(close_timed(span, shared, no_backends(shared)));
        }
        let (slots, subs) = split_batch(entries, &topo);
        shared.metrics.batch_fanout.fetch_add(subs.len() as u64, Ordering::Relaxed);
        let forwards = subs
            .into_iter()
            .map(|sub| {
                let candidates = plan_candidates(shared, &topo, &sub.labels, TraceCtx::of(&span));
                Forward::new(sub.shard, "/elect/batch", sub.body, candidates)
            })
            .collect();
        self.start(front, token, Routed { span, topo, forwards, batch: Some(slots) })
    }

    /// Launches every forward of a fresh request. Answers at once when
    /// every forward concluded at once (each failed to connect anywhere,
    /// or a batch had nothing to forward); otherwise parks the request
    /// until the client-facing deadline.
    fn start(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        mut routed: Routed,
    ) -> Dispatch<Routed> {
        for f in 0..routed.forwards.len() {
            self.launch_next(front, token, &mut routed, f, false);
            self.settle_hedge_timer(front, token, &mut routed, f);
        }
        if routed.done() {
            return Dispatch::Answer(self.conclude(front, routed));
        }
        let deadline = routed.span.admitted + self.shared.cfg.deadline;
        Dispatch::Park(routed, Some(deadline))
    }

    // ---------- the forward race ----------

    /// Launches candidates of forward `f`, starting at its `next`, until
    /// one attempt is actually in flight. A synchronous connect failure
    /// gets the same bookkeeping as an asynchronous transport error and
    /// the walk continues. With no candidate left and nothing in flight
    /// the forward concludes.
    fn launch_next(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        routed: &mut Routed,
        f: usize,
        hedge: bool,
    ) {
        let shared = Arc::clone(self.shared);
        let ctx = TraceCtx::of(&routed.span);
        let fwd = &mut routed.forwards[f];
        while fwd.next < fwd.candidates.len() {
            let pos = fwd.next;
            let idx = fwd.candidates[pos];
            fwd.next += 1;
            let slot = Arc::clone(&routed.topo.slots[idx]);
            if hedge {
                fwd.hedged.push(idx);
            } else if pos > 0 {
                shared.recorder.record_event(
                    ctx.trace_id,
                    ctx.root,
                    Stage::Failover,
                    idx as u64,
                    0,
                );
            }
            match self.start_attempt(front, token, f, fwd, ctx, idx, &slot, hedge) {
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
            self.conclude_forward(front, fwd, answer);
        }
    }

    /// Starts one nonblocking attempt against `slot`: pooled stream or
    /// fresh nonblocking connect, registered with the reactor, request
    /// bytes staged. An `Err` means the attempt never got airborne (its
    /// `attempt` span is recorded here, error-flagged).
    #[allow(clippy::too_many_arguments)]
    fn start_attempt(
        &mut self,
        front: &mut Front<Routed>,
        conn: u64,
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
        let token = front.token();
        if let Err(e) = front.reactor.register(stream.as_raw_fd(), token, Interest::BOTH) {
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
        let timer = front.reactor.set_timer(shared.cfg.timeout, token | ATTEMPT_BIT);
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
                conn,
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
    fn settle_hedge_timer(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        routed: &mut Routed,
        f: usize,
    ) {
        let fwd = &mut routed.forwards[f];
        let want = fwd.answer.is_none() && fwd.in_flight == 1 && fwd.next < fwd.candidates.len();
        match (want, fwd.hedge_timer) {
            (true, None) => {
                let threshold =
                    routed.topo.slots[fwd.current].hedge_threshold(self.shared.cfg.hedge_min);
                let key = HEDGE_BIT | (f as u64) << FWD_SHIFT | token;
                fwd.hedge_timer = Some(front.reactor.set_timer(threshold, key));
            }
            (false, Some(key)) => {
                front.reactor.cancel_timer(key);
                fwd.hedge_timer = None;
            }
            _ => {}
        }
    }

    /// Forward `f`'s hedge threshold elapsed in silence: fire a
    /// duplicate at its next candidate — an extra socket and a timer,
    /// never a thread.
    fn fire_hedge(&mut self, front: &mut Front<Routed>, token: u64, f: usize) {
        let Some(mut routed) = front.unpark(token) else { return };
        if let Some(fwd) = routed.forwards.get_mut(f) {
            fwd.hedge_timer = None;
            if fwd.answer.is_none() && fwd.in_flight == 1 && fwd.next < fwd.candidates.len() {
                ClusterMetrics::inc(&routed.topo.slots[fwd.current].metrics.hedges);
                let next = fwd.candidates[fwd.next] as u64;
                let ctx = TraceCtx::of(&routed.span);
                self.shared.recorder.record_event(ctx.trace_id, ctx.root, Stage::Hedge, next, 0);
                self.launch_next(front, token, &mut routed, f, true);
                self.settle_hedge_timer(front, token, &mut routed, f);
            }
        }
        self.finish_if_done(front, token, routed);
    }

    /// Cancels one forward's hedge timer and drops its live attempts.
    fn stop_racing(&mut self, front: &mut Front<Routed>, fwd: &mut Forward) {
        if let Some(key) = fwd.hedge_timer.take() {
            front.reactor.cancel_timer(key);
        }
        for token in fwd.attempt_tokens.drain(..) {
            if let Some(at) = self.attempts.remove(&token) {
                let _ = front.reactor.deregister(at.stream.as_raw_fd());
                front.reactor.cancel_timer(at.timer);
                if at.hedge {
                    self.shared.metrics.hedges_inflight.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        fwd.in_flight = 0;
    }

    /// Ends a forward's race with `answer`: its hedge timer and any
    /// attempts still in flight are torn down.
    fn conclude_forward(&mut self, front: &mut Front<Routed>, fwd: &mut Forward, answer: Response) {
        self.stop_racing(front, fwd);
        fwd.answer = Some(answer);
    }

    /// Answers the request if its last forward concluded, else parks it
    /// again.
    fn finish_if_done(&mut self, front: &mut Front<Routed>, token: u64, routed: Routed) {
        if routed.done() {
            let resp = self.conclude(front, routed);
            front.answer(token, resp);
        } else {
            front.repark(token, routed);
        }
    }

    /// Finishes a request whose forwards all concluded: every race torn
    /// down, the answer assembled (a batch's joined in request order),
    /// front-door latency recorded, envelope closed.
    fn conclude(&mut self, front: &mut Front<Routed>, mut routed: Routed) -> Response {
        for fwd in &mut routed.forwards {
            self.stop_racing(front, fwd);
        }
        let Routed { span, forwards, batch, .. } = routed;
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
    fn drive_attempt(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        readable: bool,
        writable: bool,
    ) {
        let Some(mut at) = self.attempts.remove(&token) else { return };
        match step_attempt(&mut at, readable, writable) {
            AttemptStep::Continue => {
                self.attempts.insert(token, at);
            }
            AttemptStep::Done { resp, clean } => self.attempt_done(front, token, at, resp, clean),
            AttemptStep::Failed => self.attempt_failed(front, token, at),
        }
    }

    /// The per-attempt transport timeout fired — the analogue of a
    /// blocking client's read timeout elapsing.
    fn attempt_timed_out(&mut self, front: &mut Front<Routed>, token: u64) {
        let Some(at) = self.attempts.remove(&token) else { return };
        self.attempt_failed(front, token, at);
    }

    /// Common resolution prologue: reactor detach, span, hedge gauge,
    /// race bookkeeping. Returns the owning request if it still races
    /// this attempt.
    fn resolve_prologue(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        at: &Attempt,
        err: bool,
    ) -> Option<Routed> {
        front.reactor.cancel_timer(at.timer);
        let _ = front.reactor.deregister(at.stream.as_raw_fd());
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
        let mut routed = front.unpark(at.conn)?;
        match routed.forwards.get_mut(at.fwd) {
            Some(fwd) if fwd.attempt_tokens.contains(&token) => {
                fwd.attempt_tokens.retain(|t| *t != token);
                fwd.in_flight -= 1;
                Some(routed)
            }
            _ => {
                // Concluded attempts are torn down with their forward, so
                // this is only a guard: nobody is listening.
                front.repark(at.conn, routed);
                None
            }
        }
    }

    /// A complete backend response: a definitive answer concludes the
    /// forward, a busy or failed one keeps the race going.
    fn attempt_done(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        at: Attempt,
        resp: ClientResponse,
        clean: bool,
    ) {
        let shared = self.shared;
        let Some(mut routed) = self.resolve_prologue(front, token, &at, resp.status >= 500) else {
            return;
        };
        let elapsed = shared.cfg.clock.now().saturating_duration_since(at.t0);
        at.slot.metrics.latency.record(elapsed);
        at.slot.breaker.record_success();
        let fwd = &mut routed.forwards[at.fwd];
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
                self.conclude_forward(front, fwd, answer);
            }
        }
        self.keep_racing(front, at.conn, &mut routed, at.fwd);
        self.finish_if_done(front, at.conn, routed);
    }

    /// A transport failure: breaker failure, the slot's idle streams
    /// closed, failover.
    fn attempt_failed(&mut self, front: &mut Front<Routed>, token: u64, at: Attempt) {
        let shared = self.shared;
        let Some(mut routed) = self.resolve_prologue(front, token, &at, true) else { return };
        at.slot.breaker.record_failure_at(shared.cfg.clock.now());
        at.slot.clear_idle();
        ClusterMetrics::inc(&at.slot.metrics.errors);
        ClusterMetrics::inc(&at.slot.metrics.failovers);
        self.keep_racing(front, at.conn, &mut routed, at.fwd);
        self.finish_if_done(front, at.conn, routed);
    }

    /// After an attempt resolved without concluding forward `f`: launch
    /// the next candidate if nothing is in flight (which may conclude
    /// the forward), then re-settle its hedge timer.
    fn keep_racing(
        &mut self,
        front: &mut Front<Routed>,
        token: u64,
        routed: &mut Routed,
        f: usize,
    ) {
        let fwd = &routed.forwards[f];
        if fwd.answer.is_none() && fwd.in_flight == 0 {
            self.launch_next(front, token, routed, f, false);
        }
        self.settle_hedge_timer(front, token, routed, f);
    }
}

/// The 502 for a router that has no backends yet.
fn no_backends(shared: &Shared) -> Response {
    ClusterMetrics::inc(&shared.metrics.request_errors);
    Response::json(502, error_json("no backends configured (awaiting control-plane config)"))
}

/// Records the front-door latency and closes the envelope.
fn close_timed(span: RequestSpan, shared: &Arc<Shared>, resp: Response) -> Response {
    let spent = shared.cfg.clock.now().saturating_duration_since(span.admitted);
    shared.metrics.request_latency.record(spent);
    close_span(span, shared, resp)
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
