//! The forward race as a sans-IO state machine. A [`ForwardMachine`]
//! holds one routed request: its envelope, its topology snapshot, one
//! forward per target (`/elect` owns one, a batch one per owning shard,
//! with that shard's `/elect/batch` sub-body) and their attempts. It owns
//! no socket and no timer and reads `now` from
//! [`ClusterConfig::clock`](crate::ClusterConfig::clock). The router's
//! reactor drives it over sockets and reactor timers; the deterministic
//! simulator (`hre-dst`) over its virtual-time event heap.
//!
//! Inputs: [`ForwardMachine::on_response`], [`ForwardMachine::on_failure`]
//! and [`ForwardMachine::on_timer`]. Outputs: the [`Command`]s drained by
//! [`ForwardMachine::next_command`].
//!
//! How an attempt resolves its forward's race:
//!
//! * 503 → busy, kept as the forward's `last_answer`; other ≥ 500 →
//!   errors, also kept; anything else is definitive and the first one
//!   wins (a hedge's win is counted). A transport failure — reported, or
//!   the attempt timeout firing — trips the breaker's failure count,
//!   closes the slot's idle streams, and fails over. With no candidate
//!   left and nothing in flight the forward answers its `last_answer`,
//!   or 502 `no backend reachable`.
//! * While exactly one attempt is live and a candidate remains, a hedge
//!   timer at the live backend's adaptive threshold
//!   ([`BackendSlot::hedge_threshold`]) is armed; when it fires the next
//!   candidate launches beside it.
//! * The request deadline answers 504 for every unconcluded forward.
//!
//! The request is answered when its last forward concludes (a batch's
//! answers joined by the pure `gather`). Concluding a forward abandons
//! its live attempts: an abandoned attempt records no `attempt` span and
//! a late response to it changes nothing, while every attempt that
//! resolved records one, so the winner's tree is complete.

use crate::metrics::ClusterMetrics;
use crate::router::{
    close_span, gather, open_span, pass_through, plan_candidates, split_batch, Shared, Slot,
    TraceCtx,
};
use crate::topology::{BackendSlot, Topology};
use hre_runtime::trace::{SpanAttrs, SpanId, Stage};
use hre_svc::http::{request_bytes, Request, Response};
use hre_svc::{error_json, ClientResponse, ElectRequest, RequestSpan};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One attempt of a [`ForwardMachine`], numbered from 0 in launch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttemptId(pub u32);

/// A timer a [`ForwardMachine`] arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Timer {
    /// The adaptive hedge threshold of forward `.0`.
    Hedge(usize),
    /// An attempt's transport timeout.
    Attempt(AttemptId),
    /// The request deadline.
    Deadline,
}

/// What a [`ForwardMachine`] asks the code running it to do.
pub enum Command {
    /// Send `request`, a complete HTTP/1.1 request, to `slot`; report the
    /// outcome as `attempt`'s.
    Launch {
        /// The attempt the outcome belongs to.
        attempt: AttemptId,
        /// The backend to send it to.
        slot: Arc<BackendSlot>,
        /// The request bytes, trace headers included.
        request: Vec<u8>,
    },
    /// Drop an attempt's exchange: nothing waits for it any more.
    Abandon(AttemptId),
    /// Call [`ForwardMachine::on_timer`] with the timer at the instant.
    Arm(Timer, Instant),
    /// Disarm a timer armed before.
    Cancel(Timer),
    /// The request's answer; the machine is finished.
    Answer(Response),
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
    /// The attempts in flight.
    live: Vec<AttemptId>,
    /// Best non-definitive answer seen (503 / 5xx pass-through).
    last_answer: Option<Response>,
    hedge_armed: bool,
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
            live: Vec::new(),
            last_answer: None,
            hedge_armed: false,
            answer: None,
        }
    }
}

/// One attempt: where it went, and the span it records when it resolves.
#[derive(Clone, Copy)]
struct Attempt {
    fwd: usize,
    /// Backend index within the request's topology snapshot.
    idx: usize,
    /// Position in its forward's candidate list (0: the primary).
    pos: usize,
    span: SpanId,
    t0: Instant,
    hedge: bool,
    timer_armed: bool,
}

/// One routed request's race; see the module docs.
pub struct ForwardMachine {
    shared: Arc<Shared>,
    /// The envelope, until the answer closes it.
    span: Option<RequestSpan>,
    ctx: TraceCtx,
    /// The one topology snapshot every forward of the request uses.
    topo: Arc<Topology>,
    forwards: Vec<Forward>,
    /// `None` for `/elect`, whose answer is its one forward's; a batch's
    /// entry slots for [`gather`] otherwise.
    batch: Option<Vec<Slot>>,
    attempts: Vec<Attempt>,
    deadline_armed: bool,
    out: VecDeque<Command>,
}

impl ForwardMachine {
    /// `POST /elect`: validation failures and an empty topology are
    /// answered at once (`Err`; the error body byte-identical to a
    /// backend's, garbage never forwarded); otherwise one forward races
    /// the candidates.
    pub fn elect(shared: &Arc<Shared>, req: &Request) -> Result<ForwardMachine, Response> {
        let span = open_span(req, shared);
        let request = match ElectRequest::from_json(&req.body) {
            Ok(r) => r,
            Err(why) => {
                return Err(close_span(span, shared, Response::json(400, error_json(&why))))
            }
        };
        let topo = shared.topology();
        if topo.is_empty() {
            return Err(close_span(span, shared, no_backends(shared)));
        }
        let candidates = plan_candidates(shared, &topo, &request.labels, TraceCtx::of(&span));
        let forward = Forward::new(candidates[0], "/elect", req.body.clone(), candidates);
        Ok(ForwardMachine::start(shared, span, topo, vec![forward], None))
    }

    /// `POST /elect/batch`: split by owning shard, one forward per
    /// sub-batch, each with the full breaker/failover/hedging treatment.
    pub fn batch(shared: &Arc<Shared>, req: &Request) -> Result<ForwardMachine, Response> {
        let span = open_span(req, shared);
        ClusterMetrics::inc(&shared.metrics.batch_requests);
        let entries = match hre_svc::batch_from_json(&req.body) {
            Ok(entries) => entries,
            Err(why) => {
                return Err(close_timed(span, shared, Response::json(400, error_json(&why))))
            }
        };
        shared.metrics.batch_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
        let topo = shared.topology();
        if topo.is_empty() {
            return Err(close_timed(span, shared, no_backends(shared)));
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
        Ok(ForwardMachine::start(shared, span, topo, forwards, Some(slots)))
    }

    /// Arms the deadline and launches every forward. A batch with
    /// nothing to forward is answered at once.
    fn start(
        shared: &Arc<Shared>,
        span: RequestSpan,
        topo: Arc<Topology>,
        forwards: Vec<Forward>,
        batch: Option<Vec<Slot>>,
    ) -> ForwardMachine {
        let deadline = span.admitted + shared.cfg.deadline;
        let mut m = ForwardMachine {
            shared: Arc::clone(shared),
            ctx: TraceCtx::of(&span),
            span: Some(span),
            topo,
            forwards,
            batch,
            attempts: Vec::new(),
            deadline_armed: true,
            out: VecDeque::from([Command::Arm(Timer::Deadline, deadline)]),
        };
        for f in 0..m.forwards.len() {
            m.launch_next(f, false);
            m.settle_hedge_timer(f);
        }
        m.finish_if_done();
        m
    }

    /// The next command to carry out, in order. Carrying one out may feed
    /// an input back (a launch that fails at once), whose commands queue
    /// behind the rest.
    pub fn next_command(&mut self) -> Option<Command> {
        self.out.pop_front()
    }

    /// An attempt's complete response: a definitive answer concludes its
    /// forward, a busy or failed one keeps the race going. Returns
    /// whether the attempt won its forward, the one case in which its
    /// stream may be pooled. A response to an attempt that is not live
    /// changes nothing.
    pub fn on_response(&mut self, attempt: AttemptId, resp: ClientResponse) -> bool {
        let Some(at) = self.resolve(attempt, resp.status >= 500) else { return false };
        let slot = Arc::clone(&self.topo.slots[at.idx]);
        slot.metrics.latency.record(self.shared.cfg.clock.now().saturating_duration_since(at.t0));
        slot.breaker.record_success();
        let fwd = &mut self.forwards[at.fwd];
        let won = match resp.status {
            503 => {
                // Alive but saturated: not a breaker event.
                ClusterMetrics::inc(&slot.metrics.busy);
                fwd.last_answer = Some(pass_through(&resp, slot.addr()));
                false
            }
            status if status >= 500 => {
                ClusterMetrics::inc(&slot.metrics.errors);
                fwd.last_answer = Some(pass_through(&resp, slot.addr()));
                false
            }
            _ => {
                // Definitive answer — first one wins.
                if fwd.hedged.contains(&at.idx) {
                    ClusterMetrics::inc(&self.shared.metrics.hedge_wins);
                }
                self.conclude_forward(at.fwd, pass_through(&resp, slot.addr()));
                true
            }
        };
        self.keep_racing(at.fwd);
        self.finish_if_done();
        won
    }

    /// An attempt's transport failure: connect refused, reset, desync.
    /// A failure of an attempt that is not live changes nothing.
    pub fn on_failure(&mut self, attempt: AttemptId) {
        if let Some(at) = self.resolve(attempt, true) {
            self.transport_failed(at);
        }
    }

    /// A timer armed by [`Command::Arm`] fired. A timer cancelled since
    /// changes nothing.
    pub fn on_timer(&mut self, timer: Timer) {
        match timer {
            Timer::Hedge(f) => self.fire_hedge(f),
            Timer::Attempt(id) => {
                // The analogue of a blocking client's read timeout: the
                // exchange is dropped and counts as a transport failure.
                let Some(at) = self.attempts.get_mut(id.0 as usize) else { return };
                if !std::mem::take(&mut at.timer_armed) {
                    return;
                }
                self.out.push_back(Command::Abandon(id));
                self.on_failure(id);
            }
            Timer::Deadline => {
                if std::mem::take(&mut self.deadline_armed) {
                    self.expire();
                }
            }
        }
    }

    /// Launches forward `f`'s next candidate, or concludes the forward
    /// if none is left and nothing is in flight.
    fn launch_next(&mut self, f: usize, hedge: bool) {
        let shared = &self.shared;
        let fwd = &mut self.forwards[f];
        let Some(&idx) = fwd.candidates.get(fwd.next) else {
            if fwd.live.is_empty() {
                let answer = fwd.last_answer.take().unwrap_or_else(|| {
                    ClusterMetrics::inc(&shared.metrics.request_errors);
                    Response::json(502, error_json("no backend reachable"))
                });
                self.conclude_forward(f, answer);
            }
            return;
        };
        let pos = fwd.next;
        fwd.next += 1;
        let ctx = self.ctx;
        if hedge {
            fwd.hedged.push(idx);
        } else if pos > 0 {
            shared.recorder.record_event(ctx.trace_id, ctx.root, Stage::Failover, idx as u64, 0);
        }
        let slot = Arc::clone(&self.topo.slots[idx]);
        ClusterMetrics::inc(&slot.metrics.requests);
        let span = shared.recorder.next_span_id();
        let t0 = shared.cfg.clock.now();
        let attempt = AttemptId(self.attempts.len() as u32);
        self.attempts.push(Attempt { fwd: f, idx, pos, span, t0, hedge, timer_armed: true });
        fwd.live.push(attempt);
        fwd.current = idx;
        if hedge {
            shared.metrics.hedges_inflight.fetch_add(1, Ordering::Relaxed);
        }
        let request = request_bytes(
            "POST",
            fwd.path,
            slot.addr(),
            &[("x-trace-id", &ctx.trace_id.to_hex()), ("x-parent-span", &span.to_hex())],
            Some(&fwd.body),
        );
        self.out.push_back(Command::Launch { attempt, slot, request });
        self.out.push_back(Command::Arm(Timer::Attempt(attempt), t0 + shared.cfg.timeout));
    }

    /// Arms or disarms forward `f`'s hedge timer to match its race:
    /// armed exactly while it is unconcluded, one attempt is live and a
    /// candidate remains, at the launched backend's adaptive threshold.
    fn settle_hedge_timer(&mut self, f: usize) {
        let fwd = &mut self.forwards[f];
        let want = fwd.answer.is_none() && fwd.live.len() == 1 && fwd.next < fwd.candidates.len();
        if want && !fwd.hedge_armed {
            let threshold = self.topo.slots[fwd.current].hedge_threshold(self.shared.cfg.hedge_min);
            let at = self.shared.cfg.clock.now() + threshold;
            self.out.push_back(Command::Arm(Timer::Hedge(f), at));
        } else if !want && fwd.hedge_armed {
            self.out.push_back(Command::Cancel(Timer::Hedge(f)));
        }
        fwd.hedge_armed = want;
    }

    /// Forward `f`'s hedge threshold elapsed in silence: fire a
    /// duplicate at its next candidate.
    fn fire_hedge(&mut self, f: usize) {
        let Some(fwd) = self.forwards.get_mut(f) else { return };
        if !std::mem::take(&mut fwd.hedge_armed) {
            return;
        }
        if fwd.answer.is_none() && fwd.live.len() == 1 && fwd.next < fwd.candidates.len() {
            ClusterMetrics::inc(&self.topo.slots[fwd.current].metrics.hedges);
            let next = fwd.candidates[fwd.next] as u64;
            let ctx = self.ctx;
            self.shared.recorder.record_event(ctx.trace_id, ctx.root, Stage::Hedge, next, 0);
            self.launch_next(f, true);
            self.settle_hedge_timer(f);
        }
    }

    /// Takes a live attempt out of its race: its timer cancelled, its
    /// span recorded, the hedge gauge settled. `None` if it is not live.
    fn resolve(&mut self, id: AttemptId, err: bool) -> Option<Attempt> {
        let at = self.attempts.get_mut(id.0 as usize)?;
        let live = &mut self.forwards[at.fwd].live;
        live.remove(live.iter().position(|&a| a == id)?);
        if std::mem::take(&mut at.timer_armed) {
            self.out.push_back(Command::Cancel(Timer::Attempt(id)));
        }
        let at = *at;
        let shared = &self.shared;
        shared.recorder.record_span_with_id(
            at.span,
            self.ctx.trace_id,
            self.ctx.root,
            Stage::Attempt,
            at.t0,
            shared.cfg.clock.now(),
            SpanAttrs { a: at.idx as u64, err, ..Default::default() },
        );
        if at.hedge {
            shared.metrics.hedges_inflight.fetch_sub(1, Ordering::Relaxed);
        }
        Some(at)
    }

    /// The one transport-failure site, for reported failures and fired
    /// attempt timeouts alike: breaker failure, the slot's idle streams
    /// closed, failover.
    fn transport_failed(&mut self, at: Attempt) {
        let slot = &self.topo.slots[at.idx];
        if !(self.shared.planted_regression && at.pos > 0) {
            slot.breaker.record_failure_at(self.shared.cfg.clock.now());
        }
        slot.clear_idle();
        ClusterMetrics::inc(&slot.metrics.errors);
        ClusterMetrics::inc(&slot.metrics.failovers);
        self.keep_racing(at.fwd);
        self.finish_if_done();
    }

    /// After an attempt resolved: launch forward `f`'s next candidate if
    /// it still races with nothing in flight (which may conclude it),
    /// then re-settle its hedge timer.
    fn keep_racing(&mut self, f: usize) {
        let fwd = &self.forwards[f];
        if fwd.answer.is_none() && fwd.live.is_empty() {
            self.launch_next(f, false);
        }
        self.settle_hedge_timer(f);
    }

    /// Ends forward `f`'s race with `answer`: its hedge timer and its
    /// attempts still in flight are torn down.
    fn conclude_forward(&mut self, f: usize, answer: Response) {
        let fwd = &mut self.forwards[f];
        if std::mem::take(&mut fwd.hedge_armed) {
            self.out.push_back(Command::Cancel(Timer::Hedge(f)));
        }
        for id in fwd.live.drain(..) {
            let at = &mut self.attempts[id.0 as usize];
            self.out.push_back(Command::Abandon(id));
            if std::mem::take(&mut at.timer_armed) {
                self.out.push_back(Command::Cancel(Timer::Attempt(id)));
            }
            if at.hedge {
                self.shared.metrics.hedges_inflight.fetch_sub(1, Ordering::Relaxed);
            }
        }
        fwd.answer = Some(answer);
    }

    /// The request deadline passed: every unconcluded forward answers 504.
    fn expire(&mut self) {
        for f in 0..self.forwards.len() {
            if self.forwards[f].answer.is_none() {
                ClusterMetrics::inc(&self.shared.metrics.request_errors);
                let answer = Response::json(504, error_json("cluster deadline expired"));
                self.conclude_forward(f, answer);
            }
        }
        self.finish_if_done();
    }

    /// Answers the request once its last forward concluded: the answer
    /// assembled (a batch's joined in request order), front-door latency
    /// recorded, envelope closed.
    fn finish_if_done(&mut self) {
        if self.span.is_none() || self.forwards.iter().any(|f| f.answer.is_none()) {
            return;
        }
        if std::mem::take(&mut self.deadline_armed) {
            self.out.push_back(Command::Cancel(Timer::Deadline));
        }
        let shared = &self.shared;
        let mut answers = self.forwards.iter_mut().map(|f| (f.shard, f.answer.take()));
        let resp = match &self.batch {
            None => answers.next().and_then(|(_, a)| a).expect("one forward"),
            Some(slots) => {
                let answers: BTreeMap<usize, Response> = answers
                    .map(|(shard, a)| (shard, a.expect("every forward concluded")))
                    .collect();
                let (body, failed) = gather(slots, &answers);
                shared.metrics.batch_entry_errors.fetch_add(failed, Ordering::Relaxed);
                Response::json(200, body).with_header("x-batch-errors", failed.to_string())
            }
        };
        let span = self.span.take().expect("checked above");
        self.out.push_back(Command::Answer(close_timed(span, shared, resp)));
    }
}

/// The 502 for a router that has no backends yet.
fn no_backends(shared: &Shared) -> Response {
    ClusterMetrics::inc(&shared.metrics.request_errors);
    Response::json(502, error_json("no backends configured (awaiting control-plane config)"))
}

/// Records the front-door latency and closes the envelope.
fn close_timed(span: RequestSpan, shared: &Shared, resp: Response) -> Response {
    let spent = shared.cfg.clock.now().saturating_duration_since(span.admitted);
    shared.metrics.request_latency.record(spent);
    close_span(span, shared, resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::shard_key;
    use crate::router::ClusterConfig;
    use hre_runtime::{Clock, ClockHandle, VirtualClock};
    use std::time::Duration;

    /// Never dialed: the machine only names them.
    const ADDRS: [&str; 3] = ["10.0.0.1:7001", "10.0.0.2:7002", "10.0.0.3:7003"];
    const ELECT: &str = r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#;

    fn router(clock: &Arc<VirtualClock>) -> Arc<Shared> {
        Arc::new(Shared::new(ClusterConfig {
            backends: ADDRS.iter().map(|a| a.to_string()).collect(),
            timeout: Duration::from_millis(120),
            deadline: Duration::from_millis(400),
            hedge_min: Duration::from_millis(30),
            slow_threshold: None,
            clock: ClockHandle::from(Arc::clone(clock)),
            ..ClusterConfig::default()
        }))
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn reply(status: u16, headers: &[(&str, &str)], body: &str) -> ClientResponse {
        ClientResponse {
            status,
            headers: headers.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// What a machine asked for so far; `armed` holds the timers still
    /// armed, and arming an armed timer or cancelling a disarmed one
    /// fails the test.
    #[derive(Default)]
    struct Log {
        launches: Vec<(AttemptId, Arc<BackendSlot>, Vec<u8>)>,
        abandoned: Vec<AttemptId>,
        armed: Vec<(Timer, Instant)>,
        answer: Option<Response>,
    }

    impl Log {
        fn drain(&mut self, m: &mut ForwardMachine) {
            while let Some(command) = m.next_command() {
                match command {
                    Command::Launch { attempt, slot, request } => {
                        self.launches.push((attempt, slot, request))
                    }
                    Command::Abandon(attempt) => self.abandoned.push(attempt),
                    Command::Arm(timer, at) => {
                        assert!(self.armed_at(timer).is_none(), "{timer:?} armed twice");
                        self.armed.push((timer, at));
                    }
                    Command::Cancel(timer) => {
                        let i = self.armed.iter().position(|(t, _)| *t == timer);
                        self.armed.remove(i.unwrap_or_else(|| panic!("{timer:?} not armed")));
                    }
                    Command::Answer(resp) => {
                        assert!(self.answer.replace(resp).is_none(), "answered twice")
                    }
                }
            }
        }

        /// Fires an armed timer at the machine.
        fn fire(&mut self, m: &mut ForwardMachine, timer: Timer) {
            let i = self.armed.iter().position(|(t, _)| *t == timer);
            self.armed.remove(i.unwrap_or_else(|| panic!("{timer:?} not armed")));
            m.on_timer(timer);
            self.drain(m);
        }

        fn armed_at(&self, timer: Timer) -> Option<Instant> {
            self.armed.iter().find(|(t, _)| *t == timer).map(|(_, at)| *at)
        }

        fn launched(&self, i: usize) -> (AttemptId, Arc<BackendSlot>) {
            (self.launches[i].0, Arc::clone(&self.launches[i].1))
        }
    }

    fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A fresh `/elect` machine and what its start asked for.
    fn elect(shared: &Arc<Shared>) -> (ForwardMachine, Log) {
        let mut m = ForwardMachine::elect(shared, &post("/elect", ELECT)).expect("routed");
        let mut log = Log::default();
        log.drain(&mut m);
        (m, log)
    }

    #[test]
    fn a_silent_primary_is_hedged_and_the_hedge_wins() {
        let clock = VirtualClock::new();
        let shared = router(&clock);
        // A 50 ms history puts 2 × p95 above the 30 ms floor.
        for slot in &shared.topology().slots {
            for _ in 0..20 {
                slot.metrics.latency.record(Duration::from_millis(50));
            }
        }
        let t0 = clock.now();
        let (mut m, mut log) = elect(&shared);
        let (primary, primary_slot) = log.launched(0);
        let p95 = primary_slot.metrics.latency.snapshot().quantile_us(0.95);
        let threshold = Duration::from_micros(2 * p95);
        assert!(threshold > shared.cfg.hedge_min, "{threshold:?}");
        assert_eq!(log.armed_at(Timer::Hedge(0)), Some(t0 + threshold));
        assert_eq!(log.armed_at(Timer::Attempt(primary)), Some(t0 + shared.cfg.timeout));

        clock.advance(threshold);
        log.fire(&mut m, Timer::Hedge(0));
        assert_eq!(log.launches.len(), 2, "the hedge launched");
        let (hedge, hedge_slot) = log.launched(1);
        assert_ne!(hedge_slot.addr(), primary_slot.addr());
        assert_eq!(load(&primary_slot.metrics.hedges), 1);
        assert_eq!(shared.metrics.hedges_inflight.load(Ordering::Relaxed), 1);

        clock.advance(Duration::from_millis(2));
        let doc = r#"{"leader":0}"#;
        assert!(m.on_response(hedge, reply(200, &[("x-cache", "HIT")], doc)), "the hedge won");
        log.drain(&mut m);
        let answer = log.answer.take().expect("answered");
        assert_eq!((answer.status, answer.body.as_slice()), (200, doc.as_bytes()));
        assert_eq!(header(&answer, "x-backend"), Some(hedge_slot.addr()));
        assert_eq!(header(&answer, "x-cache"), Some("HIT"));
        assert_eq!(log.abandoned, vec![primary]);
        assert!(log.armed.is_empty(), "every timer disarmed");
        assert_eq!(load(&shared.metrics.hedge_wins), 1);
        assert_eq!(shared.metrics.hedges_inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_transport_failure_trips_the_breaker_and_fails_over() {
        let clock = VirtualClock::new();
        let shared = router(&clock);
        let (mut m, mut log) = elect(&shared);
        let (primary, slot) = log.launched(0);
        m.on_failure(primary);
        log.drain(&mut m);
        assert_eq!(slot.breaker.failures_total(), 1);
        assert_eq!((load(&slot.metrics.errors), load(&slot.metrics.failovers)), (1, 1));
        assert_eq!(log.launches.len(), 2, "the next candidate launched");
        assert_ne!(log.launched(1).1.addr(), slot.addr());
        assert_eq!(log.armed_at(Timer::Attempt(primary)), None);
        assert!(log.answer.is_none());
    }

    #[test]
    fn when_every_candidate_is_busy_the_last_503_is_relayed() {
        let clock = VirtualClock::new();
        let shared = router(&clock);
        let (mut m, mut log) = elect(&shared);
        for i in 0..ADDRS.len() {
            let (attempt, _) = log.launched(i);
            let retry = (i + 1).to_string();
            m.on_response(attempt, reply(503, &[("retry-after", &retry)], r#"{"error":"busy"}"#));
            log.drain(&mut m);
        }
        let answer = log.answer.take().expect("answered");
        assert_eq!(answer.status, 503);
        assert_eq!(header(&answer, "retry-after"), Some("3"));
        assert_eq!(header(&answer, "x-backend"), Some(log.launched(2).1.addr()));
        assert!(log.armed.is_empty());
        for (_, slot, _) in &log.launches {
            assert_eq!(load(&slot.metrics.busy), 1);
            assert_eq!(slot.breaker.failures_total(), 0, "busy is not a breaker event");
        }
        assert_eq!(load(&shared.metrics.request_errors), 0);
    }

    #[test]
    fn the_deadline_answers_504_and_tears_the_race_down() {
        let clock = VirtualClock::new();
        let shared = router(&clock);
        let (mut m, mut log) = elect(&shared);
        clock.advance(shared.cfg.hedge_min);
        log.fire(&mut m, Timer::Hedge(0));
        assert_eq!(log.launches.len(), 2);
        assert_eq!(log.armed.len(), 3, "the deadline and two attempt timeouts");

        clock.advance(shared.cfg.deadline);
        log.fire(&mut m, Timer::Deadline);
        let answer = log.answer.take().expect("answered");
        assert_eq!(answer.status, 504);
        assert_eq!(answer.body, error_json("cluster deadline expired").into_bytes());
        assert_eq!(log.abandoned, vec![log.launched(0).0, log.launched(1).0]);
        assert!(log.armed.is_empty(), "every timer cancelled");
        assert_eq!(load(&shared.metrics.request_errors), 1);
        assert_eq!(shared.metrics.hedges_inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_batch_launches_one_forward_per_owning_shard() {
        let clock = VirtualClock::new();
        let shared = router(&clock);
        let topo = shared.topology();
        let rings: Vec<Vec<u64>> =
            (1..=12u64).map(|salt| vec![salt, 3, 1, 3, 2, 2, 1, 2]).collect();
        let body: Vec<String> = rings
            .iter()
            .map(|r| format!(r#"{{"ring":{r:?},"algo":"ak"}}"#).replace(' ', ""))
            .collect();
        let mut m =
            ForwardMachine::batch(&shared, &post("/elect/batch", &format!("[{}]", body.join(","))))
                .expect("routed");
        let mut log = Log::default();
        log.drain(&mut m);
        let mut owners: Vec<&str> = rings
            .iter()
            .map(|r| topo.slots[topo.ring.primary(shard_key(r)).expect("ring")].addr())
            .collect();
        owners.sort_unstable();
        owners.dedup();
        assert!(owners.len() > 1, "the rings spread over several shards");
        let mut launched: Vec<&str> = log.launches.iter().map(|(_, slot, _)| slot.addr()).collect();
        launched.sort_unstable();
        assert_eq!(launched, owners);
        assert!(log.launches.iter().all(|(_, _, req)| req.starts_with(b"POST /elect/batch ")));
        assert_eq!(load(&shared.metrics.batch_fanout), owners.len() as u64);
    }

    #[test]
    fn a_response_for_an_abandoned_attempt_changes_nothing() {
        let clock = VirtualClock::new();
        let shared = router(&clock);
        let (mut m, mut log) = elect(&shared);
        let (primary, slot) = log.launched(0);
        log.fire(&mut m, Timer::Attempt(primary));
        assert_eq!(log.abandoned, vec![primary], "the timed-out attempt is dropped");
        let counters = |shared: &Shared| {
            let m = &shared.metrics;
            let b = &slot.metrics;
            [
                load(&m.hedge_wins),
                load(&m.request_errors),
                load(&b.requests),
                load(&b.errors),
                load(&b.busy),
                b.latency.snapshot().count,
                slot.breaker.failures_total(),
            ]
        };
        let before = counters(&shared);
        assert!(!m.on_response(primary, reply(200, &[], "{}")));
        m.on_failure(primary);
        assert!(m.next_command().is_none());
        assert_eq!(counters(&shared), before);
    }
}
