//! The router's listener on the front-connection machine
//! ([`hre_svc::front`]), which runs each routed request's
//! [`ForwardMachine`] on the reactor. What a connection parks here is a
//! routed request's machine, or a trace merge waiting on its backend
//! fetches. This module keeps only what touches the OS: the slots' idle
//! pools, reactor timers standing in for the machine's, and the probe
//! sweep's timer. A machine's deadline is its connection's park deadline.
//!
//! Every backend exchange — an attempt, a trace fetch, a health probe —
//! is a wire of the front machine ([`Front::open_wire`]), multiplexed on
//! the same reactor. Attempt streams come from the slot's idle pool or a
//! fresh dial, and a winner's clean stream goes back to the pool. A
//! trace fetch or a probe always dials afresh: it must not take a stream
//! a race could reuse.

use crate::forward::{AttemptId, Command, ForwardMachine, Timer};
use crate::router::{route_aux, Shared};
use crate::topology::BackendSlot;
use hre_runtime::trace::{SpanRecord, TraceId};
use hre_runtime::{Reactor, TimerKey};
use hre_svc::front::{self, Dispatch, Front, Service, Tally, WireOutcome};
use hre_svc::http::{request_bytes, Request, Response};
use hre_svc::{error_json, tracewire};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timer-token bit marking the adaptive hedge threshold of forward
/// `f` of front connection `conn`: `HEDGE_BIT | f << FWD_SHIFT | conn`.
const HEDGE_BIT: u64 = 1 << 60;
/// Timer-token bit marking the transport timeout of the attempt on wire
/// `token & !ATTEMPT_BIT`.
const ATTEMPT_BIT: u64 = 1 << 59;
/// Timer token of the next probe sweep.
const SWEEP: u64 = 1 << 58;
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
enum Owner {
    /// An attempt of the machine parked on front connection `conn`.
    Attempt { conn: u64, id: AttemptId },
    /// The trace fetch from topology slot `i` for the merge parked on
    /// front connection `conn`.
    Fetch { conn: u64, i: usize },
    /// A health probe of the current sweep.
    Probe,
}

struct EventLoop<'a> {
    /// Every wire out, with whom it answers and the slot it went to.
    wires: HashMap<u64, (Owner, Arc<BackendSlot>)>,
    shared: &'a Arc<Shared>,
}

/// Runs the routing core until shutdown; returns the number of
/// connections accepted.
pub(crate) fn reactor_loop(reactor: Reactor, listener: TcpListener, shared: &Arc<Shared>) -> u64 {
    let mut el = EventLoop { wires: HashMap::new(), shared };
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

    /// The first probe sweep comes one `health_interval` after start.
    fn started(&mut self, front: &mut Front<Parked>) {
        front.reactor.set_timer(self.shared.cfg.health_interval, SWEEP);
    }

    fn timer(&mut self, front: &mut Front<Parked>, token: u64) {
        // A draining router stops probing.
        if token == SWEEP {
            if !self.shared.shutdown.load(Ordering::Relaxed) {
                self.sweep(front);
            }
            return;
        }
        let (conn, timer) = if token & HEDGE_BIT != 0 {
            let f = ((token & !HEDGE_BIT) >> FWD_SHIFT) as usize;
            (token & TOKEN_MASK, Timer::Hedge(f))
        } else if token & ATTEMPT_BIT != 0 {
            match self.wires.get(&(token & !ATTEMPT_BIT)) {
                Some((Owner::Attempt { conn, id }, _)) => (*conn, Timer::Attempt(*id)),
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

    /// Hands a finished wire's outcome to its owner.
    fn wire_done(&mut self, front: &mut Front<Parked>, token: u64, outcome: WireOutcome) {
        let Some((owner, slot)) = self.wires.remove(&token) else { return };
        match (owner, outcome) {
            (Owner::Attempt { conn, id }, WireOutcome::Done(resp, stream)) => {
                self.input(front, conn, |r| {
                    r.resolved(id);
                    let won = r.machine.on_response(id, resp);
                    if let Some(stream) = stream.filter(|_| won) {
                        slot.put_idle(stream);
                    }
                })
            }
            (Owner::Attempt { conn, id }, WireOutcome::Failed) => self.input(front, conn, |r| {
                r.resolved(id);
                r.machine.on_failure(id);
            }),
            (Owner::Fetch { conn, i }, outcome) => {
                // A fetch touches no breaker, pool or counter: a failed
                // or non-200 one only contributes nothing.
                let spans = match outcome {
                    WireOutcome::Done(resp, _) if resp.status == 200 => {
                        tracewire::spans_from_doc(&resp.body_text()).unwrap_or_default()
                    }
                    _ => Vec::new(),
                };
                let src = slot.addr();
                let spans = spans.into_iter().map(|s| SpanRecord { src: src.to_string(), ..s });
                self.fetch_done(front, conn, token, i, spans.collect());
            }
            (Owner::Probe, outcome) => {
                let healthy = matches!(outcome, WireOutcome::Done(resp, _) if resp.status == 200);
                self.probed(front, &slot, healthy);
            }
        }
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
                    let owner = Owner::Attempt { conn, id: attempt };
                    match self.open_wire(front, owner, slot, request, None) {
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
            let owner = Owner::Fetch { conn: token, i };
            if let Ok(wire) = self.open_wire(front, owner, Arc::clone(slot), request, None) {
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

    /// One probe sweep ([`Shared::start_sweep`]): a `GET /healthz` to
    /// every target at once, each within [`Shared::probe_timeout`].
    fn sweep(&mut self, front: &mut Front<Parked>) {
        let (targets, next) = self.shared.start_sweep();
        let deadline = self.shared.cfg.clock.now() + self.shared.probe_timeout();
        for slot in targets {
            let request = request_bytes("GET", "/healthz", slot.addr(), &[], None);
            let opened =
                self.open_wire(front, Owner::Probe, Arc::clone(&slot), request, Some(deadline));
            if opened.is_err() {
                self.probed(front, &slot, false);
            }
        }
        if let Some(at) = next {
            front.reactor.set_timer_at(at, SWEEP);
        }
    }

    /// A probe ended; the sweep's last one arms the next sweep.
    fn probed(&mut self, front: &mut Front<Parked>, slot: &BackendSlot, healthy: bool) {
        if let Some(at) = self.shared.probe_answered(slot, healthy) {
            front.reactor.set_timer_at(at, SWEEP);
        }
    }

    /// Opens a wire to `slot`: an attempt takes a pooled stream if there
    /// is one, anything else dials. Returns the wire's token.
    fn open_wire(
        &mut self,
        front: &mut Front<Parked>,
        owner: Owner,
        slot: Arc<BackendSlot>,
        request: Vec<u8>,
        deadline: Option<Instant>,
    ) -> std::io::Result<u64> {
        let pooled = match owner {
            Owner::Attempt { .. } => slot.take_idle(),
            Owner::Fetch { .. } | Owner::Probe => None,
        };
        let token = front.open_wire(slot.addr(), pooled, request, deadline)?;
        self.wires.insert(token, (owner, slot));
        Ok(token)
    }

    /// Drops a wire nobody waits for.
    fn close_wire(&mut self, front: &mut Front<Parked>, token: u64) {
        self.wires.remove(&token);
        front.close_wire(token);
    }
}
