//! The whole serving path as one deterministic, virtual-time world.
//!
//! One [`World`] runs shipped components — the router's forward race
//! ([`ForwardMachine`]) over its breakers, hash ring and topology, its
//! prober's sweep and its config fence ([`Shared`]), each backend's svc
//! ([`Desk`] and [`hre_svc::execute`] over its own cache), and the
//! control plane's member ([`Machine`]) on every backend and on the
//! router — in one event loop driven by a [`VirtualClock`]. The router is
//! one [`ClusterConfig`], every backend one [`SvcConfig`], and every
//! member one [`CtrlConfig`], all on the world's clock, their timers fed
//! from the world's event heap. Attempts, probes and control exchanges
//! travel as HTTP bytes over one modelled hop; a cut link drops them (the
//! caller's timeout fires) and a dead process refuses them. Modelled
//! rather than shipped: the engine's cost and the transport of the `Ak`
//! round. Every latency draw comes from the plan's seed, so a run is a
//! pure function of its [`ScenarioPlan`]: the transcript hash is
//! byte-identical across machines, thread counts, and reruns.
//!
//! Four invariants are checked:
//!
//! - **I1 (config safety)**: the router never accepts two different
//!   configurations at one epoch, and accepted epochs never regress.
//! - **I2 (failure attribution)**: every transport failure the world
//!   delivered to the router (an attempt that timed out, a failed probe)
//!   shows in the breaker bookkeeping of that backend's slot
//!   (I2a, [`Breaker::failures_total`](hre_cluster::Breaker::failures_total));
//!   and a client-visible failure (502, 504) falls in a fault window or
//!   while some breaker is not closed (I2b).
//! - **I3 (answer fidelity)**: every 200 body is byte-equal to the
//!   oracle's independently computed `response_json`.
//! - **I4 (post-heal convergence)**: within [`convergence_budget`] of the
//!   last fault window's end, every live member and the router hold one
//!   identical config, whose backends are exactly the live backends and
//!   whose coordinator is live. The world ticks the control plane until
//!   that holds, or the budget is spent.
//!
//! Elections additionally check **I0**: the coordinator `Ak` elects is
//! the plan's Lyndon-rotation owner ([`RingPlan::expected_coordinator`]).

use crate::oracle;
use crate::scenario::{FaultSpec, Rng, ScenarioKind, ScenarioPlan};
use hre_cluster::{
    AttemptId, BackendSlot, Breaker, BreakerState, ClusterConfig, Command, ForwardMachine, Shared,
    Timer,
};
use hre_ctrl::{ClusterTopology, CtrlConfig, Machine, MemberId, RingPlan, Role, CTRL_TIMEOUT};
use hre_runtime::trace::{render_tree, SpanRecord};
use hre_runtime::{Clock, ClockHandle, VirtualClock};
use hre_svc::front::Dispatch;
use hre_svc::http::{
    request_bytes, ParseStep, Request, RequestParser, RespStep, Response, ResponseParser,
    DEFAULT_MAX_BODY,
};
use hre_svc::json::Json;
use hre_svc::{
    error_json, response_json, AlgoId, ClientResponse, Desk, ElectRequest, Job, SvcConfig,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The router's endpoint id (backends are `0..n`).
pub const ROUTER: u64 = 1000;

/// The engine's modelled cost: a worker holds a job this long before
/// [`hre_svc::execute`] runs it.
const MISS_BASE_NS: u64 = 800_000;
const MISS_PER_LABEL_NS: u64 = 150_000;
/// Aftermath margin appended to every fault window for the I2 sanity
/// check: long enough for breakers (probe cap 640ms) to close.
const WINDOW_MARGIN_NS: u64 = 1_600_000_000;

/// The router: the shipped config, with the timing E24 has always run,
/// and a warm-start backend list a control plane reconfigures, as
/// `hre cluster-route --ctrl --backends …` starts.
fn router_config(backends: u64, clock: &Arc<VirtualClock>, record_spans: bool) -> ClusterConfig {
    ClusterConfig {
        backends: (0..backends).map(|id| id.to_string()).collect(),
        vnodes: 16,
        timeout: Duration::from_millis(120),
        deadline: Duration::from_millis(400),
        hedge_min: Duration::from_millis(30),
        failure_threshold: 3,
        probe_start: Duration::from_millis(80),
        probe_cap: Duration::from_millis(640),
        trace_cap: if record_spans { 8192 } else { 0 },
        slow_threshold: None,
        dynamic: true,
        clock: ClockHandle::from(Arc::clone(clock)),
        ..ClusterConfig::default()
    }
}

/// Every member's control plane: the shipped config with the timing
/// E24's control plane has always run (heartbeat 75 ms, failure timeout
/// 260 ms, 350 ms between election attempts) and the default push
/// interval. Each member fills in its identity, seeds and recorder.
fn ctrl_config(clock: &Arc<VirtualClock>) -> CtrlConfig {
    CtrlConfig {
        heartbeat_interval: Duration::from_millis(75),
        failure_timeout: Duration::from_millis(260),
        election_idle: Duration::from_millis(350),
        clock: ClockHandle::from(Arc::clone(clock)),
        ..CtrlConfig::default()
    }
}

/// I4's budget: how long after the last fault window closes the control
/// plane of `members` members (backends and the router) may take to
/// converge on `cfg`. An exchange in flight over a cut when it heals
/// fails within [`CTRL_TIMEOUT`]; gossip reaches a member held dead
/// within one round-robin pass (at most `members` ticks), once to learn
/// of the deaths it was charged with and once more to hear the
/// refutations; the initiator may have to wait out one attempt made
/// before the views agreed and one that failed (an `election_idle`
/// each); and a push the round's coordinator sent in vain is repeated
/// after `push_interval`.
pub fn convergence_budget(cfg: &CtrlConfig, members: u32) -> Duration {
    CTRL_TIMEOUT
        + cfg.heartbeat_interval * (2 * members + 2)
        + cfg.election_idle * 2
        + cfg.push_interval
}

/// Knobs for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldOptions {
    /// Plants the regression E24's gate (c) must catch, in the shipped
    /// router ([`Shared::with_planted_regression`]): a transport failure
    /// of a failover or hedge attempt skips its breaker, so breakers
    /// under-count and I2a fails.
    pub planted_regression: bool,
    /// Keep the full transcript text (sweeps keep only the hash).
    pub collect_transcript: bool,
    /// Record flight-recorder spans and render the tree at the end.
    pub record_spans: bool,
}

/// Declares [`RunStats`] from one list of counters, with its JSON form
/// and its sum.
macro_rules! run_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters accumulated over one run.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct RunStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl RunStats {
            /// JSON form for summaries and artifacts.
            pub fn to_json(&self) -> Json {
                let fields = vec![$((stringify!($name), Json::Num(self.$name as i128)),)*];
                hre_svc::json::obj(fields)
            }

            /// Adds another run's counters to these.
            pub fn add(&mut self, other: &RunStats) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

run_stats! {
    /// Client requests injected.
    requests,
    /// Requests answered 200.
    ok,
    /// Requests answered 422 (invalid ring — a correct terminal answer).
    invalid,
    /// Requests answered 503 (the last answer of an exhausted race was
    /// a backend's backpressure).
    busy,
    /// Client-visible failures (502 exhausted, 504 deadline).
    failed,
    /// Hedges the router fired (its per-backend `hedges` counters).
    hedges,
    /// The router's per-backend `failovers` counters: attempts that
    /// failed at the transport level, plus candidates skipped for an
    /// open breaker.
    failovers,
    /// Attempts whose transport timeout fired at the router.
    timeouts,
    /// Responses that arrived for an attempt the router had abandoned.
    wasted,
    /// Hits of the backends' svc result caches (one lookup per request
    /// reaching a backend), every backend generation summed.
    cache_hits,
    /// Misses of the backends' svc result caches.
    cache_misses,
    /// `Ak` rounds the control plane completed.
    elections,
    /// Configs the router's fence accepted.
    config_accepts,
    /// Configs the router refused: its member's `409`s and its fence's.
    config_rejects,
    /// Peers declared dead by the members' failure detectors.
    suspects,
    /// Breaker open transitions (the breakers' own counters).
    breaker_opens,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// FNV-1a hash over the ordered transcript lines — the replay
    /// fingerprint (span/trace ids are excluded by construction).
    pub hash: u64,
    /// Invariant violations, empty on a healthy run.
    pub violations: Vec<String>,
    /// Counters.
    pub stats: RunStats,
    /// Full transcript when requested.
    pub transcript: Option<Vec<String>>,
    /// Rendered flight-recorder span tree when requested.
    pub spans: Option<String>,
}

/// Ordered transcript with a running FNV-1a fingerprint.
struct Tape {
    hash: u64,
    lines: Option<Vec<String>>,
}

impl Tape {
    fn new(collect: bool) -> Tape {
        Tape { hash: 0xcbf2_9ce4_8422_2325, lines: collect.then(Vec::new) }
    }

    fn note(&mut self, t_ns: u64, line: &str) {
        let full = format!("{t_ns} {line}");
        for b in full.bytes().chain(std::iter::once(b'\n')) {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        if let Some(lines) = &mut self.lines {
            lines.push(full);
        }
    }
}

/// One client request: what it asks, and its race at the router.
struct ClientReq {
    elect: ElectRequest,
    admitted_ns: u64,
    /// The race, until it answers.
    machine: Option<ForwardMachine>,
    /// The machine's attempts, by id.
    attempts: Vec<Link>,
    /// The machine's armed timers, with the sequence number of the heap
    /// event that fires each.
    timers: Vec<(Timer, u64)>,
}

/// One attempt on the modelled data path.
struct Link {
    backend: u64,
    /// Index into [`Router::books`].
    book: usize,
    /// Whether the router still waits for it: an answer to an abandoned
    /// or already answered attempt is wasted.
    live: bool,
}

/// A live backend's svc: the shipped [`hre_svc::Shared`] and [`Desk`],
/// with the jobs the desk queued waiting for `cfg.workers` modelled
/// workers.
struct Svc {
    shared: Arc<hre_svc::Shared>,
    desk: Desk,
    queue: VecDeque<Job>,
    /// Workers holding a job for its modelled cost.
    busy: usize,
}

impl Svc {
    /// A freshly started svc: cold cache, zeroed counters.
    fn start(cfg: &SvcConfig) -> Svc {
        let shared = Arc::new(hre_svc::Shared::new(cfg.clone()));
        Svc { desk: Desk::new(Arc::clone(&shared)), shared, queue: VecDeque::new(), busy: 0 }
    }
}

/// A running backend process: its svc and its control-plane member,
/// which records into the svc's flight recorder, as `hre serve --ctrl`
/// wires them.
struct Process {
    svc: Svc,
    ctrl: Machine,
}

struct Backend {
    /// `None` while the backend is down.
    up: Option<Process>,
    /// Bumped by every kill.
    generation: u32,
}

struct Router {
    shared: Arc<Shared>,
    /// The router's control-plane member, wired as `hre cluster-route
    /// --ctrl` wires it: accepted configs go to the fence, deaths trip
    /// breakers.
    ctrl: Machine,
    /// Every slot the router has held, with the transport failures the
    /// world delivered to its breaker: timeouts and failed probes (I2a).
    books: Vec<(Arc<BackendSlot>, u64)>,
    breaker_prev: BTreeMap<u64, BreakerState>,
    /// Every config the fence accepted, by epoch (I1).
    accepted: BTreeMap<u64, Vec<String>>,
    /// Probes of the current sweep still unanswered.
    probing: usize,
}

impl Router {
    /// The book of `slot`, opened on first sight.
    fn book(&mut self, slot: &Arc<BackendSlot>) -> usize {
        match self.books.iter().position(|(s, _)| Arc::ptr_eq(s, slot)) {
            Some(i) => i,
            None => {
                self.books.push((Arc::clone(slot), 0));
                self.books.len() - 1
            }
        }
    }

    /// Opens a book for every slot of the active topology.
    fn book_topology(&mut self) {
        for slot in &self.shared.topology().slots {
            self.book(slot);
        }
    }
}

/// A committed `Ak` round: its epoch and ring order.
type RoundKey = (u64, Vec<MemberId>);

/// A control exchange or a probe on the modelled hop.
struct Call {
    from: u64,
    to: u64,
    caller: Caller,
    /// The request's bytes, until it arrives.
    request: Vec<u8>,
    /// Whether the caller still waits: the first of its answer and its
    /// timeout resolves it.
    open: bool,
}

#[derive(Clone, Copy)]
enum Caller {
    /// Exchange `id` of process `generation` of member `from`.
    Member { generation: u32, id: u64 },
    /// The prober's `GET /healthz` to the slot of book `book`.
    Probe { book: usize },
}

#[derive(Clone, Debug)]
enum Action {
    Kill(u64),
    Revive(u64),
    Cut(Vec<u64>),
    Heal,
    Slow(u64, u64, u64),
    Unslow(u64, u64),
    KillCoord,
    ReviveCoordVictim,
}

/// A timed event. `JobRun` ends a modelled worker's hold on `job`;
/// `SvcDeadline` is the desk's deadline for `ticket`. Both, like a
/// member's tick and round, are void once their backend's generation
/// has moved on.
enum Ev {
    Arrival(u32),
    AttemptArrive {
        req: u32,
        attempt: AttemptId,
        backend: u64,
        request: Vec<u8>,
    },
    JobRun {
        backend: u64,
        generation: u32,
        job: Job,
    },
    SvcDeadline {
        backend: u64,
        generation: u32,
        ticket: u64,
    },
    AttemptResponse {
        req: u32,
        attempt: AttemptId,
        backend: u64,
        response: Vec<u8>,
    },
    RouterTimer {
        req: u32,
        timer: Timer,
        seq: u64,
    },
    CtrlTick {
        member: u64,
        generation: u32,
    },
    ProbeSweep,
    CallArrive(u32),
    /// A call's answer reaches its caller; `None` is a refusal.
    CallAnswer {
        call: u32,
        response: Option<Vec<u8>>,
    },
    CallTimeout(u32),
    RoundDone {
        member: u64,
        generation: u32,
        epoch: u64,
        coordinator: MemberId,
    },
    RoundExpire {
        epoch: u64,
        order: Vec<MemberId>,
    },
    Fault(u32),
}

/// Virtual nanoseconds of an instant read from `clock`.
fn virtual_ns(clock: &VirtualClock, at: Instant) -> u64 {
    at.saturating_duration_since(clock.epoch()).as_nanos() as u64
}

/// Schedules `ev` at `t_ns`, after every event already due then.
fn sched(events: &mut BTreeMap<(u64, u64), Ev>, seq: &mut u64, t_ns: u64, ev: Ev) {
    events.insert((t_ns, *seq), ev);
    *seq += 1;
}

/// Member `endpoint`'s control address.
fn ctrl_addr(endpoint: u64) -> String {
    format!("ctrl:{endpoint}")
}

/// The endpoint behind a control address.
fn ctrl_endpoint(addr: &str) -> Option<u64> {
    addr.strip_prefix("ctrl:")?.parse().ok()
}

/// The response in `bytes`, as the caller's parser frames it.
fn parse_response(bytes: &[u8]) -> ClientResponse {
    let mut parser = ResponseParser::new(DEFAULT_MAX_BODY);
    parser.push(bytes);
    let RespStep::Response(resp) = parser.step() else { unreachable!("whole responses only") };
    resp
}

/// The request in `bytes`, as the callee's parser frames it.
fn parse_request(bytes: &[u8]) -> Request {
    let mut parser = RequestParser::new(DEFAULT_MAX_BODY);
    parser.push(bytes);
    let ParseStep::Request(req) = parser.step() else { unreachable!("whole requests only") };
    req
}

/// The full simulated stack for one plan.
pub struct World {
    plan: ScenarioPlan,
    opts: WorldOptions,
    clock: Arc<VirtualClock>,
    rng: Rng,
    /// Pending events by virtual time, then scheduling order.
    events: BTreeMap<(u64, u64), Ev>,
    evseq: u64,
    tape: Tape,
    stats: RunStats,
    violations: Vec<String>,
    svc_cfg: SvcConfig,
    ctrl_cfg: CtrlConfig,
    backends: Vec<Backend>,
    /// Spans of the backends' svcs that went down, tagged with their
    /// backend (only when spans are recorded).
    backend_spans: Vec<SpanRecord>,
    router: Router,
    reqs: Vec<ClientReq>,
    calls: Vec<Call>,
    /// `Ak` rounds waiting for their members, by epoch and ring order,
    /// with the members (and their generations) that joined.
    rounds: BTreeMap<RoundKey, Vec<(u64, u32)>>,
    blocked: BTreeSet<(u64, u64)>,
    slow: BTreeMap<(u64, u64), u64>,
    timeline: Vec<(u64, Action)>,
    fault_windows: Vec<(u64, u64)>,
    churn_victim: Option<u64>,
    duration_ns: u64,
    /// From here on the world ends as soon as the control plane has
    /// converged: the run is over, every request answered, every fault
    /// window closed.
    settle_ns: u64,
    /// I4's deadline: the last fault window's end plus the budget.
    converge_by_ns: u64,
    /// Set when the world has ended.
    done: bool,
}

/// Runs `plan` until the control plane has converged after the run (or
/// I4's budget is spent) and reports the outcome.
pub fn run_plan(plan: &ScenarioPlan, opts: &WorldOptions) -> RunOutcome {
    let mut w = World::new(plan.clone(), *opts);
    w.bootstrap();
    while !w.done {
        let Some(((t_ns, _), ev)) = w.events.pop_first() else { break };
        w.clock.advance_to_elapsed(Duration::from_nanos(t_ns));
        w.handle(ev);
    }
    w.finish()
}

impl World {
    fn new(plan: ScenarioPlan, opts: WorldOptions) -> World {
        let clock = VirtualClock::new();
        let rng = Rng(plan.seed ^ 0x0DD_B411);
        let tape = Tape::new(opts.collect_transcript);
        let cfg = router_config(plan.backends, &clock, opts.record_spans);
        let shared = Arc::new(Shared::with_planted_regression(cfg, opts.planted_regression));
        // Every backend's svc on the world's clock. The 100 ms deadline
        // sits below the router's 120 ms attempt timeout, so a backend
        // that cannot start a job in time answers its own 504 before the
        // router gives the attempt up as a transport failure.
        let svc_cfg = SvcConfig {
            workers: 2,
            cache_cap: 256,
            cache_shards: 8,
            queue_cap: 8,
            deadline: Duration::from_millis(100),
            trace_cap: if opts.record_spans { 8192 } else { 0 },
            slow_threshold: None,
            clock: ClockHandle::from(Arc::clone(&clock)),
            ..SvcConfig::default()
        };
        let ctrl_cfg = ctrl_config(&clock);
        let router_ctrl = {
            let on_router = CtrlConfig {
                node_id: Some(ROUTER),
                role: Role::Router,
                serve_addr: ROUTER.to_string(),
                seeds: (0..plan.backends).map(ctrl_addr).collect(),
                recorder: Some(Arc::clone(&shared.recorder)),
                ..ctrl_cfg.clone()
            };
            Machine::new(&on_router, ctrl_addr(ROUTER), 1)
        };
        let duration_ns = plan.duration_us * 1_000;
        World {
            plan,
            opts,
            clock,
            rng,
            events: BTreeMap::new(),
            evseq: 0,
            tape,
            stats: RunStats::default(),
            violations: Vec::new(),
            svc_cfg,
            ctrl_cfg,
            backends: Vec::new(),
            backend_spans: Vec::new(),
            router: Router {
                shared,
                ctrl: router_ctrl,
                books: Vec::new(),
                breaker_prev: BTreeMap::new(),
                accepted: BTreeMap::new(),
                probing: 0,
            },
            reqs: Vec::new(),
            calls: Vec::new(),
            rounds: BTreeMap::new(),
            blocked: BTreeSet::new(),
            slow: BTreeMap::new(),
            timeline: Vec::new(),
            fault_windows: Vec::new(),
            churn_victim: None,
            duration_ns,
            settle_ns: duration_ns,
            converge_by_ns: 0,
            done: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Backend `b`'s process, started now at `incarnation`: a fresh svc
    /// with a cold cache, and a member that joins through every other
    /// backend.
    fn start_process(&self, b: u64, incarnation: u64) -> Process {
        let svc = Svc::start(&self.svc_cfg);
        let cfg = CtrlConfig {
            node_id: Some(b),
            role: Role::Backend,
            serve_addr: b.to_string(),
            seeds: (0..self.plan.backends).filter(|p| *p != b).map(ctrl_addr).collect(),
            recorder: Some(Arc::clone(&svc.shared.recorder)),
            ..self.ctrl_cfg.clone()
        };
        Process { ctrl: Machine::new(&cfg, ctrl_addr(b), incarnation), svc }
    }

    fn bootstrap(&mut self) {
        let n = self.plan.backends;
        for b in 0..n {
            let up = Some(self.start_process(b, 1));
            self.backends.push(Backend { up, generation: 0 });
            self.router.breaker_prev.insert(b, BreakerState::Closed);
        }
        // Client arrivals over the first three quarters of the run.
        let mut t = 30_000_000u64;
        for _ in 0..self.plan.requests {
            t += 8_000_000 + self.rng.next_u64() % 25_000_000;
            if t > self.duration_ns * 3 / 4 {
                break;
            }
            let elect = if self.plan.kind == ScenarioKind::AlgoMix {
                oracle::draw_request_diverse(&mut self.rng)
            } else {
                oracle::draw_request(&mut self.rng)
            };
            self.reqs.push(ClientReq {
                elect,
                admitted_ns: 0,
                machine: None,
                attempts: Vec::new(),
                timers: Vec::new(),
            });
            sched(&mut self.events, &mut self.evseq, t, Ev::Arrival((self.reqs.len() - 1) as u32));
            // Every race answers by the router's deadline.
            let answered = t + self.router.shared.cfg.deadline.as_nanos() as u64;
            self.settle_ns = self.settle_ns.max(answered);
        }
        self.stats.requests = self.reqs.len() as u64;
        self.router.book_topology();
        // Every member joins at once and ticks from a staggered start.
        let heartbeat = self.ctrl_cfg.heartbeat_interval.as_nanos() as u64;
        for (i, member) in (0..n).chain([ROUTER]).enumerate() {
            self.run_member(member);
            let first = heartbeat / (n + 2) * (i as u64 + 1);
            sched(&mut self.events, &mut self.evseq, first, Ev::CtrlTick { member, generation: 0 });
        }
        let interval = self.router.shared.cfg.health_interval.as_nanos() as u64;
        sched(&mut self.events, &mut self.evseq, interval, Ev::ProbeSweep);
        // Expand the fault timetable.
        let mut timeline = Vec::new();
        let mut windows = Vec::new();
        let mut last_end = 0;
        for f in &self.plan.faults {
            // Each fault: its start, how long it lasts, and the actions
            // that open and close it.
            let (at_us, span_us, open, close) = match f {
                FaultSpec::Kill { backend, at_us, revive_after_us } => {
                    (at_us, revive_after_us, Action::Kill(*backend), Action::Revive(*backend))
                }
                FaultSpec::KillCoordinator { at_us, revive_after_us } => {
                    (at_us, revive_after_us, Action::KillCoord, Action::ReviveCoordVictim)
                }
                FaultSpec::Partition { isolated, at_us, heal_after_us } => {
                    (at_us, heal_after_us, Action::Cut(isolated.clone()), Action::Heal)
                }
                FaultSpec::SlowLink { from, to, extra_us, at_us, duration_us } => {
                    let slow = Action::Slow(*from, *to, extra_us * 1_000);
                    (at_us, duration_us, slow, Action::Unslow(*from, *to))
                }
            };
            let (at, end) = (at_us * 1_000, (at_us + span_us) * 1_000);
            timeline.push((at, open));
            timeline.push((end, close));
            windows.push((at, end + WINDOW_MARGIN_NS));
            last_end = last_end.max(end);
        }
        timeline.sort_by_key(|(t, _)| *t);
        for (i, (t, _)) in timeline.iter().enumerate() {
            sched(&mut self.events, &mut self.evseq, *t, Ev::Fault(i as u32));
        }
        self.timeline = timeline;
        self.fault_windows = windows;
        self.settle_ns = self.settle_ns.max(last_end);
        let budget = convergence_budget(&self.ctrl_cfg, n as u32 + 1);
        self.converge_by_ns = last_end + budget.as_nanos() as u64;
    }

    /// Seeded one-way latency of the modelled hop (attempts, answers,
    /// probes and control exchanges), honoring slow-link faults.
    fn data_latency_ns(&mut self, from: u64, to: u64) -> u64 {
        let base = 1_500_000 + self.rng.next_u64() % 1_500_000;
        base + self.slow.get(&(from, to)).copied().unwrap_or(0)
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(req) => self.on_arrival(req),
            Ev::AttemptArrive { req, attempt, backend, request } => {
                self.on_attempt_arrive(req, attempt, backend, &request)
            }
            Ev::JobRun { backend, generation, job } => self.on_job_run(backend, generation, job),
            Ev::SvcDeadline { backend, generation, ticket } => {
                self.on_svc_deadline(backend, generation, ticket)
            }
            Ev::AttemptResponse { req, attempt, backend, response } => {
                self.on_attempt_response(req, attempt, backend, &response)
            }
            Ev::RouterTimer { req, timer, seq } => self.on_router_timer(req, timer, seq),
            Ev::CtrlTick { member, generation } => self.on_member_tick(member, generation),
            Ev::ProbeSweep => self.on_probe_sweep(),
            Ev::CallArrive(call) => self.on_call_arrive(call),
            Ev::CallAnswer { call, response } => {
                if std::mem::take(&mut self.calls[call as usize].open) {
                    self.resolve(call, response.as_deref().map(parse_response));
                }
            }
            Ev::CallTimeout(call) => {
                if std::mem::take(&mut self.calls[call as usize].open) {
                    self.resolve(call, None);
                }
            }
            Ev::RoundDone { member, generation, epoch, coordinator } => {
                if let Some(machine) = self.member(member, generation) {
                    machine.on_round(epoch, Ok(coordinator));
                    self.run_member(member);
                }
            }
            Ev::RoundExpire { epoch, order } => self.on_round_expire(epoch, order),
            Ev::Fault(i) => self.on_fault(i),
        }
    }

    // ---- client request path (router + backends) -------------------

    /// A client's `POST /elect` reaches the router: the shipped intake
    /// parses it and plans its candidates.
    fn on_arrival(&mut self, req: u32) {
        let now = self.now_ns();
        let r = &mut self.reqs[req as usize];
        r.admitted_ns = now;
        let http = Request {
            method: "POST".into(),
            path: "/elect".into(),
            headers: Vec::new(),
            body: r.elect.to_json().into_bytes(),
        };
        self.tape.note(now, &format!("req={req} arrive"));
        match ForwardMachine::elect(&self.router.shared, &http) {
            Ok(machine) => {
                self.reqs[req as usize].machine = Some(machine);
                self.run_machine(req);
            }
            Err(resp) => self.finish_request(req, resp),
        }
    }

    /// Carries out request `req`'s machine commands: launches become
    /// data-path events, timers become heap events.
    fn run_machine(&mut self, req: u32) {
        loop {
            let r = &mut self.reqs[req as usize];
            let Some(command) = r.machine.as_mut().and_then(ForwardMachine::next_command) else {
                return;
            };
            match command {
                Command::Launch { attempt, slot, request } => {
                    self.launch(req, attempt, &slot, request)
                }
                Command::Abandon(attempt) => r.attempts[attempt.0 as usize].live = false,
                Command::Arm(timer, at) => {
                    let t_ns = virtual_ns(&self.clock, at);
                    let seq = self.evseq;
                    r.timers.push((timer, seq));
                    sched(
                        &mut self.events,
                        &mut self.evseq,
                        t_ns,
                        Ev::RouterTimer { req, timer, seq },
                    );
                }
                Command::Cancel(timer) => r.timers.retain(|(t, _)| *t != timer),
                Command::Answer(resp) => {
                    r.machine = None;
                    self.finish_request(req, resp);
                }
            }
        }
    }

    /// An attempt leaves the router for `slot`'s backend.
    fn launch(&mut self, req: u32, attempt: AttemptId, slot: &Arc<BackendSlot>, request: Vec<u8>) {
        let now = self.now_ns();
        let backend: u64 = slot.addr().parse().expect("backends are named by id");
        let book = self.router.book(slot);
        let attempts = &mut self.reqs[req as usize].attempts;
        debug_assert_eq!(attempt.0 as usize, attempts.len(), "attempts launch in id order");
        attempts.push(Link { backend, book, live: true });
        self.tape.note(now, &format!("req={req} attempt={} backend={backend}", attempt.0));
        if !self.blocked.contains(&(ROUTER, backend)) {
            let lat = self.data_latency_ns(ROUTER, backend);
            sched(
                &mut self.events,
                &mut self.evseq,
                now + lat,
                Ev::AttemptArrive { req, attempt, backend, request },
            );
        }
    }

    /// An attempt's bytes reach its backend: svc's parser frames them
    /// and its desk answers or parks the request.
    fn on_attempt_arrive(&mut self, req: u32, attempt: AttemptId, backend: u64, request: &[u8]) {
        if self.blocked.contains(&(ROUTER, backend)) {
            return;
        }
        let b = &mut self.backends[backend as usize];
        let Some(Process { svc, .. }) = &mut b.up else { return };
        let mut parser = RequestParser::new(svc.shared.cfg.max_body);
        parser.push(request);
        let ParseStep::Request(http) = parser.step() else {
            unreachable!("the router sends whole requests")
        };
        // The attempt's connection id names it, for the answer's way back.
        let conn = (req as u64) << 32 | attempt.0 as u64;
        let queue = &mut svc.queue;
        match svc.desk.dispatch(conn, &http, |job| {
            queue.push_back(job);
            true
        }) {
            Dispatch::Answer(resp) => self.answer_attempt(backend, conn, &resp),
            Dispatch::Park(ticket, deadline) => {
                if let Some(at) = deadline {
                    let ev = Ev::SvcDeadline { backend, generation: b.generation, ticket };
                    sched(&mut self.events, &mut self.evseq, virtual_ns(&self.clock, at), ev);
                }
                self.start_workers(backend);
            }
        }
    }

    /// Idle modelled workers take queued jobs, each for its modelled
    /// cost.
    fn start_workers(&mut self, backend: u64) {
        let now = self.now_ns();
        let b = &mut self.backends[backend as usize];
        let Some(Process { svc, .. }) = &mut b.up else { return };
        while svc.busy < svc.shared.cfg.workers {
            let Some(job) = svc.queue.pop_front() else { break };
            svc.busy += 1;
            let cost = MISS_BASE_NS + MISS_PER_LABEL_NS * job.ring_len() as u64;
            let ev = Ev::JobRun { backend, generation: b.generation, job };
            sched(&mut self.events, &mut self.evseq, now + cost, ev);
        }
    }

    /// A worker's modelled cost elapsed: svc's `execute` runs the job
    /// with the memoized engine, and the desk answers its request.
    fn on_job_run(&mut self, backend: u64, generation: u32, job: Job) {
        let Some(svc) = self.svc_of(backend, generation) else { return };
        svc.busy -= 1;
        let finished = hre_svc::execute(&svc.shared, job, oracle::elect);
        if let Some((conn, resp)) = finished.and_then(|done| svc.desk.finish(done)) {
            self.answer_attempt(backend, conn, &resp);
        }
        self.start_workers(backend);
    }

    /// The desk's deadline for a parked `/elect` passed.
    fn on_svc_deadline(&mut self, backend: u64, generation: u32, ticket: u64) {
        let Some(svc) = self.svc_of(backend, generation) else { return };
        if let Some((conn, resp)) = svc.desk.expire(ticket) {
            self.answer_attempt(backend, conn, &resp);
        }
    }

    /// `backend`'s svc, unless it went down since `generation` (and
    /// possibly came back as a fresh one).
    fn svc_of(&mut self, backend: u64, generation: u32) -> Option<&mut Svc> {
        let b = &mut self.backends[backend as usize];
        b.up.as_mut().filter(|_| b.generation == generation).map(|p| &mut p.svc)
    }

    /// A backend's answer leaves for the router as wire bytes.
    fn answer_attempt(&mut self, backend: u64, conn: u64, resp: &Response) {
        if self.blocked.contains(&(backend, ROUTER)) {
            return;
        }
        let now = self.now_ns();
        let (req, attempt) = ((conn >> 32) as u32, AttemptId(conn as u32));
        let lat = self.data_latency_ns(backend, ROUTER);
        let response = resp.to_bytes(false);
        let ev = Ev::AttemptResponse { req, attempt, backend, response };
        sched(&mut self.events, &mut self.evseq, now + lat, ev);
    }

    /// A backend's answer reaches the router, where its parser frames
    /// the bytes.
    fn on_attempt_response(&mut self, req: u32, attempt: AttemptId, backend: u64, response: &[u8]) {
        let now = self.now_ns();
        if self.blocked.contains(&(backend, ROUTER)) {
            return; // the response died on a partition cut
        }
        let r = &mut self.reqs[req as usize];
        let link = &mut r.attempts[attempt.0 as usize];
        if !std::mem::take(&mut link.live) {
            self.stats.wasted += 1;
            return;
        }
        let mut parser = ResponseParser::new(DEFAULT_MAX_BODY);
        parser.push(response);
        let RespStep::Response(resp) = parser.step() else {
            unreachable!("backends send whole responses")
        };
        self.tape.note(
            now,
            &format!("req={req} attempt={} status={} backend={backend}", attempt.0, resp.status),
        );
        let machine = r.machine.as_mut().expect("a live attempt's race is running");
        machine.on_response(attempt, resp);
        self.run_machine(req);
    }

    /// A machine timer fires, unless it was cancelled since.
    fn on_router_timer(&mut self, req: u32, timer: Timer, seq: u64) {
        let now = self.now_ns();
        let r = &mut self.reqs[req as usize];
        let Some(i) = r.timers.iter().position(|&armed| armed == (timer, seq)) else { return };
        r.timers.swap_remove(i);
        match timer {
            Timer::Attempt(attempt) => {
                // Delivered as a transport failure: I2a expects it in
                // the breaker's count.
                let link = &r.attempts[attempt.0 as usize];
                self.stats.timeouts += 1;
                self.router.books[link.book].1 += 1;
                let line =
                    format!("req={req} attempt={} timeout backend={}", attempt.0, link.backend);
                self.tape.note(now, &line);
            }
            Timer::Hedge(_) => self.tape.note(now, &format!("req={req} hedge timer")),
            Timer::Deadline => self.tape.note(now, &format!("req={req} deadline")),
        }
        let machine = r.machine.as_mut().expect("an armed timer's race is running");
        machine.on_timer(timer);
        self.run_machine(req);
    }

    /// The router answered request `req`: classify it and check I0, I2b
    /// and I3.
    fn finish_request(&mut self, req: u32, resp: Response) {
        let now = self.now_ns();
        let r = &self.reqs[req as usize];
        let backend = resp.headers.iter().find(|(k, _)| k == "x-backend").map_or("-", |(_, v)| v);
        self.tape.note(
            now,
            &format!(
                "req={req} done status={} backend={backend} attempts={} lat_us={}",
                resp.status,
                r.attempts.len(),
                (now - r.admitted_ns) / 1_000
            ),
        );
        match resp.status {
            200 => {
                self.stats.ok += 1;
                self.check_answer(req, &resp.body);
            }
            422 => self.stats.invalid += 1,
            503 => self.stats.busy += 1,
            status => {
                self.stats.failed += 1;
                // I2b: the failure moment must be explainable — inside a
                // fault window or with some breaker not closed.
                let in_window = self.fault_windows.iter().any(|(s, e)| now >= *s && now <= *e);
                let topo = self.router.shared.topology();
                let breaker_open =
                    topo.slots.iter().any(|s| s.breaker.peek_state() != BreakerState::Closed);
                if !in_window && !breaker_open {
                    self.violations.push(format!(
                        "I2 unexplained client failure: req={req} status={status} at t={now} \
                         with no fault window and every breaker closed"
                    ));
                }
            }
        }
    }

    /// I0 and I3 on a 200: the leader follows the algorithm's winner
    /// rule, and the body is the oracle's, byte for byte.
    fn check_answer(&mut self, req: u32, body: &[u8]) {
        let elect = &self.reqs[req as usize].elect;
        let (oracle_result, d) = oracle::elect_canonical(elect);
        let expect = match oracle_result {
            Ok(out) => {
                let out = out.into_coords(d, elect.labels.len());
                let ring = hre_ring::RingLabeling::from_raw(&elect.labels);
                if let Some(want) = elect.algo.engine().oracle_leader(&ring) {
                    if out.leader != want {
                        self.violations.push(format!(
                            "I0 leader violates {} winner rule: req={req} got={} expected={want}",
                            elect.algo.name(),
                            out.leader
                        ));
                    }
                }
                response_json(elect, &out)
            }
            Err(e) => error_json(&e),
        };
        if body != expect.as_bytes() {
            self.violations.push(format!("I3 response body diverges from oracle: req={req}"));
        }
    }

    // ---- the router's prober ----------------------------------------

    /// Notes a breaker's state in the transcript when it changed.
    fn note_breaker(&mut self, b: u64, breaker: &Breaker) {
        let st = breaker.state_at(self.clock.now());
        if self.router.breaker_prev.insert(b, st) != Some(st) {
            let now = self.now_ns();
            self.tape.note(now, &format!("breaker backend={b} state={}", st.as_str()));
        }
    }

    /// One sweep of the shipped prober: a `GET /healthz` to every backend
    /// whose breaker admits one. As the router's prober thread does, the
    /// next sweep waits `health_interval` after this one's last answer.
    fn on_probe_sweep(&mut self) {
        let timeout = self.router.shared.probe_timeout();
        for slot in self.router.shared.probe_targets() {
            let b: u64 = slot.addr().parse().expect("backends are named by id");
            let book = self.router.book(&slot);
            self.router.probing += 1;
            let request = request_bytes("GET", "/healthz", slot.addr(), &[], None);
            self.call(ROUTER, b, Caller::Probe { book }, request, timeout);
        }
        for slot in &self.router.shared.topology().slots {
            self.note_breaker(slot.addr().parse().expect("named by id"), &slot.breaker);
        }
        if self.router.probing == 0 {
            self.next_sweep();
        }
    }

    fn next_sweep(&mut self) {
        let now = self.now_ns();
        if now < self.duration_ns {
            let at = now + self.router.shared.cfg.health_interval.as_nanos() as u64;
            sched(&mut self.events, &mut self.evseq, at, Ev::ProbeSweep);
        }
    }

    // ---- the modelled hop for control exchanges and probes ------------

    /// Sends `request` from `from` to `to`; its answer, a refusal or its
    /// timeout goes to `caller`.
    fn call(&mut self, from: u64, to: u64, caller: Caller, request: Vec<u8>, timeout: Duration) {
        let now = self.now_ns();
        let call = self.calls.len() as u32;
        self.calls.push(Call { from, to, caller, request, open: true });
        let expiry = now + timeout.as_nanos() as u64;
        sched(&mut self.events, &mut self.evseq, expiry, Ev::CallTimeout(call));
        if !self.blocked.contains(&(from, to)) {
            let lat = self.data_latency_ns(from, to);
            sched(&mut self.events, &mut self.evseq, now + lat, Ev::CallArrive(call));
        }
    }

    /// A call's bytes reach its callee, which answers — a member through
    /// its machine, a probed backend through its svc's desk — or refuses
    /// when its process is down.
    fn on_call_arrive(&mut self, call: u32) {
        let c = &mut self.calls[call as usize];
        let (from, to, caller) = (c.from, c.to, c.caller);
        if self.blocked.contains(&(from, to)) {
            return; // cut on the way
        }
        let req = parse_request(&std::mem::take(&mut c.request));
        let answer = match caller {
            Caller::Member { .. } => self.ctrl_answer(to, &req),
            Caller::Probe { .. } => self.backends[to as usize].up.as_mut().map(|p| {
                match p.svc.desk.dispatch(0, &req, |_| unreachable!("a probe queues no job")) {
                    Dispatch::Answer(resp) => resp,
                    Dispatch::Park(..) => unreachable!("a probe is answered at once"),
                }
            }),
        };
        if !self.blocked.contains(&(to, from)) {
            let now = self.now_ns();
            let lat = self.data_latency_ns(to, from);
            let response = answer.map(|resp| resp.to_bytes(false));
            sched(&mut self.events, &mut self.evseq, now + lat, Ev::CallAnswer { call, response });
        }
    }

    /// Member `to` answers a control request, if its process is up.
    fn ctrl_answer(&mut self, to: u64, req: &Request) -> Option<Response> {
        let machine = self.member(to, None)?;
        let resp = machine.on_request(req, || Ok(format!("round:{to}")));
        if to == ROUTER && req.path == "/ctrl/config" && resp.status == 409 {
            self.stats.config_rejects += 1;
        }
        self.run_member(to);
        Some(resp)
    }

    /// A call resolved: its answer, or `None` for a refusal or a timeout.
    fn resolve(&mut self, call: u32, answer: Option<ClientResponse>) {
        let Call { from, caller, .. } = self.calls[call as usize];
        match caller {
            Caller::Member { generation, id } => {
                if let Some(machine) = self.member(from, Some(generation)) {
                    machine.on_reply(id, answer);
                    self.run_member(from);
                }
            }
            Caller::Probe { book } => {
                let slot = Arc::clone(&self.router.books[book].0);
                let healthy = answer.is_some_and(|r| r.status == 200);
                self.router.shared.probe_outcome(&slot, healthy);
                let b: u64 = slot.addr().parse().expect("backends are named by id");
                if !healthy {
                    // Delivered as a transport failure: I2a expects it in
                    // the breaker's count.
                    self.router.books[book].1 += 1;
                    let now = self.now_ns();
                    self.tape.note(now, &format!("probe backend={b} failed"));
                }
                self.note_breaker(b, &slot.breaker);
                self.router.probing -= 1;
                if self.router.probing == 0 {
                    self.next_sweep();
                }
            }
        }
    }

    // ---- the control plane --------------------------------------------

    /// Member `endpoint`'s machine, if its process is up (and, given a
    /// generation, still that one).
    fn member(
        &mut self,
        endpoint: u64,
        generation: impl Into<Option<u32>>,
    ) -> Option<&mut Machine> {
        if endpoint == ROUTER {
            return Some(&mut self.router.ctrl);
        }
        let b = &mut self.backends[endpoint as usize];
        let current = generation.into().is_none_or(|g| g == b.generation);
        b.up.as_mut().filter(|_| current).map(|p| &mut p.ctrl)
    }

    fn on_member_tick(&mut self, member: u64, generation: u32) {
        let Some(machine) = self.member(member, generation) else { return };
        machine.tick();
        self.run_member(member);
        if member == ROUTER {
            self.check_convergence();
        }
        let at = self.now_ns() + self.ctrl_cfg.heartbeat_interval.as_nanos() as u64;
        sched(&mut self.events, &mut self.evseq, at, Ev::CtrlTick { member, generation });
    }

    /// Carries out member `endpoint`'s commands: exchanges become calls,
    /// a committed round joins the modelled round, and the router's
    /// member hands configs to the fence and deaths to the breakers.
    fn run_member(&mut self, endpoint: u64) {
        let generation =
            if endpoint == ROUTER { 0 } else { self.backends[endpoint as usize].generation };
        while let Some(command) = self.member(endpoint, None).and_then(Machine::next_command) {
            match command {
                hre_ctrl::Command::Exchange { id, to, path, body } => {
                    let dest = ctrl_endpoint(&to).expect("members name each other ctrl:{id}");
                    let json = [("content-type", "application/json")];
                    let request = request_bytes("POST", path, &to, &json, Some(body.as_bytes()));
                    let caller = Caller::Member { generation, id };
                    self.call(endpoint, dest, caller, request, CTRL_TIMEOUT);
                }
                hre_ctrl::Command::Run { epoch, plan, .. } => {
                    self.join_round(endpoint, generation, epoch, plan)
                }
                hre_ctrl::Command::Config(topo) if endpoint == ROUTER => self.router_config(topo),
                hre_ctrl::Command::Config(_) => {}
                hre_ctrl::Command::Died(peer) => {
                    self.stats.suspects += 1;
                    let now = self.now_ns();
                    self.tape
                        .note(now, &format!("ctrl member={endpoint} suspect peer={}", peer.id));
                    if endpoint == ROUTER && peer.role == Role::Backend {
                        self.router.shared.trip_backend(&peer.serve_addr);
                    }
                }
            }
        }
    }

    /// The router member's accepted config goes through the router's
    /// shipped fence; I1 checks what the fence lets through.
    fn router_config(&mut self, topo: ClusterTopology) {
        let now = self.now_ns();
        let ClusterTopology { epoch, coordinator, backends } = topo;
        if let Err(why) = self.router.shared.update_backends(epoch, &backends) {
            self.stats.config_rejects += 1;
            self.tape.note(now, &format!("config reject epoch={epoch}: {why}"));
            return;
        }
        // I1: one config per epoch, forever, and epochs never regress.
        if let Some(prev) = self.router.accepted.get(&epoch).filter(|b| **b != backends) {
            self.violations.push(format!(
                "I1 split-brain config: epoch={epoch} previously {prev:?}, now {backends:?}"
            ));
        }
        if let Some(latest) = self.router.accepted.keys().next_back().filter(|e| **e > epoch) {
            self.violations.push(format!("I1 epoch regressed: {epoch} accepted after {latest}"));
        }
        self.tape.note(
            now,
            &format!("config accept epoch={epoch} coordinator={coordinator} backends={backends:?}"),
        );
        self.router.accepted.insert(epoch, backends);
        self.router.book_topology();
        self.stats.config_accepts += 1;
    }

    /// A member starts its `Ak` process for a committed round. The round's
    /// transport is modelled: once every member of the plan has joined,
    /// the memoized engine elects over the plan's labels and each member
    /// learns the outcome 0.4 ms + 0.15 ms per message later; a round some
    /// member never joins fails everywhere after `election_idle`, the
    /// `Ak` process's idle timeout.
    fn join_round(&mut self, member: u64, generation: u32, epoch: u64, plan: RingPlan) {
        let now = self.now_ns();
        let key = (epoch, plan.order.clone());
        let joined = self.rounds.entry(key.clone()).or_default();
        joined.push((member, generation));
        if joined.len() == 1 {
            let at = now + self.ctrl_cfg.election_idle.as_nanos() as u64;
            let ev = Ev::RoundExpire { epoch, order: key.1.clone() };
            sched(&mut self.events, &mut self.evseq, at, ev);
        }
        if joined.len() < plan.len() {
            return;
        }
        let joined = self.rounds.remove(&key).expect("just joined");
        let req = ElectRequest::new(plan.labels.clone(), AlgoId::Ak, Some(1))
            .expect("plan labels form a valid ring");
        let (result, d) = oracle::elect_canonical(&req);
        let (coordinator, messages) = match result {
            Ok(out) => {
                let out = out.into_coords(d, plan.len());
                (plan.order[out.leader], out.messages)
            }
            Err(e) => {
                self.violations.push(format!("I0 election failed on plan at epoch {epoch}: {e}"));
                (plan.expected_coordinator(), 0)
            }
        };
        // I0: Ak must elect the Lyndon-rotation owner.
        let expected = plan.expected_coordinator();
        if coordinator != expected {
            self.violations.push(format!(
                "I0 election diverges from Lyndon oracle: epoch={epoch} got={coordinator} \
                 expected={expected}"
            ));
        }
        self.stats.elections += 1;
        self.tape.note(
            now,
            &format!("elect epoch={epoch} coordinator={coordinator} size={}", plan.len()),
        );
        let at = now + 400_000 + messages * 150_000;
        for (member, generation) in joined {
            let ev = Ev::RoundDone { member, generation, epoch, coordinator };
            sched(&mut self.events, &mut self.evseq, at, ev);
        }
    }

    fn on_round_expire(&mut self, epoch: u64, order: Vec<MemberId>) {
        let Some(joined) = self.rounds.remove(&(epoch, order)) else { return };
        for (member, generation) in joined {
            if let Some(machine) = self.member(member, generation) {
                machine.on_round(epoch, Err("election round did not halt".into()));
                self.run_member(member);
            }
        }
    }

    /// Once settled, the world ends at the first router tick where the
    /// control plane has converged (I4), or with a violation once the
    /// budget is spent.
    fn check_convergence(&mut self) {
        let now = self.now_ns();
        if now < self.settle_ns {
            return;
        }
        match self.divergence() {
            None => self.tape.note(now, "control plane converged"),
            Some(_) if now < self.converge_by_ns => return,
            Some(why) => self.violations.push(format!(
                "I4 no convergence {} ms after the last fault window: {why}",
                (now - self.settle_ns.min(now)) / 1_000_000
            )),
        }
        self.done = true;
    }

    /// What keeps the control plane from I4's agreement: every live
    /// member and the router hold one config, whose backends are the live
    /// backends and whose coordinator is one of them (so it is the only
    /// member that believes it coordinates).
    fn divergence(&self) -> Option<String> {
        let live: Vec<String> = (0..self.plan.backends)
            .filter(|b| self.backends[*b as usize].up.is_some())
            .map(|b| b.to_string())
            .collect();
        let Some(config) = self.router.ctrl.config() else {
            return Some("the router's member holds no config".into());
        };
        if config.backends != live {
            return Some(format!("config {config:?} is not over the live backends {live:?}"));
        }
        if !live.contains(&config.coordinator.to_string()) {
            return Some(format!("config {config:?} names a coordinator that is down"));
        }
        let topology = self.router.shared.topology();
        if topology.epoch != config.epoch
            || !topology.slots.iter().map(|s| s.addr()).eq(&config.backends)
        {
            return Some(format!("the router routes epoch {} of another config", topology.epoch));
        }
        for (b, backend) in self.backends.iter().enumerate() {
            let held = backend.up.as_ref().and_then(|p| p.ctrl.config());
            if backend.up.is_some() && held != Some(config) {
                return Some(format!("backend {b} holds {held:?}, the router {config:?}"));
            }
        }
        None
    }

    // ---- faults -----------------------------------------------------

    fn on_fault(&mut self, idx: u32) {
        let now = self.now_ns();
        let action = self.timeline[idx as usize].1.clone();
        match action {
            Action::Kill(b) => self.apply_kill(b),
            Action::Revive(b) => self.apply_revive(b),
            Action::KillCoord => {
                // Whoever the router's config names coordinator.
                let victim = self.router.ctrl.config().map(|c| c.coordinator);
                self.churn_victim = victim;
                if let Some(victim) = victim {
                    self.apply_kill(victim);
                }
            }
            Action::ReviveCoordVictim => {
                if let Some(victim) = self.churn_victim.take() {
                    self.apply_revive(victim);
                }
            }
            Action::Cut(isolated) => {
                let n = self.plan.backends;
                let rest: Vec<u64> =
                    (0..n).filter(|b| !isolated.contains(b)).chain([ROUTER]).collect();
                for a in &isolated {
                    for b in &rest {
                        self.blocked.insert((*a, *b));
                        self.blocked.insert((*b, *a));
                    }
                }
                self.tape.note(now, &format!("fault partition isolated={isolated:?}"));
            }
            Action::Heal => {
                self.blocked.clear();
                self.tape.note(now, "fault heal");
            }
            Action::Slow(from, to, extra_ns) => {
                self.slow.insert((from, to), extra_ns);
                self.tape.note(now, &format!("fault slow from={from} to={to} extra_ns={extra_ns}"));
            }
            Action::Unslow(from, to) => {
                self.slow.remove(&(from, to));
                self.tape.note(now, &format!("fault unslow from={from} to={to}"));
            }
        }
    }

    fn apply_kill(&mut self, b: u64) {
        let now = self.now_ns();
        let Some(backend) = self.backends.get_mut(b as usize) else { return };
        let Some(process) = backend.up.take() else { return };
        backend.generation += 1;
        self.retire(b, process.svc);
        self.tape.note(now, &format!("fault kill backend={b}"));
    }

    /// A restarted process: a fresh svc with a cold cache, and a fresh
    /// member at an incarnation above any its last run gossiped (virtual
    /// milliseconds, as live members use wall-clock ones), joining
    /// through the seeds and ticking from the next heartbeat.
    fn apply_revive(&mut self, b: u64) {
        let now = self.now_ns();
        if self.backends.get(b as usize).is_none_or(|x| x.up.is_some()) {
            return;
        }
        let incarnation = now / 1_000_000 + 1;
        let process = self.start_process(b, incarnation);
        let backend = &mut self.backends[b as usize];
        backend.up = Some(process);
        let generation = backend.generation;
        self.tape.note(now, &format!("fault revive backend={b} incarnation={incarnation}"));
        self.run_member(b);
        let at = now + self.ctrl_cfg.heartbeat_interval.as_nanos() as u64;
        sched(&mut self.events, &mut self.evseq, at, Ev::CtrlTick { member: b, generation });
    }

    /// Folds the svc of a backend going down, or still up at the end of
    /// the run, into the run's cache counters and span set.
    fn retire(&mut self, backend: u64, svc: Svc) {
        let cache = svc.shared.cache.snapshot();
        self.stats.cache_hits += cache.hits;
        self.stats.cache_misses += cache.misses;
        if self.opts.record_spans {
            let src = backend.to_string();
            let spans = svc.shared.recorder.spans().into_iter();
            self.backend_spans.extend(spans.map(|s| SpanRecord { src: src.clone(), ..s }));
        }
    }

    // ---- teardown ---------------------------------------------------

    fn finish(mut self) -> RunOutcome {
        let now = self.now_ns();
        for b in 0..self.backends.len() {
            if let Some(process) = self.backends[b].up.take() {
                self.retire(b as u64, process.svc);
            }
        }
        // I2a: every transport failure the world delivered — on any
        // request, however it ended — must show in the breaker of the
        // slot it hit. Checked globally because a swallowed failure on a
        // request that later succeeds is exactly the kind of silent
        // health-signal under-count the planted regression plants.
        for (slot, delivered) in &self.router.books {
            let recorded = slot.breaker.failures_total();
            if recorded != *delivered {
                self.violations.push(format!(
                    "I2 unattributed failures: backend={} was delivered {delivered} transport \
                     failures but its breaker recorded {recorded}",
                    slot.addr()
                ));
            }
            self.stats.hedges += slot.metrics.hedges.load(Ordering::Relaxed);
            self.stats.failovers += slot.metrics.failovers.load(Ordering::Relaxed);
            self.stats.breaker_opens += slot.breaker.opened_total();
        }
        self.tape.note(
            now,
            &format!(
                "end ok={} invalid={} busy={} failed={} elections={} accepts={}",
                self.stats.ok,
                self.stats.invalid,
                self.stats.busy,
                self.stats.failed,
                self.stats.elections,
                self.stats.config_accepts
            ),
        );
        // The router's spans, then each backend's, tagged: a backend's
        // request span hangs under the attempt that reached it.
        let spans = self.opts.record_spans.then(|| {
            let mut spans = self.router.shared.recorder.spans();
            spans.append(&mut self.backend_spans);
            render_tree(&spans)
        });
        RunOutcome {
            hash: self.tape.hash,
            violations: self.violations,
            stats: self.stats,
            transcript: self.tape.lines,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    #[test]
    fn same_plan_same_transcript_hash() {
        for kind in ScenarioKind::ALL {
            let plan = ScenarioPlan::generate(kind, 11);
            let opts = WorldOptions::default();
            let a = run_plan(&plan, &opts);
            let b = run_plan(&plan, &opts);
            assert_eq!(a.hash, b.hash, "{kind:?} must replay byte-identically");
            assert_eq!(a.violations, b.violations);
        }
    }

    #[test]
    fn span_trees_render_identically_across_runs() {
        let plan = ScenarioPlan::generate(ScenarioKind::BackendKill, 3);
        let opts = WorldOptions { record_spans: true, ..Default::default() };
        let a = run_plan(&plan, &opts).spans.expect("recorded");
        let b = run_plan(&plan, &opts).spans.expect("recorded");
        assert_eq!(a, b, "virtual stamps and recording order fix the tree");
        assert!(a.contains("cache-lookup ["), "each backend's svc spans, tagged:\n{a}");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_plan(
            &ScenarioPlan::generate(ScenarioKind::BackendKill, 1),
            &WorldOptions::default(),
        );
        let b = run_plan(
            &ScenarioPlan::generate(ScenarioKind::BackendKill, 2),
            &WorldOptions::default(),
        );
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn healthy_runs_serve_and_hold_invariants() {
        let mut served = 0;
        for seed in 0..8u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::BackendKill, seed);
            let out = run_plan(&plan, &WorldOptions::default());
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
            served += out.stats.ok;
        }
        assert!(served > 0, "the fleet must actually answer requests");
    }

    #[test]
    fn transcripts_are_collectable_and_ordered() {
        let plan = ScenarioPlan::generate(ScenarioKind::Mixed, 5);
        let out = run_plan(&plan, &WorldOptions { collect_transcript: true, ..Default::default() });
        let lines = out.transcript.expect("collected");
        assert!(!lines.is_empty());
        let times: Vec<u64> =
            lines.iter().map(|l| l.split(' ').next().unwrap().parse::<u64>().unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "virtual time is monotone");
    }

    #[test]
    fn coordinator_churn_reelects() {
        let mut elections = 0;
        for seed in 0..6u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::CoordinatorChurn, seed);
            let out = run_plan(&plan, &WorldOptions::default());
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
            elections += out.stats.elections;
        }
        assert!(elections > 0, "killing the coordinator must force elections");
    }

    #[test]
    fn algo_mix_serves_every_engine_through_the_stack() {
        let mut ok = 0;
        let mut invalid = 0;
        for seed in 0..6u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::AlgoMix, seed);
            let out = run_plan(&plan, &WorldOptions::default());
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
            ok += out.stats.ok;
            invalid += out.stats.invalid;
        }
        assert!(ok > 0, "diverse algorithms must still produce 200s");
        assert!(
            invalid > 0,
            "uniform algo draws on homonym rings must exercise the 422 path \
             (distinct-label engines rejecting pool rings)"
        );
    }

    #[test]
    fn the_planted_regression_is_catchable() {
        let mut caught = 0;
        for seed in 0..120u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::BackendKill, seed);
            let out =
                run_plan(&plan, &WorldOptions { planted_regression: true, ..Default::default() });
            if out.violations.iter().any(|v| v.contains("I2 unattributed")) {
                caught += 1;
            }
        }
        assert!(caught > 0, "some seed must surface the planted regression");
    }
}
