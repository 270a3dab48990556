//! The whole serving path as one deterministic, virtual-time world.
//!
//! One [`World`] runs shipped components — the router's forward race
//! ([`ForwardMachine`]) over its breakers, hash ring and topology, each
//! backend's svc ([`Desk`] and [`hre_svc::execute`] over its own cache),
//! `hre-net`'s retransmit window and reassembly, the control plane's CRDT
//! view and `Ak` coordinator election — in one event loop driven by a
//! [`VirtualClock`] and a seeded [`SimFabric`]. The router is one
//! [`ClusterConfig`] and every backend one [`SvcConfig`], both on the
//! world's clock, their timers fed from the world's event heap; attempts
//! travel as HTTP bytes. Modelled rather than shipped: the engine's cost,
//! the control plane's node loop, and the router's prober. Every latency,
//! loss, and jitter draw comes from the plan's seed, so a run is a pure
//! function of its [`ScenarioPlan`]: the transcript hash is
//! byte-identical across machines, thread counts, and reruns.
//!
//! Three invariants are checked continuously:
//!
//! - **I1 (config safety)**: the router never accepts two different
//!   configurations at one epoch, and accepted epochs never regress.
//! - **I2 (failure attribution)**: every transport failure the world
//!   delivered to the router (an attempt that timed out) and every probe
//!   failure shows in the breaker bookkeeping of that backend's slot
//!   (I2a, [`Breaker::failures_total`](hre_cluster::Breaker::failures_total));
//!   and a client-visible failure (502, 504) falls in a fault window or
//!   while some breaker is not closed (I2b).
//! - **I3 (answer fidelity)**: every 200 body is byte-equal to the
//!   oracle's independently computed `response_json`.
//!
//! Elections additionally check **I0**: the coordinator `Ak` elects is
//! the plan's Lyndon-rotation owner ([`RingPlan::expected_coordinator`]).

use crate::oracle;
use crate::scenario::{FaultSpec, Rng, ScenarioKind, ScenarioPlan};
use hre_cluster::{
    AttemptId, BackendSlot, Breaker, BreakerState, ClusterConfig, Command, ForwardMachine, Shared,
    Timer,
};
use hre_ctrl::{MemberId, MemberInfo, RingPlan, Role, Status, View};
use hre_net::frame::{encode_frame, FrameReader, KIND_ACK, KIND_DATA};
use hre_net::reliable::{Offer, Reassembly};
use hre_net::window::RetransmitWindow;
use hre_runtime::trace::{render_tree, SpanAttrs, SpanId, SpanRecord, Stage};
use hre_runtime::{Clock, ClockHandle, LinkProfile, NetFabric, SimFabric, VirtualClock};
use hre_svc::front::Dispatch;
use hre_svc::http::{
    ParseStep, Request, RequestParser, RespStep, Response, ResponseParser, DEFAULT_MAX_BODY,
};
use hre_svc::json::Json;
use hre_svc::{error_json, response_json, AlgoId, Desk, ElectRequest, Job, SvcConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The router's fabric endpoint id (backends are `0..n`).
pub const ROUTER: u64 = 1000;

const HEARTBEAT_NS: u64 = 75_000_000;
const FAIL_TIMEOUT_NS: u64 = 260_000_000;
const ELECT_COOLDOWN_NS: u64 = 350_000_000;
const ROUTER_TICK_NS: u64 = 50_000_000;
const GOSSIP_RTO: Duration = Duration::from_millis(110);
/// The engine's modelled cost: a worker holds a job this long before
/// [`hre_svc::execute`] runs it.
const MISS_BASE_NS: u64 = 800_000;
const MISS_PER_LABEL_NS: u64 = 150_000;
/// Aftermath margin appended to every fault window for the I2 sanity
/// check: long enough for breakers (probe cap 640ms) to close.
const WINDOW_MARGIN_NS: u64 = 1_600_000_000;

/// The router: the shipped config, with the timing E24 has always run.
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
        clock: ClockHandle::from(Arc::clone(clock)),
        ..ClusterConfig::default()
    }
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
    /// Gossip frames retransmitted by the reliable layer.
    retransmits,
    /// Coordinator elections run.
    elections,
    /// Configs the router accepted.
    config_accepts,
    /// Configs the router refused as stale.
    config_rejects,
    /// Peers declared dead by failure detectors.
    suspects,
    /// Breaker open transitions (the breakers' own counters).
    breaker_opens,
    /// Fabric datagrams delivered.
    fabric_delivered,
    /// Fabric datagrams lost to drops or partitions.
    fabric_dropped,
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

struct CfgMsg {
    epoch: u64,
    coordinator: u64,
    backends: Vec<u64>,
}

impl CfgMsg {
    fn to_payload(&self) -> Vec<u8> {
        hre_svc::json::obj(vec![
            ("cfg", Json::Num(1)),
            ("epoch", Json::Num(self.epoch as i128)),
            ("coordinator", Json::Num(self.coordinator as i128)),
            ("backends", hre_svc::json::nums(self.backends.iter().copied())),
        ])
        .to_string()
        .into_bytes()
    }

    fn from_json(v: &Json) -> Option<CfgMsg> {
        Some(CfgMsg {
            epoch: v.get("epoch")?.as_u64()?,
            coordinator: v.get("coordinator")?.as_u64()?,
            backends: v.get("backends")?.as_arr()?.iter().filter_map(Json::as_u64).collect(),
        })
    }
}

struct CtrlNode {
    incarnation: u64,
    view: View,
    view_version: u64,
    view_json: String,
    view_json_version: u64,
    last_seen: BTreeMap<u64, u64>,
    round_seen: u64,
    cfg_epoch: u64,
    cfg_backends: BTreeSet<u64>,
    last_elect_ns: Option<u64>,
    electing: bool,
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

struct Backend {
    /// `None` while the backend is down.
    svc: Option<Svc>,
    /// Bumped by every kill.
    generation: u32,
    ctrl: CtrlNode,
}

struct Router {
    shared: Arc<Shared>,
    /// Every slot the router has held, with the transport failures the
    /// world delivered to its breaker: timeouts and failed probes (I2a).
    books: Vec<(Arc<BackendSlot>, u64)>,
    breaker_prev: BTreeMap<u64, BreakerState>,
    cfg_epoch: u64,
    coordinator: u64,
    accepted: BTreeMap<u64, (u64, Vec<u64>)>,
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

struct OutLink {
    window: RetransmitWindow,
    last_view_version: u64,
}

struct InLink {
    reader: FrameReader,
    reasm: Reassembly,
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
/// `SvcDeadline` is the desk's deadline for `ticket`. Both are void once
/// their backend's generation has moved on.
enum Ev {
    Arrival(u32),
    AttemptArrive { req: u32, attempt: AttemptId, backend: u64, request: Vec<u8> },
    JobRun { backend: u64, generation: u32, job: Job },
    SvcDeadline { backend: u64, generation: u32, ticket: u64 },
    AttemptResponse { req: u32, attempt: AttemptId, backend: u64, response: Vec<u8> },
    RouterTimer { req: u32, timer: Timer, seq: u64 },
    CtrlTick { node: u64 },
    RouterTick,
    Fault(u32),
    Announce { node: u64, epoch: u64, coordinator: u64, order: Vec<u64> },
}

/// The fabric's link: 2 ms ± 2 ms, 1 % drops, 0.5 % duplicates, plus
/// `extra_ns` of injected latency.
fn link_profile(extra_ns: u64) -> LinkProfile {
    LinkProfile {
        latency: Duration::from_millis(2) + Duration::from_nanos(extra_ns),
        jitter: Duration::from_millis(2),
        drop: 0.01,
        duplicate: 0.005,
    }
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

/// The full simulated stack for one plan.
pub struct World {
    plan: ScenarioPlan,
    opts: WorldOptions,
    clock: Arc<VirtualClock>,
    fabric: SimFabric,
    rng: Rng,
    /// Pending events by virtual time, then scheduling order.
    events: BTreeMap<(u64, u64), Ev>,
    evseq: u64,
    tape: Tape,
    stats: RunStats,
    violations: Vec<String>,
    svc_cfg: SvcConfig,
    backends: Vec<Backend>,
    /// Spans of the backends' svcs that went down, tagged with their
    /// backend (only when spans are recorded).
    backend_spans: Vec<SpanRecord>,
    router: Router,
    reqs: Vec<ClientReq>,
    out_links: BTreeMap<(u64, u64), OutLink>,
    in_links: BTreeMap<(u64, u64), InLink>,
    blocked: BTreeSet<(u64, u64)>,
    slow: BTreeMap<(u64, u64), u64>,
    timeline: Vec<(u64, Action)>,
    fault_windows: Vec<(u64, u64)>,
    churn_victim: Option<u64>,
    duration_ns: u64,
}

/// Runs `plan` to quiescence and reports the outcome.
pub fn run_plan(plan: &ScenarioPlan, opts: &WorldOptions) -> RunOutcome {
    let mut w = World::new(plan.clone(), *opts);
    w.bootstrap();
    let hard_stop = w.duration_ns * 2 + 1_000_000_000;
    loop {
        let next_ev = w.events.first_key_value().map(|(&(t_ns, _), _)| t_ns);
        let next_fab = w.fabric.next_due().map(|d| d.as_nanos() as u64);
        let fab_first = match (next_ev, next_fab) {
            (None, None) => break,
            (Some(e), Some(f)) => f <= e,
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        if fab_first {
            let f = next_fab.expect("fabric due");
            if f > hard_stop {
                break;
            }
            w.clock.advance_to_elapsed(Duration::from_nanos(f));
            w.fabric.deliver_due();
            w.drain_inboxes();
        } else {
            let ((t_ns, _), ev) = w.events.pop_first().expect("event peeked");
            if t_ns > hard_stop {
                break;
            }
            w.clock.advance_to_elapsed(Duration::from_nanos(t_ns));
            w.handle(ev);
        }
    }
    w.finish()
}

impl World {
    fn new(plan: ScenarioPlan, opts: WorldOptions) -> World {
        let clock = VirtualClock::new();
        let fabric = SimFabric::new(Arc::clone(&clock), plan.seed ^ 0xFA_B41C);
        fabric.set_default_profile(link_profile(0));
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
        let duration_ns = plan.duration_us * 1_000;
        World {
            plan,
            opts,
            clock,
            fabric,
            rng,
            events: BTreeMap::new(),
            evseq: 0,
            tape,
            stats: RunStats::default(),
            violations: Vec::new(),
            svc_cfg,
            backends: Vec::new(),
            backend_spans: Vec::new(),
            router: Router {
                shared,
                books: Vec::new(),
                breaker_prev: BTreeMap::new(),
                cfg_epoch: 0,
                coordinator: 0,
                accepted: BTreeMap::new(),
            },
            reqs: Vec::new(),
            out_links: BTreeMap::new(),
            in_links: BTreeMap::new(),
            blocked: BTreeSet::new(),
            slow: BTreeMap::new(),
            timeline: Vec::new(),
            fault_windows: Vec::new(),
            churn_victim: None,
            duration_ns,
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn member_info(id: u64, incarnation: u64) -> MemberInfo {
        MemberInfo {
            id: id as MemberId,
            role: Role::Backend,
            ctrl_addr: format!("sim://{id}"),
            serve_addr: format!("sim://{id}/elect"),
            incarnation,
            status: Status::Alive,
        }
    }

    fn bootstrap(&mut self) {
        let n = self.plan.backends;
        // Full shared view: a static bootstrap list, as real fleets use.
        let mut base_view = View::new();
        for id in 0..n {
            base_view.observe(Self::member_info(id, 1));
        }
        let plan0 = base_view.ring_plan().expect("bootstrap members are live");
        let coordinator = plan0.expected_coordinator();
        let epoch0 = (1 << 8) | coordinator;
        for id in 0..n {
            self.backends.push(Backend {
                svc: Some(Svc::start(&self.svc_cfg)),
                generation: 0,
                ctrl: CtrlNode {
                    incarnation: 1,
                    view: base_view.clone(),
                    view_version: 1,
                    view_json: String::new(),
                    view_json_version: 0,
                    last_seen: (0..n).filter(|p| *p != id).map(|p| (p, 0)).collect(),
                    round_seen: 1,
                    cfg_epoch: epoch0,
                    cfg_backends: (0..n).collect(),
                    last_elect_ns: None,
                    electing: false,
                },
            });
            self.router.breaker_prev.insert(id, BreakerState::Closed);
        }
        self.router.book_topology();
        self.router.cfg_epoch = epoch0;
        self.router.coordinator = coordinator;
        self.router.accepted.insert(epoch0, (coordinator, (0..n).collect()));
        self.tape.note(
            0,
            &format!(
                "config accept epoch={epoch0} coordinator={coordinator} backends={:?} bootstrap",
                (0..n).collect::<Vec<u64>>()
            ),
        );
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
        }
        self.stats.requests = self.reqs.len() as u64;
        for id in 0..n {
            let stagger = HEARTBEAT_NS / (n + 1) * (id + 1);
            sched(&mut self.events, &mut self.evseq, stagger, Ev::CtrlTick { node: id });
        }
        sched(&mut self.events, &mut self.evseq, ROUTER_TICK_NS, Ev::RouterTick);
        // Expand the fault timetable.
        let mut timeline = Vec::new();
        let mut windows = Vec::new();
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
        }
        timeline.sort_by_key(|(t, _)| *t);
        for (i, (t, _)) in timeline.iter().enumerate() {
            sched(&mut self.events, &mut self.evseq, *t, Ev::Fault(i as u32));
        }
        self.timeline = timeline;
        self.fault_windows = windows;
    }

    /// Seeded one-way latency for the modeled data path (router ↔
    /// backend request/response hops), honoring slow-link faults.
    fn data_latency_ns(&mut self, from: u64, to: u64) -> u64 {
        let base = 1_500_000 + self.rng.next_u64() % 1_500_000;
        base + self.slow.get(&(from, to)).copied().unwrap_or(0)
    }

    fn drain_inboxes(&mut self) {
        let n = self.plan.backends;
        for node in (0..n).chain(std::iter::once(ROUTER)) {
            while let Some(dg) = self.fabric.try_recv(node as u32) {
                self.handle_datagram(dg);
            }
        }
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
            Ev::CtrlTick { node } => self.on_ctrl_tick(node),
            Ev::RouterTick => self.on_router_tick(),
            Ev::Fault(i) => self.on_fault(i),
            Ev::Announce { node, epoch, coordinator, order } => {
                self.on_announce(node, epoch, coordinator, order)
            }
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
        let Some(svc) = &mut b.svc else { return };
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
        let Some(svc) = &mut b.svc else { return };
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
        b.svc.as_mut().filter(|_| b.generation == generation)
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

    // ---- router maintenance ----------------------------------------

    /// Notes a breaker's state in the transcript when it changed.
    fn note_breaker(&mut self, b: u64, breaker: &Breaker) {
        let st = breaker.state_at(self.clock.now());
        if self.router.breaker_prev.insert(b, st) != Some(st) {
            let now = self.now_ns();
            self.tape.note(now, &format!("breaker backend={b} state={}", st.as_str()));
        }
    }

    /// The prober: a half-open breaker is probed, and the probe's outcome
    /// feeds it as live traffic's does.
    fn on_router_tick(&mut self) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        let topo = self.router.shared.topology();
        for slot in &topo.slots {
            let b: u64 = slot.addr().parse().expect("backends are named by id");
            self.note_breaker(b, &slot.breaker);
            if slot.breaker.state_at(now_i) == BreakerState::HalfOpen {
                let reachable = !self.blocked.contains(&(ROUTER, b))
                    && !self.blocked.contains(&(b, ROUTER))
                    && self.backends.get(b as usize).is_some_and(|x| x.svc.is_some());
                if reachable {
                    slot.breaker.record_success();
                } else {
                    slot.breaker.record_failure_at(now_i);
                    let book = self.router.book(slot);
                    self.router.books[book].1 += 1;
                }
                self.tape.note(now, &format!("probe backend={b} ok={reachable}"));
                self.note_breaker(b, &slot.breaker);
            }
        }
        if now < self.duration_ns {
            sched(&mut self.events, &mut self.evseq, now + ROUTER_TICK_NS, Ev::RouterTick);
        }
    }

    // ---- control plane ---------------------------------------------

    fn refresh_view_json(ctrl: &mut CtrlNode) {
        if ctrl.view_json_version != ctrl.view_version {
            ctrl.view_json = ctrl.view.to_json().to_string();
            ctrl.view_json_version = ctrl.view_version;
        }
    }

    fn on_ctrl_tick(&mut self, node: u64) {
        let now = self.now_ns();
        if now < self.duration_ns {
            sched(&mut self.events, &mut self.evseq, now + HEARTBEAT_NS, Ev::CtrlTick { node });
        }
        if self.backends[node as usize].svc.is_none() {
            return;
        }
        let n = self.plan.backends;
        // Refutation: if gossip says I'm dead, rejoin louder.
        {
            let ctrl = &mut self.backends[node as usize].ctrl;
            let me_dead = ctrl
                .view
                .member(node as MemberId)
                .map(|m| m.status == Status::Dead)
                .unwrap_or(false);
            if me_dead {
                ctrl.incarnation += 1;
                ctrl.view.observe(Self::member_info(node, ctrl.incarnation));
                ctrl.view_version += 1;
                self.tape.note(
                    now,
                    &format!("ctrl node={node} refute incarnation={}", ctrl.incarnation),
                );
            }
        }
        // Failure detection.
        let stale: Vec<u64> = {
            let ctrl = &self.backends[node as usize].ctrl;
            (0..n)
                .filter(|p| *p != node)
                .filter(|p| ctrl.view.is_live(*p as MemberId))
                .filter(|p| ctrl.last_seen.get(p).copied().unwrap_or(0) + FAIL_TIMEOUT_NS < now)
                .collect()
        };
        for p in stale {
            let ctrl = &mut self.backends[node as usize].ctrl;
            if ctrl.view.declare_dead(p as MemberId) {
                ctrl.view_version += 1;
                self.stats.suspects += 1;
                self.tape.note(now, &format!("ctrl node={node} suspect peer={p}"));
            }
        }
        // Gossip out + pump retransmits on every out-link.
        Self::refresh_view_json(&mut self.backends[node as usize].ctrl);
        let now_i = self.clock.now();
        for peer in (0..n).filter(|p| *p != node) {
            let view_version = self.backends[node as usize].ctrl.view_version;
            let payload: Option<Vec<u8>> = {
                let link = self.out_links.entry((node, peer)).or_insert_with(|| OutLink {
                    window: RetransmitWindow::new(GOSSIP_RTO),
                    last_view_version: 0,
                });
                if link.window.len() >= 8 {
                    None // backpressure: the peer is unreachable anyway
                } else if link.last_view_version < view_version {
                    link.last_view_version = view_version;
                    Some(self.backends[node as usize].ctrl.view_json.clone().into_bytes())
                } else {
                    Some(b"hb".to_vec())
                }
            };
            if let Some(p) = payload {
                let link = self.out_links.get_mut(&(node, peer)).expect("just ensured");
                let seq = link.window.next_seq();
                link.window.insert(seq, encode_frame(seq, KIND_DATA, &p), now_i);
            }
            self.pump_link(node, peer);
        }
        // Pump the router push link too, if it exists.
        if self.out_links.contains_key(&(node, ROUTER)) {
            self.pump_link(node, ROUTER);
        }
        // Election check: the first live member of my plan initiates
        // when the live set no longer matches the installed config.
        let decision = {
            let ctrl = &self.backends[node as usize].ctrl;
            match ctrl.view.ring_plan() {
                Some(plan) if plan.order.first() == Some(&(node as MemberId)) => {
                    let live: BTreeSet<u64> = plan.order.iter().copied().collect();
                    let cooled = ctrl
                        .last_elect_ns
                        .map(|t| now.saturating_sub(t) >= ELECT_COOLDOWN_NS)
                        .unwrap_or(true);
                    if live != ctrl.cfg_backends && cooled && !ctrl.electing {
                        Some(plan)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        if let Some(plan) = decision {
            self.start_election(node, plan);
        }
    }

    fn start_election(&mut self, node: u64, plan: RingPlan) {
        let now = self.now_ns();
        let round = self.backends[node as usize].ctrl.round_seen + 1;
        self.backends[node as usize].ctrl.round_seen = round;
        let epoch = (round << 8) | node;
        // Run the real Ak over the plan's salted labeling (memoized):
        // the coordinator is whoever owns the elected label.
        let (coordinator, messages) = if plan.len() == 1 {
            (plan.order[0], 0)
        } else {
            let req = ElectRequest::new(plan.labels.clone(), AlgoId::Ak, Some(1))
                .expect("plan labels form a valid ring");
            let (result, d) = oracle::elect_canonical(&req);
            match result {
                Ok(out) => {
                    let out = out.into_coords(d, plan.len());
                    (plan.order[out.leader], out.messages)
                }
                Err(e) => {
                    self.violations.push(format!("I0 election failed on plan at node {node}: {e}"));
                    (plan.expected_coordinator(), 0)
                }
            }
        };
        // I0: Ak must elect the Lyndon-rotation owner.
        let expected = plan.expected_coordinator();
        if coordinator != expected {
            self.violations.push(format!(
                "I0 election diverges from Lyndon oracle: node={node} got={coordinator} \
                 expected={expected}"
            ));
        }
        let latency = 400_000 + messages * 150_000;
        let order: Vec<u64> = plan.order.to_vec();
        self.backends[node as usize].ctrl.electing = true;
        self.backends[node as usize].ctrl.last_elect_ns = Some(now);
        self.stats.elections += 1;
        self.tape.note(
            now,
            &format!(
                "elect node={node} epoch={epoch} coordinator={coordinator} size={}",
                plan.len()
            ),
        );
        let rec = &self.router.shared.recorder;
        let start = self.clock.now();
        rec.record_span(
            rec.mint_trace(),
            SpanId(0),
            Stage::Membership,
            start,
            start + Duration::from_nanos(latency),
            SpanAttrs { a: epoch, b: plan.len() as u64, root: true, ..Default::default() },
        );
        sched(
            &mut self.events,
            &mut self.evseq,
            now + latency,
            Ev::Announce { node, epoch, coordinator, order },
        );
    }

    fn on_announce(&mut self, node: u64, epoch: u64, coordinator: u64, order: Vec<u64>) {
        let now = self.now_ns();
        self.backends[node as usize].ctrl.electing = false;
        if self.backends[node as usize].svc.is_none() {
            return;
        }
        {
            let ctrl = &mut self.backends[node as usize].ctrl;
            ctrl.cfg_epoch = epoch;
            ctrl.cfg_backends = order.iter().copied().collect();
        }
        self.tape.note(
            now,
            &format!(
                "announce node={node} epoch={epoch} coordinator={coordinator} backends={order:?}"
            ),
        );
        let cfg = CfgMsg { epoch, coordinator, backends: order.clone() };
        let payload = cfg.to_payload();
        let now_i = self.clock.now();
        let n = self.plan.backends;
        for dest in (0..n).filter(|p| *p != node).chain(std::iter::once(ROUTER)) {
            let link = self.out_links.entry((node, dest)).or_insert_with(|| OutLink {
                window: RetransmitWindow::new(GOSSIP_RTO),
                last_view_version: 0,
            });
            if link.window.len() >= 12 {
                continue;
            }
            let seq = link.window.next_seq();
            link.window.insert(seq, encode_frame(seq, KIND_DATA, &payload), now_i);
            self.pump_link(node, dest);
        }
    }

    /// Sends every due frame on the reliable link `from → to` into the
    /// fabric, counting retransmissions.
    fn pump_link(&mut self, from: u64, to: u64) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        let link = match self.out_links.get_mut(&(from, to)) {
            Some(l) => l,
            None => return,
        };
        for seq in link.window.due(now_i) {
            let (bytes, attempts) = link.window.begin_send(seq, now_i).expect("due seq in window");
            if attempts > 1 {
                self.stats.retransmits += 1;
                self.tape.note(
                    now,
                    &format!("gossip retransmit from={from} to={to} seq={seq} attempt={attempts}"),
                );
                let rec = &self.router.shared.recorder;
                rec.record_event(
                    rec.mint_trace(),
                    SpanId(0),
                    Stage::Retransmit,
                    seq,
                    attempts as u64,
                );
            }
            self.fabric.send(from as u32, to as u32, bytes);
        }
    }

    fn handle_datagram(&mut self, dg: hre_runtime::Datagram) {
        let now_i = self.clock.now();
        let from = dg.from as u64;
        let to = dg.to as u64;
        let link = self
            .in_links
            .entry((from, to))
            .or_insert_with(|| InLink { reader: FrameReader::new(), reasm: Reassembly::new() });
        link.reader.extend(&dg.bytes);
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut ack: Option<u64> = None;
        while let Some(frame) = link.reader.next_frame() {
            let frame = match frame {
                Ok(f) => f,
                Err(_) => continue,
            };
            if frame.kind == KIND_ACK {
                if let Some(out) = self.out_links.get_mut(&(to, from)) {
                    out.window.ack(frame.seq, now_i);
                }
                continue;
            }
            match link.reasm.offer(frame.seq, frame.payload) {
                Offer::Delivered(payloads) => delivered.extend(payloads),
                Offer::Buffered | Offer::Duplicate => {}
            }
            ack = Some(link.reasm.cumulative_ack());
        }
        if let Some(cum) = ack {
            self.fabric.send(to as u32, from as u32, encode_frame(cum, KIND_ACK, &[]));
        }
        for payload in delivered {
            self.deliver_payload(to, from, payload);
        }
    }

    fn deliver_payload(&mut self, to: u64, from: u64, payload: Vec<u8>) {
        let now = self.now_ns();
        if to == ROUTER {
            if let Ok(text) = String::from_utf8(payload) {
                if let Ok(v) = Json::parse(&text) {
                    if v.get("cfg").is_some() {
                        if let Some(cfg) = CfgMsg::from_json(&v) {
                            self.router_accept_config(cfg);
                        }
                    }
                }
            }
            return;
        }
        if self.backends[to as usize].svc.is_none() {
            return;
        }
        self.backends[to as usize].ctrl.last_seen.insert(from, now);
        if payload == b"hb" {
            return;
        }
        let text = match String::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => return,
        };
        let v = match Json::parse(&text) {
            Ok(v) => v,
            Err(_) => return,
        };
        if v.get("cfg").is_some() {
            if let Some(cfg) = CfgMsg::from_json(&v) {
                let ctrl = &mut self.backends[to as usize].ctrl;
                if cfg.epoch >= ctrl.cfg_epoch {
                    ctrl.cfg_epoch = cfg.epoch;
                    ctrl.cfg_backends = cfg.backends.iter().copied().collect();
                    ctrl.round_seen = ctrl.round_seen.max(cfg.epoch >> 8);
                }
            }
            return;
        }
        if let Ok(view) = View::from_json(&v) {
            let ctrl = &mut self.backends[to as usize].ctrl;
            if ctrl.view.merge(&view) {
                ctrl.view_version += 1;
            }
        }
    }

    fn router_accept_config(&mut self, cfg: CfgMsg) {
        let now = self.now_ns();
        let mut sorted = cfg.backends.clone();
        sorted.sort_unstable();
        // I1: one config per epoch, forever.
        if let Some((coord, backs)) = self.router.accepted.get(&cfg.epoch) {
            if *coord != cfg.coordinator || *backs != sorted {
                self.violations.push(format!(
                    "I1 split-brain config: epoch={} previously ({coord}, {backs:?}), \
                     now ({}, {sorted:?})",
                    cfg.epoch, cfg.coordinator
                ));
            }
        }
        let accepted = cfg.epoch > self.router.cfg_epoch;
        let rec = &self.router.shared.recorder;
        rec.record_event(
            rec.mint_trace(),
            SpanId(0),
            Stage::Reconfigure,
            cfg.epoch,
            accepted as u64,
        );
        if !accepted {
            if cfg.epoch < self.router.cfg_epoch {
                self.stats.config_rejects += 1;
                self.tape.note(now, &format!("config reject epoch={} stale", cfg.epoch));
            }
            return;
        }
        self.router.accepted.insert(cfg.epoch, (cfg.coordinator, sorted.clone()));
        self.router.cfg_epoch = cfg.epoch;
        self.router.coordinator = cfg.coordinator;
        let names: Vec<String> = sorted.iter().map(|id| id.to_string()).collect();
        self.router.shared.install(cfg.epoch, &names);
        self.router.book_topology();
        self.stats.config_accepts += 1;
        self.tape.note(
            now,
            &format!(
                "config accept epoch={} coordinator={} backends={sorted:?}",
                cfg.epoch, cfg.coordinator
            ),
        );
    }

    // ---- faults -----------------------------------------------------

    fn on_fault(&mut self, idx: u32) {
        let action = self.timeline[idx as usize].1.clone();
        match action {
            Action::Kill(b) => self.apply_kill(b),
            Action::Revive(b) => self.apply_revive(b),
            Action::KillCoord => {
                let victim = self.router.coordinator;
                self.churn_victim = Some(victim);
                self.apply_kill(victim);
            }
            Action::ReviveCoordVictim => {
                if let Some(victim) = self.churn_victim.take() {
                    self.apply_revive(victim);
                }
            }
            Action::Cut(isolated) => {
                let now = self.now_ns();
                let n = self.plan.backends;
                let rest: Vec<u64> =
                    (0..n).filter(|b| !isolated.contains(b)).chain([ROUTER]).collect();
                let groups: Vec<Vec<u32>> = vec![
                    isolated.iter().map(|b| *b as u32).collect(),
                    rest.iter().map(|b| *b as u32).collect(),
                ];
                self.fabric.partition(&groups);
                for a in &isolated {
                    for b in &rest {
                        self.blocked.insert((*a, *b));
                        self.blocked.insert((*b, *a));
                    }
                }
                self.tape.note(now, &format!("fault partition isolated={isolated:?}"));
            }
            Action::Heal => {
                let now = self.now_ns();
                self.fabric.heal();
                self.blocked.clear();
                self.tape.note(now, "fault heal");
            }
            Action::Slow(from, to, extra_ns) => {
                let now = self.now_ns();
                self.fabric.set_link(from as u32, to as u32, link_profile(extra_ns));
                self.slow.insert((from, to), extra_ns);
                self.tape.note(now, &format!("fault slow from={from} to={to} extra_ns={extra_ns}"));
            }
            Action::Unslow(from, to) => {
                let now = self.now_ns();
                self.fabric.set_link(from as u32, to as u32, link_profile(0));
                self.slow.remove(&(from, to));
                self.tape.note(now, &format!("fault unslow from={from} to={to}"));
            }
        }
    }

    fn apply_kill(&mut self, b: u64) {
        let now = self.now_ns();
        let Some(backend) = self.backends.get_mut(b as usize) else { return };
        let Some(svc) = backend.svc.take() else { return };
        backend.generation += 1;
        self.retire(b, svc);
        self.tape.note(now, &format!("fault kill backend={b}"));
    }

    fn apply_revive(&mut self, b: u64) {
        let now = self.now_ns();
        let Some(backend) = self.backends.get_mut(b as usize) else { return };
        if backend.svc.is_some() {
            return;
        }
        // A restarted process: a fresh svc with a cold cache.
        backend.svc = Some(Svc::start(&self.svc_cfg));
        backend.ctrl.incarnation += 1;
        let info = Self::member_info(b, backend.ctrl.incarnation);
        backend.ctrl.view.observe(info);
        backend.ctrl.view_version += 1;
        // Grace for peers: everyone was "just seen" so the reviver
        // doesn't instantly suspect the whole fleet.
        let peers: Vec<u64> = backend.ctrl.last_seen.keys().copied().collect();
        for p in peers {
            backend.ctrl.last_seen.insert(p, now);
        }
        self.tape.note(
            now,
            &format!("fault revive backend={b} incarnation={}", backend.ctrl.incarnation),
        );
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
            if let Some(svc) = self.backends[b].svc.take() {
                self.retire(b as u64, svc);
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
        self.stats.fabric_delivered = self.fabric.delivered_total();
        self.stats.fabric_dropped = self.fabric.dropped_total();
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
