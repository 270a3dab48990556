//! The whole serving path as one deterministic, virtual-time world.
//!
//! One [`World`] wires the real production components — the service's
//! result cache, the cluster's breakers and hash ring, `hre-net`'s
//! retransmit window and reassembly, the control plane's CRDT view and
//! `Ak` coordinator election — into a single event loop driven by a
//! [`VirtualClock`] and a seeded [`SimFabric`]. Every latency, loss,
//! and jitter draw comes from the plan's seed, so a run is a pure
//! function of its [`ScenarioPlan`]: the transcript hash is
//! byte-identical across machines, thread counts, and reruns.
//!
//! Three invariants are checked continuously:
//!
//! - **I1 (config safety)**: the router never accepts two different
//!   configurations at one epoch, and accepted epochs never regress.
//! - **I2 (failure attribution)**: a client-visible failure implies
//!   every timed-out attempt recorded a breaker failure, and the moment
//!   is covered by a fault window or a non-closed breaker.
//! - **I3 (answer fidelity)**: every 200 body is byte-equal to the
//!   oracle's independently computed `response_json`.
//!
//! Elections additionally check **I0**: the coordinator `Ak` elects is
//! the plan's Lyndon-rotation owner ([`RingPlan::expected_coordinator`]).

use crate::oracle;
use crate::scenario::{FaultSpec, Rng, ScenarioKind, ScenarioPlan};
use hre_cluster::{shard_key, Breaker, BreakerState, HashRing};
use hre_ctrl::{MemberId, MemberInfo, RingPlan, Role, Status, View};
use hre_net::frame::{encode_frame, FrameReader, KIND_ACK, KIND_DATA};
use hre_net::reliable::{Offer, Reassembly};
use hre_net::window::RetransmitWindow;
use hre_runtime::trace::{render_tree, SpanAttrs, SpanId, Stage, TraceId};
use hre_runtime::{
    Backoff, Clock, FlightRecorder, LinkProfile, NetFabric, SimFabric, VirtualClock,
};
use hre_svc::json::Json;
use hre_svc::{error_json, response_json, AlgoId, CacheKey, ElectRequest, ShardedLru};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// The router's fabric endpoint id (backends are `0..n`).
pub const ROUTER: u64 = 1000;

const ATTEMPT_TIMEOUT_NS: u64 = 120_000_000;
const DEADLINE_NS: u64 = 400_000_000;
const HEDGE_MIN_NS: u64 = 30_000_000;
const HEDGE_MAX_NS: u64 = 120_000_000;
const HEARTBEAT_NS: u64 = 75_000_000;
const FAIL_TIMEOUT_NS: u64 = 260_000_000;
const ELECT_COOLDOWN_NS: u64 = 350_000_000;
const ROUTER_TICK_NS: u64 = 50_000_000;
const GOSSIP_RTO: Duration = Duration::from_millis(110);
const WORKERS: u32 = 2;
const QUEUE_CAP: usize = 8;
const HIT_COST_NS: u64 = 250_000;
const MISS_BASE_NS: u64 = 800_000;
const MISS_PER_LABEL_NS: u64 = 150_000;
/// Aftermath margin appended to every fault window for the I2 sanity
/// check: long enough for breakers (probe cap 640ms + jitter) to close.
const WINDOW_MARGIN_NS: u64 = 1_600_000_000;

/// Knobs for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldOptions {
    /// Plants the regression E24's gate (c) must catch: failover and
    /// hedge attempts skip `record_failure_at` on timeout, so breakers
    /// under-count and client-visible failures go unattributed.
    pub planted_regression: bool,
    /// Keep the full transcript text (sweeps keep only the hash).
    pub collect_transcript: bool,
    /// Record flight-recorder spans and render the tree at the end.
    pub record_spans: bool,
}

/// Counters accumulated over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Client requests injected.
    pub requests: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered 422 (invalid ring — a correct terminal answer).
    pub invalid: u64,
    /// Requests answered 503 (pure backpressure, every attempt busy).
    pub busy: u64,
    /// Client-visible failures (504 deadline / 502 exhausted).
    pub failed: u64,
    /// Hedge attempts launched.
    pub hedges: u64,
    /// Failover attempts launched.
    pub failovers: u64,
    /// Attempts that timed out at the router.
    pub timeouts: u64,
    /// Responses that arrived after their request was already decided.
    pub wasted: u64,
    /// Result-cache hits across all backends.
    pub cache_hits: u64,
    /// Result-cache misses across all backends.
    pub cache_misses: u64,
    /// Gossip frames retransmitted by the reliable layer.
    pub retransmits: u64,
    /// Coordinator elections run.
    pub elections: u64,
    /// Configs the router accepted.
    pub config_accepts: u64,
    /// Configs the router refused as stale.
    pub config_rejects: u64,
    /// Peers declared dead by failure detectors.
    pub suspects: u64,
    /// Breaker open transitions observed at the router.
    pub breaker_opens: u64,
    /// Fabric datagrams delivered.
    pub fabric_delivered: u64,
    /// Fabric datagrams lost to drops or partitions.
    pub fabric_dropped: u64,
}

impl RunStats {
    /// JSON form for summaries and artifacts.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as i128);
        hre_svc::json::obj(vec![
            ("requests", n(self.requests)),
            ("ok", n(self.ok)),
            ("invalid", n(self.invalid)),
            ("busy", n(self.busy)),
            ("failed", n(self.failed)),
            ("hedges", n(self.hedges)),
            ("failovers", n(self.failovers)),
            ("timeouts", n(self.timeouts)),
            ("wasted", n(self.wasted)),
            ("cache_hits", n(self.cache_hits)),
            ("cache_misses", n(self.cache_misses)),
            ("retransmits", n(self.retransmits)),
            ("elections", n(self.elections)),
            ("config_accepts", n(self.config_accepts)),
            ("config_rejects", n(self.config_rejects)),
            ("suspects", n(self.suspects)),
            ("breaker_opens", n(self.breaker_opens)),
            ("fabric_delivered", n(self.fabric_delivered)),
            ("fabric_dropped", n(self.fabric_dropped)),
        ])
    }
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

/// How one proxied attempt resolved at the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Res {
    Ok200,
    Invalid422,
    Busy,
    Timeout,
}

struct AttemptState {
    backend: u64,
    sent_ns: u64,
    resolved: Option<Res>,
    recorded_failure: bool,
    hedge: bool,
    span: SpanId,
}

struct ReqState {
    elect: ElectRequest,
    shard: u64,
    d: usize,
    candidates: Vec<u64>,
    next_cand: usize,
    attempts: Vec<AttemptState>,
    skipped: Vec<u64>,
    admitted_ns: u64,
    deadline_ns: u64,
    done: bool,
    status: u16,
    fail_open: bool,
    trace: TraceId,
    root_span: SpanId,
}

impl ReqState {
    fn in_flight(&self) -> bool {
        self.attempts.iter().any(|a| a.resolved.is_none())
    }
}

struct QJob {
    req: u32,
    attempt: u32,
    deadline_ns: u64,
    arrived_ns: u64,
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

struct Backend {
    alive: bool,
    generation: u32,
    lru: ShardedLru,
    busy: u32,
    queue: VecDeque<QJob>,
    ctrl: CtrlNode,
}

struct Router {
    ring: HashRing,
    breakers: BTreeMap<u64, Breaker>,
    breaker_prev: BTreeMap<u64, BreakerState>,
    hist: hre_runtime::Log2Histogram,
    cfg_epoch: u64,
    coordinator: u64,
    accepted: BTreeMap<u64, (u64, Vec<u64>)>,
    hedge_ns: u64,
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

enum Ev {
    Arrival(u32),
    AttemptArrive {
        req: u32,
        attempt: u32,
        backend: u64,
    },
    JobDone {
        backend: u64,
        generation: u32,
        req: u32,
        attempt: u32,
        status: u16,
        body: Option<String>,
    },
    AttemptResponse {
        req: u32,
        attempt: u32,
        backend: u64,
        status: u16,
        body: Option<String>,
    },
    AttemptTimeout {
        req: u32,
        attempt: u32,
    },
    HedgeFire {
        req: u32,
    },
    Deadline {
        req: u32,
    },
    CtrlTick {
        node: u64,
    },
    RouterTick,
    Fault(u32),
    Announce {
        node: u64,
        epoch: u64,
        coordinator: u64,
        order: Vec<u64>,
    },
}

struct Pending {
    t_ns: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Pending {
    fn eq(&self, o: &Self) -> bool {
        self.t_ns == o.t_ns && self.seq == o.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Pending {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.t_ns, self.seq).cmp(&(o.t_ns, o.seq))
    }
}

fn sched(heap: &mut BinaryHeap<Reverse<Pending>>, seq: &mut u64, t_ns: u64, ev: Ev) {
    let s = *seq;
    *seq += 1;
    heap.push(Reverse(Pending { t_ns, seq: s, ev }));
}

fn note_breaker(
    tape: &mut Tape,
    prev: &mut BTreeMap<u64, BreakerState>,
    breaker: &Breaker,
    b: u64,
    now: std::time::Instant,
    t_ns: u64,
    stats: &mut RunStats,
) {
    let st = breaker.state_at(now);
    if prev.get(&b) != Some(&st) {
        tape.note(t_ns, &format!("breaker backend={b} state={}", st.as_str()));
        if st == BreakerState::Open {
            stats.breaker_opens += 1;
        }
        prev.insert(b, st);
    }
}

/// The full simulated stack for one plan.
pub struct World {
    plan: ScenarioPlan,
    opts: WorldOptions,
    clock: Arc<VirtualClock>,
    fabric: SimFabric,
    rng: Rng,
    heap: BinaryHeap<Reverse<Pending>>,
    evseq: u64,
    tape: Tape,
    stats: RunStats,
    violations: Vec<String>,
    backends: Vec<Backend>,
    router: Router,
    reqs: Vec<ReqState>,
    out_links: BTreeMap<(u64, u64), OutLink>,
    in_links: BTreeMap<(u64, u64), InLink>,
    blocked: BTreeSet<(u64, u64)>,
    slow: BTreeMap<(u64, u64), u64>,
    timeline: Vec<(u64, Action)>,
    fault_windows: Vec<(u64, u64)>,
    churn_victim: Option<u64>,
    duration_ns: u64,
    recorder: Option<Arc<FlightRecorder>>,
}

/// Runs `plan` to quiescence and reports the outcome.
pub fn run_plan(plan: &ScenarioPlan, opts: &WorldOptions) -> RunOutcome {
    let mut w = World::new(plan.clone(), *opts);
    w.bootstrap();
    let hard_stop = w.duration_ns * 2 + 1_000_000_000;
    loop {
        let next_ev = w.heap.peek().map(|Reverse(p)| p.t_ns);
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
            let Reverse(p) = w.heap.pop().expect("event peeked");
            if p.t_ns > hard_stop {
                break;
            }
            w.clock.advance_to_elapsed(Duration::from_nanos(p.t_ns));
            w.handle(p.ev);
        }
    }
    w.finish()
}

impl World {
    fn new(plan: ScenarioPlan, opts: WorldOptions) -> World {
        let clock = VirtualClock::new();
        let fabric = SimFabric::new(Arc::clone(&clock), plan.seed ^ 0xFA_B41C);
        fabric.set_default_profile(LinkProfile {
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(2),
            drop: 0.01,
            duplicate: 0.005,
        });
        let rng = Rng(plan.seed ^ 0x0DD_B411);
        let tape = Tape::new(opts.collect_transcript);
        let recorder = opts.record_spans.then(|| FlightRecorder::new(8192));
        let duration_ns = plan.duration_us * 1_000;
        World {
            plan,
            opts,
            clock,
            fabric,
            rng,
            heap: BinaryHeap::new(),
            evseq: 0,
            tape,
            stats: RunStats::default(),
            violations: Vec::new(),
            backends: Vec::new(),
            router: Router {
                ring: HashRing::new(&[], 16),
                breakers: BTreeMap::new(),
                breaker_prev: BTreeMap::new(),
                hist: hre_runtime::Log2Histogram::default(),
                cfg_epoch: 0,
                coordinator: 0,
                accepted: BTreeMap::new(),
                hedge_ns: 60_000_000,
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
            recorder,
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
                alive: true,
                generation: 0,
                lru: ShardedLru::new(256, 8),
                busy: 0,
                queue: VecDeque::new(),
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
        }
        let names: Vec<String> = (0..n).map(|id| id.to_string()).collect();
        self.router.ring = HashRing::new(&names, 16);
        for id in 0..n {
            self.router.breakers.insert(
                id,
                Breaker::with_backoff(
                    3,
                    Backoff::with_jitter(
                        Duration::from_millis(80),
                        Duration::from_millis(640),
                        0.2,
                        self.plan.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                ),
            );
            self.router.breaker_prev.insert(id, BreakerState::Closed);
        }
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
            let (canon, d) = elect.canonicalized();
            let shard = shard_key(&canon.labels);
            self.reqs.push(ReqState {
                elect,
                shard,
                d,
                candidates: Vec::new(),
                next_cand: 0,
                attempts: Vec::new(),
                skipped: Vec::new(),
                admitted_ns: 0,
                deadline_ns: 0,
                done: false,
                status: 0,
                fail_open: false,
                trace: TraceId(0),
                root_span: SpanId(0),
            });
            sched(&mut self.heap, &mut self.evseq, t, Ev::Arrival((self.reqs.len() - 1) as u32));
        }
        self.stats.requests = self.reqs.len() as u64;
        for id in 0..n {
            let stagger = HEARTBEAT_NS / (n + 1) * (id + 1);
            sched(&mut self.heap, &mut self.evseq, stagger, Ev::CtrlTick { node: id });
        }
        sched(&mut self.heap, &mut self.evseq, ROUTER_TICK_NS, Ev::RouterTick);
        // Expand the fault timetable.
        let mut timeline = Vec::new();
        let mut windows = Vec::new();
        for f in &self.plan.faults {
            match f {
                FaultSpec::Kill { backend, at_us, revive_after_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + revive_after_us) * 1_000;
                    timeline.push((at, Action::Kill(*backend)));
                    timeline.push((end, Action::Revive(*backend)));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
                FaultSpec::KillCoordinator { at_us, revive_after_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + revive_after_us) * 1_000;
                    timeline.push((at, Action::KillCoord));
                    timeline.push((end, Action::ReviveCoordVictim));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
                FaultSpec::Partition { isolated, at_us, heal_after_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + heal_after_us) * 1_000;
                    timeline.push((at, Action::Cut(isolated.clone())));
                    timeline.push((end, Action::Heal));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
                FaultSpec::SlowLink { from, to, extra_us, at_us, duration_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + duration_us) * 1_000;
                    timeline.push((at, Action::Slow(*from, *to, extra_us * 1_000)));
                    timeline.push((end, Action::Unslow(*from, *to)));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
            }
        }
        timeline.sort_by_key(|(t, _)| *t);
        for (i, (t, _)) in timeline.iter().enumerate() {
            sched(&mut self.heap, &mut self.evseq, *t, Ev::Fault(i as u32));
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
            Ev::AttemptArrive { req, attempt, backend } => {
                self.on_attempt_arrive(req, attempt, backend)
            }
            Ev::JobDone { backend, generation, req, attempt, status, body } => {
                self.on_job_done(backend, generation, req, attempt, status, body)
            }
            Ev::AttemptResponse { req, attempt, backend, status, body } => {
                self.on_attempt_response(req, attempt, backend, status, body)
            }
            Ev::AttemptTimeout { req, attempt } => self.on_attempt_timeout(req, attempt),
            Ev::HedgeFire { req } => self.on_hedge_fire(req),
            Ev::Deadline { req } => self.on_deadline(req),
            Ev::CtrlTick { node } => self.on_ctrl_tick(node),
            Ev::RouterTick => self.on_router_tick(),
            Ev::Fault(i) => self.on_fault(i),
            Ev::Announce { node, epoch, coordinator, order } => {
                self.on_announce(node, epoch, coordinator, order)
            }
        }
    }

    // ---- client request path (router + backends) -------------------

    fn on_arrival(&mut self, req: u32) {
        let now = self.now_ns();
        let (shard, trace, root_span) = {
            let r = &mut self.reqs[req as usize];
            r.admitted_ns = now;
            r.deadline_ns = now + DEADLINE_NS;
            if let Some(rec) = &self.recorder {
                r.trace = rec.mint_trace();
                r.root_span = rec.next_span_id();
            }
            (r.shard, r.trace, r.root_span)
        };
        let _ = (trace, root_span);
        let order: Vec<u64> = self
            .router
            .ring
            .preference_order(shard)
            .into_iter()
            .map(|i| self.router.ring.backends()[i].parse::<u64>().expect("ring names are ids"))
            .collect();
        let now_i = self.clock.now();
        let allowed: Vec<u64> = order
            .iter()
            .copied()
            .filter(|b| {
                self.router.breakers.get(b).map(|br| br.allows_request_at(now_i)).unwrap_or(false)
            })
            .collect();
        let fail_open = allowed.is_empty() && !order.is_empty();
        let candidates = if fail_open { order.clone() } else { allowed };
        self.tape.note(
            now,
            &format!("req={req} arrive shard={shard:x} cands={candidates:?} fail_open={fail_open}"),
        );
        {
            let r = &mut self.reqs[req as usize];
            r.candidates = candidates;
            r.fail_open = fail_open;
        }
        sched(&mut self.heap, &mut self.evseq, now + DEADLINE_NS, Ev::Deadline { req });
        if self.reqs[req as usize].candidates.is_empty() {
            self.finish_request(req, 502, "no-backends");
            return;
        }
        self.launch_attempt(req, false);
    }

    /// Launches the next viable candidate; returns false when none
    /// remain.
    fn launch_attempt(&mut self, req: u32, hedge: bool) -> bool {
        let now = self.now_ns();
        let now_i = self.clock.now();
        loop {
            let (backend, fail_open) = {
                let r = &self.reqs[req as usize];
                if r.next_cand >= r.candidates.len() {
                    return false;
                }
                (r.candidates[r.next_cand], r.fail_open)
            };
            self.reqs[req as usize].next_cand += 1;
            // Breaker state may have changed since arrival; re-check
            // (unless the request is already in fail-open mode).
            let allowed = self
                .router
                .breakers
                .get(&backend)
                .map(|b| b.allows_request_at(now_i))
                .unwrap_or(false);
            if !allowed && !fail_open {
                self.tape.note(now, &format!("req={req} skip backend={backend} breaker-open"));
                self.reqs[req as usize].skipped.push(backend);
                continue;
            }
            let attempt = self.reqs[req as usize].attempts.len() as u32;
            let span = self.recorder.as_ref().map(|r| r.next_span_id()).unwrap_or(SpanId(0));
            self.reqs[req as usize].attempts.push(AttemptState {
                backend,
                sent_ns: now,
                resolved: None,
                recorded_failure: false,
                hedge,
                span,
            });
            let kind = if hedge {
                "hedge"
            } else if attempt > 0 {
                "failover"
            } else {
                "primary"
            };
            self.tape
                .note(now, &format!("req={req} attempt={attempt} backend={backend} kind={kind}"));
            if !self.blocked.contains(&(ROUTER, backend)) {
                let lat = self.data_latency_ns(ROUTER, backend);
                sched(
                    &mut self.heap,
                    &mut self.evseq,
                    now + lat,
                    Ev::AttemptArrive { req, attempt, backend },
                );
            }
            sched(
                &mut self.heap,
                &mut self.evseq,
                now + ATTEMPT_TIMEOUT_NS,
                Ev::AttemptTimeout { req, attempt },
            );
            if attempt == 0 {
                sched(
                    &mut self.heap,
                    &mut self.evseq,
                    now + self.router.hedge_ns,
                    Ev::HedgeFire { req },
                );
            }
            return true;
        }
    }

    fn on_attempt_arrive(&mut self, req: u32, attempt: u32, backend: u64) {
        let now = self.now_ns();
        if self.blocked.contains(&(ROUTER, backend)) || !self.backends[backend as usize].alive {
            return;
        }
        let deadline_ns = self.reqs[req as usize].deadline_ns;
        let free = {
            let b = &self.backends[backend as usize];
            b.busy < WORKERS
        };
        if free {
            self.start_job(backend, QJob { req, attempt, deadline_ns, arrived_ns: now });
        } else if self.backends[backend as usize].queue.len() < QUEUE_CAP {
            self.backends[backend as usize].queue.push_back(QJob {
                req,
                attempt,
                deadline_ns,
                arrived_ns: now,
            });
        } else {
            // Queue full: shed immediately, as the real pool does.
            let lat = self.data_latency_ns(backend, ROUTER);
            sched(
                &mut self.heap,
                &mut self.evseq,
                now + lat,
                Ev::AttemptResponse { req, attempt, backend, status: 503, body: None },
            );
        }
    }

    fn start_job(&mut self, backend: u64, job: QJob) {
        let now = self.now_ns();
        let (elect, d) = {
            let r = &self.reqs[job.req as usize];
            (r.elect.clone(), r.d)
        };
        let n = elect.labels.len();
        let (canon, _) = elect.canonicalized();
        let key = CacheKey::new(&canon.labels, canon.algo, canon.k);
        let b = &mut self.backends[backend as usize];
        let (cost, result) = match b.lru.get(&key) {
            Some(hit) => {
                self.stats.cache_hits += 1;
                (HIT_COST_NS, hit)
            }
            None => {
                self.stats.cache_misses += 1;
                let (result, _) = oracle::elect_canonical(&elect);
                b.lru.insert(key, result.clone());
                (MISS_BASE_NS + MISS_PER_LABEL_NS * n as u64, result)
            }
        };
        let (status, body) = match result {
            Ok(out) => (200u16, response_json(&elect, &out.into_coords(d, n))),
            Err(e) => (422u16, error_json(&e)),
        };
        b.busy += 1;
        if let (Some(rec), true) = (&self.recorder, job.arrived_ns < now) {
            let r = &self.reqs[job.req as usize];
            let epoch = self.clock.epoch();
            rec.record_span(
                r.trace,
                r.attempts[job.attempt as usize].span,
                Stage::QueueWait,
                epoch + Duration::from_nanos(job.arrived_ns),
                epoch + Duration::from_nanos(now),
                SpanAttrs { a: backend, ..Default::default() },
            );
        }
        sched(
            &mut self.heap,
            &mut self.evseq,
            now + cost,
            Ev::JobDone {
                backend,
                generation: self.backends[backend as usize].generation,
                req: job.req,
                attempt: job.attempt,
                status,
                body: Some(body),
            },
        );
    }

    fn on_job_done(
        &mut self,
        backend: u64,
        generation: u32,
        req: u32,
        attempt: u32,
        status: u16,
        body: Option<String>,
    ) {
        let now = self.now_ns();
        if self.backends[backend as usize].generation != generation {
            return; // the backend died (and possibly revived) mid-job
        }
        self.backends[backend as usize].busy -= 1;
        if self.backends[backend as usize].alive && !self.blocked.contains(&(backend, ROUTER)) {
            let lat = self.data_latency_ns(backend, ROUTER);
            sched(
                &mut self.heap,
                &mut self.evseq,
                now + lat,
                Ev::AttemptResponse { req, attempt, backend, status, body },
            );
        }
        // Pull queued work, shedding anything that expired while queued.
        loop {
            let job = {
                let b = &mut self.backends[backend as usize];
                if b.busy >= WORKERS || !b.alive {
                    break;
                }
                match b.queue.pop_front() {
                    Some(j) => j,
                    None => break,
                }
            };
            if now > job.deadline_ns {
                let lat = self.data_latency_ns(backend, ROUTER);
                sched(
                    &mut self.heap,
                    &mut self.evseq,
                    now + lat,
                    Ev::AttemptResponse {
                        req: job.req,
                        attempt: job.attempt,
                        backend,
                        status: 504,
                        body: None,
                    },
                );
                continue;
            }
            self.start_job(backend, job);
        }
    }

    fn on_attempt_response(
        &mut self,
        req: u32,
        attempt: u32,
        backend: u64,
        status: u16,
        body: Option<String>,
    ) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        if self.blocked.contains(&(backend, ROUTER)) {
            return; // the response died on a partition cut
        }
        let already_resolved =
            self.reqs[req as usize].attempts[attempt as usize].resolved.is_some();
        if status == 200 {
            if let Some(br) = self.router.breakers.get(&backend) {
                br.record_success();
                note_breaker(
                    &mut self.tape,
                    &mut self.router.breaker_prev,
                    br,
                    backend,
                    now_i,
                    now,
                    &mut self.stats,
                );
            }
        }
        if already_resolved || self.reqs[req as usize].done {
            self.stats.wasted += 1;
            return;
        }
        match status {
            200 => {
                self.reqs[req as usize].attempts[attempt as usize].resolved = Some(Res::Ok200);
                self.record_attempt_span(req, attempt, false);
                // I3: the body must equal the oracle's independent
                // recomputation, byte for byte.
                let (elect, d) = {
                    let r = &self.reqs[req as usize];
                    (r.elect.clone(), r.d)
                };
                let (oracle_result, od) = oracle::elect_canonical(&elect);
                debug_assert_eq!(d, od);
                let expect = match oracle_result {
                    Ok(out) => {
                        let out = out.into_coords(od, elect.labels.len());
                        // I0 (generalized): a 200's leader must satisfy
                        // the request algorithm's declarative winner
                        // rule, whichever engine served it.
                        let ring = hre_ring::RingLabeling::from_raw(&elect.labels);
                        let want = elect.algo.engine().oracle_leader(&ring);
                        if let Some(want) = want {
                            if out.leader != want {
                                self.violations.push(format!(
                                    "I0 leader violates {} winner rule: req={req} got={} \
                                     expected={want}",
                                    elect.algo.name(),
                                    out.leader
                                ));
                            }
                        }
                        response_json(&elect, &out)
                    }
                    Err(e) => error_json(&e),
                };
                if body.as_deref() != Some(expect.as_str()) {
                    self.violations.push(format!(
                        "I3 response body diverges from oracle: req={req} backend={backend}"
                    ));
                }
                let lat_ns = now - self.reqs[req as usize].admitted_ns;
                self.router.hist.record(Duration::from_nanos(lat_ns));
                self.tape.note(
                    now,
                    &format!(
                        "req={req} done status=200 backend={backend} attempts={} lat_us={}",
                        self.reqs[req as usize].attempts.len(),
                        lat_ns / 1_000
                    ),
                );
                self.stats.ok += 1;
                self.finish_request_quietly(req, 200);
            }
            422 => {
                self.reqs[req as usize].attempts[attempt as usize].resolved = Some(Res::Invalid422);
                self.record_attempt_span(req, attempt, false);
                self.tape.note(now, &format!("req={req} done status=422 backend={backend}"));
                self.stats.invalid += 1;
                self.finish_request_quietly(req, 422);
            }
            _ => {
                // 503 queue-full or 504 expired-in-queue: backpressure.
                self.reqs[req as usize].attempts[attempt as usize].resolved = Some(Res::Busy);
                self.record_attempt_span(req, attempt, true);
                self.tape.note(
                    now,
                    &format!("req={req} attempt={attempt} busy status={status} backend={backend}"),
                );
                self.after_attempt_resolution(req);
            }
        }
    }

    fn on_attempt_timeout(&mut self, req: u32, attempt: u32) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        {
            let r = &self.reqs[req as usize];
            if r.done || r.attempts[attempt as usize].resolved.is_some() {
                return;
            }
        }
        self.stats.timeouts += 1;
        let backend = self.reqs[req as usize].attempts[attempt as usize].backend;
        self.reqs[req as usize].attempts[attempt as usize].resolved = Some(Res::Timeout);
        self.record_attempt_span(req, attempt, true);
        // THE PLANTED REGRESSION: when enabled, only the primary
        // attempt's timeout reaches the breaker — failover and hedge
        // timeouts vanish from the health signal.
        let record = !(self.opts.planted_regression && attempt > 0);
        if record {
            if let Some(br) = self.router.breakers.get(&backend) {
                br.record_failure_at(now_i);
                self.reqs[req as usize].attempts[attempt as usize].recorded_failure = true;
                note_breaker(
                    &mut self.tape,
                    &mut self.router.breaker_prev,
                    br,
                    backend,
                    now_i,
                    now,
                    &mut self.stats,
                );
            }
        }
        self.tape.note(
            now,
            &format!("req={req} attempt={attempt} timeout backend={backend} recorded={record}"),
        );
        self.after_attempt_resolution(req);
    }

    /// After an attempt resolves without deciding the request: fail
    /// over if nothing else is in flight, or finish if out of options.
    fn after_attempt_resolution(&mut self, req: u32) {
        let (done, in_flight, exhausted) = {
            let r = &self.reqs[req as usize];
            (r.done, r.in_flight(), r.next_cand >= r.candidates.len())
        };
        if done || in_flight {
            return;
        }
        if !exhausted {
            self.stats.failovers += 1;
            let now = self.now_ns();
            self.tape.note(now, &format!("req={req} failover"));
            if self.launch_attempt(req, false) {
                return;
            }
        }
        // Nothing launchable: classify by what the attempts saw.
        let all_busy =
            self.reqs[req as usize].attempts.iter().all(|a| a.resolved == Some(Res::Busy));
        if all_busy && !self.reqs[req as usize].attempts.is_empty() {
            self.stats.busy += 1;
            let now = self.now_ns();
            self.tape.note(now, &format!("req={req} done status=503 busy"));
            self.finish_request_quietly(req, 503);
        } else {
            self.finish_request(req, 502, "exhausted");
        }
    }

    fn on_hedge_fire(&mut self, req: u32) {
        let now = self.now_ns();
        let eligible = {
            let r = &self.reqs[req as usize];
            !r.done
                && r.attempts.len() == 1
                && r.attempts[0].resolved.is_none()
                && r.next_cand < r.candidates.len()
        };
        if eligible {
            self.stats.hedges += 1;
            self.tape.note(now, &format!("req={req} hedge"));
            self.launch_attempt(req, true);
        }
    }

    fn on_deadline(&mut self, req: u32) {
        if !self.reqs[req as usize].done {
            self.finish_request(req, 504, "deadline");
        }
    }

    /// Terminal bookkeeping without failure-invariant checks (success,
    /// invalid, and pure-backpressure outcomes).
    fn finish_request_quietly(&mut self, req: u32, status: u16) {
        let now = self.now_ns();
        let r = &mut self.reqs[req as usize];
        r.done = true;
        r.status = status;
        if let Some(rec) = &self.recorder {
            let epoch = self.clock.epoch();
            rec.record_span_with_id(
                r.root_span,
                r.trace,
                SpanId(0),
                Stage::Request,
                epoch + Duration::from_nanos(r.admitted_ns),
                epoch + Duration::from_nanos(now),
                SpanAttrs {
                    a: status as u64,
                    root: true,
                    err: status >= 500,
                    ..Default::default()
                },
            );
        }
    }

    /// Terminal bookkeeping for client-visible failures, with the I2
    /// attribution checks.
    fn finish_request(&mut self, req: u32, status: u16, reason: &str) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        self.stats.failed += 1;
        self.tape.note(
            now,
            &format!(
                "req={req} fail status={status} reason={reason} attempts={}",
                self.reqs[req as usize].attempts.len()
            ),
        );
        // I2b: the failure moment must be explainable — inside a fault
        // window or with some breaker not closed.
        let in_window = self.fault_windows.iter().any(|(s, e)| now >= *s && now <= *e);
        let breaker_open =
            self.router.breakers.values().any(|b| b.state_at(now_i) != BreakerState::Closed);
        if !in_window && !breaker_open {
            self.violations.push(format!(
                "I2 unexplained client failure: req={req} status={status} at t={now} \
                 with no fault window and every breaker closed"
            ));
        }
        self.finish_request_quietly(req, status);
    }

    fn record_attempt_span(&mut self, req: u32, attempt: u32, err: bool) {
        if let Some(rec) = &self.recorder {
            let now = self.now_ns();
            let epoch = self.clock.epoch();
            let r = &self.reqs[req as usize];
            let a = &r.attempts[attempt as usize];
            rec.record_span_with_id(
                a.span,
                r.trace,
                r.root_span,
                if a.hedge { Stage::Hedge } else { Stage::Attempt },
                epoch + Duration::from_nanos(a.sent_ns),
                epoch + Duration::from_nanos(now),
                SpanAttrs { a: a.backend, err, ..Default::default() },
            );
        }
    }

    // ---- router maintenance ----------------------------------------

    fn on_router_tick(&mut self) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        let ids: Vec<u64> = self.router.breakers.keys().copied().collect();
        for b in ids {
            let br = self.router.breakers.get(&b).expect("listed");
            note_breaker(
                &mut self.tape,
                &mut self.router.breaker_prev,
                br,
                b,
                now_i,
                now,
                &mut self.stats,
            );
            if br.state_at(now_i) == BreakerState::HalfOpen {
                let reachable = !self.blocked.contains(&(ROUTER, b))
                    && !self.blocked.contains(&(b, ROUTER))
                    && self.backends.get(b as usize).map(|x| x.alive).unwrap_or(false);
                if reachable {
                    br.record_success();
                } else {
                    br.record_failure_at(now_i);
                }
                self.tape.note(now, &format!("probe backend={b} ok={reachable}"));
                note_breaker(
                    &mut self.tape,
                    &mut self.router.breaker_prev,
                    br,
                    b,
                    now_i,
                    now,
                    &mut self.stats,
                );
            }
        }
        // Adaptive hedge threshold: twice the observed p95, clamped.
        let p95_us = self.router.hist.snapshot().quantile_us(0.95);
        if p95_us > 0 {
            self.router.hedge_ns = (2 * p95_us * 1_000).clamp(HEDGE_MIN_NS, HEDGE_MAX_NS);
        }
        if now < self.duration_ns {
            sched(&mut self.heap, &mut self.evseq, now + ROUTER_TICK_NS, Ev::RouterTick);
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
            sched(&mut self.heap, &mut self.evseq, now + HEARTBEAT_NS, Ev::CtrlTick { node });
        }
        if !self.backends[node as usize].alive {
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
        if let Some(rec) = &self.recorder {
            let epoch_i = self.clock.epoch();
            let t = rec.mint_trace();
            rec.record_span(
                t,
                SpanId(0),
                Stage::Membership,
                epoch_i + Duration::from_nanos(now),
                epoch_i + Duration::from_nanos(now + latency),
                SpanAttrs { a: epoch, b: plan.len() as u64, root: true, ..Default::default() },
            );
        }
        sched(
            &mut self.heap,
            &mut self.evseq,
            now + latency,
            Ev::Announce { node, epoch, coordinator, order },
        );
    }

    fn on_announce(&mut self, node: u64, epoch: u64, coordinator: u64, order: Vec<u64>) {
        let now = self.now_ns();
        self.backends[node as usize].ctrl.electing = false;
        if !self.backends[node as usize].alive {
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
                if let Some(rec) = &self.recorder {
                    let t = rec.mint_trace();
                    rec.record_event(t, SpanId(0), Stage::Retransmit, seq, attempts as u64);
                }
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
        if !self.backends[to as usize].alive {
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
        if let Some(rec) = &self.recorder {
            let t = rec.mint_trace();
            rec.record_event(t, SpanId(0), Stage::Reconfigure, cfg.epoch, accepted as u64);
        }
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
        self.router.ring = HashRing::new(&names, 16);
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
                self.fabric.set_link(
                    from as u32,
                    to as u32,
                    LinkProfile {
                        latency: Duration::from_millis(2) + Duration::from_nanos(extra_ns),
                        jitter: Duration::from_millis(2),
                        drop: 0.01,
                        duplicate: 0.005,
                    },
                );
                self.slow.insert((from, to), extra_ns);
                self.tape.note(now, &format!("fault slow from={from} to={to} extra_ns={extra_ns}"));
            }
            Action::Unslow(from, to) => {
                let now = self.now_ns();
                self.fabric.set_link(
                    from as u32,
                    to as u32,
                    LinkProfile {
                        latency: Duration::from_millis(2),
                        jitter: Duration::from_millis(2),
                        drop: 0.01,
                        duplicate: 0.005,
                    },
                );
                self.slow.remove(&(from, to));
                self.tape.note(now, &format!("fault unslow from={from} to={to}"));
            }
        }
    }

    fn apply_kill(&mut self, b: u64) {
        let now = self.now_ns();
        if b as usize >= self.backends.len() || !self.backends[b as usize].alive {
            return;
        }
        let backend = &mut self.backends[b as usize];
        backend.alive = false;
        backend.generation += 1;
        backend.busy = 0;
        backend.queue.clear();
        self.tape.note(now, &format!("fault kill backend={b}"));
    }

    fn apply_revive(&mut self, b: u64) {
        let now = self.now_ns();
        if b as usize >= self.backends.len() || self.backends[b as usize].alive {
            return;
        }
        let backend = &mut self.backends[b as usize];
        backend.alive = true;
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

    // ---- teardown ---------------------------------------------------

    fn finish(mut self) -> RunOutcome {
        let now = self.now_ns();
        // I2a: every timed-out attempt — on any request, however it
        // ended — must have fed the breaker. Checked globally because a
        // swallowed failure on a request that later succeeds is exactly
        // the kind of silent health-signal under-count the planted
        // regression models.
        for (req, r) in self.reqs.iter().enumerate() {
            for (i, a) in r.attempts.iter().enumerate() {
                if a.resolved == Some(Res::Timeout) && !a.recorded_failure {
                    self.violations.push(format!(
                        "I2 unattributed timeout: req={req} attempt={i} backend={} \
                         timed out without recording a breaker failure",
                        a.backend
                    ));
                }
            }
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
        let spans = self.recorder.as_ref().map(|rec| render_tree(&rec.spans()));
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
