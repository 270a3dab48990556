//! The front-door router: one listener, N backends, rotation-affinity
//! routing, breaker-gated failover, and hedged retries, served by one
//! epoll reactor thread (the front-connection machine
//! [`hre_svc::front`] driving `eventloop.rs`, which drives one
//! [`ForwardMachine`](crate::ForwardMachine) per routed request).
//!
//! Request path for `POST /elect`:
//!
//! ```text
//!   client ──▶ router: parse & validate (400 on garbage, never forwarded)
//!                │ topology = one Arc snapshot for the whole request
//!                │ shard key = hash(canonical rotation of the labels)
//!                │ candidates = ring walk from the key, open breakers
//!                │              skipped (fail-open if all are open)
//!                ▼
//!          attempt ──POST /elect──▶ backend (pooled keep-alive stream)
//!                │
//!                ├─ response 200/422 ─▶ pass through (+ x-backend header)
//!                ├─ response 503 ─▶ failover to next candidate; the 503
//!                │                  (with its Retry-After) is returned
//!                │                  only if every candidate is busy
//!                ├─ transport error ─▶ breaker ticks, failover
//!                └─ silence past the hedge threshold ─▶ fire a duplicate
//!                   at the next candidate, first answer wins
//! ```
//!
//! `POST /elect/batch` splits the batch by owning shard
//! ([`split_batch`]), runs the same race once per shard with that
//! shard's sub-batch, and joins the answers in request order
//! ([`gather`]).
//!
//! Hedging is safe here in a way it is not for general RPC: elections
//! are deterministic (round-robin scheduler, canonical-rotation cache)
//! and idempotent, so the two raced responses are byte-identical — the
//! client cannot observe which one won. The hedge threshold adapts per
//! backend: `max(hedge_min, 2 × observed p95)` via
//! [`crate::BackendSlot::hedge_threshold`].
//!
//! Since PR 6 the backend set is **dynamic**: everything per-backend
//! lives in an immutable [`Topology`] snapshot behind an
//! `RwLock<Arc<..>>`, and the control plane's elected coordinator swaps
//! it via [`RouterHandle::update_backends`]. Pushes are fenced by epoch
//! — a push below the current epoch is a deposed coordinator talking
//! and is refused. Each request grabs one snapshot up front, so a swap
//! mid-request cannot mix generations. With [`ClusterConfig::dynamic`]
//! set the router may start with no backends at all and answers `502`
//! until the first config push lands.
//!
//! A background prober hits every backend's `GET /healthz` each
//! `health_interval`; probe outcomes feed the same breakers as live
//! traffic, and open breakers pace their probes on the shared
//! capped-backoff schedule ([`hre_runtime::Backoff`]).

use crate::hash::shard_key;
use crate::metrics::ClusterMetrics;
use crate::topology::Topology;
use hre_runtime::trace::{FlightRecorder, SpanAttrs, SpanId, Stage, TraceId};
use hre_runtime::{ClockHandle, Reactor, DEFAULT_TRACE_CAP};
use hre_svc::http::{Request, Response, DEFAULT_MAX_BODY};
use hre_svc::json::{self, ArrayWriter, Json};
use hre_svc::{error_json, Client, ClientResponse, ElectRequest, RequestSpan};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Router configuration (defaults match `hre cluster-route`'s flags).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `host:port` addresses. Must be non-empty unless
    /// [`ClusterConfig::dynamic`] is set; duplicates and the router's
    /// own address are rejected at startup.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// Connect/read/write timeout for one proxied attempt.
    pub timeout: Duration,
    /// Client-facing budget per request; `504` past it.
    pub deadline: Duration,
    /// Floor for the adaptive hedge threshold.
    pub hedge_min: Duration,
    /// Consecutive transport failures that trip a breaker open.
    pub failure_threshold: u32,
    /// First open-state probe delay (doubles up to `probe_cap`).
    pub probe_start: Duration,
    /// Probe-delay cap.
    pub probe_cap: Duration,
    /// How often the background prober sweeps the backends.
    pub health_interval: Duration,
    /// Idle keep-alive streams retained per backend.
    pub pool_cap: usize,
    /// Largest request body accepted (larger ⇒ `413`).
    pub max_body: usize,
    /// Flight-recorder capacity in spans (0 disables tracing).
    pub trace_cap: usize,
    /// Requests slower than this log their span tree to stderr
    /// (`None` disables the slow-request log).
    pub slow_threshold: Option<Duration>,
    /// Accept an empty initial backend list and serve `502` until the
    /// control plane pushes the first topology via
    /// [`RouterHandle::update_backends`].
    pub dynamic: bool,
    /// Time source for the routing logic (deadlines, hedge timing,
    /// breaker probe schedules, latency accounting). Defaults to the
    /// wall clock; the simulation harness injects a virtual clock.
    pub clock: ClockHandle,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            vnodes: crate::hash::DEFAULT_VNODES,
            timeout: Duration::from_secs(2),
            deadline: Duration::from_secs(5),
            hedge_min: Duration::from_millis(30),
            failure_threshold: 3,
            probe_start: Duration::from_millis(50),
            probe_cap: Duration::from_secs(2),
            health_interval: Duration::from_millis(100),
            pool_cap: crate::topology::DEFAULT_POOL_CAP,
            max_body: DEFAULT_MAX_BODY,
            trace_cap: DEFAULT_TRACE_CAP,
            slow_threshold: Some(Duration::from_secs(1)),
            dynamic: false,
            clock: ClockHandle::default(),
        }
    }
}

/// How often blocked loops wake up to check the shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Everything the reactor, the prober and the controllers share, and
/// all a [`ForwardMachine`](crate::ForwardMachine) reads besides its own
/// request: the config (clock and timing), the topology, the counters
/// and the recorder. The simulator builds one to drive the machine.
pub struct Shared {
    /// The router's configuration.
    pub cfg: ClusterConfig,
    /// The live topology generation. Swapped whole by config pushes;
    /// readers clone the `Arc` once and never see a mixed generation.
    pub(crate) topology: RwLock<Arc<Topology>>,
    pub(crate) metrics: ClusterMetrics,
    /// The router's flight recorder.
    pub recorder: Arc<FlightRecorder>,
    /// Drain flag: the handle's [`RouterHandle::shutdown_flag`].
    pub(crate) shutdown: Arc<AtomicBool>,
    /// See [`Shared::with_planted_regression`].
    pub(crate) planted_regression: bool,
}

impl Shared {
    /// The state of a router serving `cfg`, on its initial topology.
    pub fn new(cfg: ClusterConfig) -> Shared {
        Shared::with_planted_regression(cfg, false)
    }

    /// [`Shared::new`], with `planted_regression` set: then a transport
    /// failure of a failover or hedge attempt skips its breaker. The bug
    /// the deterministic simulator's regression gate must catch.
    #[doc(hidden)]
    pub fn with_planted_regression(cfg: ClusterConfig, planted_regression: bool) -> Shared {
        Shared {
            topology: RwLock::new(Arc::new(Topology::initial(&cfg))),
            metrics: ClusterMetrics::new(),
            recorder: FlightRecorder::with_clock(cfg.trace_cap, cfg.clock.clone()),
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
            planted_regression,
        }
    }

    /// One consistent snapshot of the backend set.
    pub fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read().unwrap())
    }

    /// Swaps in the successor topology for `backends` at `epoch`
    /// ([`Topology::successor`]), unfenced.
    pub fn install(&self, epoch: u64, backends: &[String]) {
        let mut topo = self.topology.write().unwrap();
        *topo = Arc::new(topo.successor(epoch, backends, &self.cfg));
    }
}

/// A running router. Call [`RouterHandle::shutdown`] to drain.
pub struct RouterHandle {
    /// The address actually bound (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: JoinHandle<u64>,
    prober: JoinHandle<()>,
}

/// Final per-backend counters reported when the router drains.
#[derive(Clone, Debug)]
pub struct BackendSummary {
    /// Backend address.
    pub addr: String,
    /// Proxied attempts (live + hedged).
    pub requests: u64,
    /// Transport-level failures and non-503 5xx answers.
    pub errors: u64,
    /// 503-busy answers.
    pub busy: u64,
    /// Hedges fired because this backend stalled.
    pub hedges: u64,
    /// Requests rerouted away from this backend.
    pub failovers: u64,
    /// Breaker transitions over the router's lifetime.
    pub breaker_opens: u64,
    /// Half-open probes admitted.
    pub breaker_half_opens: u64,
    /// Recoveries to closed.
    pub breaker_closes: u64,
}

/// Final counters reported when the router drains.
#[derive(Clone, Debug)]
pub struct RouterSummary {
    /// Client-facing requests accepted.
    pub requests: u64,
    /// Forwards answered by the router itself: every backend exhausted
    /// (502) or the deadline passed (504).
    pub request_errors: u64,
    /// Hedged duplicates whose response won the race.
    pub hedge_wins: u64,
    /// Topology epoch at drain time.
    pub epoch: u64,
    /// Per-backend counters for the final topology, in ring order.
    pub backends: Vec<BackendSummary>,
}

impl std::fmt::Display for RouterSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "routed {} requests | exhausted {} | hedge wins {} | epoch {}",
            self.requests, self.request_errors, self.hedge_wins, self.epoch
        )?;
        for b in &self.backends {
            writeln!(
                f,
                "  {}: {} attempts, {} errors, {} busy, {} hedges, {} failovers, \
                 breaker {}o/{}h/{}c",
                b.addr,
                b.requests,
                b.errors,
                b.busy,
                b.hedges,
                b.failovers,
                b.breaker_opens,
                b.breaker_half_opens,
                b.breaker_closes,
            )?;
        }
        Ok(())
    }
}

/// Rejects duplicate backend addresses and entries that point at the
/// router itself (`local` holds the router's configured and bound
/// addresses). A self-referential entry would make the router proxy to
/// its own front door — an infinite loop the old static validation
/// silently allowed.
fn validate_backends(backends: &[String], local: &[String]) -> Result<(), String> {
    for (i, b) in backends.iter().enumerate() {
        if backends[..i].contains(b) {
            return Err(format!("duplicate backend address {b}: each backend may be listed once"));
        }
        if local.iter().any(|l| l == b) {
            return Err(format!(
                "backend {b} is the router's own address: a router cannot route to itself"
            ));
        }
    }
    Ok(())
}

fn invalid(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, why)
}

/// Binds the listener and spins up the reactor and the health prober.
///
/// Startup validation: a static router (the default) needs at least one
/// backend; duplicates are rejected before the bind, self-referential
/// entries (matching either the configured or the resolved listen
/// address) right after it.
pub fn start(cfg: ClusterConfig) -> std::io::Result<RouterHandle> {
    if !cfg.dynamic && cfg.backends.is_empty() {
        return Err(invalid("cluster needs at least one backend".into()));
    }
    // Duplicates need no bound address — catch them before taking the port.
    validate_backends(&cfg.backends, &[]).map_err(invalid)?;
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    validate_backends(&cfg.backends, &[cfg.addr.clone(), addr.to_string()]).map_err(invalid)?;
    let reactor = Reactor::new()?;

    let shared = Arc::new(Shared::new(cfg));

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || crate::eventloop::reactor_loop(reactor, listener, &shared))
    };
    let prober = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || prober_loop(&shared))
    };

    Ok(RouterHandle { addr, shared, reactor, prober })
}

impl RouterHandle {
    /// The flag that triggers a graceful drain — hand it to
    /// `signal_hook::flag::register` so SIGTERM/SIGINT stop the router.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Current metrics, rendered as the `/metrics` endpoint would.
    pub fn metrics_text(&self) -> String {
        let topo = self.shared.topology();
        self.shared.metrics.render_prometheus(&topo, &self.shared.recorder.stage_snapshots())
    }

    /// The router's flight recorder (for tests and embedding callers).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Client-facing requests accepted so far — a live progress counter,
    /// so chaos harnesses can trigger faults *mid-load* instead of after
    /// a wall-clock sleep that a faster engine silently outruns.
    pub fn requests_seen(&self) -> u64 {
        self.shared.metrics.requests.load(Ordering::Relaxed)
    }

    /// The control-plane epoch of the active topology.
    pub fn epoch(&self) -> u64 {
        self.shared.topology().epoch
    }

    /// The backend addresses in the active topology, in ring order.
    pub fn backends(&self) -> Vec<String> {
        self.shared.topology().slots.iter().map(|s| s.addr().to_string()).collect()
    }

    /// The backend address that owns a label sequence (ignoring health)
    /// — the same placement the request path uses.
    pub fn primary_backend(&self, labels: &[u64]) -> String {
        let topo = self.shared.topology();
        let i = topo.ring.primary(shard_key(labels)).expect("non-empty ring");
        topo.slots[i].addr().to_string()
    }

    /// A cloneable controller for the reconfiguration surface — what a
    /// control-plane callback captures. The callback must outlive any
    /// single borrow of the handle (and [`RouterHandle::shutdown`]
    /// consumes the handle), so the controller carries its own reference
    /// to the router internals.
    pub fn controller(&self) -> RouterController {
        RouterController { shared: Arc::clone(&self.shared), addr: self.addr }
    }

    /// Applies a control-plane config push; see
    /// [`RouterController::update_backends`].
    pub fn update_backends(&self, epoch: u64, backends: &[String]) -> Result<(), String> {
        self.controller().update_backends(epoch, backends)
    }

    /// Force-opens a dead member's breaker; see
    /// [`RouterController::trip_backend`].
    pub fn trip_backend(&self, addr: &str) -> bool {
        self.controller().trip_backend(addr)
    }

    /// Requests a drain and joins the reactor (which runs until every
    /// connection has finished its in-flight request) and the prober.
    pub fn shutdown(self) -> RouterSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.reactor.join().expect("reactor panicked");
        self.prober.join().expect("prober panicked");
        let m = &self.shared.metrics;
        let topo = self.shared.topology();
        let backends = topo
            .slots
            .iter()
            .map(|slot| BackendSummary {
                addr: slot.addr().to_string(),
                requests: slot.metrics.requests.load(Ordering::Relaxed),
                errors: slot.metrics.errors.load(Ordering::Relaxed),
                busy: slot.metrics.busy.load(Ordering::Relaxed),
                hedges: slot.metrics.hedges.load(Ordering::Relaxed),
                failovers: slot.metrics.failovers.load(Ordering::Relaxed),
                breaker_opens: slot.breaker.opened_total(),
                breaker_half_opens: slot.breaker.half_opened_total(),
                breaker_closes: slot.breaker.closed_total(),
            })
            .collect();
        RouterSummary {
            requests: m.requests.load(Ordering::Relaxed),
            request_errors: m.request_errors.load(Ordering::Relaxed),
            hedge_wins: m.hedge_wins.load(Ordering::Relaxed),
            epoch: topo.epoch,
            backends,
        }
    }

    /// Blocks until `flag` (typically wired to SIGTERM/SIGINT) flips,
    /// then drains. Used by `hre cluster-route`.
    pub fn run_until(self, flag: &AtomicBool) -> RouterSummary {
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(POLL);
        }
        self.shutdown()
    }
}

/// The router's reconfiguration surface, detached from the owning
/// [`RouterHandle`] so control-plane callbacks (`on_config`/`on_death`)
/// can hold it while the handle itself stays free to drain.
#[derive(Clone)]
pub struct RouterController {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl std::fmt::Debug for RouterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterController").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl RouterController {
    /// Applies a control-plane config push: swap the topology to
    /// `backends` at `epoch`. Slots shared with the previous generation
    /// keep their breaker state, warm pools, and counters; removed
    /// backends' idle streams close ([`Topology::successor`]).
    ///
    /// **Epoch fencing**: a push whose epoch is *below* the active one
    /// comes from a deposed coordinator and is refused. The active
    /// epoch re-pushed (same backend set or not) is accepted — that is
    /// the live coordinator's periodic refresh, and it must be able to
    /// repair a member that missed the original push. Every push is
    /// recorded as a [`Stage::Reconfigure`] root span, accepted or not.
    pub fn update_backends(&self, epoch: u64, backends: &[String]) -> Result<(), String> {
        let t0 = self.shared.cfg.clock.now();
        let result = (|| {
            validate_backends(backends, &[self.shared.cfg.addr.clone(), self.addr.to_string()])?;
            if !self.shared.cfg.dynamic && backends.is_empty() {
                return Err("refusing to reconfigure a static router to zero backends".into());
            }
            let mut slot = self.shared.topology.write().unwrap();
            if epoch < slot.epoch {
                ClusterMetrics::inc(&self.shared.metrics.stale_configs);
                return Err(format!(
                    "stale config push: epoch {epoch} is behind the active epoch {}",
                    slot.epoch
                ));
            }
            *slot = Arc::new(slot.successor(epoch, backends, &self.shared.cfg));
            ClusterMetrics::inc(&self.shared.metrics.reconfigures);
            Ok(())
        })();
        let rec = &self.shared.recorder;
        let trace_id = rec.mint_trace();
        let root = rec.next_span_id();
        rec.record_span_with_id(
            root,
            trace_id,
            SpanId::NONE,
            Stage::Reconfigure,
            t0,
            self.shared.cfg.clock.now(),
            SpanAttrs { a: epoch, b: result.is_ok() as u64, err: result.is_err(), root: true },
        );
        result
    }

    /// Force-open the breaker for `addr` — the control plane declared
    /// the member dead (missed heartbeats), so stop sending it live
    /// traffic *now* instead of burning `failure_threshold` real
    /// requests discovering the hole, and close its idle streams so a
    /// later half-open attempt dials afresh. Returns whether the address
    /// is in the active topology.
    pub fn trip_backend(&self, addr: &str) -> bool {
        let topo = self.shared.topology();
        match topo.slot_for(addr) {
            Some(slot) => {
                slot.breaker.trip_at(self.shared.cfg.clock.now());
                slot.clear_idle();
                true
            }
            None => false,
        }
    }
}

/// Every endpoint that is neither a proxied election nor a trace merge,
/// answered inline on the reactor.
pub(crate) fn route_aux(req: &Request, shared: &Arc<Shared>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => {
            let topo = shared.topology();
            Response::text(
                200,
                shared.metrics.render_prometheus(&topo, &shared.recorder.stage_snapshots()),
            )
        }
        ("GET", "/cluster") => Response::json(200, cluster_doc(shared).to_string()),
        ("POST", _) | ("GET", _) => Response::json(404, error_json("no such endpoint")),
        _ => Response::json(405, error_json("method not allowed")),
    }
}

/// The `GET /cluster` topology document.
fn cluster_doc(shared: &Shared) -> Json {
    let topo = shared.topology();
    let backends: Vec<Json> = topo
        .slots
        .iter()
        .map(|slot| {
            let bm = &slot.metrics;
            let br = &slot.breaker;
            json::obj(vec![
                ("addr", Json::Str(slot.addr().to_string())),
                ("state", Json::Str(br.peek_state().as_str().into())),
                ("requests", Json::Num(bm.requests.load(Ordering::Relaxed) as i128)),
                ("errors", Json::Num(bm.errors.load(Ordering::Relaxed) as i128)),
                ("busy", Json::Num(bm.busy.load(Ordering::Relaxed) as i128)),
                ("hedges", Json::Num(bm.hedges.load(Ordering::Relaxed) as i128)),
                ("failovers", Json::Num(bm.failovers.load(Ordering::Relaxed) as i128)),
                ("breaker_opens", Json::Num(br.opened_total() as i128)),
            ])
        })
        .collect();
    json::obj(vec![
        ("epoch", Json::Num(topo.epoch as i128)),
        ("vnodes", Json::Num(topo.ring.vnodes() as i128)),
        ("backends", Json::Arr(backends)),
    ])
}

/// The trace a proxied request reports under: the (propagated or
/// minted) trace id and the front-door root span its attempts hang off.
#[derive(Clone, Copy)]
pub(crate) struct TraceCtx {
    pub(crate) trace_id: TraceId,
    pub(crate) root: SpanId,
}

impl TraceCtx {
    /// The trace context a request envelope gives its attempts.
    pub(crate) fn of(span: &RequestSpan) -> TraceCtx {
        TraceCtx { trace_id: span.trace, root: span.root }
    }
}

/// Counts a front request and opens its envelope.
pub(crate) fn open_span(req: &Request, shared: &Shared) -> RequestSpan {
    let admitted = shared.cfg.clock.now();
    ClusterMetrics::inc(&shared.metrics.requests);
    RequestSpan::open(req, &shared.recorder, admitted)
}

/// Closes a front request's envelope around its response.
pub(crate) fn close_span(span: RequestSpan, shared: &Shared, resp: Response) -> Response {
    span.close(&shared.recorder, shared.cfg.clock.now(), shared.cfg.slow_threshold, resp)
}

/// Where one batch entry's answer comes from: its local validation
/// error (never forwarded), or element `index` of the answer to the
/// sub-batch sent to backend `shard`.
pub(crate) enum Slot {
    Local(String),
    Shard { shard: usize, index: usize },
}

/// One shard's part of a split batch: the owning backend (ring index),
/// the labels of its first entry (every entry shards to the same
/// backend, so they stand for the group in candidate planning), and the
/// `/elect/batch` body it is forwarded with.
pub(crate) struct SubBatch {
    pub(crate) shard: usize,
    pub(crate) labels: Vec<u64>,
    pub(crate) body: Vec<u8>,
}

/// The scatter half of a routed batch. Entries that fail validation are
/// answered in place (never forwarded); valid entries are grouped by the
/// backend that owns their shard key and re-encoded as one sub-batch per
/// shard, in ring order. Re-encoding from the parsed form is safe:
/// `from_json ∘ to_json` is the identity, and the backend re-validates
/// anyway. [`gather`] is the other half.
pub(crate) fn split_batch(
    entries: Vec<Result<ElectRequest, String>>,
    topo: &Topology,
) -> (Vec<Slot>, Vec<SubBatch>) {
    let mut slots: Vec<Slot> = Vec::with_capacity(entries.len());
    let mut groups: BTreeMap<usize, Vec<ElectRequest>> = BTreeMap::new();
    for entry in entries {
        match entry {
            Err(why) => slots.push(Slot::Local(error_json(&why))),
            Ok(request) => {
                let shard = topo.ring.primary(shard_key(&request.labels)).expect("non-empty ring");
                let group = groups.entry(shard).or_default();
                slots.push(Slot::Shard { shard, index: group.len() });
                group.push(request);
            }
        }
    }
    let subs = groups
        .into_iter()
        .map(|(shard, requests)| {
            let mut body = String::new();
            let mut arr = ArrayWriter::new(&mut body);
            for request in &requests {
                request.write_json(arr.element());
            }
            arr.finish();
            let labels = requests.into_iter().next().expect("groups are non-empty").labels;
            SubBatch { shard, labels, body: body.into_bytes() }
        })
        .collect();
    (slots, subs)
}

/// Joins the batch answer in request order from the local answers and
/// each shard's response. A shard's 200 answer is split at its
/// top-level element boundaries with the grammar's allocation-free skip
/// ([`json::split_array`]), and each element's bytes are relayed as
/// they are: svc prints compact, canonical JSON, so those are the bytes
/// parsing and re-printing the element would give. A shard whose answer
/// is not 200, not a JSON array, or not one element per entry it carried
/// failed as a whole (unreachable, budget exhausted, malformed): its
/// body is relayed to every entry it carried, and the batch itself still
/// answers 200. Returns the body and the number of entries whose shard
/// failed (the `x-batch-errors` count).
pub(crate) fn gather(slots: &[Slot], responses: &BTreeMap<usize, Response>) -> (String, u64) {
    let mut carried: BTreeMap<usize, usize> = BTreeMap::new();
    for slot in slots {
        if let Slot::Shard { shard, .. } = slot {
            *carried.entry(*shard).or_default() += 1;
        }
    }
    let answers: BTreeMap<usize, Result<Vec<&str>, Cow<'_, str>>> = responses
        .iter()
        .map(|(shard, resp)| {
            let elements = std::str::from_utf8(&resp.body)
                .ok()
                .filter(|_| resp.status == 200)
                .and_then(|text| json::split_array(text).ok())
                .filter(|elements| carried.get(shard) == Some(&elements.len()));
            (*shard, elements.ok_or_else(|| String::from_utf8_lossy(&resp.body)))
        })
        .collect();

    let mut failed = 0u64;
    let relayed: usize = responses.values().map(|r| r.body.len()).sum();
    let mut body = String::with_capacity(relayed + 256 * slots.len());
    let mut arr = ArrayWriter::new(&mut body);
    for slot in slots {
        let part: &str = match slot {
            Slot::Local(doc) => doc,
            Slot::Shard { shard, index } => match &answers[shard] {
                Ok(elements) => elements[*index],
                Err(doc) => {
                    failed += 1;
                    doc
                }
            },
        };
        arr.element().push_str(part);
    }
    arr.finish();
    (body, failed)
}

/// Candidate selection against one topology snapshot: ring walk from
/// the shard key, open breakers skipped (fail-open to the full ring if
/// that leaves nobody), with the `hash` and `breaker_check` spans and
/// the skip-failover counters recorded.
pub(crate) fn plan_candidates(
    shared: &Arc<Shared>,
    topo: &Arc<Topology>,
    labels: &[u64],
    ctx: TraceCtx,
) -> Vec<usize> {
    let TraceCtx { trace_id, root } = ctx;
    let rec = &shared.recorder;
    let hash_start = shared.cfg.clock.now();
    let order = topo.ring.preference_order(shard_key(labels));
    rec.record_span(
        trace_id,
        root,
        Stage::Hash,
        hash_start,
        shared.cfg.clock.now(),
        SpanAttrs { a: order[0] as u64, b: order.len() as u64, ..Default::default() },
    );
    // Skip open breakers; if that leaves nobody, fail open and try the
    // full ring anyway (a probe may be overdue, and refusing outright
    // guarantees failure while trying merely risks it).
    let breaker_start = shared.cfg.clock.now();
    let mut candidates: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| topo.slots[i].breaker.allows_request_at(breaker_start))
        .collect();
    if candidates.is_empty() {
        candidates = order.clone();
    }
    rec.record_span(
        trace_id,
        root,
        Stage::BreakerCheck,
        breaker_start,
        shared.cfg.clock.now(),
        SpanAttrs { a: candidates.len() as u64, b: order.len() as u64, ..Default::default() },
    );
    for &skipped in order.iter().filter(|i| !candidates.contains(i)) {
        ClusterMetrics::inc(&topo.slots[skipped].metrics.failovers);
    }
    candidates
}

/// Relays a backend response to the client, tagging which backend
/// answered and preserving the headers clients act on.
pub(crate) fn pass_through(resp: &ClientResponse, backend: &str) -> Response {
    let mut out =
        Response::json(resp.status, resp.body_text()).with_header("x-backend", backend.to_string());
    for name in ["retry-after", "x-cache"] {
        if let Some(v) = resp.header(name) {
            out = out.with_header(name, v.to_string());
        }
    }
    out
}

/// Sweeps every backend's `GET /healthz` each `health_interval`;
/// outcomes feed the breakers (open breakers admit probes only when the
/// capped backoff says one is due). Each sweep works off a fresh
/// topology snapshot, so new members are probed and removed ones are
/// not.
fn prober_loop(shared: &Arc<Shared>) {
    let probe_timeout = shared.cfg.timeout.min(Duration::from_millis(500));
    while !shared.shutdown.load(Ordering::Relaxed) {
        let topo = shared.topology();
        for slot in &topo.slots {
            if !slot.breaker.allows_request_at(shared.cfg.clock.now()) {
                continue; // open, next probe not due yet
            }
            let healthy = Client::connect(slot.addr(), probe_timeout)
                .and_then(|mut c| c.get("/healthz"))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if healthy {
                slot.breaker.record_success();
            } else {
                slot.breaker.record_failure_at(shared.cfg.clock.now());
                slot.clear_idle();
            }
        }
        let mut slept = Duration::ZERO;
        while slept < shared.cfg.health_interval {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let step = POLL.min(shared.cfg.health_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error documents whose text holds every byte that could be taken
    /// for an element boundary.
    const TRICKY: [&str; 3] = [
        r#"{"error":"unknown algo \"a,b]\" (ak | bk)"}"#,
        r#"{"error":"x}],{[\\\"\\"}"#,
        r#"{"error":"\\"}"#,
    ];

    fn ok(body: &str) -> Response {
        Response::json(200, body.to_string())
    }

    #[test]
    fn gather_relays_each_element_at_its_top_level_boundary() {
        let doc = r#"{"algo":"ak","ring":[1,2],"n":2}"#;
        let slots = vec![
            Slot::Shard { shard: 4, index: 0 },
            Slot::Local(error_json("ring needs at least two labels")),
            Slot::Shard { shard: 1, index: 0 },
            Slot::Shard { shard: 4, index: 1 },
            Slot::Shard { shard: 4, index: 2 },
            Slot::Shard { shard: 1, index: 1 },
        ];
        let responses = BTreeMap::from([
            (4, ok(&format!("[{},{doc},{}]", TRICKY[0], TRICKY[1]))),
            (1, ok(&format!("[{}, {doc}]", TRICKY[2]))),
        ]);
        let (body, failed) = gather(&slots, &responses);
        assert_eq!(failed, 0);
        let want = [
            TRICKY[0],
            r#"{"error":"ring needs at least two labels"}"#,
            TRICKY[2],
            doc,
            TRICKY[1],
            doc,
        ];
        assert_eq!(body, format!("[{}]", want.join(",")));
        // The joined body is the tree's own rendering of itself.
        assert_eq!(Json::parse(&body).unwrap().to_string(), body);
    }

    #[test]
    fn a_malformed_or_wrong_length_answer_fails_its_whole_shard() {
        let good = format!("[{},{}]", TRICKY[0], TRICKY[1]);
        let bad_answers = [
            format!("[{}]", TRICKY[0]), // one element short
            format!("[{},{},{}]", TRICKY[0], TRICKY[1], TRICKY[2]), // one too many
            good[..good.len() - 1].to_string(), // truncated
            format!("{good}x"),         // trailing garbage
            format!("{{\"a\":{good}}}"), // not an array
            r#"{"error":"no backend reachable"}"#.to_string(),
        ];
        for answer in bad_answers {
            let slots = vec![
                Slot::Shard { shard: 0, index: 0 },
                Slot::Shard { shard: 2, index: 0 },
                Slot::Shard { shard: 0, index: 1 },
                Slot::Shard { shard: 2, index: 1 },
            ];
            let responses = BTreeMap::from([(0, ok(&answer)), (2, ok(&good))]);
            let (body, failed) = gather(&slots, &responses);
            assert_eq!(failed, 2, "{answer}");
            assert_eq!(body, format!("[{answer},{},{answer},{}]", TRICKY[0], TRICKY[1]));
        }
        // A well-formed answer under a non-200 status fails the shard too.
        let slots = vec![Slot::Shard { shard: 0, index: 0 }];
        let busy = Response::json(503, format!("[{}]", TRICKY[2]));
        let (body, failed) = gather(&slots, &BTreeMap::from([(0, busy)]));
        assert_eq!((body, failed), (format!("[[{}]]", TRICKY[2]), 1));
    }
}
