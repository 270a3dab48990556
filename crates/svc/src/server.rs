//! The election daemon: one epoll reactor thread serving every
//! connection, a worker pool that only runs elections, per-request
//! deadlines, and graceful drain.
//!
//! Thread topology, fixed at start-up:
//!
//! ```text
//!   reactor (front.rs, eventloop.rs) ── every connection is a state machine
//!       │  Desk (desk.rs): parse, canonicalise, cache hit: respond inline
//!       │  miss: Job ─▶ unbounded job queue ─▶ workers (pool): execute
//!       │                                        │ run election in
//!       ◀── Done + waker ────────────────────────┘ canonical coords,
//!                                                  fill cache
//! ```
//!
//! Admission (`503` past `queue_cap`), deadlines (`504`) and batches are
//! the [`desk`]'s; its admission check is exact because the
//! reactor is the only thread that enqueues. Shutdown: flipping the
//! shared `AtomicBool` (wired to SIGTERM/SIGINT by the CLI) stops
//! accepting, lets in-flight requests finish, drains the queue, then
//! joins every thread.

use crate::api;
use crate::cache::{CacheSnapshot, ShardedLru};
use crate::desk::{self, Done, Job};
use crate::http::{Request, Response, DEFAULT_MAX_BODY};
use crate::metrics::SvcMetrics;
use crate::tracewire;
use crossbeam::channel::{unbounded, Receiver, Sender};
use hre_runtime::trace::{self, FlightRecorder, SpanAttrs, SpanId, Stage, TraceId};
use hre_runtime::{ClockHandle, HistSnapshot, Reactor, Waker, DEFAULT_TRACE_CAP};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (defaults match `hre serve`'s flag defaults).
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker pool size.
    pub workers: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Admission bound for `/elect` misses: with this many jobs queued,
    /// the next miss gets a 503. Batch entries are not bounded by it.
    pub queue_cap: usize,
    /// Per-request deadline, admission to response.
    pub deadline: Duration,
    /// Largest request body accepted (larger ⇒ `413`).
    pub max_body: usize,
    /// Flight-recorder capacity in spans (0 disables tracing).
    pub trace_cap: usize,
    /// Requests slower than this log their span tree to stderr
    /// (`None` disables the slow-request log).
    pub slow_threshold: Option<Duration>,
    /// Provider for the `GET /ctrl` control-plane status document;
    /// `None` (no control plane attached) answers 404.
    pub ctrl_status: Option<StatusProvider>,
    /// Time source for the serving path (admission stamps, queue and
    /// request deadlines, latency accounting). Defaults to the wall
    /// clock; the simulation harness injects a virtual clock. Socket
    /// I/O pacing stays on the wall clock regardless — it belongs to
    /// the kernel, not the serving logic.
    pub clock: ClockHandle,
}

/// A pluggable source for the `GET /ctrl` status document. The daemon
/// knows nothing about the control plane; whoever embeds it (the CLI,
/// the cluster router, a test) injects a closure that renders the
/// current membership/coordinator state as a JSON string.
#[derive(Clone)]
pub struct StatusProvider(Arc<dyn Fn() -> String + Send + Sync>);

impl StatusProvider {
    /// Wraps a closure that renders the current status as JSON text.
    pub fn new(f: impl Fn() -> String + Send + Sync + 'static) -> StatusProvider {
        StatusProvider(Arc::new(f))
    }

    /// Renders the current status document.
    pub fn get(&self) -> String {
        (self.0)()
    }
}

impl std::fmt::Debug for StatusProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StatusProvider(..)")
    }
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_cap: 1024,
            cache_shards: 8,
            queue_cap: 256,
            deadline: Duration::from_secs(2),
            max_body: DEFAULT_MAX_BODY,
            trace_cap: DEFAULT_TRACE_CAP,
            slow_threshold: Some(Duration::from_secs(1)),
            ctrl_status: None,
            clock: ClockHandle::default(),
        }
    }
}

/// How often [`ServerHandle::run_until`] checks its flag.
const POLL: Duration = Duration::from_millis(25);

/// Everything the reactor, the [`Desk`](crate::Desk) and the workers
/// share: the config (clock and limits), the counters, the result cache
/// and the flight recorder.
pub struct Shared {
    /// The daemon's configuration.
    pub cfg: SvcConfig,
    /// The daemon's counters.
    pub(crate) metrics: SvcMetrics,
    /// The result cache.
    pub cache: ShardedLru,
    /// The daemon's flight recorder.
    pub recorder: Arc<FlightRecorder>,
    /// Drain flag: the handle's [`ServerHandle::shutdown_flag`].
    pub(crate) shutdown: Arc<AtomicBool>,
}

impl Shared {
    /// The state of a daemon serving `cfg`: an empty cache, zeroed
    /// counters and its own recorder. Starts nothing; the simulator
    /// builds one per backend to drive a [`Desk`](crate::Desk) itself.
    pub fn new(cfg: SvcConfig) -> Shared {
        Shared {
            cache: ShardedLru::new(cfg.cache_cap, cfg.cache_shards),
            recorder: FlightRecorder::with_clock(cfg.trace_cap, cfg.clock.clone()),
            metrics: SvcMetrics::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            cfg,
        }
    }

    /// Current metrics in the Prometheus text format `/metrics` serves.
    fn metrics_text(&self) -> String {
        self.metrics.render_prometheus(
            &self.cache.snapshot(),
            self.cfg.workers.max(1),
            self.cfg.queue_cap.max(1),
            &self.recorder.stage_snapshots(),
        )
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaks the threads; call `shutdown`.
pub struct ServerHandle {
    /// The address actually bound (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: JoinHandle<u64>,
    workers: Vec<JoinHandle<()>>,
}

/// Final counters reported when the daemon drains.
#[derive(Clone, Debug)]
pub struct SvcSummary {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// `/elect` requests answered 200.
    pub elect_ok: u64,
    /// `/elect` requests answered 422.
    pub elect_failed: u64,
    /// Requests answered 503 (queue full).
    pub rejected_busy: u64,
    /// Requests answered 504 (deadline).
    pub deadline_expired: u64,
    /// Final cache counters.
    pub cache: CacheSnapshot,
    /// `/elect` latency histogram.
    pub latency: HistSnapshot,
}

impl std::fmt::Display for SvcSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served {} elections ({} failed spec) over {} connections | \
             503s {} | 504s {}",
            self.elect_ok,
            self.elect_failed,
            self.connections,
            self.rejected_busy,
            self.deadline_expired
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({} entries, {} evictions)",
            self.cache.hits, self.cache.misses, self.cache.len, self.cache.evictions
        )?;
        match self.latency.mean() {
            Some(mean) => {
                writeln!(
                    f,
                    "latency: {} samples, mean {:.0} µs",
                    self.latency.count,
                    mean.as_secs_f64() * 1e6
                )?;
                write!(f, "{}", self.latency.pretty())
            }
            None => writeln!(f, "latency: no samples"),
        }
    }
}

/// Binds the listener and spins up the reactor and worker threads.
pub fn start(cfg: SvcConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let reactor = Reactor::new()?;

    // The election hook reports into whatever span is current on the
    // running thread, so one process-global installation serves every
    // daemon (and every recorder) in the process.
    let _ = hre_core::hook::install(|run| {
        let end = Instant::now();
        trace::with_current(|rec, trace_id, parent| {
            let start = end.checked_sub(run.wall).unwrap_or(end);
            rec.record_span(
                trace_id,
                parent,
                Stage::Election,
                start,
                end,
                SpanAttrs { a: run.messages, b: run.time_units, ..Default::default() },
            );
        });
    });

    let shared = Arc::new(Shared::new(cfg.clone()));
    let (job_tx, job_rx) = unbounded::<Job>();
    let (done_tx, done_rx) = unbounded::<Done>();

    let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let (rx, done, waker) = (job_rx.clone(), done_tx.clone(), reactor.waker());
            std::thread::spawn(move || worker_loop(&shared, &rx, &done, &waker))
        })
        .collect();

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            crate::eventloop::reactor_loop(reactor, listener, &shared, job_tx, done_rx)
        })
    };

    Ok(ServerHandle { addr, shared, reactor, workers })
}

impl ServerHandle {
    /// The flag that triggers a graceful drain — hand it to
    /// `signal_hook::flag::register` so SIGTERM/SIGINT stop the daemon.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Current metrics, rendered as the `/metrics` endpoint would.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// The daemon's flight recorder (for tests and embedding callers).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Requests a graceful drain and joins every thread: the reactor
    /// stops accepting and runs until every connection has finished its
    /// in-flight request, the workers drain the remaining queue, then
    /// everything exits.
    pub fn shutdown(self) -> SvcSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let connections = self.reactor.join().expect("reactor panicked");
        for w in self.workers {
            w.join().expect("worker panicked");
        }
        let m = &self.shared.metrics;
        SvcSummary {
            connections,
            elect_ok: m.elect_ok.load(Ordering::Relaxed),
            elect_failed: m.elect_failed.load(Ordering::Relaxed),
            rejected_busy: m.rejected_busy.load(Ordering::Relaxed),
            deadline_expired: m.deadline_expired.load(Ordering::Relaxed),
            cache: self.shared.cache.snapshot(),
            latency: m.elect_latency.snapshot(),
        }
    }

    /// Blocks until `flag` (typically wired to SIGTERM/SIGINT) flips,
    /// then drains. Used by `hre serve`.
    pub fn run_until(self, flag: &AtomicBool) -> SvcSummary {
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(POLL);
        }
        self.shutdown()
    }
}

/// The non-election endpoints, answered inline on the reactor (outside
/// the request-span envelope).
pub(crate) fn route_aux(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            SvcMetrics::inc(&shared.metrics.health_checks);
            Response::text(200, "ok\n")
        }
        ("GET", "/metrics") => {
            SvcMetrics::inc(&shared.metrics.metrics_scrapes);
            Response::text(200, shared.metrics_text())
        }
        ("GET", path) if path.starts_with("/trace/") => {
            handle_trace(&path["/trace/".len()..], &shared.recorder)
        }
        ("GET", "/ctrl") => match &shared.cfg.ctrl_status {
            Some(provider) => Response::json(200, provider.get()),
            None => {
                SvcMetrics::inc(&shared.metrics.not_found);
                Response::json(404, api::error_json("no control plane attached"))
            }
        },
        ("POST", _) | ("GET", _) => {
            SvcMetrics::inc(&shared.metrics.not_found);
            Response::json(404, api::error_json("no such endpoint"))
        }
        _ => {
            SvcMetrics::inc(&shared.metrics.not_found);
            Response::json(405, api::error_json("method not allowed"))
        }
    }
}

/// `GET /trace/recent` and `GET /trace/<hex id>`: the flight recorder's
/// read side, shared verbatim by the cluster router.
pub fn handle_trace(tail: &str, recorder: &FlightRecorder) -> Response {
    if tail == "recent" {
        let doc = tracewire::recent_doc(&recorder.recent_roots(32), recorder.now_us());
        return Response::json(200, doc);
    }
    let Some(trace_id) = TraceId::from_hex(tail) else {
        return Response::json(400, api::error_json("trace id must be 1-16 hex digits, nonzero"));
    };
    let spans = recorder.trace_spans(trace_id);
    if spans.is_empty() {
        return Response::json(
            404,
            api::error_json("no spans retained for that trace (evicted, or never seen)"),
        );
    }
    Response::json(200, tracewire::trace_doc(trace_id, &spans))
}

/// The open half of a request envelope: the adopted (or minted) trace,
/// the root span id reserved for it, and the admission stamp. The svc
/// reactor holds one across a parked worker reply, the router across
/// its forwards.
pub struct RequestSpan {
    /// The request's trace: propagated through `x-trace-id`, or minted.
    pub trace: TraceId,
    /// The id the `request` root span is recorded under.
    pub root: SpanId,
    remote_parent: SpanId,
    /// When the request was admitted.
    pub admitted: Instant,
}

impl RequestSpan {
    /// Opens the envelope: adopt the propagated `x-trace-id` and
    /// `x-parent-span` (or mint a trace) and reserve the root span id.
    pub fn open(req: &Request, recorder: &FlightRecorder, admitted: Instant) -> RequestSpan {
        let trace = req
            .header("x-trace-id")
            .and_then(TraceId::from_hex)
            .unwrap_or_else(|| recorder.mint_trace());
        let remote_parent =
            req.header("x-parent-span").and_then(SpanId::from_hex).unwrap_or(SpanId::NONE);
        RequestSpan { trace, root: recorder.next_span_id(), remote_parent, admitted }
    }

    /// Closes the envelope around a finished response: record the root
    /// `request` span, log the span tree of a request slower than
    /// `slow_threshold`, and stamp `x-trace-id`.
    pub fn close(
        self,
        recorder: &FlightRecorder,
        end: Instant,
        slow_threshold: Option<Duration>,
        resp: Response,
    ) -> Response {
        recorder.record_span_with_id(
            self.root,
            self.trace,
            self.remote_parent,
            Stage::Request,
            self.admitted,
            end,
            SpanAttrs { err: resp.status >= 400, root: true, ..Default::default() },
        );
        if let Some(threshold) = slow_threshold {
            if end.duration_since(self.admitted) >= threshold {
                eprintln!(
                    "slow request trace={} {} over {threshold:?}:\n{}",
                    self.trace.to_hex(),
                    trace::fmt_dur_us(end.duration_since(self.admitted).as_micros() as u64),
                    trace::render_tree(&recorder.trace_spans(self.trace)),
                );
            }
        }
        resp.with_header("x-trace-id", self.trace.to_hex())
    }
}

/// One worker: each job through [`desk::execute`] with the engine
/// registry, its result back to the reactor. Exits when the queue
/// disconnects (the reactor gone) and is empty — which is how shutdown
/// drains.
fn worker_loop(shared: &Shared, rx: &Receiver<Job>, done: &Sender<Done>, waker: &Waker) {
    while let Ok(job) = rx.recv() {
        if let Some(finished) = desk::execute(shared, job, api::run_election) {
            // The reactor is gone only after every connection closed;
            // then nobody is waiting for this answer.
            let _ = done.send(finished);
            waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Client;

    fn client(handle: &ServerHandle) -> Client {
        Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).expect("connect")
    }

    #[test]
    fn serves_elections_and_health_and_metrics() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let mut c = client(&handle);

        let r = c.get("/healthz").expect("healthz");
        assert_eq!(r.status, 200);
        assert_eq!(r.body_text(), "ok\n");

        let r = c.post_json("/elect", r#"{"ring":[1,2,2],"algo":"ak","k":2}"#).expect("elect");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.header("x-cache"), Some("MISS"));
        let body = r.body_text();
        assert!(body.contains(r#""leader":0"#), "{body}");

        // Same ring rotated: canonical key dedupes, leader re-indexed.
        let r = c.post_json("/elect", r#"{"ring":[2,2,1],"algo":"ak","k":2}"#).expect("elect");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cache"), Some("HIT"));
        assert!(r.body_text().contains(r#""leader":2"#), "{}", r.body_text());

        let r = c.get("/metrics").expect("metrics");
        assert_eq!(r.status, 200);
        let text = r.body_text();
        assert!(text.contains("hre_svc_cache_hits_total 1"), "{text}");
        assert!(text.contains("hre_svc_requests_elect_ok_total 2"), "{text}");
        assert!(
            crate::metrics::naming_violations(&text).is_empty(),
            "live scrape violates naming conventions: {text}"
        );

        let summary = handle.shutdown();
        assert_eq!(summary.elect_ok, 2);
        assert_eq!(summary.cache.hits, 1);
        assert_eq!(summary.latency.count, 2);
    }

    #[test]
    fn bad_requests_and_spec_violations_get_4xx() {
        let handle = start(SvcConfig::default()).expect("start");
        let mut c = client(&handle);
        let r = c.post_json("/elect", "not json").expect("resp");
        assert_eq!(r.status, 400);
        let r = c.post_json("/elect", r#"{"ring":[5,1,5,2],"algo":"cr"}"#).expect("resp");
        assert_eq!(r.status, 422);
        assert!(r.body_text().contains("did not satisfy"), "{}", r.body_text());
        let r = c.get("/nope").expect("resp");
        assert_eq!(r.status, 404);
        let summary = handle.shutdown();
        assert_eq!(summary.elect_failed, 1);
    }

    #[test]
    fn full_queue_backpressures_with_503() {
        // One worker, queue of one, and a deadline long enough that jobs
        // stack: the third concurrent request must see 503.
        let handle = start(SvcConfig {
            workers: 1,
            queue_cap: 1,
            cache_cap: 0, // no dedupe — every request must queue
            deadline: Duration::from_secs(5),
            ..Default::default()
        })
        .expect("start");
        let addr = handle.addr.to_string();
        // Big enough that one election takes a visible amount of time.
        let body = {
            let ring: Vec<String> = (0..128u64).map(|i| (i % 11).to_string()).collect();
            format!(r#"{{"ring":[{}],"algo":"ak"}}"#, ring.join(","))
        };
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                let body = body.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
                    c.post_json("/elect", &body).expect("response").status
                })
            })
            .collect();
        let statuses: Vec<u16> = threads.into_iter().map(|t| t.join().expect("join")).collect();
        let summary = handle.shutdown();
        assert!(
            statuses.contains(&503) || summary.rejected_busy > 0,
            "expected at least one 503 among {statuses:?}"
        );
        assert!(statuses.iter().all(|&s| s == 200 || s == 503), "{statuses:?}");
    }

    #[test]
    fn tight_deadline_expires_with_504() {
        let handle = start(SvcConfig {
            workers: 1,
            deadline: Duration::from_millis(1),
            cache_cap: 0,
            ..Default::default()
        })
        .expect("start");
        let mut c = client(&handle);
        // A large election cannot finish in 1 ms.
        let ring: Vec<String> = (0..128u64).map(|i| (i % 11).to_string()).collect();
        let body = format!(r#"{{"ring":[{}],"algo":"ak"}}"#, ring.join(","));
        let r = c.post_json("/elect", &body).expect("resp");
        assert_eq!(r.status, 504, "{}", r.body_text());
        let summary = handle.shutdown();
        assert_eq!(summary.deadline_expired, 1);
    }

    #[test]
    fn oversized_body_gets_413_and_keep_alive_survives() {
        let handle = start(SvcConfig { max_body: 128, ..Default::default() }).expect("start");
        let mut c = client(&handle);
        let big = format!(r#"{{"ring":[{}]}}"#, vec!["1"; 200].join(","));
        assert!(big.len() > 128);
        let r = c.post_json("/elect", &big).expect("resp");
        assert_eq!(r.status, 413, "{}", r.body_text());
        assert!(r.body_text().contains("128 byte limit"), "{}", r.body_text());
        // The same connection keeps working: the oversized body was
        // drained, framing intact.
        let r = c.post_json("/elect", r#"{"ring":[1,2,2]}"#).expect("resp");
        assert_eq!(r.status, 200, "{}", r.body_text());
        handle.shutdown();
    }

    #[test]
    fn traces_are_recorded_and_served_as_one_connected_tree() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let mut c = client(&handle);
        let r = c.post_json("/elect", r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#).expect("elect");
        assert_eq!(r.status, 200);
        let trace = r.header("x-trace-id").expect("response carries x-trace-id").to_string();

        let r = c.get(&format!("/trace/{trace}")).expect("trace");
        assert_eq!(r.status, 200, "{}", r.body_text());
        let spans = crate::tracewire::spans_from_doc(&r.body_text()).expect("parse");
        assert!(hre_runtime::trace::is_connected_tree(&spans), "{spans:#?}");
        let stages: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
        for want in ["request", "cache-lookup", "queue-wait", "execute", "election"] {
            assert!(stages.contains(&want), "missing {want} in {stages:?}");
        }
        let election = spans.iter().find(|s| s.stage.as_str() == "election").unwrap();
        assert!(election.a > 0, "election span carries the message count: {election:?}");

        let r = c.get("/trace/recent").expect("recent");
        assert_eq!(r.status, 200);
        let roots = crate::tracewire::recent_from_doc(&r.body_text()).expect("parse");
        assert!(roots.iter().any(|s| s.trace.to_hex() == trace), "{roots:?}");

        // Unknown and malformed ids answer 404 / 400.
        assert_eq!(c.get("/trace/00000000000000aa").expect("miss").status, 404);
        assert_eq!(c.get("/trace/zz").expect("bad").status, 400);
        handle.shutdown();
    }

    #[test]
    fn propagated_trace_headers_are_adopted() {
        let handle = start(SvcConfig::default()).expect("start");
        let mut c = client(&handle);
        let r = c
            .request_with_headers(
                "POST",
                "/elect",
                &[("x-trace-id", "00000000000abcde"), ("x-parent-span", "0000000000000077")],
                Some(br#"{"ring":[2,2,1]}"#),
            )
            .expect("elect");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-trace-id"), Some("00000000000abcde"));
        let recorder = handle.recorder();
        let spans = recorder.trace_spans(hre_runtime::TraceId(0xabcde));
        let root = spans.iter().find(|s| s.root).expect("root span recorded");
        assert_eq!(root.parent, hre_runtime::SpanId(0x77), "remote parent adopted");
        handle.shutdown();
    }

    #[test]
    fn batch_elements_are_byte_identical_to_single_responses() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let mut c = client(&handle);
        let entries = [
            r#"{"ring":[1,2,2],"algo":"ak","k":2}"#, // clean election
            r#"{"ring":[1]}"#,                       // invalid (too small)
            r#"{"ring":[5,1,5,2],"algo":"cr"}"#,     // spec violation (422 body)
            r#"{"ring":[2,2,1],"algo":"ak","k":2}"#, // rotation of entry 0
        ];
        let singles: Vec<String> =
            entries.iter().map(|e| c.post_json("/elect", e).expect("single").body_text()).collect();

        let r = c.post_json("/elect/batch", &format!("[{}]", entries.join(","))).expect("batch");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.body_text(), format!("[{}]", singles.join(",")));
        // The singles warmed the cache; only the invalid entry can't hit.
        assert_eq!(r.header("x-batch-hits"), Some("3"));

        let text = c.get("/metrics").expect("metrics").body_text();
        assert!(text.contains("hre_batch_requests_total 1"), "{text}");
        assert!(text.contains("hre_batch_entries_total 4"), "{text}");
        assert!(text.contains("hre_batch_entry_hits_total 3"), "{text}");
        assert!(
            crate::metrics::naming_violations(&text).is_empty(),
            "live scrape violates naming conventions: {text}"
        );
        handle.shutdown();
    }

    #[test]
    fn cold_batch_dedupes_aliased_rotations_into_one_run() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let mut c = client(&handle);
        // Entry 1 is entry 0 rotated right by one place; entry 2 is a
        // different ring. Nothing is cached yet.
        let body = r#"[{"ring":[1,3,1,3,2,2,1,2]},{"ring":[2,1,3,1,3,2,2,1]},{"ring":[1,2,2]}]"#;
        let r = c.post_json("/elect/batch", body).expect("batch");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.header("x-batch-hits"), Some("0"));

        let doc = crate::json::Json::parse(&r.body_text()).expect("json");
        let arr = doc.as_arr().expect("array").to_vec();
        assert_eq!(arr.len(), 3);
        let leader = |i: usize| arr[i].get("leader").and_then(crate::json::Json::as_u64).unwrap();
        let label =
            |i: usize| arr[i].get("leader_label").and_then(crate::json::Json::as_u64).unwrap();
        // Rotating the ring right by one moves the same winning process
        // one index up; its label is rotation-invariant.
        assert_eq!(leader(1), (leader(0) + 1) % 8);
        assert_eq!(label(0), label(1));

        // The aliased pair shared one engine run: 2 executions for 3 entries.
        let text = c.get("/metrics").expect("metrics").body_text();
        assert!(text.contains("hre_elections_total{algo=\"ak\"} 2"), "{text}");

        let summary = handle.shutdown();
        assert_eq!(summary.elect_ok, 3);
        assert_eq!(summary.latency.count, 3, "each entry observes elect latency");
    }

    #[test]
    fn batch_level_failures_get_400() {
        let handle = start(SvcConfig::default()).expect("start");
        let mut c = client(&handle);
        for (body, why) in [
            ("not json", "bad JSON"),
            (r#"{"ring":[1,2,2]}"#, "must be a JSON array"),
            ("[]", "batch is empty"),
        ] {
            let r = c.post_json("/elect/batch", body).expect("resp");
            assert_eq!(r.status, 400, "{}", r.body_text());
            assert!(r.body_text().contains(why), "{}", r.body_text());
        }
        let summary = handle.shutdown();
        assert_eq!(summary.elect_ok, 0);
    }

    #[test]
    fn graceful_shutdown_drains_cleanly() {
        let handle = start(SvcConfig::default()).expect("start");
        let mut c = client(&handle);
        for _ in 0..3 {
            let r = c.post_json("/elect", r#"{"ring":[1,2,2]}"#).expect("elect");
            assert_eq!(r.status, 200);
        }
        let flag = handle.shutdown_flag();
        flag.store(true, Ordering::SeqCst);
        // run_until returns promptly once the flag is set.
        let summary = handle.run_until(&flag);
        assert_eq!(summary.elect_ok, 3);
        assert_eq!(summary.cache.hits, 2);
    }
}
