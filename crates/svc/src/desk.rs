//! The daemon's request desk: everything svc decides about a request, as
//! a sans-IO machine. It routes, answers cache hits, admits `/elect`
//! misses against `queue_cap` (503 otherwise), dedupes a batch's misses
//! (aliased entries share one job), creates the jobs, answers 504 at an
//! `/elect`'s deadline, matches a finished job to its request by ticket,
//! and assembles every response. A batch's jobs skip admission and have
//! no deadline. The desk holds no socket, channel or thread and reads
//! `now` from [`SvcConfig::clock`](crate::SvcConfig::clock). Two drivers
//! run it: the daemon's reactor (`eventloop.rs`), with a worker pool
//! behind a channel and reactor timers, and the deterministic simulator
//! (`hre-dst`), with modelled workers and its event heap. A worker runs
//! a [`Job`] with [`execute`] and hands the [`Done`] to [`Desk::finish`].

use crate::api::{self, ElectRequest};
use crate::cache::{CacheKey, CachedResult};
use crate::front::Dispatch;
use crate::http::{Request, Response};
use crate::json::ArrayWriter;
use crate::metrics::SvcMetrics;
use crate::server::{route_aux, RequestSpan, Shared};
use hre_runtime::trace::{self, SpanAttrs, SpanId, Stage, TraceId};
use hre_words::RotationScratch;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A job admitted to the queue: the cache key of a miss (the request in
/// canonical coordinates) and the ticket of the request waiting for it.
pub struct Job {
    key: CacheKey,
    /// `admitted + deadline` for an `/elect` miss; `None` for a batch
    /// entry, which never expires.
    deadline: Option<Instant>,
    /// Trace context: the request's trace, its root span (parent for
    /// the worker-side spans), and when the job entered the queue.
    trace: TraceId,
    parent: SpanId,
    enqueued: Instant,
    /// The ticket of the request waiting for the result (a result for a
    /// request already answered 504 finds none), and the slot within it
    /// (the distinct-miss index of a batch; 0 for `/elect`).
    ticket: u64,
    slot: usize,
}

impl Job {
    /// Size of the ring the job elects on.
    pub fn ring_len(&self) -> usize {
        self.key.canon.len()
    }
}

/// Where the desk puts the jobs it creates: `false` means no worker is
/// left to run them.
type Queue<'a> = dyn FnMut(Job) -> bool + 'a;

/// A finished job, for [`Desk::finish`].
pub struct Done {
    ticket: u64,
    slot: usize,
    result: Arc<CachedResult>,
}

/// A request parked until its jobs are done.
enum Pending {
    /// An `/elect` miss, answered by its one job.
    Elect { request: ElectRequest, rot: usize, span: RequestSpan },
    /// An `/elect/batch`, answered by the jobs of its distinct misses.
    Batch(Box<Batch>),
}

/// An `/elect/batch` between its cache lookups and its last job.
struct Batch {
    span: RequestSpan,
    hits: u64,
    /// Request order: the entry, or its validation error.
    entries: Vec<Result<Entry, String>>,
    /// The distinct misses' results, by slot, as workers return them.
    computed: Vec<Option<Arc<CachedResult>>>,
    outstanding: usize,
}

/// One valid batch entry and where its result comes from.
struct Entry {
    request: ElectRequest,
    /// Rotation from the request's coordinates to the canonical ones.
    rot: usize,
    source: Source,
}

enum Source {
    Cached(Arc<CachedResult>),
    /// Slot `i` of [`Batch::computed`].
    Miss(usize),
}

/// One daemon's request desk; see the module docs.
pub struct Desk {
    shared: Arc<Shared>,
    /// Parked requests by ticket, with the connection each answers on.
    parked: HashMap<u64, (u64, Pending)>,
    /// Source of tickets.
    next_ticket: u64,
    /// Reused by every canonicalisation: Booth's scratch, and the
    /// canonical labels of the request being looked up.
    scratch: RotationScratch<u64>,
    canon: Vec<u64>,
}

impl Desk {
    /// A desk answering for `shared`, nothing parked.
    pub fn new(shared: Arc<Shared>) -> Desk {
        Desk {
            shared,
            parked: HashMap::new(),
            next_ticket: 0,
            scratch: RotationScratch::new(),
            canon: Vec::new(),
        }
    }

    /// Answers a request that arrived on connection `conn` now, or parks
    /// it under a ticket until its jobs are done. An `/elect` parks with
    /// its deadline, when [`Desk::expire`] is due. `queue` takes each job
    /// the request creates.
    pub fn dispatch(
        &mut self,
        conn: u64,
        req: &Request,
        mut queue: impl FnMut(Job) -> bool,
    ) -> Dispatch<u64> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/elect") => self.elect(conn, req, &mut queue),
            ("POST", "/elect/batch") => self.batch(conn, req, &mut queue),
            _ => Dispatch::Answer(route_aux(req, &self.shared)),
        }
    }

    /// The deadline of the `/elect` parked under `ticket` passed: its 504
    /// and the connection it goes to. Its job, if still queued, is
    /// dropped as stale when a worker reaches it. `None` if the request
    /// was already answered.
    pub fn expire(&mut self, ticket: u64) -> Option<(u64, Response)> {
        match self.parked.remove(&ticket)? {
            (conn, Pending::Elect { span, .. }) => {
                SvcMetrics::inc(&self.shared.metrics.deadline_expired);
                let resp = Response::json(504, api::error_json("deadline expired"));
                Some((conn, close_request_span(span, &self.shared, resp)))
            }
            // A batch has no deadline.
            batch => {
                self.parked.insert(ticket, batch);
                None
            }
        }
    }

    /// A job is done: the answer and its connection once the job's
    /// request is complete. `None` while a batch waits for more jobs, or
    /// if the request was already answered (504).
    pub fn finish(&mut self, done: Done) -> Option<(u64, Response)> {
        let Done { ticket, slot, result } = done;
        let (conn, pending) = self.parked.remove(&ticket)?;
        let shared = &*self.shared;
        let resp = match pending {
            Pending::Elect { request, rot, span } => {
                let resp = respond(&request, rot, &result, shared, span.admitted)
                    .with_header("x-cache", "MISS".into());
                close_request_span(span, shared, resp)
            }
            Pending::Batch(mut batch) => {
                batch.computed[slot] = Some(result);
                batch.outstanding -= 1;
                if batch.outstanding > 0 {
                    self.parked.insert(ticket, (conn, Pending::Batch(batch)));
                    return None;
                }
                batch_response(*batch, shared)
            }
        };
        Some((conn, resp))
    }

    /// `/elect`: a hit or a rejection is answered now; a miss becomes a
    /// job, parked until its deadline.
    fn elect(&mut self, conn: u64, req: &Request, queue: &mut Queue) -> Dispatch<u64> {
        let shared = &*self.shared;
        let span = RequestSpan::open(req, &shared.recorder, shared.cfg.clock.now());
        let request = match ElectRequest::from_json(&req.body) {
            Ok(r) => r,
            Err(why) => return Dispatch::Answer(bad_request(span, shared, &why)),
        };
        let start = shared.cfg.clock.now();
        let (rot, found) = lookup(shared, &mut self.scratch, &mut self.canon, &request);
        record_lookup(shared, &span, start, found.is_ok() as u64);
        let key = match found {
            Ok(cached) => {
                let resp = respond(&request, rot, &cached, shared, span.admitted)
                    .with_header("x-cache", "HIT".into());
                return Dispatch::Answer(close_request_span(span, shared, resp));
            }
            Err(key) => key,
        };

        if shared.metrics.queue_depth.load(Ordering::Relaxed) >= shared.cfg.queue_cap.max(1) as i64
        {
            SvcMetrics::inc(&shared.metrics.rejected_busy);
            let resp = unavailable("job queue full, retry shortly");
            return Dispatch::Answer(close_request_span(span, shared, resp));
        }
        let deadline = span.admitted + shared.cfg.deadline;
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        if !enqueue(shared, &span, key, Some(deadline), (ticket, 0), queue) {
            let resp = unavailable("service shutting down");
            return Dispatch::Answer(close_request_span(span, shared, resp));
        }
        self.parked.insert(ticket, (conn, Pending::Elect { request, rot, span }));
        Dispatch::Park(ticket, Some(deadline))
    }

    /// `/elect/batch`: parse the whole body, look every entry up before
    /// any job runs, and enqueue the distinct misses. A batch without
    /// misses is answered now.
    fn batch(&mut self, conn: u64, req: &Request, queue: &mut Queue) -> Dispatch<u64> {
        let shared = &*self.shared;
        let span = RequestSpan::open(req, &shared.recorder, shared.cfg.clock.now());
        SvcMetrics::inc(&shared.metrics.batch_requests);
        let parsed = match api::batch_from_json(&req.body) {
            Ok(parsed) => parsed,
            Err(why) => return Dispatch::Answer(bad_request(span, shared, &why)),
        };
        shared.metrics.batch_entries.fetch_add(parsed.len() as u64, Ordering::Relaxed);

        let mut entries = Vec::with_capacity(parsed.len());
        let mut misses: Vec<CacheKey> = Vec::new();
        let mut miss_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut hits = 0u64;
        let start = shared.cfg.clock.now();
        for entry in parsed {
            let request = match entry {
                Ok(request) => request,
                Err(why) => {
                    // Same counter a single malformed request advances.
                    SvcMetrics::inc(&shared.metrics.bad_requests);
                    entries.push(Err(why));
                    continue;
                }
            };
            let (rot, found) = lookup(shared, &mut self.scratch, &mut self.canon, &request);
            let source = match found {
                Ok(cached) => {
                    hits += 1;
                    Source::Cached(cached)
                }
                Err(key) => Source::Miss(*miss_index.entry(key).or_insert_with_key(|key| {
                    misses.push(key.clone());
                    misses.len() - 1
                })),
            };
            entries.push(Ok(Entry { request, rot, source }));
        }
        shared.metrics.batch_entry_hits.fetch_add(hits, Ordering::Relaxed);
        record_lookup(shared, &span, start, hits);

        self.next_ticket += 1;
        let ticket = self.next_ticket;
        let mut computed = vec![None; misses.len()];
        let mut outstanding = 0;
        for (slot, key) in misses.into_iter().enumerate() {
            if enqueue(shared, &span, key, None, (ticket, slot), queue) {
                outstanding += 1;
            } else {
                computed[slot] = Some(Arc::new(Err("service shutting down".into())));
            }
        }
        let batch = Batch { span, hits, entries, computed, outstanding };
        if outstanding == 0 {
            return Dispatch::Answer(batch_response(batch, shared));
        }
        self.parked.insert(ticket, (conn, Pending::Batch(Box::new(batch))));
        Dispatch::Park(ticket, None)
    }
}

/// The one cache-lookup path: `request` canonicalised into the desk's
/// reused buffers, then looked up by slice, so a hit allocates nothing.
/// Returns the rotation from its coordinates to the canonical ones, and
/// the cached result or, on a miss, the key its job will carry.
fn lookup(
    shared: &Shared,
    scratch: &mut RotationScratch<u64>,
    canon: &mut Vec<u64>,
    request: &ElectRequest,
) -> (usize, Result<Arc<CachedResult>, CacheKey>) {
    let rot = scratch.canonical_rotation_into(&request.labels, canon);
    let (algo, k) = (request.algo, request.k);
    let found = shared.cache.lookup(canon, algo, k);
    (rot, found.ok_or_else(|| CacheKey { canon: canon.clone(), algo, k }))
}

/// The `cache-lookup` span of a request's lookups since `start`; `a`
/// counts the hits.
fn record_lookup(shared: &Shared, span: &RequestSpan, start: Instant, hits: u64) {
    shared.recorder.record_span(
        span.trace,
        span.root,
        Stage::CacheLookup,
        start,
        shared.cfg.clock.now(),
        SpanAttrs { a: hits, ..Default::default() },
    );
}

/// Queues the job for the miss `key` of the request in `span`, whose
/// result goes to `(ticket, slot)`; `false` only if no worker is left.
/// The gauge moves first so the admission check never under-reads it.
fn enqueue(
    shared: &Shared,
    span: &RequestSpan,
    key: CacheKey,
    deadline: Option<Instant>,
    (ticket, slot): (u64, usize),
    queue: &mut Queue,
) -> bool {
    let job = Job {
        key,
        deadline,
        trace: span.trace,
        parent: span.root,
        enqueued: shared.cfg.clock.now(),
        ticket,
        slot,
    };
    let depth = &shared.metrics.queue_depth;
    depth.fetch_add(1, Ordering::Relaxed);
    let sent = queue(job);
    if !sent {
        depth.fetch_sub(1, Ordering::Relaxed);
    }
    sent
}

/// One worker step: take `job` off the queue, drop it if its deadline
/// passed while it waited (the desk answered 504; nothing is sent
/// back), else answer it from a result another worker cached meanwhile,
/// or run `engine` on the canonical request and cache what it returns.
/// The `queue-wait` span and, for a run, the `execute` span are recorded
/// under the request's root.
pub fn execute(
    shared: &Shared,
    job: Job,
    engine: impl FnOnce(&ElectRequest) -> CachedResult,
) -> Option<Done> {
    shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
    let dequeued = shared.cfg.clock.now();
    shared.recorder.record_span(
        job.trace,
        job.parent,
        Stage::QueueWait,
        job.enqueued,
        dequeued,
        SpanAttrs::default(),
    );
    if job.deadline.is_some_and(|deadline| dequeued >= deadline) {
        SvcMetrics::inc(&shared.metrics.jobs_dropped_stale);
        return None;
    }
    shared.metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
    let t0 = shared.cfg.clock.now();
    // Another worker may have computed this key while the job sat in
    // the queue; prefer its cached answer over re-running. `peek` keeps
    // the hit/miss counters client-facing.
    let result = match shared.cache.peek(&job.key) {
        Some(hit) => hit,
        None => {
            // The execute span's id is minted up front so the core
            // election hook (made current for this thread while the
            // election runs) can parent its `election` span to it.
            let exec = shared.recorder.next_span_id();
            let CacheKey { canon, algo, k } = job.key;
            let request = ElectRequest { labels: canon, algo, k };
            let computed = Arc::new({
                let _span = trace::set_current(&shared.recorder, job.trace, exec);
                engine(&request)
            });
            shared
                .metrics
                .observe_election_run(algo, shared.cfg.clock.now().saturating_duration_since(t0));
            shared.recorder.record_span_with_id(
                exec,
                job.trace,
                job.parent,
                Stage::Execute,
                t0,
                shared.cfg.clock.now(),
                SpanAttrs { err: computed.is_err(), ..Default::default() },
            );
            let key = CacheKey { canon: request.labels, algo, k };
            shared.cache.insert_shared(key, Arc::clone(&computed));
            computed
        }
    };
    let busy = shared.cfg.clock.now().saturating_duration_since(t0);
    let busy_us = busy.as_micros().min(u64::MAX as u128) as u64;
    shared.metrics.worker_busy_us.fetch_add(busy_us, Ordering::Relaxed);
    shared.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
    Some(Done { ticket: job.ticket, slot: job.slot, result })
}

/// Closes the envelope around a finished response.
fn close_request_span(span: RequestSpan, shared: &Shared, resp: Response) -> Response {
    span.close(&shared.recorder, shared.cfg.clock.now(), shared.cfg.slow_threshold, resp)
}

/// The 400 for a body that does not parse, envelope closed.
fn bad_request(span: RequestSpan, shared: &Shared, why: &str) -> Response {
    SvcMetrics::inc(&shared.metrics.bad_requests);
    close_request_span(span, shared, Response::json(400, api::error_json(why)))
}

/// A 503 asking the client to come back.
fn unavailable(why: &str) -> Response {
    Response::json(503, api::error_json(why)).with_header("retry-after", "1".into())
}

/// One answered election: its outcome counter ticked and its latency
/// observed.
fn answered(shared: &Shared, result: &CachedResult, admitted: Instant) {
    let m = &shared.metrics;
    SvcMetrics::inc(if result.is_ok() { &m.elect_ok } else { &m.elect_failed });
    m.observe_elect(shared.cfg.clock.now().saturating_duration_since(admitted));
}

/// The single-request response for a canonical-coordinates result `rot`
/// places from the request's: 200 with the outcome, or 422 with the
/// specification error.
fn respond(
    request: &ElectRequest,
    rot: usize,
    result: &CachedResult,
    shared: &Shared,
    admitted: Instant,
) -> Response {
    answered(shared, result, admitted);
    match result {
        Ok(out) => Response::json(200, api::rotated_response_json(request, out, rot)),
        Err(why) => Response::json(422, api::error_json(why)),
    }
}

/// Assembles a batch's answer in request order, each element the bytes
/// a single `POST /elect` would send for that entry, and closes its
/// envelope. Every valid entry counts as one election and observes the
/// elect latency, as a single request would.
fn batch_response(batch: Batch, shared: &Shared) -> Response {
    let Batch { span, hits, entries, computed, .. } = batch;
    // Answers run to a few hundred bytes; a longer one grows the buffer.
    let mut body = String::with_capacity(2 + 512 * entries.len());
    let mut arr = ArrayWriter::new(&mut body);
    for entry in entries {
        let Entry { request, rot, source } = match entry {
            Ok(entry) => entry,
            Err(why) => {
                api::write_error(arr.element(), &why);
                continue;
            }
        };
        let result = match &source {
            Source::Cached(result) => result,
            Source::Miss(slot) => computed[*slot].as_ref().expect("every miss was answered"),
        };
        answered(shared, result, span.admitted);
        match &**result {
            Ok(out) => api::write_response(arr.element(), &request, out, rot),
            Err(why) => api::write_error(arr.element(), why),
        }
    }
    arr.finish();
    let resp = Response::json(200, body).with_header("x-batch-hits", hits.to_string());
    close_request_span(span, shared, resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::server::SvcConfig;
    use hre_runtime::{Clock, ClockHandle, VirtualClock};
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// The Figure-1 ring and its rotation right by one place.
    const RING: &str = r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#;
    const ROTATED: &str = r#"{"ring":[2,1,3,1,3,2,2,1],"algo":"ak"}"#;

    /// A desk on a virtual clock, driven by hand: no socket, no thread.
    /// Jobs land in `queue`; `run_next` is one worker step.
    struct Rig {
        clock: Arc<VirtualClock>,
        shared: Arc<Shared>,
        desk: Desk,
        queue: VecDeque<Job>,
    }

    impl Rig {
        fn new(queue_cap: usize) -> Rig {
            let clock = VirtualClock::new();
            let shared = Arc::new(Shared::new(SvcConfig {
                queue_cap,
                deadline: Duration::from_millis(100),
                slow_threshold: None,
                clock: ClockHandle::from(Arc::clone(&clock)),
                ..SvcConfig::default()
            }));
            Rig { desk: Desk::new(Arc::clone(&shared)), shared, clock, queue: VecDeque::new() }
        }

        fn post(&mut self, conn: u64, path: &str, body: &str) -> Dispatch<u64> {
            let req = Request {
                method: "POST".into(),
                path: path.into(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            };
            let queue = &mut self.queue;
            self.desk.dispatch(conn, &req, |job| {
                queue.push_back(job);
                true
            })
        }

        /// One worker step on the oldest queued job, engine registry.
        fn run_next(&mut self) -> Option<Done> {
            let job = self.queue.pop_front().expect("a job is queued");
            execute(&self.shared, job, api::run_election)
        }
    }

    fn answered(d: Dispatch<u64>) -> Response {
        match d {
            Dispatch::Answer(resp) => resp,
            Dispatch::Park(..) => panic!("parked, expected an answer"),
        }
    }

    fn parked(d: Dispatch<u64>) -> (u64, Option<Instant>) {
        match d {
            Dispatch::Park(ticket, deadline) => (ticket, deadline),
            Dispatch::Answer(resp) => panic!("answered {}, expected a park", resp.status),
        }
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn elections_run(shared: &Shared) -> u64 {
        shared.metrics.elections_by_algo.iter().map(load).sum()
    }

    #[test]
    fn a_miss_that_finds_the_queue_full_gets_503_with_retry_after() {
        let mut rig = Rig::new(2);
        parked(rig.post(1, "/elect", RING));
        parked(rig.post(2, "/elect", r#"{"ring":[1,2,2]}"#));
        assert_eq!(rig.shared.metrics.queue_depth.load(Ordering::Relaxed), 2);

        let resp = answered(rig.post(3, "/elect", r#"{"ring":[1,1,2]}"#));
        assert_eq!(resp.status, 503);
        assert_eq!(header(&resp, "retry-after"), Some("1"));
        assert_eq!(resp.body, api::error_json("job queue full, retry shortly").into_bytes());
        assert_eq!(load(&rig.shared.metrics.rejected_busy), 1);
        assert_eq!(rig.queue.len(), 2, "the rejected miss queued nothing");

        // A hit needs no worker: it is answered with the queue still full.
        let done = rig.run_next().expect("fresh job");
        assert_eq!(rig.desk.finish(done).expect("answered").1.status, 200);
        parked(rig.post(4, "/elect", r#"{"ring":[2,2,1]}"#));
        let resp = answered(rig.post(5, "/elect", ROTATED));
        assert_eq!((resp.status, header(&resp, "x-cache")), (200, Some("HIT")));
    }

    #[test]
    fn a_parked_elect_past_its_deadline_gets_504_and_its_job_is_dropped_stale() {
        let mut rig = Rig::new(8);
        let admitted = rig.clock.now();
        let (ticket, deadline) = parked(rig.post(7, "/elect", RING));
        assert_eq!(deadline, Some(admitted + rig.shared.cfg.deadline));

        rig.clock.advance(rig.shared.cfg.deadline);
        let (conn, resp) = rig.desk.expire(ticket).expect("still parked");
        assert_eq!((conn, resp.status), (7, 504));
        assert_eq!(resp.body, api::error_json("deadline expired").into_bytes());
        assert!(rig.desk.expire(ticket).is_none(), "answered once");

        let job = rig.queue.pop_front().expect("queued");
        assert!(execute(&rig.shared, job, |_| unreachable!("a stale job never runs")).is_none());
        let m = &rig.shared.metrics;
        assert_eq!((load(&m.deadline_expired), load(&m.jobs_dropped_stale)), (1, 1));
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(elections_run(&rig.shared), 0);
    }

    #[test]
    fn a_late_done_for_an_answered_request_changes_nothing() {
        let mut rig = Rig::new(8);
        let (ticket, _) = parked(rig.post(7, "/elect", RING));
        let done = rig.run_next().expect("run before its deadline");
        rig.clock.advance(rig.shared.cfg.deadline);
        assert_eq!(rig.desk.expire(ticket).expect("still parked").1.status, 504);

        let counters = |shared: &Shared| {
            let m = &shared.metrics;
            [
                load(&m.elect_ok),
                load(&m.elect_failed),
                load(&m.deadline_expired),
                m.elect_latency.snapshot().count,
                shared.recorder.spans().len() as u64,
            ]
        };
        let before = counters(&rig.shared);
        assert!(rig.desk.finish(done).is_none());
        assert_eq!(counters(&rig.shared), before);
    }

    #[test]
    fn batch_entries_never_get_503_or_504_and_an_alias_shares_one_job() {
        let mut rig = Rig::new(1);
        parked(rig.post(1, "/elect", r#"{"ring":[1,2,2]}"#));
        // The queue is full, and the entries wait ten deadlines.
        let body = format!("[{RING},{ROTATED},{},{}]", r#"{"ring":[1,1,2]}"#, r#"{"ring":[1]}"#);
        let (_, deadline) = parked(rig.post(2, "/elect/batch", &body));
        assert_eq!(deadline, None, "a batch parks with no deadline");
        assert_eq!(rig.queue.len(), 3, "the /elect job, then one per distinct miss");
        rig.clock.advance(rig.shared.cfg.deadline * 10);

        assert!(rig.run_next().is_none(), "the /elect job went stale");
        let first = rig.run_next().expect("a batch job never goes stale");
        assert!(rig.desk.finish(first).is_none(), "the batch waits for its last job");
        let last = rig.run_next().expect("a batch job never goes stale");
        let (conn, resp) = rig.desk.finish(last).expect("answered");
        assert_eq!((conn, resp.status), (2, 200));
        assert_eq!(header(&resp, "x-batch-hits"), Some("0"));

        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("json");
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr.len(), 4);
        let leader = |i: usize| arr[i].get("leader").and_then(Json::as_u64).expect("elected");
        assert_eq!(leader(1), (leader(0) + 1) % 8, "the alias is re-indexed");
        assert!(arr[2].get("leader").is_some());
        assert_eq!(
            arr[3].get("error").and_then(Json::as_str),
            Some("ring needs at least two labels")
        );
        assert_eq!(elections_run(&rig.shared), 2, "the alias shared one run");
        let m = &rig.shared.metrics;
        assert_eq!((load(&m.rejected_busy), load(&m.deadline_expired)), (0, 0));
    }

    #[test]
    fn every_counter_reconciles() {
        let mut rig = Rig::new(2);
        let mut statuses = Vec::new();
        let (a, _) = parked(rig.post(1, "/elect", RING));
        let (b, _) = parked(rig.post(2, "/elect", r#"{"ring":[1,2,2]}"#));
        statuses.push(answered(rig.post(3, "/elect", r#"{"ring":[1,1,2]}"#)).status);
        statuses.push(answered(rig.post(4, "/elect", "not json")).status);
        let done = rig.run_next().expect("fresh job");
        let (conn, resp) = rig.desk.finish(done).expect("answered");
        assert_eq!(conn, 1);
        statuses.push(resp.status);
        statuses.push(answered(rig.post(5, "/elect", ROTATED)).status);
        rig.clock.advance(rig.shared.cfg.deadline);
        statuses.push(rig.desk.expire(b).expect("parked").1.status);
        assert!(rig.desk.expire(a).is_none(), "already answered");
        assert!(rig.run_next().is_none(), "stale");
        let body = format!("[{RING},{ROTATED},{},{}]", r#"{"ring":[1,1,3]}"#, r#"{"ring":[1]}"#);
        parked(rig.post(6, "/elect/batch", &body));
        let done = rig.run_next().expect("fresh job");
        let (_, resp) = rig.desk.finish(done).expect("answered");
        assert_eq!(header(&resp, "x-batch-hits"), Some("2"));
        statuses.sort_unstable();
        assert_eq!(statuses, [200, 200, 400, 503, 504]);

        let m = &rig.shared.metrics;
        let cache = rig.shared.cache.snapshot();
        // Every answered election observed its latency once: two single
        // requests and three valid batch entries.
        assert_eq!(load(&m.elect_ok) + load(&m.elect_failed), 5);
        assert_eq!(m.elect_latency.snapshot().count, 5);
        // One lookup per parsed /elect (4) and per valid batch entry (3).
        assert_eq!((cache.hits, cache.misses), (3, 4));
        assert_eq!(load(&m.batch_entry_hits), 2);
        assert_eq!(load(&m.batch_entries), 4);
        // Every job queued (3) ran or was dropped; none is left.
        assert_eq!(elections_run(&rig.shared) + load(&m.jobs_dropped_stale), 3);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(m.workers_busy.load(Ordering::Relaxed), 0);
        // Rejections: the full queue, the deadline, the bad body and the
        // bad batch entry.
        assert_eq!(load(&m.rejected_busy), 1);
        assert_eq!(load(&m.deadline_expired), 1);
        assert_eq!(load(&m.bad_requests), 2);
        assert_eq!(load(&m.batch_requests), 1);
    }
}
