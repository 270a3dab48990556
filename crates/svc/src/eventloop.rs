//! The election daemon's listener on the front-connection machine
//! ([`crate::front`]): routes, cache lookups, jobs, batches and worker
//! completions. The machine holds every connection; what a connection
//! parks here is a [`Pending`] request.
//!
//! Parsing, canonicalisation, cache lookups and response assembly run on
//! the reactor. Engine runs go to the workers as [`Job`]s on one queue:
//!
//! * an `/elect` miss is one job, admitted while `queue_depth` is below
//!   `queue_cap` (503 otherwise) and answered 504 if its deadline (the
//!   park deadline) passes first;
//! * an `/elect/batch` enqueues one job per distinct miss, with no
//!   admission check and no deadline, and is answered when the last of
//!   them is done. Aliased entries (same canonical ring, algo, k) share
//!   one job.

use crate::api::{self, ElectRequest};
use crate::cache::{CacheKey, CachedResult};
use crate::front::{self, Dispatch, Front, Service, Tally};
use crate::http::{Request, Response};
use crate::json::ArrayWriter;
use crate::metrics::SvcMetrics;
use crate::server::{
    close_request_span, open_request_span, respond, route_aux, Done, Job, Reply, RequestSpan,
    Shared,
};
use crossbeam::channel::{Receiver, Sender};
use hre_runtime::trace::{SpanAttrs, Stage};
use hre_runtime::Reactor;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What a connection is waiting for.
enum Pending {
    /// An `/elect` job is queued; its [`Done`] carries `ticket`.
    Elect { ticket: u64, request: ElectRequest, rot: usize, span: RequestSpan },
    /// An `/elect/batch` waits for the jobs of its distinct misses.
    Batch(Box<Batch>),
}

/// An `/elect/batch` between its cache lookups and its last job.
struct Batch {
    ticket: u64,
    span: RequestSpan,
    hits: u64,
    /// Request order: the entry, or its validation error.
    entries: Vec<Result<Entry, String>>,
    /// The distinct misses' results, by slot, as workers return them.
    computed: Vec<Option<CachedResult>>,
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
    Cached(CachedResult),
    /// Slot `i` of [`Batch::computed`].
    Miss(usize),
}

struct EventLoop<'a> {
    shared: &'a Arc<Shared>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
    /// Source of [`Reply::ticket`]s.
    next_ticket: u64,
    /// Reused by every batch's canonicalisation.
    scratch: hre_words::RotationScratch<u64>,
}

/// Runs the serving core until shutdown; returns the number of
/// connections accepted.
pub(crate) fn reactor_loop(
    reactor: Reactor,
    listener: TcpListener,
    shared: &Arc<Shared>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
) -> u64 {
    let mut el = EventLoop {
        shared,
        job_tx,
        done_rx,
        next_ticket: 0,
        scratch: hre_words::RotationScratch::new(),
    };
    front::serve(&mut el, reactor, listener, shared.cfg.max_body, Arc::clone(&shared.shutdown))
}

impl Service for EventLoop<'_> {
    type Parked = Pending;

    fn dispatch(
        &mut self,
        _front: &mut Front<Pending>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Pending> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/elect") => self.dispatch_elect(token, req),
            ("POST", "/elect/batch") => self.dispatch_batch(token, req),
            _ => Dispatch::Answer(route_aux(req, self.shared)),
        }
    }

    /// The job deadline passed before the worker replied: 504. A late
    /// reply is recognised as stale by its ticket.
    fn expire(&mut self, front: &mut Front<Pending>, token: u64) {
        if !matches!(front.parked(token), Some(Pending::Elect { .. })) {
            return;
        }
        let Some(Pending::Elect { span, .. }) = front.unpark(token) else {
            unreachable!("matched Elect above");
        };
        SvcMetrics::inc(&self.shared.metrics.deadline_expired);
        let resp = Response::json(504, api::error_json("deadline expired"));
        front.answer(token, close_request_span(span, self.shared, resp));
    }

    /// Results before deadlines: when a reply and its 504 timer race
    /// into the same wakeup, the reply wins.
    fn woken(&mut self, front: &mut Front<Pending>) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.finish_job(front, done);
        }
    }

    fn tally(&self, what: Tally) {
        let m = &self.shared.metrics;
        match what {
            Tally::Accepted => SvcMetrics::inc(&m.connections),
            Tally::Open(delta) => {
                m.open_connections.fetch_add(delta, Ordering::Relaxed);
            }
            Tally::Wakeups(total) => m.reactor_wakeups.store(total, Ordering::Relaxed),
            Tally::Refused => SvcMetrics::inc(&m.bad_requests),
        }
    }
}

impl EventLoop<'_> {
    /// `/elect`: cache hits and rejections answer inline; misses enqueue
    /// a job and park the request until its deadline.
    fn dispatch_elect(&mut self, token: u64, req: &Request) -> Dispatch<Pending> {
        let shared = self.shared;
        let span = open_request_span(req, shared);
        let request = match ElectRequest::from_json(&req.body) {
            Ok(r) => r,
            Err(why) => {
                SvcMetrics::inc(&shared.metrics.bad_requests);
                let resp = Response::json(400, api::error_json(&why));
                return Dispatch::Answer(close_request_span(span, shared, resp));
            }
        };
        let (canon_req, rot) = request.canonicalized();
        let key =
            CacheKey { canon: canon_req.labels.clone(), algo: canon_req.algo, k: canon_req.k };

        let lookup_start = shared.cfg.clock.now();
        let cached = shared.cache.get(&key);
        shared.recorder.record_span(
            span.trace,
            span.root,
            Stage::CacheLookup,
            lookup_start,
            shared.cfg.clock.now(),
            SpanAttrs { a: cached.is_some() as u64, ..Default::default() },
        );
        if let Some(cached) = cached {
            let resp = respond(&request, rot, cached, shared, span.admitted)
                .with_header("x-cache", "HIT".into());
            return Dispatch::Answer(close_request_span(span, shared, resp));
        }

        if shared.metrics.queue_depth.load(Ordering::Relaxed) >= shared.cfg.queue_cap.max(1) as i64
        {
            SvcMetrics::inc(&shared.metrics.rejected_busy);
            let resp = Response::json(503, api::error_json("job queue full, retry shortly"))
                .with_header("retry-after", "1".into());
            return Dispatch::Answer(close_request_span(span, shared, resp));
        }
        let deadline = span.admitted + shared.cfg.deadline;
        let ticket = self.ticket();
        let job = Job {
            canon_req,
            key,
            deadline: Some(deadline),
            trace: span.trace,
            parent: span.root,
            enqueued: shared.cfg.clock.now(),
            reply: Reply { conn: token, ticket, slot: 0 },
        };
        if !self.enqueue(job) {
            let resp = Response::json(503, api::error_json("service shutting down"))
                .with_header("retry-after", "1".into());
            return Dispatch::Answer(close_request_span(span, shared, resp));
        }
        Dispatch::Park(Pending::Elect { ticket, request, rot, span }, Some(deadline))
    }

    /// `/elect/batch`: parse the whole body, canonicalise every entry
    /// through one reused scratch, look every entry up before any job
    /// runs, and enqueue the distinct misses. A batch without misses is
    /// answered inline.
    fn dispatch_batch(&mut self, token: u64, req: &Request) -> Dispatch<Pending> {
        let shared = self.shared;
        let span = open_request_span(req, shared);
        SvcMetrics::inc(&shared.metrics.batch_requests);
        let parsed = match api::batch_from_json(&req.body) {
            Ok(parsed) => parsed,
            Err(why) => {
                SvcMetrics::inc(&shared.metrics.bad_requests);
                let resp = Response::json(400, api::error_json(&why));
                return Dispatch::Answer(close_request_span(span, shared, resp));
            }
        };
        shared.metrics.batch_entries.fetch_add(parsed.len() as u64, Ordering::Relaxed);

        let mut entries = Vec::with_capacity(parsed.len());
        let mut misses: Vec<(ElectRequest, CacheKey)> = Vec::new();
        let mut miss_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut hits = 0u64;
        let lookup_start = shared.cfg.clock.now();
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
            let (canon_req, rot) = request.canonicalized_with(&mut self.scratch);
            let key =
                CacheKey { canon: canon_req.labels.clone(), algo: canon_req.algo, k: canon_req.k };
            let source = match shared.cache.get(&key) {
                Some(cached) => {
                    hits += 1;
                    Source::Cached(cached)
                }
                None => Source::Miss(*miss_index.entry(key.clone()).or_insert_with(|| {
                    misses.push((canon_req, key));
                    misses.len() - 1
                })),
            };
            entries.push(Ok(Entry { request, rot, source }));
        }
        shared.metrics.batch_entry_hits.fetch_add(hits, Ordering::Relaxed);
        shared.recorder.record_span(
            span.trace,
            span.root,
            Stage::CacheLookup,
            lookup_start,
            shared.cfg.clock.now(),
            SpanAttrs { a: hits, ..Default::default() },
        );

        let ticket = self.ticket();
        let mut batch = Batch {
            ticket,
            span,
            hits,
            entries,
            computed: vec![None; misses.len()],
            outstanding: 0,
        };
        for (slot, (canon_req, key)) in misses.into_iter().enumerate() {
            let job = Job {
                canon_req,
                key,
                deadline: None,
                trace: batch.span.trace,
                parent: batch.span.root,
                enqueued: shared.cfg.clock.now(),
                reply: Reply { conn: token, ticket, slot },
            };
            if self.enqueue(job) {
                batch.outstanding += 1;
            } else {
                batch.computed[slot] = Some(Err("service shutting down".into()));
            }
        }
        if batch.outstanding == 0 {
            return Dispatch::Answer(batch_response(batch, shared));
        }
        Dispatch::Park(Pending::Batch(Box::new(batch)), None)
    }

    fn ticket(&mut self) -> u64 {
        self.next_ticket += 1;
        self.next_ticket
    }

    /// Queues a job; `false` only if every worker is gone. The gauge
    /// moves first so the admission check never under-reads it.
    fn enqueue(&self, job: Job) -> bool {
        let depth = &self.shared.metrics.queue_depth;
        depth.fetch_add(1, Ordering::Relaxed);
        let sent = self.job_tx.send(job).is_ok();
        if !sent {
            depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    /// A worker finished a job: hand the result to the request waiting
    /// on it, unless that request was already answered (504).
    fn finish_job(&mut self, front: &mut Front<Pending>, done: Done) {
        let shared = self.shared;
        let Done { reply: Reply { conn: token, ticket, slot }, result } = done;
        let resp = match front.parked(token) {
            Some(Pending::Elect { ticket: parked, .. }) if *parked == ticket => {
                let Some(Pending::Elect { request, rot, span, .. }) = front.unpark(token) else {
                    unreachable!("matched Elect above");
                };
                let resp = respond(&request, rot, result, shared, span.admitted)
                    .with_header("x-cache", "MISS".into());
                close_request_span(span, shared, resp)
            }
            Some(Pending::Batch(batch)) if batch.ticket == ticket => {
                batch.computed[slot] = Some(result);
                batch.outstanding -= 1;
                if batch.outstanding > 0 {
                    return;
                }
                let Some(Pending::Batch(batch)) = front.unpark(token) else {
                    unreachable!("matched Batch above");
                };
                batch_response(*batch, shared)
            }
            _ => return,
        };
        front.answer(token, resp);
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
        let result = match source {
            Source::Cached(result) => result,
            Source::Miss(slot) => computed[slot].clone().expect("every miss was answered"),
        };
        match result {
            Ok(canon_out) => {
                SvcMetrics::inc(&shared.metrics.elect_ok);
                let out = canon_out.into_coords(rot, request.labels.len());
                api::write_response(arr.element(), &request, &out);
            }
            Err(why) => {
                SvcMetrics::inc(&shared.metrics.elect_failed);
                api::write_error(arr.element(), &why);
            }
        }
        shared
            .metrics
            .observe_elect(shared.cfg.clock.now().saturating_duration_since(span.admitted));
    }
    arr.finish();
    let resp = Response::json(200, body).with_header("x-batch-hits", hits.to_string());
    close_request_span(span, shared, resp)
}
