//! The serving core: one reactor thread holds every connection as a
//! state machine while the worker pool only runs elections.
//!
//! Connection lifecycle (see DESIGN §7 for the diagram):
//!
//! ```text
//!            accept            ParseStep::Request
//!   listener ──────▶ READING ───────────────────────▶ dispatch
//!                      ▲  ▲                             │
//!        flush done,   │  │ job done (a batch's last) / │ /elect miss,
//!        keep-alive    │  │ deadline timer (504)        │ /elect/batch misses
//!                      │  │                             ▼
//!                    WRITING ◀───────────────────── AWAITING
//! ```
//!
//! Parsing, canonicalisation, cache lookups and response assembly run on
//! the reactor. Engine runs go to the workers as [`Job`]s on one queue:
//!
//! * an `/elect` miss is one job, admitted while `queue_depth` is below
//!   `queue_cap` (503 otherwise) and answered 504 by a reactor timer if
//!   its deadline passes first;
//! * an `/elect/batch` enqueues one job per distinct miss, with no
//!   admission check and no deadline, and is answered when the last of
//!   them is done. Aliased entries (same canonical ring, algo, k) share
//!   one job.
//!
//! While a connection awaits a result the reactor does not read from
//! it: pipelined follow-ups stay in the kernel buffer and are answered
//! in order once the awaited response is written.

use crate::api::{self, ElectRequest};
use crate::cache::{CacheKey, CachedResult};
use crate::http::{ParseStep, Phase, Request, RequestParser, Response};
use crate::json::ArrayWriter;
use crate::metrics::SvcMetrics;
use crate::server::{
    close_request_span, open_request_span, respond, route_aux, Done, Job, Reply, RequestSpan,
    Shared, POLL,
};
use crossbeam::channel::{Receiver, Sender};
use hre_runtime::trace::{SpanAttrs, Stage};
use hre_runtime::{Interest, Reactor, TimerKey};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Timer-token bit marking a job-deadline timer for connection
/// `token & !DEADLINE_BIT`.
const DEADLINE_BIT: u64 = 1 << 62;
/// Timer-token bit marking a request-head timeout.
const HEAD_BIT: u64 = 1 << 61;
/// How long a partial request may dribble in before the connection is
/// timed out.
const HEAD_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

/// What a connection is waiting for, if anything.
enum Pending {
    /// An `/elect` job is queued; its [`Done`] carries `ticket`.
    Elect {
        ticket: u64,
        request: ElectRequest,
        rot: usize,
        span: RequestSpan,
        timer: TimerKey,
        close: bool,
    },
    /// An `/elect/batch` waits for the jobs of its distinct misses.
    Batch(Box<Batch>),
}

/// An `/elect/batch` between its cache lookups and its last job.
struct Batch {
    ticket: u64,
    span: RequestSpan,
    close: bool,
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

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialized response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    /// Edge-triggered readiness we have not consumed yet.
    want_read: bool,
    pending: Option<Pending>,
    head_timer: Option<TimerKey>,
}

/// Why [`EventLoop::drive`] stopped working on a connection.
enum Drive {
    Keep,
    Close,
}

struct EventLoop<'a> {
    reactor: Reactor,
    conns: HashMap<u64, Conn>,
    shared: &'a Arc<Shared>,
    job_tx: Sender<Job>,
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
    shutdown: &Arc<AtomicBool>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
) -> u64 {
    let mut el = EventLoop {
        reactor,
        conns: HashMap::new(),
        shared,
        job_tx,
        next_ticket: 0,
        scratch: hre_words::RotationScratch::new(),
    };
    let mut listener = Some(listener);
    if let Some(l) = &listener {
        if el.reactor.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE).is_err() {
            return 0;
        }
    }

    let mut accepted = 0u64;
    let mut next_token: u64 = 1;
    let mut events = Vec::new();
    let mut fired = Vec::new();

    loop {
        let draining =
            shutdown.load(Ordering::Relaxed) || el.shared.shutdown.load(Ordering::Relaxed);
        if draining {
            el.shared.shutdown.store(true, Ordering::SeqCst);
            if let Some(l) = listener.take() {
                let _ = el.reactor.deregister(l.as_raw_fd());
            }
            // Idle connections close now; busy ones finish their
            // in-flight request (which will carry `connection: close`)
            // and partial reads run into the head timer.
            let idle: Vec<u64> = el
                .conns
                .iter()
                .filter(|(_, c)| c.pending.is_none() && c.out.is_empty() && c.parser.is_idle())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                el.close(token);
            }
            if el.conns.is_empty() {
                break;
            }
        }

        if el.reactor.poll(&mut events, &mut fired, Some(POLL)).is_err() {
            break;
        }
        el.shared.metrics.reactor_wakeups.store(el.reactor.wakeups(), Ordering::Relaxed);

        let mut to_service: Vec<u64> = Vec::new();
        for ev in events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                let Some(l) = &listener else { continue };
                loop {
                    match l.accept() {
                        Ok((stream, _peer)) => {
                            accepted += 1;
                            SvcMetrics::inc(&el.shared.metrics.connections);
                            let token = next_token;
                            next_token += 1;
                            if el.admit(stream, token).is_ok() {
                                to_service.push(token);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                continue;
            }
            if let Some(conn) = el.conns.get_mut(&ev.token) {
                if ev.readable || ev.hangup || ev.error {
                    conn.want_read = true;
                }
                to_service.push(ev.token);
            }
        }

        // Results before deadlines: when a reply and its 504 timer race
        // into the same wakeup, the reply wins.
        while let Ok(done) = done_rx.try_recv() {
            let token = done.reply.conn;
            el.finish_job(done);
            to_service.push(token);
        }
        for timer_token in fired.drain(..) {
            if timer_token & DEADLINE_BIT != 0 {
                let token = timer_token & !DEADLINE_BIT;
                el.expire_deadline(token);
                to_service.push(token);
            } else if timer_token & HEAD_BIT != 0 {
                let token = timer_token & !HEAD_BIT;
                el.expire_head(token);
                to_service.push(token);
            }
        }

        for token in to_service {
            el.service(token);
        }
    }
    accepted
}

impl EventLoop<'_> {
    /// Registers a fresh connection with the reactor.
    fn admit(&mut self, stream: TcpStream, token: u64) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.reactor.register(stream.as_raw_fd(), token, Interest::BOTH)?;
        let mut parser = RequestParser::new(crate::http::DEFAULT_MAX_BODY);
        parser.set_max_body(self.shared.cfg.max_body);
        self.shared.metrics.open_connections.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            token,
            Conn {
                stream,
                parser,
                out: Vec::new(),
                out_pos: 0,
                close_after_flush: false,
                want_read: true,
                pending: None,
                head_timer: None,
            },
        );
        Ok(())
    }

    /// Detaches and tears down a connection.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.teardown(&conn);
        }
    }

    fn teardown(&mut self, conn: &Conn) {
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        if let Some(key) = conn.head_timer {
            self.reactor.cancel_timer(key);
        }
        if let Some(Pending::Elect { timer, .. }) = &conn.pending {
            self.reactor.cancel_timer(*timer);
        }
        self.shared.metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Advances one connection as far as readiness allows.
    fn service(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match self.drive(token, &mut conn) {
            Drive::Keep => {
                self.conns.insert(token, conn);
            }
            Drive::Close => self.teardown(&conn),
        }
    }

    fn drive(&mut self, token: u64, conn: &mut Conn) -> Drive {
        loop {
            // 1. Flush whatever response bytes are pending.
            if conn.out_pos < conn.out.len() {
                match flush(conn) {
                    Ok(true) => {
                        conn.out.clear();
                        conn.out_pos = 0;
                        if conn.close_after_flush {
                            return Drive::Close;
                        }
                    }
                    Ok(false) => return Drive::Keep, // wait for writable
                    Err(_) => return Drive::Close,
                }
            }
            // 2. A response in flight from the workers: nothing to do
            //    until its completion arrives.
            if conn.pending.is_some() {
                return Drive::Keep;
            }
            // 3. Frame the next request off buffered bytes.
            match conn.parser.step() {
                ParseStep::Request(req) => {
                    self.settle_head_timer(token, conn);
                    let close = req.wants_close() || self.shared.shutdown.load(Ordering::Relaxed);
                    if let Some(resp) = self.dispatch(token, &req, close, conn) {
                        push_response(conn, &resp, close);
                    }
                    continue;
                }
                ParseStep::Malformed(why) => {
                    SvcMetrics::inc(&self.shared.metrics.bad_requests);
                    let resp = Response::json(400, api::error_json(&why));
                    push_response(conn, &resp, true);
                    continue;
                }
                ParseStep::TooLarge { declared } => {
                    SvcMetrics::inc(&self.shared.metrics.bad_requests);
                    let close = self.shared.shutdown.load(Ordering::Relaxed);
                    let resp = too_large_response(declared, self.shared);
                    push_response(conn, &resp, close);
                    continue;
                }
                ParseStep::NeedMore => {}
            }
            // 4. Pull fresh bytes if the socket reported readiness.
            if !conn.want_read {
                self.settle_head_timer(token, conn);
                return Drive::Keep;
            }
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return self.peer_closed(conn),
                    Ok(n) => {
                        conn.parser.push(&chunk[..n]);
                        // Re-enter the step loop: there may be whole
                        // requests (or a body completion) in the buffer.
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.want_read = false;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return self.read_failed(conn),
                }
            }
        }
    }

    /// Arms the head-timeout timer when a request is mid-parse with no
    /// reply owed, and cancels it when the connection is idle.
    fn settle_head_timer(&mut self, token: u64, conn: &mut Conn) {
        let partial = !conn.parser.is_idle() && conn.pending.is_none();
        match (partial, conn.head_timer) {
            (true, None) => {
                conn.head_timer = Some(self.reactor.set_timer(HEAD_DEADLINE, token | HEAD_BIT));
            }
            (false, Some(key)) => {
                self.reactor.cancel_timer(key);
                conn.head_timer = None;
            }
            _ => {}
        }
    }

    /// EOF from the peer: a clean close between requests, else a 400.
    fn peer_closed(&mut self, conn: &mut Conn) -> Drive {
        match conn.parser.phase() {
            Phase::Head if conn.parser.is_idle() => Drive::Close,
            Phase::Head => self.abort_with(conn, "connection closed mid-request"),
            Phase::Body => self.abort_with(conn, "connection closed mid-body"),
            Phase::Discard => self.abort_too_large(conn),
        }
    }

    /// A hard read error: a 400 mid-body, else just close.
    fn read_failed(&mut self, conn: &mut Conn) -> Drive {
        match conn.parser.phase() {
            Phase::Head => Drive::Close,
            Phase::Body => self.abort_with(conn, "read error mid-body"),
            Phase::Discard => self.abort_too_large(conn),
        }
    }

    fn abort_with(&mut self, conn: &mut Conn, why: &str) -> Drive {
        SvcMetrics::inc(&self.shared.metrics.bad_requests);
        let resp = Response::json(400, api::error_json(why));
        push_response(conn, &resp, true);
        // Best-effort write to a peer that may be gone; then close.
        let _ = flush(conn);
        Drive::Close
    }

    fn abort_too_large(&mut self, conn: &mut Conn) -> Drive {
        SvcMetrics::inc(&self.shared.metrics.bad_requests);
        let declared = conn.parser.discarding().unwrap_or_default();
        let resp = too_large_response(declared, self.shared);
        push_response(conn, &resp, true);
        let _ = flush(conn);
        Drive::Close
    }

    /// Routes one parsed request. Returns the response to emit now, or
    /// `None` when the answer waits on the workers.
    fn dispatch(
        &mut self,
        token: u64,
        req: &Request,
        close: bool,
        conn: &mut Conn,
    ) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/elect") => self.dispatch_elect(token, req, close, conn),
            ("POST", "/elect/batch") => self.dispatch_batch(token, req, close, conn),
            _ => Some(route_aux(req, self.shared)),
        }
    }

    /// `/elect`: cache hits and rejections answer inline; misses enqueue
    /// a job and park the connection.
    fn dispatch_elect(
        &mut self,
        token: u64,
        req: &Request,
        close: bool,
        conn: &mut Conn,
    ) -> Option<Response> {
        let shared = self.shared;
        let span = open_request_span(req, shared);
        let request = match ElectRequest::from_json(&req.body) {
            Ok(r) => r,
            Err(why) => {
                SvcMetrics::inc(&shared.metrics.bad_requests);
                let resp = Response::json(400, api::error_json(&why));
                return Some(close_request_span(span, shared, resp));
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
            return Some(close_request_span(span, shared, resp));
        }

        if shared.metrics.queue_depth.load(Ordering::Relaxed) >= shared.cfg.queue_cap.max(1) as i64
        {
            SvcMetrics::inc(&shared.metrics.rejected_busy);
            let resp = Response::json(503, api::error_json("job queue full, retry shortly"))
                .with_header("retry-after", "1".into());
            return Some(close_request_span(span, shared, resp));
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
            return Some(close_request_span(span, shared, resp));
        }
        let timer = self.reactor.set_timer_at(deadline, token | DEADLINE_BIT);
        conn.pending = Some(Pending::Elect { ticket, request, rot, span, timer, close });
        None
    }

    /// `/elect/batch`: parse the whole body, canonicalise every entry
    /// through one reused scratch, look every entry up before any job
    /// runs, and enqueue the distinct misses. A batch without misses is
    /// answered inline.
    fn dispatch_batch(
        &mut self,
        token: u64,
        req: &Request,
        close: bool,
        conn: &mut Conn,
    ) -> Option<Response> {
        let shared = self.shared;
        let span = open_request_span(req, shared);
        SvcMetrics::inc(&shared.metrics.batch_requests);
        let parsed = match api::batch_from_json(&req.body) {
            Ok(parsed) => parsed,
            Err(why) => {
                SvcMetrics::inc(&shared.metrics.bad_requests);
                let resp = Response::json(400, api::error_json(&why));
                return Some(close_request_span(span, shared, resp));
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
            close,
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
            return Some(batch_response(batch, shared));
        }
        conn.pending = Some(Pending::Batch(Box::new(batch)));
        None
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
    fn finish_job(&mut self, done: Done) {
        let shared = self.shared;
        let Some(conn) = self.conns.get_mut(&done.reply.conn) else { return };
        match &mut conn.pending {
            Some(Pending::Elect { ticket, .. }) if *ticket == done.reply.ticket => {
                let Some(Pending::Elect { request, rot, span, timer, close, .. }) =
                    conn.pending.take()
                else {
                    unreachable!("matched Elect above");
                };
                self.reactor.cancel_timer(timer);
                let resp = respond(&request, rot, done.result, shared, span.admitted)
                    .with_header("x-cache", "MISS".into());
                push_response(conn, &close_request_span(span, shared, resp), close);
            }
            Some(Pending::Batch(batch)) if batch.ticket == done.reply.ticket => {
                batch.computed[done.reply.slot] = Some(done.result);
                batch.outstanding -= 1;
                if batch.outstanding == 0 {
                    let Some(Pending::Batch(batch)) = conn.pending.take() else {
                        unreachable!("matched Batch above");
                    };
                    let close = batch.close;
                    push_response(conn, &batch_response(*batch, shared), close);
                }
            }
            _ => {}
        }
    }

    /// The per-job deadline fired before the worker replied: 504. A late
    /// reply is recognised as stale by its ticket.
    fn expire_deadline(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !matches!(conn.pending, Some(Pending::Elect { .. })) {
            return;
        }
        let Some(Pending::Elect { span, close, .. }) = conn.pending.take() else {
            unreachable!("matched Elect above");
        };
        SvcMetrics::inc(&self.shared.metrics.deadline_expired);
        let resp = Response::json(504, api::error_json("deadline expired"));
        let resp = close_request_span(span, self.shared, resp);
        push_response(conn, &resp, close);
    }

    /// The request-head timeout fired: the peer stalled mid-request.
    fn expire_head(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        conn.head_timer = None;
        if conn.pending.is_some() || conn.parser.is_idle() {
            self.conns.insert(token, conn);
            return;
        }
        let drive = match conn.parser.phase() {
            Phase::Head => self.abort_with(&mut conn, "timed out mid-request"),
            Phase::Body => self.abort_with(&mut conn, "timed out reading body"),
            Phase::Discard => self.abort_too_large(&mut conn),
        };
        match drive {
            Drive::Keep => {
                self.conns.insert(token, conn);
            }
            Drive::Close => self.teardown(&conn),
        }
    }
}

/// Serializes a response onto the connection's output buffer. Appends
/// when earlier bytes are still flushing — deferred completions can
/// land while a previous pipelined response is mid-write, and HTTP/1.1
/// responses go out in order.
fn push_response(conn: &mut Conn, resp: &Response, close: bool) {
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    conn.out.extend_from_slice(&resp.to_bytes(close));
    conn.close_after_flush |= close;
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

/// The 413 for an over-cap body.
fn too_large_response(declared: usize, shared: &Shared) -> Response {
    let why =
        format!("request body of {declared} bytes exceeds the {} byte limit", shared.cfg.max_body);
    Response::json(413, api::error_json(&why))
}

/// Writes as much buffered output as the socket accepts; `Ok(true)`
/// when the buffer is fully flushed.
fn flush(conn: &mut Conn) -> std::io::Result<bool> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}
