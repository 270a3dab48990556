//! The load generator for both daemons — behind `hre bench-svc`, `hre
//! bench-cluster` (churn included) and the served experiments E19,
//! E20, E21, E23 and E26.
//!
//! A fixed set of keep-alive connections races through a shared request
//! counter. The workload is a list of W base elections cycled
//! round-robin: election `i` sends `bases[i % W]`, optionally *rotated*
//! by `i % n`, which keeps every request distinct on the wire while
//! mapping it onto its base's single canonical cache entry. One base is
//! the 100%-rotation workload svc's cache is built for; W bases that
//! overflow one backend's cache but fit N shards' (see [`salted_rings`])
//! is the workload the router's rotation-affinity placement is built
//! for, and the report tallies which backend answered (the router's
//! `x-backend` header).
//!
//! `503` responses are retried after the server's own `Retry-After`
//! hint (capped at [`RETRY_AFTER_CAP`]); they count as backpressure
//! events, not failures, and a request that exhausts its retry budget
//! is reported as [`LoadReport::gave_up_busy`]. A transport error drops
//! the connection and re-sends what it carried on a fresh dial, at most
//! three times per request, 5 ms apart — enough to ride out a backend
//! kill behind the router; a request still failing then counts in
//! [`LoadReport::errors`], with transport faults and unexpected 5xx.

use crate::api::{AlgoId, ElectRequest};
use crate::http::{Client, ClientResponse};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Error, ErrorKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load-generation parameters. The default is an empty workload: set
/// at least `bases`.
#[derive(Clone, Debug, Default)]
pub struct LoadOptions {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Total elections to issue across all connections.
    pub requests: u64,
    /// Base elections, cycled round-robin: election `i` sends
    /// `bases[i % W]` with that entry's own `algo` and `k`. Must not be
    /// empty.
    pub bases: Vec<ElectRequest>,
    /// Rotate each base ring by the election index (same canonical ring
    /// every time) instead of repeating it verbatim.
    pub rotate: bool,
    /// Entries per HTTP request: `<= 1` sends classic single
    /// `POST /elect` requests; `N > 1` packs `N` elections into each
    /// `POST /elect/batch` body.
    pub batch: usize,
    /// Requests kept in flight per connection (HTTP/1.1 pipelining);
    /// `<= 1` is the classic lock-step closed loop.
    pub pipeline: usize,
    /// Open-loop mode: target aggregate request arrival rate in req/s.
    /// Request `i` is *scheduled* at `start + i/rate` regardless of how
    /// fast the server answers, and its latency is measured from that
    /// scheduled instant — so a server that falls behind accrues queue
    /// wait in the tail instead of silently slowing the generator down
    /// (no coordinated omission). `None` is the classic closed loop.
    /// Lock-step only: combined with `pipeline > 1` the run is refused.
    pub open_loop: Option<f64>,
}

/// What the load run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests that completed with 200.
    pub ok: u64,
    /// Requests that completed with 422 (spec violation — still a
    /// definitive answer).
    pub failed: u64,
    /// `X-Cache: HIT` responses among the completed requests.
    pub cache_hits: u64,
    /// 503 backpressure responses absorbed by retrying.
    pub retried_busy: u64,
    /// Requests abandoned because every retry attempt answered 503 —
    /// the service stayed saturated, but nothing broke.
    pub gave_up_busy: u64,
    /// Requests abandoned on transport errors or 5xx other than 503.
    pub errors: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Each connection's own p99 latency in microseconds, sorted
    /// ascending — the fairness lens: a reactor that starves one
    /// connection shows up here even when the aggregate p99 looks fine.
    pub conn_p99_us: Vec<u64>,
    /// Completed `POST /elect` requests per answering backend (the
    /// router's `x-backend` header; empty against a bare daemon).
    pub by_backend: BTreeMap<String, u64>,
}

impl LoadReport {
    /// The `p`-th percentile latency (0 < p <= 100), if any samples.
    pub fn percentile_us(&self, p: f64) -> Option<u64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.latencies_us.len() as f64).ceil() as usize;
        Some(self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1])
    }

    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        let done = (self.ok + self.failed) as f64;
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// Fraction of completed requests that were cache hits.
    pub fn hit_rate(&self) -> f64 {
        let done = (self.ok + self.failed) as f64;
        if done > 0.0 {
            self.cache_hits as f64 / done
        } else {
            0.0
        }
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> Option<u64> {
        let n = self.latencies_us.len() as u64;
        (n > 0).then(|| self.latencies_us.iter().sum::<u64>() / n)
    }

    /// The human-readable summary `hre bench-svc` and `hre
    /// bench-cluster` print.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} ok + {} spec-failed in {:.3} s — {:.0} req/s\n",
            self.ok,
            self.failed,
            self.wall.as_secs_f64(),
            self.throughput()
        ));
        out.push_str(&format!(
            "cache hits {} ({:.0}%) | 503 retries {} | gave up busy {} | errors {}\n",
            self.cache_hits,
            self.hit_rate() * 100.0,
            self.retried_busy,
            self.gave_up_busy,
            self.errors
        ));
        if !self.by_backend.is_empty() {
            let spread: Vec<String> =
                self.by_backend.iter().map(|(b, n)| format!("{b}={n}")).collect();
            out.push_str(&format!("by backend: {}\n", spread.join(" ")));
        }
        if let (Some(mean), Some(p50), Some(p95), Some(p99)) = (
            self.mean_us(),
            self.percentile_us(50.0),
            self.percentile_us(95.0),
            self.percentile_us(99.0),
        ) {
            out.push_str(&format!("latency µs: mean {mean} | p50 {p50} | p95 {p95} | p99 {p99}\n"));
        }
        if self.conn_p99_us.len() > 1 {
            let n = self.conn_p99_us.len();
            out.push_str(&format!(
                "per-connection p99 µs: min {} | median {} | max {}  ({} connections)\n",
                self.conn_p99_us[0],
                self.conn_p99_us[n / 2],
                self.conn_p99_us[n - 1],
                n
            ));
        }
        out
    }
}

/// `w` structurally distinct canonical rings of size `n`: the
/// heavy-homonymy base `i mod 11`, salted in one position so each ring
/// is its own canonical class and cache entry. The placement-sensitive
/// workload of `hre bench-cluster`, E20 and E23.
pub fn salted_rings(w: usize, n: u64) -> Result<Vec<ElectRequest>, String> {
    (0..w)
        .map(|j| {
            let mut labels: Vec<u64> = (0..n).map(|i| i % 11).collect();
            if let Some(first) = labels.first_mut() {
                *first = 100 + j as u64;
            }
            ElectRequest::new(labels, AlgoId::Ak, None)
        })
        .collect()
}

/// 503 retry attempts per request before giving up as "busy".
const MAX_BUSY_RETRIES: u32 = 50;

/// Fresh dials per request after transport errors before it counts in
/// [`LoadReport::errors`], [`REDIAL_PAUSE`] apart.
const MAX_REDIALS: u32 = 3;

/// The pause before each re-dial.
const REDIAL_PAUSE: Duration = Duration::from_millis(5);

/// Connect, read and write timeout of every connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest the client will honor a `Retry-After` hint for. The server
/// speaks whole seconds (the header's unit); a closed-loop benchmark
/// sleeping multiple seconds per retry would measure its own patience,
/// so the hint is honored up to this cap.
pub const RETRY_AFTER_CAP: Duration = Duration::from_millis(250);

/// The wait a `Retry-After` header value asks for: the server's hint in
/// seconds, capped at [`RETRY_AFTER_CAP`]; a short default when the
/// header is absent or unparseable.
fn retry_after_wait(header: Option<&str>) -> Duration {
    header
        .and_then(|v| v.parse::<u64>().ok())
        .map(|secs| Duration::from_secs(secs).min(RETRY_AFTER_CAP))
        .unwrap_or(Duration::from_millis(10))
        .max(Duration::from_millis(1))
}

/// Drives `opts.requests` requests at `addr` and gathers the report.
///
/// Fails with [`ErrorKind::InvalidInput`] on an empty workload or on
/// open loop combined with pipelining, and with the dial error when a
/// connection cannot be opened at the start. Once the run has begun, a
/// request the target cannot answer counts in [`LoadReport::errors`],
/// so `ok + failed + gave_up_busy + errors == requests`.
pub fn run_load(addr: &str, opts: &LoadOptions) -> std::io::Result<LoadReport> {
    if opts.bases.is_empty() {
        return Err(Error::new(ErrorKind::InvalidInput, "load needs at least one base ring"));
    }
    if opts.open_loop.is_some() && opts.pipeline > 1 {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            "--open-loop drives its own schedule; drop --pipeline",
        ));
    }
    let clients = (0..opts.connections.max(1))
        .map(|_| Client::connect(addr, IO_TIMEOUT))
        .collect::<std::io::Result<Vec<_>>>()?;
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let parts: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|client| s.spawn(|| worker(client, addr, opts, &next, started)))
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let mut report = LoadReport::default();
    for part in parts {
        let mut part = part.map_err(|_| Error::other("load thread panicked"))?;
        report.ok += part.ok;
        report.failed += part.failed;
        report.cache_hits += part.cache_hits;
        report.retried_busy += part.retried_busy;
        report.gave_up_busy += part.gave_up_busy;
        report.errors += part.errors;
        part.latencies_us.sort_unstable();
        if let Some(p99) = part.percentile_us(99.0) {
            report.conn_p99_us.push(p99);
        }
        report.latencies_us.extend(part.latencies_us);
        for (backend, n) in part.by_backend {
            *report.by_backend.entry(backend).or_insert(0) += n;
        }
    }
    report.wall = started.elapsed();
    report.latencies_us.sort_unstable();
    report.conn_p99_us.sort_unstable();
    Ok(report)
}

/// Appends election index `i`'s request document to `out` — its base
/// ring rotated in place via index arithmetic, no intermediate `Json`
/// tree or clones: at large batch sizes the generator would otherwise
/// spend more time building bodies than the daemon spends answering them.
fn push_entry(out: &mut String, opts: &LoadOptions, i: u64) {
    use std::fmt::Write as _;
    let base = &opts.bases[(i % opts.bases.len() as u64) as usize];
    let labels = &base.labels;
    let n = labels.len();
    let rot = if opts.rotate { (i % n as u64) as usize } else { 0 };
    out.push_str("{\"ring\":[");
    for j in 0..n {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", labels[(rot + j) % n]);
    }
    let _ = write!(out, "],\"algo\":\"{}\",\"k\":{}}}", base.algo.name(), base.k);
}

/// The path and body for election indices `first..first+count`: the
/// classic single `POST /elect` document for one entry, or a
/// `POST /elect/batch` array when batching is on.
fn request_for(opts: &LoadOptions, first: u64, count: u64) -> (&'static str, String) {
    let mut body = String::new();
    if opts.batch <= 1 && count == 1 {
        push_entry(&mut body, opts, first);
        ("/elect", body)
    } else {
        body.push('[');
        for i in first..first + count {
            if i > first {
                body.push(',');
            }
            push_entry(&mut body, opts, i);
        }
        body.push(']');
        ("/elect/batch", body)
    }
}

/// Folds one definitive (non-503) response into the report. Single
/// responses count themselves and their answering backend; a batch 200
/// counts each element by whether it elected (`leader`) or failed spec
/// (`error`), and absorbs the daemon's `x-batch-hits` tally. One latency
/// sample per HTTP exchange either way.
fn account(part: &mut LoadReport, path: &str, resp: &ClientResponse, count: u64, spent: Duration) {
    let us = spent.as_micros().min(u64::MAX as u128) as u64;
    if path == "/elect" {
        match resp.status {
            200 | 422 => {
                part.latencies_us.push(us);
                if resp.status == 200 {
                    part.ok += 1;
                } else {
                    part.failed += 1;
                }
                if resp.header("x-cache") == Some("HIT") {
                    part.cache_hits += 1;
                }
                if let Some(backend) = resp.header("x-backend") {
                    *part.by_backend.entry(backend.to_string()).or_insert(0) += 1;
                }
            }
            _ => part.errors += 1,
        }
        return;
    }
    if resp.status != 200 {
        part.errors += count;
        return;
    }
    // Elements are tallied without a JSON parse (a tree per element
    // would cost more than the daemon spends answering): the daemon
    // returns exactly one element per entry, a successful element
    // contains `"leader":` exactly once (`"leader_label"` does not
    // match), and error documents never do. Byte-level conformance is
    // pinned by the svc tests and E26; the load generator only tallies.
    let body = resp.body_text();
    if !body.starts_with('[') {
        part.errors += count;
        return;
    }
    part.latencies_us.push(us);
    let ok_n = (body.matches("\"leader\":").count() as u64).min(count);
    part.ok += ok_n;
    part.failed += count - ok_n;
    if let Some(hits) = resp.header("x-batch-hits").and_then(|v| v.parse::<u64>().ok()) {
        part.cache_hits += hits;
    }
}

/// One HTTP exchange a connection owes: `count` elections as
/// `path`/`body`, with its retry budgets.
struct Exchange {
    path: &'static str,
    body: String,
    count: u64,
    /// Its place on the open-loop arrival schedule, if paced.
    sched: Option<Instant>,
    /// Where its latency is measured from: `sched`, else its latest send.
    t0: Instant,
    /// 503 answers absorbed so far.
    busy: u32,
    /// Re-dials spent on it so far.
    redials: u32,
}

/// One connection's share of the load: up to `opts.pipeline` exchanges
/// in flight (`<= 1` is lock-step; HTTP/1.1 answers come back in send
/// order, so a queue pairs each answer with its request). A 503 queues
/// its exchange for re-sending after the server's `Retry-After`. A
/// transport error loses the connection and every answer still owed on
/// it: those exchanges are re-sent on a fresh dial, or count as errors
/// once their re-dials are spent.
fn worker(
    client: Client,
    addr: &str,
    opts: &LoadOptions,
    next: &AtomicU64,
    started: Instant,
) -> LoadReport {
    let rate = opts.open_loop.filter(|r| *r > 0.0);
    let window = opts.pipeline.max(1);
    let claim = opts.batch.max(1) as u64;
    let mut client = Some(client);
    let mut part = LoadReport::default();
    let mut sent: VecDeque<Exchange> = VecDeque::new();
    let mut resend: VecDeque<Exchange> = VecDeque::new();
    loop {
        while sent.len() < window {
            let mut ex = match resend.pop_front() {
                Some(ex) => ex,
                None => {
                    let i = next.fetch_add(claim, Ordering::Relaxed);
                    if i >= opts.requests {
                        break;
                    }
                    let count = claim.min(opts.requests - i);
                    let (path, body) = request_for(opts, i, count);
                    // Open loop: request `i` has a fixed place on the
                    // arrival schedule. Wait for it if we are early; if
                    // the server has put us behind schedule, send at once
                    // and let the latency (taken from the *scheduled*
                    // instant) absorb the backlog instead of hiding it.
                    let sched = rate.map(|r| started + Duration::from_secs_f64(i as f64 / r));
                    if let Some(sched) = sched {
                        std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                    }
                    Exchange { path, body, count, sched, t0: started, busy: 0, redials: 0 }
                }
            };
            ex.t0 = ex.sched.unwrap_or_else(Instant::now);
            match transmit(&mut client, addr, &ex) {
                Ok(()) => sent.push_back(ex),
                Err(_) => broken(&mut part, &mut client, sent.drain(..).chain([ex]), &mut resend),
            }
        }
        let Some(mut ex) = sent.pop_front() else {
            return part;
        };
        let answer = client.as_mut().expect("answers are owed on a live connection").recv();
        match answer {
            Ok(resp) if resp.status == 503 && ex.busy < MAX_BUSY_RETRIES => {
                ex.busy += 1;
                part.retried_busy += 1;
                std::thread::sleep(retry_after_wait(resp.header("retry-after")));
                resend.push_back(ex);
            }
            // Retry budget exhausted while the service kept answering
            // an orderly "busy": backpressure, not a failure.
            Ok(resp) if resp.status == 503 => part.gave_up_busy += ex.count,
            Ok(resp) => account(&mut part, ex.path, &resp, ex.count, ex.t0.elapsed()),
            Err(_) => {
                broken(&mut part, &mut client, [ex].into_iter().chain(sent.drain(..)), &mut resend)
            }
        }
    }
}

/// Sends `ex` on the connection, first re-dialing (after
/// [`REDIAL_PAUSE`]) if a transport error dropped it.
fn transmit(client: &mut Option<Client>, addr: &str, ex: &Exchange) -> std::io::Result<()> {
    let c = match client {
        Some(c) => c,
        None => {
            std::thread::sleep(REDIAL_PAUSE);
            client.insert(Client::connect(addr, IO_TIMEOUT)?)
        }
    };
    c.send("POST", ex.path, &[], Some(ex.body.as_bytes()))
}

/// A transport error: drops the connection and queues each exchange it
/// still owed an answer for (in send order) to be re-sent on a fresh
/// dial, unless that exchange has spent its [`MAX_REDIALS`].
fn broken(
    part: &mut LoadReport,
    client: &mut Option<Client>,
    lost: impl Iterator<Item = Exchange>,
    resend: &mut VecDeque<Exchange>,
) {
    *client = None;
    for mut ex in lost {
        if ex.redials < MAX_REDIALS {
            ex.redials += 1;
            resend.push_back(ex);
        } else {
            part.errors += ex.count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{ParseStep, RequestParser, Response, DEFAULT_MAX_BODY};
    use crate::server::{start, SvcConfig};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// The Figure 1 ring as the only base, rotating, lock-step.
    fn figure1(connections: usize, requests: u64) -> LoadOptions {
        let base = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req");
        LoadOptions {
            connections,
            requests,
            bases: vec![base],
            rotate: true,
            batch: 0,
            pipeline: 0,
            open_loop: None,
        }
    }

    #[test]
    fn load_run_completes_and_reports_percentiles() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let report = run_load(&handle.addr.to_string(), &figure1(3, 40)).expect("load");
        assert_eq!(report.ok, 40, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        // Rotation workload: everything after the first computation hits.
        assert!(report.cache_hits >= 30, "{report:?}");
        assert_eq!(report.latencies_us.len(), 40);
        let p50 = report.percentile_us(50.0).expect("p50");
        let p99 = report.percentile_us(99.0).expect("p99");
        assert!(p50 <= p99);
        assert!(report.throughput() > 0.0);
        let pretty = report.pretty();
        assert!(pretty.contains("req/s"), "{pretty}");
        assert!(pretty.contains("p99"), "{pretty}");
        handle.shutdown();
    }

    #[test]
    fn batched_load_counts_every_entry() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let opts = LoadOptions { batch: 4, ..figure1(2, 30) };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 30, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        // Rotation workload through the batch path still shares one
        // canonical cache entry; only the very first computation misses.
        assert!(report.cache_hits >= 20, "{report:?}");
        // One latency sample per HTTP exchange, not per election:
        // 30 elections in batches of <= 4 is at most 30 and at least 8.
        assert!(report.latencies_us.len() < 30, "{report:?}");
        assert!(report.latencies_us.len() >= 8, "{report:?}");
        handle.shutdown();
    }

    #[test]
    fn pipelined_load_matches_lockstep_totals() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let opts = LoadOptions { pipeline: 4, ..figure1(2, 24) };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 24, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.latencies_us.len(), 24);
        handle.shutdown();
    }

    #[test]
    fn pipelined_batches_combine_both_modes() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let opts = LoadOptions { batch: 3, pipeline: 3, ..figure1(1, 20) };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 20, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        handle.shutdown();
    }

    #[test]
    fn open_loop_paces_the_arrival_schedule_and_reports_per_conn_p99() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        // 40 requests at 400/s = at least ~100 ms of schedule; an
        // unpaced closed loop over a warm cache would finish far faster.
        let opts = LoadOptions { open_loop: Some(400.0), ..figure1(2, 40) };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 40, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(
            report.wall >= Duration::from_millis(80),
            "schedule not honored: finished in {:?}",
            report.wall
        );
        assert_eq!(report.conn_p99_us.len(), 2, "{report:?}");
        assert!(report.conn_p99_us[0] <= report.conn_p99_us[1]);
        let pretty = report.pretty();
        assert!(pretty.contains("per-connection p99"), "{pretty}");
        handle.shutdown();
    }

    #[test]
    fn open_loop_with_pipelining_is_refused() {
        let opts = LoadOptions { pipeline: 2, open_loop: Some(100.0), ..figure1(1, 10) };
        let err = run_load("127.0.0.1:1", &opts).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert_eq!(err.to_string(), "--open-loop drives its own schedule; drop --pipeline");
    }

    #[test]
    fn empty_bases_are_rejected() {
        let opts = LoadOptions { bases: Vec::new(), ..figure1(1, 1) };
        let err = run_load("127.0.0.1:1", &opts);
        assert!(err.is_err());
        assert_eq!(err.unwrap_err().kind(), ErrorKind::InvalidInput);
    }

    /// A server that answers three requests and then dies (listener
    /// and connection closed) costs the run only the seven requests it
    /// never answered: each is re-sent on its three re-dials, refused,
    /// and counted in `errors`, and every worker returns its counts.
    #[test]
    fn a_target_that_dies_mid_run_costs_only_its_unanswered_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            drop(listener);
            let mut parser = RequestParser::new(DEFAULT_MAX_BODY);
            let mut chunk = [0u8; 4096];
            let mut answered = 0;
            while answered < 3 {
                match parser.step() {
                    ParseStep::Request(_) => {
                        let ok = Response::json(200, "{\"leader\":0}".into());
                        stream.write_all(&ok.to_bytes(false)).expect("answer");
                        answered += 1;
                    }
                    ParseStep::NeedMore => match stream.read(&mut chunk).expect("read") {
                        0 => return,
                        n => parser.push(&chunk[..n]),
                    },
                    _ => panic!("the generator sent a malformed request"),
                }
            }
        });
        let opts = figure1(1, 10);
        let report = run_load(&addr, &opts).expect("a dying target is counted, not fatal");
        server.join().expect("server");
        assert_eq!(report.ok, 3, "{report:?}");
        assert_eq!(
            report.ok + report.failed + report.gave_up_busy + report.errors,
            opts.requests,
            "{report:?}"
        );
    }

    /// The bytes of a rotating multi-base workload: election `i` is
    /// `bases[i % W]` rotated left by `i % n`, with that base's own algo
    /// and `k`, on the single and the batch path alike.
    #[test]
    fn a_multi_base_workload_sends_each_base_rotated_by_the_election_index() {
        let bases = vec![
            ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req"),
            ElectRequest::new(vec![5, 1, 5, 2, 7], AlgoId::Bk, Some(3)).expect("req"),
            ElectRequest::new(vec![4, 9, 4], AlgoId::OracleN, None).expect("req"),
        ];
        let w = bases.len() as u64;
        let expected = |i: u64, rotate: bool| {
            let base = &bases[(i % w) as usize];
            let mut labels = base.labels.clone();
            if rotate {
                let d = (i % labels.len() as u64) as usize;
                labels.rotate_left(d);
            }
            ElectRequest { labels, ..base.clone() }.to_json()
        };
        for rotate in [true, false] {
            let single = LoadOptions { bases: bases.clone(), rotate, ..figure1(1, 2 * w) };
            for i in 0..2 * w {
                assert_eq!(request_for(&single, i, 1), ("/elect", expected(i, rotate)), "i={i}");
            }
            let batched = LoadOptions { batch: 4, ..single };
            for first in (0..2 * w).step_by(4) {
                let count = 4.min(2 * w - first);
                let entries: Vec<String> =
                    (first..first + count).map(|i| expected(i, rotate)).collect();
                let want = format!("[{}]", entries.join(","));
                assert_eq!(request_for(&batched, first, count), ("/elect/batch", want));
            }
        }
    }

    #[test]
    fn salted_rings_are_distinct_canonical_classes() {
        let rings = salted_rings(4, 16).expect("rings");
        assert_eq!(rings.len(), 4);
        let classes: std::collections::BTreeSet<Vec<u64>> =
            rings.iter().map(|r| r.canonicalized().0.labels).collect();
        assert_eq!(classes.len(), 4);
        assert!(rings.iter().all(|r| r.algo == AlgoId::Ak && r.labels.len() == 16));
        assert!(salted_rings(2, 1).is_err());
    }

    #[test]
    fn retry_after_is_honored_with_a_cap() {
        assert_eq!(retry_after_wait(Some("0")), Duration::from_millis(1));
        assert_eq!(retry_after_wait(Some("1")), RETRY_AFTER_CAP);
        assert_eq!(retry_after_wait(Some("60")), RETRY_AFTER_CAP);
        assert_eq!(retry_after_wait(Some("soon")), Duration::from_millis(10));
        assert_eq!(retry_after_wait(None), Duration::from_millis(10));
    }

    #[test]
    fn gave_up_busy_is_reported_apart_from_errors() {
        let r = LoadReport { ok: 3, gave_up_busy: 2, errors: 1, ..Default::default() };
        let pretty = r.pretty();
        assert!(pretty.contains("gave up busy 2"), "{pretty}");
        assert!(pretty.contains("errors 1"), "{pretty}");
    }

    #[test]
    fn report_math_holds() {
        let mut r = LoadReport {
            ok: 8,
            failed: 2,
            cache_hits: 5,
            latencies_us: vec![10, 20, 30, 40],
            wall: Duration::from_secs(2),
            ..Default::default()
        };
        r.by_backend.insert("a:1".into(), 6);
        r.by_backend.insert("b:2".into(), 4);
        assert!((r.throughput() - 5.0).abs() < 1e-9);
        assert!((r.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(r.percentile_us(50.0), Some(20));
        let pretty = r.pretty();
        assert!(pretty.contains("by backend: a:1=6 b:2=4"), "{pretty}");
        assert!(pretty.contains("50%"), "{pretty}");
    }

    #[test]
    fn percentile_edge_cases() {
        let mut r = LoadReport::default();
        assert_eq!(r.percentile_us(50.0), None);
        r.latencies_us = vec![10, 20, 30, 40];
        assert_eq!(r.percentile_us(50.0), Some(20));
        assert_eq!(r.percentile_us(100.0), Some(40));
        assert_eq!(r.percentile_us(1.0), Some(10));
    }
}
