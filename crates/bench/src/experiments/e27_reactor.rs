//! E27 — the serving core, gated: the epoll reactor must earn its keep
//! against the thread-per-connection core it replaced.
//!
//! Four gates, each pinned to a claim from the reactor work:
//!
//! 1. **Throughput** — on the E19 bench shape (n = 128 ring `i % 11`,
//!    algo `Ak`, 100%-rotation workload, 4 workers, warm cache) with
//!    thousands of concurrent keep-alive connections held by one
//!    multiplexing client thread, the reactor must serve **≥ 2×** the
//!    req/s the thread-per-connection core served on the same shape at
//!    4 096 connections (`THREADS_BASELINE_REQ_S`, the last
//!    measurement before that core was deleted). The workload is cache-hit
//!    dominated, so this measures the serving core itself — parse,
//!    route, respond — not election CPU; at this connection count a
//!    threaded core pays one OS thread (stack, scheduler slot, context
//!    switches) per socket, which is precisely the ceiling the reactor
//!    removes.
//! 2. **Connection scale** — one daemon holds **≥ 5k** concurrent
//!    keep-alive connections, every one of them answering two rounds of
//!    elections, with bounded memory (measured as process RSS delta per
//!    connection; a thread-per-connection design pays a stack per
//!    socket, a reactor pays a parser buffer).
//! 3. **Byte identity** — the same request sequence (valid elections,
//!    validation failures, a batch) served by a daemon and routed by a
//!    router over three backends must answer every exchange with the
//!    status and body the in-process API computes
//!    (`response_json(run_election)`, `error_json`): **0 divergences**.
//! 4. **Hedges without threads** — at the router a hedge is an extra
//!    in-flight socket plus a timer. Against two tar-pit backends
//!    (accept, never answer) the `hre_hedges_inflight` gauge must be
//!    observably **1** mid-race and reconcile to **0** after the
//!    deadline, while the process thread count stays flat — no thread
//!    was spawned to carry the hedge. A second scenario (tar-pit
//!    primary, healthy failover) proves hedges still *win* races.
//!
//! The machine-readable result is written to `BENCH_e27.json` at the
//! repo root by the `exp_reactor` binary.

use hre_cluster::{start as start_router, ClusterConfig};
use hre_svc::{start, Client, ElectRequest, SvcConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything the run produced: the human report, the machine-readable
/// JSON (the contents of `BENCH_e27.json`), and the gate verdict.
pub struct E27Outcome {
    /// Rendered report (sections + gate lines).
    pub report: String,
    /// JSON document for `BENCH_e27.json`.
    pub json: String,
    /// Per-gate verdicts: throughput, scale, byte identity, hedges.
    pub gates: [bool; 4],
    /// Every gate passed.
    pub ok: bool,
}

/// The E19 bench shape: n = 128, heavy homonymy, asymmetric, Ak.
fn rotation_ring() -> Vec<u64> {
    (0..128u64).map(|i| i % 11).collect()
}

fn body_for(labels: &[u64]) -> String {
    let nums: Vec<String> = labels.iter().map(u64::to_string).collect();
    format!(r#"{{"ring":[{}],"algo":"ak"}}"#, nums.join(","))
}

/// Current thread count of this process (`/proc/self/status`), or 0
/// where procfs is unavailable (the thread-flatness check is then
/// vacuous, but the gauge reconciliation still gates).
fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// Current RSS of this process in bytes, or 0 without procfs.
fn rss_bytes() -> u64 {
    proc_status_field("VmRSS:").map(|kb| kb * 1024).unwrap_or(0)
}

fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

// ---------- gate 1: throughput ----------

/// Req/s of the thread-per-connection core on gate 1's full shape (4 096
/// connections, 8 rounds), from the last `BENCH_e27.json` that measured
/// it before the core was deleted. Gate 1 holds the reactor to twice
/// this.
const THREADS_BASELINE_REQ_S: f64 = 4692.3;

struct ThroughputSide {
    req_s: f64,
    p99_us: u64,
}

/// One run of the E19 rotation workload against a fresh daemon, from a
/// **multiplexing** load client: one client
/// thread holds every keep-alive connection (a thread-per-connection
/// client would cap the connection count at the client, hiding exactly
/// the server-side ceiling this gate measures). Each round writes one
/// request — a distinct rotation of the E19 ring — on every socket,
/// then drains one response per socket, so `connections` requests are
/// in flight at once. The cache is warmed first and an unmeasured warm
/// round absorbs connection setup, so the clock covers steady-state
/// serving only.
fn measure(connections: usize, rounds: usize) -> ThroughputSide {
    let handle = start(SvcConfig {
        workers: 4,
        cache_cap: 1024,
        queue_cap: 4096, // keep 503 backpressure out of a throughput measurement
        deadline: Duration::from_secs(60),
        ..SvcConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr;
    // All 128 rotations of the ring, pre-serialized: the 100%-rotation
    // workload — every request distinct on the wire, one canonical
    // cache entry — at near-zero client CPU per request.
    let requests: Vec<Vec<u8>> = (0..128)
        .map(|d| {
            let mut labels = rotation_ring();
            labels.rotate_left(d);
            let body = body_for(&labels);
            format!(
                "POST /elect HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    // Warm the canonical-rotation cache so every request is a hit.
    let mut warmer =
        Client::connect(&addr.to_string(), Duration::from_secs(30)).expect("warm connect");
    let warm = warmer.post_json("/elect", &body_for(&rotation_ring())).expect("warm");
    assert_eq!(warm.status, 200, "{}", warm.body_text());

    let mut conns: Vec<TcpStream> = Vec::with_capacity(connections);
    for _ in 0..connections {
        let s = TcpStream::connect(addr).expect("connect within the fd limit");
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.set_nodelay(true).unwrap();
        conns.push(s);
    }

    let mut served = 0u64;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(connections * rounds);
    let mut sent_at: Vec<std::time::Instant> = Vec::with_capacity(connections);
    let mut wall = Duration::ZERO;
    for round in 0..=rounds {
        let t0 = std::time::Instant::now();
        sent_at.clear();
        for (i, s) in conns.iter_mut().enumerate() {
            s.write_all(&requests[(round * connections + i) % 128]).expect("write");
            sent_at.push(std::time::Instant::now());
        }
        for (i, s) in conns.iter_mut().enumerate() {
            assert!(read_one_response(s), "conn {i} of {connections}, round {round}");
            if round > 0 {
                served += 1;
                latencies_us.push(sent_at[i].elapsed().as_micros() as u64);
            }
        }
        if round > 0 {
            wall += t0.elapsed(); // round 0 is the unmeasured warm round
        }
    }
    handle.shutdown();
    latencies_us.sort_unstable();
    let p99 = latencies_us[((latencies_us.len() - 1) * 99) / 100];
    ThroughputSide { req_s: served as f64 / wall.as_secs_f64(), p99_us: p99 }
}

// ---------- gate 2: connection scale ----------

struct ScaleResult {
    connections: usize,
    answered: u64,
    rss_before: u64,
    rss_after: u64,
    per_conn_bytes: f64,
}

/// Opens `n` keep-alive connections to one daemon, serves a round
/// of elections on every connection, then a second round on the same
/// (still-open) sockets. Single-threaded client: each socket is a plain
/// blocking stream, round-tripped in turn.
fn scale_run(n: usize) -> ScaleResult {
    let handle = start(SvcConfig { workers: 4, cache_cap: 64, ..SvcConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr;
    let body = body_for(&[1, 3, 1, 3, 2, 2, 1, 2]);
    let request = format!(
        "POST /elect HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );

    let rss_before = rss_bytes();
    let mut conns: Vec<TcpStream> = Vec::with_capacity(n);
    for _ in 0..n {
        let s = TcpStream::connect(addr).expect("connect within the fd limit");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.set_nodelay(true).unwrap();
        conns.push(s);
    }

    let mut answered = 0u64;
    for _round in 0..2 {
        for s in &mut conns {
            s.write_all(request.as_bytes()).expect("write");
            if read_one_response(s) {
                answered += 1;
            }
        }
    }
    let rss_after = rss_bytes();
    handle.shutdown();
    let delta = rss_after.saturating_sub(rss_before);
    ScaleResult {
        connections: n,
        answered,
        rss_before,
        rss_after,
        per_conn_bytes: delta as f64 / n as f64,
    }
}

/// Reads exactly one HTTP/1.1 response (status 200, content-length
/// framing) off a keep-alive socket; the socket stays usable.
fn read_one_response(s: &mut TcpStream) -> bool {
    let mut r = BufReader::new(s);
    let mut line = String::new();
    if r.read_line(&mut line).is_err() || !line.starts_with("HTTP/1.1 200") {
        return false;
    }
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if r.read_line(&mut h).is_err() || h == "\r\n" || h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).is_ok()
}

// ---------- gate 3: byte identity against the in-process API ----------

/// The smoke sequence the daemon and the router must both answer with
/// the in-process bytes.
fn smoke_requests() -> Vec<(&'static str, String)> {
    vec![
        ("/elect", body_for(&[1, 3, 1, 3, 2, 2, 1, 2])),
        ("/elect", body_for(&[2, 1, 3, 1, 3, 2, 2, 1])), // rotation
        ("/elect", r#"{"ring":[4,1,3,2,7,5],"algo":"peterson"}"#.into()),
        ("/elect", r#"{"ring":[1]}"#.into()), // 400, keep-alive
        ("/elect", "not json".into()),        // 400, keep-alive
        (
            "/elect/batch",
            r#"[{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"},{"ring":[1]},{"ring":[5,1,5,2],"algo":"cr"}]"#
                .into(),
        ),
        ("/elect", body_for(&[9, 8, 9, 8, 8, 7])),
    ]
}

/// The status and body the in-process API gives one smoke request.
fn in_process(path: &str, body: &str) -> (u16, Vec<u8>) {
    let elect = |req: &ElectRequest| match hre_svc::run_election(req) {
        Ok(out) => (200, hre_svc::response_json(req, &out)),
        Err(why) => (422, hre_svc::error_json(&why)),
    };
    let (status, text) = if path == "/elect/batch" {
        let docs: Vec<String> = hre_svc::batch_from_json(body.as_bytes())
            .expect("the smoke batch is well-formed")
            .iter()
            .map(|entry| match entry {
                Ok(req) => elect(req).1,
                Err(why) => hre_svc::error_json(why),
            })
            .collect();
        (200, hre_svc::batch_response_body(&docs))
    } else {
        match ElectRequest::from_json(body.as_bytes()) {
            Ok(req) => elect(&req),
            Err(why) => (400, hre_svc::error_json(&why)),
        }
    };
    (status, text.into_bytes())
}

/// Sends the smoke sequence over one keep-alive connection to `addr`;
/// returns (exchanges, diverged from the in-process bytes).
fn divergences(addr: &str) -> (usize, usize) {
    let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
    let reqs = smoke_requests();
    let diverged = reqs
        .iter()
        .filter(|(path, body)| {
            let resp = c.post_json(path, body).expect("served");
            (resp.status, resp.body) != in_process(path, body)
        })
        .count();
    (reqs.len(), diverged)
}

/// The smoke sequence against one daemon.
fn svc_divergences() -> (usize, usize) {
    let handle =
        start(SvcConfig { workers: 2, max_body: 1 << 16, ..SvcConfig::default() }).expect("daemon");
    let out = divergences(&handle.addr.to_string());
    handle.shutdown();
    out
}

/// The smoke sequence through a router over three backends.
fn cluster_divergences() -> (usize, usize) {
    let backends: Vec<_> = (0..3).map(|_| start(SvcConfig::default()).expect("backend")).collect();
    let router = start_router(ClusterConfig {
        backends: backends.iter().map(|b| b.addr.to_string()).collect(),
        hedge_min: Duration::from_secs(10), // deterministic placement
        ..Default::default()
    })
    .expect("router");
    let out = divergences(&router.addr.to_string());
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    out
}

// ---------- gate 4: hedges as timers ----------

/// A backend that accepts connections, reads, and never answers — the
/// deterministic stall that holds a hedge observably in flight.
struct TarPit {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TarPit {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("tar-pit bind");
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            listener.set_nonblocking(true).unwrap();
            let mut held: Vec<TcpStream> = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((s, _)) => held.push(s), // hold it open, say nothing
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        TarPit { addr, stop, handle: Some(handle) }
    }
}

impl Drop for TarPit {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct HedgeResult {
    /// Max `hre_hedges_inflight` observed while the race was stalled.
    max_inflight: i64,
    /// The gauge after everything resolved.
    settled: i64,
    /// Process thread-count delta between "request in flight, no hedge
    /// yet" and "hedge in flight" (0 on procfs-less hosts too).
    thread_delta: i64,
    /// Hedge wins from the tar-pit-primary / healthy-failover scenario.
    hedge_wins: u64,
    /// Hedges fired across both scenarios.
    hedges: u64,
}

fn gauge(metrics: &str, name: &str) -> i64 {
    metrics
        .lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(-1)
}

fn hedge_run() -> HedgeResult {
    // Scenario A: both backends are tar pits. The hedge fires at the
    // threshold and then sits in flight — as reactor state, not a
    // thread — until the deadline 504s the request.
    let (pit_a, pit_b) = (TarPit::start(), TarPit::start());
    let router = start_router(ClusterConfig {
        backends: vec![pit_a.addr.clone(), pit_b.addr.clone()],
        hedge_min: Duration::from_millis(50),
        timeout: Duration::from_secs(5),
        deadline: Duration::from_secs(2),
        health_interval: Duration::from_secs(30), // prober out of the way
        failure_threshold: 1000,
        ..Default::default()
    })
    .expect("router");
    let addr = router.addr.to_string();
    let body = body_for(&[1, 3, 1, 3, 2, 2, 1, 2]);
    let requester = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
            c.post_json("/elect", &body).expect("answered (504)").status
        })
    };
    std::thread::sleep(Duration::from_millis(20)); // request launched, hedge not yet
    let threads_before = thread_count() as i64;
    let mut probe = Client::connect(&addr, Duration::from_secs(10)).expect("metrics connection");
    let mut max_inflight = -1i64;
    let mut thread_delta = 0i64;
    for _ in 0..60 {
        let m = probe.get("/metrics").expect("metrics").body_text();
        let g = gauge(&m, "hre_hedges_inflight");
        if g > max_inflight {
            max_inflight = g;
            if g > 0 {
                thread_delta = thread_count() as i64 - threads_before;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(requester.join().expect("requester"), 504, "tar pits cannot answer");
    let mut settled =
        gauge(&probe.get("/metrics").expect("metrics").body_text(), "hre_hedges_inflight");
    for _ in 0..100 {
        if settled == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        settled =
            gauge(&probe.get("/metrics").expect("metrics").body_text(), "hre_hedges_inflight");
    }
    let summary_a = router.shutdown();
    let hedges_a: u64 = summary_a.backends.iter().map(|b| b.hedges).sum();
    drop(pit_a);
    drop(pit_b);

    // Scenario B: tar-pit primary, healthy failover — the hedge must
    // actually win the race and return 200.
    let pit = TarPit::start();
    let healthy = start(SvcConfig::default()).expect("healthy backend");
    let router = start_router(ClusterConfig {
        backends: vec![pit.addr.clone(), healthy.addr.to_string()],
        hedge_min: Duration::from_millis(30),
        timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(10),
        health_interval: Duration::from_secs(30),
        failure_threshold: 1000,
        ..Default::default()
    })
    .expect("router");
    // A ring homed on the tar pit, so the hedge (not placement) wins.
    let labels = (0..64u64)
        .map(|salt| {
            let mut l = vec![1u64, 3, 1, 3, 2, 2, 1, 2];
            l[0] = salt + 1;
            l
        })
        .find(|l| router.primary_backend(l) == pit.addr)
        .expect("some ring homes on the tar pit");
    let mut c =
        Client::connect(&router.addr.to_string(), Duration::from_secs(30)).expect("connect");
    let resp = c.post_json("/elect", &body_for(&labels)).expect("hedged");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let summary_b = router.shutdown();
    let hedges_b: u64 = summary_b.backends.iter().map(|b| b.hedges).sum();
    healthy.shutdown();

    HedgeResult {
        max_inflight,
        settled,
        thread_delta,
        hedge_wins: summary_b.hedge_wins,
        hedges: hedges_a + hedges_b,
    }
}

// ---------- the experiment ----------

/// Runs the experiment. `quick` trims sizes for CI.
pub fn run_e27(quick: bool) -> E27Outcome {
    let mut out = String::new();
    let mut ok = true;

    // The daemons run on Linux only; elsewhere the gates cannot run.
    if !cfg!(target_os = "linux") {
        let json = "{\n  \"experiment\": \"E27\", \"skipped\": \"non-linux host\", \
                    \"ok\": false\n}\n"
            .to_string();
        return E27Outcome {
            report: "SKIPPED: the daemons require linux\n".into(),
            json,
            gates: [false; 4],
            ok: false,
        };
    }

    // Gate 1 — throughput.
    let (connections, rounds) = if quick { (1_536, 4) } else { (4_096, 8) };
    let requests = connections * rounds;
    out.push_str(&format!(
        "### Gate 1 — throughput: E19 rotation workload, {connections} keep-alive \
         connections held by one multiplexing client, {requests} requests\n\n"
    ));
    let reactor = measure(connections, rounds);
    let speedup = reactor.req_s / THREADS_BASELINE_REQ_S;
    let gate1 = speedup >= 2.0;
    ok &= gate1;
    out.push_str(&format!(
        "  reactor: {:>8.0} req/s (p99 {} µs)\n  thread-per-connection baseline at 4096 \
         connections: {THREADS_BASELINE_REQ_S:.0} req/s (recorded)\n\
         \n  reactor/baseline = {speedup:.2}x (gate: >= 2x) — {}\n",
        reactor.req_s,
        reactor.p99_us,
        if gate1 { "PASS" } else { "FAIL" }
    ));

    // Gate 2 — connection scale.
    let conns = if quick { 600 } else { 5_000 };
    out.push_str(&format!(
        "\n### Gate 2 — {conns} concurrent keep-alive connections, one daemon\n\n"
    ));
    let scale = scale_run(conns);
    let expected = (conns as u64) * 2;
    // "Bounded memory": well under any thread-stack regime. 64 KiB per
    // connection is ~8x the parser+response buffers, and ~100x under a
    // default 8 MiB thread stack.
    let per_conn_ok = scale.per_conn_bytes < 64.0 * 1024.0 || scale.rss_before == 0;
    let gate2 = scale.answered == expected && per_conn_ok;
    ok &= gate2;
    out.push_str(&format!(
        "  answered {}/{} elections over two rounds on the same sockets\n  \
         RSS {} -> {} KiB ({:.1} KiB per connection; gate: < 64 KiB) — {}\n",
        scale.answered,
        expected,
        scale.rss_before / 1024,
        scale.rss_after / 1024,
        scale.per_conn_bytes / 1024.0,
        if gate2 { "PASS" } else { "FAIL" }
    ));

    // Gate 3 — byte identity.
    out.push_str(
        "\n### Gate 3 — served and routed bytes vs the in-process API (single + batch)\n\n",
    );
    let (svc_total, svc_div) = svc_divergences();
    let (cl_total, cl_div) = cluster_divergences();
    let gate3 = svc_div == 0 && cl_div == 0;
    ok &= gate3;
    out.push_str(&format!(
        "  svc: {svc_div} of {svc_total} exchanges diverged; cluster: {cl_div} of {cl_total} \
         (gate: 0 divergences) — {}\n",
        if gate3 { "PASS" } else { "FAIL" }
    ));

    // Gate 4 — hedges as timers.
    out.push_str("\n### Gate 4 — hedges fire without consuming a thread\n\n");
    let hedge = hedge_run();
    let gate4 = hedge.max_inflight >= 1
        && hedge.settled == 0
        && hedge.thread_delta == 0
        && hedge.hedges >= 2
        && hedge.hedge_wins >= 1;
    ok &= gate4;
    out.push_str(&format!(
        "  tar-pit race: hre_hedges_inflight peaked at {} (gate: >= 1), settled at {} \
         (gate: 0), thread delta while hedged {} (gate: 0)\n  \
         healthy-failover race: {} hedge(s) fired across scenarios, {} hedge win(s) \
         (gate: >= 1) — {}\n",
        hedge.max_inflight,
        hedge.settled,
        hedge.thread_delta,
        hedge.hedges,
        hedge.hedge_wins,
        if gate4 { "PASS" } else { "FAIL" }
    ));

    out.push_str(&format!("\noverall: {}\n", if ok { "PASS" } else { "FAIL" }));

    let json = format!(
        "{{\n  \"experiment\": \"E27\",\n  \"quick\": {quick},\n  \
         \"throughput\": {{\"connections\": {connections}, \"requests\": {requests}, \
         \"baseline_threads_req_s\": {THREADS_BASELINE_REQ_S:.1}, \"epoll_req_s\": {:.1}, \
         \"speedup\": {speedup:.3}, \"epoll_p99_us\": {}, \"pass\": {gate1}}},\n  \
         \"connection_scale\": {{\"connections\": {}, \"answered\": {}, \
         \"rss_before_bytes\": {}, \"rss_after_bytes\": {}, \"per_conn_bytes\": {:.1}, \
         \"pass\": {gate2}}},\n  \
         \"byte_identity\": {{\"svc_exchanges\": {svc_total}, \"svc_divergences\": {svc_div}, \
         \"cluster_exchanges\": {cl_total}, \"cluster_divergences\": {cl_div}, \
         \"pass\": {gate3}}},\n  \
         \"hedges\": {{\"max_inflight\": {}, \"settled\": {}, \"thread_delta\": {}, \
         \"fired\": {}, \"wins\": {}, \"pass\": {gate4}}},\n  \"ok\": {ok}\n}}\n",
        reactor.req_s,
        reactor.p99_us,
        scale.connections,
        scale.answered,
        scale.rss_before,
        scale.rss_after,
        scale.per_conn_bytes,
        hedge.max_inflight,
        hedge.settled,
        hedge.thread_delta,
        hedge.hedges,
        hedge.hedge_wins,
    );
    E27Outcome { report: out, json, gates: [gate1, gate2, gate3, gate4], ok }
}

/// Registry entry point: the full (non-quick) report.
pub fn report() -> String {
    run_e27(false).report
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn quick_mode_passes_all_gates() {
        let o = super::run_e27(true);
        // Gates 2–4 are functional and must hold in any build. Gate 1
        // compares against a baseline recorded in an optimized build,
        // and an unoptimized build inflates per-request CPU, so it gates
        // only optimized builds (the `exp_reactor` release binary is the
        // acceptance gate either way).
        assert!(o.gates[1] && o.gates[2] && o.gates[3], "{}", o.report);
        if !cfg!(debug_assertions) {
            assert!(o.ok, "{}", o.report);
        }
        assert!(o.json.contains("\"experiment\": \"E27\""));
    }
}
