//! End-to-end integration: a real daemon on an ephemeral port, hit by
//! concurrent clients with a mixed Ak/Bk workload over rotated rings.
//! Verifies (1) every served response agrees with an independent
//! `hre_sim` run, (2) cache hits return the same bytes as misses, and
//! (3) the `/metrics` counters reconcile exactly with what the clients
//! observed.

use hre_core::{Ak, Bk};
use hre_ring::RingLabeling;
use hre_sim::{run, RoundRobinSched, RunOptions};
use hre_svc::{start, AlgoId, Client, ElectRequest, Json, SvcConfig};
use std::time::Duration;

/// One client's tally of what it saw.
#[derive(Default)]
struct Seen {
    ok: u64,
    hits: u64,
    misses: u64,
}

/// The workload: every rotation of two rings, for both algorithms.
fn workload() -> Vec<ElectRequest> {
    let rings: [&[u64]; 2] = [&[1, 3, 1, 3, 2, 2, 1, 2], &[2, 1, 2, 2, 1, 1, 2, 1, 1, 2]];
    let mut reqs = Vec::new();
    for base in rings {
        for d in 0..base.len() {
            let mut labels = base.to_vec();
            labels.rotate_left(d);
            for algo in [AlgoId::Ak, AlgoId::Bk] {
                reqs.push(ElectRequest::new(labels.clone(), algo, None).expect("valid"));
            }
        }
    }
    reqs
}

/// Independent ground truth for a request, straight from the simulator.
fn sim_truth(req: &ElectRequest) -> (usize, u64) {
    let ring = RingLabeling::from_raw(&req.labels);
    let mut sched = RoundRobinSched::default();
    let rep = match req.algo {
        AlgoId::Ak => {
            let r = run(&Ak::new(req.k), &ring, &mut sched, RunOptions::default());
            (r.clean(), r.leader, r.metrics.messages)
        }
        AlgoId::Bk => {
            let r = run(&Bk::new(req.k), &ring, &mut sched, RunOptions::default());
            (r.clean(), r.leader, r.metrics.messages)
        }
        _ => unreachable!("workload is Ak/Bk only"),
    };
    assert!(rep.0, "simulator run must be clean");
    (rep.1.expect("leader"), rep.2)
}

/// Pulls a counter value out of the Prometheus text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
}

#[test]
fn concurrent_mixed_workload_agrees_with_sim_and_metrics_reconcile() {
    let handle = start(SvcConfig {
        workers: 3,
        cache_cap: 64,
        deadline: Duration::from_secs(30),
        ..SvcConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr.to_string();

    let reqs = workload(); // 2 rings × 8/10 rotations × 2 algos = 72 requests
    let total = reqs.len() as u64;

    // Three clients split the workload round-robin, concurrently.
    let threads: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let reqs: Vec<ElectRequest> = reqs.iter().skip(c).step_by(3).cloned().collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
                let mut seen = Seen::default();
                for req in &reqs {
                    let resp = client.post_json("/elect", &req.to_json()).expect("response");
                    assert_eq!(resp.status, 200, "{}", resp.body_text());
                    seen.ok += 1;
                    match resp.header("x-cache") {
                        Some("HIT") => seen.hits += 1,
                        Some("MISS") => seen.misses += 1,
                        other => panic!("missing x-cache header: {other:?}"),
                    }
                    let doc = Json::parse(&resp.body_text()).expect("valid json");
                    let leader = doc.get("leader").and_then(Json::as_usize).expect("leader field");
                    let messages =
                        doc.get("messages").and_then(Json::as_u64).expect("messages field");
                    let (want_leader, want_messages) = sim_truth(req);
                    assert_eq!(leader, want_leader, "{req:?}");
                    assert_eq!(messages, want_messages, "{req:?}");
                }
                seen
            })
        })
        .collect();

    let mut seen = Seen::default();
    for t in threads {
        let part = t.join().expect("client thread");
        seen.ok += part.ok;
        seen.hits += part.hits;
        seen.misses += part.misses;
    }
    assert_eq!(seen.ok, total);
    assert_eq!(seen.hits + seen.misses, total);
    // 2 rings × 2 algos = 4 canonical elections; with 3 concurrent
    // clients a canonical key may be computed more than once before its
    // first insert lands, but never more than once per client.
    assert!((4..=12).contains(&seen.misses), "misses = {}", seen.misses);

    // The daemon's own counters must reconcile with the client tallies.
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    let resp = client.get("/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    let text = resp.body_text();
    assert_eq!(metric(&text, "hre_svc_requests_elect_ok_total"), total);
    assert_eq!(metric(&text, "hre_svc_cache_hits_total"), seen.hits);
    assert_eq!(metric(&text, "hre_svc_cache_misses_total"), seen.misses);
    assert_eq!(metric(&text, "hre_svc_requests_elect_failed_total"), 0);
    assert_eq!(metric(&text, "hre_svc_requests_rejected_busy_total"), 0);
    assert_eq!(metric(&text, "hre_svc_elect_latency_seconds_count"), total);
    assert_eq!(metric(&text, "hre_svc_requests_metrics_total"), 1);
    assert!(metric(&text, "hre_svc_connections_total") >= 4);

    // healthz still fine under/after load, and the drain is clean.
    let resp = client.get("/healthz").expect("healthz");
    assert_eq!(resp.status, 200);
    let summary = handle.shutdown();
    assert_eq!(summary.elect_ok, total);
    assert_eq!(summary.cache.hits, seen.hits);
    assert_eq!(summary.latency.count, total);
}

/// SIGTERM-under-load: flipping the shutdown flag (the signal path)
/// while clients are mid-flight must drain, not drop — every request a
/// client managed to send is either fully answered (200/503/504) or the
/// connection closes cleanly *after* the flag flipped, never before,
/// and the daemon's final counters reconcile exactly with what the
/// clients observed.
#[test]
fn drain_under_load_completes_or_cleanly_rejects_every_job() {
    use std::sync::atomic::Ordering;

    // Tiny pool + queue and no cache: real elections pile up, so at the
    // moment of the flip there are queued jobs and blocked clients.
    let handle = start(SvcConfig {
        workers: 2,
        queue_cap: 4,
        cache_cap: 0,
        deadline: Duration::from_secs(10),
        ..SvcConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr.to_string();
    let flag = handle.shutdown_flag();

    #[derive(Default)]
    struct Tally {
        ok: u64,
        ok_after_flip: u64,
        busy_503: u64,
        drain_503: u64,
        expired_504: u64,
        disconnects: u64,
    }

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let flag = std::sync::Arc::clone(&flag);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
                let mut tally = Tally::default();
                for i in 0..200u64 {
                    // Distinct rings: slow enough to queue, never cached.
                    let labels: Vec<String> =
                        (0..96u64).map(|j| ((j + c * 211 + i * 13) % 11).to_string()).collect();
                    let body = format!(r#"{{"ring":[{}],"algo":"ak"}}"#, labels.join(","));
                    match client.post_json("/elect", &body) {
                        Ok(resp) => {
                            let flipped = flag.load(Ordering::SeqCst);
                            match resp.status {
                                200 => {
                                    tally.ok += 1;
                                    if flipped {
                                        tally.ok_after_flip += 1;
                                    }
                                }
                                503 if resp.body_text().contains("shutting down") => {
                                    tally.drain_503 += 1
                                }
                                503 => tally.busy_503 += 1,
                                504 => tally.expired_504 += 1,
                                other => {
                                    panic!("unexpected status {other}: {}", resp.body_text())
                                }
                            }
                        }
                        Err(_) => {
                            // The server only hangs up on a live client
                            // while draining — never under normal load.
                            assert!(
                                flag.load(Ordering::SeqCst),
                                "client {c} disconnected before the shutdown flag flipped"
                            );
                            tally.disconnects += 1;
                            break;
                        }
                    }
                }
                tally
            })
        })
        .collect();

    // Let the queue fill and clients block, then "SIGTERM".
    std::thread::sleep(Duration::from_millis(300));
    flag.store(true, Ordering::SeqCst);
    let summary = handle.shutdown(); // joins acceptor, conns, workers

    let mut total = Tally::default();
    for t in clients {
        let part = t.join().expect("client thread");
        total.ok += part.ok;
        total.ok_after_flip += part.ok_after_flip;
        total.busy_503 += part.busy_503;
        total.drain_503 += part.drain_503;
        total.expired_504 += part.expired_504;
        total.disconnects += part.disconnects;
    }

    // The load was real, and in-flight work survived the flip.
    assert!(total.ok >= 3, "too little load to exercise the drain: {} oks", total.ok);
    assert!(
        total.ok_after_flip + total.drain_503 + total.disconnects >= 1,
        "the flip was never observed mid-flight"
    );
    // Exact reconciliation: the daemon answered precisely what the
    // clients saw, classified the same way — nothing vanished in the
    // drain, nothing was double-counted.
    assert_eq!(summary.elect_ok, total.ok, "{summary}");
    assert_eq!(summary.rejected_busy, total.busy_503, "{summary}");
    assert_eq!(summary.deadline_expired, total.expired_504, "{summary}");
    assert_eq!(summary.elect_failed, 0, "{summary}");
}

/// The served-bytes pin: one keep-alive connection carries valid
/// elections (a miss, a rotation hit, other algorithms), validation
/// failures, an over-cap 413 that must keep the connection alive, and a
/// batch. Every status and body must equal what the in-process API
/// computes for the same request.
#[test]
fn one_keepalive_connection_serves_the_in_process_bytes() {
    let handle =
        start(SvcConfig { workers: 2, cache_cap: 64, max_body: 4096, ..SvcConfig::default() })
            .expect("start daemon");
    let mut client =
        Client::connect(&handle.addr.to_string(), Duration::from_secs(30)).expect("connect");
    let big = format!(r#"{{"ring":[{}],"algo":"ak"}}"#, vec!["1"; 4096].join(","));
    let reqs: Vec<(&str, String)> = vec![
        ("/elect", r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#.into()),
        ("/elect", r#"{"ring":[2,1,3,1,3,2,2,1],"algo":"ak"}"#.into()), // rotation hit
        ("/elect", r#"{"ring":[1,2,2],"algo":"bk","k":2}"#.into()),
        ("/elect", r#"{"ring":[1]}"#.into()), // 400, keep-alive
        ("/elect", "not json at all".into()), // 400, keep-alive
        ("/elect", big),                      // 413, keep-alive
        ("/elect/batch", r#"[{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"},{"ring":[1]}]"#.into()),
        ("/elect", r#"{"ring":[4,1,3,2,7,5],"algo":"peterson"}"#.into()),
    ];
    for (i, (path, body)) in reqs.iter().enumerate() {
        let resp = client.post_json(path, body).expect("served on the same connection");
        assert_eq!((resp.status, resp.body_text()), in_process(path, body, 4096), "request {i}");
    }
    let healthz = client.get("/healthz").expect("healthz");
    assert_eq!((healthz.status, healthz.body_text()), (200, "ok\n".to_string()));
    handle.shutdown();
}

/// The status and body the in-process API gives one request to a
/// daemon whose body cap is `max_body`.
fn in_process(path: &str, body: &str, max_body: usize) -> (u16, String) {
    if body.len() > max_body {
        let why = format!("request body of {} bytes exceeds the {max_body} byte limit", body.len());
        return (413, hre_svc::error_json(&why));
    }
    let elect = |req: &ElectRequest| match hre_svc::run_election(req) {
        Ok(out) => (200, hre_svc::response_json(req, &out)),
        Err(why) => (422, hre_svc::error_json(&why)),
    };
    if path == "/elect/batch" {
        let docs: Vec<String> = hre_svc::batch_from_json(body.as_bytes())
            .expect("a well-formed batch")
            .iter()
            .map(|entry| match entry {
                Ok(req) => elect(req).1,
                Err(why) => hre_svc::error_json(why),
            })
            .collect();
        return (200, hre_svc::batch_response_body(&docs));
    }
    match ElectRequest::from_json(body.as_bytes()) {
        Ok(req) => elect(&req),
        Err(why) => (400, hre_svc::error_json(&why)),
    }
}

#[test]
fn responses_are_bytewise_stable_across_cache_hit_and_miss() {
    let handle = start(SvcConfig::default()).expect("start daemon");
    let mut client =
        Client::connect(&handle.addr.to_string(), Duration::from_secs(30)).expect("connect");
    let req = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("valid");
    let body = req.to_json();
    let first = client.post_json("/elect", &body).expect("miss");
    let second = client.post_json("/elect", &body).expect("hit");
    assert_eq!(first.header("x-cache"), Some("MISS"));
    assert_eq!(second.header("x-cache"), Some("HIT"));
    assert_eq!(first.body, second.body, "hit must replay the exact bytes");
    handle.shutdown();
}

/// Batch equivalence with **exact** metrics reconciliation: the same
/// mixed workload — valid entries across algorithms, an invalid entry,
/// a spec failure, rotation aliases — served to one daemon as singles
/// and to a second, identically configured daemon as one batch must
/// produce (1) byte-identical response documents element for element,
/// and (2) identical per-entry counters on `/metrics` (elect ok/failed,
/// bad requests, per-algorithm election runs, latency samples), with
/// only the request-level counters differing in the documented way
/// (N single requests vs 1 batch request carrying N entries).
#[test]
fn batch_equals_singles_bytewise_and_in_the_metrics() {
    let entries: Vec<String> = vec![
        r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#.into(),
        r#"{"ring":[2,1,3,1,3,2,2,1],"algo":"ak"}"#.into(), // rotation alias of the above
        r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"bk","k":2}"#.into(),
        r#"{"ring":[1]}"#.into(),                   // invalid: n < 2
        r#"{"ring":[5,1,5,2],"algo":"cr"}"#.into(), // spec failure: CR on homonyms
        r#"{"ring":[4,1,3,2,7,5],"algo":"peterson"}"#.into(),
        r#"{"ring":[1,2,2],"algo":"ak","k":2}"#.into(),
    ];
    let n = entries.len() as u64;
    let cfg = SvcConfig { workers: 2, cache_cap: 64, ..SvcConfig::default() };

    // Daemon A: the workload as N single requests.
    let a = start(cfg.clone()).expect("start daemon A");
    let mut client = Client::connect(&a.addr.to_string(), Duration::from_secs(30)).expect("A");
    let singles: Vec<String> = entries
        .iter()
        .map(|e| client.post_json("/elect", e).expect("single").body_text())
        .collect();
    let a_metrics = client.get("/metrics").expect("metrics A").body_text();

    // Daemon B: the same workload as one batch.
    let b = start(cfg).expect("start daemon B");
    let mut client = Client::connect(&b.addr.to_string(), Duration::from_secs(30)).expect("B");
    let resp =
        client.post_json("/elect/batch", &format!("[{}]", entries.join(","))).expect("batch");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let batch_body = resp.body_text();
    let b_metrics = client.get("/metrics").expect("metrics B").body_text();

    // (1) Byte identity, element for element — the whole array is the
    // comma-join of the single bodies.
    assert_eq!(batch_body, format!("[{}]", singles.join(",")));

    // (2) Every per-entry counter identical across the two daemons.
    for name in [
        "hre_svc_requests_elect_ok_total",
        "hre_svc_requests_elect_failed_total",
        "hre_svc_requests_bad_total",
        "hre_svc_elect_latency_seconds_count",
        "hre_svc_cache_inserts_total",
        "hre_elections_total{algo=\"ak\"}",
        "hre_elections_total{algo=\"bk\"}",
        "hre_elections_total{algo=\"cr\"}",
        "hre_elections_total{algo=\"peterson\"}",
    ] {
        assert_eq!(metric(&a_metrics, name), metric(&b_metrics, name), "{name} diverged");
    }
    // The concrete tallies for this workload: 5 ok (the rotation alias
    // and the spec failure behave the same in both modes), 1 spec
    // failure, 1 bad entry; the alias costs no second ak run.
    assert_eq!(metric(&b_metrics, "hre_svc_requests_elect_ok_total"), 5);
    assert_eq!(metric(&b_metrics, "hre_svc_requests_elect_failed_total"), 1);
    assert_eq!(metric(&b_metrics, "hre_svc_requests_bad_total"), 1);
    assert_eq!(metric(&b_metrics, "hre_elections_total{algo=\"ak\"}"), 2);
    // Cache accounting is the one documented divergence: a cold batch
    // looks every entry up before any insert lands, so the rotation
    // alias counts as a miss there (and as a hit on daemon A, which
    // inserted the base entry one request earlier). Dedup still limits
    // engine runs and inserts to one per canonical key — checked above
    // via inserts and hre_elections_total.
    assert_eq!(metric(&a_metrics, "hre_svc_cache_hits_total"), 1);
    assert_eq!(metric(&a_metrics, "hre_svc_cache_misses_total"), 5);
    assert_eq!(metric(&b_metrics, "hre_svc_cache_hits_total"), 0);
    assert_eq!(metric(&b_metrics, "hre_svc_cache_misses_total"), 6);
    assert_eq!(metric(&b_metrics, "hre_batch_entry_hits_total"), 0);
    // Request-level counters differ exactly as documented.
    assert_eq!(metric(&a_metrics, "hre_batch_requests_total"), 0);
    assert_eq!(metric(&a_metrics, "hre_batch_entries_total"), 0);
    assert_eq!(metric(&b_metrics, "hre_batch_requests_total"), 1);
    assert_eq!(metric(&b_metrics, "hre_batch_entries_total"), n);

    // A second, warm pass of the same batch replays every cached entry:
    // identical bytes again, and now every valid entry is a hit.
    let resp2 =
        client.post_json("/elect/batch", &format!("[{}]", entries.join(","))).expect("batch 2");
    assert_eq!(resp2.body_text(), batch_body, "warm batch must replay the exact bytes");
    assert_eq!(resp2.header("x-batch-hits"), Some("6"));

    let sa = a.shutdown();
    let sb = b.shutdown();
    assert_eq!(sa.elect_ok, 5);
    assert_eq!(sa.elect_failed, 1);
    // Daemon B served the workload twice (cold + warm batch).
    assert_eq!(sb.elect_ok, 2 * sa.elect_ok);
    assert_eq!(sb.elect_failed, 2 * sa.elect_failed);
    assert_eq!(sb.latency.count, 2 * sa.latency.count);
}

/// A 200 KB body of nested `[` once overflowed the recursive parser's
/// stack and aborted the daemon. It must get a `bad JSON` 400 on both
/// election endpoints, and the daemon must keep answering.
#[test]
fn nested_json_is_rejected_and_the_daemon_keeps_serving() {
    let handle = start(SvcConfig::default()).expect("start daemon");
    let addr = handle.addr.to_string();
    let nested = "[".repeat(200_000);
    let wrapped = format!(r#"{{"ring":[1,2],"x":{nested}}}"#);
    for (path, body) in [("/elect", &nested), ("/elect/batch", &nested), ("/elect", &wrapped)] {
        let mut c = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
        let resp = c.post_json(path, body).expect("answered, not dropped");
        assert_eq!(resp.status, 400, "{path}: {}", resp.body_text());
        assert!(resp.body_text().starts_with(r#"{"error":"bad JSON: nesting deeper than"#));
        let mut c = Client::connect(&addr, Duration::from_secs(30)).expect("still listening");
        assert_eq!(c.get("/healthz").expect("healthz").status, 200);
    }
    handle.shutdown();
}
