//! End-to-end cluster tests: real `hre-svc` backends on ephemeral ports
//! behind a real router, talking over TCP.
//!
//! Covered here: rotation-affinity routing (all rotations of a ring are
//! answered by one backend, byte-identically to a direct backend call),
//! breaker-driven failover when a backend dies mid-traffic, hedged
//! retries when a backend stalls, and the `/cluster` + `/metrics`
//! observability surfaces.
//!
//! Also covered: scatter-gather batches (byte-identical to the joined
//! singles, sub-batch failover, per-entry exhaustion documents), the
//! idle-stream pool closing when a backend is removed or tripped, and
//! one keep-alive connection routing exactly the bytes the backends
//! answer directly.

use hre_cluster::{start, ClusterConfig};
use hre_svc::{start as start_svc, Client, ServerHandle, SvcConfig};
use std::time::Duration;

/// Spins up `n` default-ish backends; returns their handles + addrs.
fn backends(n: usize, cfg: SvcConfig) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> =
        (0..n).map(|_| start_svc(cfg.clone()).expect("backend")).collect();
    let addrs = handles.iter().map(|h| h.addr.to_string()).collect();
    (handles, addrs)
}

fn client(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(5)).expect("connect")
}

/// A few structurally distinct rings (different canonical classes).
fn rings() -> Vec<Vec<u64>> {
    vec![
        vec![1, 3, 1, 3, 2, 2, 1, 2],
        vec![4, 4, 1, 2, 4, 1, 1, 2],
        vec![7, 1, 2, 3, 4, 5, 6, 0],
        vec![2, 2, 3, 2, 3, 3],
        vec![9, 8, 9, 8, 8, 7],
    ]
}

fn body_for(labels: &[u64]) -> String {
    let nums: Vec<String> = labels.iter().map(u64::to_string).collect();
    format!(r#"{{"ring":[{}],"algo":"ak"}}"#, nums.join(","))
}

#[test]
fn routes_with_rotation_affinity_and_backend_agreement() {
    let (handles, addrs) = backends(3, SvcConfig::default());
    // Hedging off (huge floor): this test pins down *placement*, and a
    // hedge fired against a slow debug build would legitimately let a
    // non-home backend answer.
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");
    let router_addr = router.addr.to_string();
    let mut c = client(&router_addr);

    for labels in rings() {
        // Direct answer from the ring's home backend, for byte-equality.
        let home = router.primary_backend(&labels).to_string();
        let direct = client(&home).post_json("/elect", &body_for(&labels)).expect("direct");
        assert_eq!(direct.status, 200, "{}", direct.body_text());

        let mut answered_by = std::collections::HashSet::new();
        for d in 0..labels.len() {
            let mut rot = labels.clone();
            rot.rotate_left(d);
            let via = c.post_json("/elect", &body_for(&rot)).expect("routed");
            assert_eq!(via.status, 200, "{}", via.body_text());
            answered_by.insert(via.header("x-backend").expect("x-backend tag").to_string());
            if d == 0 {
                // Unrotated request: the router's answer is the
                // backend's answer, byte for byte.
                assert_eq!(via.body_text(), direct.body_text());
            }
        }
        assert_eq!(
            answered_by.into_iter().collect::<Vec<_>>(),
            vec![home],
            "all rotations of {labels:?} must hit the home backend"
        );
    }

    // Observability surfaces.
    let metrics = c.get("/metrics").expect("metrics").body_text();
    assert!(metrics.contains("hre_cluster_requests_total"), "{metrics}");
    assert!(metrics.contains("hre_cluster_breaker_state{backend=\""), "{metrics}");
    let topo = c.get("/cluster").expect("cluster");
    assert_eq!(topo.status, 200);
    let doc = hre_cluster::Json::parse(&topo.body_text()).expect("topology json");
    let listed = doc.get("backends").and_then(|b| b.as_arr()).expect("backends array");
    assert_eq!(listed.len(), 3);
    assert!(listed.iter().all(|b| b.get("state").and_then(|s| s.as_str()) == Some("closed")));

    let summary = router.shutdown();
    assert_eq!(summary.request_errors, 0, "{summary}");
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn fails_over_when_a_backend_dies_and_reports_the_breaker() {
    let (mut handles, addrs) = backends(3, SvcConfig::default());
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        failure_threshold: 2,
        probe_start: Duration::from_millis(30),
        probe_cap: Duration::from_millis(200),
        health_interval: Duration::from_millis(25),
        timeout: Duration::from_millis(800),
        hedge_min: Duration::from_secs(10), // placement must stay deterministic
        ..Default::default()
    })
    .expect("router");
    let mut c = client(&router.addr.to_string());

    // Find a ring homed on backend 0, then kill backend 0.
    let victim = addrs[0].clone();
    let labels = (0..64u64)
        .map(|salt| {
            let mut l = vec![1, 3, 1, 3, 2, 2, 1, 2];
            l[0] = salt + 1;
            l
        })
        .find(|l| router.primary_backend(l) == victim)
        .expect("some ring homes on backend 0");
    let resp = c.post_json("/elect", &body_for(&labels)).expect("pre-kill");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-backend"), Some(victim.as_str()));
    let reference = resp.body_text();

    handles.remove(0).shutdown();

    // Every post-kill request must still succeed — first by in-request
    // failover (transport error → next ring position), then, once the
    // breaker opens, by being routed around the corpse up front.
    for _ in 0..12 {
        let resp = c.post_json("/elect", &body_for(&labels)).expect("post-kill");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let by = resp.header("x-backend").expect("tag");
        assert_ne!(by, victim.as_str(), "dead backend cannot answer");
        assert_eq!(resp.body_text(), reference, "failover answer must be identical");
        std::thread::sleep(Duration::from_millis(15));
    }

    // Give the prober time to trip and then probe the open breaker.
    std::thread::sleep(Duration::from_millis(300));
    let metrics = c.get("/metrics").expect("metrics").body_text();
    let line = |name: &str| {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name}{{backend=\"{victim}\"}}")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("missing {name} for {victim}:\n{metrics}"))
    };
    assert!(line("hre_cluster_breaker_opens_total") >= 1, "{metrics}");
    assert!(line("hre_cluster_breaker_half_opens_total") >= 1, "{metrics}");
    // Open, or momentarily half-open if a probe is in flight — never closed.
    assert!(line("hre_cluster_breaker_state") >= 1, "victim must not be closed:\n{metrics}");

    let summary = router.shutdown();
    assert_eq!(summary.request_errors, 0, "{summary}");
    assert!(summary.backends[0].failovers >= 1, "{summary}");
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn hedges_a_stalled_backend_and_takes_the_fast_answer() {
    // Backend 0: single worker, no cache — easy to stall with one big
    // election. Backend 1: healthy.
    let slow_cfg = SvcConfig {
        workers: 1,
        cache_cap: 0,
        deadline: Duration::from_secs(30),
        ..Default::default()
    };
    let slow = start_svc(slow_cfg).expect("slow backend");
    let fast = start_svc(SvcConfig::default()).expect("fast backend");
    let addrs = vec![slow.addr.to_string(), fast.addr.to_string()];
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        hedge_min: Duration::from_millis(10),
        deadline: Duration::from_secs(20),
        timeout: Duration::from_secs(20),
        // Keep the prober from stealing the single worker's attention.
        health_interval: Duration::from_millis(500),
        ..Default::default()
    })
    .expect("router");

    // A ring homed on the slow backend.
    let labels = (0..64u64)
        .map(|salt| {
            let mut l = vec![1, 3, 1, 3, 2, 2, 1, 2];
            l[0] = salt + 1;
            l
        })
        .find(|l| router.primary_backend(l) == addrs[0])
        .expect("some ring homes on the slow backend");

    // Stuff the slow backend's only worker (plus queue) with elections
    // big enough to hold it busy well past the hedge threshold. The
    // optimized engine runs an n = 256 election in ~35 ms in release
    // builds — not enough stall to outlive the pickup sleep below — so
    // release builds use a bigger ring and more stuffers (n = 512 is
    // ~130 ms apiece); debug builds keep the small shape (~700 ms
    // apiece there).
    let (stuff_n, stuff_count) = if cfg!(debug_assertions) { (256u64, 2) } else { (512, 4) };
    let big: Vec<String> = (0..stuff_n).map(|i| (i % 17).to_string()).collect();
    let big_body = format!(r#"{{"ring":[{}],"algo":"ak"}}"#, big.join(","));
    let stuffers: Vec<_> = (0..stuff_count)
        .map(|_| {
            let addr = addrs[0].clone();
            let body = big_body.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, Duration::from_secs(60)).expect("direct");
                c.post_json("/elect", &body).expect("big election").status
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let the worker pick one up

    // Route a cheap request homed on the stalled backend: the hedge
    // must fire and the fast backend's answer must win.
    let mut c = client(&router.addr.to_string());
    let resp = c.post_json("/elect", &body_for(&labels)).expect("hedged");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-backend"), Some(addrs[1].as_str()), "hedge winner");

    for s in stuffers {
        assert_eq!(s.join().expect("stuffer"), 200);
    }

    // The hedge flew as an extra in-flight request, and once everything
    // resolved the in-flight gauge reconciles back to zero — under the
    // epoll core that is the proof no pool thread was ever consumed.
    let gauge = |metrics: &str| -> i64 {
        metrics
            .lines()
            .find(|l| l.starts_with("hre_hedges_inflight "))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing hre_hedges_inflight:\n{metrics}"))
    };
    let mut settled = gauge(&c.get("/metrics").expect("metrics").body_text());
    for _ in 0..200 {
        if settled == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        settled = gauge(&c.get("/metrics").expect("metrics").body_text());
    }
    assert_eq!(settled, 0, "hedges_inflight must reconcile to zero at rest");

    let summary = router.shutdown();
    assert!(summary.backends[0].hedges >= 1, "hedge must have fired: {summary}");
    assert!(summary.hedge_wins >= 1, "{summary}");
    assert_eq!(summary.request_errors, 0, "{summary}");
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn trace_propagates_cluster_to_svc_to_core_across_a_failover() {
    use hre_runtime::trace::{is_connected_tree, Stage, TraceId};

    let (mut handles, addrs) = backends(2, SvcConfig::default());
    // Breaker effectively disabled: the point is the *in-request*
    // failover path, which only runs while the dead backend still looks
    // routable up front.
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        failure_threshold: 1000,
        health_interval: Duration::from_secs(30),
        timeout: Duration::from_millis(800),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");
    let mut c = client(&router.addr.to_string());

    // A ring homed on backend 0, which we then kill.
    let victim = addrs[0].clone();
    let labels = (0..64u64)
        .map(|salt| {
            let mut l = vec![1, 3, 1, 3, 2, 2, 1, 2];
            l[0] = salt + 1;
            l
        })
        .find(|l| router.primary_backend(l) == victim)
        .expect("some ring homes on backend 0");
    handles.remove(0).shutdown();

    // Client-chosen trace id, propagated end to end.
    let trace = TraceId::from_hex("00000000deadbeef").expect("trace id");
    let resp = c
        .request_with_headers(
            "POST",
            "/elect",
            &[("x-trace-id", "00000000deadbeef")],
            Some(body_for(&labels).as_bytes()),
        )
        .expect("traced elect");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-trace-id"), Some("00000000deadbeef"), "trace id must echo back");
    assert_eq!(resp.header("x-backend"), Some(addrs[1].as_str()), "failover answer");

    // The merged view on the router joins its own spans with the
    // surviving backend's (the dead backend is skipped, not fatal).
    let doc = c.get("/trace/00000000deadbeef").expect("trace fetch");
    assert_eq!(doc.status, 200, "{}", doc.body_text());
    let spans = hre_svc::tracewire::spans_from_doc(&doc.body_text()).expect("trace doc");
    assert!(spans.iter().all(|s| s.trace == trace));
    assert!(
        is_connected_tree(&spans),
        "cluster → svc → core spans must form one tree:\n{}",
        hre_runtime::trace::render_tree(&spans)
    );

    let count = |stage: Stage| spans.iter().filter(|s| s.stage == stage).count();
    let tree = || hre_runtime::trace::render_tree(&spans);
    // Cluster side: root request, hash + breaker check, two attempts
    // (one failed), and the failover event between them.
    let root = spans.iter().find(|s| s.root && s.src == "cluster").expect("cluster root");
    assert_eq!(root.stage, Stage::Request);
    assert!(!root.err, "request succeeded end to end");
    assert_eq!(count(Stage::Hash), 1, "{}", tree());
    assert_eq!(count(Stage::BreakerCheck), 1, "{}", tree());
    assert_eq!(count(Stage::Failover), 1, "{}", tree());
    let attempts: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Attempt).collect();
    assert_eq!(attempts.len(), 2, "{}", tree());
    assert!(attempts.iter().all(|a| a.parent == root.id), "attempts are sibling spans");
    assert_eq!(attempts.iter().filter(|a| a.err).count(), 1, "one dead attempt: {}", tree());
    // Service side: its own request root (reparented under the
    // surviving attempt), cache probe, queue wait, execution.
    let svc_root =
        spans.iter().find(|s| s.src == addrs[1] && s.stage == Stage::Request).expect("svc root");
    let winner = attempts.iter().find(|a| !a.err).expect("surviving attempt");
    assert_eq!(svc_root.parent, winner.id, "cross-process parent link:\n{}", tree());
    for stage in [Stage::CacheLookup, Stage::QueueWait, Stage::Execute, Stage::Election] {
        assert_eq!(count(stage), 1, "expected exactly one {stage:?}: {}", tree());
    }
    // Core side: the election hook reported real work.
    let election = spans.iter().find(|s| s.stage == Stage::Election).expect("election span");
    assert!(election.a > 0, "election must report messages: {}", tree());

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn batch_fans_out_by_shard_and_matches_singles_byte_for_byte() {
    let (handles, addrs) = backends(3, SvcConfig::default());
    // Hedging off: placement must stay deterministic for byte-equality.
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");
    let mut c = client(&router.addr.to_string());

    // Mixed algorithms across several shards, plus an invalid entry
    // (answered by the router, never forwarded) and a spec violation
    // (422 body from the home backend).
    let mut entries: Vec<String> = Vec::new();
    for (i, labels) in rings().into_iter().enumerate() {
        let algo = ["ak", "bk", "peterson", "oracle-n", "content-oblivious"][i % 5];
        let nums: Vec<String> = labels.iter().map(u64::to_string).collect();
        entries.push(format!(r#"{{"ring":[{}],"algo":"{algo}"}}"#, nums.join(",")));
    }
    entries.push(r#"{"ring":[1]}"#.into());
    entries.push(r#"{"ring":[5,1,5,2],"algo":"cr"}"#.into());

    let singles: Vec<String> =
        entries.iter().map(|e| c.post_json("/elect", e).expect("single").body_text()).collect();

    let batch = c.post_json("/elect/batch", &format!("[{}]", entries.join(","))).expect("batch");
    assert_eq!(batch.status, 200, "{}", batch.body_text());
    assert_eq!(batch.header("x-batch-errors"), Some("0"));
    assert_eq!(batch.body_text(), format!("[{}]", singles.join(",")));

    // The fan-out went to exactly the distinct home backends of every
    // *forwarded* entry — the five rings plus the spec-violating one
    // (it parses, so it ships to its shard; only `{"ring":[1]}` stays
    // local). With ephemeral backend ports, placement varies per run,
    // so the extra ring's home may or may not coincide with the five.
    let mut forwarded = rings();
    forwarded.push(vec![5, 1, 5, 2]);
    let homes: std::collections::HashSet<String> =
        forwarded.iter().map(|l| router.primary_backend(l)).collect();
    let metrics = c.get("/metrics").expect("metrics").body_text();
    let value = |name: &str| {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("missing {name}:\n{metrics}"))
    };
    assert_eq!(value("hre_cluster_batch_requests_total"), 1, "{metrics}");
    assert_eq!(value("hre_cluster_batch_entries_total"), entries.len() as u64, "{metrics}");
    assert_eq!(value("hre_cluster_batch_fanout_total"), homes.len() as u64, "{metrics}");
    assert_eq!(value("hre_cluster_batch_entry_errors_total"), 0, "{metrics}");

    let summary = router.shutdown();
    assert_eq!(summary.request_errors, 0, "{summary}");
    for h in handles {
        h.shutdown();
    }
}

/// Entries the router answers itself (invalid, unknown algorithm)
/// sit between relayed backend elements (a success, an escaped algorithm
/// name, a spec violation): the routed batch must be byte-identical to
/// the direct answers of the backends, joined.
#[test]
fn batch_with_rejected_entries_matches_the_joined_direct_answers() {
    let (handles, addrs) = backends(3, SvcConfig::default());
    // Hedging off: placement must stay deterministic for byte-equality.
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");
    let entries: Vec<String> = vec![
        body_for(&rings()[0]),
        r#"{"ring":[1]}"#.into(),
        r#"{"ring":[3,9,4,7],"algo":"quantum"}"#.into(),
        r#"{"ring":[2,2,3,2,3,3],"algo":"b\u006b","x":{"y":"]"}}"#.into(),
        r#"{"ring":[5,1,5,2],"algo":"cr"}"#.into(),
        body_for(&rings()[4]),
    ];
    // Each entry straight to its home backend; the ones the router
    // rejects go to any backend, which rejects them the same way.
    let direct: Vec<String> = entries
        .iter()
        .map(|entry| {
            let home = match hre_svc::ElectRequest::from_json(entry.as_bytes()) {
                Ok(request) => router.primary_backend(&request.labels),
                Err(_) => addrs[0].clone(),
            };
            client(&home).post_json("/elect", entry).expect("direct").body_text()
        })
        .collect();
    assert!(direct[2].contains(r#"unknown algo \"quantum\""#), "{}", direct[2]);

    let mut c = client(&router.addr.to_string());
    let batch = c.post_json("/elect/batch", &format!("[{}]", entries.join(","))).expect("batch");
    assert_eq!(batch.status, 200, "{}", batch.body_text());
    assert_eq!(batch.header("x-batch-errors"), Some("0"));
    assert_eq!(batch.body_text(), format!("[{}]", direct.join(",")));
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// A 200 KB body of nested `[` once overflowed the router's recursive
/// parser and aborted it. Both election endpoints must answer it with a
/// 400 of their own (nothing is forwarded), and the router must keep
/// answering.
#[test]
fn nested_json_is_rejected_and_the_router_keeps_serving() {
    let (handles, addrs) = backends(1, SvcConfig::default());
    let router = start(ClusterConfig { backends: addrs, ..Default::default() }).expect("router");
    let addr = router.addr.to_string();
    let nested = "[".repeat(200_000);
    for path in ["/elect", "/elect/batch"] {
        let resp = client(&addr).post_json(path, &nested).expect("answered, not dropped");
        assert_eq!(resp.status, 400, "{path}: {}", resp.body_text());
        assert!(resp.body_text().starts_with(r#"{"error":"bad JSON: nesting deeper than"#));
        assert_eq!(client(&addr).get("/healthz").expect("healthz").status, 200);
    }
    let summary = router.shutdown();
    assert_eq!(summary.backends[0].requests, 0, "{summary}");
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn batch_scatters_shard_errors_to_the_entries_it_carried() {
    let (mut handles, addrs) = backends(1, SvcConfig::default());
    let router = start(ClusterConfig {
        backends: addrs,
        timeout: Duration::from_millis(300),
        deadline: Duration::from_secs(2),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");
    let mut c = client(&router.addr.to_string());
    handles.remove(0).shutdown(); // the only shard owner is gone

    let r = c.post_json("/elect/batch", r#"[{"ring":[1,2,2]},{"ring":[1]}]"#).expect("batch");
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(r.header("x-batch-errors"), Some("1"));
    let doc = hre_cluster::Json::parse(&r.body_text()).expect("json");
    let arr = doc.as_arr().expect("array");
    assert_eq!(arr.len(), 2);
    // Entry 0's shard was unreachable: it carries the forwarded error.
    let shard_err = arr[0].get("error").and_then(|e| e.as_str()).expect("error doc");
    assert!(shard_err.contains("no backend reachable"), "{shard_err}");
    // Entry 1 failed validation locally and never depended on the shard.
    let local_err = arr[1].get("error").and_then(|e| e.as_str()).expect("error doc");
    assert!(local_err.contains("at least two labels"), "{local_err}");
    router.shutdown();
}

#[test]
fn garbage_is_rejected_locally_and_unknown_paths_404() {
    let (handles, addrs) = backends(1, SvcConfig::default());
    let router = start(ClusterConfig { backends: addrs, ..Default::default() }).expect("router");
    let mut c = client(&router.addr.to_string());

    let resp = c.post_json("/elect", "not json").expect("garbage");
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("x-backend"), None, "garbage must not be forwarded");

    let resp = c.post_json("/elect", r#"{"ring":[1]}"#).expect("too short");
    assert_eq!(resp.status, 400);

    let resp = c.get("/nope").expect("404");
    assert_eq!(resp.status, 404);

    // The backend saw none of it.
    let summary = router.shutdown();
    assert_eq!(summary.backends[0].requests, 0, "{summary}");
    for h in handles {
        let s = h.shutdown();
        assert_eq!(s.elect_ok + s.elect_failed, 0);
    }
}

/// The routed-bytes pin: the same request sequence — routed elections
/// across several shards, validation failures, a batch with mixed
/// outcomes, a cache-hit replay, and the observability endpoints'
/// statuses — served over one keep-alive connection must answer every
/// exchange with the status and body its home backend answers when
/// asked directly (any backend, for requests the router rejects).
#[test]
fn one_keepalive_connection_routes_the_direct_backend_bytes() {
    let (handles, addrs) = backends(3, SvcConfig::default());
    // Hedging off so placement (and thus `x-backend`) is deterministic.
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");
    let mut c = client(&router.addr.to_string());
    let mut reqs: Vec<(&str, String)> =
        rings().iter().map(|labels| ("/elect", body_for(labels))).collect();
    reqs.push(("/elect", r#"{"ring":[1]}"#.into())); // 400, keep-alive
    reqs.push(("/elect", "not json".into())); // 400, keep-alive
    reqs.push((
        "/elect/batch",
        r#"[{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"},{"ring":[1]},{"ring":[5,1,5,2],"algo":"cr"}]"#
            .into(),
    ));
    reqs.push(("/elect", body_for(&rings()[0]))); // cache-hit replay
    for (i, (path, body)) in reqs.iter().enumerate() {
        let home = match hre_svc::ElectRequest::from_json(body.as_bytes()) {
            Ok(request) if *path == "/elect" => router.primary_backend(&request.labels),
            _ => addrs[0].clone(),
        };
        let direct = client(&home).post_json(path, body).expect("direct");
        let routed = c.post_json(path, body).expect("served on the same connection");
        assert_eq!((routed.status, routed.body_text()), (direct.status, direct.body_text()), "{i}");
        if *path == "/elect" && routed.status == 200 {
            assert_eq!(routed.header("x-backend"), Some(home.as_str()), "request {i}");
        }
    }
    for (path, status) in [("/healthz", 200), ("/cluster", 200), ("/metrics", 200), ("/nope", 404)]
    {
        assert_eq!(c.get(path).expect("aux").status, status, "{path}");
    }
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// The salted Figure-1 ring: distinct canonical rings for finding one
/// homed on a chosen backend.
fn salted(salt: u64) -> Vec<u64> {
    let mut l = vec![1, 3, 1, 3, 2, 2, 1, 2];
    l[0] = salt + 1;
    l
}

/// A backend's `hre_open_connections` gauge, read in process (a scrape
/// over HTTP would count its own connection).
fn open_connections(backend: &ServerHandle) -> i64 {
    let text = backend.metrics_text();
    text.lines()
        .find_map(|l| l.strip_prefix("hre_open_connections "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing hre_open_connections:\n{text}"))
}

/// Polls `backend`'s open-connection gauge until it equals `want`;
/// returns the last value seen.
fn settle_open_connections(backend: &ServerHandle, want: i64) -> i64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let open = open_connections(backend);
        if open == want || std::time::Instant::now() > deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The router keeps one idle keep-alive stream pool per backend. Taking
/// a backend out of the topology, or tripping its breaker, must close
/// the streams pooled to it: the backend sees its connection count fall
/// to zero.
#[test]
fn removing_or_tripping_a_backend_closes_its_pooled_streams() {
    for trip in [false, true] {
        let (handles, addrs) = backends(2, SvcConfig::default());
        let router = start(ClusterConfig {
            backends: addrs.clone(),
            hedge_min: Duration::from_secs(10),
            // The prober's sweep at start-up is its only one here, so
            // its probe connections cannot blur the count.
            health_interval: Duration::from_secs(30),
            ..Default::default()
        })
        .expect("router");
        let b = addrs[1].clone();
        let labels = (0..64).map(salted).find(|l| router.primary_backend(l) == b).expect("homed");
        let resp = client(&router.addr.to_string()).post_json("/elect", &body_for(&labels));
        assert_eq!(resp.expect("routed").header("x-backend"), Some(b.as_str()));
        assert_eq!(settle_open_connections(&handles[1], 1), 1, "the router pools its stream");

        if trip {
            assert!(router.trip_backend(&b));
        } else {
            router.update_backends(1, &addrs[..1]).expect("config push");
        }
        let open = settle_open_connections(&handles[1], 0);
        assert_eq!(open, 0, "trip = {trip}: the pooled stream to {b} stayed open");

        router.shutdown();
        for h in handles {
            h.shutdown();
        }
    }
}

/// A routed batch that loses a backend: each shard's sub-batch fails
/// over exactly as a single request does, so the batch still answers the
/// joined singles. With every backend gone, each forwarded entry carries
/// the exhaustion document and `x-batch-errors` counts them.
#[test]
fn batch_sub_requests_fail_over_and_report_exhaustion_per_entry() {
    let (mut handles, addrs) = backends(3, SvcConfig::default());
    let router = start(ClusterConfig {
        backends: addrs.clone(),
        hedge_min: Duration::from_secs(10),
        timeout: Duration::from_millis(800),
        health_interval: Duration::from_secs(30), // failover happens in-request
        ..Default::default()
    })
    .expect("router");
    let mut c = client(&router.addr.to_string());
    // Two rings homed on each backend, so the batch touches every shard.
    let mut entries: Vec<String> = Vec::new();
    for addr in &addrs {
        let homed = (0..256).map(salted).filter(|l| router.primary_backend(l) == *addr);
        entries.extend(homed.take(2).map(|l| body_for(&l)));
    }
    assert_eq!(entries.len(), 6, "every backend homes two of the salted rings");
    let singles: Vec<String> =
        entries.iter().map(|e| c.post_json("/elect", e).expect("single").body_text()).collect();
    let batch = format!("[{}]", entries.join(","));

    handles.remove(0).shutdown();
    let resp = c.post_json("/elect/batch", &batch).expect("batch after one kill");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-batch-errors"), Some("0"));
    assert_eq!(resp.body_text(), format!("[{}]", singles.join(",")));

    for h in handles.drain(..) {
        h.shutdown();
    }
    let with_local = format!("[{},{{\"ring\":[1]}}]", entries.join(","));
    let resp = c.post_json("/elect/batch", &with_local).expect("batch with every backend dead");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-batch-errors"), Some("6"));
    let unreachable = r#"{"error":"no backend reachable"}"#;
    let local = r#"{"error":"ring needs at least two labels"}"#;
    assert_eq!(resp.body_text(), format!("[{},{local}]", [unreachable; 6].join(",")));
    router.shutdown();
}
