//! E19 — the service-substrate substitution check: elections served by
//! the `hre-svc` HTTP daemon are **byte-for-byte identical** to
//! in-process runs (the same `response_json` document `hre elect --json`
//! emits), across algorithms and across every rotation of a ring — and
//! the canonical-rotation result cache turns a 100%-rotation workload
//! (every request a different rotation of one ring) into a single
//! election plus cache hits, quantified as a throughput speedup.
//!
//! The cache is only sound because rotating a ring re-indexes processes
//! without changing the labeled structure: under the daemon's
//! deterministic round-robin scheduler the leader's label word and all
//! complexity metrics are rotation-invariant, and the leader index
//! shifts by exactly the rotation distance. Part 1 checks exactly that,
//! end to end, over HTTP.

use hre_analysis::Table;
use hre_svc::{
    run_election, run_load, start, AlgoId, Client, ElectRequest, LoadOptions, LoadReport,
    SvcConfig, SvcSummary,
};
use std::time::Duration;

/// Ring for the cache-speedup workload: large enough (n = 128) that the
/// election dominates HTTP overhead, with heavy homonymy (11 distinct
/// labels). `128 % 11 != 0` keeps the sequence primitive, hence the
/// ring asymmetric and electable by Ak.
fn rotation_ring() -> Vec<u64> {
    (0..128u64).map(|i| i % 11).collect()
}

/// Serves `req` and also runs it in-process; returns the two response
/// bodies plus the daemon's `X-Cache` verdict.
fn served_vs_inprocess(client: &mut Client, req: &ElectRequest) -> (String, String, String) {
    let resp = client.post_json("/elect", &req.to_json()).expect("daemon reachable on loopback");
    let cache = resp.header("x-cache").unwrap_or("—").to_string();
    let local = match run_election(req) {
        Ok(out) => hre_svc::response_json(req, &out),
        Err(why) => hre_svc::error_json(&why),
    };
    (resp.body_text(), local, cache)
}

/// One load run against a fresh daemon with the given cache capacity.
fn measure(cache_cap: usize, requests: u64) -> (LoadReport, SvcSummary) {
    let cfg = SvcConfig {
        workers: 4,
        cache_cap,
        deadline: Duration::from_secs(60),
        ..SvcConfig::default()
    };
    let handle = start(cfg).expect("bind ephemeral port");
    let base = ElectRequest::new(rotation_ring(), AlgoId::Ak, None).expect("valid ring");
    let load = LoadOptions {
        connections: 4,
        requests,
        bases: vec![base],
        rotate: true,
        ..LoadOptions::default()
    };
    let report = run_load(&handle.addr.to_string(), &load).expect("load run");
    (report, handle.shutdown())
}

/// Cached vs uncached throughput on the 100%-rotation workload.
pub fn cache_speedup(uncached_requests: u64, cached_requests: u64) -> (f64, f64, f64) {
    let (cold, _) = measure(0, uncached_requests);
    let (warm, _) = measure(1024, cached_requests);
    (warm.throughput() / cold.throughput(), cold.throughput(), warm.throughput())
}

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut out = String::new();
    out.push_str("### Served == in-process: every response byte-identical\n\n");

    let handle = start(SvcConfig { workers: 2, ..SvcConfig::default() }).expect("start daemon");
    let mut client =
        Client::connect(&handle.addr.to_string(), Duration::from_secs(10)).expect("connect");

    let mut t = Table::new(["ring", "algo", "k", "leader", "x-cache", "identical"]);
    let mut all_identical = true;

    // The paper's Figure 1 ring under several rotations (all one cache
    // entry), plus the minimal homonym ring and an identified ring, per
    // algorithm that is correct on them.
    let figure1: Vec<u64> = vec![1, 3, 1, 3, 2, 2, 1, 2];
    let mut cases: Vec<(String, ElectRequest)> = Vec::new();
    for d in [0usize, 3, 5] {
        let mut labels = figure1.clone();
        labels.rotate_left(d);
        let name = format!("fig1<<{d}");
        for algo in [AlgoId::Ak, AlgoId::Bk] {
            cases.push((name.clone(), ElectRequest::new(labels.clone(), algo, None).unwrap()));
        }
    }
    cases.push(("1,2,2".into(), ElectRequest::new(vec![1, 2, 2], AlgoId::Ak, None).unwrap()));
    for algo in [AlgoId::Cr, AlgoId::Peterson, AlgoId::OracleN] {
        cases.push((
            "4,1,3,2,7,5".into(),
            ElectRequest::new(vec![4, 1, 3, 2, 7, 5], algo, None).unwrap(),
        ));
    }

    for (name, req) in &cases {
        let (served, local, cache) = served_vs_inprocess(&mut client, req);
        let identical = served == local;
        all_identical &= identical;
        let leader = hre_svc::Json::parse(&served)
            .ok()
            .and_then(|d| d.get("leader").and_then(hre_svc::Json::as_u64))
            .map_or("—".into(), |l| format!("p{l}"));
        t.row([
            name.clone(),
            req.algo.name().to_string(),
            req.k.to_string(),
            leader,
            cache,
            if identical { "yes".into() } else { "NO".to_string() },
        ]);
    }
    assert!(all_identical, "a served response diverged from the in-process run");
    out.push_str(&t.render());

    let summary = handle.shutdown();
    out.push_str(&format!(
        "\nall {} responses byte-identical to `hre elect --json`: {}\n\
         daemon cache over the case table: {} hits / {} misses \
         (three Figure-1 rotations share one entry per algorithm)\n",
        cases.len(),
        all_identical,
        summary.cache.hits,
        summary.cache.misses,
    ));

    out.push_str(
        "\n### Canonical-rotation cache: 100%-rotation workload, n = 128, algo Ak\n\n\
         Every request is a different rotation of the same ring — distinct bytes on\n\
         the wire, one canonical labeled ring. Uncached, each request is a full\n\
         election; cached, everything after the first is a lookup plus a leader\n\
         re-index.\n\n",
    );
    let (cold, cold_sum) = measure(0, 24);
    let (warm, warm_sum) = measure(1024, 96);
    let mut t = Table::new(["cache", "requests", "hits", "req/s", "p50 µs", "p99 µs"]);
    for (name, rep, sum) in [("off", &cold, &cold_sum), ("1024", &warm, &warm_sum)] {
        t.row([
            name.to_string(),
            (rep.ok + rep.failed).to_string(),
            sum.cache.hits.to_string(),
            format!("{:.0}", rep.throughput()),
            rep.percentile_us(50.0).map_or("—".into(), |v| v.to_string()),
            rep.percentile_us(99.0).map_or("—".into(), |v| v.to_string()),
        ]);
    }
    out.push_str(&t.render());
    let speedup = warm.throughput() / cold.throughput();
    out.push_str(&format!(
        "\ncache speedup on the rotation workload: {speedup:.1}x \
         (acceptance threshold: >= 5x)\n"
    ));
    assert!(speedup >= 5.0, "cache speedup {speedup:.1}x below the 5x acceptance threshold");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_responses_match_in_process_runs() {
        let handle = start(SvcConfig { workers: 2, ..SvcConfig::default() }).expect("start");
        let mut client =
            Client::connect(&handle.addr.to_string(), Duration::from_secs(10)).expect("connect");
        for d in 0..4usize {
            let mut labels = vec![1u64, 3, 1, 3, 2, 2, 1, 2];
            labels.rotate_left(d);
            let req = ElectRequest::new(labels, AlgoId::Bk, None).expect("req");
            let (served, local, _) = served_vs_inprocess(&mut client, &req);
            assert_eq!(served, local, "rotation {d}");
        }
        let summary = handle.shutdown();
        assert_eq!(summary.cache.misses, 1, "four rotations, one canonical election");
        assert_eq!(summary.cache.hits, 3);
        handle_err_case();
    }

    /// Spec-violating elections serve the same error document too.
    fn handle_err_case() {
        let handle = start(SvcConfig::default()).expect("start");
        let mut client =
            Client::connect(&handle.addr.to_string(), Duration::from_secs(10)).expect("connect");
        let req = ElectRequest::new(vec![5, 1, 5, 2], AlgoId::Cr, None).expect("req");
        let (served, local, _) = served_vs_inprocess(&mut client, &req);
        assert_eq!(served, local);
        handle.shutdown();
    }

    #[test]
    fn rotation_workload_cache_speedup_is_at_least_5x() {
        let (speedup, cold, warm) = cache_speedup(12, 60);
        assert!(
            speedup >= 5.0,
            "cache speedup {speedup:.1}x below the 5x acceptance threshold \
             (uncached {cold:.0} req/s, cached {warm:.0} req/s)"
        );
    }
}
