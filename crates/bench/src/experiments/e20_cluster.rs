//! E20 — horizontal scaling by rotation-affinity sharding, and failure
//! transparency under a backend kill.
//!
//! On this repo's reference hardware (a single core) a cluster cannot
//! scale by CPU parallelism, so E20 measures the scaling axis that
//! remains — and that the router's consistent-hash placement is built
//! for: **aggregate cache capacity**. The workload cycles W distinct
//! canonical rings, every request a fresh rotation (distinct bytes on
//! the wire, one cache entry per ring). One backend with a SIEVE cache
//! of capacity C < W thrashes — a strictly cyclic scan over W keys
//! evicts each key before its next request, so no entry is ever
//! visited and SIEVE evicts first-in first-out: hit rate ≈ 0, every
//! request a full election. Three
//! backends split the W rings ≈ W/3 apiece by canonical-rotation
//! affinity; W/3 < C, so after one warm-up pass every request is a
//! cache hit. Same machine, same total cache configuration per node —
//! the speedup is pure placement.
//!
//! The chaos phase then kills one of the three backends mid-load and
//! requires **zero client-visible failures**: in-flight requests fail
//! over on the transport error, later ones are routed around the corpse
//! once its breaker opens.

use hre_analysis::Table;
use hre_cluster::{start as start_router, ClusterConfig, RouterSummary};
use hre_svc::{
    run_load, salted_rings, start as start_svc, LoadOptions, LoadReport, ServerHandle, SvcConfig,
};
use std::time::Duration;

/// Four lock-step connections over `w` salted rings of size `n`, every
/// request a fresh rotation.
fn load(w: usize, n: u64, requests: u64) -> LoadOptions {
    let bases = salted_rings(w, n).expect("valid rings");
    LoadOptions { connections: 4, requests, bases, rotate: true, ..LoadOptions::default() }
}

/// Backend config for the capacity experiment: a single-shard cache so
/// the capacity bound is exact, sized to hold less than the workload.
fn backend_cfg(cache_cap: usize) -> SvcConfig {
    SvcConfig {
        workers: 2,
        cache_cap,
        cache_shards: 1,
        deadline: Duration::from_secs(60),
        ..SvcConfig::default()
    }
}

/// Starts `nodes` backends and a router over them (hedging effectively
/// off: this experiment measures placement, not tail latency).
fn cluster(nodes: usize, cache_cap: usize) -> (Vec<ServerHandle>, hre_cluster::RouterHandle) {
    let backends: Vec<ServerHandle> =
        (0..nodes).map(|_| start_svc(backend_cfg(cache_cap)).expect("backend")).collect();
    let router = start_router(ClusterConfig {
        backends: backends.iter().map(|b| b.addr.to_string()).collect(),
        hedge_min: Duration::from_secs(10),
        health_interval: Duration::from_millis(100),
        timeout: Duration::from_secs(60),
        deadline: Duration::from_secs(60),
        ..Default::default()
    })
    .expect("router");
    (backends, router)
}

/// One load run against an N-node cluster; returns what the clients saw
/// and what the router counted.
pub fn measure(
    nodes: usize,
    cache_cap: usize,
    w: usize,
    n: u64,
    requests: u64,
) -> (LoadReport, RouterSummary) {
    let (backends, router) = cluster(nodes, cache_cap);
    let report = run_load(&router.addr.to_string(), &load(w, n, requests)).expect("load run");
    let summary = router.shutdown();
    for b in backends {
        b.shutdown();
    }
    (report, summary)
}

/// The chaos run: 3 nodes, kill one mid-load; returns the client view.
pub fn chaos(w: usize, n: u64, requests: u64) -> (LoadReport, RouterSummary) {
    let (mut backends, router) = cluster(3, 64);
    let addr = router.addr.to_string();
    let opts = load(w, n, requests);
    // Kill a backend that actually owns part of the workload: with random
    // ports the consistent-hash ring occasionally places zero of the W
    // rings on a given node, and killing an idle node is (correctly)
    // invisible without exercising failover.
    let victim_addr = router.primary_backend(&opts.bases[0].labels).to_string();
    let victim =
        backends.iter().position(|b| b.addr.to_string() == victim_addr).expect("victim is ours");
    let load = std::thread::spawn(move || run_load(&addr, &opts).expect("load run"));
    // Take the backend down mid-flight: trigger on observed progress (an
    // eighth of the requests proxied) rather than a wall-clock sleep,
    // which the optimized election engine finishes ahead of.
    let armed = std::time::Instant::now();
    while router.requests_seen() < requests / 8 && armed.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_micros(200));
    }
    backends.remove(victim).shutdown();
    let report = load.join().expect("load thread");
    let summary = router.shutdown();
    for b in backends {
        b.shutdown();
    }
    (report, summary)
}

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut out = String::new();
    out.push_str(
        "### Aggregate cache capacity: W = 48 canonical rings, per-node SIEVE cap 32\n\n\
         Every request is a fresh rotation of one of 48 rings (n = 128, algo Ak).\n\
         A cyclic scan over 48 keys against a 32-entry cache evicts each key\n\
         before its next request, so nothing is ever visited and SIEVE evicts\n\
         first-in first-out — one node thrashes. Three nodes hold ~16 rings each by\n\
         rotation-affinity placement, so the working set fits and the cluster\n\
         serves hits. Single core: the speedup is cache capacity, not CPU.\n\n",
    );

    const W: usize = 48;
    const N: u64 = 128;
    const CAP: usize = 32;
    let (cold, _) = measure(1, CAP, W, N, 192);
    let (warm, warm_sum) = measure(3, CAP, W, N, 384);

    let mut t = Table::new(["nodes", "requests", "hit rate", "req/s", "p50 µs", "p99 µs"]);
    for (nodes, rep) in [("1", &cold), ("3", &warm)] {
        t.row([
            nodes.to_string(),
            (rep.ok + rep.failed).to_string(),
            format!("{:.0}%", rep.hit_rate() * 100.0),
            format!("{:.0}", rep.throughput()),
            rep.percentile_us(50.0).map_or("—".into(), |v| v.to_string()),
            rep.percentile_us(99.0).map_or("—".into(), |v| v.to_string()),
        ]);
    }
    out.push_str(&t.render());
    let speedup = warm.throughput() / cold.throughput();
    out.push_str(&format!(
        "\naggregate throughput, 3 nodes vs 1: {speedup:.1}x \
         (acceptance threshold: >= 2x)\n"
    ));
    assert!(speedup >= 2.0, "3 nodes vs 1: {speedup:.1}x below the 2x acceptance threshold");
    let spread: Vec<String> =
        warm_sum.backends.iter().map(|b| format!("{} -> {}", b.addr, b.requests)).collect();
    out.push_str(&format!("placement spread over 3 nodes: {}\n", spread.join(" | ")));

    out.push_str(
        "\n### Chaos: kill one of three backends mid-load\n\n\
         The victim goes down with requests in flight. Transport errors fail\n\
         over to the next ring position; once the breaker opens the corpse is\n\
         routed around up front; the prober's half-open probes keep checking\n\
         for a revival. The client must see none of it.\n\n",
    );
    let (chaos_rep, chaos_sum) = chaos(24, N, 240);
    let mut t = Table::new(["requests", "ok", "failed", "errors", "failovers", "breaker opens"]);
    t.row([
        (chaos_rep.ok + chaos_rep.failed).to_string(),
        chaos_rep.ok.to_string(),
        chaos_rep.failed.to_string(),
        chaos_rep.errors.to_string(),
        chaos_sum.backends.iter().map(|b| b.failovers).sum::<u64>().to_string(),
        chaos_sum.backends.iter().map(|b| b.breaker_opens).sum::<u64>().to_string(),
    ]);
    out.push_str(&t.render());
    assert_eq!(chaos_rep.failed, 0, "a backend kill leaked to a client");
    out.push_str(&format!(
        "\nclient-visible failures during the kill: {} (acceptance threshold: 0)\n",
        chaos_rep.failed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized version of the capacity experiment: 3 nodes
    /// must beat 1 node on the same thrashing workload, via hit rate.
    #[test]
    fn three_nodes_outscale_one_via_cache_capacity() {
        let (cold, _) = measure(1, 16, 24, 96, 72);
        let (warm, _) = measure(3, 16, 24, 96, 144);
        assert!(cold.failed == 0 && warm.failed == 0, "{} / {}", cold.pretty(), warm.pretty());
        assert!(
            warm.hit_rate() > cold.hit_rate() + 0.3,
            "sharding must lift the hit rate: 1-node {:.2} vs 3-node {:.2}",
            cold.hit_rate(),
            warm.hit_rate()
        );
        assert!(
            warm.throughput() > cold.throughput() * 1.2,
            "3 nodes must outscale 1: {:.0} vs {:.0} req/s",
            warm.throughput(),
            cold.throughput()
        );
    }

    /// Debug-build-sized chaos phase: killing a backend mid-load must
    /// be invisible to clients.
    #[test]
    fn backend_kill_is_invisible_to_clients() {
        let (rep, sum) = chaos(8, 64, 384);
        assert_eq!(rep.failed, 0, "{}", rep.pretty());
        assert_eq!(rep.errors, 0, "{}", rep.pretty());
        assert_eq!(rep.ok, 384, "{}", rep.pretty());
        assert!(
            sum.backends.iter().map(|b| b.failovers).sum::<u64>() >= 1,
            "the kill must actually have been routed around: {sum}"
        );
    }
}
