//! A router runs on one reactor thread, which also probes the backends.
//! Its own test binary, so no test running in parallel can move this
//! process's thread count.

use hre_cluster::{start, ClusterConfig};
use hre_svc::{start as start_svc, ServerHandle, SvcConfig};
use std::time::{Duration, Instant};

/// This process's thread count, from procfs.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

/// The `GET /healthz` requests a backend has answered.
fn healthz(backend: &ServerHandle) -> u64 {
    backend
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("hre_svc_requests_healthz_total "))
        .and_then(|v| v.parse().ok())
        .expect("a healthz counter")
}

#[test]
fn a_router_probing_two_backends_runs_one_thread() {
    let backends: Vec<ServerHandle> =
        (0..2).map(|_| start_svc(SvcConfig::default()).expect("backend")).collect();
    let at_rest = threads();
    let addrs = backends.iter().map(|b| b.addr.to_string()).collect();
    let router =
        start(ClusterConfig { backends: addrs, ..ClusterConfig::default() }).expect("router");

    // Sample through at least three sweeps of each backend.
    let end = Instant::now() + Duration::from_secs(10);
    while backends.iter().any(|b| healthz(b) < 3) {
        assert_eq!(threads(), at_rest + 1, "a router runs one thread");
        assert!(Instant::now() < end, "three probe sweeps within 10 s");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(threads(), at_rest + 1, "a router runs one thread");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
