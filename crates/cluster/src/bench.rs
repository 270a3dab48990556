//! Closed-loop load generator for the cluster — behind `hre
//! bench-cluster` and the E20 experiment.
//!
//! Unlike the single-service generator (`hre_svc::bench`), the workload
//! here is a *set* of distinct canonical rings cycled round-robin, each
//! optionally rotated per request. That is the workload sharding is
//! about: W distinct rings that overflow one backend's SIEVE cache but fit
//! the combined capacity of N shards. The report therefore tracks which
//! backend answered each request (the router's `x-backend` header) so
//! scaling experiments can see the spread.

use crate::ElectRequest;
use hre_svc::Client;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct ClusterLoadOptions {
    /// Concurrent keep-alive connections to the router.
    pub connections: usize,
    /// Total requests to issue across all connections.
    pub requests: u64,
    /// Distinct base rings, cycled round-robin across requests.
    pub bases: Vec<ElectRequest>,
    /// Rotate each ring by the request index (distinct on the wire,
    /// same canonical entry — the cache-affinity workload).
    pub rotate: bool,
}

/// What a cluster load run observed.
#[derive(Clone, Debug, Default)]
pub struct ClusterLoadReport {
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered 422 (definitive spec violation).
    pub failed: u64,
    /// `X-Cache: HIT` responses among completed requests.
    pub cache_hits: u64,
    /// 503 backpressure responses absorbed by retrying.
    pub retried_busy: u64,
    /// Requests abandoned with every retry still answering 503.
    pub gave_up_busy: u64,
    /// Requests abandoned on transport errors or unexpected 5xx.
    pub errors: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Completed requests per answering backend (`x-backend` header).
    pub by_backend: BTreeMap<String, u64>,
}

impl ClusterLoadReport {
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

    /// The human-readable summary `hre bench-cluster` prints.
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
        if let (Some(p50), Some(p95), Some(p99)) =
            (self.percentile_us(50.0), self.percentile_us(95.0), self.percentile_us(99.0))
        {
            out.push_str(&format!("latency µs: p50 {p50} | p95 {p95} | p99 {p99}\n"));
        }
        out
    }
}

/// 503 retry attempts per request before giving up as "busy".
const MAX_BUSY_RETRIES: u32 = 50;

/// The wait a `Retry-After` header asks for — the server's hint in
/// seconds, capped so a benchmark doesn't sleep its wall-clock away
/// (same policy as `hre_svc::bench`).
fn retry_after_wait(header: Option<&str>) -> Duration {
    header
        .and_then(|v| v.parse::<u64>().ok())
        .map(|secs| Duration::from_secs(secs).min(Duration::from_millis(250)))
        .unwrap_or(Duration::from_millis(10))
        .max(Duration::from_millis(1))
}

/// Drives `opts.requests` requests at the router and gathers the report.
pub fn run_cluster_load(
    addr: &str,
    opts: &ClusterLoadOptions,
) -> std::io::Result<ClusterLoadReport> {
    if opts.bases.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "cluster load needs at least one base ring",
        ));
    }
    let next = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..opts.connections.max(1) {
        let addr = addr.to_string();
        let opts = opts.clone();
        let next = Arc::clone(&next);
        threads.push(std::thread::spawn(move || worker(&addr, &opts, &next)));
    }
    let mut report = ClusterLoadReport::default();
    for t in threads {
        let part = t.join().map_err(|_| std::io::Error::other("load thread panicked"))??;
        report.ok += part.ok;
        report.failed += part.failed;
        report.cache_hits += part.cache_hits;
        report.retried_busy += part.retried_busy;
        report.gave_up_busy += part.gave_up_busy;
        report.errors += part.errors;
        report.latencies_us.extend(part.latencies_us);
        for (backend, n) in part.by_backend {
            *report.by_backend.entry(backend).or_insert(0) += n;
        }
    }
    report.wall = started.elapsed();
    report.latencies_us.sort_unstable();
    Ok(report)
}

/// One connection's share of the load.
fn worker(
    addr: &str,
    opts: &ClusterLoadOptions,
    next: &AtomicU64,
) -> std::io::Result<ClusterLoadReport> {
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    let mut part = ClusterLoadReport::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= opts.requests {
            return Ok(part);
        }
        let base = &opts.bases[(i as usize) % opts.bases.len()];
        let body = if opts.rotate {
            let mut labels = base.labels.clone();
            let d = (i as usize) % labels.len();
            labels.rotate_left(d);
            ElectRequest { labels, ..base.clone() }.to_json()
        } else {
            base.to_json()
        };
        // Retry 503s honoring Retry-After; reconnect on transport
        // errors (the router stays up through backend chaos, so a few
        // reconnect attempts ride out any blip).
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let t0 = Instant::now();
            let resp = match client.post_json("/elect", &body) {
                Ok(r) => r,
                Err(_) if attempts <= 3 => {
                    std::thread::sleep(Duration::from_millis(5));
                    client = Client::connect(addr, Duration::from_secs(10))?;
                    continue;
                }
                Err(_) => {
                    part.errors += 1;
                    break;
                }
            };
            match resp.status {
                200 | 422 => {
                    part.latencies_us.push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
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
                    break;
                }
                503 if attempts <= MAX_BUSY_RETRIES => {
                    part.retried_busy += 1;
                    std::thread::sleep(retry_after_wait(resp.header("retry-after")));
                }
                503 => {
                    part.gave_up_busy += 1;
                    break;
                }
                _ => {
                    part.errors += 1;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bases_are_rejected() {
        let opts =
            ClusterLoadOptions { connections: 1, requests: 1, bases: Vec::new(), rotate: false };
        assert!(run_cluster_load("127.0.0.1:1", &opts).is_err());
    }

    #[test]
    fn report_math_holds() {
        let mut r = ClusterLoadReport {
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
}
