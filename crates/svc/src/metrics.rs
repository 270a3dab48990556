//! Service-level metrics and the `/metrics` Prometheus text renderer.
//!
//! Counters are plain atomics (the service is std-only); the latency
//! histogram is the shared [`hre_runtime::Log2Histogram`] also used by
//! the TCP transport's RTT tracking. Rendering follows the Prometheus
//! text exposition format: `# HELP`/`# TYPE` preamble, cumulative `le`
//! buckets for histograms, and gauges for instantaneous values.
//!
//! ## Naming conventions
//!
//! Every exported name follows the Prometheus conventions the cluster
//! metrics use: `hre_` prefix, counters end in `_total` (with the unit
//! or outcome *before* the suffix, e.g. `hre_svc_requests_elect_ok_total`),
//! and time series use `_seconds` in base units. The pre-audit aliases
//! (`hre_svc_requests_total_*`, the `_microseconds` series) were kept
//! for one deprecation release and are now gone; the
//! `conforms_to_naming_conventions` test and a CI grep over a live
//! scrape keep regressions out.

use crate::api::AlgoId;
use crate::cache::CacheSnapshot;
use hre_runtime::trace::Stage;
use hre_runtime::{render_prometheus_histogram, HistSnapshot, Log2Histogram};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// All counters the daemon exposes on `/metrics`.
#[derive(Debug, Default)]
pub struct SvcMetrics {
    /// `POST /elect` requests answered 200.
    pub elect_ok: AtomicU64,
    /// `POST /elect` requests answered 422 (election ran, spec violated).
    pub elect_failed: AtomicU64,
    /// Requests rejected 400 (unparseable HTTP or JSON).
    pub bad_requests: AtomicU64,
    /// Requests rejected 503 (job queue full — backpressure).
    pub rejected_busy: AtomicU64,
    /// Requests answered 504 (deadline expired while queued or running).
    pub deadline_expired: AtomicU64,
    /// Jobs a worker discarded without running because their deadline
    /// had already passed when dequeued.
    pub jobs_dropped_stale: AtomicU64,
    /// `GET /healthz` requests.
    pub health_checks: AtomicU64,
    /// `GET /metrics` requests.
    pub metrics_scrapes: AtomicU64,
    /// Requests answered 404/405.
    pub not_found: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// `POST /elect/batch` requests answered (any status).
    pub batch_requests: AtomicU64,
    /// Election entries served inside batch responses (each advances
    /// the same per-entry counters a single request would).
    pub batch_entries: AtomicU64,
    /// Batch entries answered from the cache without running an engine.
    pub batch_entry_hits: AtomicU64,
    /// Elections actually executed by an engine (cache misses that ran),
    /// one slot per [`AlgoId::ALL`] entry — exported as the labeled
    /// `hre_elections_total{algo="..."}` family.
    pub elections_by_algo: [AtomicU64; AlgoId::ALL.len()],
    /// Engine execution time per algorithm (same slot order) — exported
    /// as the labeled `hre_election_run_seconds{algo="..."}` histograms.
    pub election_run_by_algo: [Log2Histogram; AlgoId::ALL.len()],
    /// End-to-end latency of `/elect` requests (admission to response).
    pub elect_latency: Log2Histogram,
    /// Jobs currently queued (gauge).
    pub queue_depth: AtomicI64,
    /// Workers currently running a job (gauge).
    pub workers_busy: AtomicI64,
    /// Total microseconds workers spent running jobs (for utilization).
    pub worker_busy_us: AtomicU64,
    /// TCP connections currently open (gauge).
    pub open_connections: AtomicI64,
    /// `epoll_wait` returns on the reactor thread.
    pub reactor_wakeups: AtomicU64,
    /// Hedged requests currently in flight (gauge). Always 0 in the
    /// single-node daemon — the series exists so svc and cluster
    /// dashboards share one vocabulary; the router maintains it.
    pub hedges_inflight: AtomicI64,
}

impl SvcMetrics {
    /// Bumps a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `/elect` request latency.
    pub fn observe_elect(&self, latency: Duration) {
        self.elect_latency.record(latency);
    }

    /// Records one engine execution (a cache miss that actually ran),
    /// labeled by algorithm.
    pub fn observe_election_run(&self, algo: AlgoId, wall: Duration) {
        self.elections_by_algo[algo.index()].fetch_add(1, Ordering::Relaxed);
        self.election_run_by_algo[algo.index()].record(wall);
    }

    /// Renders the Prometheus text exposition, folding in the cache
    /// counters and static worker-pool facts.
    pub fn render_prometheus(
        &self,
        cache: &CacheSnapshot,
        workers: usize,
        queue_cap: usize,
        stages: &[(Stage, HistSnapshot)],
    ) -> String {
        fn counter(out: &mut String, name: &str, help: &str, value: u64) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        }
        let mut out = String::with_capacity(8192);
        counter(
            &mut out,
            "hre_svc_requests_elect_ok_total",
            "POST /elect requests answered 200",
            self.elect_ok.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_elect_failed_total",
            "POST /elect requests answered 422 (spec violated)",
            self.elect_failed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_bad_total",
            "requests answered 400",
            self.bad_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_rejected_busy_total",
            "requests answered 503 because the job queue was full",
            self.rejected_busy.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_deadline_expired_total",
            "requests answered 504 after their deadline passed",
            self.deadline_expired.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_jobs_dropped_stale_total",
            "jobs discarded unexecuted because their deadline had passed",
            self.jobs_dropped_stale.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_healthz_total",
            "GET /healthz requests",
            self.health_checks.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_metrics_total",
            "GET /metrics requests",
            self.metrics_scrapes.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_requests_not_found_total",
            "requests answered 404 or 405",
            self.not_found.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_svc_connections_total",
            "TCP connections accepted",
            self.connections.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_batch_requests_total",
            "POST /elect/batch requests answered",
            self.batch_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_batch_entries_total",
            "election entries served inside batch responses",
            self.batch_entries.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_batch_entry_hits_total",
            "batch entries answered from the result cache",
            self.batch_entry_hits.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hre_reactor_wakeups_total",
            "epoll_wait returns on the reactor thread",
            self.reactor_wakeups.load(Ordering::Relaxed),
        );
        // The algorithm-zoo family: one labeled series per engine, all
        // slots always exported so dashboards see zeros, not gaps.
        out.push_str(
            "# HELP hre_elections_total elections executed by an engine (cache misses), \
             by algorithm\n# TYPE hre_elections_total counter\n",
        );
        for algo in AlgoId::ALL {
            out.push_str(&format!(
                "hre_elections_total{{algo=\"{}\"}} {}\n",
                algo.name(),
                self.elections_by_algo[algo.index()].load(Ordering::Relaxed)
            ));
        }
        counter(&mut out, "hre_svc_cache_hits_total", "result cache hits", cache.hits);
        counter(&mut out, "hre_svc_cache_misses_total", "result cache misses", cache.misses);
        counter(&mut out, "hre_svc_cache_inserts_total", "result cache inserts", cache.inserts);
        counter(
            &mut out,
            "hre_svc_cache_evictions_total",
            "result cache evictions",
            cache.evictions,
        );
        let busy_us = self.worker_busy_us.load(Ordering::Relaxed);
        out.push_str(&format!(
            "# HELP hre_svc_worker_busy_seconds_total cumulative seconds workers spent \
             executing jobs\n# TYPE hre_svc_worker_busy_seconds_total counter\n\
             hre_svc_worker_busy_seconds_total {}\n",
            busy_us as f64 / 1e6
        ));

        let mut gauge = |name: &str, help: &str, value: i64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
        };
        gauge(
            "hre_svc_queue_depth",
            "jobs currently waiting in the bounded queue",
            self.queue_depth.load(Ordering::Relaxed).max(0),
        );
        gauge(
            "hre_svc_workers_busy",
            "workers currently executing a job",
            self.workers_busy.load(Ordering::Relaxed).max(0),
        );
        gauge("hre_svc_workers", "size of the worker pool", workers as i64);
        gauge("hre_svc_queue_capacity", "capacity of the bounded job queue", queue_cap as i64);
        gauge("hre_svc_cache_entries", "entries resident in the result cache", cache.len as i64);
        gauge(
            "hre_open_connections",
            "TCP connections currently open",
            self.open_connections.load(Ordering::Relaxed).max(0),
        );
        gauge(
            "hre_hedges_inflight",
            "hedged requests currently in flight (always 0 in the single-node daemon)",
            self.hedges_inflight.load(Ordering::Relaxed).max(0),
        );

        // Latency histogram in base seconds (shared renderer — audited
        // `le` edges).
        let snap = self.elect_latency.snapshot();
        render_prometheus_histogram(
            &mut out,
            "hre_svc_elect_latency_seconds",
            "end-to-end latency of /elect requests",
            None,
            &snap,
        );

        // Engine execution time, labeled by algorithm (only engines that
        // actually ran — an all-zero histogram is noise, unlike the
        // counter family above where zeros carry meaning).
        for algo in AlgoId::ALL {
            let algo_snap = self.election_run_by_algo[algo.index()].snapshot();
            if algo_snap.count == 0 {
                continue;
            }
            render_prometheus_histogram(
                &mut out,
                "hre_election_run_seconds",
                "engine execution time per election, by algorithm",
                Some(("algo", algo.name())),
                &algo_snap,
            );
        }

        // Per-stage latencies derived from the flight recorder's spans
        // (same family name on the cluster router: one cross-daemon
        // vocabulary, distinguished by scrape target).
        for (stage, stage_snap) in stages {
            render_prometheus_histogram(
                &mut out,
                "hre_stage_seconds",
                "time spent per request stage, from flight-recorder spans",
                Some(("stage", stage.as_str())),
                stage_snap,
            );
        }
        out
    }
}

/// Checks one Prometheus exposition against the repo's naming
/// conventions: every `# TYPE` name carries the `hre_` prefix, counters
/// end `_total`, histograms end `_seconds`, and gauges are instantaneous
/// values with no unit suffix to get wrong. Labeled sample lines (e.g.
/// `hre_elections_total{algo="bk"} 3`) must belong to a family declared
/// by a `# TYPE` line — a labeled series can't slip past the convention
/// check by never declaring itself. Returns the offending lines.
///
/// Shared by the svc and cluster conformance tests (and mirrored by the
/// CI grep over live scrapes) so a deprecated-style alias can't sneak
/// back into either daemon.
pub fn naming_violations(exposition: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let mut declared = std::collections::HashSet::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix("# TYPE ") else { continue };
        let mut parts = rest.split_whitespace();
        let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
            bad.push(line.to_string());
            continue;
        };
        declared.insert(name.to_string());
        let ok = name.starts_with("hre_")
            && match kind {
                "counter" => name.ends_with("_total"),
                "histogram" => name.ends_with("_seconds"),
                "gauge" => !name.ends_with("_total") && !name.ends_with("_seconds"),
                _ => false,
            };
        if !ok {
            bad.push(line.to_string());
        }
    }
    for line in exposition.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap_or("");
        // Histogram samples append _bucket/_sum/_count to the family name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .filter(|f| declared.contains(*f))
            .unwrap_or(name);
        if !declared.contains(family) {
            bad.push(line.to_string());
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_text() -> String {
        let m = SvcMetrics::default();
        SvcMetrics::inc(&m.elect_ok);
        SvcMetrics::inc(&m.elect_ok);
        SvcMetrics::inc(&m.rejected_busy);
        m.queue_depth.store(3, Ordering::Relaxed);
        m.observe_election_run(AlgoId::Bk, Duration::from_micros(80));
        m.observe_elect(Duration::from_micros(100));
        m.observe_elect(Duration::from_micros(5_000));
        let cache = CacheSnapshot { hits: 7, misses: 2, inserts: 2, evictions: 1, len: 2 };
        let stage_hist = Log2Histogram::default();
        stage_hist.record(Duration::from_micros(50));
        let stages = vec![(Stage::Execute, stage_hist.snapshot())];
        m.render_prometheus(&cache, 4, 256, &stages)
    }

    #[test]
    fn renders_prometheus_text() {
        let text = sample_text();
        assert!(text.contains("hre_svc_requests_elect_ok_total 2\n"), "{text}");
        assert!(text.contains("hre_svc_requests_rejected_busy_total 1\n"), "{text}");
        assert!(text.contains("hre_svc_worker_busy_seconds_total 0\n"), "{text}");
        assert!(text.contains("hre_svc_cache_hits_total 7\n"), "{text}");
        assert!(text.contains("hre_svc_queue_depth 3\n"), "{text}");
        assert!(text.contains("hre_svc_workers 4\n"), "{text}");
        // Histogram in base seconds.
        assert!(text.contains("# TYPE hre_svc_elect_latency_seconds histogram"), "{text}");
        assert!(text.contains("hre_svc_elect_latency_seconds_count 2\n"), "{text}");
        assert!(
            text.contains("hre_svc_elect_latency_seconds_bucket{le=\"0.000128\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("hre_svc_elect_latency_seconds_sum 0.0051\n"), "{text}");
        // Per-stage histograms from the flight recorder.
        assert!(text.contains("# TYPE hre_stage_seconds histogram"), "{text}");
        assert!(
            text.contains("hre_stage_seconds_bucket{stage=\"execute\",le=\"0.000064\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("hre_stage_seconds_count{stage=\"execute\"} 1\n"), "{text}");
    }

    #[test]
    fn elections_are_labeled_by_algorithm() {
        let text = sample_text();
        // The counter family exports every registered engine, zeros included.
        assert!(text.contains("# TYPE hre_elections_total counter"), "{text}");
        assert!(text.contains("hre_elections_total{algo=\"bk\"} 1\n"), "{text}");
        assert!(text.contains("hre_elections_total{algo=\"ak\"} 0\n"), "{text}");
        assert!(text.contains("hre_elections_total{algo=\"max-uid\"} 0\n"), "{text}");
        assert!(text.contains("hre_elections_total{algo=\"content-oblivious\"} 0\n"), "{text}");
        // The run-time histogram only for engines that actually ran.
        assert!(text.contains("# TYPE hre_election_run_seconds histogram"), "{text}");
        assert!(text.contains("hre_election_run_seconds_count{algo=\"bk\"} 1\n"), "{text}");
        assert!(!text.contains("{algo=\"ak\"} 0\nhre_election_run_seconds_sum"), "{text}");
        assert!(!text.contains("hre_election_run_seconds_count{algo=\"ak\"}"), "{text}");
    }

    #[test]
    fn labeled_series_must_be_declared() {
        // A labeled sample without a # TYPE declaration is a violation…
        let bad = naming_violations("hre_elections_total{algo=\"ak\"} 3\n");
        assert_eq!(bad.len(), 1, "{bad:?}");
        // …and declared labeled families (including histogram suffixes) pass.
        let ok = naming_violations(
            "# TYPE hre_elections_total counter\n\
             hre_elections_total{algo=\"ak\"} 3\n\
             # TYPE hre_election_run_seconds histogram\n\
             hre_election_run_seconds_bucket{algo=\"ak\",le=\"+Inf\"} 1\n\
             hre_election_run_seconds_sum{algo=\"ak\"} 0.1\n\
             hre_election_run_seconds_count{algo=\"ak\"} 1\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    /// The deprecation window is over: the pre-audit alias names must be
    /// gone and must not come back.
    #[test]
    fn deprecated_aliases_are_gone() {
        let text = sample_text();
        assert!(!text.contains("hre_svc_requests_total_"), "{text}");
        assert!(!text.contains("microseconds"), "{text}");
        assert!(!text.contains("deprecated"), "{text}");
    }

    #[test]
    fn conforms_to_naming_conventions() {
        let text = sample_text();
        let bad = naming_violations(&text);
        assert!(bad.is_empty(), "non-conforming metric names: {bad:?}");
    }

    #[test]
    fn naming_violations_flags_offenders() {
        let bad = naming_violations(
            "# TYPE hre_good_total counter\n\
             # TYPE hre_svc_requests_total_elect_ok counter\n\
             # TYPE hre_latency_microseconds histogram\n\
             # TYPE svc_no_prefix gauge\n",
        );
        assert_eq!(bad.len(), 3, "{bad:?}");
    }
}
