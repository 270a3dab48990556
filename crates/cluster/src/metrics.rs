//! Cluster-level metrics and the router's `/metrics` renderer.
//!
//! Naming follows the workspace's Prometheus conventions from day one
//! (this crate has no legacy names to alias): every series is
//! `hre_cluster_*`, counters end in `_total`, and times are `_seconds`
//! in base units. Per-backend series carry a `backend="host:port"`
//! label; breaker state is a gauge encoded 0 = closed, 1 = open,
//! 2 = half-open alongside cumulative transition counters.
//!
//! Per-backend counters live inside each [`BackendSlot`] (not in
//! [`ClusterMetrics`]): since the control plane made the backend set
//! dynamic, a backend's counters must travel with its slot across
//! topology swaps rather than sit in a fixed-size vector indexed by a
//! configuration order that no longer exists. [`ClusterMetrics`] keeps
//! only the front-door aggregates, which survive every reconfiguration.
//!
//! The per-backend latency histograms double as the input to the
//! **adaptive hedge threshold**: [`BackendSlot::hedge_threshold`] reads
//! a backend's observed p95 — linearly interpolated within the covering
//! log₂ bucket ([`HistSnapshot::quantile_us`]), not rounded to a bucket
//! edge — and hedges at `max(hedge_min, 2 × p95)`. A backend that is
//! normally fast gets hedged quickly when it stalls, a backend that is
//! normally slow is not hedged prematurely, and the threshold tracks
//! the true p95 to within one bucket's interpolation error instead of
//! quantizing to a power of two (which mis-timed hedges by up to 2×).

use crate::topology::{BackendSlot, Topology};
use hre_runtime::trace::Stage;
use hre_runtime::{render_prometheus_histogram, HistSnapshot, Log2Histogram};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Counters and latency for one backend, as seen from the router.
/// Owned by the backend's [`BackendSlot`] so it survives topology swaps.
#[derive(Debug, Default)]
pub struct BackendMetrics {
    /// Proxied requests attempted against this backend (live + hedge).
    pub requests: AtomicU64,
    /// Attempts that failed at the transport level.
    pub errors: AtomicU64,
    /// Attempts answered `503 busy` (backend alive, queue full).
    pub busy: AtomicU64,
    /// Hedged duplicates fired *because this backend* stalled.
    pub hedges: AtomicU64,
    /// Requests rerouted away from this backend (breaker open or
    /// transport error) to a later ring position.
    pub failovers: AtomicU64,
    /// Latency of completed attempts against this backend.
    pub latency: Log2Histogram,
}

/// The front-door aggregates the router exposes on `GET /metrics`.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    /// Client-facing requests accepted by the front door.
    pub requests: AtomicU64,
    /// Client-facing requests that exhausted every backend (502).
    pub request_errors: AtomicU64,
    /// Hedged duplicates whose response won the race.
    pub hedge_wins: AtomicU64,
    /// Topology config pushes applied.
    pub reconfigures: AtomicU64,
    /// Topology config pushes refused as stale-epoch.
    pub stale_configs: AtomicU64,
    /// `POST /elect/batch` requests accepted by the front door.
    pub batch_requests: AtomicU64,
    /// Entries across all accepted batch requests.
    pub batch_entries: AtomicU64,
    /// Shard sub-batches forwarded to backends.
    pub batch_fanout: AtomicU64,
    /// Batch entries answered with a sub-batch-level error document
    /// (their shard's backends were unreachable or out of budget).
    pub batch_entry_errors: AtomicU64,
    /// Client-facing TCP connections currently open (gauge).
    pub open_connections: AtomicI64,
    /// `epoll_wait` returns on the reactor thread.
    pub reactor_wakeups: AtomicU64,
    /// Hedged duplicates currently in flight (gauge): incremented when a
    /// hedge launches, decremented when that attempt resolves or is
    /// abandoned. Reconciles to 0 at rest; a nonzero value is reactor
    /// state, never a parked thread.
    pub hedges_inflight: AtomicI64,
    /// End-to-end front-door latency (accept to response).
    pub request_latency: Log2Histogram,
}

impl ClusterMetrics {
    /// Fresh aggregates, all zero.
    pub fn new() -> ClusterMetrics {
        ClusterMetrics::default()
    }

    /// Bumps a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition against one topology
    /// snapshot; `stages` is the flight recorder's per-stage histograms.
    pub fn render_prometheus(
        &self,
        topology: &Topology,
        stages: &[(Stage, HistSnapshot)],
    ) -> String {
        let slots: &[Arc<BackendSlot>] = &topology.slots;
        let mut out = String::with_capacity(8192);

        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        };
        counter(
            "hre_cluster_requests_total",
            "client-facing requests accepted by the router",
            self.requests.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_request_errors_total",
            "client-facing requests that exhausted every backend",
            self.request_errors.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_hedge_wins_total",
            "hedged duplicates whose response won the race",
            self.hedge_wins.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_reconfigures_total",
            "topology config pushes applied",
            self.reconfigures.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_stale_configs_total",
            "topology config pushes refused as stale-epoch",
            self.stale_configs.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_batch_requests_total",
            "POST /elect/batch requests accepted by the router",
            self.batch_requests.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_batch_entries_total",
            "entries across all accepted batch requests",
            self.batch_entries.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_batch_fanout_total",
            "shard sub-batches forwarded to backends",
            self.batch_fanout.load(Ordering::Relaxed),
        );
        counter(
            "hre_cluster_batch_entry_errors_total",
            "batch entries answered with a sub-batch-level error",
            self.batch_entry_errors.load(Ordering::Relaxed),
        );
        // Cross-daemon serving-core series: the same names the service
        // daemon exports, so one dashboard covers both scrape targets.
        counter(
            "hre_reactor_wakeups_total",
            "epoll_wait returns on the reactor thread",
            self.reactor_wakeups.load(Ordering::Relaxed),
        );
        let mut gauge = |name: &str, help: &str, value: i64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
        };
        gauge(
            "hre_open_connections",
            "client-facing TCP connections currently open",
            self.open_connections.load(Ordering::Relaxed).max(0),
        );
        gauge(
            "hre_hedges_inflight",
            "hedged duplicates currently in flight",
            self.hedges_inflight.load(Ordering::Relaxed).max(0),
        );

        let labeled = |out: &mut String, name: &str, help: &str, kind: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };
        let series = |out: &mut String, name: &str, backend: &str, value: u64| {
            out.push_str(&format!("{name}{{backend=\"{backend}\"}} {value}\n"));
        };

        labeled(
            &mut out,
            "hre_cluster_backend_requests_total",
            "proxied attempts per backend (live and hedged)",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_backend_requests_total",
                s.addr(),
                s.metrics.requests.load(Ordering::Relaxed),
            );
        }
        labeled(
            &mut out,
            "hre_cluster_backend_errors_total",
            "transport-level failures per backend",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_backend_errors_total",
                s.addr(),
                s.metrics.errors.load(Ordering::Relaxed),
            );
        }
        labeled(
            &mut out,
            "hre_cluster_backend_busy_total",
            "503-busy answers per backend",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_backend_busy_total",
                s.addr(),
                s.metrics.busy.load(Ordering::Relaxed),
            );
        }
        labeled(
            &mut out,
            "hre_cluster_backend_hedges_total",
            "hedged duplicates fired because this backend stalled",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_backend_hedges_total",
                s.addr(),
                s.metrics.hedges.load(Ordering::Relaxed),
            );
        }
        labeled(
            &mut out,
            "hre_cluster_backend_failovers_total",
            "requests rerouted away from this backend",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_backend_failovers_total",
                s.addr(),
                s.metrics.failovers.load(Ordering::Relaxed),
            );
        }

        labeled(
            &mut out,
            "hre_cluster_breaker_state",
            "circuit breaker state (0=closed, 1=open, 2=half-open)",
            "gauge",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_breaker_state",
                s.addr(),
                s.breaker.peek_state().as_gauge(),
            );
        }
        labeled(
            &mut out,
            "hre_cluster_breaker_opens_total",
            "times the breaker tripped open",
            "counter",
        );
        for s in slots {
            series(&mut out, "hre_cluster_breaker_opens_total", s.addr(), s.breaker.opened_total());
        }
        labeled(
            &mut out,
            "hre_cluster_breaker_half_opens_total",
            "half-open probes admitted",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_breaker_half_opens_total",
                s.addr(),
                s.breaker.half_opened_total(),
            );
        }
        labeled(
            &mut out,
            "hre_cluster_breaker_closes_total",
            "times the breaker recovered to closed",
            "counter",
        );
        for s in slots {
            series(
                &mut out,
                "hre_cluster_breaker_closes_total",
                s.addr(),
                s.breaker.closed_total(),
            );
        }

        // The topology generation, for dashboards and the E23 gate.
        out.push_str(&format!(
            "# HELP hre_cluster_epoch control-plane epoch of the active topology\n\
             # TYPE hre_cluster_epoch gauge\nhre_cluster_epoch {}\n",
            topology.epoch
        ));
        out.push_str(&format!(
            "# HELP hre_cluster_backends number of backends in the active topology\n\
             # TYPE hre_cluster_backends gauge\nhre_cluster_backends {}\n",
            slots.len()
        ));

        // Histograms go through the shared renderer in `hre_runtime` so
        // the `le` edges match the service's families exactly.
        render_prometheus_histogram(
            &mut out,
            "hre_cluster_request_latency_seconds",
            "end-to-end latency of client-facing requests",
            None,
            &self.request_latency.snapshot(),
        );
        for s in slots {
            render_prometheus_histogram(
                &mut out,
                "hre_cluster_backend_latency_seconds",
                "latency of proxied attempts per backend",
                Some(("backend", s.addr())),
                &s.metrics.latency.snapshot(),
            );
        }
        // Per-stage latencies from the flight recorder — same family
        // name the service exports (one cross-daemon vocabulary,
        // distinguished by scrape target).
        for (stage, snap) in stages {
            render_prometheus_histogram(
                &mut out,
                "hre_stage_seconds",
                "time spent per request stage, from flight-recorder spans",
                Some(("stage", stage.as_str())),
                snap,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ClusterConfig;
    use std::time::Duration;

    fn topo() -> Topology {
        Topology::initial(&ClusterConfig {
            backends: vec!["127.0.0.1:1001".into(), "127.0.0.1:1002".into()],
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn hedge_threshold_tracks_p95_with_a_floor() {
        let t = topo();
        let floor = Duration::from_millis(5);
        // Empty histogram: the floor wins.
        assert_eq!(t.slots[0].hedge_threshold(floor), floor);
        // 100 fast samples (~100 µs): p95 ≈ 124 µs interpolated, 2× is
        // still under the floor.
        for _ in 0..100 {
            t.slots[0].metrics.latency.record(Duration::from_micros(100));
        }
        assert_eq!(t.slots[0].hedge_threshold(floor), floor);
        // Shift the tail: 100 more at ~20 ms. Rank 190 of 200 falls in
        // bucket [16384, 32768) µs as its 90th of 100 samples, so the
        // midpoint-interpolated p95 is 16384 + 16384·179/200 = 31047 µs.
        for _ in 0..100 {
            t.slots[0].metrics.latency.record(Duration::from_millis(20));
        }
        let thresh = t.slots[0].hedge_threshold(floor);
        assert_eq!(thresh, Duration::from_micros(2 * 31_047), "{thresh:?}");
        // Backend 1 is untouched.
        assert_eq!(t.slots[1].hedge_threshold(floor), floor);
    }

    #[test]
    fn hedge_threshold_on_sparse_histograms_matches_exact_percentiles() {
        // Regression for the quantile edge cases (single sample, p100,
        // overflow bucket): the old estimator returned a bucket's
        // *exclusive* upper edge for these shapes, so a backend with one
        // observed ~20 ms request was hedged as if its p95 were 32.8 ms
        // — 64% above anything it ever served. The exact p95 of a
        // one-sample population is that sample; the estimate must stay
        // inside the covering bucket, strictly below the edge.
        let floor = Duration::from_millis(5);
        let t = topo();
        t.slots[0].metrics.latency.record(Duration::from_millis(20)); // bucket [16384, 32768) µs
        let thresh = t.slots[0].hedge_threshold(floor);
        assert!(
            thresh < Duration::from_micros(2 * 32_768),
            "single-sample p95 leaked to the bucket edge: {thresh:?}"
        );
        assert_eq!(thresh, Duration::from_micros(2 * 24_576), "{thresh:?}"); // bucket midpoint

        // Overflow bucket: one pathological 100 s request. The nominal
        // clamp bucket is [2^23, 2^24) µs; the old edge rule answered
        // exactly 2^24 µs, outside it.
        t.slots[1].metrics.latency.record(Duration::from_secs(100));
        let thresh = t.slots[1].hedge_threshold(floor);
        assert!(
            thresh < Duration::from_micros(2 * (1 << 24)),
            "clamp-bucket p95 leaked to the nominal edge: {thresh:?}"
        );
        assert_eq!(thresh, Duration::from_micros(2 * 12_582_912), "{thresh:?}");
    }

    #[test]
    fn interpolated_p95_beats_the_bucket_edge_against_exact_percentiles() {
        // Regression for the hedge mis-timing: a log₂ histogram's p95
        // rounded to a bucket edge is off by up to 2×; interpolation
        // must land strictly closer to the exact sample percentile.
        // Bimodal load: 90 fast (100 µs), 10 slow (20 ms).
        let samples: Vec<u64> =
            std::iter::repeat_n(100, 90).chain(std::iter::repeat_n(20_000, 10)).collect();
        // Exact p95 via the same nearest-rank rule the bench oracle
        // (`LoadReport::percentile_us`) uses on its sorted samples.
        let exact = {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = (0.95 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        assert_eq!(exact, 20_000);

        let h = Log2Histogram::default();
        for &us in &samples {
            h.record_us(us);
        }
        let snap = h.snapshot();
        let interpolated = snap.quantile_us(0.95);
        // The covering bucket is [16384, 32768) µs; the old estimator
        // answered the upper edge 32768 outright.
        let upper_edge = 32_768u64;
        assert!(
            (16_384..32_768).contains(&interpolated),
            "estimate must stay inside the covering bucket: {interpolated}"
        );
        assert!(
            interpolated.abs_diff(exact) < upper_edge.abs_diff(exact),
            "interpolated {interpolated} must beat the edge {upper_edge} against exact {exact}"
        );

        // And the threshold built on it is what the router will use.
        let t = topo();
        for &us in &samples {
            t.slots[0].metrics.latency.record_us(us);
        }
        assert_eq!(
            t.slots[0].hedge_threshold(Duration::from_millis(5)),
            Duration::from_micros(2 * interpolated)
        );
    }

    #[test]
    fn renders_prometheus_with_conventions_and_labels() {
        let m = ClusterMetrics::new();
        let t = topo();
        ClusterMetrics::inc(&m.requests);
        ClusterMetrics::inc(&t.slots[0].metrics.requests);
        ClusterMetrics::inc(&t.slots[1].metrics.hedges);
        m.request_latency.record(Duration::from_micros(300));
        t.slots[0].metrics.latency.record(Duration::from_micros(300));
        t.slots[1].breaker.record_failure();
        t.slots[1].breaker.record_failure();
        t.slots[1].breaker.record_failure();

        let stage_hist = Log2Histogram::default();
        stage_hist.record(Duration::from_micros(40));
        let stages = vec![(Stage::Attempt, stage_hist.snapshot())];
        let text = m.render_prometheus(&t, &stages);
        assert!(text.contains("hre_cluster_requests_total 1\n"), "{text}");
        assert!(
            text.contains("hre_cluster_backend_requests_total{backend=\"127.0.0.1:1001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("hre_cluster_backend_hedges_total{backend=\"127.0.0.1:1002\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("hre_cluster_breaker_state{backend=\"127.0.0.1:1001\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("hre_cluster_breaker_state{backend=\"127.0.0.1:1002\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("hre_cluster_breaker_opens_total{backend=\"127.0.0.1:1002\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("hre_cluster_epoch 0\n"), "{text}");
        assert!(text.contains("hre_cluster_backends 2\n"), "{text}");
        // Histogram in base seconds: 300 µs lands in le=512µs = 0.000512 s.
        assert!(
            text.contains("hre_cluster_request_latency_seconds_bucket{le=\"0.000512\"} 1"),
            "{text}"
        );
        assert!(text.contains("hre_cluster_request_latency_seconds_sum 0.0003\n"), "{text}");
        assert!(text.contains("hre_cluster_request_latency_seconds_count 1\n"), "{text}");
        assert!(
            text.contains(
                "hre_cluster_backend_latency_seconds_bucket{backend=\"127.0.0.1:1001\",le=\"+Inf\"} 1"
            ),
            "{text}"
        );
        // Per-stage histograms from the flight recorder.
        assert!(
            text.contains("hre_stage_seconds_bucket{stage=\"attempt\",le=\"0.000064\"} 1\n"),
            "{text}"
        );
        // Every exported family obeys the conventions, checked with the
        // same helper the service exposes (and CI greps live scrapes
        // with the equivalent shell logic).
        let bad = hre_svc::naming_violations(&text);
        assert!(bad.is_empty(), "non-conforming metric names: {bad:?}");
    }
}
