//! Per-backend health: the three-state circuit breaker.
//!
//! Each backend gets one [`Breaker`]. Transport-level failures (connect
//! refused, read timeout, failed `GET /healthz` probe) feed
//! [`Breaker::record_failure`]; once `failure_threshold` land
//! *consecutively*, the breaker **opens** and the router stops sending
//! the backend live traffic, failing over to the next ring position
//! instead. While open, probes are paced by the shared
//! [`hre_runtime::Backoff`] (the same capped-exponential policy as
//! `hre-net`'s reconnect loop): when a probe comes due the breaker goes
//! **half-open**, admitting exactly that probe — success closes it,
//! failure re-opens it with a longer wait.
//!
//! Application-level backpressure (a backend answering `503 busy`) does
//! **not** count as a failure: the backend is alive and telling us so.
//! The router routes around a busy backend but leaves its breaker
//! closed.
//!
//! All transitions are tallied (opened/half-opened/closed counters) so
//! `GET /metrics` can expose breaker churn, and so tests can assert "the
//! breaker opened, then probed" without racing the probe sweep. Every
//! recorded failure is tallied too ([`Breaker::failures_total`]): the
//! simulator reconciles it against the failures it delivered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The observable state of a [`Breaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are refused until the next probe comes due.
    Open,
    /// Probing: one trial request is in flight; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for metrics and the `/cluster` document.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric encoding for the Prometheus state gauge
    /// (0 = closed, 1 = open, 2 = half-open).
    pub fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    backoff: hre_runtime::Backoff,
    /// When the next half-open probe is allowed (meaningful while open).
    probe_due: Instant,
}

/// A three-state circuit breaker for one backend.
pub struct Breaker {
    inner: Mutex<BreakerInner>,
    failure_threshold: u32,
    failures: AtomicU64,
    opened: AtomicU64,
    half_opened: AtomicU64,
    closed: AtomicU64,
}

impl Breaker {
    /// A closed breaker that trips after `failure_threshold` consecutive
    /// failures and then probes on a `probe_start`..=`probe_cap`
    /// capped-exponential schedule.
    pub fn new(failure_threshold: u32, probe_start: Duration, probe_cap: Duration) -> Breaker {
        let backoff = hre_runtime::Backoff::new(probe_start, probe_cap);
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                backoff,
                probe_due: Instant::now(),
            }),
            failure_threshold: failure_threshold.max(1),
            failures: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            half_opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        }
    }

    /// Current state (moves open → half-open if a probe has come due by
    /// `now`; observation is what admits the probe).
    pub fn state_at(&self, now: Instant) -> BreakerState {
        let mut inner = self.inner.lock().unwrap();
        if inner.state == BreakerState::Open && now >= inner.probe_due {
            inner.state = BreakerState::HalfOpen;
            self.half_opened.fetch_add(1, Ordering::Relaxed);
        }
        inner.state
    }

    /// The stored state, without admitting a probe even if one is due —
    /// for the metrics renderers, so a scrape has no routing side
    /// effects.
    pub fn peek_state(&self) -> BreakerState {
        self.inner.lock().unwrap().state
    }

    /// Whether a request (live or probe) may be sent to this backend at
    /// `now`. Closed and half-open admit; open refuses until the probe
    /// deadline, at which point the breaker half-opens and admits it.
    pub fn allows_request_at(&self, now: Instant) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// A request or probe succeeded: close the breaker, forget the
    /// failure streak, restart the probe schedule.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.consecutive_failures = 0;
        inner.backoff.reset();
        if inner.state != BreakerState::Closed {
            inner.state = BreakerState::Closed;
            self.closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A transport-level failure at `now`. In the closed state this
    /// counts toward the threshold; a half-open probe failure re-opens
    /// immediately with a longer wait.
    pub fn record_failure_at(&self, now: Instant) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = match inner.state {
            BreakerState::Closed => inner.consecutive_failures >= self.failure_threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            inner.state = BreakerState::Open;
            let wait = inner.backoff.advance();
            inner.probe_due = now + wait;
            self.opened.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`Breaker::record_failure_at`] as of now.
    pub fn record_failure(&self) {
        self.record_failure_at(Instant::now());
    }

    /// Force the breaker open immediately at `now`, regardless of the
    /// failure streak — the control plane declared this backend dead
    /// (missed heartbeats), so waiting for `failure_threshold` live
    /// requests to fail would send real traffic into a known hole. The
    /// probe schedule still runs: if the member comes back, the usual
    /// half-open probe closes the breaker.
    pub fn trip_at(&self, now: Instant) {
        let mut inner = self.inner.lock().unwrap();
        if inner.state != BreakerState::Open {
            inner.state = BreakerState::Open;
            let wait = inner.backoff.advance();
            inner.probe_due = now + wait;
            self.opened.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many failures have been recorded, in any state.
    pub fn failures_total(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// How many times the breaker has tripped open.
    pub fn opened_total(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// How many half-open probes have been admitted.
    pub fn half_opened_total(&self) -> u64 {
        self.half_opened.load(Ordering::Relaxed)
    }

    /// How many times the breaker has recovered to closed.
    pub fn closed_total(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_millis(80);

    #[test]
    fn trips_after_consecutive_failures_only() {
        let b = Breaker::new(3, START, CAP);
        let t0 = Instant::now();
        b.record_failure_at(t0);
        b.record_failure_at(t0);
        b.record_success(); // streak broken
        b.record_failure_at(t0);
        b.record_failure_at(t0);
        assert_eq!(b.state_at(t0), BreakerState::Closed);
        b.record_failure_at(t0);
        assert_eq!(b.state_at(t0), BreakerState::Open);
        assert_eq!(b.opened_total(), 1);
        assert!(!b.allows_request_at(t0));
        // The total counts every failure: the broken streak's and the
        // one that lands while open.
        b.record_failure_at(t0);
        assert_eq!(b.failures_total(), 6);
    }

    #[test]
    fn probes_on_the_backoff_schedule_and_reopens_on_failed_probe() {
        let b = Breaker::new(1, START, CAP);
        let t0 = Instant::now();
        b.record_failure_at(t0); // open; probe due at t0+10ms
        assert!(!b.allows_request_at(t0 + Duration::from_millis(9)));
        assert!(b.allows_request_at(t0 + Duration::from_millis(10)), "probe due");
        assert_eq!(b.half_opened_total(), 1);
        // Probe fails: re-open with the doubled wait (20ms).
        let t1 = t0 + Duration::from_millis(10);
        b.record_failure_at(t1);
        assert_eq!(b.state_at(t1), BreakerState::Open);
        assert_eq!(b.opened_total(), 2);
        assert!(!b.allows_request_at(t1 + Duration::from_millis(19)));
        assert!(b.allows_request_at(t1 + Duration::from_millis(20)));
        assert_eq!(b.half_opened_total(), 2);
    }

    #[test]
    fn successful_probe_closes_and_resets_the_schedule() {
        let b = Breaker::new(1, START, CAP);
        let mut t = Instant::now();
        // Fail through several probe rounds so the backoff has grown.
        for wait_ms in [10u64, 20, 40] {
            b.record_failure_at(t);
            t += Duration::from_millis(wait_ms);
            assert!(b.allows_request_at(t));
        }
        b.record_success();
        assert_eq!(b.state_at(t), BreakerState::Closed);
        assert_eq!(b.closed_total(), 1);
        // Next trip starts from the initial 10ms wait again.
        b.record_failure_at(t);
        assert!(!b.allows_request_at(t + Duration::from_millis(9)));
        assert!(b.allows_request_at(t + Duration::from_millis(10)));
    }

    #[test]
    fn trip_opens_immediately_and_probes_recover() {
        let b = Breaker::new(3, START, CAP);
        let t0 = Instant::now();
        b.trip_at(t0); // no failure streak needed
        assert_eq!(b.state_at(t0), BreakerState::Open);
        assert_eq!(b.opened_total(), 1);
        // Tripping an already-open breaker is a no-op.
        b.trip_at(t0);
        assert_eq!(b.opened_total(), 1);
        // The probe schedule still applies; a successful probe closes.
        assert!(b.allows_request_at(t0 + START));
        b.record_success();
        assert_eq!(b.state_at(t0 + START), BreakerState::Closed);
    }

    #[test]
    fn gauge_encoding_is_stable() {
        assert_eq!(BreakerState::Closed.as_gauge(), 0);
        assert_eq!(BreakerState::Open.as_gauge(), 1);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 2);
        assert_eq!(BreakerState::HalfOpen.as_str(), "half_open");
    }
}
