//! Time as a capability: the [`Clock`] trait, its wall-clock
//! implementation, and the virtual clock the deterministic-simulation
//! harness (`hre-dst`) advances by hand.
//!
//! Every daemon in the workspace measures time with [`Instant`] and
//! paces itself with sleeps. Both are pure *given a time source*:
//! `Instant` arithmetic and comparison never consult the OS, only
//! `Instant::now()` does. So the entire serving path becomes
//! simulation-ready by routing that single call through a trait object.
//! Production code takes a [`ClockHandle`] (defaulting to the real
//! clock, zero behavior change); the simulator hands the same code a
//! [`VirtualClock`] whose "now" is an epoch captured once plus an
//! atomic offset that only the simulation engine advances.
//!
//! Under a virtual clock, `sleep(d)` *jumps* time forward by `d`
//! instead of blocking: the single-threaded simulation engine is the
//! only driver, so a sleeping component is simply the next event.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The instant the process measures trace time from: elapsed zero of
/// every [`VirtualClock`] and of every flight recorder's span clock.
pub(crate) fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A source of monotonic time plus the ability to wait on it.
pub trait Clock: Send + Sync {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;

    /// Waits for `d` to pass on this clock. The real clock blocks the
    /// thread; a virtual clock advances itself and returns immediately.
    fn sleep(&self, d: Duration);
}

/// The wall clock: `Instant::now()` and `thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A cheaply clonable, config-friendly handle to a [`Clock`].
///
/// Exists so configuration structs can carry a clock while keeping
/// their `Clone`/`Debug` derives and `Default` impls (a bare
/// `Arc<dyn Clock>` has no `Debug` and no sensible default).
#[derive(Clone)]
pub struct ClockHandle(Arc<dyn Clock>);

impl ClockHandle {
    /// Wraps any clock implementation.
    pub fn new(clock: Arc<dyn Clock>) -> ClockHandle {
        ClockHandle(clock)
    }

    /// The wall clock.
    pub fn real() -> ClockHandle {
        ClockHandle(Arc::new(RealClock))
    }

    /// The current instant according to the wrapped clock.
    pub fn now(&self) -> Instant {
        self.0.now()
    }

    /// Waits for `d` on the wrapped clock.
    pub fn sleep(&self, d: Duration) {
        self.0.sleep(d)
    }
}

impl Default for ClockHandle {
    fn default() -> Self {
        ClockHandle::real()
    }
}

impl fmt::Debug for ClockHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClockHandle(..)")
    }
}

impl From<Arc<VirtualClock>> for ClockHandle {
    fn from(v: Arc<VirtualClock>) -> ClockHandle {
        ClockHandle(v)
    }
}

/// A simulated clock: the process's trace epoch plus an atomic
/// nanosecond offset, so a span recorded at one of its instants carries
/// its virtual time. `now()` returns
/// `epoch + offset` — a perfectly ordinary `Instant` that all existing
/// `Instant`-arithmetic code (breaker probe deadlines, queue
/// deadlines, heartbeat timeouts) consumes unchanged, except that time
/// only moves when the simulation advances it.
///
/// Offsets are monotone: [`VirtualClock::advance_to`] uses a
/// `fetch_max`, so concurrent advancers can never move time backwards.
pub struct VirtualClock {
    epoch: Instant,
    offset_ns: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at elapsed zero.
    pub fn new() -> Arc<VirtualClock> {
        Arc::new(VirtualClock { epoch: process_epoch(), offset_ns: AtomicU64::new(0) })
    }

    /// The instant this clock calls "elapsed zero".
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Virtual time elapsed since the epoch.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.offset_ns.load(Ordering::SeqCst))
    }

    /// Moves time forward by `d`; returns the new "now".
    pub fn advance(&self, d: Duration) -> Instant {
        let d_ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.offset_ns.fetch_add(d_ns, Ordering::SeqCst);
        self.epoch + Duration::from_nanos(prev.saturating_add(d_ns))
    }

    /// Moves time forward so that at least `elapsed` has passed since
    /// the epoch. Never moves time backwards.
    pub fn advance_to_elapsed(&self, elapsed: Duration) {
        let target = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.offset_ns.fetch_max(target, Ordering::SeqCst);
    }

    /// Moves time forward to `t` (an instant derived from this clock's
    /// own epoch). Instants before the epoch are clamped to it.
    pub fn advance_to(&self, t: Instant) {
        self.advance_to_elapsed(t.saturating_duration_since(self.epoch));
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.epoch + self.elapsed()
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_moves_forward() {
        let c = RealClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let v = VirtualClock::new();
        let t0 = v.now();
        assert_eq!(v.now(), t0, "no advance, no motion");
        v.advance(Duration::from_millis(250));
        assert_eq!(v.now() - t0, Duration::from_millis(250));
        assert_eq!(v.elapsed(), Duration::from_millis(250));
    }

    #[test]
    fn virtual_sleep_jumps_instead_of_blocking() {
        let v = VirtualClock::new();
        let wall = Instant::now();
        v.sleep(Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(1), "must not actually block");
        assert_eq!(v.elapsed(), Duration::from_secs(3600));
    }

    #[test]
    fn advance_to_is_monotone() {
        let v = VirtualClock::new();
        v.advance_to_elapsed(Duration::from_millis(100));
        v.advance_to_elapsed(Duration::from_millis(40)); // ignored: earlier
        assert_eq!(v.elapsed(), Duration::from_millis(100));
        let target = v.epoch() + Duration::from_millis(500);
        v.advance_to(target);
        assert_eq!(v.now(), target);
    }

    #[test]
    fn instant_arithmetic_works_across_the_trait() {
        // The property the whole port rests on: code holding only a
        // `ClockHandle` computes deadlines with ordinary `Instant` math
        // and the comparisons come out right in virtual time.
        let v = VirtualClock::new();
        let h: ClockHandle = Arc::clone(&v).into();
        let deadline = h.now() + Duration::from_millis(10);
        assert!(h.now() < deadline);
        h.sleep(Duration::from_millis(10));
        assert!(h.now() >= deadline);
    }
}
