//! Capped exponential backoff — the one retry-pacing policy every
//! runtime shares.
//!
//! Extracted from `hre-net`'s reconnect loop (dial, sleep, double, cap)
//! so the cluster router's circuit-breaker probing paces itself with the
//! *same* policy instead of carrying a drifting copy. The schedule is
//! deliberately minimal and deterministic: no jitter (the workspace's
//! experiments are reproducible bit-for-bit, and the consumers are
//! either single dialers or per-backend probers that cannot stampede).

use std::time::Duration;

/// A capped exponential backoff schedule: `start, 2·start, 4·start, …`
/// clamped to `cap`, until [`Backoff::reset`].
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    start: Duration,
    cap: Duration,
    current: Duration,
}

impl Backoff {
    /// A schedule beginning at `start` and doubling up to `cap`.
    pub fn new(start: Duration, cap: Duration) -> Backoff {
        let start = start.max(Duration::from_micros(1));
        Backoff { start, cap: cap.max(start), current: start }
    }

    /// The delay to apply *now*; advances the schedule (doubling,
    /// capped).
    pub fn advance(&mut self) -> Duration {
        let base = self.current;
        self.current = (self.current * 2).min(self.cap);
        base
    }

    /// The delay `advance` would return, without advancing.
    pub fn peek(&self) -> Duration {
        self.current
    }

    /// Back to the initial delay — call after a success.
    pub fn reset(&mut self) {
        self.current = self.start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_the_cap_and_resets() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(100));
        let taken: Vec<u128> = (0..9).map(|_| b.advance().as_millis()).collect();
        assert_eq!(taken, vec![1, 2, 4, 8, 16, 32, 64, 100, 100]);
        assert_eq!(b.peek().as_millis(), 100);
        b.reset();
        assert_eq!(b.advance().as_millis(), 1);
    }

    #[test]
    fn degenerate_bounds_are_clamped() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO);
        assert!(b.advance() > Duration::ZERO, "zero start must not busy-spin");
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(1));
        assert_eq!(b.advance(), Duration::from_millis(10), "cap below start clamps to start");
        assert_eq!(b.advance(), Duration::from_millis(10));
    }
}
