//! Deterministic transport-fault injection.
//!
//! The injector sits at a sender's egress, between the retransmission
//! window and the socket: every time a DATA frame is about to be written,
//! the link's seeded RNG rolls once and the frame is delivered, dropped,
//! duplicated, stashed for reordering, delayed, or the whole connection
//! is torn down. Faults apply to **transmission attempts**, not to
//! sequence numbers — a retransmission of a previously dropped frame gets
//! a fresh roll, so with any drop probability below 1 every message is
//! eventually delivered and termination is preserved almost surely.
//!
//! The same seed and policy always produce the same fault schedule on a
//! given link, which is what lets the E13 ablation and the integration
//! tests make exact claims about recovery.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// Per-link fault probabilities and parameters. All probabilities are
/// independent per transmission attempt, checked in the order
/// reset → drop → duplicate → reorder → delay.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Probability a frame vanishes on the wire.
    pub drop: f64,
    /// Probability a frame is written twice back-to-back.
    pub duplicate: f64,
    /// Probability a frame is held back and swapped with the next one.
    pub reorder: f64,
    /// Probability a frame is parked and written only after [`Self::max_delay`]
    /// (sampled uniformly up to it).
    pub delay: f64,
    /// Upper bound for an injected delay.
    pub max_delay: Duration,
    /// Force exactly one connection reset after this many transmission
    /// attempts on the link (`None` = never).
    pub reset_after: Option<u64>,
}

impl FaultPolicy {
    /// No faults at all; the injector becomes a pass-through.
    pub const NONE: FaultPolicy = FaultPolicy {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        delay: 0.0,
        max_delay: Duration::from_millis(0),
        reset_after: None,
    };

    /// The ISSUE acceptance mix: 20 % drop, light duplication and
    /// reordering, occasional short delays, and one forced connection
    /// reset per link early in the run.
    pub fn stress() -> FaultPolicy {
        FaultPolicy {
            drop: 0.20,
            duplicate: 0.05,
            reorder: 0.05,
            delay: 0.05,
            max_delay: Duration::from_millis(5),
            reset_after: Some(3),
        }
    }

    /// `true` iff every fault class is disabled.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay == 0.0
            && self.reset_after.is_none()
    }
}

/// What the wire does to one transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireAction {
    /// Write the frame normally.
    Deliver,
    /// Pretend the frame was written, but don't — the retransmission
    /// timer recovers it.
    Drop,
    /// Write the frame twice.
    Duplicate,
    /// Hold the frame back and write it after the next frame (or after a
    /// short grace period if no successor shows up).
    Reorder,
    /// Park the frame and write it once the duration elapses.
    Delay(Duration),
    /// Tear the connection down; everything unacknowledged replays after
    /// the reconnect.
    Reset,
}

/// Seeded per-link fault source.
#[derive(Debug)]
pub struct LinkInjector {
    policy: FaultPolicy,
    rng: StdRng,
    attempts: u64,
    reset_fired: bool,
}

impl LinkInjector {
    /// A deterministic injector for one link. Distinct links should get
    /// distinct seeds (the runtime derives them from a run seed and the
    /// link index).
    pub fn new(policy: FaultPolicy, seed: u64) -> Self {
        LinkInjector { policy, rng: StdRng::seed_from_u64(seed), attempts: 0, reset_fired: false }
    }

    /// Rolls the fate of one transmission attempt.
    pub fn roll(&mut self) -> WireAction {
        self.attempts += 1;
        if let Some(at) = self.policy.reset_after {
            if !self.reset_fired && self.attempts > at {
                self.reset_fired = true;
                return WireAction::Reset;
            }
        }
        if self.policy.drop > 0.0 && self.rng.gen_bool(self.policy.drop) {
            return WireAction::Drop;
        }
        if self.policy.duplicate > 0.0 && self.rng.gen_bool(self.policy.duplicate) {
            return WireAction::Duplicate;
        }
        if self.policy.reorder > 0.0 && self.rng.gen_bool(self.policy.reorder) {
            return WireAction::Reorder;
        }
        if self.policy.delay > 0.0 && self.rng.gen_bool(self.policy.delay) {
            let cap = self.policy.max_delay.as_micros().max(1) as u64;
            return WireAction::Delay(Duration::from_micros(self.rng.gen_range(0..cap)));
        }
        WireAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_through_when_disabled() {
        let mut inj = LinkInjector::new(FaultPolicy::NONE, 1);
        for _ in 0..100 {
            assert_eq!(inj.roll(), WireAction::Deliver);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = LinkInjector::new(FaultPolicy::stress(), 42);
        let mut b = LinkInjector::new(FaultPolicy::stress(), 42);
        let fa: Vec<_> = (0..200).map(|_| a.roll()).collect();
        let fb: Vec<_> = (0..200).map(|_| b.roll()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn reset_fires_exactly_once() {
        let mut inj =
            LinkInjector::new(FaultPolicy { reset_after: Some(2), ..FaultPolicy::NONE }, 7);
        let rolls: Vec<_> = (0..50).map(|_| inj.roll()).collect();
        assert_eq!(rolls.iter().filter(|a| **a == WireAction::Reset).count(), 1);
        assert_eq!(rolls[2], WireAction::Reset);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let mut inj = LinkInjector::new(FaultPolicy { drop: 0.2, ..FaultPolicy::NONE }, 99);
        let drops = (0..10_000).filter(|_| inj.roll() == WireAction::Drop).count();
        assert!((1_500..2_500).contains(&drops), "drops = {drops}");
    }
}
