//! Link-fault injection: an ablation of the model's assumptions.
//!
//! Section II assumes links are **reliable** and **FIFO**; the paper's
//! correctness proofs lean on both (e.g. `p.string` being a prefix of
//! `LLabels(p)` in `Ak`, and the phase barrier of `Bk`). This module makes
//! those assumptions *removable*, so experiments can show the algorithms
//! break without them — the assumptions are necessary, not decorative.
//!
//! Faults are injected deterministically at send time by a counting rule,
//! so faulty runs are exactly reproducible.

/// One deterministic link-fault rule. The message counter is global across
/// all links and starts at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Drop every `n`-th sent message (violates reliability).
    DropEveryNth(u64),
    /// Deliver every `n`-th sent message twice (violates
    /// exactly-once reception).
    DuplicateEveryNth(u64),
    /// Swap every `n`-th sent message with the message queued immediately
    /// before it on the same link, if any (violates FIFO).
    SwapEveryNth(u64),
}

/// A deterministic fault plan: every rule is applied independently to each
/// sent message.
///
/// ```
/// use hre_sim::{FaultPlan, LinkFault};
/// let plan = FaultPlan::single(LinkFault::DropEveryNth(5));
/// assert!(!plan.is_benign());
/// assert!(FaultPlan::none().is_benign());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The active rules.
    pub rules: Vec<LinkFault>,
    counter: u64,
}

/// What the plan decided for one message (the default: deliver it once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FaultDecision {
    pub drop: bool,
    pub duplicate: bool,
    pub swap_with_previous: bool,
}

impl FaultPlan {
    /// A plan with a single rule.
    pub fn single(rule: LinkFault) -> Self {
        FaultPlan { rules: vec![rule], counter: 0 }
    }

    /// No faults at all (the model's assumptions hold).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan can never fire.
    #[inline]
    pub fn is_benign(&self) -> bool {
        self.rules.is_empty()
    }

    /// Advances the message counter and decides this message's fate.
    pub(crate) fn decide(&mut self) -> FaultDecision {
        self.counter += 1;
        let mut d = FaultDecision { drop: false, duplicate: false, swap_with_previous: false };
        for rule in &self.rules {
            match *rule {
                LinkFault::DropEveryNth(n) if n > 0 && self.counter.is_multiple_of(n) => {
                    d.drop = true
                }
                LinkFault::DuplicateEveryNth(n) if n > 0 && self.counter.is_multiple_of(n) => {
                    d.duplicate = true
                }
                LinkFault::SwapEveryNth(n) if n > 0 && self.counter.is_multiple_of(n) => {
                    d.swap_with_previous = true
                }
                _ => {}
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_rules_fire_on_schedule() {
        let mut plan = FaultPlan::single(LinkFault::DropEveryNth(3));
        let fates: Vec<bool> = (0..9).map(|_| plan.decide().drop).collect();
        assert_eq!(fates, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn rules_compose() {
        let mut plan = FaultPlan {
            rules: vec![LinkFault::DropEveryNth(2), LinkFault::DuplicateEveryNth(3)],
            counter: 0,
        };
        // message 6 is both dropped and duplicated; drop wins in the engine.
        let d6 = (0..6).map(|_| plan.decide()).last().unwrap();
        assert!(d6.drop && d6.duplicate);
    }

    #[test]
    fn benign_plan_never_fires() {
        let mut plan = FaultPlan::none();
        assert!(plan.is_benign());
        for _ in 0..100 {
            let d = plan.decide();
            assert!(!d.drop && !d.duplicate && !d.swap_with_previous);
        }
    }
}
