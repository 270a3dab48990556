//! Online monitor for the process-terminating leader-election
//! specification (Section II of the paper).
//!
//! The four conditions, checked over the whole execution rather than only
//! at the end:
//!
//! 1. `p.isLeader` starts `FALSE`, never flips back, and **at most one**
//!    process has it `TRUE` in every configuration; exactly one — the
//!    leader `L` — in the terminal configuration.
//! 2. In the terminal configuration, `p.leader = L.id` for every `p`.
//! 3. `p.done` starts `FALSE`, never flips back; once `TRUE`, `L.isLeader`
//!    holds and `p.leader` is permanently set to `L.id`.
//! 4. `p` eventually halts, after `p.done` becomes `TRUE`.

use crate::engine::TerminalKind;
use crate::process::ElectionState;
use hre_words::Label;
use std::fmt;

/// A violation of the leader-election specification, with enough context to
/// debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecViolation {
    /// Two or more processes had `isLeader = TRUE` simultaneously.
    MultipleLeaders {
        /// The offending process indices.
        leaders: Vec<usize>,
    },
    /// `isLeader` flipped from `TRUE` back to `FALSE` at this process.
    LeaderRevoked {
        /// The offending process.
        pid: usize,
    },
    /// `done` flipped from `TRUE` back to `FALSE` at this process.
    DoneRevoked {
        /// The offending process.
        pid: usize,
    },
    /// `leader` changed after `done` was already `TRUE` at this process.
    LeaderChangedAfterDone {
        /// The offending process.
        pid: usize,
    },
    /// A process halted before setting `done`.
    HaltedBeforeDone {
        /// The offending process.
        pid: usize,
    },
    /// A halted process fired an action (engine misuse; should be
    /// impossible).
    ActedAfterHalt {
        /// The offending process.
        pid: usize,
    },
    /// `done` was set while no process had `isLeader = TRUE`.
    DoneWithoutLeader {
        /// The offending process.
        pid: usize,
    },
    /// The run ended in deadlock or an infinite loop instead of a terminal
    /// configuration with all processes halted.
    BadTermination {
        /// How the run actually ended.
        kind: TerminalKind,
    },
    /// Terminal configuration has no leader.
    NoLeaderAtEnd,
    /// Some process's `leader` variable disagrees with the elected leader's
    /// label in the terminal configuration.
    WrongLeaderVariable {
        /// The offending process.
        pid: usize,
        /// What it believed.
        got: Option<Label>,
        /// The elected leader's label.
        expected: Label,
    },
    /// Some process never halted although the execution is over.
    NeverHalted {
        /// The offending process.
        pid: usize,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Monitors a sequence of configurations for specification violations.
///
/// Two observation APIs share the same checks:
///
/// * [`SpecMonitor::observe`] — diff a full configuration snapshot (the
///   pre-optimization driver, kept for [`crate::baseline`]);
/// * [`SpecMonitor::observe_one`] — an atomic action changed exactly one
///   process, so only that process is diffed, in O(1). The global
///   at-most-one-leader condition is tracked by a running leader count;
///   the full leader list is materialized only on the violation path.
///
/// The two record the same violation *kinds* at the same actions; the only
/// difference is multiplicity while a violating condition persists (the
/// full-snapshot path re-reports e.g. `MultipleLeaders` after every
/// subsequent action, the incremental path on each transition into it).
#[derive(Clone, Debug)]
pub struct SpecMonitor {
    prev: Vec<ElectionState>,
    leader_count: usize,
    violations: Vec<SpecViolation>,
}

impl SpecMonitor {
    /// Starts monitoring from the initial configuration.
    pub fn new(initial: Vec<ElectionState>) -> Self {
        let leader_count = initial.iter().filter(|s| s.is_leader).count();
        let mut mon = SpecMonitor { prev: initial.clone(), leader_count, violations: Vec::new() };
        // The specification requires isLeader and done initially FALSE.
        for (pid, st) in initial.iter().enumerate() {
            if st.is_leader {
                mon.violations.push(SpecViolation::MultipleLeaders { leaders: vec![pid] });
            }
            if st.done {
                mon.violations.push(SpecViolation::DoneRevoked { pid });
            }
        }
        mon
    }

    /// Observes that an atomic action of process `pid` produced election
    /// state `new`; every other process is unchanged. O(1) except when a
    /// violation is found.
    ///
    /// Inlined into the run loops: the common case — the action left the
    /// four specification variables as they were — is one comparison of
    /// the four fields, joined without short-circuit branches, that
    /// stores nothing.
    #[inline(always)]
    pub fn observe_one(&mut self, pid: usize, new: ElectionState) {
        let old = &self.prev[pid];
        let same = (old.is_leader == new.is_leader)
            & (old.leader == new.leader)
            & (old.done == new.done)
            & (old.halted == new.halted);
        if !same {
            self.observe_change(pid, new);
        }
    }

    /// [`Self::observe_one`] for an action that changed `pid`'s state: a
    /// few times per process per run, so kept out of the run loops.
    #[cold]
    #[inline(never)]
    fn observe_change(&mut self, pid: usize, new: ElectionState) {
        let old = self.prev[pid];
        if new.is_leader && !old.is_leader {
            self.leader_count += 1;
            if self.leader_count > 1 {
                self.prev[pid] = new;
                let leaders: Vec<usize> = self
                    .prev
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_leader)
                    .map(|(i, _)| i)
                    .collect();
                self.violations.push(SpecViolation::MultipleLeaders { leaders });
            }
        } else if old.is_leader && !new.is_leader {
            self.leader_count -= 1;
            self.violations.push(SpecViolation::LeaderRevoked { pid });
        }
        if old.done && !new.done {
            self.violations.push(SpecViolation::DoneRevoked { pid });
        }
        if old.done && old.leader != new.leader {
            self.violations.push(SpecViolation::LeaderChangedAfterDone { pid });
        }
        if new.halted && !new.done {
            self.violations.push(SpecViolation::HaltedBeforeDone { pid });
        }
        if !old.done && new.done && self.leader_count == 0 {
            self.violations.push(SpecViolation::DoneWithoutLeader { pid });
        }
        if old.halted
            && (old.done != new.done || old.is_leader != new.is_leader || old.leader != new.leader)
        {
            self.violations.push(SpecViolation::ActedAfterHalt { pid });
        }
        self.prev[pid] = new;
    }

    /// Observes the configuration after an atomic step.
    pub fn observe(&mut self, states: &[ElectionState]) {
        let leaders: Vec<usize> =
            states.iter().enumerate().filter(|(_, s)| s.is_leader).map(|(i, _)| i).collect();
        if leaders.len() > 1 {
            self.violations.push(SpecViolation::MultipleLeaders { leaders: leaders.clone() });
        }
        let any_leader = !leaders.is_empty();
        for (pid, (old, new)) in self.prev.iter().zip(states.iter()).enumerate() {
            if old.is_leader && !new.is_leader {
                self.violations.push(SpecViolation::LeaderRevoked { pid });
            }
            if old.done && !new.done {
                self.violations.push(SpecViolation::DoneRevoked { pid });
            }
            if old.done && old.leader != new.leader {
                self.violations.push(SpecViolation::LeaderChangedAfterDone { pid });
            }
            if new.halted && !new.done {
                self.violations.push(SpecViolation::HaltedBeforeDone { pid });
            }
            if !old.done && new.done && !any_leader {
                self.violations.push(SpecViolation::DoneWithoutLeader { pid });
            }
            if old.halted
                && (old.done != new.done
                    || old.is_leader != new.is_leader
                    || old.leader != new.leader)
            {
                self.violations.push(SpecViolation::ActedAfterHalt { pid });
            }
        }
        self.leader_count = leaders.len();
        self.prev = states.to_vec();
    }

    /// Final checks once the run has ended.
    pub fn finish(&mut self, terminal: Option<TerminalKind>) {
        match terminal {
            Some(TerminalKind::AllHalted) => {}
            Some(kind) => self.violations.push(SpecViolation::BadTermination { kind }),
            None => self
                .violations
                .push(SpecViolation::BadTermination { kind: TerminalKind::QuiescentNotHalted }),
        }
        let leaders: Vec<usize> =
            self.prev.iter().enumerate().filter(|(_, s)| s.is_leader).map(|(i, _)| i).collect();
        match leaders.as_slice() {
            [] => self.violations.push(SpecViolation::NoLeaderAtEnd),
            [single] => {
                let expected = self.prev[*single].leader;
                if let Some(expected) = expected {
                    for (pid, st) in self.prev.iter().enumerate() {
                        if st.leader != Some(expected) {
                            self.violations.push(SpecViolation::WrongLeaderVariable {
                                pid,
                                got: st.leader,
                                expected,
                            });
                        }
                        if !st.halted {
                            self.violations.push(SpecViolation::NeverHalted { pid });
                        }
                        if !st.done {
                            self.violations.push(SpecViolation::HaltedBeforeDone { pid });
                        }
                    }
                } else {
                    self.violations.push(SpecViolation::WrongLeaderVariable {
                        pid: *single,
                        got: None,
                        expected: Label::new(u64::MAX),
                    });
                }
            }
            many => self.violations.push(SpecViolation::MultipleLeaders { leaders: many.to_vec() }),
        }
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[SpecViolation] {
        &self.violations
    }

    /// `true` iff no violation was recorded.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(is_leader: bool, leader: Option<u64>, done: bool, halted: bool) -> ElectionState {
        ElectionState { is_leader, leader: leader.map(Label::new), done, halted }
    }

    fn initial(n: usize) -> Vec<ElectionState> {
        vec![ElectionState::INITIAL; n]
    }

    #[test]
    fn clean_run_passes() {
        let mut m = SpecMonitor::new(initial(2));
        // p0 becomes leader & done
        m.observe(&[st(true, Some(9), true, false), st(false, None, false, false)]);
        // p1 learns, halts
        m.observe(&[st(true, Some(9), true, false), st(false, Some(9), true, true)]);
        // p0 halts
        m.observe(&[st(true, Some(9), true, true), st(false, Some(9), true, true)]);
        m.finish(Some(TerminalKind::AllHalted));
        assert!(m.clean(), "{:?}", m.violations());
    }

    #[test]
    fn detects_two_leaders() {
        let mut m = SpecMonitor::new(initial(3));
        m.observe(&[
            st(true, Some(1), true, false),
            st(true, Some(2), true, false),
            st(false, None, false, false),
        ]);
        assert!(m.violations().iter().any(
            |v| matches!(v, SpecViolation::MultipleLeaders { leaders } if leaders == &vec![0, 1])
        ));
    }

    #[test]
    fn detects_leader_revocation() {
        let mut m = SpecMonitor::new(initial(1));
        m.observe(&[st(true, Some(1), true, false)]);
        m.observe(&[st(false, Some(1), true, false)]);
        assert!(m
            .violations()
            .iter()
            .any(|v| matches!(v, SpecViolation::LeaderRevoked { pid: 0 })));
    }

    #[test]
    fn detects_done_revocation_and_leader_change_after_done() {
        let mut m = SpecMonitor::new(initial(1));
        m.observe(&[st(true, Some(1), true, false)]);
        m.observe(&[st(true, Some(2), true, false)]); // changed leader after done
        assert!(m
            .violations()
            .iter()
            .any(|v| matches!(v, SpecViolation::LeaderChangedAfterDone { pid: 0 })));

        let mut m2 = SpecMonitor::new(initial(1));
        m2.observe(&[st(true, Some(1), true, false)]);
        m2.observe(&[st(true, Some(1), false, false)]);
        assert!(m2.violations().iter().any(|v| matches!(v, SpecViolation::DoneRevoked { pid: 0 })));
    }

    #[test]
    fn detects_halt_before_done() {
        let mut m = SpecMonitor::new(initial(1));
        m.observe(&[st(false, None, false, true)]);
        assert!(m
            .violations()
            .iter()
            .any(|v| matches!(v, SpecViolation::HaltedBeforeDone { pid: 0 })));
    }

    #[test]
    fn detects_bad_termination_and_missing_leader() {
        let mut m = SpecMonitor::new(initial(2));
        m.finish(Some(TerminalKind::Deadlock));
        assert!(m
            .violations()
            .iter()
            .any(|v| matches!(v, SpecViolation::BadTermination { kind: TerminalKind::Deadlock })));
        assert!(m.violations().iter().any(|v| matches!(v, SpecViolation::NoLeaderAtEnd)));
    }

    #[test]
    fn detects_wrong_leader_variable() {
        let mut m = SpecMonitor::new(initial(2));
        m.observe(&[st(true, Some(1), true, true), st(false, Some(2), true, true)]);
        m.finish(Some(TerminalKind::AllHalted));
        assert!(m
            .violations()
            .iter()
            .any(|v| matches!(v, SpecViolation::WrongLeaderVariable { pid: 1, .. })));
    }

    #[test]
    fn observe_one_agrees_with_full_observe() {
        // Feed the same history through the full-snapshot diff and the
        // incremental single-process diff: same violation kinds.
        let seq = [
            vec![st(false, None, false, false), st(true, Some(2), true, false)],
            vec![st(true, Some(1), true, false), st(true, Some(2), true, false)],
            vec![st(true, Some(1), true, false), st(false, Some(2), true, true)],
        ];
        let changed = [1usize, 0, 1];
        let mut full = SpecMonitor::new(initial(2));
        let mut inc = SpecMonitor::new(initial(2));
        for (states, &pid) in seq.iter().zip(&changed) {
            full.observe(states);
            inc.observe_one(pid, states[pid]);
        }
        let kinds = |m: &SpecMonitor| {
            let mut v: Vec<String> = m.violations().iter().map(|x| format!("{x:?}")).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(kinds(&full), kinds(&inc));
        assert!(inc.violations().iter().any(
            |v| matches!(v, SpecViolation::MultipleLeaders { leaders } if leaders == &vec![0, 1])
        ));
        assert!(inc
            .violations()
            .iter()
            .any(|v| matches!(v, SpecViolation::LeaderRevoked { pid: 1 })));
    }

    #[test]
    fn detects_never_halted() {
        let mut m = SpecMonitor::new(initial(2));
        m.observe(&[st(true, Some(1), true, true), st(false, Some(1), true, false)]);
        m.finish(Some(TerminalKind::QuiescentNotHalted));
        assert!(m.violations().iter().any(|v| matches!(v, SpecViolation::NeverHalted { pid: 1 })));
    }
}
