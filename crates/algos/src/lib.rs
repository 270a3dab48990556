//! # hre-algos — the election-algorithm zoo, behind one trait
//!
//! The paper's `Ak`/`Bk` are one point in a design space the related
//! work maps out: Chang–Roberts-style max-uid automata assume distinct
//! labels, content-oblivious election (arXiv 2509.19187) assumes only
//! orientation and message *presence*, Fusco–Pelc trade knowledge for
//! time. This crate makes that space pluggable:
//!
//! * [`Engine`] — an object-safe interface over "run an election on a
//!   labeled unidirectional ring": per-engine [`Assumptions`], a
//!   [`Termination`] discipline selecting the acceptance predicate, a
//!   [`WinnerRule`] giving a closed-form oracle where one exists, and a
//!   uniform [`EngineOutcome`].
//! * Retrofits of everything the workspace already has — the paper's
//!   `Ak`/`AkReference`/`Bk` and the `ChangRoberts`/`Peterson`/`OracleN`
//!   baselines — as reference implementations of the trait, all driven
//!   by the *same* `hre_sim` engine and specification monitor.
//! * Two new engines: [`max_uid::MaxUid`] (the classic Simul-IO
//!   max-seen automaton) and
//!   [`content_oblivious::ContentOblivious`] (pulse attrition, zero
//!   content bits on the wire, stabilizing termination).
//! * A [registry](engines) the CLI (`hre elect --algo list`), the
//!   service, the benchmarks (E25), and the deterministic simulator all
//!   resolve engines from, by the same wire names `AlgoId` uses.
//!
//! Everything runs against the unmodified `hre_sim` machinery — a new
//! engine is a [`ProcessBehavior`](hre_sim::ProcessBehavior) plus one
//! registry entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content_oblivious;
pub mod max_uid;

use hre_ring::RingLabeling;
use hre_sim::{
    satisfies_message_terminating, satisfies_stabilizing_election, RandomSched, RoundRobinSched,
    RunMetrics, RunOptions, RunReport, SyncSched,
};
use std::sync::OnceLock;

/// What a process is assumed to know a priori, beyond its own label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knowledge {
    /// Nothing — not even bounds on `n` or the label multiplicities.
    Nothing,
    /// A bound `k` on the maximal label multiplicity (the paper's model).
    MultiplicityBound,
    /// The exact ring size `n`.
    ExactN,
}

/// The termination discipline an engine achieves, which selects the
/// acceptance predicate its runs are judged by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Process-terminating: every process halts (the paper's conditions
    /// 1–4); judged by [`RunReport::clean`].
    Process,
    /// Message-terminating: quiescence with an agreed leader, halting
    /// not required (conditions 1–3); judged by
    /// [`satisfies_message_terminating`].
    Message,
    /// Stabilizing: the *terminal* configuration has exactly one
    /// claimant and unanimous `leader` variables, but claims may
    /// flicker along the way and nobody halts; judged by
    /// [`satisfies_stabilizing_election`].
    Stabilizing,
}

/// Which process an engine elects, when that has a closed form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WinnerRule {
    /// The owner of the lexicographically least rotation (Lyndon word)
    /// of the label sequence — the paper's "true leader".
    LyndonOwner,
    /// The owner of the unique maximum label.
    MaxLabelOwner,
    /// Deterministic but with no closed-form oracle (e.g. Peterson,
    /// which elects the survivor *after* the last local maximum).
    Emergent,
}

/// The structural assumptions an engine needs from the ring. Violating
/// them doesn't crash a run — the specification monitor reports the
/// failed election — but [`Engine::supports`] lets callers check first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assumptions {
    /// Labels are read as content (every engine here; an anonymous-ring
    /// engine would clear this).
    pub labeled: bool,
    /// Requires all labels pairwise distinct (the fully identified
    /// class `U*`).
    pub distinct_labels: bool,
    /// Requires the maximum label to be unique (duplicates below the
    /// maximum are fine).
    pub unique_max: bool,
    /// Requires the labeling to be asymmetric (aperiodic as a word).
    pub asymmetric: bool,
    /// Needs only the ring's orientation; messages carry **zero**
    /// content bits — information is in message presence alone.
    pub content_oblivious: bool,
    /// A priori knowledge assumed by each process.
    pub knowledge: Knowledge,
    /// Practical cap on the maximum label, for engines whose cost
    /// scales with the label *value* (pulse attrition costs `n·M`
    /// messages).
    pub max_label: Option<u64>,
}

impl Assumptions {
    const BASE: Assumptions = Assumptions {
        labeled: true,
        distinct_labels: false,
        unique_max: false,
        asymmetric: false,
        content_oblivious: false,
        knowledge: Knowledge::Nothing,
        max_label: None,
    };
}

/// Scheduler selection for [`Engine::run`] — an enum rather than a
/// generic so the trait stays object-safe; every variant is
/// deterministic given its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedChoice {
    /// Round-robin over enabled processes (the serving path's default).
    RoundRobin,
    /// Fire every enabled process each step (synchronous rounds).
    Sync,
    /// Seeded random interleaving.
    Random(u64),
}

/// The erased result of one engine run: the acceptance verdict under
/// the engine's own termination discipline, the terminal leader, the
/// full metrics, and (on request) the per-process received-message
/// streams rendered to strings for trace-level comparison.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// Whether the run satisfied the engine's termination discipline's
    /// acceptance predicate.
    pub accepted: bool,
    /// Index of the terminal leader, if the terminal configuration has
    /// exactly one.
    pub leader: Option<usize>,
    /// Complexity metrics of the run.
    pub metrics: RunMetrics,
    /// Debug-rendered [`hre_sim::Verdict`].
    pub verdict: String,
    /// Rendered specification violations (empty for a clean
    /// process-terminating run; stabilizing runs legitimately carry
    /// their tolerated kinds).
    pub violations: Vec<String>,
    /// Per-process received streams, `Debug`-rendered in order, when
    /// `record_streams` was requested.
    pub streams: Option<Vec<Vec<String>>>,
}

/// One pluggable election engine. Object-safe: the CLI, the service,
/// E25, and the deterministic simulator all hold `&'static dyn Engine`.
pub trait Engine: Send + Sync {
    /// Stable wire name — the same string `hre elect --algo`, the
    /// `POST /elect` `algo` field, and `AlgoId` use.
    fn name(&self) -> &'static str;

    /// One-line description for `--algo list` and the docs.
    fn summary(&self) -> &'static str;

    /// The ring classes and knowledge this engine assumes.
    fn assumptions(&self) -> &Assumptions;

    /// The termination discipline (selects the acceptance predicate).
    fn termination(&self) -> Termination;

    /// Which process this engine elects, when that has a closed form.
    fn winner(&self) -> WinnerRule;

    /// The multiplicity bound actually used for a requested `k`
    /// (mirrors `AlgoId::effective_k`: `ak` clamps to `>= 1`, `bk` to
    /// `>= 2`, engines that ignore `k` pass it through).
    fn effective_k(&self, k: usize) -> usize;

    /// Checks the engine's structural [`Assumptions`] against a ring.
    fn supports(&self, ring: &RingLabeling) -> Result<(), String> {
        let a = self.assumptions();
        if a.asymmetric && !ring.is_asymmetric() {
            return Err(format!("{} requires an asymmetric (aperiodic) labeling", self.name()));
        }
        if a.distinct_labels && !ring.all_distinct() {
            return Err(format!("{} requires pairwise-distinct labels", self.name()));
        }
        if a.unique_max && unique_max_index(ring).is_none() {
            return Err(format!("{} requires a unique maximum label", self.name()));
        }
        if let Some(cap) = a.max_label {
            let m = ring.labels().iter().map(|l| l.raw()).max().unwrap_or(0);
            if m > cap {
                return Err(format!(
                    "{}: maximum label {m} exceeds the cap {cap} (the run would cost n*{m} \
                     messages)",
                    self.name()
                ));
            }
        }
        Ok(())
    }

    /// The closed-form predicted winner on a supported ring, if the
    /// engine's [`WinnerRule`] has one.
    fn oracle_leader(&self, ring: &RingLabeling) -> Option<usize> {
        match self.winner() {
            WinnerRule::LyndonOwner => ring.true_leader(),
            WinnerRule::MaxLabelOwner => unique_max_index(ring),
            WinnerRule::Emergent => None,
        }
    }

    /// Runs the engine on `ring` with multiplicity bound `k` under the
    /// chosen scheduler. `record_streams` additionally captures the
    /// per-process received streams for trace-level comparison.
    fn run(
        &self,
        ring: &RingLabeling,
        k: usize,
        sched: SchedChoice,
        record_streams: bool,
    ) -> EngineOutcome;
}

/// Index of the unique maximum label, or `None` if the maximum is
/// duplicated (or the ring is empty).
pub fn unique_max_index(ring: &RingLabeling) -> Option<usize> {
    let labels = ring.labels();
    let max = labels.iter().max()?;
    let mut owners = labels.iter().enumerate().filter(|(_, l)| *l == max);
    match (owners.next(), owners.next()) {
        (Some((i, _)), None) => Some(i),
        _ => None,
    }
}

/// The generic adapter: any [`hre_sim::Algorithm`] plus metadata is an
/// [`Engine`]. `make` receives the ring and the (already clamped) `k`
/// so constructors like `OracleN::new(n)` can read the ring size.
struct SimEngine<A, F>
where
    A: hre_sim::Algorithm,
    F: Fn(&RingLabeling, usize) -> A + Send + Sync,
{
    name: &'static str,
    summary: &'static str,
    assumptions: Assumptions,
    termination: Termination,
    winner: WinnerRule,
    /// Minimum meaningful `k`; `0` means the engine ignores `k`.
    min_k: usize,
    make: F,
}

impl<A, F> Engine for SimEngine<A, F>
where
    A: hre_sim::Algorithm,
    F: Fn(&RingLabeling, usize) -> A + Send + Sync,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    fn assumptions(&self) -> &Assumptions {
        &self.assumptions
    }

    fn termination(&self) -> Termination {
        self.termination
    }

    fn winner(&self) -> WinnerRule {
        self.winner
    }

    fn effective_k(&self, k: usize) -> usize {
        if self.min_k == 0 {
            k
        } else {
            k.max(self.min_k)
        }
    }

    fn run(
        &self,
        ring: &RingLabeling,
        k: usize,
        sched: SchedChoice,
        record_streams: bool,
    ) -> EngineOutcome {
        let algo = (self.make)(ring, self.effective_k(k));
        let opts = RunOptions { record_trace: record_streams, ..Default::default() };
        let rep = match sched {
            SchedChoice::RoundRobin => {
                hre_sim::run(&algo, ring, &mut RoundRobinSched::default(), opts)
            }
            SchedChoice::Sync => hre_sim::run(&algo, ring, &mut SyncSched, opts),
            SchedChoice::Random(seed) => {
                hre_sim::run(&algo, ring, &mut RandomSched::new(seed), opts)
            }
        };
        let accepted = match self.termination {
            Termination::Process => rep.clean(),
            Termination::Message => satisfies_message_terminating(&rep),
            Termination::Stabilizing => satisfies_stabilizing_election(&rep),
        };
        erase(rep, accepted, ring.n())
    }
}

/// Collapses a typed [`RunReport`] into the erased [`EngineOutcome`].
fn erase<M: std::fmt::Debug + Clone>(rep: RunReport<M>, accepted: bool, n: usize) -> EngineOutcome {
    let streams = rep.trace.as_ref().map(|t| {
        (0..n).map(|i| t.received_stream(i).iter().map(|m| format!("{m:?}")).collect()).collect()
    });
    EngineOutcome {
        accepted,
        leader: rep.leader,
        metrics: rep.metrics,
        verdict: format!("{:?}", rep.verdict),
        violations: rep.violations.iter().map(|v| v.to_string()).collect(),
        streams,
    }
}

fn build_registry() -> Vec<Box<dyn Engine>> {
    use hre_baselines::{ChangRoberts, OracleN, Peterson};
    use hre_core::{Ak, AkReference, Bk};

    vec![
        Box::new(SimEngine {
            name: "ak",
            summary: "paper Table 1: Lyndon-prefix growth, O(kn) space, asymmetric rings",
            assumptions: Assumptions {
                asymmetric: true,
                knowledge: Knowledge::MultiplicityBound,
                ..Assumptions::BASE
            },
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 1,
            make: |_r: &RingLabeling, k: usize| Ak::new(k),
        }),
        Box::new(SimEngine {
            name: "ak-ref",
            summary: "naive reference implementation of Ak's leader predicate",
            assumptions: Assumptions {
                asymmetric: true,
                knowledge: Knowledge::MultiplicityBound,
                ..Assumptions::BASE
            },
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 1,
            make: |_r: &RingLabeling, k: usize| AkReference::new(k),
        }),
        Box::new(SimEngine {
            name: "bk",
            summary: "paper Table 2: phase-based, O(log kn) space, asymmetric rings",
            assumptions: Assumptions {
                asymmetric: true,
                knowledge: Knowledge::MultiplicityBound,
                ..Assumptions::BASE
            },
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 2,
            make: |_r: &RingLabeling, k: usize| Bk::new(k),
        }),
        Box::new(SimEngine {
            name: "cr",
            summary: "Chang-Roberts: forward tokens past smaller labels, distinct labels only",
            assumptions: Assumptions { distinct_labels: true, ..Assumptions::BASE },
            termination: Termination::Process,
            winner: WinnerRule::MaxLabelOwner,
            min_k: 0,
            make: |_r: &RingLabeling, _k: usize| ChangRoberts,
        }),
        Box::new(SimEngine {
            name: "peterson",
            summary: "Peterson 1982: O(n log n) messages, distinct labels, emergent winner",
            assumptions: Assumptions { distinct_labels: true, ..Assumptions::BASE },
            termination: Termination::Process,
            winner: WinnerRule::Emergent,
            min_k: 0,
            make: |_r: &RingLabeling, _k: usize| Peterson,
        }),
        Box::new(SimEngine {
            name: "oracle-n",
            summary: "baseline that knows n exactly: collect the whole word, pick the Lyndon owner",
            assumptions: Assumptions {
                asymmetric: true,
                knowledge: Knowledge::ExactN,
                ..Assumptions::BASE
            },
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 0,
            make: |r: &RingLabeling, _k: usize| OracleN::new(r.n()),
        }),
        Box::new(SimEngine {
            name: "max-uid",
            summary: "Simul-IO max-seen automaton: cr's attrition, frugal under duplication faults",
            assumptions: Assumptions { distinct_labels: true, ..Assumptions::BASE },
            termination: Termination::Process,
            winner: WinnerRule::MaxLabelOwner,
            min_k: 0,
            make: |_r: &RingLabeling, _k: usize| max_uid::MaxUid,
        }),
        Box::new(SimEngine {
            name: "content-oblivious",
            summary: "pulse attrition (arXiv 2509.19187): zero wire bits, stabilizing, unique max",
            assumptions: Assumptions {
                unique_max: true,
                content_oblivious: true,
                max_label: Some(CONTENT_OBLIVIOUS_MAX_LABEL),
                ..Assumptions::BASE
            },
            termination: Termination::Stabilizing,
            winner: WinnerRule::MaxLabelOwner,
            min_k: 0,
            make: |_r: &RingLabeling, _k: usize| content_oblivious::ContentOblivious,
        }),
    ]
}

/// The attrition engine costs `n·M` messages for maximum label `M`;
/// this cap keeps a served request inside the run's action budget.
pub const CONTENT_OBLIVIOUS_MAX_LABEL: u64 = 4096;

/// `ak-ref` re-evaluates its naive `Leader` predicate from scratch on every
/// reception, and each process's string grows to about `(2k+1)·n` labels,
/// so a run costs roughly `n·((2k+1)·n)³` steps. A served request must
/// have `(2k+1)·n` at most this; the worst accepted one (distinct labels,
/// `k = 1`, `n = 170`) ran in 0.8 s in a release build on 2 vCPUs.
pub const AK_REF_MAX_STRING: usize = 512;

/// The engine registry, in presentation order. Names are the wire names
/// (`hre elect --algo`, the `POST /elect` `algo` field, `AlgoId`).
pub fn engines() -> &'static [Box<dyn Engine>] {
    static REGISTRY: OnceLock<Vec<Box<dyn Engine>>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry).as_slice()
}

/// Looks an engine up by wire name.
pub fn by_name(name: &str) -> Option<&'static dyn Engine> {
    engines().iter().find(|e| e.name() == name).map(|b| b.as_ref())
}

/// All registered wire names, in presentation order.
pub fn names() -> Vec<&'static str> {
    engines().iter().map(|e| e.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_names_are_unique() {
        let names = names();
        assert!(names.len() >= 8, "{names:?}");
        for required in
            ["ak", "ak-ref", "bk", "cr", "peterson", "oracle-n", "max-uid", "content-oblivious"]
        {
            assert!(names.contains(&required), "missing {required}");
            assert!(by_name(required).is_some());
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate wire names");
        assert!(by_name("quantum").is_none());
    }

    #[test]
    fn every_engine_elects_its_oracle_on_a_fully_supported_ring() {
        // Distinct, asymmetric, unique max, small labels: in every
        // engine's class at once.
        let ring = RingLabeling::from_raw(&[1, 4, 2, 5, 3]);
        let k = ring.max_multiplicity();
        for engine in engines() {
            assert!(engine.supports(&ring).is_ok(), "{}", engine.name());
            let out = engine.run(&ring, k, SchedChoice::RoundRobin, false);
            assert!(out.accepted, "{}: {:?} {:?}", engine.name(), out.verdict, out.violations);
            let leader = out.leader.unwrap_or_else(|| panic!("{}", engine.name()));
            match engine.oracle_leader(&ring) {
                Some(expected) => {
                    assert_eq!(leader, expected, "{} vs its oracle", engine.name())
                }
                None => assert_eq!(engine.winner(), WinnerRule::Emergent),
            }
        }
    }

    #[test]
    fn supports_reflects_the_assumption_matrix() {
        let homonym_asym = RingLabeling::from_raw(&[1, 2, 2]); // asymmetric, homonyms, unique max 2? no: two 2s
        let unique_max_homonym = RingLabeling::from_raw(&[2, 1, 3, 1]);
        let symmetric = RingLabeling::from_raw(&[1, 2, 1, 2]);
        let ak = by_name("ak").unwrap();
        let cr = by_name("cr").unwrap();
        let mu = by_name("max-uid").unwrap();
        let co = by_name("content-oblivious").unwrap();
        assert!(ak.supports(&homonym_asym).is_ok());
        assert!(ak.supports(&symmetric).is_err());
        assert!(cr.supports(&homonym_asym).is_err());
        assert!(mu.supports(&homonym_asym).is_err());
        assert!(co.supports(&homonym_asym).is_err(), "duplicated maximum");
        assert!(co.supports(&unique_max_homonym).is_ok(), "homonyms below the max are fine");
        let big = RingLabeling::from_raw(&[1, CONTENT_OBLIVIOUS_MAX_LABEL + 1]);
        assert!(co.supports(&big).is_err(), "pulse budget cap");
    }

    #[test]
    fn runs_are_deterministic_per_sched_choice() {
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let k = ring.max_multiplicity();
        let engine = by_name("ak").unwrap();
        for sched in [SchedChoice::RoundRobin, SchedChoice::Sync, SchedChoice::Random(42)] {
            let a = engine.run(&ring, k, sched, true);
            let b = engine.run(&ring, k, sched, true);
            assert_eq!(a.leader, b.leader);
            assert_eq!(a.metrics.messages, b.metrics.messages);
            assert_eq!(a.streams, b.streams);
        }
    }

    #[test]
    fn effective_k_mirrors_the_service_clamps() {
        assert_eq!(by_name("ak").unwrap().effective_k(0), 1);
        assert_eq!(by_name("bk").unwrap().effective_k(1), 2);
        assert_eq!(by_name("cr").unwrap().effective_k(7), 7);
        assert_eq!(by_name("content-oblivious").unwrap().effective_k(3), 3);
    }
}
