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
//!   [`WinnerRule`] giving a closed-form oracle where one exists, the
//!   cost caps a run must pass before it starts ([`Engine::admit`]), and
//!   one entry per substrate: the simulator under any [`Scheduler`]
//!   ([`Engine::run`], a typed [`EngineOutcome`]), one OS thread per
//!   process ([`Engine::run_threaded`]) and loopback TCP
//!   ([`Engine::run_tcp`]).
//! * [`AlgoId`] — the wire names (`hre elect --algo`, the `POST /elect`
//!   `algo` field) and the registry's key: [`AlgoId::engine`].
//! * Retrofits of everything the workspace already has — the paper's
//!   `Ak`/`AkReference`/`Bk` and the `ChangRoberts`/`Peterson`/`OracleN`
//!   baselines — as reference implementations of the trait, all driven
//!   by the *same* `hre_sim` engine and specification monitor.
//! * Two new engines: [`max_uid::MaxUid`] (the classic Simul-IO
//!   max-seen automaton) and
//!   [`content_oblivious::ContentOblivious`] (pulse attrition, zero
//!   content bits on the wire, stabilizing termination).
//!
//! The [registry](engines) is the workspace's only engine table: the
//! daemon's `run_election`, `hre elect` on every transport,
//! `bench-core`, E25 and the deterministic simulator all resolve engines
//! through it, so every engine's simulator loops are compiled once, here.
//! Adding an engine takes a [`ProcessBehavior`](hre_sim::ProcessBehavior),
//! an [`AlgoId`] variant with its wire name in [`AlgoId::ALL`] order, and
//! one registry entry at the same position.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content_oblivious;
pub mod max_uid;

use hre_net::{run_tcp, NetOptions, NetReport};
use hre_ring::RingLabeling;
use hre_runtime::{run_threaded, ThreadedOptions, ThreadedReport};
use hre_sim::{
    satisfies_message_terminating, satisfies_stabilizing_election, ActionEvent, EventKind,
    RunMetrics, RunOptions, Scheduler, SpecViolation, Trace, Verdict,
};

/// The registered engines, by wire name. The variants are in
/// [`AlgoId::ALL`] order, which is also the registry's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoId {
    /// Paper's Table 1 algorithm (asymmetric rings, known bound `k`).
    Ak,
    /// Naive reference implementation of Ak's leader predicate.
    AkRef,
    /// Paper's Table 2 phase-based algorithm.
    Bk,
    /// Chang–Roberts (requires distinct labels to be correct).
    Cr,
    /// Peterson's unidirectional algorithm.
    Peterson,
    /// Oracle baseline that knows `n` exactly.
    OracleN,
    /// Simul-IO max-seen automaton (requires distinct labels).
    MaxUid,
    /// Content-oblivious pulse attrition (stabilizing; unique max label).
    ContentOblivious,
}

impl AlgoId {
    /// Every engine id, in registry order. The canonical list for error
    /// messages, metric slots and smoke tests.
    pub const ALL: [AlgoId; 8] = [
        AlgoId::Ak,
        AlgoId::AkRef,
        AlgoId::Bk,
        AlgoId::Cr,
        AlgoId::Peterson,
        AlgoId::OracleN,
        AlgoId::MaxUid,
        AlgoId::ContentOblivious,
    ];

    /// The wire names, in [`AlgoId::ALL`] order.
    const NAMES: [&'static str; 8] =
        ["ak", "ak-ref", "bk", "cr", "peterson", "oracle-n", "max-uid", "content-oblivious"];

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<AlgoId> {
        AlgoId::ALL.into_iter().find(|id| id.name() == s)
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        AlgoId::NAMES[self.index()]
    }

    /// Position in [`AlgoId::ALL`] — indexes the registry and
    /// per-algorithm metric slots.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The registered engine.
    pub fn engine(self) -> &'static dyn Engine {
        REGISTRY[self.index()]
    }

    /// The multiplicity bound this engine actually uses for a requested
    /// `k` ([`Engine::effective_k`]).
    pub fn effective_k(self, k: usize) -> usize {
        self.engine().effective_k(k)
    }
}

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
    /// 1–4); judged by [`hre_sim::RunReport::clean`].
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
    /// messages); [`Engine::admit`] refuses rings past it.
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

/// The result of one simulator run: the acceptance verdict under the
/// engine's own termination discipline, the terminal leader, the full
/// metrics, and (on request) the event trace.
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
    /// How the run ended.
    pub verdict: Verdict,
    /// Specification violations (empty for a clean process-terminating
    /// run; stabilizing runs legitimately carry their tolerated kinds).
    pub violations: Vec<SpecViolation>,
    /// The event trace with every message `Debug`-rendered, when the run
    /// was recorded.
    pub trace: Option<Trace<String>>,
}

/// One pluggable election engine. Object-safe: the CLI, the service,
/// E25, and the deterministic simulator all hold `&'static dyn Engine`.
pub trait Engine: Send + Sync {
    /// Stable wire name — the same string `hre elect --algo`, the
    /// `POST /elect` `algo` field, and [`AlgoId::name`] use.
    fn name(&self) -> &'static str;

    /// One-line description for `--algo list` and the docs.
    fn summary(&self) -> &'static str;

    /// The ring classes and knowledge this engine assumes.
    fn assumptions(&self) -> &Assumptions;

    /// The termination discipline (selects the acceptance predicate).
    fn termination(&self) -> Termination;

    /// Which process this engine elects, when that has a closed form.
    fn winner(&self) -> WinnerRule;

    /// The multiplicity bound actually used for a requested `k`: at
    /// least the engine's smallest meaningful bound; engines that ignore
    /// `k` pass it through.
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
        Ok(())
    }

    /// The cost caps a simulator run of this engine with bound `k` on
    /// `ring` must pass before it starts; `Err` names the cap. Each one
    /// refuses a request that could only exhaust the action budget or
    /// the serving deadline: a lower bound on a clean run's actions
    /// ([`min_clean_actions`]), `ak-ref`'s string length
    /// ([`AK_REF_MAX_STRING`]), and [`Assumptions::max_label`].
    fn admit(&self, ring: &RingLabeling, k: usize) -> Result<(), String>;

    /// The closed-form predicted winner on a supported ring, if the
    /// engine's [`WinnerRule`] has one.
    fn oracle_leader(&self, ring: &RingLabeling) -> Option<usize> {
        match self.winner() {
            WinnerRule::LyndonOwner => ring.true_leader(),
            WinnerRule::MaxLabelOwner => unique_max_index(ring),
            WinnerRule::Emergent => None,
        }
    }

    /// Runs the engine in the simulator on `ring` with multiplicity
    /// bound `k` under `sched`. `record` keeps the event trace.
    fn run(
        &self,
        ring: &RingLabeling,
        k: usize,
        sched: &mut dyn Scheduler,
        record: bool,
    ) -> EngineOutcome;

    /// Runs the engine with one OS thread per process; `Err` when the
    /// threaded runtime cannot end its runs.
    fn run_threaded(
        &self,
        ring: &RingLabeling,
        k: usize,
        opts: ThreadedOptions,
    ) -> Result<ThreadedReport, String>;

    /// Runs the engine over loopback TCP; `Err` when its messages have no
    /// wire codec.
    fn run_tcp(&self, ring: &RingLabeling, k: usize, opts: NetOptions)
        -> Result<NetReport, String>;
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

/// A substrate runner over engine `A`'s typed algorithm value.
type Runner<A, O, R> = fn(&A, &RingLabeling, O) -> R;

/// The one [`Engine`] implementation: any [`hre_sim::Algorithm`] plus
/// its metadata. `make` receives the ring and the already clamped `k`,
/// so constructors like `OracleN::new(n)` can read the ring size.
struct SimEngine<A: hre_sim::Algorithm> {
    id: AlgoId,
    summary: &'static str,
    assumptions: Assumptions,
    termination: Termination,
    winner: WinnerRule,
    /// Minimum meaningful `k`; `0` means the engine ignores `k`.
    min_k: usize,
    /// The largest `(2k+1)·n` admitted, for an engine whose cost grows
    /// with the string each process collects.
    max_string: Option<usize>,
    make: fn(&RingLabeling, usize) -> A,
    /// `None` for stabilizing engines: a threaded run ends when every
    /// process halts, and they never do.
    threads: Option<Runner<A, ThreadedOptions, ThreadedReport>>,
    /// `None` while the engine's messages have no
    /// [`WireMessage`](hre_net::WireMessage) codec.
    tcp: Option<Runner<A, NetOptions, NetReport>>,
}

impl<A: hre_sim::Algorithm> SimEngine<A> {
    fn algorithm(&self, ring: &RingLabeling, k: usize) -> A {
        (self.make)(ring, self.effective_k(k))
    }
}

impl<A: hre_sim::Algorithm> Engine for SimEngine<A> {
    fn name(&self) -> &'static str {
        self.id.name()
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
        k.max(self.min_k)
    }

    fn admit(&self, ring: &RingLabeling, k: usize) -> Result<(), String> {
        let (name, k) = (self.name(), self.effective_k(k));
        let budget = RunOptions::default().max_actions;
        if let Some(bound) = min_clean_actions(self.id, ring, k) {
            if bound > u128::from(budget) {
                return Err(format!(
                    "{name} with k={k} on this ring needs at least {bound} actions to elect, \
                     over the {budget} action budget"
                ));
            }
        }
        if let Some(cap) = self.max_string {
            // The literal predicate makes a run cost about the fourth
            // power of `(2k+1)·n`.
            let string = k.saturating_mul(2).saturating_add(1).saturating_mul(ring.n());
            if string > cap {
                return Err(format!(
                    "{name} requires (2k+1)*n <= {cap} (got {string}): cost grows as its fourth \
                     power"
                ));
            }
        }
        if let Some(cap) = self.assumptions.max_label {
            if let Some(l) = ring.labels().iter().map(|l| l.raw()).find(|&l| l > cap) {
                return Err(format!(
                    "{name} requires labels <= {cap} (got {l}): cost is n*max_label"
                ));
            }
        }
        Ok(())
    }

    fn run(
        &self,
        ring: &RingLabeling,
        k: usize,
        mut sched: &mut dyn Scheduler,
        record: bool,
    ) -> EngineOutcome {
        let opts = RunOptions { record_trace: record, ..Default::default() };
        let rep = hre_sim::run(&self.algorithm(ring, k), ring, &mut sched, opts);
        let accepted = match self.termination {
            Termination::Process => rep.clean(),
            Termination::Message => satisfies_message_terminating(&rep),
            Termination::Stabilizing => satisfies_stabilizing_election(&rep),
        };
        EngineOutcome {
            accepted,
            leader: rep.leader,
            metrics: rep.metrics,
            verdict: rep.verdict,
            violations: rep.violations,
            trace: rep.trace.as_ref().map(debug_rendered),
        }
    }

    fn run_threaded(
        &self,
        ring: &RingLabeling,
        k: usize,
        opts: ThreadedOptions,
    ) -> Result<ThreadedReport, String> {
        let run = self.threads.ok_or_else(|| {
            format!(
                "{} never halts (stabilizing termination); only --transport sim can judge its \
                 quiescent configuration",
                self.name()
            )
        })?;
        Ok(run(&self.algorithm(ring, k), ring, opts))
    }

    fn run_tcp(
        &self,
        ring: &RingLabeling,
        k: usize,
        opts: NetOptions,
    ) -> Result<NetReport, String> {
        let run = self.tcp.ok_or_else(|| {
            format!(
                "'{}' has no wire codec yet; it runs on --transport sim{}",
                self.name(),
                if self.threads.is_some() { " or threads" } else { "" }
            )
        })?;
        Ok(run(&self.algorithm(ring, k), ring, opts))
    }
}

/// `trace` with every message `Debug`-rendered, so engines of every
/// message type hand out one trace type.
fn debug_rendered<M: std::fmt::Debug + Clone>(trace: &Trace<M>) -> Trace<String> {
    let render = |m: &M| format!("{m:?}");
    let mut out = Trace::new();
    for e in trace.events() {
        out.push(ActionEvent {
            seq: e.seq,
            step: e.step,
            pid: e.pid,
            kind: match &e.kind {
                EventKind::Start => EventKind::Start,
                EventKind::Receive(m) => EventKind::Receive(render(m)),
                EventKind::Wedge(m) => EventKind::Wedge(render(m)),
            },
            sent: e.sent.iter().map(render).collect(),
            clock: e.clock,
        });
    }
    out
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

/// The engines, in [`AlgoId::ALL`] order.
static REGISTRY: [&dyn Engine; 8] = {
    use content_oblivious::ContentOblivious;
    use hre_baselines::{ChangRoberts, OracleN, Peterson};
    use hre_core::{Ak, AkReference, Bk};
    use max_uid::MaxUid;

    const PAPER: Assumptions = Assumptions {
        asymmetric: true,
        knowledge: Knowledge::MultiplicityBound,
        ..Assumptions::BASE
    };
    const DISTINCT: Assumptions = Assumptions { distinct_labels: true, ..Assumptions::BASE };
    [
        &SimEngine {
            id: AlgoId::Ak,
            summary: "paper Table 1: Lyndon-prefix growth, O(kn) space, asymmetric rings",
            assumptions: PAPER,
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 1,
            max_string: None,
            make: |_, k| Ak::new(k),
            threads: Some(run_threaded),
            tcp: Some(run_tcp),
        },
        &SimEngine {
            id: AlgoId::AkRef,
            summary: "naive reference implementation of Ak's leader predicate",
            assumptions: PAPER,
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 1,
            max_string: Some(AK_REF_MAX_STRING),
            make: |_, k| AkReference::new(k),
            threads: Some(run_threaded),
            tcp: Some(run_tcp),
        },
        &SimEngine {
            id: AlgoId::Bk,
            summary: "paper Table 2: phase-based, O(log kn) space, asymmetric rings",
            assumptions: PAPER,
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 2,
            max_string: None,
            make: |_, k| Bk::new(k),
            threads: Some(run_threaded),
            tcp: Some(run_tcp),
        },
        &SimEngine {
            id: AlgoId::Cr,
            summary: "Chang-Roberts: forward tokens past smaller labels, distinct labels only",
            assumptions: DISTINCT,
            termination: Termination::Process,
            winner: WinnerRule::MaxLabelOwner,
            min_k: 0,
            max_string: None,
            make: |_, _| ChangRoberts,
            threads: Some(run_threaded),
            tcp: Some(run_tcp),
        },
        &SimEngine {
            id: AlgoId::Peterson,
            summary: "Peterson 1982: O(n log n) messages, distinct labels, emergent winner",
            assumptions: DISTINCT,
            termination: Termination::Process,
            winner: WinnerRule::Emergent,
            min_k: 0,
            max_string: None,
            make: |_, _| Peterson,
            threads: Some(run_threaded),
            tcp: Some(run_tcp),
        },
        &SimEngine {
            id: AlgoId::OracleN,
            summary: "baseline that knows n exactly: collect the whole word, pick the Lyndon owner",
            assumptions: Assumptions {
                asymmetric: true,
                knowledge: Knowledge::ExactN,
                ..Assumptions::BASE
            },
            termination: Termination::Process,
            winner: WinnerRule::LyndonOwner,
            min_k: 0,
            max_string: None,
            make: |r, _| OracleN::new(r.n()),
            threads: Some(run_threaded),
            tcp: Some(run_tcp),
        },
        &SimEngine {
            id: AlgoId::MaxUid,
            summary: "Simul-IO max-seen automaton: cr's attrition, frugal under duplication faults",
            assumptions: DISTINCT,
            termination: Termination::Process,
            winner: WinnerRule::MaxLabelOwner,
            min_k: 0,
            max_string: None,
            make: |_, _| MaxUid,
            threads: Some(run_threaded),
            tcp: None,
        },
        &SimEngine {
            id: AlgoId::ContentOblivious,
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
            max_string: None,
            make: |_, _| ContentOblivious,
            threads: None,
            tcp: None,
        },
    ]
};

/// The engine registry, in [`AlgoId::ALL`] order.
pub fn engines() -> &'static [&'static dyn Engine] {
    &REGISTRY
}

/// A lower bound on the atomic actions of any run of `ak` or `bk` with
/// bound `k` on `ring` that ends with a clean verdict; `None` for the
/// other engines. A request whose bound exceeds the action budget can
/// only exhaust it, so [`Engine::admit`] refuses it without running.
///
/// Let `n` be the ring size and `M` its largest label multiplicity. Links
/// are FIFO, and a clean run elects exactly one leader `ℓ`.
///
/// **`Ak` (Table 1).** Each process starts one token (A1) and every
/// non-leader forwards every token it receives (A2), so tokens keep
/// ring order: the `j`-th token `ℓ` receives carries `LLabels(ℓ)[j]`
/// and has made `j` hops. A3 fires on the receipt that first gives
/// `ℓ.string` `2k+1` copies of some label, so `|ℓ.string| = L` with
/// `L ≥ n·(⌈(2k+1)/M⌉ − 1) + 1`: any `n` consecutive letters hold a
/// label at most `M` times. That token (`L−1` hops) dies at A3; each of
/// the other `n−1` tokens dies at its next arrival at `ℓ` (A5, after
/// `L … L+n−2` hops), and `FINISH` makes `n` hops (A4, A6). With the `n`
/// A1s the run takes `n·(L+1) + n(n−1)/2` actions — exactly that, so on
/// `[1,2,3]` the bound is the run's own count, `18k + 9`.
///
/// **`Bk` (Table 2).** The run must pass through its phases: in phase
/// `i` each process's guest is `LLabels(p)[i]`, and `ℓ` fires B9 on the
/// phase shift that would make its own label its guest for the
/// `(k+1)`-th time, so it completes `P ≥ n·(⌈(k+1)/M⌉ − 1)` phases.
/// Every process receives one `PHASE SHIFT` per phase (B6, B8, B9): `n`
/// actions. In each phase `ℓ` receives its guest value `k` times (B3,
/// B5), only on tokens of that phase (a phase's shift follows all its
/// tokens on every link), and at most `M` processes hold that guest, so
/// at most `min(M, k)` tokens carry those receipts; a token's arrivals
/// at `ℓ` are one lap (`n` hops) apart, so they take at least
/// `n·k − (n−1)·min(M, k)` hops. With B1 and `FINISH` (`n` each) the
/// run takes at least `2n + P·(n + n·k − (n−1)·min(M, k))` actions;
/// `9k² + 3k + 6` on `[1,2,3]`, whose runs take `9k² + 9k + 9`.
pub fn min_clean_actions(algo: AlgoId, ring: &RingLabeling, k: usize) -> Option<u128> {
    let (n, m, k) = (ring.n() as u128, ring.max_multiplicity() as u128, k as u128);
    let laps = |need: u128| need.div_ceil(m) - 1;
    match algo {
        AlgoId::Ak => {
            let len = n.saturating_mul(laps(2 * k + 1)).saturating_add(1);
            Some(n.saturating_mul(len + 1).saturating_add(n * (n - 1) / 2))
        }
        AlgoId::Bk => {
            let phases = n.saturating_mul(laps(k + 1));
            let hops = n.saturating_mul(k) - (n - 1) * m.min(k);
            Some(phases.saturating_mul(n + hops).saturating_add(2 * n))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_sim::{RandomSched, RoundRobinSched, SyncSched};

    #[test]
    fn every_wire_name_round_trips_through_the_registry() {
        assert_eq!(engines().len(), AlgoId::ALL.len());
        for (i, id) in AlgoId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i, "{id:?}");
            assert_eq!(AlgoId::parse(id.name()), Some(id), "names must be distinct");
            assert_eq!(id.engine().name(), id.name(), "registry out of AlgoId::ALL order");
        }
        assert_eq!(AlgoId::parse("quantum"), None);
    }

    #[test]
    fn every_engine_elects_its_oracle_on_a_fully_supported_ring() {
        // Distinct, asymmetric, unique max, small labels: in every
        // engine's class at once.
        let ring = RingLabeling::from_raw(&[1, 4, 2, 5, 3]);
        let k = ring.max_multiplicity();
        for engine in engines() {
            assert!(engine.supports(&ring).is_ok(), "{}", engine.name());
            assert!(engine.admit(&ring, k).is_ok(), "{}", engine.name());
            let out = engine.run(&ring, k, &mut RoundRobinSched::default(), false);
            assert!(out.accepted, "{}: {:?} {:?}", engine.name(), out.verdict, out.violations);
            assert!(out.trace.is_none(), "{}: an unrecorded run keeps no trace", engine.name());
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
        let homonym_asym = RingLabeling::from_raw(&[1, 2, 2]); // asymmetric, duplicated max
        let unique_max_homonym = RingLabeling::from_raw(&[2, 1, 3, 1]);
        let symmetric = RingLabeling::from_raw(&[1, 2, 1, 2]);
        let ak = AlgoId::Ak.engine();
        let cr = AlgoId::Cr.engine();
        let mu = AlgoId::MaxUid.engine();
        let co = AlgoId::ContentOblivious.engine();
        assert!(ak.supports(&homonym_asym).is_ok());
        assert!(ak.supports(&symmetric).is_err());
        assert!(cr.supports(&homonym_asym).is_err());
        assert!(mu.supports(&homonym_asym).is_err());
        assert!(co.supports(&homonym_asym).is_err(), "duplicated maximum");
        assert!(co.supports(&unique_max_homonym).is_ok(), "homonyms below the max are fine");
    }

    #[test]
    fn admit_refuses_past_the_cost_caps() {
        // The label cap names the first label past it, as the daemon's
        // answer always has.
        let co = AlgoId::ContentOblivious.engine();
        assert_eq!(
            co.admit(&RingLabeling::from_raw(&[1, 5000, 6000]), 1).unwrap_err(),
            "content-oblivious requires labels <= 4096 (got 5000): cost is n*max_label"
        );
        assert!(co.admit(&RingLabeling::from_raw(&[1, CONTENT_OBLIVIOUS_MAX_LABEL]), 1).is_ok());
        // The action bound is taken at the effective k: bk's k = 0 is 2.
        let ring = RingLabeling::from_raw(&[1, 2, 3]);
        assert_eq!(
            AlgoId::Ak.engine().admit(&ring, 1_000_000_000).unwrap_err(),
            "ak with k=1000000000 on this ring needs at least 18000000009 actions to elect, \
             over the 20000000 action budget"
        );
        assert_eq!(AlgoId::Bk.engine().admit(&ring, 0), AlgoId::Bk.engine().admit(&ring, 2));
        assert!(AlgoId::Bk.engine().admit(&ring, 0).is_ok());
    }

    #[test]
    fn other_substrates_refuse_what_they_cannot_run() {
        let ring = RingLabeling::from_raw(&[1, 4, 2, 5, 3]);
        for engine in engines() {
            let threaded = engine.run_threaded(&ring, 1, ThreadedOptions::default());
            assert_eq!(
                threaded.is_err(),
                engine.termination() == Termination::Stabilizing,
                "{}: only engines that never halt are refused threads",
                engine.name()
            );
        }
        let co = AlgoId::ContentOblivious.engine();
        let err = co.run_threaded(&ring, 1, ThreadedOptions::default()).unwrap_err();
        assert!(err.starts_with("content-oblivious never halts"), "{err}");
        let err = co.run_tcp(&ring, 1, NetOptions::default()).unwrap_err();
        assert_eq!(err, "'content-oblivious' has no wire codec yet; it runs on --transport sim");
        let err = AlgoId::MaxUid.engine().run_tcp(&ring, 1, NetOptions::default()).unwrap_err();
        assert_eq!(err, "'max-uid' has no wire codec yet; it runs on --transport sim or threads");
    }

    #[test]
    fn runs_are_deterministic_per_scheduler() {
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let k = ring.max_multiplicity();
        let engine = AlgoId::Ak.engine();
        let scheds: [fn() -> Box<dyn Scheduler>; 3] = [
            || Box::new(RoundRobinSched::default()),
            || Box::new(SyncSched),
            || Box::new(RandomSched::new(42)),
        ];
        for sched in scheds {
            let a = engine.run(&ring, k, &mut *sched(), true);
            let b = engine.run(&ring, k, &mut *sched(), true);
            assert_eq!(a.leader, b.leader);
            assert_eq!(a.metrics.messages, b.metrics.messages);
            let (a, b) = (a.trace.expect("recorded"), b.trace.expect("recorded"));
            assert_eq!(a.events(), b.events());
        }
    }

    #[test]
    fn effective_k_clamps_in_the_registry() {
        assert_eq!(AlgoId::Ak.effective_k(0), 1);
        assert_eq!(AlgoId::AkRef.effective_k(0), 1);
        assert_eq!(AlgoId::Bk.effective_k(1), 2);
        assert_eq!(AlgoId::Bk.effective_k(3), 3);
        assert_eq!(AlgoId::Cr.effective_k(7), 7);
        assert_eq!(AlgoId::ContentOblivious.effective_k(3), 3);
    }

    mod action_bound {
        use super::*;
        use hre_core::{Ak, Bk};
        use proptest::prelude::*;

        /// Runs `algo` with bound `k` under `max_actions`; `(clean, actions)`.
        fn elect(algo: AlgoId, raw: &[u64], k: usize, max_actions: u64) -> (bool, u64) {
            let ring = RingLabeling::from_raw(raw);
            let opts = RunOptions { max_actions, ..RunOptions::default() };
            let mut sched = RoundRobinSched::default();
            let (clean, actions) = match algo {
                AlgoId::Ak => {
                    let rep = hre_sim::run(&Ak::new(k), &ring, &mut sched, opts);
                    (rep.clean(), rep.metrics.actions)
                }
                _ => {
                    let rep = hre_sim::run(&Bk::new(k), &ring, &mut sched, opts);
                    (rep.clean(), rep.metrics.actions)
                }
            };
            (clean, actions)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The bound is sound: no clean run takes fewer actions, so a
            /// run whose bound exceeds its budget ends without a clean
            /// verdict. Checked at a budget one below the bound, where the
            /// runs are cheap, on small rings with `k` near the ring's
            /// multiplicity.
            #[test]
            fn a_run_past_the_bound_never_ends_clean(
                raw in proptest::collection::vec(1u64..4, 2..7),
                bk in any::<bool>(),
                extra in 0usize..4,
            ) {
                let ring = RingLabeling::from_raw(&raw);
                let algo = if bk { AlgoId::Bk } else { AlgoId::Ak };
                let k = algo.effective_k(ring.max_multiplicity()) + extra;
                let bound = min_clean_actions(algo, &ring, k).unwrap();
                let (clean, actions) = elect(algo, &raw, k, RunOptions::default().max_actions);
                if clean {
                    prop_assert!(u128::from(actions) >= bound, "{raw:?} k={k}: {actions} < {bound}");
                }
                let (clean, _) = elect(algo, &raw, k, (bound - 1) as u64);
                prop_assert!(!clean, "{raw:?} {algo:?} k={k} ended clean in under {bound} actions");
            }
        }
    }
}
