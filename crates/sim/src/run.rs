//! High-level drivers: run an algorithm on a ring under a scheduler, with
//! online specification monitoring, metrics, and optional tracing.

use crate::engine::{Fired, Network, TerminalKind};
use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::process::{Algorithm, ProcessBehavior};
use crate::sched::{EnabledSet, Scheduler, Selection};
use crate::spec::{SpecMonitor, SpecViolation};
use crate::trace::{ActionEvent, EventKind, Trace};
use hre_ring::RingLabeling;

/// Options for a run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Abort after this many atomic actions (defends against livelock).
    pub max_actions: u64,
    /// Record the full event trace (off by default; traces can be large).
    pub record_trace: bool,
    /// Stop as soon as the specification monitor records a violation —
    /// used by the impossibility experiments, which only need the
    /// counterexample, not the (possibly endless) aftermath.
    pub stop_on_violation: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { max_actions: 20_000_000, record_trace: false, stop_on_violation: false }
    }
}

impl RunOptions {
    /// Whether a run takes another scheduler step: some process is
    /// enabled and [`Self::allows`] it. Every run loop stops on this test
    /// (the round-robin sweep finds "nothing enabled" as it searches).
    #[inline]
    pub(crate) fn continues(
        &self,
        monitor: &SpecMonitor,
        enabled: &EnabledSet,
        actions_fired: u64,
    ) -> bool {
        !enabled.is_empty() && self.allows(monitor, actions_fired)
    }

    /// Whether the budget and the violation stop allow another step: fewer
    /// than `max_actions` actions have fired, and no recorded violation
    /// stops the run.
    #[inline]
    pub(crate) fn allows(&self, monitor: &SpecMonitor, actions_fired: u64) -> bool {
        actions_fired < self.max_actions
            && (!self.stop_on_violation || monitor.violations().is_empty())
    }
}

/// How the run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Terminal configuration with every process halted — what the
    /// specification demands.
    Completed,
    /// Terminal, quiescent, but some process never halted.
    QuiescentNotHalted,
    /// Some process is disabled with a pending head message.
    Deadlock,
    /// The action budget ran out (livelock or a genuinely long run).
    ActionLimit,
    /// The run was cut short by `stop_on_violation` after the first
    /// specification violation.
    StoppedOnViolation,
}

/// Everything measured and observed in one run.
#[derive(Clone, Debug)]
pub struct RunReport<M> {
    /// How the run ended.
    pub verdict: Verdict,
    /// Complexity metrics.
    pub metrics: RunMetrics,
    /// Violations of the leader-election specification (empty for a correct
    /// algorithm on a ring of its class).
    pub violations: Vec<SpecViolation>,
    /// Index of the elected leader, if the terminal configuration has
    /// exactly one.
    pub leader: Option<usize>,
    /// The event trace, when requested.
    pub trace: Option<Trace<M>>,
    /// Algorithm name (for reports).
    pub algorithm: String,
    /// Scheduler name (for reports).
    pub scheduler: String,
}

impl<M> RunReport<M> {
    /// `true` iff the run completed and satisfied the whole specification.
    pub fn clean(&self) -> bool {
        self.verdict == Verdict::Completed && self.violations.is_empty()
    }
}

/// Checks the **message-terminating** leader-election specification (the
/// weaker notion used by some related work, e.g. Delporte et al.): the run
/// reaches quiescence after finitely many messages with a unique agreed
/// leader, but processes are *not* required to halt. Exactly the paper's
/// conditions 1–3 without condition 4.
pub fn satisfies_message_terminating<M>(rep: &RunReport<M>) -> bool {
    let verdict_ok = matches!(rep.verdict, Verdict::Completed | Verdict::QuiescentNotHalted);
    let violations_ok = rep.violations.iter().all(|v| {
        matches!(
            v,
            SpecViolation::NeverHalted { .. }
                | SpecViolation::BadTermination { kind: TerminalKind::QuiescentNotHalted }
        )
    });
    verdict_ok && violations_ok && rep.leader.is_some()
}

/// Checks the **stabilizing** leader-election specification: the run
/// reaches quiescence after finitely many messages, and *at quiescence*
/// exactly one process claims leadership with every process's `leader`
/// variable naming it — but leadership claims may be transient along the
/// way and nobody is required to halt. This is the natural notion for
/// content-oblivious algorithms (arXiv 2509.19187), where a process can
/// irrevocably learn it *lost* but a unidirectional ring carries no
/// signal that could tell the winner it has seen the last pulse.
///
/// Concretely: transient [`MultipleLeaders`](SpecViolation::MultipleLeaders)
/// and [`LeaderRevoked`](SpecViolation::LeaderRevoked) observations are
/// tolerated, as are all the not-halting consequences — but terminal
/// disagreement ([`WrongLeaderVariable`](SpecViolation::WrongLeaderVariable)),
/// a leaderless terminal configuration, revoked `done`, or acting after a
/// halt still fail, and the terminal configuration must have exactly one
/// leader (`rep.leader.is_some()`).
pub fn satisfies_stabilizing_election<M>(rep: &RunReport<M>) -> bool {
    let verdict_ok = matches!(rep.verdict, Verdict::Completed | Verdict::QuiescentNotHalted);
    let violations_ok = rep.violations.iter().all(|v| {
        matches!(
            v,
            SpecViolation::NeverHalted { .. }
                | SpecViolation::HaltedBeforeDone { .. }
                | SpecViolation::LeaderRevoked { .. }
                | SpecViolation::MultipleLeaders { .. }
                | SpecViolation::BadTermination { kind: TerminalKind::QuiescentNotHalted }
        )
    });
    verdict_ok && violations_ok && rep.leader.is_some()
}

/// Hook invoked after every atomic event, with full read access to the
/// network (process states included). Used by the figure-reproduction and
/// state-diagram experiments.
pub trait Observer<P: ProcessBehavior> {
    /// Called after each event, before the next scheduling decision.
    fn after_event(&mut self, net: &Network<P>, event: &ActionEvent<P::Msg>);

    /// Whether this observer actually reads the events. The default is
    /// `true`; [`NullObserver`] returns `false`, which lets the driver skip
    /// materializing [`ActionEvent`]s (and the per-action message clones
    /// they imply) on the hot path.
    fn wants_events(&self) -> bool {
        true
    }
}

/// The no-op observer.
pub struct NullObserver;

impl<P: ProcessBehavior> Observer<P> for NullObserver {
    fn after_event(&mut self, _net: &Network<P>, _event: &ActionEvent<P::Msg>) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Runs `algo` on `ring` under `sched` with default observation.
pub fn run<A, S>(
    algo: &A,
    ring: &RingLabeling,
    sched: &mut S,
    opts: RunOptions,
) -> RunReport<<A::Proc as ProcessBehavior>::Msg>
where
    A: Algorithm,
    S: Scheduler,
{
    run_with_observer(algo, ring, sched, opts, &mut NullObserver)
}

/// Runs `algo` on `ring` under `sched`, reporting every event to `obs`.
pub fn run_with_observer<A, S, O>(
    algo: &A,
    ring: &RingLabeling,
    sched: &mut S,
    opts: RunOptions,
    obs: &mut O,
) -> RunReport<<A::Proc as ProcessBehavior>::Msg>
where
    A: Algorithm,
    S: Scheduler,
    O: Observer<A::Proc>,
{
    let net: Network<A::Proc> = Network::new(algo, ring);
    run_network(net, algo.name(), sched, opts, obs)
}

/// Runs `algo` on `ring` with a deterministic link-[`FaultPlan`] in force —
/// the assumption-ablation entry point. With a benign plan this is
/// identical to [`run`].
pub fn run_faulty<A, S>(
    algo: &A,
    ring: &RingLabeling,
    sched: &mut S,
    opts: RunOptions,
    plan: FaultPlan,
) -> RunReport<<A::Proc as ProcessBehavior>::Msg>
where
    A: Algorithm,
    S: Scheduler,
{
    let mut net: Network<A::Proc> = Network::new(algo, ring);
    net.set_fault_plan(plan);
    run_network(net, algo.name(), sched, opts, &mut NullObserver)
}

/// Runs `algo` on `ring` with **heterogeneous link delays** (`delays[i]`
/// ticks on the incoming link of process `i`): the paper's model with
/// "transmission time at most one unit" made concrete. The reported
/// `time_units` are normalized by the longest delay, so the paper's time
/// bounds still apply verbatim.
pub fn run_with_delays<A, S>(
    algo: &A,
    ring: &RingLabeling,
    sched: &mut S,
    opts: RunOptions,
    delays: &[u64],
) -> RunReport<<A::Proc as ProcessBehavior>::Msg>
where
    A: Algorithm,
    S: Scheduler,
{
    let mut net: Network<A::Proc> = Network::new(algo, ring);
    net.set_link_delays(delays);
    run_network(net, algo.name(), sched, opts, &mut NullObserver)
}

/// Drives a pre-built network to completion (shared by the fault-free and
/// faulty entry points).
fn run_network<P, S, O>(
    mut net: Network<P>,
    algorithm: String,
    sched: &mut S,
    opts: RunOptions,
    obs: &mut O,
) -> RunReport<P::Msg>
where
    P: ProcessBehavior,
    S: Scheduler,
    O: Observer<P>,
{
    let mut monitor = SpecMonitor::new(net.elections());
    let mut trace = opts.record_trace.then(Trace::new);
    // Runs nobody records take one of the network's own loops, which
    // materialize no events and clone no message: the round-robin sweep
    // under round-robin, the exact-set loop under every other scheduler.
    let steps = if opts.record_trace || obs.wants_events() || !net.faults_benign() {
        run_events(&mut net, sched, &opts, &mut monitor, &mut trace, obs)
    } else if let Some(rr) = sched.as_round_robin() {
        net.run_round_robin(rr, &mut monitor, &opts)
    } else {
        net.run_unrecorded(sched, &mut monitor, &opts)
    };

    // Every loop stops at the first of: a violation under
    // `stop_on_violation`, an empty enabled set (a terminal
    // configuration), the action budget (enabled set non-empty, so no
    // terminal kind).
    let stopped_on_violation = opts.stop_on_violation && !monitor.violations().is_empty();
    let terminal = net.terminal_kind();
    let verdict = if stopped_on_violation {
        Verdict::StoppedOnViolation
    } else {
        match terminal {
            Some(TerminalKind::AllHalted) => Verdict::Completed,
            Some(TerminalKind::QuiescentNotHalted) => Verdict::QuiescentNotHalted,
            Some(TerminalKind::Deadlock) => Verdict::Deadlock,
            None => Verdict::ActionLimit,
        }
    };
    if !stopped_on_violation {
        monitor.finish(terminal);
    }

    let elections = net.elections();
    let leaders: Vec<usize> =
        elections.iter().enumerate().filter(|(_, e)| e.is_leader).map(|(i, _)| i).collect();

    let metrics = RunMetrics {
        n: net.n(),
        messages: net.total_sent(),
        wire_bits: net.total_wire_bits(),
        time_units: net.virtual_time(),
        actions: net.actions_fired(),
        steps,
        peak_space_bits: net.peak_space_bits(),
        peak_link_occupancy: net.peak_link_occupancy(),
        max_received_by_one: (0..net.n()).map(|i| net.received_by(i)).max().unwrap_or(0),
    };

    RunReport {
        verdict,
        metrics,
        violations: monitor.violations().to_vec(),
        leader: if leaders.len() == 1 { Some(leaders[0]) } else { None },
        trace,
        algorithm,
        scheduler: sched.name(),
    }
}

/// The run loop for recorded runs (a trace, or an observer that reads
/// events) and for runs under a fault plan with rules: steps through
/// [`Network::fire_with_record`], materializing one [`ActionEvent`] per
/// action. Returns the scheduler steps taken.
fn run_events<P, S, O>(
    net: &mut Network<P>,
    sched: &mut S,
    opts: &RunOptions,
    monitor: &mut SpecMonitor,
    trace: &mut Option<Trace<P::Msg>>,
    obs: &mut O,
) -> u64
where
    P: ProcessBehavior,
    S: Scheduler,
    O: Observer<P>,
{
    let mut steps: u64 = 0;
    let mut seq: u64 = 0;
    // Reusable snapshot of the enabled set for synchronous steps (the live
    // set changes as processes fire).
    let mut all_buf: Vec<usize> = Vec::new();
    while opts.continues(monitor, net.enabled_procs(), net.actions_fired()) {
        steps += 1;
        match sched.select(net.enabled_procs()) {
            Selection::All => {
                all_buf.clear();
                all_buf.extend(net.enabled_procs().iter());
                for &i in &all_buf {
                    fire_one(net, i, steps, &mut seq, monitor, trace, obs);
                }
            }
            Selection::One(i) => {
                let fired = fire_one(net, i, steps, &mut seq, monitor, trace, obs);
                assert!(fired, "scheduler picked a disabled process");
            }
        }
    }
    steps
}

/// Fires `i` if it is enabled, feeding the monitor, observer and trace;
/// returns whether it fired.
fn fire_one<P, O>(
    net: &mut Network<P>,
    i: usize,
    step: u64,
    seq: &mut u64,
    monitor: &mut SpecMonitor,
    trace: &mut Option<Trace<P::Msg>>,
    obs: &mut O,
) -> bool
where
    P: ProcessBehavior,
    O: Observer<P>,
{
    let mut sent: Vec<P::Msg> = Vec::new();
    let Some(fired) = net.fire_with_record(i, Some(&mut sent)) else { return false };
    let kind = match fired {
        Fired::Started { .. } => EventKind::Start,
        Fired::Received { msg, .. } => EventKind::Receive(msg),
        Fired::Wedged { head } => EventKind::Wedge(head),
    };
    let event = ActionEvent { seq: *seq, step, pid: i, kind, sent, clock: net.clock(i) };
    *seq += 1;
    monitor.observe_one(i, net.election(i));
    obs.after_event(net, &event);
    if let Some(t) = trace.as_mut() {
        t.push(event);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ElectionState, Outbox, Reaction};
    use crate::sched::{RandomSched, RoundRobinSched, SyncSched};
    use hre_words::Label;

    /// Minimal correct election for K1 rings with known n: circulate all
    /// labels; after n-1 receptions everyone knows the max label; the max
    /// then sends a DONE token that halts everyone. (Test double for the
    /// driver, not a paper algorithm.)
    struct KnownN {
        n: usize,
    }
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Msg {
        Lab(Label),
        Done(Label),
    }
    struct KnownNProc {
        id: Label,
        best: Label,
        seen: usize,
        n: usize,
        st: ElectionState,
    }
    impl Algorithm for KnownN {
        type Proc = KnownNProc;
        fn name(&self) -> String {
            "KnownN".into()
        }
        fn spawn(&self, label: Label) -> KnownNProc {
            KnownNProc { id: label, best: label, seen: 0, n: self.n, st: ElectionState::INITIAL }
        }
    }
    impl ProcessBehavior for KnownNProc {
        type Msg = Msg;
        fn on_start(&mut self, out: &mut Outbox<Msg>) {
            out.send(Msg::Lab(self.id));
        }
        fn on_msg(&mut self, msg: &Msg, out: &mut Outbox<Msg>) -> Reaction {
            match msg {
                Msg::Lab(l) => {
                    self.seen += 1;
                    if *l > self.best {
                        self.best = *l;
                    }
                    if self.seen < self.n - 1 {
                        out.send(Msg::Lab(*l));
                    }
                    if self.seen == self.n - 1 && self.best == self.id {
                        self.st.is_leader = true;
                        self.st.leader = Some(self.id);
                        self.st.done = true;
                        out.send(Msg::Done(self.id));
                    }
                    Reaction::Consumed
                }
                Msg::Done(l) => {
                    if self.st.is_leader {
                        self.st.halted = true;
                    } else {
                        self.st.leader = Some(*l);
                        self.st.done = true;
                        self.st.halted = true;
                        out.send(Msg::Done(*l));
                    }
                    Reaction::Consumed
                }
            }
        }
        fn election(&self) -> ElectionState {
            self.st
        }
        fn space_bits(&self, b: u32) -> u64 {
            2 * b as u64 + 67
        }
    }

    fn ring5() -> RingLabeling {
        RingLabeling::from_raw(&[3, 1, 4, 1 + 4, 5 + 4])
    }

    #[test]
    fn run_completes_cleanly_under_every_scheduler() {
        let algo = KnownN { n: 5 };
        let ring = ring5();
        let r1 = run(&algo, &ring, &mut SyncSched, RunOptions::default());
        let r2 = run(&algo, &ring, &mut RoundRobinSched::default(), RunOptions::default());
        let r3 = run(&algo, &ring, &mut RandomSched::new(99), RunOptions::default());
        for r in [&r1, &r2, &r3] {
            assert!(r.clean(), "{:?} {:?}", r.verdict, r.violations);
            assert_eq!(r.leader, Some(4)); // label 9 is max
        }
        // Confluence: message counts and virtual time agree across
        // schedulers.
        assert_eq!(r1.metrics.messages, r2.metrics.messages);
        assert_eq!(r2.metrics.messages, r3.metrics.messages);
        assert_eq!(r1.metrics.time_units, r2.metrics.time_units);
        assert_eq!(r2.metrics.time_units, r3.metrics.time_units);
    }

    #[test]
    fn trace_recording_captures_streams() {
        let algo = KnownN { n: 3 };
        let ring = RingLabeling::from_raw(&[2, 9, 4]);
        let mut sched = RoundRobinSched::default();
        let opts = RunOptions { record_trace: true, ..Default::default() };
        let rep = run(&algo, &ring, &mut sched, opts);
        assert!(rep.clean());
        let trace = rep.trace.expect("requested");
        assert_eq!(trace.events().len() as u64, rep.metrics.actions);
        // p2 (label 4) receives p1's label 9 first.
        assert_eq!(trace.received_stream(2)[0], Msg::Lab(Label::new(9)));
    }

    #[test]
    fn action_limit_verdict() {
        let algo = KnownN { n: 4 }; // wrong n for a 3-ring: never terminates cleanly
        let ring = RingLabeling::from_raw(&[2, 9, 4]);
        let rep = run(
            &algo,
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions { max_actions: 5, ..Default::default() },
        );
        assert_eq!(rep.verdict, Verdict::ActionLimit);
        assert!(!rep.clean());
    }

    #[test]
    fn wrong_knowledge_violates_spec() {
        // KnownN with n too small on a bigger ring: two processes may both
        // decide early; at minimum the run cannot be clean.
        let algo = KnownN { n: 3 };
        let ring = RingLabeling::from_raw(&[1, 2, 3, 4, 5, 6]);
        let rep = run(&algo, &ring, &mut SyncSched, RunOptions::default());
        assert!(!rep.clean());
    }

    /// An observer that reads events, which sends a run down the recorded
    /// loop.
    struct EveryEvent;

    impl<P: ProcessBehavior> Observer<P> for EveryEvent {
        fn after_event(&mut self, _net: &Network<P>, _event: &ActionEvent<P::Msg>) {}
    }

    /// A sparse phase: the process labeled `kick` sends one message on its
    /// initial action; the one labeled `source`, its right neighbor,
    /// answers it with `burst` messages to the one labeled `sink`, which
    /// consumes them without forwarding anything; every other process, and
    /// the kick and the source once done, halt. The burst leaves a lap
    /// after the initial actions, and from then on the sink is the only
    /// enabled process, one place behind the cursor after each of its
    /// actions.
    struct Backlog {
        kick: Label,
        source: Label,
        sink: Label,
        burst: u32,
    }

    struct BacklogProc {
        kicks: bool,
        sends: u32,
        drains: u32,
        st: ElectionState,
    }

    impl Algorithm for Backlog {
        type Proc = BacklogProc;
        fn name(&self) -> String {
            "Backlog".into()
        }
        fn spawn(&self, label: Label) -> BacklogProc {
            BacklogProc {
                kicks: label == self.kick,
                sends: if label == self.source { self.burst } else { 0 },
                drains: if label == self.sink { self.burst } else { 0 },
                st: ElectionState::INITIAL,
            }
        }
    }

    impl ProcessBehavior for BacklogProc {
        type Msg = u32;
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if self.kicks {
                out.send(0);
            }
            self.st.halted = self.sends == 0 && self.drains == 0;
        }
        fn on_msg(&mut self, _msg: &u32, out: &mut Outbox<u32>) -> Reaction {
            if self.sends > 0 {
                for m in 0..self.sends {
                    out.send(m);
                }
                self.sends = 0;
                self.st.halted = true;
            } else {
                self.drains -= 1;
                self.st.halted = self.drains == 0;
            }
            Reaction::Consumed
        }
        fn election(&self) -> ElectionState {
            self.st
        }
        fn space_bits(&self, _b: u32) -> u64 {
            self.drains as u64
        }
    }

    /// [`Backlog`] with its three roles at consecutive labels from `kick`
    /// (wrapping past 150 to 1).
    fn backlog(kick: u64, burst: u32) -> Backlog {
        let at = |l: u64| Label::new((l - 1) % 150 + 1);
        Backlog { kick: at(kick), source: at(kick + 1), sink: at(kick + 2), burst }
    }

    /// A process that sends its label and then ignores every message, so
    /// every process wedges on its head.
    struct Stubborn;

    struct StubbornProc(Label);

    impl Algorithm for Stubborn {
        type Proc = StubbornProc;
        fn name(&self) -> String {
            "Stubborn".into()
        }
        fn spawn(&self, label: Label) -> StubbornProc {
            StubbornProc(label)
        }
    }

    impl ProcessBehavior for StubbornProc {
        type Msg = Label;
        fn on_start(&mut self, out: &mut Outbox<Label>) {
            out.send(self.0);
        }
        fn on_msg(&mut self, _msg: &Label, _out: &mut Outbox<Label>) -> Reaction {
            Reaction::Ignored
        }
        fn election(&self) -> ElectionState {
            ElectionState::INITIAL
        }
        fn space_bits(&self, b: u32) -> u64 {
            b as u64
        }
    }

    /// `algo` on `ring` under round-robin, through the sweep and through
    /// the recorded loop: the same steps, cursor, counters, process
    /// states and violations, an exact enabled set after the sweep, and
    /// equal reports from the public entry points.
    fn sweep_matches_recorded<A: Algorithm>(algo: &A, ring: &RingLabeling, opts: RunOptions) {
        let mut swept = Network::new(algo, ring);
        let mut swept_monitor = SpecMonitor::new(swept.elections());
        let mut swept_rr = RoundRobinSched::default();
        let steps = swept.run_round_robin(&mut swept_rr, &mut swept_monitor, &opts);

        let mut recorded = Network::new(algo, ring);
        let mut recorded_monitor = SpecMonitor::new(recorded.elections());
        let mut recorded_rr = RoundRobinSched::default();
        let recorded_steps = run_events(
            &mut recorded,
            &mut recorded_rr,
            &opts,
            &mut recorded_monitor,
            &mut None,
            &mut EveryEvent,
        );

        let case = format!("{} on n = {}, budget {}", algo.name(), ring.n(), opts.max_actions);
        assert_eq!(steps, recorded_steps, "{case}");
        assert_eq!(swept_rr.cursor, recorded_rr.cursor, "{case}");
        assert_eq!(
            format!("{:?}", swept.counters()),
            format!("{:?}", recorded.counters()),
            "{case}"
        );
        assert_eq!(swept.virtual_time(), recorded.virtual_time(), "{case}");
        assert_eq!(swept.elections(), recorded.elections(), "{case}");
        assert_eq!(swept_monitor.violations(), recorded_monitor.violations(), "{case}");
        let exact: Vec<usize> = (0..ring.n()).filter(|&i| swept.enabled(i)).collect();
        assert_eq!(swept.enabled_set(), exact, "{case}");
        assert_eq!(swept.enabled_procs(), recorded.enabled_procs(), "{case}");
        assert_eq!(swept.terminal_kind(), recorded.terminal_kind(), "{case}");

        let fast = run(algo, ring, &mut RoundRobinSched::default(), opts);
        let slow =
            run_with_observer(algo, ring, &mut RoundRobinSched::default(), opts, &mut EveryEvent);
        assert_eq!(fast.verdict, slow.verdict, "{case}");
        assert_eq!(fast.leader, slow.leader, "{case}");
        assert_eq!(fast.violations, slow.violations, "{case}");
        assert_eq!(fast.metrics, slow.metrics, "{case}");
        assert_eq!(fast.metrics.steps, steps, "{case}");
    }

    /// Labels `1..=n`, over three bitset words at `n = 150`.
    fn distinct(n: u64) -> RingLabeling {
        RingLabeling::from_raw(&(1..=n).collect::<Vec<_>>())
    }

    #[test]
    fn sweep_drains_a_backlog_behind_the_cursor() {
        // The sink at position 70 (the second word) drains 500 messages
        // while the other 149 processes have halted: the sweep must skip
        // from the cursor past the idle words and wrap to it every time.
        let ring = distinct(150);
        sweep_matches_recorded(&backlog(69, 500), &ring, RunOptions::default());
        let rep =
            run(&backlog(69, 500), &ring, &mut RoundRobinSched::default(), Default::default());
        assert_eq!((rep.metrics.actions, rep.metrics.steps), (651, 651));
        // The sink at the last position, and at the first: there the sweep
        // finds it disabled a lap before the burst reaches it, so only the
        // send's candidate mark leads the search back to it.
        for kick in [148, 149] {
            sweep_matches_recorded(&backlog(kick, 300), &ring, RunOptions::default());
        }
    }

    #[test]
    fn sweep_stops_on_the_budget_mid_sweep() {
        let known = KnownN { n: 150 };
        let ring = distinct(150);
        for max_actions in [0, 1, 69, 70, 149, 150, 151, 152, 400, 1_000, 5_000] {
            let opts = RunOptions { max_actions, ..Default::default() };
            sweep_matches_recorded(&backlog(69, 500), &ring, opts);
            sweep_matches_recorded(&backlog(149, 500), &ring, opts);
            sweep_matches_recorded(&known, &ring, opts);
            let rep = run(&known, &ring, &mut RoundRobinSched::default(), opts);
            assert_eq!(rep.verdict, Verdict::ActionLimit, "budget {max_actions}");
        }
    }

    #[test]
    fn sweep_wedges_and_stops_on_violations_like_the_recorded_loop() {
        for n in [2, 63, 64, 65, 130] {
            sweep_matches_recorded(&Stubborn, &distinct(n), RunOptions::default());
        }
        // Halting before `done` is a violation: the first one stops the run.
        let opts = RunOptions { stop_on_violation: true, ..Default::default() };
        sweep_matches_recorded(&backlog(69, 500), &distinct(150), opts);
    }

    #[test]
    fn observer_sees_every_event() {
        struct Counter(u64);
        impl Observer<KnownNProc> for Counter {
            fn after_event(&mut self, _n: &Network<KnownNProc>, _e: &ActionEvent<Msg>) {
                self.0 += 1;
            }
        }
        let algo = KnownN { n: 5 };
        let mut counter = Counter(0);
        let rep =
            run_with_observer(&algo, &ring5(), &mut SyncSched, RunOptions::default(), &mut counter);
        assert_eq!(counter.0, rep.metrics.actions);
    }
}
