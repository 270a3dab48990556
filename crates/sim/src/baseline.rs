//! The **pre-optimization engine**, frozen verbatim as a measurement
//! baseline for experiment E22 (`exp_perf`).
//!
//! This module is a faithful copy of `engine.rs` + `run.rs` as they stood
//! before the zero-copy/pooled-queue rework: per-link `VecDeque` queues,
//! a double `m.clone()` on the fault-capable send path, a freshly
//! allocated `Vec<usize>` enabled set on every scheduler step, and a
//! freshly collected `Vec<ElectionState>` fed to the specification
//! monitor after every action. The one change since it was frozen: the
//! scheduler interface takes an [`EnabledSet`], so each step also builds
//! one from the re-scanned list before asking the scheduler. Keeping it
//! lets the perf experiment measure the optimized engine against the real
//! former hot path — in-process, same compiler, same flags — rather than
//! against committed numbers that rot.
//!
//! Semantics are identical to the optimized engine (E22 and the proptests
//! in `hre-core` assert it); only the constant factors differ. Do not
//! "fix" anything here: the slowness is the point.

use crate::faults::FaultPlan;
use crate::process::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use crate::run::{RunOptions, RunReport, Verdict};
use crate::sched::{EnabledSet, Scheduler, Selection};
use crate::spec::SpecMonitor;
use crate::trace::{ActionEvent, EventKind, Trace};
use hre_ring::RingLabeling;
use std::collections::VecDeque;

/// A message in flight, stamped with its virtual send time.
#[derive(Clone, Debug)]
struct InFlight<M> {
    msg: M,
    send_time: u64,
}

/// The incoming FIFO link of one process (heap-churning `VecDeque` form).
#[derive(Clone, Debug)]
struct Link<M> {
    queue: VecDeque<InFlight<M>>,
    last_delivery: u64,
    delay: u64,
}

impl<M> Link<M> {
    fn new() -> Self {
        Link { queue: VecDeque::new(), last_delivery: 0, delay: 1 }
    }
}

/// Per-process bookkeeping around the user-provided behavior.
struct Slot<P: ProcessBehavior> {
    proc: P,
    started: bool,
    clock: u64,
    wedged: bool,
    sent: u64,
    received: u64,
}

/// The pre-PR ring network: clones every in-flight message and rescans
/// all processes for enabledness on every step.
pub struct BaselineNetwork<P: ProcessBehavior> {
    slots: Vec<Slot<P>>,
    links: Vec<Link<P::Msg>>,
    total_sent: u64,
    total_wire_bits: u64,
    actions_fired: u64,
    peak_link_occupancy: usize,
    peak_space_bits: u64,
    label_bits: u32,
    faults: FaultPlan,
    delay_scale: u64,
}

/// Result of firing one baseline action (the old allocating shape: every
/// fire returns the sent messages in a fresh `Vec`).
#[derive(Clone, Debug)]
enum BaselineFired<M> {
    Started { sent: Vec<M> },
    Received { msg: M, sent: Vec<M> },
    Wedged { head: M },
}

impl<P: ProcessBehavior> BaselineNetwork<P> {
    /// Builds the initial configuration, as the old `Network::new` did
    /// (plain `spawn`, no shared-labeling handoff).
    pub fn new<A>(algo: &A, ring: &RingLabeling) -> Self
    where
        A: Algorithm<Proc = P>,
    {
        let n = ring.n();
        let slots = (0..n)
            .map(|i| Slot {
                proc: algo.spawn(ring.label(i)),
                started: false,
                clock: 0,
                wedged: false,
                sent: 0,
                received: 0,
            })
            .collect();
        let links = (0..n).map(|_| Link::new()).collect();
        let mut net = BaselineNetwork {
            slots,
            links,
            total_sent: 0,
            total_wire_bits: 0,
            actions_fired: 0,
            peak_link_occupancy: 0,
            peak_space_bits: 0,
            label_bits: ring.label_bits(),
            faults: FaultPlan::none(),
            delay_scale: 1,
        };
        for i in 0..n {
            net.note_space(i);
        }
        net
    }

    /// Injects a deterministic link-fault plan (applied to every send).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Election-specification variables of process `i`.
    pub fn election(&self, i: usize) -> ElectionState {
        self.slots[i].proc.election()
    }

    /// All election states, in process order — freshly collected, as the
    /// old engine did after every single action.
    pub fn elections(&self) -> Vec<ElectionState> {
        self.slots.iter().map(|s| s.proc.election()).collect()
    }

    /// The execution's virtual time in paper time units.
    pub fn virtual_time(&self) -> u64 {
        let ticks = self.slots.iter().map(|s| s.clock).max().unwrap_or(0);
        ticks.div_ceil(self.delay_scale)
    }

    /// Total messages sent so far.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.links.iter().map(|l| l.queue.len()).sum()
    }

    /// Is process `i` enabled?
    pub fn enabled(&self, i: usize) -> bool {
        let s = &self.slots[i];
        if s.proc.election().halted {
            return false;
        }
        if !s.started {
            return true;
        }
        !s.wedged && !self.links[i].queue.is_empty()
    }

    /// Indices of all enabled processes — a fresh `Vec` per call, the old
    /// engine's per-step allocation.
    pub fn enabled_set(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.enabled(i)).collect()
    }

    /// If no process is enabled, classify the terminal configuration.
    pub fn terminal_kind(&self) -> Option<crate::engine::TerminalKind> {
        use crate::engine::TerminalKind;
        if (0..self.n()).any(|i| self.enabled(i)) {
            return None;
        }
        let any_pending_at_live = (0..self.n())
            .any(|i| !self.links[i].queue.is_empty() && !self.slots[i].proc.election().halted);
        if any_pending_at_live {
            return Some(TerminalKind::Deadlock);
        }
        if self.slots.iter().all(|s| s.proc.election().halted) && self.in_flight() == 0 {
            Some(TerminalKind::AllHalted)
        } else if self.in_flight() == 0 {
            Some(TerminalKind::QuiescentNotHalted)
        } else {
            Some(TerminalKind::Deadlock)
        }
    }

    /// Fires one atomic action of process `i` (old semantics, old
    /// allocation profile).
    fn fire(&mut self, i: usize) -> Option<BaselineFired<P::Msg>> {
        if !self.enabled(i) {
            return None;
        }
        if !self.slots[i].started {
            let mut out = Outbox::new();
            self.slots[i].proc.on_start(&mut out);
            self.slots[i].started = true;
            self.actions_fired += 1;
            let sent = self.dispatch(i, out);
            self.note_space(i);
            return Some(BaselineFired::Started { sent });
        }
        // Offer the head message — cloned out of the queue, as before.
        let head = self.links[i].queue.front().expect("enabled implies head present").clone();
        let mut out = Outbox::new();
        let reaction = self.slots[i].proc.on_msg(&head.msg, &mut out);
        match reaction {
            Reaction::Consumed => {
                let inflight = self.links[i].queue.pop_front().expect("head present");
                let delivery =
                    (inflight.send_time + self.links[i].delay).max(self.links[i].last_delivery);
                self.links[i].last_delivery = delivery;
                let s = &mut self.slots[i];
                s.clock = s.clock.max(delivery);
                s.received += 1;
                self.actions_fired += 1;
                let sent = self.dispatch(i, out);
                self.note_space(i);
                Some(BaselineFired::Received { msg: inflight.msg, sent })
            }
            Reaction::Ignored => {
                assert!(out.is_empty(), "an action that does not fire must not send messages");
                self.slots[i].wedged = true;
                Some(BaselineFired::Wedged { head: head.msg })
            }
        }
    }

    /// The old send path: every message cloned into the queue (twice on
    /// the duplicate-fault path), the full `Vec` returned to the caller.
    fn dispatch(&mut self, i: usize, out: Outbox<P::Msg>) -> Vec<P::Msg> {
        let n = self.n();
        let now = self.slots[i].clock;
        let msgs = out.into_msgs();
        let mut wire = 0u64;
        for m in &msgs {
            wire += self.slots[i].proc.msg_wire_bits(m, self.label_bits);
        }
        self.total_wire_bits += wire;
        let link = &mut self.links[(i + 1) % n];
        for m in &msgs {
            let fate = self.faults.decide();
            if fate.drop {
                continue;
            }
            link.queue.push_back(InFlight { msg: m.clone(), send_time: now });
            if fate.duplicate {
                link.queue.push_back(InFlight { msg: m.clone(), send_time: now });
            }
            if fate.swap_with_previous && link.queue.len() >= 2 {
                let len = link.queue.len();
                link.queue.swap(len - 1, len - 2);
            }
        }
        self.peak_link_occupancy = self.peak_link_occupancy.max(link.queue.len());
        self.slots[i].sent += msgs.len() as u64;
        self.total_sent += msgs.len() as u64;
        msgs
    }

    fn note_space(&mut self, i: usize) {
        let bits = self.slots[i].proc.space_bits(self.label_bits);
        self.peak_space_bits = self.peak_space_bits.max(bits);
    }
}

/// Runs `algo` on `ring` under `sched` with the frozen pre-PR driver loop:
/// a fresh enabled-set `Vec` per step, a fresh election-state `Vec` per
/// action, and a fully materialized `ActionEvent` per action whether or
/// not anyone is listening. Report shape matches [`crate::run::run`].
pub fn run_baseline<A, S>(
    algo: &A,
    ring: &RingLabeling,
    sched: &mut S,
    opts: RunOptions,
) -> RunReport<<A::Proc as ProcessBehavior>::Msg>
where
    A: Algorithm,
    S: Scheduler,
{
    let mut net: BaselineNetwork<A::Proc> = BaselineNetwork::new(algo, ring);
    let mut monitor = SpecMonitor::new(net.elections());
    let mut trace = opts.record_trace.then(Trace::new);
    let mut steps: u64 = 0;
    let mut seq: u64 = 0;
    let mut budget_exhausted = false;
    let mut stopped_on_violation = false;

    loop {
        if opts.stop_on_violation && !monitor.violations().is_empty() {
            stopped_on_violation = true;
            break;
        }
        let enabled = net.enabled_set();
        if enabled.is_empty() {
            break;
        }
        if net.actions_fired >= opts.max_actions {
            budget_exhausted = true;
            break;
        }
        let selection = sched.select(&EnabledSet::with_members(net.n(), &enabled));
        steps += 1;
        match selection {
            Selection::All => {
                for &i in &enabled {
                    baseline_fire_one(&mut net, i, steps, &mut seq, &mut monitor, &mut trace);
                }
            }
            Selection::One(i) => {
                assert!(enabled.contains(&i), "scheduler picked a disabled process");
                baseline_fire_one(&mut net, i, steps, &mut seq, &mut monitor, &mut trace);
            }
        }
    }

    let terminal = net.terminal_kind();
    let verdict = if stopped_on_violation {
        Verdict::StoppedOnViolation
    } else if budget_exhausted {
        Verdict::ActionLimit
    } else {
        match terminal {
            Some(crate::engine::TerminalKind::AllHalted) => Verdict::Completed,
            Some(crate::engine::TerminalKind::QuiescentNotHalted) => Verdict::QuiescentNotHalted,
            Some(crate::engine::TerminalKind::Deadlock) => Verdict::Deadlock,
            None => Verdict::ActionLimit,
        }
    };
    if !stopped_on_violation {
        monitor.finish(terminal);
    }

    let elections = net.elections();
    let leaders: Vec<usize> =
        elections.iter().enumerate().filter(|(_, e)| e.is_leader).map(|(i, _)| i).collect();

    let metrics = crate::metrics::RunMetrics {
        n: net.n(),
        messages: net.total_sent,
        wire_bits: net.total_wire_bits,
        time_units: net.virtual_time(),
        actions: net.actions_fired,
        steps,
        peak_space_bits: net.peak_space_bits,
        peak_link_occupancy: net.peak_link_occupancy,
        max_received_by_one: net.slots.iter().map(|s| s.received).max().unwrap_or(0),
    };

    RunReport {
        verdict,
        metrics,
        violations: monitor.violations().to_vec(),
        leader: if leaders.len() == 1 { Some(leaders[0]) } else { None },
        trace,
        algorithm: algo.name(),
        scheduler: sched.name(),
    }
}

fn baseline_fire_one<P: ProcessBehavior>(
    net: &mut BaselineNetwork<P>,
    i: usize,
    step: u64,
    seq: &mut u64,
    monitor: &mut SpecMonitor,
    trace: &mut Option<Trace<P::Msg>>,
) {
    let Some(fired) = net.fire(i) else { return };
    let (kind, sent) = match fired {
        BaselineFired::Started { sent } => (EventKind::Start, sent),
        BaselineFired::Received { msg, sent } => (EventKind::Receive(msg), sent),
        BaselineFired::Wedged { head } => (EventKind::Wedge(head), Vec::new()),
    };
    let event = ActionEvent { seq: *seq, step, pid: i, kind, sent, clock: net.slots[i].clock };
    *seq += 1;
    monitor.observe(&net.elections());
    if let Some(t) = trace.as_mut() {
        t.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RoundRobinSched;

    // The baseline is exercised head-to-head against the optimized engine
    // in E22 and in `hre-core`'s differential proptests; here we only
    // smoke-test that it still runs the toy workload it was frozen with.
    use crate::process::{ElectionState, Outbox, Reaction};
    use hre_words::Label;

    struct Toy {
        n: usize,
    }
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum ToyMsg {
        Lab(Label),
        Done(Label),
    }
    struct ToyProc {
        id: Label,
        best: Label,
        seen: usize,
        n: usize,
        st: ElectionState,
    }
    impl Algorithm for Toy {
        type Proc = ToyProc;
        fn name(&self) -> String {
            "Toy".into()
        }
        fn spawn(&self, label: Label) -> ToyProc {
            ToyProc { id: label, best: label, seen: 0, n: self.n, st: ElectionState::INITIAL }
        }
    }
    impl ProcessBehavior for ToyProc {
        type Msg = ToyMsg;
        fn on_start(&mut self, out: &mut Outbox<ToyMsg>) {
            out.send(ToyMsg::Lab(self.id));
        }
        fn on_msg(&mut self, msg: &ToyMsg, out: &mut Outbox<ToyMsg>) -> Reaction {
            match msg {
                ToyMsg::Lab(l) => {
                    self.seen += 1;
                    if *l > self.best {
                        self.best = *l;
                    }
                    if self.seen < self.n - 1 {
                        out.send(ToyMsg::Lab(*l));
                    }
                    if self.seen == self.n - 1 && self.best == self.id {
                        self.st.is_leader = true;
                        self.st.leader = Some(self.id);
                        self.st.done = true;
                        out.send(ToyMsg::Done(self.id));
                    }
                }
                ToyMsg::Done(l) => {
                    if self.st.is_leader {
                        self.st.halted = true;
                    } else {
                        self.st.leader = Some(*l);
                        self.st.done = true;
                        self.st.halted = true;
                        out.send(ToyMsg::Done(*l));
                    }
                }
            }
            Reaction::Consumed
        }
        fn election(&self) -> ElectionState {
            self.st
        }
        fn space_bits(&self, b: u32) -> u64 {
            2 * b as u64 + 64
        }
    }

    #[test]
    fn baseline_runs_and_reports() {
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let rep = run_baseline(
            &Toy { n: 5 },
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        assert_eq!(rep.leader, Some(4));
        assert_eq!(rep.metrics.messages, rep.metrics.actions - 5);
    }
}
