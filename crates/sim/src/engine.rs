//! The ring network engine: configurations, steps, virtual time, terminal
//! detection.
//!
//! A **configuration** is the vector of process states plus the contents of
//! every link (Section II). The engine owns both, fires atomic actions, and
//! maintains the paper's time-unit metric online:
//!
//! * every message carries the virtual time at which it was sent;
//! * its delivery time is `max(send_time + 1, previous delivery on the same
//!   link)` — transmission takes at most one unit and links are FIFO;
//! * a process's clock is the max delivery time it has processed
//!   (processing itself takes zero time);
//! * the execution's duration is the largest clock reached.
//!
//! This is exactly the classical normalization ("the longest message delay
//! becomes one unit of time") the paper cites from Tel's book.
//!
//! # Hot-path design
//!
//! The engine is the inner loop of every experiment, so steady-state
//! stepping is **allocation- and clone-free**:
//!
//! * each link is a ring buffer of `(message, send time)` pairs; a buffer
//!   grows only to a new high-water mark of its own queue, so after
//!   warm-up no send or receive touches the allocator;
//! * messages **move**: from the outbox onto the link on send, off the
//!   link on receive. The engine clones a message only when the fault plan
//!   duplicates it, when a caller asks for a recorded copy
//!   ([`Network::fire_with_record`]), or on the rare wedge path;
//! * the enabled set is maintained **incrementally** as a bitset
//!   ([`Network::enabled_procs`], an [`EnabledSet`]): each fired action can
//!   only change the enabledness of the firing process and, if it sent
//!   something, its right neighbor, so each fire sets or clears at most
//!   two bits instead of rebuilding the set every scheduler step. The set
//!   answers every scheduler query in ascending index order, the order in
//!   which the pre-optimization engine (see [`crate::baseline`]) rebuilt
//!   its list, so every scheduling decision is unchanged;
//! * an unrecorded run under [`RoundRobinSched`] does not keep the set
//!   exact at all (`Network::run_round_robin`): it walks the ring from the
//!   cursor, fires the cursor's process when it is enabled and otherwise
//!   skips ahead through a superset of the enabled processes, exact again
//!   when the run stops;
//! * a benign [`FaultPlan`] (no rules) is never consulted: sends go
//!   straight onto the link;
//! * one action body (`Parts::act`) serves [`Network::fire_with_record`]
//!   and the run loops for unrecorded runs (`Network::run_unrecorded`,
//!   `Network::run_round_robin`), which hold the network's fields borrowed
//!   apart for the whole run; the
//!   body is monomorphised over where sent messages are copied (`Sink`),
//!   so the unrecorded loop carries no recording branch.

use crate::faults::FaultPlan;
use crate::process::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use crate::run::RunOptions;
use crate::sched::{EnabledSet, RoundRobinSched, Scheduler, Selection};
use crate::spec::SpecMonitor;
use hre_ring::RingLabeling;
use std::collections::VecDeque;

/// The incoming FIFO link of one process.
#[derive(Clone, Debug)]
struct Link<M> {
    /// The messages in flight, oldest first, each with its virtual send
    /// time.
    queue: VecDeque<(M, u64)>,
    /// Delivery time of the last message received on this link (FIFO links
    /// deliver in non-decreasing virtual time).
    last_delivery: u64,
    /// Transmission time of this link in clock ticks. The paper's model
    /// says "at most one time unit": with [`Network::set_link_delays`],
    /// one unit = `delay_scale` ticks and each link takes `delay ≤ scale`.
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
    /// Virtual local clock.
    clock: u64,
    /// The head message was offered and ignored: the process is disabled
    /// until its state changes — which cannot happen — so it is deadlocked.
    wedged: bool,
    sent: u64,
    received: u64,
}

/// Why the network stopped being able to take steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalKind {
    /// Every process has halted and no messages remain: the outcome the
    /// specification demands.
    AllHalted,
    /// No process is enabled, no messages remain, but some process never
    /// halted (message-terminating but not process-terminating behavior).
    QuiescentNotHalted,
    /// Some process has a pending head message it cannot receive (disabled
    /// with a non-empty link) — a deadlock. Lemmas 11–12 prove `Bk` never
    /// does this; the engine checks rather than assumes.
    Deadlock,
}

impl<P: ProcessBehavior + Clone> Clone for Slot<P> {
    fn clone(&self) -> Self {
        Slot {
            proc: self.proc.clone(),
            started: self.started,
            clock: self.clock,
            wedged: self.wedged,
            sent: self.sent,
            received: self.received,
        }
    }
}

/// The network-wide counters, accumulated in place as actions fire and
/// exposed as one borrowed snapshot via [`Network::counters`] — no
/// per-step re-collection.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounters {
    /// Total messages sent so far.
    pub total_sent: u64,
    /// Total bits put on the wire so far.
    pub total_wire_bits: u64,
    /// Total atomic actions fired so far.
    pub actions_fired: u64,
    /// Largest single-link queue length observed so far.
    pub peak_link_occupancy: usize,
    /// Largest per-process space (bits) observed so far.
    pub peak_space_bits: u64,
}

/// Where an action's sent messages are copied: nowhere (`()`), or a
/// caller's record buffer.
trait Sink<M> {
    fn record(&mut self, msg: &M);
}

impl<M> Sink<M> for () {
    #[inline(always)]
    fn record(&mut self, _msg: &M) {}
}

impl<M: Clone> Sink<M> for Vec<M> {
    #[inline]
    fn record(&mut self, msg: &M) {
        self.push(msg.clone());
    }
}

/// The ring network: `n` processes and `n` FIFO links.
///
/// Link `i` is the incoming link of process `i` (i.e. the link from
/// `p(i−1)` to `p(i)`).
pub struct Network<P: ProcessBehavior> {
    slots: Vec<Slot<P>>,
    links: Vec<Link<P::Msg>>,
    /// The currently-enabled processes, patched incrementally after
    /// every fire.
    enabled_procs: EnabledSet,
    counters: NetCounters,
    label_bits: u32,
    faults: FaultPlan,
    /// How many clock ticks make one of the paper's time units (the
    /// longest link delay). 1 unless heterogeneous delays are configured.
    delay_scale: u64,
    /// Reusable outbox, lent to each firing action and drained by
    /// dispatch, so sends stop allocating once warm.
    scratch: Outbox<P::Msg>,
}

/// The fields an atomic action reads and writes, borrowed apart from the
/// enabled set so that a run loop can hold both for a whole run.
struct Parts<'a, P: ProcessBehavior> {
    slots: &'a mut [Slot<P>],
    links: &'a mut [Link<P::Msg>],
    counters: &'a mut NetCounters,
    faults: &'a mut FaultPlan,
    out: &'a mut Outbox<P::Msg>,
    label_bits: u32,
}

impl<P: ProcessBehavior> Network<P> {
    /// Builds the initial configuration: every process in its initial state
    /// (`on_start` not yet fired), all links empty.
    ///
    /// Processes are spawned via [`Algorithm::spawn_ring`], so algorithms
    /// that can share per-ring tables or the ring labeling (zero-copy
    /// state) do.
    pub fn new<A>(algo: &A, ring: &RingLabeling) -> Self
    where
        A: Algorithm<Proc = P>,
    {
        let n = ring.n();
        let procs = algo.spawn_ring(ring);
        assert_eq!(procs.len(), n, "spawn_ring builds one process per ring position");
        let slots: Vec<Slot<P>> = procs
            .into_iter()
            .map(|proc| Slot {
                proc,
                started: false,
                clock: 0,
                wedged: false,
                sent: 0,
                received: 0,
            })
            .collect();
        let links = (0..n).map(|_| Link::new()).collect();
        let mut net = Network {
            slots,
            links,
            enabled_procs: EnabledSet::new(n),
            counters: NetCounters::default(),
            label_bits: ring.label_bits(),
            faults: FaultPlan::none(),
            delay_scale: 1,
            scratch: Outbox::new(),
        };
        let (mut parts, enabled) = net.split();
        for i in 0..n {
            parts.note_space(i);
            enabled.set(i, enabled_at(&parts.slots[i], &parts.links[i]));
        }
        net
    }

    /// Injects a deterministic link-fault plan (see [`crate::faults`]);
    /// applied to every subsequent send. The default plan is benign.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Whether the fault plan in force has no rules (the model's
    /// assumptions hold).
    pub(crate) fn faults_benign(&self) -> bool {
        self.faults.is_benign()
    }

    /// Configures **heterogeneous link delays**: `delays[i]` ticks on the
    /// incoming link of process `i` (each `≥ 1`). The paper's time unit is
    /// the *longest* delay ("message transmission time is at most one time
    /// unit"), so [`Self::virtual_time`] and the metrics normalize by
    /// `max(delays)`. Call before the first action fires.
    pub fn set_link_delays(&mut self, delays: &[u64]) {
        assert_eq!(delays.len(), self.n(), "one delay per link");
        assert!(delays.iter().all(|&d| d >= 1), "delays are at least one tick");
        assert_eq!(self.counters.actions_fired, 0, "configure delays before running");
        for (link, &d) in self.links.iter_mut().zip(delays) {
            link.delay = d;
        }
        self.delay_scale = delays.iter().copied().max().unwrap_or(1);
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Immutable view of process `i`'s behavior (for observers and
    /// algorithm-specific analyses).
    pub fn process(&self, i: usize) -> &P {
        &self.slots[i].proc
    }

    /// Election-specification variables of process `i`.
    pub fn election(&self, i: usize) -> ElectionState {
        self.slots[i].proc.election()
    }

    /// All election states, in process order (allocates; the run loops
    /// use [`Self::election`] per fired process instead).
    pub fn elections(&self) -> Vec<ElectionState> {
        self.slots.iter().map(|s| s.proc.election()).collect()
    }

    /// Virtual clock of process `i`.
    pub fn clock(&self, i: usize) -> u64 {
        self.slots[i].clock
    }

    /// The execution's virtual time so far, in the paper's time units: max
    /// process clock, normalized so the longest link delay is one unit
    /// (rounded up).
    pub fn virtual_time(&self) -> u64 {
        let ticks = self.slots.iter().map(|s| s.clock).max().unwrap_or(0);
        ticks.div_ceil(self.delay_scale)
    }

    /// The accumulated network-wide counters, as one borrowed snapshot.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// Total messages sent so far.
    pub fn total_sent(&self) -> u64 {
        self.counters.total_sent
    }

    /// Total bits put on the wire so far (per-message sizes from
    /// [`ProcessBehavior::msg_wire_bits`]).
    pub fn total_wire_bits(&self) -> u64 {
        self.counters.total_wire_bits
    }

    /// Total atomic actions fired so far.
    pub fn actions_fired(&self) -> u64 {
        self.counters.actions_fired
    }

    /// Messages sent by process `i` so far.
    pub fn sent_by(&self, i: usize) -> u64 {
        self.slots[i].sent
    }

    /// Messages received by process `i` so far.
    pub fn received_by(&self, i: usize) -> u64 {
        self.slots[i].received
    }

    /// Messages currently in flight (sum of link queue lengths).
    pub fn in_flight(&self) -> usize {
        self.links.iter().map(|l| l.queue.len()).sum()
    }

    /// Largest single-link queue length observed so far.
    pub fn peak_link_occupancy(&self) -> usize {
        self.counters.peak_link_occupancy
    }

    /// Largest per-process space (bits) observed so far, per the
    /// algorithm's own accounting.
    pub fn peak_space_bits(&self) -> u64 {
        self.counters.peak_space_bits
    }

    /// Contents of the incoming link of process `i`, oldest first (for
    /// tests and observers).
    pub fn link_contents(&self, i: usize) -> Vec<P::Msg> {
        self.links[i].queue.iter().map(|(msg, _)| msg.clone()).collect()
    }

    /// Is process `i` enabled? Either its initial action has not fired, or
    /// a head message is present and the process is not halted/wedged.
    pub fn enabled(&self, i: usize) -> bool {
        enabled_at(&self.slots[i], &self.links[i])
    }

    /// All enabled processes — a borrowed view of the
    /// incrementally-maintained set (no allocation).
    pub fn enabled_procs(&self) -> &EnabledSet {
        &self.enabled_procs
    }

    /// Indices of all enabled processes, ascending (allocating wrapper
    /// around [`Self::enabled_procs`]).
    pub fn enabled_set(&self) -> Vec<usize> {
        self.enabled_procs.iter().collect()
    }

    /// If no process is enabled, classify the terminal configuration.
    pub fn terminal_kind(&self) -> Option<TerminalKind> {
        if !self.enabled_procs.is_empty() {
            return None;
        }
        let any_pending_at_live = (0..self.n())
            .any(|i| !self.links[i].queue.is_empty() && !self.slots[i].proc.election().halted);
        if any_pending_at_live {
            return Some(TerminalKind::Deadlock);
        }
        // NOTE: a message pending at a *halted* process is unreceivable too;
        // the spec monitor reports it as a violation of clean termination.
        if self.slots.iter().all(|s| s.proc.election().halted) && self.in_flight() == 0 {
            Some(TerminalKind::AllHalted)
        } else if self.in_flight() == 0 {
            Some(TerminalKind::QuiescentNotHalted)
        } else {
            Some(TerminalKind::Deadlock)
        }
    }

    /// Fires one atomic action of process `i`. Returns what happened, or
    /// `None` if `i` was not enabled.
    ///
    /// The caller (scheduler driver) is responsible for fairness.
    pub fn fire(&mut self, i: usize) -> Option<Fired<P::Msg>> {
        self.fire_with_record(i, None)
    }

    /// Like [`Self::fire`], but when `record` is given, clones every sent
    /// message into it (in send order, dropped-by-fault messages included) —
    /// the tracing path. With `record = None` the benign path performs no
    /// message clones at all.
    pub fn fire_with_record(
        &mut self,
        i: usize,
        record: Option<&mut Vec<P::Msg>>,
    ) -> Option<Fired<P::Msg>> {
        let (mut parts, enabled) = self.split();
        match record {
            Some(rec) => parts.fire(enabled, i, rec),
            None => parts.fire(enabled, i, &mut ()),
        }
    }

    /// The exact-set loop for runs nobody records (no trace, no observer
    /// reading events, a benign fault plan) under any scheduler but
    /// round-robin, which takes [`Self::run_round_robin`]: asks `sched`
    /// for a pick, fires it through the shared action body, patches the
    /// enabled bits and feeds `monitor`, for as long as
    /// [`RunOptions::continues`] allows. Returns the scheduler steps taken.
    ///
    /// It makes exactly the decisions and counts of stepping through
    /// [`Self::fire`] one pick at a time; it only holds the network's
    /// fields borrowed apart for the whole run.
    pub(crate) fn run_unrecorded<S: Scheduler>(
        &mut self,
        sched: &mut S,
        monitor: &mut SpecMonitor,
        opts: &RunOptions,
    ) -> u64 {
        debug_assert!(self.faults.is_benign(), "faulty runs step through fire_with_record");
        let (mut parts, enabled) = self.split();
        let mut steps = 0;
        // Snapshot of the enabled set for synchronous steps (the live set
        // changes as processes fire).
        let mut all_buf: Vec<usize> = Vec::new();
        while opts.continues(monitor, enabled, parts.counters.actions_fired) {
            steps += 1;
            match sched.select(enabled) {
                Selection::One(i) => {
                    let fired = parts.fire(enabled, i, &mut ());
                    assert!(fired.is_some(), "scheduler picked a disabled process");
                    monitor.observe_one(i, parts.slots[i].proc.election());
                }
                Selection::All => {
                    all_buf.clear();
                    all_buf.extend(enabled.iter());
                    for &i in &all_buf {
                        if parts.fire(enabled, i, &mut ()).is_some() {
                            monitor.observe_one(i, parts.slots[i].proc.election());
                        }
                    }
                }
            }
        }
        steps
    }

    /// The round-robin sweep: the run loop for runs nobody records under
    /// `rr`. It makes `rr`'s picks — the first enabled process at or after
    /// the cursor, else the first enabled process — and leaves its cursor
    /// one past the last pick, but keeps no exact enabled set while it
    /// runs. The set's words hold *candidates* instead, a superset of the
    /// enabled processes: a send marks its receiver, and a process found
    /// disabled when the sweep reaches it is unmarked. The cursor's
    /// process is tested first; past a disabled one the sweep skips ahead
    /// through the candidates a 64-bit word at a time, so a phase in which
    /// few processes are enabled scans no idle stretch of the ring per
    /// action. It stops where [`RunOptions::continues`] would, and leaves
    /// [`Self::enabled_procs`] exact. Returns the scheduler steps taken.
    pub(crate) fn run_round_robin(
        &mut self,
        rr: &mut RoundRobinSched,
        monitor: &mut SpecMonitor,
        opts: &RunOptions,
    ) -> u64 {
        debug_assert!(self.faults.is_benign(), "faulty runs step through fire_with_record");
        let (mut parts, candidates) = self.split();
        let mut steps = 0;
        let mut at = if rr.cursor < parts.slots.len() { rr.cursor } else { 0 };
        while opts.allows(monitor, parts.counters.actions_fired) {
            let i = if enabled_at(&parts.slots[at], &parts.links[at]) {
                at
            } else {
                candidates.unmark(at);
                match parts.next_enabled(candidates, at) {
                    Some(i) => i,
                    None => break,
                }
            };
            steps += 1;
            if let Fired::Started { sent } | Fired::Received { sent, .. } = parts.act(i, &mut ()) {
                if sent > 0 {
                    candidates.mark(parts.right(i));
                }
            }
            monitor.observe_one(i, parts.slots[i].proc.election());
            rr.cursor = i + 1;
            at = parts.right(i);
        }
        candidates.retain(|i| enabled_at(&parts.slots[i], &parts.links[i]));
        steps
    }

    /// Borrows the fields an action touches apart from the enabled set.
    fn split(&mut self) -> (Parts<'_, P>, &mut EnabledSet) {
        let Network { slots, links, enabled_procs, counters, label_bits, faults, scratch, .. } =
            self;
        let parts = Parts { slots, links, counters, faults, out: scratch, label_bits: *label_bits };
        (parts, enabled_procs)
    }
}

/// Whether a process is enabled: its initial action has not fired, or a
/// head message waits and it has neither halted nor wedged.
#[inline(always)]
fn enabled_at<P: ProcessBehavior>(slot: &Slot<P>, link: &Link<P::Msg>) -> bool {
    !slot.proc.election().halted && (!slot.started || (!slot.wedged && !link.queue.is_empty()))
}

impl<P: ProcessBehavior> Parts<'_, P> {
    /// The first enabled process after `at` in ring order, `at` excluded
    /// (the caller tested it), found among `candidates`: each candidate
    /// found disabled on the way is unmarked. `None` when no candidate is
    /// enabled.
    #[inline]
    fn next_enabled(&self, candidates: &mut EnabledSet, at: usize) -> Option<usize> {
        let mut from = at + 1;
        let mut wrapped = false;
        loop {
            match candidates.first_from(from) {
                Some(j) if enabled_at(&self.slots[j], &self.links[j]) => return Some(j),
                Some(j) => {
                    candidates.unmark(j);
                    from = j + 1;
                }
                // Every candidate past `at` is unmarked by now, so one wrap
                // visits all that are left.
                None if !wrapped => {
                    wrapped = true;
                    from = 0;
                }
                None => return None,
            }
        }
    }

    /// Fires `i` if it is enabled, then patches the enabled bits the action
    /// can have changed: the firer's, and its right neighbor's when
    /// something was sent onto that neighbor's link.
    #[inline(always)]
    fn fire<R: Sink<P::Msg>>(
        &mut self,
        enabled: &mut EnabledSet,
        i: usize,
        record: &mut R,
    ) -> Option<Fired<P::Msg>> {
        if !enabled.contains(i) {
            return None;
        }
        let fired = self.act(i, record);
        enabled.set(i, enabled_at(&self.slots[i], &self.links[i]));
        if let Fired::Started { sent } | Fired::Received { sent, .. } = fired {
            if sent > 0 {
                let right = self.right(i);
                enabled.set(right, enabled_at(&self.slots[right], &self.links[right]));
            }
        }
        Some(fired)
    }

    /// The atomic action of enabled process `i`: its initial action, or the
    /// receipt of its head message (consume, advance the clock), then
    /// dispatch of what it sent and the counters. An ignored head wedges
    /// the process instead.
    #[inline(always)]
    fn act<R: Sink<P::Msg>>(&mut self, i: usize, record: &mut R) -> Fired<P::Msg> {
        let slot = &mut self.slots[i];
        let msg = if !slot.started {
            slot.proc.on_start(self.out);
            slot.started = true;
            None
        } else {
            let link = &mut self.links[i];
            let (head, _) = link.queue.front().expect("a started, enabled process has a head");
            match slot.proc.on_msg(head, self.out) {
                Reaction::Consumed => {
                    let (msg, send_time) = link.queue.pop_front().expect("the head was present");
                    let delivery = (send_time + link.delay).max(link.last_delivery);
                    link.last_delivery = delivery;
                    slot.clock = slot.clock.max(delivery);
                    slot.received += 1;
                    Some(msg)
                }
                Reaction::Ignored => {
                    assert!(
                        self.out.is_empty(),
                        "an action that does not fire must not send messages"
                    );
                    slot.wedged = true;
                    return Fired::Wedged { head: head.clone() };
                }
            }
        };
        self.counters.actions_fired += 1;
        let sent = self.dispatch(i, record);
        self.note_space(i);
        match msg {
            None => Fired::Started { sent },
            Some(msg) => Fired::Received { msg, sent },
        }
    }

    /// Moves the action's sends to the outgoing link of `i` (the incoming
    /// link of `i+1`), stamped with `i`'s clock, applying the fault plan
    /// (benign by default: reliable FIFO exactly-once). Returns how many
    /// messages the action sent.
    #[inline(always)]
    fn dispatch<R: Sink<P::Msg>>(&mut self, i: usize, record: &mut R) -> u32 {
        let right = self.right(i);
        let Parts { slots, links, counters, faults, out, label_bits } = self;
        let slot = &mut slots[i];
        let now = slot.clock;
        let count = out.len() as u32;
        let link = &mut links[right];
        // The plan's counter only feeds its rules, so a plan without rules
        // need not count.
        let benign = faults.is_benign();
        for m in out.drain_msgs() {
            counters.total_wire_bits += slot.proc.msg_wire_bits(&m, *label_bits);
            record.record(&m);
            if benign {
                link.queue.push_back((m, now));
                continue;
            }
            let fate = faults.decide();
            if fate.drop {
                continue;
            }
            let dup = fate.duplicate.then(|| m.clone());
            link.queue.push_back((m, now));
            if let Some(d) = dup {
                link.queue.push_back((d, now));
            }
            if fate.swap_with_previous && link.queue.len() >= 2 {
                let last = link.queue.len() - 1;
                link.queue.swap(last - 1, last);
            }
        }
        counters.peak_link_occupancy = counters.peak_link_occupancy.max(link.queue.len());
        slot.sent += count as u64;
        counters.total_sent += count as u64;
        count
    }

    /// Folds process `i`'s current space into the peak.
    #[inline(always)]
    fn note_space(&mut self, i: usize) {
        let bits = self.slots[i].proc.space_bits(self.label_bits);
        self.counters.peak_space_bits = self.counters.peak_space_bits.max(bits);
    }

    /// Index of `i`'s right neighbor (the receiver of its sends).
    #[inline(always)]
    fn right(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }
}

impl<P: ProcessBehavior + Clone> Clone for Network<P> {
    fn clone(&self) -> Self {
        Network {
            slots: self.slots.clone(),
            links: self.links.clone(),
            enabled_procs: self.enabled_procs.clone(),
            counters: self.counters,
            label_bits: self.label_bits,
            faults: self.faults.clone(),
            delay_scale: self.delay_scale,
            scratch: Outbox::new(),
        }
    }
}

/// Result of firing one action. Sent messages are reported by **count**;
/// callers that need the messages themselves (tracing) pass a record buffer
/// to [`Network::fire_with_record`].
#[derive(Clone, Debug)]
pub enum Fired<M> {
    /// The initial action ran.
    Started {
        /// How many messages the initial action sent.
        sent: u32,
    },
    /// A receive action ran on `msg` (moved out of the link, not cloned).
    Received {
        /// The consumed head message.
        msg: M,
        /// How many messages the action sent.
        sent: u32,
    },
    /// The process ignored its head message and is now permanently disabled.
    Wedged {
        /// The unreceivable head message.
        head: M,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Algorithm;
    use hre_words::Label;

    /// A toy algorithm: each process sends its label once; every process
    /// consumes exactly `n_expected` labels then declares the max label the
    /// leader (it knows n — this is only an engine test, not a real
    /// election).
    struct Toy {
        n: usize,
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
        type Msg = Label;
        fn on_start(&mut self, out: &mut Outbox<Label>) {
            out.send(self.id);
        }
        fn on_msg(&mut self, msg: &Label, out: &mut Outbox<Label>) -> Reaction {
            self.seen += 1;
            if *msg > self.best {
                self.best = *msg;
            }
            if self.seen < self.n - 1 {
                out.send(*msg);
            }
            if self.seen == self.n - 1 {
                self.st.is_leader = self.best == self.id;
                self.st.leader = Some(self.best);
                self.st.done = true;
                self.st.halted = true;
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

    fn drive<P: ProcessBehavior>(net: &mut Network<P>) {
        let mut guard = 0;
        while let Some(i) = net.enabled_procs().first() {
            net.fire(i);
            guard += 1;
            assert!(guard < 100_000, "runaway");
        }
    }

    #[test]
    fn toy_terminates_all_halted() {
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let mut net = Network::new(&Toy { n: 5 }, &ring);
        drive(&mut net);
        assert_eq!(net.terminal_kind(), Some(TerminalKind::AllHalted));
        for i in 0..5 {
            let e = net.election(i);
            assert!(e.done && e.halted);
            assert_eq!(e.leader, Some(Label::new(5)));
        }
        // exactly one leader, at index 4
        let leaders: Vec<usize> = (0..5).filter(|&i| net.election(i).is_leader).collect();
        assert_eq!(leaders, vec![4]);
    }

    #[test]
    fn message_counts_are_tracked() {
        let ring = RingLabeling::from_raw(&[2, 1, 3]);
        let mut net = Network::new(&Toy { n: 3 }, &ring);
        drive(&mut net);
        // each process sends its own label + forwards each of the other
        // labels except the last received: 1 + 1 = 2 sends each
        assert_eq!(net.total_sent(), 6);
        for i in 0..3 {
            assert_eq!(net.sent_by(i), 2);
            assert_eq!(net.received_by(i), 2);
        }
    }

    #[test]
    fn virtual_time_equals_longest_chain() {
        // In Toy on n processes, the label that travels farthest makes
        // n-1 hops, each costing one unit: virtual time = n - 1.
        for n in 2..8usize {
            let raw: Vec<u64> = (1..=n as u64).collect();
            let ring = RingLabeling::from_raw(&raw);
            let mut net = Network::new(&Toy { n }, &ring);
            drive(&mut net);
            assert_eq!(net.virtual_time(), (n - 1) as u64, "n={n}");
        }
    }

    #[test]
    fn initial_configuration_is_clean() {
        let ring = RingLabeling::from_raw(&[1, 2]);
        let net = Network::new(&Toy { n: 2 }, &ring);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.total_sent(), 0);
        assert_eq!(net.virtual_time(), 0);
        assert!(net.enabled(0) && net.enabled(1)); // initial actions pending
        assert_eq!(net.terminal_kind(), None);
    }

    /// A process that ignores every message: the engine must classify the
    /// result as a deadlock, not completion.
    struct Stubborn;
    struct StubbornProc {
        id: Label,
    }
    impl Algorithm for Stubborn {
        type Proc = StubbornProc;
        fn name(&self) -> String {
            "Stubborn".into()
        }
        fn spawn(&self, label: Label) -> StubbornProc {
            StubbornProc { id: label }
        }
    }
    impl ProcessBehavior for StubbornProc {
        type Msg = Label;
        fn on_start(&mut self, out: &mut Outbox<Label>) {
            out.send(self.id);
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

    #[test]
    fn ignored_head_wedges_and_deadlocks() {
        let ring = RingLabeling::from_raw(&[1, 2]);
        let mut net = Network::new(&Stubborn, &ring);
        let mut guard = 0;
        loop {
            let en = net.enabled_set();
            if en.is_empty() {
                break;
            }
            net.fire(en[0]);
            guard += 1;
            assert!(guard < 100, "wedging must terminate the run");
        }
        assert_eq!(net.terminal_kind(), Some(TerminalKind::Deadlock));
        assert_eq!(net.in_flight(), 2); // both labels stuck at the heads
    }

    #[test]
    fn fire_on_disabled_process_returns_none() {
        let ring = RingLabeling::from_raw(&[1, 2]);
        let mut net = Network::new(&Toy { n: 2 }, &ring);
        net.fire(0);
        net.fire(1);
        net.fire(0);
        net.fire(1);
        assert_eq!(net.terminal_kind(), Some(TerminalKind::AllHalted));
        assert!(net.fire(0).is_none());
    }

    #[test]
    fn enabled_procs_match_recomputation_throughout() {
        // Fire in an arbitrary (but deterministic) pattern and check the
        // incrementally-patched set against brute-force recomputation
        // after every action.
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut net = Network::new(&Toy { n: 8 }, &ring);
        let mut turn = 0usize;
        loop {
            let en = net.enabled_set();
            assert_eq!(net.enabled_procs().len(), en.len());
            if en.is_empty() {
                break;
            }
            let brute: Vec<usize> = (0..net.n()).filter(|&i| net.enabled(i)).collect();
            assert_eq!(en, brute, "incremental enabled set diverged");
            net.fire(en[turn % en.len()]);
            turn += 1;
        }
        let brute: Vec<usize> = (0..net.n()).filter(|&i| net.enabled(i)).collect();
        assert!(brute.is_empty());
    }

    #[test]
    fn link_buffers_stop_growing_at_peak_occupancy() {
        // A link's buffer grows only when its queue reaches a length that
        // link never held before, so once the run's peak occupancy is
        // reached no buffer grows again, and the buffers stay bounded by
        // that peak instead of growing with total sends.
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut net = Network::new(&Toy { n: 8 }, &ring);
        let mut caps = vec![0usize; net.n()];
        let mut highs = vec![0usize; net.n()];
        while let Some(i) = net.enabled_procs().first() {
            net.fire(i);
            for (l, link) in net.links.iter().enumerate() {
                let len = link.queue.len();
                if link.queue.capacity() != caps[l] {
                    assert!(len > highs[l], "link {l} grew at length {len}, its high {}", highs[l]);
                    caps[l] = link.queue.capacity();
                }
                highs[l] = highs[l].max(len);
            }
        }
        let peak = net.counters.peak_link_occupancy;
        assert_eq!(highs.iter().max(), Some(&peak));
        let total_cap: usize = caps.iter().sum();
        assert!(net.total_sent() > total_cap as u64, "buffers were reused");
        for (l, &cap) in caps.iter().enumerate() {
            // Amortized doubling from a minimum of 4 slots.
            assert!(cap < 2 * peak.max(4), "link {l}: capacity {cap} vs peak {peak}");
        }
    }

    // --- clone accounting (the former send path cloned every message once,
    // twice under a duplicate fault) -------------------------------------

    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A label wrapper whose `Clone` impl counts — a probe for engine-level
    /// copies.
    #[derive(Debug, PartialEq, Eq)]
    struct ProbeMsg(Label);

    impl Clone for ProbeMsg {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            ProbeMsg(self.0)
        }
    }

    struct ProbeToy {
        n: usize,
    }
    struct ProbeProc {
        inner: ToyProc,
    }
    impl Algorithm for ProbeToy {
        type Proc = ProbeProc;
        fn name(&self) -> String {
            "ProbeToy".into()
        }
        fn spawn(&self, label: Label) -> ProbeProc {
            ProbeProc { inner: Toy { n: self.n }.spawn(label) }
        }
    }
    impl ProcessBehavior for ProbeProc {
        type Msg = ProbeMsg;
        fn on_start(&mut self, out: &mut Outbox<ProbeMsg>) {
            let mut inner_out = Outbox::new();
            self.inner.on_start(&mut inner_out);
            for l in inner_out.into_msgs() {
                out.send(ProbeMsg(l));
            }
        }
        fn on_msg(&mut self, msg: &ProbeMsg, out: &mut Outbox<ProbeMsg>) -> Reaction {
            let mut inner_out = Outbox::new();
            let r = self.inner.on_msg(&msg.0, &mut inner_out);
            for l in inner_out.into_msgs() {
                out.send(ProbeMsg(l));
            }
            r
        }
        fn election(&self) -> ElectionState {
            self.inner.election()
        }
        fn space_bits(&self, b: u32) -> u64 {
            self.inner.space_bits(b)
        }
    }

    fn count_clones(f: impl FnOnce()) -> u64 {
        CLONES.with(|c| c.set(0));
        f();
        CLONES.with(|c| c.get())
    }

    #[test]
    fn benign_run_clones_no_messages() {
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let clones = count_clones(|| {
            let mut net = Network::new(&ProbeToy { n: 5 }, &ring);
            drive(&mut net);
            assert_eq!(net.terminal_kind(), Some(TerminalKind::AllHalted));
        });
        assert_eq!(clones, 0, "the benign path must move messages, not clone them");
    }

    #[test]
    fn duplicate_fault_clones_exactly_the_duplicates() {
        use crate::faults::{FaultPlan, LinkFault};
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let clones = count_clones(|| {
            let mut net = Network::new(&ProbeToy { n: 5 }, &ring);
            net.set_fault_plan(FaultPlan::single(LinkFault::DuplicateEveryNth(3)));
            let mut guard = 0;
            while let Some(i) = net.enabled_procs().first() {
                net.fire(i);
                guard += 1;
                assert!(guard < 100_000, "runaway");
            }
            // every 3rd send was duplicated — one clone per duplicate
            assert_eq!(CLONES.with(|c| c.get()), net.total_sent() / 3);
        });
        assert!(clones > 0);
    }

    #[test]
    fn recording_clones_once_per_sent_message() {
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5]);
        let clones = count_clones(|| {
            let mut net = Network::new(&ProbeToy { n: 5 }, &ring);
            let mut buf = Vec::new();
            let mut recorded = 0u64;
            let mut guard = 0;
            while let Some(i) = net.enabled_procs().first() {
                buf.clear();
                net.fire_with_record(i, Some(&mut buf));
                recorded += buf.len() as u64;
                guard += 1;
                assert!(guard < 100_000, "runaway");
            }
            assert_eq!(recorded, net.total_sent());
            assert_eq!(CLONES.with(|c| c.get()), recorded);
        });
        assert!(clones > 0);
    }
}
