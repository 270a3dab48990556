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
//! * link queues are intrusive lists threaded through a single slab
//!   [`Pool`] with a free list — consuming a message recycles its node, so
//!   after warm-up no send or receive touches the allocator;
//! * messages **move**: from the outbox into the pool on send, out of the
//!   pool on receive. The engine clones a message only when the fault plan
//!   duplicates it, when a caller asks for a recorded copy
//!   ([`Network::fire_with_record`]), or on the rare wedge path;
//! * the enabled set is maintained **incrementally** as a bitset
//!   ([`Network::enabled_procs`], an [`EnabledSet`]): each fired action can
//!   only change the enabledness of the firing process and its right
//!   neighbor, so each fire sets or clears at most two bits instead of
//!   rebuilding (and reallocating) the set every scheduler step. The set
//!   answers every scheduler query in ascending index order, the order in
//!   which the pre-optimization engine (see [`crate::baseline`]) rebuilt
//!   its list, so every scheduling decision is unchanged;
//! * a benign [`FaultPlan`] (no rules) is never consulted: sends go
//!   straight onto the link.

use crate::faults::{FaultDecision, FaultPlan};
use crate::process::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use crate::sched::EnabledSet;
use hre_ring::RingLabeling;

/// Sentinel for "no node" in the intrusive link lists.
const NIL: u32 = u32::MAX;

/// One slab cell: a message in flight (or a free-list hole), stamped with
/// its virtual send time and threaded onto its link's queue via `next`.
#[derive(Clone, Debug)]
struct Node<M> {
    msg: Option<M>,
    send_time: u64,
    next: u32,
}

/// Slab-backed message pool with free-list recycling. Nodes are allocated
/// once and reused for the rest of the run.
#[derive(Clone, Debug)]
struct Pool<M> {
    nodes: Vec<Node<M>>,
    free: u32,
}

impl<M> Pool<M> {
    fn new() -> Self {
        Pool { nodes: Vec::new(), free: NIL }
    }

    fn alloc(&mut self, msg: M, send_time: u64) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.msg = Some(msg);
            node.send_time = send_time;
            node.next = NIL;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("pool of < 2^32 in-flight messages");
            self.nodes.push(Node { msg: Some(msg), send_time, next: NIL });
            idx
        }
    }

    /// Unlinks nothing (the caller owns the list); takes the message out and
    /// returns the node to the free list.
    fn release(&mut self, idx: u32) -> (M, u64) {
        let node = &mut self.nodes[idx as usize];
        let msg = node.msg.take().expect("released node holds a message");
        let send_time = node.send_time;
        node.next = self.free;
        self.free = idx;
        (msg, send_time)
    }

    fn msg(&self, idx: u32) -> &M {
        self.nodes[idx as usize].msg.as_ref().expect("live node holds a message")
    }
}

/// The incoming FIFO link of one process: an intrusive list of pool nodes.
#[derive(Clone, Copy, Debug)]
struct Link {
    head: u32,
    tail: u32,
    len: u32,
    /// Delivery time of the last message received on this link (FIFO links
    /// deliver in non-decreasing virtual time).
    last_delivery: u64,
    /// Transmission time of this link in clock ticks. The paper's model
    /// says "at most one time unit": with [`Network::set_link_delays`],
    /// one unit = `delay_scale` ticks and each link takes `delay ≤ scale`.
    delay: u64,
}

impl Link {
    fn new() -> Self {
        Link { head: NIL, tail: NIL, len: 0, last_delivery: 0, delay: 1 }
    }

    fn push_back<M>(&mut self, pool: &mut Pool<M>, idx: u32) {
        if self.tail == NIL {
            self.head = idx;
        } else {
            pool.nodes[self.tail as usize].next = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Pops the head node index (the caller releases it to the pool).
    fn pop_front<M>(&mut self, pool: &Pool<M>) -> u32 {
        let idx = self.head;
        debug_assert!(idx != NIL, "pop on empty link");
        self.head = pool.nodes[idx as usize].next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        idx
    }

    /// Swaps the payloads of the last two queued messages (FIFO-violation
    /// fault). O(len) walk to find the tail's predecessor — fault runs only.
    fn swap_last_two<M>(&self, pool: &mut Pool<M>) {
        debug_assert!(self.len >= 2);
        let mut prev = self.head;
        while pool.nodes[prev as usize].next != self.tail {
            prev = pool.nodes[prev as usize].next;
        }
        let (lo, hi) = (prev.min(self.tail) as usize, prev.max(self.tail) as usize);
        let (a, b) = pool.nodes.split_at_mut(hi);
        std::mem::swap(&mut a[lo].msg, &mut b[0].msg);
        std::mem::swap(&mut a[lo].send_time, &mut b[0].send_time);
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

/// The ring network: `n` processes and `n` FIFO links.
///
/// Link `i` is the incoming link of process `i` (i.e. the link from
/// `p(i−1)` to `p(i)`).
pub struct Network<P: ProcessBehavior> {
    slots: Vec<Slot<P>>,
    links: Vec<Link>,
    pool: Pool<P::Msg>,
    /// The currently-enabled processes, patched incrementally after
    /// every fire.
    enabled_procs: EnabledSet,
    counters: NetCounters,
    label_bits: u32,
    faults: FaultPlan,
    /// How many clock ticks make one of the paper's time units (the
    /// longest link delay). 1 unless heterogeneous delays are configured.
    delay_scale: u64,
    /// Reusable outbox: its buffer is lent to each firing action and taken
    /// back after dispatch, so sends stop allocating once warm.
    scratch: Outbox<P::Msg>,
}

impl<P: ProcessBehavior> Network<P> {
    /// Builds the initial configuration: every process in its initial state
    /// (`on_start` not yet fired), all links empty.
    ///
    /// Processes are spawned via [`Algorithm::spawn_at`], so algorithms that
    /// can share the ring labeling (zero-copy state) do.
    pub fn new<A>(algo: &A, ring: &RingLabeling) -> Self
    where
        A: Algorithm<Proc = P>,
    {
        let n = ring.n();
        let slots: Vec<Slot<P>> = (0..n)
            .map(|i| Slot {
                proc: algo.spawn_at(ring, i),
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
            pool: Pool::new(),
            enabled_procs: EnabledSet::new(n),
            counters: NetCounters::default(),
            label_bits: ring.label_bits(),
            faults: FaultPlan::none(),
            delay_scale: 1,
            scratch: Outbox::new(),
        };
        for i in 0..n {
            net.note_space(i);
            net.refresh_enabled(i);
        }
        net
    }

    /// Injects a deterministic link-fault plan (see [`crate::faults`]);
    /// applied to every subsequent send. The default plan is benign.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
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

    /// All election states, in process order (allocates; the run loop uses
    /// [`Self::election`] per fired process instead).
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
        self.links.iter().map(|l| l.len as usize).sum()
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
        let mut out = Vec::with_capacity(self.links[i].len as usize);
        let mut idx = self.links[i].head;
        while idx != NIL {
            out.push(self.pool.msg(idx).clone());
            idx = self.pool.nodes[idx as usize].next;
        }
        out
    }

    /// Is process `i` enabled? Either its initial action has not fired, or
    /// a head message is present and the process is not halted/wedged.
    pub fn enabled(&self, i: usize) -> bool {
        let s = &self.slots[i];
        if s.proc.election().halted {
            return false;
        }
        if !s.started {
            return true;
        }
        !s.wedged && self.links[i].len > 0
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

    /// Re-derives `enabled(i)` into the enabled set.
    fn refresh_enabled(&mut self, i: usize) {
        let now = self.enabled(i);
        self.enabled_procs.set(i, now);
    }

    /// Index of `i`'s right neighbor (the receiver of its sends).
    fn right(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// If no process is enabled, classify the terminal configuration.
    pub fn terminal_kind(&self) -> Option<TerminalKind> {
        if !self.enabled_procs.is_empty() {
            return None;
        }
        let any_pending_at_live =
            (0..self.n()).any(|i| self.links[i].len > 0 && !self.slots[i].proc.election().halted);
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
        if !self.enabled_procs.contains(i) {
            return None;
        }
        let right = self.right(i);
        if !self.slots[i].started {
            let mut out = std::mem::take(&mut self.scratch);
            self.slots[i].proc.on_start(&mut out);
            self.slots[i].started = true;
            self.counters.actions_fired += 1;
            let sent = self.dispatch(i, &mut out, record);
            self.scratch = out;
            self.note_space(i);
            self.refresh_enabled(i);
            self.refresh_enabled(right);
            return Some(Fired::Started { sent });
        }
        // Offer the head message in place (no clone).
        let head_idx = self.links[i].head;
        let mut out = std::mem::take(&mut self.scratch);
        let reaction = {
            let Network { slots, pool, .. } = self;
            slots[i].proc.on_msg(pool.msg(head_idx), &mut out)
        };
        match reaction {
            Reaction::Consumed => {
                let idx = self.links[i].pop_front(&self.pool);
                debug_assert_eq!(idx, head_idx);
                let (msg, send_time) = self.pool.release(idx);
                let delivery = (send_time + self.links[i].delay).max(self.links[i].last_delivery);
                self.links[i].last_delivery = delivery;
                let s = &mut self.slots[i];
                s.clock = s.clock.max(delivery);
                s.received += 1;
                self.counters.actions_fired += 1;
                let sent = self.dispatch(i, &mut out, record);
                self.scratch = out;
                self.note_space(i);
                self.refresh_enabled(i);
                self.refresh_enabled(right);
                Some(Fired::Received { msg, sent })
            }
            Reaction::Ignored => {
                assert!(out.is_empty(), "an action that does not fire must not send messages");
                self.scratch = out;
                self.slots[i].wedged = true;
                self.refresh_enabled(i);
                Some(Fired::Wedged { head: self.pool.msg(head_idx).clone() })
            }
        }
    }

    /// Moves the action's sends to the outgoing link of `i` (the incoming
    /// link of `i+1`), stamped with `i`'s clock, applying the fault plan
    /// (benign by default: reliable FIFO exactly-once). Returns how many
    /// messages the action sent.
    fn dispatch(
        &mut self,
        i: usize,
        out: &mut Outbox<P::Msg>,
        mut record: Option<&mut Vec<P::Msg>>,
    ) -> u32 {
        let right = self.right(i);
        let now = self.slots[i].clock;
        let count = out.len() as u32;
        let Network { slots, links, pool, counters, faults, label_bits, .. } = self;
        {
            let proc = &slots[i].proc;
            let link = &mut links[right];
            // The plan's counter only feeds its rules, so a plan without
            // rules need not count.
            let benign = faults.is_benign();
            for m in out.drain_msgs() {
                counters.total_wire_bits += proc.msg_wire_bits(&m, *label_bits);
                if let Some(rec) = record.as_deref_mut() {
                    rec.push(m.clone());
                }
                let fate = if benign { FaultDecision::default() } else { faults.decide() };
                if fate.drop {
                    continue;
                }
                let dup = fate.duplicate.then(|| m.clone());
                let idx = pool.alloc(m, now);
                link.push_back(pool, idx);
                if let Some(d) = dup {
                    let idx2 = pool.alloc(d, now);
                    link.push_back(pool, idx2);
                }
                if fate.swap_with_previous && link.len >= 2 {
                    link.swap_last_two(pool);
                }
            }
            counters.peak_link_occupancy = counters.peak_link_occupancy.max(link.len as usize);
        }
        slots[i].sent += count as u64;
        counters.total_sent += count as u64;
        count
    }

    fn note_space(&mut self, i: usize) {
        let bits = self.slots[i].proc.space_bits(self.label_bits);
        self.counters.peak_space_bits = self.counters.peak_space_bits.max(bits);
    }
}

impl<P: ProcessBehavior + Clone> Clone for Network<P> {
    fn clone(&self) -> Self {
        Network {
            slots: self.slots.clone(),
            links: self.links.clone(),
            pool: self.pool.clone(),
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
    fn pool_recycles_nodes_in_steady_state() {
        // Toy keeps at most `n` messages in flight; the slab must stay at
        // the high-water mark of concurrent in-flight messages instead of
        // growing with total sends.
        let ring = RingLabeling::from_raw(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut net = Network::new(&Toy { n: 8 }, &ring);
        drive(&mut net);
        assert!(net.total_sent() > net.pool.nodes.len() as u64, "nodes were recycled");
        assert!(
            net.pool.nodes.len() <= net.counters.peak_link_occupancy * net.n(),
            "slab bounded by peak in-flight: {} nodes vs peak {} per link",
            net.pool.nodes.len(),
            net.counters.peak_link_occupancy
        );
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
