//! Algorithm `Bk` (paper Table 2, Figure 2): phase-based deactivation with
//! constant-size state.
//!
//! `Bk` computes the lexicographic minimum of the sequences `LLabels(q)_n`
//! step by step. During phase `i`, every still-*active* process `p` holds
//! `p.guest = LLabels(p)[i]` and circulates it; an active process that
//! learns of a strictly smaller guest becomes *passive* (B4). A process
//! detects the end of the phase after accounting for its guest value `k+1`
//! times (its own plus `k` receptions: B3 then B5), then signals
//! `⟨PHASE SHIFT⟩`; the shift wave rotates every guest one position to the
//! right (B6/B8), so the next phase compares the next letter of each
//! survivor's `LLabels` sequence. A process whose guest has taken its own
//! label `k+1` times (counter `outer`) has witnessed at least `n` phases
//! and is the unique survivor — the true leader (B9). `⟨FINISH⟩` then
//! circulates, letting everyone halt (B10/B11).
//!
//! | Action | Guard | Effect |
//! |--------|-------|--------|
//! | B1  | `state = INIT`                                        | `state←COMPUTE; guest←id; inner←1; outer←1;` send `⟨guest⟩` |
//! | B2  | `COMPUTE ∧ rcv⟨x⟩ ∧ x > guest`                        | (discard) |
//! | B3  | `COMPUTE ∧ rcv⟨x⟩ ∧ x = guest ∧ inner < k`            | `inner++`; forward |
//! | B4  | `COMPUTE ∧ rcv⟨x⟩ ∧ x < guest`                        | `state←PASSIVE`; forward |
//! | B5  | `COMPUTE ∧ rcv⟨x⟩ ∧ x = guest ∧ inner = k`            | `state←SHIFT`; send `⟨PHASE_SHIFT, guest⟩` |
//! | B6  | `SHIFT ∧ rcv⟨PS,x⟩ ∧ (x ≠ id ∨ outer < k)`            | `state←COMPUTE`; maybe `outer++`; `guest←x; inner←1`; send `⟨guest⟩` |
//! | B7  | `PASSIVE ∧ rcv⟨x⟩`                                    | forward |
//! | B8  | `PASSIVE ∧ rcv⟨PS,x⟩`                                 | send `⟨PS, guest⟩`; `guest←x` |
//! | B9  | `SHIFT ∧ rcv⟨PS,x⟩ ∧ x = id ∧ outer = k`              | `state←WIN`; elect self; send `⟨FINISH, id⟩` |
//! | B10 | `PASSIVE ∧ rcv⟨FINISH,x⟩`                             | `state←HALT`; learn leader; forward; halt |
//! | B11 | `WIN ∧ rcv⟨FINISH,x⟩`                                 | `state←HALT`; done; halt |
//!
//! Any other (state, message) pairing has no enabled action: the process
//! reports [`Reaction::Ignored`] and the simulator would flag a deadlock.
//! The paper's Lemmas 11–12 prove this never happens; our test suite
//! verifies it across schedulers instead of assuming it.

use hre_sim::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use hre_words::Label;

/// The message alphabet of `Bk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BkMsg {
    /// `⟨x⟩` — a guest label circulating within a phase.
    Token(Label),
    /// `⟨PHASE SHIFT, x⟩` — the phase is over; `x` is the sender's guest.
    PhaseShift(Label),
    /// `⟨FINISH, x⟩` — the election is over; `x` is the leader's label.
    Finish(Label),
}

/// Action labels of Table 2, for trace analysis and the Figure 2
/// state-diagram conformance experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BkAction {
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    B7,
    B8,
    B9,
    B10,
    B11,
}

impl BkAction {
    /// The paper's name for the action ("B1" … "B11").
    pub fn name(self) -> &'static str {
        match self {
            BkAction::B1 => "B1",
            BkAction::B2 => "B2",
            BkAction::B3 => "B3",
            BkAction::B4 => "B4",
            BkAction::B5 => "B5",
            BkAction::B6 => "B6",
            BkAction::B7 => "B7",
            BkAction::B8 => "B8",
            BkAction::B9 => "B9",
            BkAction::B10 => "B10",
            BkAction::B11 => "B11",
        }
    }
}

/// The state machine of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BkState {
    /// Before the initial action B1.
    Init,
    /// Actively competing, within a phase.
    Compute,
    /// Phase ended locally; waiting for the `PHASE SHIFT` wave.
    Shift,
    /// No longer competing; forwards traffic.
    Passive,
    /// Elected (B9); waiting for `FINISH` to come home.
    Win,
    /// Locally terminated.
    Halt,
}

/// Factory for `Bk` processes. The paper defines `Bk` for `k ≥ 2`.
///
/// ```
/// use hre_core::Bk;
/// use hre_ring::RingLabeling;
/// use hre_sim::{run, RoundRobinSched, RunOptions};
///
/// let ring = RingLabeling::from_raw(&[1, 3, 1, 3, 2, 2, 1, 2]); // Figure 1
/// let rep = run(&Bk::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
/// assert!(rep.clean());
/// assert_eq!(rep.leader, Some(0));
/// // Constant state: 2⌈log 3⌉ + 3·2 + 5 = 15 bits per process.
/// assert_eq!(rep.metrics.peak_space_bits, 15);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Bk {
    /// The multiplicity bound `k` known to every process.
    pub k: usize,
}

impl Bk {
    /// Creates the algorithm for a multiplicity bound `k ≥ 2` (the paper's
    /// precondition; Corollary 9's proof uses it).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "the paper defines Bk for k >= 2");
        Bk { k }
    }
}

impl Algorithm for Bk {
    type Proc = BkProc;

    fn name(&self) -> String {
        format!("Bk(k={})", self.k)
    }

    fn spawn(&self, label: Label) -> BkProc {
        // ⌈log₂ k⌉, with the convention ⌈log₂ 1⌉ = 1 bit per counter.
        let log_k = ((self.k as u64 - 1).max(1).ilog2() + 1) as u64;
        BkProc {
            id: label,
            k: self.k,
            label_free_bits: 2 * log_k + 5,
            state: BkState::Init,
            guest: label,
            inner: 1,
            outer: 1,
            phase: 0,
            last_action: None,
            st: ElectionState::INITIAL,
        }
    }
}

/// One `Bk` process.
#[derive(Clone)]
pub struct BkProc {
    id: Label,
    k: usize,
    /// The label-size-independent part of [`ProcessBehavior::space_bits`],
    /// `2⌈log k⌉ + 5`, fixed at spawn (the engine reads the space after
    /// every action).
    label_free_bits: u64,
    state: BkState,
    /// `p.guest = LLabels(p)[i]` during phase `i`.
    guest: Label,
    /// Occurrences of `guest` accounted for in the current phase (own + received).
    inner: usize,
    /// How many times `guest` has taken the value `id` (B1 + B6 increments).
    outer: usize,
    /// Instrumentation only (Appendix A's phase numbering): incremented on
    /// every assignment to `guest` (B1 starts phase 1; B6/B8/B9 enter the
    /// next phase). Not part of the algorithm's state; excluded from the
    /// space accounting.
    phase: u64,
    /// Instrumentation only: the last Table 2 action fired.
    last_action: Option<BkAction>,
    st: ElectionState,
}

impl BkProc {
    /// The process's own label.
    pub fn id(&self) -> Label {
        self.id
    }

    /// Current control state (Figure 2).
    pub fn state(&self) -> BkState {
        self.state
    }

    /// Current guest label.
    pub fn guest(&self) -> Label {
        self.guest
    }

    /// The `inner` counter.
    pub fn inner(&self) -> usize {
        self.inner
    }

    /// The `outer` counter.
    pub fn outer(&self) -> usize {
        self.outer
    }

    /// Phase number per the paper's Appendix A numbering (1-based once B1
    /// has fired; 0 before the initial action).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The last Table 2 action this process fired (instrumentation).
    pub fn last_action(&self) -> Option<BkAction> {
        self.last_action
    }

    /// Is the process still competing (white in Figure 1)?
    pub fn is_active(&self) -> bool {
        matches!(self.state, BkState::Init | BkState::Compute | BkState::Shift | BkState::Win)
    }
}

impl hre_sim::StateKey for BkProc {
    fn state_key(&self) -> String {
        format!(
            "{:?}/{:?}/{:?}/{}/{}/{:?}",
            self.id, self.state, self.guest, self.inner, self.outer, self.st
        )
    }
}

impl ProcessBehavior for BkProc {
    type Msg = BkMsg;

    /// Action B1.
    fn on_start(&mut self, out: &mut Outbox<BkMsg>) {
        debug_assert_eq!(self.state, BkState::Init);
        self.state = BkState::Compute;
        self.guest = self.id;
        self.phase = 1;
        self.inner = 1;
        self.outer = 1;
        self.last_action = Some(BkAction::B1);
        out.send(BkMsg::Token(self.guest));
    }

    fn on_msg(&mut self, msg: &BkMsg, out: &mut Outbox<BkMsg>) -> Reaction {
        debug_assert!(self.state != BkState::Init, "B1 fires first");
        debug_assert!(!self.st.halted, "no action fires after halting");
        match (self.state, *msg) {
            // ——— Computation during a phase ———
            (BkState::Compute, BkMsg::Token(x)) => {
                if x > self.guest {
                    // B2 — larger guests cannot win; discard.
                    self.last_action = Some(BkAction::B2);
                } else if x < self.guest {
                    // B4 — someone's guest is smaller: stop competing.
                    self.state = BkState::Passive;
                    self.last_action = Some(BkAction::B4);
                    out.send(BkMsg::Token(x));
                } else if self.inner < self.k {
                    // B3 — count one more sighting of our guest.
                    self.inner += 1;
                    self.last_action = Some(BkAction::B3);
                    out.send(BkMsg::Token(x));
                } else {
                    // B5 — (k+1)-th accounting of guest: the phase is over.
                    self.state = BkState::Shift;
                    self.last_action = Some(BkAction::B5);
                    out.send(BkMsg::PhaseShift(self.guest));
                }
                Reaction::Consumed
            }

            // ——— Phase switching / winning ———
            (BkState::Shift, BkMsg::PhaseShift(x)) => {
                if x == self.id && self.outer == self.k {
                    // B9 — guest is about to take our own label for the
                    // (k+1)-th time: at least n phases have elapsed and we
                    // are the sole survivor.
                    self.state = BkState::Win;
                    self.st.is_leader = true;
                    self.st.leader = Some(self.id);
                    self.guest = self.id;
                    self.phase += 1;
                    self.last_action = Some(BkAction::B9);
                    out.send(BkMsg::Finish(self.id));
                } else {
                    // B6 — adopt the shifted guest, start the next phase.
                    self.state = BkState::Compute;
                    if x == self.id {
                        self.outer += 1;
                    }
                    self.guest = x;
                    self.phase += 1;
                    self.inner = 1;
                    self.last_action = Some(BkAction::B6);
                    out.send(BkMsg::Token(self.guest));
                }
                Reaction::Consumed
            }

            // ——— Passive processes relay ———
            (BkState::Passive, BkMsg::Token(x)) => {
                // B7
                self.last_action = Some(BkAction::B7);
                out.send(BkMsg::Token(x));
                Reaction::Consumed
            }
            (BkState::Passive, BkMsg::PhaseShift(x)) => {
                // B8 — forward our previous guest, adopt the new one.
                self.last_action = Some(BkAction::B8);
                out.send(BkMsg::PhaseShift(self.guest));
                self.guest = x;
                self.phase += 1;
                Reaction::Consumed
            }

            // ——— Ending phase ———
            (BkState::Passive, BkMsg::Finish(x)) => {
                // B10
                self.state = BkState::Halt;
                self.last_action = Some(BkAction::B10);
                out.send(BkMsg::Finish(x));
                self.st.leader = Some(x);
                self.st.done = true;
                self.st.halted = true;
                Reaction::Consumed
            }
            (BkState::Win, BkMsg::Finish(_)) => {
                // B11
                self.state = BkState::Halt;
                self.last_action = Some(BkAction::B11);
                self.st.done = true;
                self.st.halted = true;
                Reaction::Consumed
            }

            // No action's guard matches: the message blocks the link head.
            // (Lemma 11 proves these pairings are unreachable for Bk.)
            _ => Reaction::Ignored,
        }
    }

    fn election(&self) -> ElectionState {
        self.st
    }

    /// The paper's accounting (Theorem 4): `2⌈log k⌉ + 3b + 5` bits —
    /// `inner` and `outer` (`⌈log k⌉` each: they never exceed `k`), three
    /// labels (`id`, `guest`, `leader`), 3 bits of control state and the
    /// two specification booleans.
    fn space_bits(&self, label_bits: u32) -> u64 {
        self.label_free_bits + 3 * label_bits as u64
    }

    /// Every `Bk` message carries one label plus a two-bit tag (three
    /// message kinds).
    fn msg_wire_bits(&self, _msg: &BkMsg, label_bits: u32) -> u64 {
        label_bits as u64 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_ring::{catalog, enumerate, generate, RingLabeling};
    use hre_sim::{
        run, AdversarialSched, Adversary, RandomSched, RoundRobinSched, RunOptions, SyncSched,
        Verdict,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn default_run(ring: &RingLabeling, k: usize) -> hre_sim::RunReport<BkMsg> {
        run(&Bk::new(k), ring, &mut RoundRobinSched::default(), RunOptions::default())
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_k1() {
        Bk::new(1);
    }

    #[test]
    fn elects_p0_on_figure1_ring() {
        let ring = catalog::figure1_ring();
        let rep = default_run(&ring, catalog::FIGURE1_K);
        assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        assert_eq!(rep.leader, Some(catalog::FIGURE1_LEADER));
    }

    #[test]
    fn elects_on_ring_122() {
        let rep = default_run(&catalog::ring_122(), 2);
        assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        assert_eq!(rep.leader, Some(0));
    }

    #[test]
    fn exhaustive_small_rings_all_schedulers() {
        for n in 2..=5usize {
            for ring in enumerate::asymmetric_labelings(n, 3) {
                let k = ring.max_multiplicity().max(2);
                let expected = ring.true_leader().unwrap();
                let algo = Bk::new(k);
                let reports = [
                    run(&algo, &ring, &mut SyncSched, RunOptions::default()),
                    run(&algo, &ring, &mut RoundRobinSched::default(), RunOptions::default()),
                    run(&algo, &ring, &mut RandomSched::new(3), RunOptions::default()),
                    run(
                        &algo,
                        &ring,
                        &mut AdversarialSched { strategy: Adversary::HighestFirst },
                        RunOptions::default(),
                    ),
                ];
                for rep in &reports {
                    assert!(rep.clean(), "{ring:?} k={k} {:?} {:?}", rep.verdict, rep.violations);
                    assert_eq!(rep.leader, Some(expected), "{ring:?}");
                    assert_ne!(rep.verdict, Verdict::Deadlock); // Lemmas 11–12
                }
                for rep in &reports[1..] {
                    assert_eq!(rep.metrics.messages, reports[0].metrics.messages);
                    assert_eq!(rep.metrics.time_units, reports[0].metrics.time_units);
                }
            }
        }
    }

    #[test]
    fn overestimating_k_is_safe() {
        let ring = catalog::ring_122();
        for k in 2..=6 {
            let rep = default_run(&ring, k);
            assert!(rep.clean(), "k={k}");
            assert_eq!(rep.leader, Some(0));
        }
    }

    #[test]
    fn random_rings_elect_true_leader() {
        let mut rng = StdRng::seed_from_u64(77);
        for &(n, k, a) in &[(6usize, 2usize, 3u64), (8, 3, 3), (10, 2, 5), (12, 4, 3)] {
            let ring = generate::random_a_inter_kk(n, k, a, &mut rng);
            let rep = default_run(&ring, k.max(2));
            assert!(rep.clean(), "{ring:?}");
            assert_eq!(rep.leader, ring.true_leader(), "{ring:?}");
        }
    }

    #[test]
    fn space_is_constant_and_matches_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [2usize, 3, 4, 8] {
            let ring = generate::random_a_inter_kk(8, k.min(3), 4, &mut rng);
            let b = ring.label_bits() as u64;
            let rep = default_run(&ring, k);
            assert!(rep.clean());
            let log_k = (k as u64).next_power_of_two().trailing_zeros() as u64;
            let expected = 2 * log_k.max(1) + 3 * b + 5;
            assert_eq!(rep.metrics.peak_space_bits, expected, "k={k} b={b}");
        }
    }

    #[test]
    fn never_deadlocks_under_many_seeds() {
        // Lemmas 11–12 empirically: no schedule wedges a process.
        let ring = catalog::figure1_ring();
        for seed in 0..50 {
            let rep = run(&Bk::new(3), &ring, &mut RandomSched::new(seed), RunOptions::default());
            assert!(rep.clean(), "seed={seed} {:?} {:?}", rep.verdict, rep.violations);
            assert_eq!(rep.leader, Some(0));
        }
    }

    #[test]
    fn theorem4_complexity_bounds() {
        // Time and messages are O(k^2 n^2); check against the explicit
        // constants the proof yields: X <= (k+1)n phases, each phase at most
        // (k+1)n time units => time <= (k+1)^2 n^2 (generous), and messages
        // <= c k^2 n^2 with c small. We assert the generous closed forms.
        let mut rng = StdRng::seed_from_u64(9);
        for &(n, k, a) in &[(4usize, 2usize, 3u64), (6, 2, 3), (8, 3, 3), (10, 3, 4)] {
            let ring = generate::random_a_inter_kk(n, k, a, &mut rng);
            let rep = default_run(&ring, k.max(2));
            assert!(rep.clean());
            let k64 = k.max(2) as u64;
            let n64 = n as u64;
            let bound = (k64 + 1) * (k64 + 1) * n64 * n64;
            assert!(
                rep.metrics.time_units <= bound,
                "time {} > {} for n={n} k={k}",
                rep.metrics.time_units,
                bound
            );
            assert!(
                rep.metrics.messages <= 4 * (k64 + 1) * (k64 + 1) * n64 * n64,
                "messages {} over O(k²n²) with constant 4 for n={n} k={k}",
                rep.metrics.messages
            );
        }
    }

    #[test]
    fn phases_follow_appendix_numbering() {
        // After a clean run, the winner's phase count equals
        // X = min{x : LLabels(L)_x contains L.id (k+1) times}.
        use hre_sim::Network;
        let ring = catalog::figure1_ring();
        let k = 3usize;
        let algo = Bk::new(k);
        let mut net: Network<BkProc> = Network::new(&algo, &ring);
        let mut guard = 0;
        while let Some(&i) = net.enabled_set().first() {
            net.fire(i);
            guard += 1;
            assert!(guard < 10_000_000);
        }
        let leader = 0usize;
        let lid = ring.label(leader);
        // X for p0: LLabels(p0) = 1,2,1,2,2,3,1,3 repeated; occurrences of
        // label 1 at positions 1,3,7 (1-based: 1, 3, 7), (k+1)=4th occurrence
        // at position 9 (= n+1). So X = 9.
        let mut count = 0;
        let mut x = 0;
        for m in 1..1000 {
            if ring.llabels(leader, m)[m - 1] == lid {
                count += 1;
            }
            if count == k + 1 {
                x = m;
                break;
            }
        }
        assert_eq!(x, 9);
        assert_eq!(net.process(leader).phase(), x as u64);
    }

    #[test]
    fn state_getters_expose_figure2_machine() {
        let algo = Bk::new(2);
        let mut p = algo.spawn(Label::new(5));
        assert_eq!(p.state(), BkState::Init);
        assert!(p.is_active());
        let mut out = Outbox::new();
        p.on_start(&mut out);
        assert_eq!(p.state(), BkState::Compute);
        assert_eq!(p.guest(), Label::new(5));
        assert_eq!(p.inner(), 1);
        assert_eq!(p.outer(), 1);
        assert_eq!(p.phase(), 1);
        // B4: a smaller guest arrives
        let r = p.on_msg(&BkMsg::Token(Label::new(1)), &mut Outbox::new());
        assert_eq!(r, Reaction::Consumed);
        assert_eq!(p.state(), BkState::Passive);
        assert!(!p.is_active());
    }

    #[test]
    fn unexpected_messages_are_ignored_not_crashed() {
        let algo = Bk::new(2);
        let mut p = algo.spawn(Label::new(5));
        p.on_start(&mut Outbox::new());
        // COMPUTE receiving PHASE_SHIFT has no enabled action (Lemma 11
        // says it cannot happen in a real run; the behavior must be
        // "disabled", not a panic).
        let mut out = Outbox::new();
        let r = p.on_msg(&BkMsg::PhaseShift(Label::new(1)), &mut out);
        assert_eq!(r, Reaction::Ignored);
        assert!(out.is_empty());
        // COMPUTE receiving FINISH likewise.
        let r = p.on_msg(&BkMsg::Finish(Label::new(1)), &mut Outbox::new());
        assert_eq!(r, Reaction::Ignored);
    }
}
