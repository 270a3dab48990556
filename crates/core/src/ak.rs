//! Algorithm `Ak` (paper Table 1): string growth + Lyndon-word election.
//!
//! Each process initiates a token carrying its label (action A1) and
//! forwards every token it receives, appending the carried label to its
//! local `string` (A2) — so `p.string` is always a prefix of `LLabels(p)`,
//! the counter-clockwise label sequence starting at `p`. By Lemma 6, once
//! `p.string` contains `2k+1` copies of some label, `srp(p.string)` (its
//! smallest repeating prefix) is exactly `LLabels(p)_n`, so `p` knows the
//! entire ring. The process whose `srp` is a Lyndon word is the **true
//! leader**: it elects itself (A3) and sends `FINISH` around the ring; every
//! other process learns the leader's label as the first letter of the
//! Lyndon rotation of its own `srp` (A4) — that is, the least label in
//! its `string`, since a word's least rotation starts with its least
//! letter and `srp(string)` holds exactly the letters of `string`. The
//! leader swallows the still
//! circulating tokens (A5) and halts when `FINISH` returns (A6).
//!
//! | Action | Guard                                            | Effect |
//! |--------|--------------------------------------------------|--------|
//! | A1     | `p.INIT`                                         | `string ← id`; send `⟨id⟩` |
//! | A2     | `rcv ⟨x⟩ ∧ ¬Leader(string·x)`                    | append; forward `⟨x⟩` |
//! | A3     | `rcv ⟨x⟩ ∧ Leader(string·x) ∧ ¬isLeader`         | append; elect self; send `⟨FINISH⟩` |
//! | A4     | `rcv ⟨FINISH⟩ ∧ ¬isLeader`                       | `leader ← LW(srp(string))[1]`; forward; halt |
//! | A5     | `rcv ⟨x⟩ ∧ isLeader`                             | (consume) |
//! | A6     | `rcv ⟨FINISH⟩ ∧ isLeader`                        | halt |

use hre_sim::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use hre_words::{is_lyndon, least_rotation, srp, srp_len, Label};
use std::collections::HashMap;
use std::sync::Arc;

/// The message alphabet of `Ak`: label tokens and the `FINISH` marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AkMsg {
    /// `⟨x⟩` — a circulating label token.
    Token(Label),
    /// `⟨FINISH⟩` — the election is over.
    Finish,
}

/// The paper's `Leader(σ)` predicate: `σ` contains at least `2k+1` copies
/// of some label **and** `srp(σ)` is itself a Lyndon word (i.e.
/// `srp(σ) = LW(srp(σ))`).
pub fn leader_predicate(sigma: &[Label], k: usize) -> bool {
    hre_words::has_label_with_count(sigma, 2 * k + 1) && is_lyndon(srp(sigma))
}

/// Factory for `Ak` processes. `k ≥ 1` is the a-priori bound on label
/// multiplicity (the class parameter of `A ∩ Kk`).
///
/// ```
/// use hre_core::Ak;
/// use hre_ring::RingLabeling;
/// use hre_sim::{run, RoundRobinSched, RunOptions};
///
/// let ring = RingLabeling::from_raw(&[1, 2, 2]); // asymmetric, in K2
/// let rep = run(&Ak::new(2), &ring, &mut RoundRobinSched::default(), RunOptions::default());
/// assert!(rep.clean());
/// assert_eq!(rep.leader, Some(0)); // the unique label-1 process
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Ak {
    /// The multiplicity bound `k` known to every process.
    pub k: usize,
}

impl Ak {
    /// Creates the algorithm for a given multiplicity bound `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "Ak requires k >= 1");
        Ak { k }
    }

    /// A process labeled `id` whose `string` starts as `string`.
    fn proc(&self, id: Label, string: PrefixString) -> AkProc {
        AkProc {
            id,
            k: self.k,
            init: true,
            string,
            max_count: 0,
            determined_leader: None,
            st: ElectionState::INITIAL,
        }
    }
}

impl Algorithm for Ak {
    type Proc = AkProc;

    fn name(&self) -> String {
        format!("Ak(k={})", self.k)
    }

    fn spawn(&self, label: Label) -> AkProc {
        self.proc(label, PrefixString::Owned { labels: Vec::new(), counts: HashMap::new() })
    }

    /// Simulator spawn point: each process knows its ring position, so its
    /// `string` can be a zero-copy `(start, len)` window into the shared
    /// labeling instead of an owned, growing vector, and its label counts
    /// a dense vector indexed by label rank, from one `RingTable` the
    /// whole ring shares. On fault-free runs every received token matches
    /// the window's periodic continuation and the window never
    /// materializes; a diverging token (duplication, reordering) falls back
    /// to the owned representation transparently.
    fn spawn_ring(&self, ring: &hre_ring::RingLabeling) -> Vec<AkProc> {
        let labels = ring.labels_shared();
        let (table, alphabet) = RingTable::new(&labels);
        (0..labels.len())
            .map(|i| {
                let start = i as u32;
                let string = PrefixString::Window {
                    ring: Arc::clone(&labels),
                    table: table.clone(),
                    counts: vec![0; alphabet],
                    start,
                    len: 0,
                    next: start,
                };
                self.proc(labels[i], string)
            })
            .collect()
    }
}

/// What `Ak::spawn_ring` computes once per ring for its processes'
/// windows, in one shared allocation: the rotational period and Lyndon
/// phase that decide `Leader` on a long enough window, then the label
/// ranks their counts are indexed by.
///
/// Let `W` be the counter-clockwise word of the ring, the walk from
/// position 0 (`W[m] = ring[(n − m) mod n]`); the walk from position `s`
/// is `W` rotated by the walk offset `t = (n − s) mod n`. Let `P` be the
/// smallest divisor `d` of `n` with `W` equal to its rotation by `d` (`n`
/// on every asymmetric ring), so that `u = W[..P]` is primitive and the
/// walk from `s` is periodic with the primitive period
/// `rot_{t mod P}(u)`. On a prefix `σ` of that walk with `|σ| ≥ 2P − 1`,
/// a period `q < P` would make `gcd(P, q)` a period too (Fine–Wilf), and
/// `σ[..P]` a proper power, so `srp(σ)` is exactly `rot_{t mod P}(u)`. A
/// primitive word is Lyndon iff it is its own least rotation, so
/// `Leader(σ)`'s Lyndon half holds iff `t mod P` is the least rotation of
/// `W` modulo `P`.
#[derive(Clone)]
struct RingTable(Arc<[u32]>);

impl RingTable {
    /// Slots before the ranks: `P`, then the Lyndon phase.
    const HEADER: usize = 2;

    /// The table of `ring`, and the number of its distinct labels.
    fn new(ring: &[Label]) -> (RingTable, usize) {
        let mut alphabet = ring.to_vec();
        alphabet.sort_unstable();
        alphabet.dedup();
        let n = ring.len();
        let word = ccw_walk(ring, 0, n as u32);
        // A word is a proper power iff its smallest period divides its
        // length, and then that period is its primitive root's length.
        let smallest = srp_len(&word);
        let period = if n.is_multiple_of(smallest) { smallest } else { n };
        let header = [period as u32, (least_rotation(&word) % period) as u32];
        let ranks = ring.iter().map(|l| {
            alphabet.binary_search(l).expect("a ring's labels are in its alphabet") as u32
        });
        (RingTable(header.into_iter().chain(ranks).collect()), alphabet.len())
    }

    /// `P`, the rotational period of the counter-clockwise word.
    fn period(&self) -> u32 {
        self.0[0]
    }

    /// `least_rotation(W) mod P`: the walk offset, modulo `P`, of the
    /// processes whose `srp` is a Lyndon word.
    fn lyndon_phase(&self) -> u32 {
        self.0[1]
    }

    /// The rank of `ring[j]` among the ring's distinct labels.
    fn rank(&self, j: usize) -> usize {
        self.0[Self::HEADER + j] as usize
    }
}

/// `p.string` — a prefix of `LLabels(p)`, in one of two representations,
/// each with the occurrence count of every label it holds.
///
/// The algorithm only ever *appends* received labels, and on a fault-free
/// ring the sequence of received labels is exactly the counter-clockwise
/// periodic walk of the ring starting at `p` — fully determined by `p`'s
/// position. The `Window` form exploits that: it stores a shared handle to
/// the ring labeling plus `(start, len)` and represents the string without
/// owning a single label. `push` compares the appended label against the
/// predicted next letter; equal means `len += 1` (the steady state — O(1),
/// allocation-, division- and hash-free), different means the run is
/// faulty and the string materializes into the `Owned` form once, then
/// grows conventionally.
#[derive(Clone)]
enum PrefixString {
    /// Prefix of the periodic counter-clockwise walk from `start`:
    /// element `j` is `ring[(start + n − (j mod n)) mod n]`.
    Window {
        /// Shared ring storage (refcount bump to clone).
        ring: Arc<[Label]>,
        /// The ring's period, Lyndon phase and label ranks — one table per
        /// ring, shared by its processes.
        table: RingTable,
        /// Occurrences of each label in the prefix, indexed by rank.
        counts: Vec<u32>,
        /// The owning process's position.
        start: u32,
        /// Prefix length.
        len: u32,
        /// Ring index of element `len`, the next predicted label — the
        /// formula above, kept one step at a time.
        next: u32,
    },
    /// Explicit storage, used when the ring is unknown (bare `spawn`) or
    /// after a received token diverged from the window's prediction.
    Owned {
        /// The string itself.
        labels: Vec<Label>,
        /// Occurrences of each label in it. The map keeps std's keyed
        /// hasher: labels come from clients, and an unkeyed hash would let
        /// a crafted ring collide every count into one bucket.
        counts: HashMap<Label, u32>,
    },
}

impl PrefixString {
    fn len(&self) -> usize {
        match self {
            PrefixString::Window { len, .. } => *len as usize,
            PrefixString::Owned { labels, .. } => labels.len(),
        }
    }

    /// Appends a label: O(1) window growth when it matches the periodic
    /// prediction, one-time materialization when it does not. With
    /// `count`, also counts it and returns how many times the string now
    /// holds it; without, returns 0 and leaves the counts as they were.
    fn push(&mut self, x: Label, count: bool) -> u32 {
        match self {
            PrefixString::Window { ring, table, counts, start, len, next } => {
                let j = *next as usize;
                if x == ring[j] {
                    *len += 1;
                    *next = next.checked_sub(1).unwrap_or(ring.len() as u32 - 1);
                    if !count {
                        return 0;
                    }
                    let c = &mut counts[table.rank(j)];
                    *c += 1;
                    *c
                } else {
                    let labels = ccw_walk(ring, *start, *len);
                    let mut keyed = HashMap::with_capacity(counts.len());
                    for (j, label) in ring.iter().enumerate() {
                        let c = counts[table.rank(j)];
                        if c > 0 {
                            keyed.insert(*label, c);
                        }
                    }
                    *self = PrefixString::Owned { labels, counts: keyed };
                    self.push(x, count)
                }
            }
            PrefixString::Owned { labels, counts } => {
                labels.push(x);
                if !count {
                    return 0;
                }
                let c = counts.entry(x).or_insert(0);
                *c += 1;
                *c
            }
        }
    }

    /// Whether `srp` of the string is a Lyndon word, read from the ring's
    /// table when the string is a window of at least `2P − 1` labels (see
    /// [`RingTable`]); `None` for a shorter window or an owned string.
    fn table_lyndon(&self) -> Option<bool> {
        match self {
            PrefixString::Window { ring, table, start, len, .. }
                if *len as usize + 1 >= 2 * table.period() as usize =>
            {
                let n = ring.len() as u32;
                let offset = (n - start) % n;
                Some(offset % table.period() == table.lyndon_phase())
            }
            _ => None,
        }
    }

    /// Materializes the string (for `srp`/Lyndon analysis, which needs a
    /// contiguous slice). Release builds call it at most once per process
    /// per run, when the `2k+1` threshold is reached before the table
    /// can answer (see [`Self::table_lyndon`]).
    fn to_vec(&self) -> Vec<Label> {
        match self {
            PrefixString::Window { ring, start, len, .. } => ccw_walk(ring, *start, *len),
            PrefixString::Owned { labels, .. } => labels.clone(),
        }
    }

    /// The least label in the string, without materializing it.
    fn min(&self) -> Option<Label> {
        match self {
            PrefixString::Window { ring, start, len, .. } => {
                // One lap of the walk holds every label the prefix does.
                let (upto, after) = ring.split_at(*start as usize + 1);
                upto.iter().rev().chain(after.iter().rev()).take(*len as usize).min().copied()
            }
            PrefixString::Owned { labels, .. } => labels.iter().min().copied(),
        }
    }
}

/// The first `len` labels of the periodic counter-clockwise walk of `ring`
/// from `start`: `ring[start], ring[start − 1], …, ring[0], ring[n − 1], …`.
fn ccw_walk(ring: &[Label], start: u32, len: u32) -> Vec<Label> {
    let (upto, after) = ring.split_at(start as usize + 1);
    upto.iter().rev().chain(after.iter().rev()).cycle().take(len as usize).copied().collect()
}

/// One `Ak` process.
///
/// Beyond the paper's variables (`INIT`, `string`, `isLeader`, `leader`,
/// `done`), the struct keeps incremental occurrence counts (inside
/// `string`), their maximum and a cached decision — pure evaluation caches
/// for the `Leader` predicate that do not change the algorithm's behavior
/// (and are excluded from the paper-formula space accounting, which
/// charges for `string` itself).
#[derive(Clone)]
pub struct AkProc {
    id: Label,
    k: usize,
    /// `p.INIT`.
    init: bool,
    /// `p.string` — the received prefix of `LLabels(p)` — with its label
    /// counts, kept until `determined_leader` is set: nothing reads them
    /// after that.
    string: PrefixString,
    /// Largest label count in `string` (cache).
    max_count: usize,
    /// Once the `2k+1` threshold has been reached, the ring is determined
    /// and the answer to `Leader` is frozen (cache): `Some(am_leader)`.
    determined_leader: Option<bool>,
    st: ElectionState,
}

impl AkProc {
    /// The process's own label.
    pub fn id(&self) -> Label {
        self.id
    }

    /// `p.string`, materialized (for tests and analyses). The live
    /// representation is usually a zero-copy window into the ring labeling
    /// (see `PrefixString`), so this copies on demand.
    pub fn string_vec(&self) -> Vec<Label> {
        self.string.to_vec()
    }

    fn push(&mut self, x: Label) {
        let count = self.string.push(x, self.determined_leader.is_none());
        self.max_count = self.max_count.max(count as usize);
    }

    /// Evaluates `Leader(string)` after the candidate label has been
    /// appended, caching the verdict once the ring is determined.
    ///
    /// Caching is sound: once some label has `2k+1` occurrences,
    /// `srp(string)` is pinned to `LLabels(p)_n` (Lemmas 5–6) and further
    /// appends of the periodic continuation cannot change it, so the
    /// predicate's value is constant from then on.
    fn leader_now(&mut self) -> bool {
        if let Some(v) = self.determined_leader {
            return v;
        }
        if self.max_count < 2 * self.k + 1 {
            return false;
        }
        // Reached at most once per process. A window at least 2P − 1 labels
        // long has its verdict in the ring's table; a shorter window (a k
        // below the ring's multiplicity can reach 2k+1 copies sooner) or an
        // owned string materializes for `srp`.
        let v = match self.string.table_lyndon() {
            Some(v) => v,
            None => is_lyndon(srp(&self.string.to_vec())),
        };
        self.determined_leader = Some(v);
        v
    }
}

impl hre_sim::StateKey for AkProc {
    fn state_key(&self) -> String {
        // Exact: the caches are functions of `string`, so the paper
        // variables alone determine the behavior. Materialized so the key
        // is representation-independent (Window vs Owned).
        format!("{:?}/{}/{:?}/{:?}", self.id, self.init, self.string.to_vec(), self.st)
    }
}

impl ProcessBehavior for AkProc {
    type Msg = AkMsg;

    /// Action A1.
    fn on_start(&mut self, out: &mut Outbox<AkMsg>) {
        debug_assert!(self.init);
        self.init = false;
        self.push(self.id);
        out.send(AkMsg::Token(self.id));
    }

    fn on_msg(&mut self, msg: &AkMsg, out: &mut Outbox<AkMsg>) -> Reaction {
        debug_assert!(!self.init, "the engine fires the initial action first");
        debug_assert!(!self.st.halted, "no action fires after halting");
        match (*msg, self.st.is_leader) {
            // A5 — the leader swallows circulating tokens.
            (AkMsg::Token(_), true) => Reaction::Consumed,
            (AkMsg::Token(x), false) => {
                self.push(x);
                if self.leader_now() {
                    // A3 — elect self, begin the finishing phase.
                    self.st.is_leader = true;
                    self.st.leader = Some(self.id);
                    self.st.done = true;
                    out.send(AkMsg::Finish);
                } else {
                    // A2 — keep growing, forward the token.
                    out.send(AkMsg::Token(x));
                }
                Reaction::Consumed
            }
            // A4 — learn the leader's label, forward FINISH, halt.
            // `LW(srp(σ))[1]` is σ's least label: see the module docs.
            (AkMsg::Finish, false) => {
                debug_assert!(
                    hre_words::is_primitive(srp(&self.string.to_vec())),
                    "on A4 the string determines the (asymmetric) ring"
                );
                self.st.leader = self.string.min();
                self.st.done = true;
                out.send(AkMsg::Finish);
                self.st.halted = true;
                Reaction::Consumed
            }
            // A6 — the FINISH token came home; the leader halts.
            (AkMsg::Finish, true) => {
                self.st.halted = true;
                Reaction::Consumed
            }
        }
    }

    fn election(&self) -> ElectionState {
        self.st
    }

    /// The paper's accounting (proof of Theorem 2): `|string|·b + 2b + 3`
    /// bits — the string, the `id` and `leader` labels, and three booleans.
    fn space_bits(&self, label_bits: u32) -> u64 {
        let b = label_bits as u64;
        self.string.len() as u64 * b + 2 * b + 3
    }

    /// `⟨x⟩` carries one label plus a one-bit tag; `⟨FINISH⟩` is the tag
    /// alone.
    fn msg_wire_bits(&self, msg: &AkMsg, label_bits: u32) -> u64 {
        match msg {
            AkMsg::Token(_) => label_bits as u64 + 1,
            AkMsg::Finish => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_ring::{catalog, enumerate, generate, RingLabeling};
    use hre_sim::{
        run, AdversarialSched, Adversary, RandomSched, RoundRobinSched, RunOptions, SyncSched,
    };
    use hre_words::labels;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn default_run(ring: &RingLabeling, k: usize) -> hre_sim::RunReport<AkMsg> {
        run(&Ak::new(k), ring, &mut RoundRobinSched::default(), RunOptions::default())
    }

    #[test]
    fn leader_predicate_matches_paper_definition() {
        // Ring AAB (A=10,B=11), k=2: LLabels(p2)=B A A B A A ... Lyndon
        // rotation starts at the first A... p(i) is leader iff its LLabels_n
        // is Lyndon. For labels [10,10,11]: LLabels(p0)=10,11,10 (not
        // Lyndon); LLabels(p1)=10,10,11 (Lyndon) -> p1 is the true leader.
        let ring = catalog::section4_aab_ring();
        assert_eq!(ring.true_leader(), Some(1));
        let k = 2;
        // The prefix of LLabels(p1) with 2k+1 = 5 copies of label 10:
        // 10,10,11,10,10,11,10,10 (length 8 has five 10s).
        let sigma = ring.llabels(1, 8);
        assert!(hre_words::has_label_with_count(&sigma, 5));
        assert!(leader_predicate(&sigma, k));
        // Same length at p0 is not a Lyndon srp.
        let sigma0 = ring.llabels(0, 8);
        assert!(!leader_predicate(&sigma0, k));
        // Too short: threshold not reached, predicate false even for p1.
        assert!(!leader_predicate(&ring.llabels(1, 6), k));
    }

    #[test]
    fn table_verdict_is_the_srp_lyndon_test_on_every_long_window() {
        // Every labeling with n ≤ 6 over three labels, symmetric ones
        // included, every position, every window length from 2P − 1 to
        // three laps: the table answers, and answers what `srp` +
        // `is_lyndon` of the materialized window would.
        for n in 2..=6usize {
            for ring in enumerate::all_labelings(n, 3) {
                let labels = ring.labels_shared();
                let (table, alphabet) = RingTable::new(&labels);
                let period = table.period() as usize;
                assert_eq!(period == n, ring.is_asymmetric(), "{ring:?}");
                for s in 0..n {
                    for len in 1..=3 * n {
                        let window = PrefixString::Window {
                            ring: Arc::clone(&labels),
                            table: table.clone(),
                            counts: vec![0; alphabet],
                            start: s as u32,
                            len: len as u32,
                            next: 0,
                        };
                        let sigma = window.to_vec();
                        assert_eq!(sigma, ring.llabels(s, len));
                        let want = is_lyndon(srp(&sigma));
                        match window.table_lyndon() {
                            Some(v) => assert_eq!(v, want, "{ring:?} s={s} len={len}"),
                            None => assert!(len < 2 * period - 1, "{ring:?} s={s} len={len}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn elects_true_leader_on_figure1_ring() {
        let ring = catalog::figure1_ring();
        let rep = default_run(&ring, catalog::FIGURE1_K);
        assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        assert_eq!(rep.leader, Some(catalog::FIGURE1_LEADER));
    }

    #[test]
    fn elects_on_ring_122_with_k2() {
        let rep = default_run(&catalog::ring_122(), 2);
        assert!(rep.clean());
        assert_eq!(rep.leader, Some(0));
    }

    #[test]
    fn exhaustive_small_rings_all_schedulers() {
        for n in 2..=5usize {
            for ring in enumerate::asymmetric_labelings(n, 3) {
                let k = ring.max_multiplicity();
                let expected = ring.true_leader().unwrap();
                let algo = Ak::new(k);
                let reports = [
                    run(&algo, &ring, &mut SyncSched, RunOptions::default()),
                    run(&algo, &ring, &mut RoundRobinSched::default(), RunOptions::default()),
                    run(&algo, &ring, &mut RandomSched::new(7), RunOptions::default()),
                    run(
                        &algo,
                        &ring,
                        &mut AdversarialSched { strategy: Adversary::Starve(expected) },
                        RunOptions::default(),
                    ),
                ];
                for rep in &reports {
                    assert!(rep.clean(), "{ring:?} k={k} {:?} {:?}", rep.verdict, rep.violations);
                    assert_eq!(rep.leader, Some(expected), "{ring:?}");
                }
                // confluence: identical metrics across schedulers
                for rep in &reports[1..] {
                    assert_eq!(rep.metrics.messages, reports[0].metrics.messages);
                    assert_eq!(rep.metrics.time_units, reports[0].metrics.time_units);
                }
            }
        }
    }

    #[test]
    fn overestimating_k_is_safe() {
        // Ak must be correct for every ring in A ∩ Kk; a ring with actual
        // multiplicity below k qualifies.
        let ring = catalog::ring_122(); // multiplicity 2
        for k in 2..=5 {
            let rep = default_run(&ring, k);
            assert!(rep.clean(), "k={k}");
            assert_eq!(rep.leader, Some(0));
        }
    }

    #[test]
    fn k1_rings_with_k1() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 2..=12 {
            let ring = generate::random_k1(n, &mut rng);
            let rep = default_run(&ring, 1);
            assert!(rep.clean(), "{ring:?}");
            assert_eq!(rep.leader, ring.true_leader());
        }
    }

    #[test]
    fn theorem2_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(n, k, a) in &[(4usize, 2usize, 3u64), (6, 2, 3), (8, 3, 3), (10, 2, 5), (12, 4, 3)] {
            let ring = generate::random_a_inter_kk(n, k, a, &mut rng);
            let b = ring.label_bits() as u64;
            let rep = default_run(&ring, k);
            assert!(rep.clean());
            let m = &rep.metrics;
            let (n64, k64) = (n as u64, k as u64);
            assert!(
                m.time_units <= (2 * k64 + 2) * n64,
                "time {} > (2k+2)n = {} for n={n} k={k}",
                m.time_units,
                (2 * k64 + 2) * n64
            );
            assert!(
                m.messages <= n64 * n64 * (2 * k64 + 1) + n64,
                "messages {} over bound for n={n} k={k}",
                m.messages
            );
            assert!(
                m.peak_space_bits <= (2 * k64 + 1) * n64 * b + 2 * b + 3,
                "space {} over bound for n={n} k={k} b={b}",
                m.peak_space_bits
            );
        }
    }

    #[test]
    fn string_stays_a_prefix_of_llabels() {
        // White-box: drive a network manually and check p.string against
        // LLabels(p) at the end.
        use hre_sim::Network;
        let ring = catalog::figure1_ring();
        let algo = Ak::new(3);
        let mut net: Network<AkProc> = Network::new(&algo, &ring);
        let mut guard = 0;
        while let Some(&i) = net.enabled_set().first() {
            net.fire(i);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        for i in 0..ring.n() {
            let s = net.process(i).string_vec();
            let expect = ring.llabels(i, s.len());
            assert_eq!(s, expect, "process {i}");
        }
    }

    #[test]
    fn underestimating_k_can_break_the_election() {
        // Lemma 1 in action: on the ring R_{n,k} built from a K1 base, Ak
        // parameterized with too small a k elects *two* leaders (the paper's
        // impossibility engine). This demonstrates Ak is NOT an algorithm
        // for U* — consistent with Theorem 1.
        let base = RingLabeling::new(labels(&[1, 2, 3]));
        let big = generate::lemma1_ring(&base, 5); // multiplicity 5
        let rep = default_run(&big, 1); // lies: k=1
        assert!(!rep.clean(), "a too-small k must violate the spec");
    }

    #[test]
    fn space_accounting_follows_paper_formula() {
        let p = Ak::new(2).spawn(Label::new(3));
        // empty string: 2b + 3
        assert_eq!(p.space_bits(4), 2 * 4 + 3);
        let mut p = p;
        let mut out = Outbox::new();
        p.on_start(&mut out);
        assert_eq!(p.space_bits(4), 4 + 2 * 4 + 3); // |string| = 1
        p.on_msg(&AkMsg::Token(Label::new(9)), &mut Outbox::new());
        assert_eq!(p.space_bits(4), 2 * 4 + 2 * 4 + 3);
    }

    #[test]
    fn wire_bits_account_tokens_and_finish() {
        // On a clean run: wire_bits = tokens*(b+1) + finishes*1, with
        // exactly n FINISH messages (one initiated + n-1 forwards).
        let ring = catalog::figure1_ring();
        let rep = run(
            &Ak::new(3),
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions { record_trace: true, ..Default::default() },
        );
        assert!(rep.clean());
        let trace = rep.trace.unwrap();
        let b = ring.label_bits() as u64;
        let mut expect = 0u64;
        let mut finishes = 0u64;
        for p in 0..ring.n() {
            for m in trace.sent_stream(p) {
                expect += match m {
                    AkMsg::Token(_) => b + 1,
                    AkMsg::Finish => {
                        finishes += 1;
                        1
                    }
                };
            }
        }
        assert_eq!(rep.metrics.wire_bits, expect);
        assert_eq!(finishes, ring.n() as u64);
    }

    #[test]
    fn tokens_preserved_until_leader_consumes() {
        // Every token sent is either forwarded or consumed by the leader or
        // trailing behind FINISH; conservation: total received = total sent
        // at completion.
        let ring = catalog::figure1_ring();
        let rep = run(
            &Ak::new(3),
            &ring,
            &mut RandomSched::new(5),
            RunOptions { record_trace: true, ..Default::default() },
        );
        assert!(rep.clean());
        let trace = rep.trace.unwrap();
        let received: u64 = (0..ring.n()).map(|i| trace.received_stream(i).len() as u64).sum();
        assert_eq!(received, rep.metrics.messages);
    }
}
