//! Schedulers: fair activation policies driving the network.
//!
//! The model requires only *fairness* (a continuously-enabled process
//! eventually fires). Because the algorithms are deterministic and links
//! are FIFO, the system is **confluent**: every fair schedule produces the
//! same message streams, the same terminal configuration, the same message
//! count, and the same virtual time — only the interleaving differs. The
//! test suite exploits this as a powerful invariant; the schedulers below
//! provide interestingly different interleavings:
//!
//! * [`SyncSched`] — the paper's *synchronous execution*: at each step,
//!   **all** enabled processes execute one action (link heads snapshotted at
//!   step start). This is the execution Lemma 1 counts steps of.
//! * [`RoundRobinSched`] — cycles through processes, firing each enabled one.
//! * [`RandomSched`] — picks a uniformly random enabled process (seeded);
//!   fair with probability 1.
//! * [`AdversarialSched`] — starves a victim process as long as anything
//!   else is enabled, or drains the most/least loaded link first; still
//!   technically fair, but produces extreme interleavings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the scheduler wants fired next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Fire every currently-enabled process once, synchronously (heads
    /// snapshotted at step start).
    All,
    /// Fire this one process.
    One(usize),
}

/// The enabled processes of one configuration, as a bitset over process
/// indices: one `u64` per 64 processes, plus a member count.
///
/// Every query and [`Self::iter`] run in **ascending** index order, the
/// order the engine's former sorted index list had; the deterministic
/// schedulers' decisions depend on it (see [`crate::baseline`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnabledSet {
    words: Vec<u64>,
    len: usize,
}

// The engine is generic and instantiated in the crates that run it, so
// the per-action queries are `#[inline]`: a cross-crate call costs more
// than the bit operation it wraps.
impl EnabledSet {
    /// The empty set over processes `0..n`.
    pub fn new(n: usize) -> Self {
        EnabledSet { words: vec![0; n.div_ceil(64)], len: 0 }
    }

    /// The set over processes `0..n` holding exactly `members` (one
    /// branch-free pass: the frozen baseline engine builds one per step).
    pub fn with_members(n: usize, members: &[usize]) -> Self {
        let mut words = vec![0u64; n.div_ceil(64)];
        for &i in members {
            words[i / 64] |= 1 << (i % 64);
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        EnabledSet { words, len }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no process is enabled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is a member (`false` past the end).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Makes `i` a member iff `on`.
    #[inline]
    pub fn set(&mut self, i: usize, on: bool) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if (*word & bit != 0) != on {
            *word ^= bit;
            if on {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
    }

    /// The smallest member.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        self.first_from(0)
    }

    /// The smallest member `≥ i`.
    #[inline]
    pub fn first_from(&self, i: usize) -> Option<usize> {
        let mut w = i / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (i % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The largest member.
    pub fn last(&self) -> Option<usize> {
        let w = self.words.iter().rposition(|&bits| bits != 0)?;
        Some(w * 64 + 63 - self.words[w].leading_zeros() as usize)
    }

    /// The `k`-th smallest member, counting from 0.
    pub fn nth(&self, mut k: usize) -> Option<usize> {
        for (w, &bits) in self.words.iter().enumerate() {
            let count = bits.count_ones() as usize;
            if k < count {
                let mut rest = bits;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                return Some(w * 64 + rest.trailing_zeros() as usize);
            }
            k -= count;
        }
        None
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Members { words: &self.words, next_word: 0, bits: 0 }
    }

    // The round-robin sweep (`Network::run_round_robin`) uses the set's
    // words as its candidate set, a superset of the enabled processes: it
    // marks and unmarks bits without counting them and makes the set exact
    // again with `retain` before it returns.

    /// Adds `i` without counting it.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i` without counting it.
    #[inline]
    pub(crate) fn unmark(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Keeps the members for which `keep` holds, and recounts them.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut len = 0;
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if !keep(w * 64 + bit) {
                    *word &= !(1 << bit);
                }
            }
            len += word.count_ones() as usize;
        }
        self.len = len;
    }
}

/// Ascending iterator over an [`EnabledSet`]'s members.
struct Members<'a> {
    words: &'a [u64],
    next_word: usize,
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let i = (self.next_word - 1) * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// The run loop asks a scheduler to pick only while something is enabled.
const NON_EMPTY: &str = "schedulers select from a non-empty enabled set";

/// A fair activation policy.
pub trait Scheduler {
    /// Chooses from the (non-empty) enabled set.
    fn select(&mut self, enabled: &EnabledSet) -> Selection;

    /// Name for reports.
    fn name(&self) -> String;

    /// The round-robin scheduler this is, if it is one. A run nobody
    /// records under it takes the round-robin sweep, which makes the same
    /// picks without keeping the enabled set exact after every action.
    /// Only [`RoundRobinSched`] answers `Some` (the `Box` and `&mut`
    /// wrappers forward the question), so for a concrete scheduler the
    /// answer is known where the run is compiled.
    #[inline]
    fn as_round_robin(&mut self) -> Option<&mut RoundRobinSched> {
        None
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn select(&mut self, enabled: &EnabledSet) -> Selection {
        (**self).select(enabled)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    #[inline]
    fn as_round_robin(&mut self) -> Option<&mut RoundRobinSched> {
        (**self).as_round_robin()
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn select(&mut self, enabled: &EnabledSet) -> Selection {
        (**self).select(enabled)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    #[inline]
    fn as_round_robin(&mut self) -> Option<&mut RoundRobinSched> {
        (**self).as_round_robin()
    }
}

/// The synchronous scheduler: every enabled process fires at every step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncSched;

impl Scheduler for SyncSched {
    fn select(&mut self, _enabled: &EnabledSet) -> Selection {
        Selection::All
    }
    fn name(&self) -> String {
        "sync".into()
    }
}

/// Round-robin over process indices.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinSched {
    /// One past the last pick: the next pick is the first enabled process
    /// at or after it, else the first enabled process.
    pub(crate) cursor: usize,
}

impl Scheduler for RoundRobinSched {
    #[inline]
    fn select(&mut self, enabled: &EnabledSet) -> Selection {
        // smallest enabled index >= cursor, else smallest enabled
        let pick = enabled.first_from(self.cursor).or_else(|| enabled.first()).expect(NON_EMPTY);
        self.cursor = pick + 1;
        Selection::One(pick)
    }
    fn name(&self) -> String {
        "round-robin".into()
    }
    #[inline]
    fn as_round_robin(&mut self) -> Option<&mut RoundRobinSched> {
        Some(self)
    }
}

/// Uniformly random enabled process; seeded, hence reproducible.
#[derive(Clone, Debug)]
pub struct RandomSched {
    rng: StdRng,
    seed: u64,
}

impl RandomSched {
    /// A random scheduler from a seed (printed in every report).
    pub fn new(seed: u64) -> Self {
        RandomSched { rng: StdRng::seed_from_u64(seed), seed }
    }
}

impl Scheduler for RandomSched {
    fn select(&mut self, enabled: &EnabledSet) -> Selection {
        Selection::One(enabled.nth(self.rng.gen_range(0..enabled.len())).expect(NON_EMPTY))
    }
    fn name(&self) -> String {
        format!("random(seed={})", self.seed)
    }
}

/// Flavors of adversarial (but still fair) scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Never fire `victim` while anything else is enabled — maximizes the
    /// victim's input backlog.
    Starve(usize),
    /// Always fire the lowest enabled index — one process races ahead.
    LowestFirst,
    /// Always fire the highest enabled index.
    HighestFirst,
}

/// Adversarial scheduler; see [`Adversary`].
#[derive(Clone, Copy, Debug)]
pub struct AdversarialSched {
    /// The strategy in force.
    pub strategy: Adversary,
}

impl Scheduler for AdversarialSched {
    fn select(&mut self, enabled: &EnabledSet) -> Selection {
        let pick = match self.strategy {
            Adversary::Starve(victim) => {
                enabled.iter().find(|&i| i != victim).or_else(|| enabled.first())
            }
            Adversary::LowestFirst => enabled.first(),
            Adversary::HighestFirst => enabled.last(),
        };
        Selection::One(pick.expect(NON_EMPTY))
    }
    fn name(&self) -> String {
        match self.strategy {
            Adversary::Starve(v) => format!("starve({v})"),
            Adversary::LowestFirst => "lowest-first".into(),
            Adversary::HighestFirst => "highest-first".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(members: &[usize]) -> EnabledSet {
        EnabledSet::with_members(10, members)
    }

    #[test]
    fn sync_selects_all() {
        assert_eq!(SyncSched.select(&set(&[0, 2, 5])), Selection::All);
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobinSched::default();
        assert_eq!(s.select(&set(&[0, 1, 2])), Selection::One(0));
        assert_eq!(s.select(&set(&[0, 1, 2])), Selection::One(1));
        assert_eq!(s.select(&set(&[0, 2])), Selection::One(2));
        assert_eq!(s.select(&set(&[0, 2])), Selection::One(0)); // wraps
    }

    #[test]
    fn random_is_reproducible_and_in_range() {
        let mut a = RandomSched::new(7);
        let mut b = RandomSched::new(7);
        for _ in 0..100 {
            let ea = a.select(&set(&[3, 5, 9]));
            let eb = b.select(&set(&[3, 5, 9]));
            assert_eq!(ea, eb);
            if let Selection::One(i) = ea {
                assert!([3, 5, 9].contains(&i));
            } else {
                panic!("random picks one");
            }
        }
    }

    #[test]
    fn starve_avoids_victim_when_possible() {
        let mut s = AdversarialSched { strategy: Adversary::Starve(2) };
        assert_eq!(s.select(&set(&[1, 2, 3])), Selection::One(1));
        assert_eq!(s.select(&set(&[2, 3])), Selection::One(3));
        // forced: only the victim is enabled
        assert_eq!(s.select(&set(&[2])), Selection::One(2));
    }

    #[test]
    fn extremal_strategies() {
        let mut lo = AdversarialSched { strategy: Adversary::LowestFirst };
        let mut hi = AdversarialSched { strategy: Adversary::HighestFirst };
        assert_eq!(lo.select(&set(&[1, 4, 6])), Selection::One(1));
        assert_eq!(hi.select(&set(&[1, 4, 6])), Selection::One(6));
    }

    #[test]
    fn set_tracks_members_across_word_boundaries() {
        let mut s = EnabledSet::new(130);
        for i in [0, 63, 64, 127, 129] {
            s.set(i, true);
            s.set(i, true); // idempotent
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);
        assert_eq!((s.first(), s.last()), (Some(0), Some(129)));
        assert_eq!(
            (s.first_from(1), s.first_from(65), s.first_from(130)),
            (Some(63), Some(127), None)
        );
        assert_eq!((s.nth(2), s.nth(4), s.nth(5)), (Some(64), Some(129), None));
        assert!(s.contains(127) && !s.contains(128) && !s.contains(1000));
        s.set(0, false);
        s.set(0, false);
        assert_eq!((s.len(), s.first()), (4, Some(63)));
        for i in [63, 64, 127, 129] {
            s.set(i, false);
        }
        assert!(s.is_empty() && s.first().is_none() && s.last().is_none());
    }

    #[test]
    fn candidate_marks_wait_for_retain_to_recount() {
        let mut s = EnabledSet::with_members(130, &[1, 64]);
        s.mark(129);
        s.mark(70);
        s.unmark(1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64, 70, 129]);
        assert_eq!(s.len(), 2, "marks are not counted");
        s.retain(|i| i != 70);
        assert_eq!((s.len(), s.iter().collect::<Vec<_>>()), (2, vec![64, 129]));
        assert_eq!(s, EnabledSet::with_members(130, &[64, 129]));
    }

    /// The slice rules every scheduler applied to the engine's former
    /// sorted enabled list, verbatim: the bitset picks must equal them.
    fn slice_round_robin(cursor: &mut usize, enabled: &[usize]) -> usize {
        let pick = enabled.iter().copied().find(|&i| i >= *cursor).unwrap_or(enabled[0]);
        *cursor = pick + 1;
        pick
    }

    fn slice_adversary(strategy: Adversary, enabled: &[usize]) -> usize {
        match strategy {
            Adversary::Starve(victim) => {
                enabled.iter().copied().find(|&i| i != victim).unwrap_or(enabled[0])
            }
            Adversary::LowestFirst => enabled[0],
            Adversary::HighestFirst => *enabled.last().unwrap(),
        }
    }

    /// A random non-empty subset of `0..n`, `n ≤ 200` (up to four words),
    /// as its sorted member list.
    fn arb_members() -> impl Strategy<Value = (usize, Vec<usize>)> {
        (1usize..=200, any::<u64>(), 1u64..=100).prop_map(|(n, seed, density)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut members: Vec<usize> =
                (0..n).filter(|_| rng.gen_range(0..100) < density).collect();
            if members.is_empty() {
                members.push(rng.gen_range(0..n));
            }
            (n, members)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bitset_picks_equal_the_slice_rules(
            (n, members) in arb_members(),
            cursor in 0usize..=201,
            victim in 0usize..=200,
            seed in any::<u64>(),
        ) {
            let set = EnabledSet::with_members(n, &members);
            prop_assert_eq!(set.len(), members.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), members.clone());

            let mut rr = RoundRobinSched { cursor };
            let mut slice_cursor = cursor;
            for _ in 0..3 {
                let want = slice_round_robin(&mut slice_cursor, &members);
                prop_assert_eq!(rr.select(&set), Selection::One(want));
                prop_assert_eq!(rr.cursor, slice_cursor);
            }

            let mut random = RandomSched::new(seed);
            let mut slice_rng = StdRng::seed_from_u64(seed);
            for _ in 0..3 {
                let want = members[slice_rng.gen_range(0..members.len())];
                prop_assert_eq!(random.select(&set), Selection::One(want));
            }

            for strategy in [Adversary::Starve(victim), Adversary::LowestFirst, Adversary::HighestFirst] {
                let want = slice_adversary(strategy, &members);
                prop_assert_eq!(AdversarialSched { strategy }.select(&set), Selection::One(want));
            }
            prop_assert_eq!(SyncSched.select(&set), Selection::All);
        }
    }
}
