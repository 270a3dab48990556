//! `Ak`'s per-ring verdict table against the string it stands in for.
//!
//! Through `spawn_ring`, an `Ak` process keeps its string as a window over
//! the shared ring labeling and, when the `2k+1` threshold finds the window
//! at least two periods long, reads its `Leader` verdict from a table
//! computed once per ring. Through bare `spawn`, the string is owned and
//! the verdict materializes `srp` + `is_lyndon`, as the paper writes it.
//! The two must give equal runs: every `RunReport` field, on random rings,
//! on periodic rings (where the period is shorter than the ring), and with
//! `k` at, above and below the ring's multiplicity (below it, `2k+1` copies
//! can arrive inside two periods, and the window materializes too).
//!
//! The comparison is with the owned path, not with `AkReference`, which
//! re-evaluates the predicate on every receipt instead of freezing it.

use hre_core::{Ak, AkProc};
use hre_ring::RingLabeling;
use hre_sim::{run, Algorithm, RandomSched, RoundRobinSched, RunOptions, RunReport, Scheduler};
use hre_words::Label;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Ak` without its ring spawn point: every process starts from bare
/// `spawn`, so its string is owned.
struct OwnedAk(Ak);

impl Algorithm for OwnedAk {
    type Proc = AkProc;

    fn name(&self) -> String {
        self.0.name()
    }

    fn spawn(&self, label: Label) -> AkProc {
        self.0.spawn(label)
    }
}

/// A random ring of `2 ≤ n ≤ 64` labels over an alphabet of at least
/// `n/4` labels (so multiplicities stay small enough to run quickly).
fn arb_random_ring() -> impl Strategy<Value = RingLabeling> {
    (2usize..=64, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = rng.gen_range(n.div_ceil(4)..=n + 2) as u64;
        let raw: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=alphabet)).collect();
        RingLabeling::from_raw(&raw)
    })
}

/// A random word of 1–16 labels repeated 2–4 times.
fn arb_periodic_ring() -> impl Strategy<Value = RingLabeling> {
    (1usize..=16, 2usize..=4, any::<u64>()).prop_map(|(m, times, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = rng.gen_range(1..=m as u64 + 1);
        let word: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=alphabet)).collect();
        RingLabeling::from_raw(&word.repeat(times))
    })
}

/// Every field of two reports, equal.
fn assert_same<M>(table: &RunReport<M>, owned: &RunReport<M>) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.verdict, owned.verdict);
    prop_assert_eq!(table.leader, owned.leader);
    prop_assert_eq!(&table.violations, &owned.violations);
    prop_assert_eq!(&table.metrics, &owned.metrics);
    prop_assert_eq!(&table.algorithm, &owned.algorithm);
    prop_assert_eq!(&table.scheduler, &owned.scheduler);
    prop_assert!(table.trace.is_none() && owned.trace.is_none());
    Ok(())
}

/// Runs `Ak(k)` on `ring` through both spawn points under fresh
/// schedulers from `sched`.
fn both_paths<S: Scheduler>(
    ring: &RingLabeling,
    k: usize,
    sched: impl Fn() -> S,
) -> Result<(), TestCaseError> {
    let opts = RunOptions::default();
    let table = run(&Ak::new(k), ring, &mut sched(), opts);
    let owned = run(&OwnedAk(Ak::new(k)), ring, &mut sched(), opts);
    assert_same(&table, &owned)
}

/// The multiplicity bounds to try on `ring`: its multiplicity, one above
/// it, and (when there is one) one below it drawn from `seed`.
fn ks(ring: &RingLabeling, seed: u64) -> Vec<usize> {
    let m = ring.max_multiplicity();
    let mut ks = vec![m, m + 1];
    if m > 1 {
        ks.push(1 + (seed % (m as u64 - 1)) as usize);
    }
    ks
}

fn window_and_owned_agree(ring: &RingLabeling, seed: u64) -> Result<(), TestCaseError> {
    for k in ks(ring, seed) {
        both_paths(ring, k, RoundRobinSched::default)?;
        both_paths(ring, k, || RandomSched::new(seed))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_verdict_matches_the_owned_string_on_random_rings(
        ring in arb_random_ring(),
        seed in any::<u64>(),
    ) {
        window_and_owned_agree(&ring, seed)?;
    }

    #[test]
    fn table_verdict_matches_the_owned_string_on_periodic_rings(
        ring in arb_periodic_ring(),
        seed in any::<u64>(),
    ) {
        window_and_owned_agree(&ring, seed)?;
    }
}
