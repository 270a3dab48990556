//! Property tests pinning the optimized simulation stack to the
//! paper-literal oracle.
//!
//! The perf work changed things that must not be observable: `Ak` grew a
//! zero-copy, division-free prefix-string window over the shared ring
//! labeling and stops counting labels once its verdict is frozen, the
//! engine moved to pooled links with move-based dispatch and a bitset
//! enabled set, and traces are accumulated in place. Both engines answer
//! every scheduler query in ascending index order, so any deterministic
//! scheduler makes the same decisions on both — which makes
//! *trace-level* comparison meaningful: the same leader is not enough, we
//! require byte-identical per-process message streams and identical
//! metrics (messages, time, steps, wire bits, peak space) on random
//! asymmetric rings (n ≤ 7, alphabet ≤ 3) under seeded random,
//! adversarial, round-robin (the served scheduler) and synchronous
//! schedulers.

use hre_baselines::OracleN;
use hre_core::{Ak, AkReference, Bk};
use hre_ring::{generate, RingLabeling};
use hre_sim::baseline::run_baseline;
use hre_sim::{
    run, AdversarialSched, Adversary, Algorithm, ProcessBehavior, RandomSched, RoundRobinSched,
    RunOptions, RunReport, Scheduler, SyncSched,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rec() -> RunOptions {
    RunOptions { record_trace: true, ..RunOptions::default() }
}

/// Random asymmetric rings, n ≤ 7 over an alphabet of at most 3 labels —
/// small enough that elections are instant, rich enough to exercise
/// homonyms (and hence the window-to-owned fallback paths).
fn arb_ring() -> impl Strategy<Value = RingLabeling> {
    (3usize..=7, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_a_inter_kk(n, n, 3, &mut rng)
    })
}

/// The adversarial schedulers are deterministic, so they too must drive
/// both engines identically.
fn arb_adversary() -> impl Strategy<Value = Adversary> {
    (0usize..9).prop_map(|i| match i {
        7 => Adversary::LowestFirst,
        8 => Adversary::HighestFirst,
        p => Adversary::Starve(p),
    })
}

/// Per-process received/sent streams, `Debug`-rendered so stream equality
/// is byte equality even for message types without `Eq`.
fn streams<M: std::fmt::Debug + Clone>(rep: &RunReport<M>) -> Vec<String> {
    let t = rep.trace.as_ref().expect("recorded run");
    (0..rep.metrics.n)
        .map(|p| format!("r{:?}s{:?}", t.received_stream(p), t.sent_stream(p)))
        .collect()
}

/// Asserts two recorded reports are observably identical, step for step.
fn assert_identical<A, B>(oracle: &RunReport<A>, fast: &RunReport<B>) -> Result<(), TestCaseError>
where
    A: std::fmt::Debug + Clone,
    B: std::fmt::Debug + Clone,
{
    prop_assert!(oracle.clean(), "oracle violations: {:?}", oracle.violations);
    prop_assert!(fast.clean(), "optimized violations: {:?}", fast.violations);
    prop_assert_eq!(oracle.leader, fast.leader);
    prop_assert_eq!(&oracle.metrics, &fast.metrics);
    prop_assert_eq!(streams(oracle), streams(fast));
    Ok(())
}

/// Runs `oracle` on the frozen baseline engine and `fast` on the
/// optimized one, each under a fresh scheduler from `sched`, and requires
/// identical reports.
fn frozen_vs_optimized<A, B, S>(
    oracle: &A,
    fast: &B,
    ring: &RingLabeling,
    sched: impl Fn() -> S,
) -> Result<(), TestCaseError>
where
    A: Algorithm,
    B: Algorithm,
    S: Scheduler,
    <A::Proc as ProcessBehavior>::Msg: std::fmt::Debug + Clone,
    <B::Proc as ProcessBehavior>::Msg: std::fmt::Debug + Clone,
{
    assert_identical(
        &run_baseline(oracle, ring, &mut sched(), rec()),
        &run(fast, ring, &mut sched(), rec()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimized engine + optimized `Ak` vs frozen baseline engine +
    /// paper-literal `AkReference`, seeded random scheduler: identical
    /// leader, metrics, and per-process message streams.
    #[test]
    fn ak_matches_oracle_under_random_scheduler(ring in arb_ring(), s in any::<u64>()) {
        let k = ring.max_multiplicity();
        let oracle = run_baseline(&AkReference::new(k), &ring, &mut RandomSched::new(s), rec());
        let fast = run(&Ak::new(k), &ring, &mut RandomSched::new(s), rec());
        assert_identical(&oracle, &fast)?;
    }

    /// Same comparison under the adversarial schedulers (starvation and
    /// index-biased orders) — the schedules that force `Ak`'s prefix
    /// window onto its materialize-to-owned fallback most often.
    #[test]
    fn ak_matches_oracle_under_adversarial_scheduler(
        ring in arb_ring(),
        adv in arb_adversary(),
    ) {
        let k = ring.max_multiplicity();
        let strategy = match adv {
            Adversary::Starve(p) => Adversary::Starve(p % ring.n()),
            other => other,
        };
        let oracle = run_baseline(
            &AkReference::new(k),
            &ring,
            &mut AdversarialSched { strategy },
            rec(),
        );
        let fast = run(&Ak::new(k), &ring, &mut AdversarialSched { strategy }, rec());
        assert_identical(&oracle, &fast)?;
    }

    /// `Bk` is byte-for-byte unchanged by the engine swap: frozen baseline
    /// engine vs pooled engine, same algorithm, same seeded scheduler.
    #[test]
    fn bk_traces_survive_the_engine_swap(ring in arb_ring(), s in any::<u64>()) {
        let k = ring.max_multiplicity().max(2);
        let old = run_baseline(&Bk::new(k), &ring, &mut RandomSched::new(s), rec());
        let new = run(&Bk::new(k), &ring, &mut RandomSched::new(s), rec());
        assert_identical(&old, &new)?;
    }

    /// Round-robin, the scheduler of every served election: `Ak` against
    /// the oracle, `Bk` and `OracleN` against themselves on the frozen
    /// engine.
    #[test]
    fn round_robin_matches_the_frozen_engine(ring in arb_ring()) {
        let k = ring.max_multiplicity();
        let rr = RoundRobinSched::default;
        frozen_vs_optimized(&AkReference::new(k), &Ak::new(k), &ring, rr)?;
        frozen_vs_optimized(&Bk::new(k.max(2)), &Bk::new(k.max(2)), &ring, rr)?;
        frozen_vs_optimized(&OracleN::new(ring.n()), &OracleN::new(ring.n()), &ring, rr)?;
    }

    /// The same under synchronous steps, where every enabled process
    /// fires in ascending order.
    #[test]
    fn sync_matches_the_frozen_engine(ring in arb_ring()) {
        let k = ring.max_multiplicity();
        let sync = || SyncSched;
        frozen_vs_optimized(&AkReference::new(k), &Ak::new(k), &ring, sync)?;
        frozen_vs_optimized(&Bk::new(k.max(2)), &Bk::new(k.max(2)), &ring, sync)?;
        frozen_vs_optimized(&OracleN::new(ring.n()), &OracleN::new(ring.n()), &ring, sync)?;
    }
}
