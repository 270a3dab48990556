//! The simulator's run loops agree: a run nobody records takes one of the
//! network's own loops (the round-robin sweep under round-robin, the
//! exact-set loop under every other scheduler), a run whose observer reads
//! events steps through `fire_with_record` one event at a time. They must
//! make the same scheduling decisions and report the same outcome and
//! counters.

use homonym_rings::algos::{content_oblivious::ContentOblivious, max_uid::MaxUid};
use homonym_rings::prelude::*;
use homonym_rings::sim::{
    run_with_observer, ActionEvent, Algorithm, Network, Observer, ProcessBehavior, Scheduler,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An observer that asks for every event, which sends the run down the
/// recorded path.
struct ReadsEvents;

impl<P: ProcessBehavior> Observer<P> for ReadsEvents {
    fn after_event(&mut self, _net: &Network<P>, _event: &ActionEvent<P::Msg>) {}
}

/// A random ring of `2 ≤ n ≤ 200` labels, no label more than three times:
/// half of them past 48, so that candidate sets span up to four bitset
/// words and the round-robin cursor wraps across word boundaries.
fn arb_ring() -> impl Strategy<Value = RingLabeling> {
    (any::<bool>(), 2usize..=48, 49usize..=200, 1usize..=3, any::<u64>()).prop_map(
        |(large, small_n, large_n, copies, seed)| {
            let n = if large { large_n } else { small_n };
            let mut rng = StdRng::seed_from_u64(seed);
            // Alphabets from just large enough (every label at its cap) to
            // sparse.
            let alphabet = rng.gen_range(n.div_ceil(copies)..=n + 4) as u64;
            let mut pool: Vec<u64> =
                (1..=alphabet).flat_map(|l| std::iter::repeat_n(l, copies)).collect();
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.gen_range(0..=i));
            }
            pool.truncate(n);
            RingLabeling::from_raw(&pool)
        },
    )
}

/// The schedulers under test, each built afresh per run and boxed the way
/// `hre elect --sched` boxes its scheduler (so round-robin here reaches
/// the sweep through the `Box` forwarding).
fn schedulers(seed: u64, victim: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobinSched::default()),
        Box::new(RandomSched::new(seed)),
        Box::new(SyncSched),
        Box::new(AdversarialSched { strategy: Adversary::Starve(victim) }),
        Box::new(AdversarialSched { strategy: Adversary::LowestFirst }),
        Box::new(AdversarialSched { strategy: Adversary::HighestFirst }),
    ]
}

/// One run through a loop of the network's own and one through the
/// recorded path report the same.
fn same_report<M>(
    fast: &RunReport<M>,
    slow: &RunReport<M>,
    case: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.verdict, slow.verdict, "{}", case);
    prop_assert_eq!(fast.leader, slow.leader, "{}", case);
    prop_assert_eq!(&fast.violations, &slow.violations, "{}", case);
    prop_assert_eq!(&fast.metrics, &slow.metrics, "{}", case);
    Ok(())
}

/// Runs `algo` on `ring` through both loops under every scheduler, and
/// under an unboxed round-robin scheduler, unless the registry's engine
/// `name` rejects the ring.
fn both_loops_agree<A: Algorithm>(
    name: &str,
    algo: &A,
    ring: &RingLabeling,
    seed: u64,
) -> Result<(), TestCaseError> {
    let engine = AlgoId::parse(name).expect("registered engine").engine();
    if engine.supports(ring).is_err() {
        return Ok(());
    }
    let victim = (seed % ring.n() as u64) as usize;
    let fused = schedulers(seed, victim);
    let recorded = schedulers(seed, victim);
    let opts = RunOptions::default();
    for (mut a, mut b) in fused.into_iter().zip(recorded) {
        let fast = run(algo, ring, &mut a, opts);
        let slow = run_with_observer(algo, ring, &mut b, opts, &mut ReadsEvents);
        let case = format!("{name} under boxed {} on {:?}", fast.scheduler, ring.labels());
        same_report(&fast, &slow, &case)?;
    }
    let fast = run(algo, ring, &mut RoundRobinSched::default(), opts);
    let slow =
        run_with_observer(algo, ring, &mut RoundRobinSched::default(), opts, &mut ReadsEvents);
    same_report(&fast, &slow, &format!("{name} under round-robin on {:?}", ring.labels()))
}

proptest! {
    // Optimised builds (CI runs this test in release too) afford six
    // times the cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 96 }))]

    /// Every engine the registry serves but `ak-ref` (whose runs cost the
    /// fourth power of `(2k+1)·n`).
    #[test]
    fn fused_loop_matches_the_recorded_path(ring in arb_ring(), seed in any::<u64>()) {
        let k = ring.max_multiplicity();
        both_loops_agree("ak", &Ak::new(k), &ring, seed)?;
        both_loops_agree("bk", &Bk::new(k.max(2)), &ring, seed)?;
        both_loops_agree("cr", &ChangRoberts, &ring, seed)?;
        both_loops_agree("peterson", &Peterson, &ring, seed)?;
        both_loops_agree("oracle-n", &OracleN::new(ring.n()), &ring, seed)?;
        both_loops_agree("max-uid", &MaxUid, &ring, seed)?;
        both_loops_agree("content-oblivious", &ContentOblivious, &ring, seed)?;
    }
}
