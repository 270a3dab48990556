//! The simulator's two run loops agree: a run nobody records takes the
//! network's fused loop, a run whose observer reads events steps through
//! `fire_with_record` one event at a time. Both must make the same
//! scheduling decisions and report the same outcome and counters.

use homonym_rings::algos::{by_name, content_oblivious::ContentOblivious, max_uid::MaxUid};
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

/// A random ring of `2 ≤ n ≤ 48` labels, no label more than three times.
fn arb_ring() -> impl Strategy<Value = RingLabeling> {
    (2usize..=48, 1usize..=3, any::<u64>()).prop_map(|(n, copies, seed)| {
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
    })
}

/// The schedulers under test, each built afresh per run.
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

/// Runs `algo` on `ring` through both loops under every scheduler, unless
/// the registry's engine `name` rejects the ring.
fn both_loops_agree<A: Algorithm>(
    name: &str,
    algo: &A,
    ring: &RingLabeling,
    seed: u64,
) -> Result<(), TestCaseError> {
    let engine = by_name(name).expect("registered engine");
    if engine.supports(ring).is_err() {
        return Ok(());
    }
    let victim = (seed % ring.n() as u64) as usize;
    let fused = schedulers(seed, victim);
    let recorded = schedulers(seed, victim);
    for (mut a, mut b) in fused.into_iter().zip(recorded) {
        let opts = RunOptions::default();
        let fast = run(algo, ring, &mut a, opts);
        let slow = run_with_observer(algo, ring, &mut b, opts, &mut ReadsEvents);
        let case = format!("{name} under {} on {:?}", fast.scheduler, ring.labels());
        prop_assert_eq!(fast.verdict, slow.verdict, "{}", case);
        prop_assert_eq!(fast.leader, slow.leader, "{}", case);
        prop_assert_eq!(&fast.violations, &slow.violations, "{}", case);
        prop_assert_eq!(&fast.metrics, &slow.metrics, "{}", case);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
