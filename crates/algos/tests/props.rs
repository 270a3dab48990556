//! Property tests for the engine zoo: rotation equivariance of every
//! registered engine, and trace-level agreement between `ak` served
//! through the trait and the frozen pre-refactor driver loop.

use hre_algos::{engines, AlgoId};
use hre_core::Ak;
use hre_ring::{enumerate, generate, RingLabeling};
use hre_sim::{baseline::run_baseline, RoundRobinSched, RunOptions, SyncSched};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_homonym_labels() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..7, 2..9)
}

fn arb_k1_labels() -> impl Strategy<Value = Vec<u64>> {
    (3usize..9, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_k1(n, &mut rng).labels().iter().map(|l| l.raw()).collect()
    })
}

/// Rotating the labeling must rotate the winner with it: process `j` of
/// the base ring plays process `(j + n - d) % n` of the rotated ring,
/// for *every* engine on every ring it supports. The synchronous
/// scheduler fires all enabled processes each step, so the rotated run
/// is the base run under an index relabeling — any leader mismatch is
/// an engine reading indices where it may only read labels.
fn assert_rotation_equivariant(labels: &[u64], d: usize) -> Result<(), TestCaseError> {
    let n = labels.len();
    let d = d % n;
    let base = RingLabeling::from_raw(labels);
    let mut rotated_labels = labels.to_vec();
    rotated_labels.rotate_left(d);
    let rotated = RingLabeling::from_raw(&rotated_labels);
    let k = base.max_multiplicity();
    for engine in engines() {
        if engine.supports(&base).is_err() {
            continue;
        }
        prop_assert!(
            engine.supports(&rotated).is_ok(),
            "{}: support must be rotation-invariant on {labels:?} d={d}",
            engine.name()
        );
        let a = engine.run(&base, k, &mut SyncSched, false);
        let b = engine.run(&rotated, k, &mut SyncSched, false);
        prop_assert!(a.accepted && b.accepted, "{} on {labels:?}: {:?}", engine.name(), a.verdict);
        let (la, lb) = (a.leader, b.leader);
        prop_assert_eq!(
            lb.map(|l| (l + d) % n),
            la,
            "{} on {:?} rotated by {}: {:?} vs {:?}",
            engine.name(),
            labels,
            d,
            la,
            lb
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine is rotation-equivariant on homonym rings it
    /// supports (the paper's family, plus oracle-n).
    #[test]
    fn engines_are_rotation_equivariant_on_homonym_rings(
        labels in arb_homonym_labels(),
        d in 0usize..8,
    ) {
        assert_rotation_equivariant(&labels, d)?;
    }

    /// Every engine is rotation-equivariant on fully identified rings
    /// (where the whole zoo, max-label family included, runs).
    #[test]
    fn engines_are_rotation_equivariant_on_k1_rings(
        labels in arb_k1_labels(),
        d in 0usize..8,
    ) {
        assert_rotation_equivariant(&labels, d)?;
    }
}

/// The trait adapter must be a *transparent* wrapper around `Ak`: on
/// the full 342-ring asymmetric catalog, `ak` run through the registry
/// produces the same leader, the same metrics, and byte-identical
/// per-process received streams (its recorded trace, `Debug`-rendered)
/// as the frozen pre-refactor run loop (`hre_sim::baseline`) driving
/// `Ak` directly.
#[test]
fn ak_via_trait_matches_frozen_baseline_traces() {
    let ak = AlgoId::Ak.engine();
    let mut rings = 0usize;
    for n in 2..=5 {
        for ring in enumerate::asymmetric_labelings(n, 3) {
            let k = ring.max_multiplicity();
            let via_trait = ak.run(&ring, k, &mut RoundRobinSched::default(), true);
            let frozen = run_baseline(
                &Ak::new(ak.effective_k(k)),
                &ring,
                &mut RoundRobinSched::default(),
                RunOptions { record_trace: true, ..Default::default() },
            );
            assert!(via_trait.accepted && frozen.clean(), "ring {:?}", ring.labels());
            assert_eq!(via_trait.leader, frozen.leader, "ring {:?}", ring.labels());
            assert_eq!(
                via_trait.metrics.messages,
                frozen.metrics.messages,
                "ring {:?}",
                ring.labels()
            );
            let frozen_trace = frozen.trace.expect("trace recorded");
            let trace = via_trait.trace.expect("trace recorded");
            for pid in 0..ring.n() {
                let frozen_stream: Vec<String> =
                    frozen_trace.received_stream(pid).iter().map(|m| format!("{m:?}")).collect();
                assert_eq!(
                    trace.received_stream(pid),
                    frozen_stream,
                    "ring {:?} pid {pid}",
                    ring.labels()
                );
            }
            rings += 1;
        }
    }
    assert_eq!(rings, 342, "the catalog is exhaustive");
}
