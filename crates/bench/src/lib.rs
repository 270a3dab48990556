//! # hre-bench — the reproduction's experiment harness
//!
//! One module (and one `exp_*` binary) per paper artifact, per the index in
//! `DESIGN.md`. Every experiment function returns the report it prints, so
//! `reproduce_all` can regenerate the complete `EXPERIMENTS.md` appendix in
//! one run, and unit tests can assert on report content.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_lower_bound` | Lemma 1, Corollaries 2/4 (`Ω(kn)`) |
//! | `exp_impossibility` | Theorem 1, Corollary 3 |
//! | `exp_ak_bounds` | Theorem 2 (Algorithm `Ak`, Table 1) |
//! | `exp_bk_bounds` | Theorems 3–4 (Algorithm `Bk`, Table 2) |
//! | `exp_figure1` | Figure 1 |
//! | `exp_state_diagram` | Figure 2 |
//! | `exp_tradeoff` | the abstract's time/space trade-off |
//! | `exp_baselines` | §I related-work comparison axis |
//! | `exp_ring122` | §I closing remark (ring `1,2,2`) |
//! | `exp_schedulers` | §II model: fairness / asynchrony robustness |
//! | `exp_runtime` | threaded substrate agreement (repro hint) |
//! | `exp_words` | Lemmas 5–6 (word combinatorics) |
//! | `reproduce_all` | everything above, in order |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;

use hre_core::{Ak, Bk};
use hre_ring::RingLabeling;
use hre_sim::{run, RoundRobinSched, RunMetrics, RunOptions};

/// Applies `f` to every item on a small pool of scoped OS threads and
/// returns the results in input order; panics propagate. A thin wrapper
/// over [`hre_sim::sweep_map`], which work-steals from a shared cursor
/// instead of pre-chunking, so one slow item no longer idles a whole
/// chunk's worth of workers.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads >= 1);
    hre_sim::sweep_map(&items, threads, |_, item| f(item))
}

/// Runs `Ak(k)` on `ring` (round-robin), asserting cleanliness; returns the
/// metrics. Shared by experiments and criterion benches.
pub fn measure_ak(ring: &RingLabeling, k: usize) -> RunMetrics {
    let rep = run(&Ak::new(k), ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(rep.clean(), "Ak(k={k}) on {ring:?}: {:?}", rep.violations);
    rep.metrics
}

/// Runs `Bk(k)` on `ring` (round-robin), asserting cleanliness; returns the
/// metrics.
pub fn measure_bk(ring: &RingLabeling, k: usize) -> RunMetrics {
    let rep = run(&Bk::new(k), ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(rep.clean(), "Bk(k={k}) on {ring:?}: {:?}", rep.violations);
    rep.metrics
}

#[cfg(test)]
mod tests {
    use super::parallel_map;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..103).collect();
        let out = parallel_map(items.clone(), 7, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_map_handles_empty_and_single_thread() {
        assert_eq!(parallel_map(Vec::<u8>::new(), 4, |&x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |&x| x + 1), vec![2, 3, 4]);
    }
}
