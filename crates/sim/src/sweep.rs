//! Parallel sweep runner: fan a ring catalog (or any work list) across OS
//! threads with **deterministic, enumeration-order results**.
//!
//! The experiments enumerate hundreds of rings (E03/E04/E10/E17) and run
//! each independently — embarrassingly parallel, but the reports must not
//! depend on thread count or finish order. The contract here:
//!
//! * **work stealing** — workers claim items from a shared atomic cursor,
//!   so an expensive item (a big ring) doesn't leave a statically-assigned
//!   worker idle;
//! * **order restoration** — results are returned in input order, whatever
//!   order they completed in;
//! * **per-item determinism** — anything random is derived from
//!   [`item_seed`]`(base, index)`, a pure function of the caller's base
//!   seed and the item's *position*, never of the worker thread. Hence
//!   `threads = 1` and `threads = 64` produce byte-identical results,
//!   which E22 asserts.
//!
//! Results travel back over a vendored crossbeam channel; threads are
//! scoped (`std::thread::scope`), so borrowing the items is safe and panics
//! propagate to the caller.

use crate::process::{Algorithm, ProcessBehavior};
use crate::run::{run, RunOptions, RunReport};
use crate::sched::{RandomSched, RoundRobinSched};
use hre_ring::RingLabeling;
use std::sync::atomic::{AtomicUsize, Ordering};

/// SplitMix64 of `base` and the item index: a statistically-independent
/// per-item seed that depends only on the enumeration position, so a
/// seeded sweep is reproducible at any thread count.
pub fn item_seed(base: u64, idx: usize) -> u64 {
    let mut z = base.wrapping_add((idx as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f(index, item)` to every item on `threads` work-stealing scoped
/// threads and returns the results **in input order**. `threads <= 1` (or a
/// single item) runs inline on the caller's thread.
pub fn sweep_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let r = f(idx, &items[idx]);
                if tx.send((idx, r)).is_err() {
                    break;
                }
            });
        }
    });
    // All workers have joined: exactly `items.len()` results are buffered.
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for _ in 0..items.len() {
        let (idx, r) = rx.recv().expect("every scoped worker sent its results");
        debug_assert!(out[idx].is_none(), "one result per item");
        out[idx] = Some(r);
    }
    out.into_iter().map(|o| o.expect("every item produced a result")).collect()
}

/// Sweeps `algo` over a ring catalog under the (deterministic) round-robin
/// scheduler, one run per ring, in parallel; reports come back in catalog
/// order.
pub fn sweep_runs<A>(
    algo: &A,
    rings: &[RingLabeling],
    threads: usize,
    opts: RunOptions,
) -> Vec<RunReport<<A::Proc as ProcessBehavior>::Msg>>
where
    A: Algorithm + Sync,
    <A::Proc as ProcessBehavior>::Msg: Send,
{
    sweep_map(rings, threads, |_, ring| run(algo, ring, &mut RoundRobinSched::default(), opts))
}

/// Sweeps `algo` over a ring catalog under per-item seeded random
/// schedulers: ring `i` always runs under `RandomSched::new(item_seed(base,
/// i))`, so the whole sweep is reproducible and thread-count-invariant.
pub fn sweep_runs_seeded<A>(
    algo: &A,
    rings: &[RingLabeling],
    threads: usize,
    opts: RunOptions,
    base_seed: u64,
) -> Vec<RunReport<<A::Proc as ProcessBehavior>::Msg>>
where
    A: Algorithm + Sync,
    <A::Proc as ProcessBehavior>::Msg: Send,
{
    sweep_map(rings, threads, |idx, ring| {
        run(algo, ring, &mut RandomSched::new(item_seed(base_seed, idx)), opts)
    })
}

/// Explores every ring of a catalog exhaustively (see [`crate::explore()`])
/// in parallel, reports in catalog order.
pub fn explore_many<A>(
    algo: &A,
    rings: &[RingLabeling],
    threads: usize,
    max_configurations: u64,
) -> Vec<crate::explore::ExploreReport>
where
    A: Algorithm + Sync,
    A::Proc: crate::explore::StateKey + Clone,
    <A::Proc as ProcessBehavior>::Msg: std::fmt::Debug,
{
    sweep_map(rings, threads, |_, ring| crate::explore::explore(algo, ring, max_configurations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 7] {
            let out = sweep_map(&items, threads, |idx, &x| {
                assert_eq!(idx as u64, x);
                x * x
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(sweep_map(&[] as &[u8], 4, |_, &x| x), Vec::<u8>::new());
        assert_eq!(sweep_map(&[9u8], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn item_seed_is_positional_and_spread() {
        // same (base, idx) → same seed; different idx → different seeds
        assert_eq!(item_seed(42, 3), item_seed(42, 3));
        let seeds: Vec<u64> = (0..100).map(|i| item_seed(42, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "positional seeds must not collide");
    }

    #[test]
    fn seeded_sweeps_are_thread_count_invariant() {
        use hre_words::Label;
        // A tiny catalog of asymmetric rings; the seeded random scheduler
        // must produce identical reports at every thread count.
        let rings: Vec<RingLabeling> = vec![
            RingLabeling::from_raw(&[1, 2, 2]),
            RingLabeling::from_raw(&[3, 1, 4, 1, 5]),
            RingLabeling::from_raw(&[2, 9, 4]),
            RingLabeling::from_raw(&[1, 3, 1, 3, 2, 2, 1, 2]),
        ];
        // Toy election stand-in: forward max label n-1 times (same as the
        // engine's test double, minus the wrapper noise).
        struct Max {
            n: usize,
        }
        struct MaxProc {
            id: Label,
            best: Label,
            seen: usize,
            n: usize,
            st: crate::process::ElectionState,
        }
        impl Algorithm for Max {
            type Proc = MaxProc;
            fn name(&self) -> String {
                "Max".into()
            }
            fn spawn(&self, label: Label) -> MaxProc {
                MaxProc {
                    id: label,
                    best: label,
                    seen: 0,
                    n: self.n,
                    st: crate::process::ElectionState::INITIAL,
                }
            }
        }
        impl ProcessBehavior for MaxProc {
            type Msg = Label;
            fn on_start(&mut self, out: &mut crate::process::Outbox<Label>) {
                out.send(self.id);
            }
            fn on_msg(
                &mut self,
                msg: &Label,
                out: &mut crate::process::Outbox<Label>,
            ) -> crate::process::Reaction {
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
                crate::process::Reaction::Consumed
            }
            fn election(&self) -> crate::process::ElectionState {
                self.st
            }
            fn space_bits(&self, b: u32) -> u64 {
                2 * b as u64
            }
        }
        // Run each ring with the algorithm sized to it, via sweep_map so
        // the catalog is heterogeneous.
        let sweep = |threads: usize| -> Vec<(Option<usize>, u64, u64)> {
            sweep_map(&rings, threads, |idx, ring| {
                let rep = run(
                    &Max { n: ring.n() },
                    ring,
                    &mut RandomSched::new(item_seed(77, idx)),
                    RunOptions::default(),
                );
                (rep.leader, rep.metrics.messages, rep.metrics.steps)
            })
        };
        let one = sweep(1);
        for threads in [2, 4] {
            assert_eq!(sweep(threads), one, "threads={threads}");
        }
    }
}
