//! Process-wide memoized election oracle and the shared request pool.
//!
//! A 100k-instance sweep re-elects the same few rings millions of
//! times; running the real protocol once per *distinct canonical ring*
//! and memoizing makes the whole-stack simulation throughput-bound on
//! the event loop, not on `Ak`. The memo is keyed by the same
//! [`CacheKey`] the serving path's result cache uses, so the oracle and
//! the cache agree by construction on what "the same election" means.

use hre_ring::RingLabeling;
use hre_svc::cache::CachedResult;
use hre_svc::{run_election, AlgoId, CacheKey, ElectRequest};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::scenario::Rng;

fn memo() -> &'static Mutex<HashMap<CacheKey, CachedResult>> {
    static MEMO: OnceLock<Mutex<HashMap<CacheKey, CachedResult>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The engine the simulated backends' workers run: [`run_election`] on
/// a request already in canonical coordinates, memoized.
pub fn elect(canon: &ElectRequest) -> CachedResult {
    let key = CacheKey { canon: canon.labels.clone(), algo: canon.algo, k: canon.k };
    let mut memo = memo().lock().unwrap();
    memo.entry(key).or_insert_with(|| run_election(canon)).clone()
}

/// Runs (or recalls) the election for `req`, returning the outcome in
/// **canonical** coordinates plus the rotation distance `d` back to the
/// request's own frame (`ElectOutcome::into_coords(d, n)` restores it).
pub fn elect_canonical(req: &ElectRequest) -> (CachedResult, usize) {
    let (canon, d) = req.canonicalized();
    (elect(&canon), d)
}

/// The shared pool of asymmetric client rings every world draws from.
/// Fixed and process-wide so sweep instances hit the same memo entries.
pub fn ring_pool() -> &'static Vec<Vec<u64>> {
    static POOL: OnceLock<Vec<Vec<u64>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut rng = Rng(0x5EED0_F0DD5);
        let mut pool = Vec::new();
        while pool.len() < 32 {
            let n = 3 + (rng.next_u64() % 5) as usize;
            let labels: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % 6).collect();
            // Only asymmetric rings elect; symmetric draws are rare and
            // simply skipped.
            if RingLabeling::from_raw(&labels).true_leader().is_some() {
                pool.push(labels);
            }
        }
        pool
    })
}

/// Draws one client request from the pool: a pooled ring under a seeded
/// rotation, mostly `Ak` with occasional other algorithms for cache
/// diversity. `k` defaults exactly as the serving path does.
pub fn draw_request(rng: &mut Rng) -> ElectRequest {
    let pool = ring_pool();
    let mut labels = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
    let r = (rng.next_u64() as usize) % labels.len();
    labels.rotate_left(r);
    let algo = if rng.chance(80) {
        AlgoId::Ak
    } else if rng.chance(50) {
        AlgoId::Bk
    } else {
        AlgoId::OracleN
    };
    ElectRequest::new(labels, algo, None).expect("pool rings are valid requests")
}

/// Draws one client request exercising the *whole* algorithm registry:
/// the same pooled rings, but `algo` uniform over every [`AlgoId`].
/// Engines whose assumptions the homonym pool violates (distinct
/// labels, unique max) yield deterministic 422s — the point of the
/// `algo-mix` scenario is that the stack routes, caches, and reports
/// those exactly like successes, with no breaker or retry fallout.
pub fn draw_request_diverse(rng: &mut Rng) -> ElectRequest {
    let pool = ring_pool();
    let mut labels = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
    let r = (rng.next_u64() as usize) % labels.len();
    labels.rotate_left(r);
    let algo = AlgoId::ALL[(rng.next_u64() % AlgoId::ALL.len() as u64) as usize];
    ElectRequest::new(labels, algo, None).expect("pool rings are valid requests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_is_asymmetric_and_stable() {
        let pool = ring_pool();
        assert_eq!(pool.len(), 32);
        for labels in pool {
            assert!(RingLabeling::from_raw(labels).true_leader().is_some());
        }
        assert_eq!(pool, ring_pool(), "same instance every call");
    }

    #[test]
    fn diverse_draws_cover_the_registry_and_stay_valid() {
        let mut rng = Rng(4);
        let mut seen = [false; AlgoId::ALL.len()];
        let mut ok_answers = 0usize;
        for _ in 0..200 {
            let req = draw_request_diverse(&mut rng);
            seen[req.algo.index()] = true;
            // Every draw must be servable: a well-formed 200 whose
            // leader satisfies the engine's winner rule, or a
            // deterministic 422 (assumption mismatch on a homonym
            // ring) — never a panic or a hung election.
            let (result, d) = elect_canonical(&req);
            if let Ok(out) = result {
                ok_answers += 1;
                let out = out.into_coords(d, req.labels.len());
                let ring = RingLabeling::from_raw(&req.labels);
                if let Some(expected) = req.algo.engine().oracle_leader(&ring) {
                    assert_eq!(out.leader, expected, "{:?} on {:?}", req.algo, req.labels);
                }
            }
        }
        assert!(seen.iter().all(|s| *s), "200 draws should hit every algorithm: {seen:?}");
        assert!(ok_answers > 0, "some draws must actually elect");
    }

    #[test]
    fn memoized_elections_match_direct_runs() {
        let mut rng = Rng(9);
        for _ in 0..20 {
            let req = draw_request(&mut rng);
            let (memoized, d) = elect_canonical(&req);
            let direct = run_election(&req);
            match (memoized, direct) {
                (Ok(m), Ok(direct)) => {
                    assert_eq!(m.into_coords(d, req.labels.len()), direct);
                }
                (m, direct) => assert_eq!(m.is_err(), direct.is_err()),
            }
        }
    }
}
