//! Property tests for the consistent-hash ring and the rotation-affinity
//! shard key — the two routing invariants the cluster's cache economics
//! rest on:
//!
//! 1. **Rotation affinity**: every rotation of a labeled ring routes to
//!    the same backend. Break this and the per-shard SIEVE caches stop
//!    deduplicating rotated requests, which is the whole point of
//!    sharding by canonical rotation.
//! 2. **Bounded remap**: adding or removing one of N backends moves at
//!    most ~1/N of the keyspace (asserted at ≤ 2.5/N over a 10k-key
//!    sample). Break this and every topology change is a cluster-wide
//!    cache flush.

use hre_cluster::{shard_key, HashRing};
use proptest::prelude::*;

/// Backend addresses shaped like the real ones.
fn backends(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.1.0.{}:9{:03}", i + 1, i)).collect()
}

/// A deterministic well-spread 10k-key sample.
fn key_sample() -> impl Iterator<Item = u64> {
    (0..10_000u64).map(|k| k.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0x61c88647))
}

/// Fraction of sampled keys whose owner differs between two rings.
/// `map_b` translates ring-B backend indices to ring-A's namespace (the
/// rings may list different backend sets).
fn remap_fraction(a: &HashRing, b: &HashRing, map_b: impl Fn(usize) -> usize) -> f64 {
    let mut moved = 0u64;
    for key in key_sample() {
        let owner_a = a.primary(key).unwrap();
        let owner_b = map_b(b.primary(key).unwrap());
        if owner_a != owner_b {
            moved += 1;
        }
    }
    moved as f64 / 10_000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All `n` rotations of an arbitrary label sequence share one shard
    /// key and therefore one primary backend, at any cluster size.
    #[test]
    fn all_rotations_route_to_one_backend(
        labels in proptest::collection::vec(0u64..6, 2..16),
        n_backends in 1usize..8,
        d in 0usize..16,
    ) {
        let ring = HashRing::new(&backends(n_backends), 64);
        let key = shard_key(&labels);
        let home = ring.primary(key).unwrap();
        let mut rotated = labels.clone();
        rotated.rotate_left(d % labels.len());
        prop_assert_eq!(shard_key(&rotated), key, "shard key must be rotation-invariant");
        prop_assert_eq!(ring.primary(shard_key(&rotated)).unwrap(), home);
        // And the whole failover preference order agrees, not just the
        // primary — a hedged rotation must not land on a foreign shard.
        prop_assert_eq!(ring.preference_order(key), ring.preference_order(shard_key(&rotated)));
    }

    /// Growing the cluster from N to N+1 backends remaps at most 2.5/(N+1)
    /// of a 10k-key sample (ideal: 1/(N+1)).
    #[test]
    fn adding_a_node_remaps_a_bounded_fraction(n in 2usize..9) {
        let small = HashRing::new(&backends(n), 96);
        let grown = HashRing::new(&backends(n + 1), 96);
        // Same names in the same order, so indices line up; keys moving
        // anywhere but the new node (index n) are gratuitous remaps and
        // count against the bound too.
        let moved = remap_fraction(&small, &grown, |i| i);
        let bound = 2.5 / (n + 1) as f64;
        prop_assert!(
            moved <= bound,
            "grow {}→{}: {:.4} of keys moved, bound {:.4}", n, n + 1, moved, bound
        );
        prop_assert!(moved > 0.0, "a new node must take some keys");
    }

    /// Removing one of N backends remaps at most 2.5/N of the sample
    /// (only the dead node's keys should move — ideal: 1/N).
    #[test]
    fn removing_a_node_remaps_a_bounded_fraction(n in 3usize..9, victim in 0usize..9) {
        let victim = victim % n;
        let full_names = backends(n);
        let mut rest_names = full_names.clone();
        rest_names.remove(victim);
        let full = HashRing::new(&full_names, 96);
        let rest = HashRing::new(&rest_names, 96);
        // Translate survivor indices back into the full ring's namespace.
        let moved = remap_fraction(&full, &rest, |i| if i >= victim { i + 1 } else { i });
        let bound = 2.5 / n as f64;
        prop_assert!(
            moved <= bound,
            "shrink {}→{} (victim {}): {:.4} moved, bound {:.4}", n, n - 1, victim, moved, bound
        );
    }

    /// Surviving keys keep their owner exactly: a key not owned by the
    /// removed backend must not move at all.
    #[test]
    fn keys_off_the_victim_never_move(n in 3usize..7) {
        let full_names = backends(n);
        let mut rest_names = full_names.clone();
        let victim = n - 1;
        rest_names.remove(victim);
        let full = HashRing::new(&full_names, 96);
        let rest = HashRing::new(&rest_names, 96);
        for key in key_sample().take(2_000) {
            let before = full.primary(key).unwrap();
            if before != victim {
                let after = rest.primary(key).unwrap();
                let after_full = if after >= victim { after + 1 } else { after };
                prop_assert_eq!(after_full, before, "key {} moved off a surviving node", key);
            }
        }
    }
}
