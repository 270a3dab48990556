//! Property test of the result cache's eviction policy against a naive
//! reference SIEVE (Zhang et al., NSDI '24): the entries in a `Vec` in
//! insertion order, found by linear search, and a hand that names the
//! entry the next eviction starts from, as the paper's pointer does.
//! Random sequences of lookups, peeks and inserts over a small key space
//! run against one shard of capacity 1–8; after every operation the
//! answer, the counters and the resident set must equal the model's.

use hre_svc::{AlgoId, CacheKey, ShardedLru};
use proptest::prelude::*;

/// Keys of the test's key space: distinct canonical rings.
const KEYS: u64 = 12;

fn key(id: u64) -> CacheKey {
    CacheKey::new(&[0, id + 1, id + 1], AlgoId::Ak, 2)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u64),
    Peek(u64),
    Insert(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..3, 0..KEYS).prop_map(|(kind, id)| match kind {
        0 => Op::Lookup(id),
        1 => Op::Peek(id),
        _ => Op::Insert(id),
    })
}

/// The reference: `(key, visited)` oldest first, and the key the hand
/// rests on (`None`: the oldest).
struct Model {
    cap: usize,
    entries: Vec<(u64, bool)>,
    hand: Option<u64>,
    evictions: u64,
}

impl Model {
    /// A hit marks the entry visited.
    fn access(&mut self, id: u64) -> bool {
        let found = self.entries.iter_mut().find(|(k, _)| *k == id);
        found.map(|(_, visited)| *visited = true).is_some()
    }

    /// A resident key keeps its entry as it is.
    fn insert(&mut self, id: u64) {
        if self.entries.iter().any(|(k, _)| *k == id) {
            return;
        }
        if self.entries.len() == self.cap {
            let mut i = self.hand.map_or(0, |h| {
                self.entries.iter().position(|(k, _)| *k == h).expect("the hand is resident")
            });
            while self.entries[i].1 {
                self.entries[i].1 = false;
                i = (i + 1) % self.entries.len();
            }
            // The hand moves to the next newer entry; past the newest it
            // starts again from the oldest.
            self.hand = self.entries.get(i + 1).map(|(k, _)| *k);
            self.entries.remove(i);
            self.evictions += 1;
        }
        self.entries.push((id, false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_shard_evicts_as_reference_sieve(
        cap in 1usize..=8,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let cache = ShardedLru::new(cap, 1);
        let mut model = Model { cap, entries: Vec::new(), hand: None, evictions: 0 };
        let (mut hits, mut misses, mut inserts) = (0u64, 0u64, 0u64);
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Lookup(id) => {
                    let k = key(id);
                    let found = cache.lookup(&k.canon, k.algo, k.k);
                    prop_assert_eq!(found.is_some(), model.access(id), "step {} {:?}", step, op);
                    match found {
                        Some(value) => {
                            prop_assert_eq!(&*value, &Err(format!("ring {id}")));
                            hits += 1;
                        }
                        None => misses += 1,
                    }
                }
                Op::Peek(id) => {
                    prop_assert_eq!(cache.peek(&key(id)).is_some(), model.access(id), "step {}", step);
                }
                Op::Insert(id) => {
                    if !model.entries.iter().any(|(k, _)| *k == id) {
                        inserts += 1;
                    }
                    cache.insert(key(id), Err(format!("ring {id}")));
                    model.insert(id);
                }
            }
            let snap = cache.snapshot();
            prop_assert_eq!(
                (snap.hits, snap.misses, snap.inserts, snap.evictions),
                (hits, misses, inserts, model.evictions),
                "step {} {:?}", step, op
            );
            let resident: Vec<u64> = (0..KEYS).filter(|&id| cache.contains(&key(id))).collect();
            let mut expected: Vec<u64> = model.entries.iter().map(|(k, _)| *k).collect();
            expected.sort_unstable();
            prop_assert_eq!(resident, expected, "step {} {:?}", step, op);
            prop_assert_eq!(snap.len, model.entries.len());
        }
    }
}
