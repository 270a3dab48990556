//! The three workloads: what each sends, at which rates, and what every
//! answer must be. A stream is a pure function of the seed; expected
//! answers are computed here, before any timing starts.

use crate::rng::{mix, Rng, Zipf};
use hre_ring::RingLabeling;
use hre_svc::{AlgoId, ElectRequest};
use std::collections::HashSet;
use std::time::Duration;

/// Entries per `POST /elect/batch` in `routed-batch`.
pub const BATCH: usize = 16;
/// Rings in the `hot-rotations` catalog.
pub const HOT_CATALOG: usize = 64;
/// (ring, algo) keys behind `routed-batch`.
pub const ROUTED_KEYS: usize = 8192;
/// One request in `SAMPLE` (by table entry) is also checked byte for byte.
pub const SAMPLE: u64 = 64;
/// Seed of the `hot-rotations` catalog and the `routed-batch` keys. They
/// are the same for every run, so a run's seed moves only its draws
/// (which ring, which rotation) and not the mix of ring sizes and key
/// placements, which would otherwise shift cost and hit ratio from one
/// seed to the next.
const CATALOG_SEED: u64 = 0x5EED_CA7A_1065;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRotations,
    ColdDistinct,
    RoutedBatch,
}

/// Fixed per-workload constants. The open-loop rates are about 15%
/// (light) and 30% (heavy) of the closed-loop `throughput_eps` measured
/// when the benchmark was written (2-vCPU x86-64 VM, daemons on one vCPU:
/// hot-rotations ≈ 37k, cold-distinct ≈ 1.4k, routed-batch ≈ 9.6k
/// elections/s). The heavy rate stays well below capacity because that VM
/// loses up to 40% of its speed to other tenants for minutes at a time,
/// and a schedule above capacity makes latency a measure of how long the
/// backlog grew. The rates are never re-derived at run time, so a faster
/// commit faces the same offered load.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Served through `hre cluster-route` in front of three backends.
    pub routed: bool,
    /// Elections per HTTP exchange.
    pub per_exchange: usize,
    /// Open-loop rates, in exchanges per second.
    pub light_rate: f64,
    pub heavy_rate: f64,
    /// Latency limit of `slo_share`.
    pub limit: Duration,
    pub pool: Pool,
    /// Exchanges replayed in the traced run.
    pub replay: usize,
}

/// How many exchanges a stream holds, and how they are used up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pool {
    /// This many independent draws, sent round and round: reusing one
    /// changes nothing, so no phase can run out.
    Cyclic(usize),
    /// Every exchange distinct and sent at most once. Each closed-loop
    /// phase gets its own slice, enough for this many exchanges per
    /// second (several times the rate measured when the benchmark was
    /// written); a phase that uses its slice up ends early, and its rate
    /// stays the rate it ran at. Each open-loop phase gets exactly what its
    /// schedule sends.
    Distinct { closed_rate: f64 },
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::HotRotations, Workload::ColdDistinct, Workload::RoutedBatch];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::HotRotations => Spec {
                name: "hot-rotations",
                routed: false,
                per_exchange: 1,
                light_rate: 5_500.0,
                heavy_rate: 11_000.0,
                limit: Duration::from_millis(1),
                pool: Pool::Cyclic(1 << 17),
                replay: 20_000,
            },
            Workload::ColdDistinct => Spec {
                name: "cold-distinct",
                routed: false,
                per_exchange: 1,
                light_rate: 210.0,
                heavy_rate: 420.0,
                limit: Duration::from_millis(20),
                pool: Pool::Distinct { closed_rate: 6_000.0 },
                replay: 600,
            },
            Workload::RoutedBatch => Spec {
                name: "routed-batch",
                routed: true,
                per_exchange: BATCH,
                light_rate: 90.0,
                heavy_rate: 180.0,
                limit: Duration::from_millis(50),
                pool: Pool::Cyclic(8_192),
                replay: 600,
            },
        }
    }

    /// The request stream of `len` exchanges (plus the warm-up set) for
    /// `seed`.
    pub fn stream(self, seed: u64, len: usize) -> Stream {
        let rng = Rng::new(seed).fork(self as u64);
        let mut stream = match self {
            Workload::HotRotations => hot_stream(rng, seed, len),
            Workload::ColdDistinct => cold_stream(rng, seed, len),
            Workload::RoutedBatch => routed_stream(rng, seed, len),
        };
        stream.cyclic = matches!(self.spec().pool, Pool::Cyclic(_));
        stream
    }
}

/// One HTTP exchange and what its answer must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exchange {
    /// The complete request bytes, head and body.
    pub wire: Vec<u8>,
    /// The true leader of every election in the request, in order.
    pub leaders: Vec<u16>,
    /// For sampled exchanges, the exact response body: the in-process
    /// `response_json(run_election(..))` of each entry, in the request's
    /// own coordinates.
    pub exact: Option<Vec<u8>>,
}

impl Exchange {
    /// The request body: the bytes after the head.
    pub fn body(&self) -> &[u8] {
        let head = self.wire.windows(4).position(|w| w == b"\r\n\r\n").expect("request has a head");
        &self.wire[head + 4..]
    }
}

/// A seeded request stream.
#[derive(Debug, PartialEq, Eq)]
pub struct Stream {
    /// Sent once during set-up, before any timing.
    pub warmup: Vec<Exchange>,
    table: Vec<Exchange>,
    /// Exchange `i` of the stream is `table[order[i]]`; `None` means the
    /// identity.
    order: Option<Vec<u32>>,
    /// Exchange `len() + i` is exchange `i` again.
    cyclic: bool,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.order.as_ref().map_or(self.table.len(), Vec::len)
    }

    /// Exchange `i`; `None` past the end of a stream that is not cyclic.
    pub fn get(&self, i: usize) -> Option<&Exchange> {
        let i = if self.cyclic { i % self.len() } else { i };
        match &self.order {
            Some(order) => order.get(i).map(|&t| &self.table[t as usize]),
            None => self.table.get(i),
        }
    }
}

/// A ring of `n` labels in which no label occurs more than `k` times,
/// asymmetric (so it has a true leader).
fn asymmetric_ring(rng: &mut Rng, n: usize, k: usize) -> Vec<u64> {
    loop {
        let mut pool: Vec<u64> = (1..=n as u64).flat_map(|l| std::iter::repeat_n(l, k)).collect();
        rng.shuffle(&mut pool);
        pool.truncate(n);
        if RingLabeling::from_raw(&pool).is_asymmetric() {
            return pool;
        }
    }
}

fn true_leader(labels: &[u64]) -> usize {
    RingLabeling::from_raw(labels).true_leader().expect("generated rings are asymmetric")
}

/// The leader of `rotate_left(ring, d)` given the leader of `ring`.
fn rotated_leader(leader: usize, d: usize, n: usize) -> usize {
    (leader + n - d) % n
}

pub fn wire(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn request_doc(req: &ElectRequest) -> String {
    req.to_json().to_string()
}

/// What the daemon must answer for `req`, computed in-process in the
/// request's own coordinates.
fn exact_doc(req: &ElectRequest) -> String {
    let out = hre_svc::run_election(req).expect("generated rings elect a leader");
    hre_svc::response_json(req, &out)
}

fn sampled(seed: u64, table_index: usize) -> bool {
    mix(seed ^ 0x5A4D_504C_4531, table_index as u64).is_multiple_of(SAMPLE)
}

fn single(req: &ElectRequest, leader: usize, exact: bool) -> Exchange {
    Exchange {
        wire: wire("/elect", request_doc(req).as_bytes()),
        leaders: vec![leader as u16],
        exact: exact.then(|| exact_doc(req).into_bytes()),
    }
}

/// The `hot-rotations` catalog: 64 distinct asymmetric rings, n 8–32,
/// k ≤ 3, `ak` or `bk` per ring.
pub fn hot_catalog() -> Vec<ElectRequest> {
    let mut rng = Rng::new(CATALOG_SEED).fork(Workload::HotRotations as u64);
    let mut seen = HashSet::new();
    let mut catalog = Vec::with_capacity(HOT_CATALOG);
    while catalog.len() < HOT_CATALOG {
        let n = rng.range(8, 32);
        let (algo, k) = if rng.below(2) == 0 {
            (AlgoId::Ak, rng.range(1, 3))
        } else {
            (AlgoId::Bk, rng.range(2, 3))
        };
        let labels = asymmetric_ring(&mut rng, n, k);
        if seen.insert(hre_words::canonical_rotation(&labels)) {
            catalog.push(ElectRequest::new(labels, algo, Some(k)).expect("valid request"));
        }
    }
    catalog
}

fn hot_stream(rng: Rng, seed: u64, len: usize) -> Stream {
    let catalog = hot_catalog();
    let warmup =
        catalog.iter().map(|req| single(req, true_leader(&req.labels), false)).collect::<Vec<_>>();
    // Every rotation of every catalog ring is one table entry.
    let mut table = Vec::new();
    let mut first = Vec::with_capacity(catalog.len());
    for req in &catalog {
        first.push(table.len() as u32);
        let n = req.labels.len();
        let leader = true_leader(&req.labels);
        for d in 0..n {
            let mut labels = req.labels.clone();
            labels.rotate_left(d);
            let rotated = ElectRequest { labels, algo: req.algo, k: req.k };
            let t = table.len();
            table.push(single(&rotated, rotated_leader(leader, d, n), sampled(seed, t)));
        }
    }
    let mut draw = rng.fork(2);
    let order = (0..len)
        .map(|_| {
            let r = draw.below(catalog.len() as u64) as usize;
            first[r] + draw.below(catalog[r].labels.len() as u64) as u32
        })
        .collect();
    Stream { warmup, table, order: Some(order), cyclic: false }
}

fn cold_stream(rng: Rng, seed: u64, len: usize) -> Stream {
    let mut draw = rng.fork(1);
    let mut seen = HashSet::with_capacity(len);
    let mut table = Vec::with_capacity(len);
    while table.len() < len {
        let n = draw.range(24, 48);
        let k = draw.range(2, 3);
        let labels = asymmetric_ring(&mut draw, n, k);
        if !seen.insert(hre_words::canonical_rotation(&labels)) {
            continue;
        }
        let algo = if table.len() % 2 == 0 { AlgoId::Ak } else { AlgoId::Bk };
        let leader = true_leader(&labels);
        let req = ElectRequest::new(labels, algo, Some(k)).expect("valid request");
        let t = table.len();
        table.push(single(&req, leader, sampled(seed, t)));
    }
    Stream { warmup: Vec::new(), table, order: None, cyclic: false }
}

/// The `routed-batch` keys: 8192 distinct (ring, algo) pairs, n 8–24, in
/// Zipf rank order.
pub fn routed_keys() -> Vec<ElectRequest> {
    let mut rng = Rng::new(CATALOG_SEED).fork(Workload::RoutedBatch as u64);
    let mut seen = HashSet::with_capacity(ROUTED_KEYS);
    let mut keys = Vec::with_capacity(ROUTED_KEYS);
    while keys.len() < ROUTED_KEYS {
        let n = rng.range(8, 24);
        let algo = [AlgoId::Ak, AlgoId::Bk, AlgoId::OracleN][rng.below(3) as usize];
        let k = if algo == AlgoId::Bk { rng.range(2, 3) } else { rng.range(1, 3) };
        let labels = asymmetric_ring(&mut rng, n, k);
        if seen.insert(hre_words::canonical_rotation(&labels)) {
            keys.push(ElectRequest::new(labels, algo, Some(k)).expect("valid request"));
        }
    }
    keys
}

fn routed_stream(rng: Rng, seed: u64, len: usize) -> Stream {
    let keys = routed_keys();
    let leaders: Vec<usize> = keys.iter().map(|k| true_leader(&k.labels)).collect();
    let zipf = Zipf::new(keys.len(), 1.0);
    let mut draw = rng.fork(2);
    let mut table = Vec::with_capacity(len);
    for t in 0..len {
        let exact = sampled(seed, t);
        let mut docs = Vec::with_capacity(BATCH);
        let mut answers = Vec::with_capacity(BATCH);
        let mut body = String::from("[");
        for e in 0..BATCH {
            let key = zipf.sample(&mut draw);
            let n = keys[key].labels.len();
            let d = draw.below(n as u64) as usize;
            let mut labels = keys[key].labels.clone();
            labels.rotate_left(d);
            let req = ElectRequest { labels, algo: keys[key].algo, k: keys[key].k };
            if e > 0 {
                body.push(',');
            }
            body.push_str(&request_doc(&req));
            answers.push(rotated_leader(leaders[key], d, n) as u16);
            if exact {
                docs.push(exact_doc(&req));
            }
        }
        body.push(']');
        table.push(Exchange {
            wire: wire("/elect/batch", body.as_bytes()),
            leaders: answers,
            exact: exact.then(|| hre_svc::batch_response_body(&docs).into_bytes()),
        });
    }
    Stream { warmup: Vec::new(), table, order: None, cyclic: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(stream: &Stream) -> Vec<&[u8]> {
        (0..stream.len()).map(|i| stream.get(i).unwrap().wire.as_slice()).collect()
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            let a = w.stream(11, 40);
            assert_eq!(a, w.stream(11, 40), "{}", w.spec().name);
            assert_ne!(bodies(&a), bodies(&w.stream(12, 40)), "{}", w.spec().name);
            assert_eq!(a.len(), 40);
            let wrapped = a.get(40).map(|e| &e.wire);
            match w.spec().pool {
                Pool::Cyclic(_) => assert_eq!(wrapped, a.get(0).map(|e| &e.wire)),
                Pool::Distinct { .. } => assert_eq!(wrapped, None),
            }
        }
    }

    #[test]
    fn cold_rings_never_share_a_canonical_rotation() {
        let stream = Workload::ColdDistinct.stream(5, 3000);
        let mut seen = HashSet::new();
        for i in 0..stream.len() {
            let req = ElectRequest::from_json(stream.get(i).unwrap().body()).unwrap();
            assert!((24..=48).contains(&req.labels.len()));
            assert!(seen.insert(hre_words::canonical_rotation(&req.labels)), "ring {i} repeats");
        }
    }

    #[test]
    fn hot_catalog_fits_in_the_default_cache() {
        let cfg = hre_svc::SvcConfig::default();
        let cache = hre_svc::ShardedLru::new(cfg.cache_cap, cfg.cache_shards);
        let catalog = hot_catalog();
        assert_eq!(catalog.len(), HOT_CATALOG);
        let key = |req: &ElectRequest| {
            let (canon, _) = req.canonicalized();
            hre_svc::CacheKey { canon: canon.labels, algo: canon.algo, k: canon.k }
        };
        for req in &catalog {
            cache.insert(key(req), Err(String::new()));
        }
        assert!(catalog.iter().all(|req| cache.get(&key(req)).is_some()));
        assert_eq!(cache.snapshot().evictions, 0);
    }

    #[test]
    fn expected_leaders_match_the_rotated_rings() {
        let mut rng = Rng::new(4);
        for _ in 0..200 {
            let n = rng.range(3, 30);
            let k = rng.range(1, 3);
            let labels = asymmetric_ring(&mut rng, n, k);
            let leader = true_leader(&labels);
            for d in 0..n {
                let mut rotated = labels.clone();
                rotated.rotate_left(d);
                assert_eq!(true_leader(&rotated), rotated_leader(leader, d, n));
            }
        }
    }

    #[test]
    fn routed_keys_are_distinct_rings() {
        let keys = routed_keys();
        assert_eq!(keys.len(), ROUTED_KEYS);
        let distinct: HashSet<_> =
            keys.iter().map(|k| hre_words::canonical_rotation(&k.labels)).collect();
        assert_eq!(distinct.len(), ROUTED_KEYS);
    }
}
