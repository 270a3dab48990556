//! The benchmark's only source of randomness: SplitMix64 streams and a
//! Zipf sampler. Every ring, rotation and draw of a run comes from here,
//! so the same `--seed` always yields the same request stream.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from this generator's seed and a
    /// tag, so adding draws to one stream never shifts another.
    pub fn fork(&self, tag: u64) -> Rng {
        Rng(mix(self.0, tag))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A stateless 64-bit mix of two words (one SplitMix64 step of `a ^ b`'s
/// golden-ratio multiple), for per-index decisions such as sampling.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn p(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    /// The rank whose cumulative interval holds `u ∈ [0, 1)`.
    pub fn rank_of(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_of(rng.unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(Rng::new(7).fork(1).next_u64(), Rng::new(7).fork(2).next_u64());
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(1) == 0));
        let mut seen = [false; 3];
        for _ in 0..1000 {
            let v = r.range(4, 6);
            assert!((4..=6).contains(&v));
            seen[v - 4] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn zipf_edges() {
        // One rank: always rank 0.
        let one = Zipf::new(1, 1.0);
        assert_eq!(one.rank_of(0.0), 0);
        assert_eq!(one.rank_of(0.999_999), 0);
        // s = 1 over 4 ranks: weights 1, 1/2, 1/3, 1/4 over H4 = 25/12.
        let z = Zipf::new(4, 1.0);
        let h4 = 25.0 / 12.0;
        for (r, w) in [1.0, 0.5, 1.0 / 3.0, 0.25].iter().enumerate() {
            assert!((z.p(r) - w / h4).abs() < 1e-12, "rank {r}");
        }
        assert!(((0..4).map(|r| z.p(r)).sum::<f64>() - 1.0).abs() < 1e-12);
        // The interval ends: u = 0 is rank 0, u just below 1 the last rank,
        // and a boundary value belongs to the next rank.
        assert_eq!(z.rank_of(0.0), 0);
        assert_eq!(z.rank_of(1.0 - 1e-12), 3);
        assert_eq!(z.rank_of(z.cdf[0]), 1);
        assert_eq!(z.rank_of(z.cdf[0] - 1e-12), 0);
        // s = 0 is uniform.
        let flat = Zipf::new(5, 0.0);
        assert!((0..5).all(|r| (flat.p(r) - 0.2).abs() < 1e-12));
        // Empirical frequency of the head rank under s = 1 over 8192 keys.
        let big = Zipf::new(8192, 1.0);
        let mut rng = Rng::new(3);
        let hits = (0..200_000).filter(|_| big.sample(&mut rng) == 0).count() as f64;
        assert!((hits / 200_000.0 - big.p(0)).abs() < 0.005, "{}", hits / 200_000.0);
    }
}
