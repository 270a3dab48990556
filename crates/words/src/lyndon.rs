//! Lyndon words, Duval factorization, and least rotations (Booth).
//!
//! The paper elects the *true leader*: the process `L` whose length-`n`
//! counter-clockwise label sequence `LLabels(L)_n` is a **Lyndon word** — a
//! non-empty string strictly smaller in lexicographic order than all of its
//! non-trivial rotations. For a primitive (asymmetric) labeling, exactly one
//! rotation is a Lyndon word; the paper writes it `LW(σ)`.

use crate::rotation::{is_primitive, rotate_left};
use std::cmp::Ordering;

/// Returns `true` iff `sigma` is a Lyndon word: non-empty and strictly
/// smaller than each of its non-trivial rotations.
///
/// ```
/// use hre_words::is_lyndon;
/// assert!(is_lyndon(b"aab"));
/// assert!(!is_lyndon(b"aba")); // the rotation "aab" is smaller
/// assert!(!is_lyndon(b"abab")); // equal to a rotation
/// ```
///
/// `O(n)` with at most `n − 1` comparisons and no division: a word is
/// Lyndon iff its first Duval factor (see [`duval_factorization`]) is the
/// whole word. `Ak`'s `Leader(σ)` predicate and the known-`n` baselines
/// run it on each process's full-turn word; [`is_lyndon_naive`] is the
/// reference it is tested against.
pub fn is_lyndon<T: Ord>(sigma: &[T]) -> bool {
    if sigma.is_empty() {
        return false;
    }
    // Duval's scan of the first factor: `j − k` is the length of the
    // longest Lyndon prefix read so far, and `sigma[k]` is the letter its
    // periodic continuation predicts at `j`.
    let mut k = 0;
    for j in 1..sigma.len() {
        match sigma[k].cmp(&sigma[j]) {
            Ordering::Less => k = 0,
            Ordering::Equal => k += 1,
            // The first factor ends before `j`, so there are several.
            Ordering::Greater => return false,
        }
    }
    // A single factor iff the scan did not end inside a repetition.
    k == 0
}

/// Naive `O(n²)` reference for [`is_lyndon`]: compares `sigma` with each
/// of its rotations. The paper-literal `AkReference` uses it, so that
/// oracle shares no code with the optimized predicate.
pub fn is_lyndon_naive<T: Ord>(sigma: &[T]) -> bool {
    let n = sigma.len();
    if n == 0 {
        return false;
    }
    (1..n).all(|d| {
        // compare sigma with its rotation by d, lexicographically
        for i in 0..n {
            let a = &sigma[i];
            let b = &sigma[(i + d) % n];
            if a < b {
                return true;
            }
            if a > b {
                return false;
            }
        }
        false // equal to a rotation => not strictly smaller
    })
}

/// Duval's algorithm: factors `sigma` into a non-increasing sequence of
/// Lyndon words `w1 ≥ w2 ≥ … ≥ wm` with `σ = w1 w2 … wm`, in `O(n)`.
/// Returns the factor boundaries as sub-slices.
pub fn duval_factorization<T: Ord>(sigma: &[T]) -> Vec<&[T]> {
    let n = sigma.len();
    let mut factors = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        let mut k = i;
        while j < n && sigma[k] <= sigma[j] {
            // Arithmetic select (the guard already established ≤, so
            // "not equal" means strictly smaller): k restarts at i on a
            // strict step, advances on equality. Keeps the inner loop
            // branch-predictable on near-periodic inputs, where the
            // two-way branch is data-dependent on every iteration.
            let eq = (sigma[k] == sigma[j]) as usize;
            k = eq * (k + 1) + (1 - eq) * i;
            j += 1;
        }
        let w = j - k; // length of the Lyndon factor
        while i <= k {
            factors.push(&sigma[i..i + w]);
            i += w;
        }
    }
    factors
}

/// Booth's algorithm: index `d` of the lexicographically least rotation of
/// `sigma`, in `O(n)` time and `O(n)` space.
///
/// For sequences with equal-least rotations (non-primitive), returns the
/// smallest such index, matching [`least_rotation_naive`].
pub fn least_rotation<T: Ord>(sigma: &[T]) -> usize {
    let n = sigma.len();
    if n == 0 {
        return 0;
    }
    // Booth's algorithm over the doubled sequence with a failure function.
    let mut f = vec![usize::MAX; 2 * n]; // failure function, MAX = -1
    let mut d = 0usize; // least rotation candidate
    for j in 1..2 * n {
        let sj = &sigma[j % n];
        let mut i = f[j - d - 1];
        while i != usize::MAX && *sj != sigma[(d + i + 1) % n] {
            if *sj < sigma[(d + i + 1) % n] {
                d = j - i - 1;
            }
            i = f[i];
        }
        if i == usize::MAX && *sj != sigma[(d + i.wrapping_add(1)) % n] {
            // i == -1: compare against sigma[d]
            if *sj < sigma[d % n] {
                d = j;
            }
            f[j - d] = usize::MAX;
        } else {
            f[j - d] = i.wrapping_add(1);
        }
    }
    d % n
}

/// Naive `O(n²)` reference: index of the least rotation (smallest index on
/// ties).
pub fn least_rotation_naive<T: Ord + Clone>(sigma: &[T]) -> usize {
    let n = sigma.len();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    for d in 1..n {
        // compare rotation d with rotation best
        for i in 0..n {
            let a = &sigma[(d + i) % n];
            let b = &sigma[(best + i) % n];
            if a < b {
                best = d;
                break;
            }
            if a > b {
                break;
            }
        }
    }
    best
}

/// `LW(σ)`: the rotation of `sigma` which is a Lyndon word.
///
/// Defined (and unique) when `sigma` is primitive; this is the form the
/// paper uses in Algorithm `Ak` (`LW(srp(p.string))`). Panics if `sigma` is
/// not primitive, mirroring the paper's precondition (asymmetric ring).
pub fn lyndon_rotation<T: Ord + Clone>(sigma: &[T]) -> Vec<T> {
    assert!(is_primitive(sigma), "LW(σ) requires a primitive sequence (asymmetric ring labeling)");
    let d = least_rotation(sigma);
    let rot = rotate_left(sigma, d);
    debug_assert!(is_lyndon(&rot));
    rot
}

/// Generates **all Lyndon words** of length exactly `n` over the alphabet
/// `{0, …, a−1}`, in lexicographic order, using Duval's generation
/// algorithm (1988). There are `(1/n)·Σ_{d|n} μ(d)·a^{n/d}` of them —
/// one per aperiodic necklace, i.e. one per asymmetric ring labeling up to
/// rotation.
///
/// ```
/// use hre_words::lyndon_words_of_length;
/// let words = lyndon_words_of_length(4, 2);
/// assert_eq!(words, vec![
///     vec![0, 0, 0, 1],
///     vec![0, 0, 1, 1],
///     vec![0, 1, 1, 1],
/// ]);
/// ```
pub fn lyndon_words_of_length(n: usize, a: u8) -> Vec<Vec<u8>> {
    assert!(n >= 1);
    assert!(a >= 1);
    let mut out = Vec::new();
    let mut w = vec![0u8]; // current candidate
    loop {
        if w.len() == n {
            out.push(w.clone());
        }
        // extend periodically to length n
        let len = w.len();
        while w.len() < n {
            let c = w[w.len() - len];
            w.push(c);
        }
        // increment from the right, dropping trailing maximal letters
        while let Some(&last) = w.last() {
            if last == a - 1 {
                w.pop();
            } else {
                break;
            }
        }
        match w.last_mut() {
            None => return out,
            Some(last) => *last += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lyndon_examples() {
        for lyndon in [is_lyndon::<u8>, is_lyndon_naive::<u8>] {
            assert!(lyndon(b"a"));
            assert!(lyndon(b"ab"));
            assert!(lyndon(b"aab"));
            assert!(lyndon(b"aabab"));
            assert!(!lyndon(b"ba"));
            assert!(!lyndon(b"aa")); // equal to its rotation
            assert!(!lyndon(b"aba")); // rotation "aab" is smaller
            assert!(!lyndon(b"abab"));
            assert!(!lyndon(&[]));
        }
    }

    thread_local! {
        static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A letter whose every comparison is counted.
    #[derive(Debug)]
    struct Counted(u8);

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }
    impl Eq for Counted {}
    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> Ordering {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    /// `1^(m−1) 2` is the shape of a ring with one distinct label: every
    /// rotation agrees with the word until the `2`, so comparing against
    /// each rotation costs about `m²/2` comparisons. The linear test must
    /// stay within `3m`.
    #[test]
    fn lyndon_test_is_linear_on_one_distinct_letter() {
        for m in [2usize, 10, 1000, 4096] {
            let word: Vec<Counted> =
                (0..m).map(|i| Counted(if i + 1 == m { 2 } else { 1 })).collect();
            COMPARISONS.with(|c| c.set(0));
            assert!(is_lyndon(&word));
            let comparisons = COMPARISONS.with(|c| c.get());
            assert!(comparisons <= 3 * m as u64, "m={m}: {comparisons} comparisons");
        }
    }

    #[test]
    fn paper_figure1_true_leader_sequence_is_lyndon() {
        // Fig. 1 ring: labels p0..p7 = 1,3,1,3,2,2,1,2 ; LLabels(p0)_8 =
        // 1,2,1,2,2,3,1,3 and p0 is elected, so that sequence must be the
        // Lyndon rotation.
        let seq = [1u8, 2, 1, 2, 2, 3, 1, 3];
        assert!(is_lyndon(&seq));
    }

    #[test]
    fn duval_classic() {
        let f = duval_factorization(b"banana");
        let fs: Vec<&[u8]> = f;
        assert_eq!(fs, vec![b"b" as &[u8], b"an", b"an", b"a"]);
        // Each factor is Lyndon and the sequence is non-increasing.
        for w in &fs {
            assert!(is_lyndon(w));
        }
        for pair in fs.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn duval_of_lyndon_word_is_itself() {
        let f = duval_factorization(b"aabab");
        assert_eq!(f, vec![b"aabab" as &[u8]]);
    }

    #[test]
    fn least_rotation_examples() {
        assert_eq!(least_rotation(b"bba"), 2);
        assert_eq!(least_rotation(b"aab"), 0);
        assert_eq!(least_rotation(b"cba"), 2);
        assert_eq!(least_rotation(b"aaaa"), 0);
        assert_eq!(least_rotation(b"baa"), 1);
    }

    #[test]
    fn booth_matches_naive_exhaustive() {
        for len in 1..=10usize {
            for bits in 0u32..(1 << len) {
                let s: Vec<u8> = (0..len).map(|i| ((bits >> i) & 1) as u8).collect();
                assert_eq!(least_rotation(&s), least_rotation_naive(&s), "s={s:?}");
            }
        }
        // ternary, length <= 7
        for len in 1..=7usize {
            let mut s = vec![0u8; len];
            'strings: loop {
                assert_eq!(least_rotation(&s), least_rotation_naive(&s), "s={s:?}");
                let mut i = 0;
                loop {
                    if i == len {
                        break 'strings;
                    }
                    s[i] += 1;
                    if s[i] < 3 {
                        break;
                    }
                    s[i] = 0;
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn lyndon_rotation_is_lyndon_and_a_rotation() {
        let s = [3u8, 1, 2, 1];
        let lw = lyndon_rotation(&s);
        assert!(is_lyndon(&lw));
        let mut sorted_a = s.to_vec();
        let mut sorted_b = lw.clone();
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(sorted_a, sorted_b);
        assert_eq!(lw, vec![1, 2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "primitive")]
    fn lyndon_rotation_rejects_non_primitive() {
        lyndon_rotation(&[1u8, 2, 1, 2]);
    }

    #[test]
    fn duval_generation_yields_exactly_the_lyndon_words() {
        for n in 1..=8usize {
            for a in 1..=3u8 {
                let generated = lyndon_words_of_length(n, a);
                // sorted, unique
                for pair in generated.windows(2) {
                    assert!(pair[0] < pair[1]);
                }
                // brute force: filter all words
                let mut brute = Vec::new();
                let total = (a as u64).pow(n as u32);
                for code in 0..total {
                    let mut c = code;
                    let w: Vec<u8> = (0..n)
                        .map(|_| {
                            let digit = (c % a as u64) as u8;
                            c /= a as u64;
                            digit
                        })
                        .collect();
                    if is_lyndon_naive(&w) {
                        brute.push(w);
                    }
                }
                brute.sort();
                assert_eq!(generated, brute, "n={n} a={a}");
            }
        }
    }

    #[test]
    fn exactly_one_lyndon_rotation_for_primitive_words() {
        for len in 1..=10usize {
            for bits in 0u32..(1 << len) {
                let s: Vec<u8> = (0..len).map(|i| ((bits >> i) & 1) as u8).collect();
                let lyndon_rots = (0..len).filter(|&d| is_lyndon(&rotate_left(&s, d))).count();
                if is_primitive(&s) {
                    assert_eq!(lyndon_rots, 1, "s={s:?}");
                } else {
                    assert_eq!(lyndon_rots, 0, "s={s:?}");
                }
            }
        }
    }
}
