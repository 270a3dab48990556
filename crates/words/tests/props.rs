//! Property-based tests for the word algorithms, cross-checking the fast
//! implementations against naive references and checking structural
//! invariants (Lemma 5-style facts are tested at the ring level in
//! `hre-ring`; here we stay at the pure-word level).

use hre_words::*;
use proptest::prelude::*;

fn small_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 1..64)
}

proptest! {
    #[test]
    fn srp_fast_matches_naive(s in small_seq()) {
        prop_assert_eq!(srp_len(&s), srp_len_naive(&s));
    }

    #[test]
    fn srp_is_a_period_and_minimal(s in small_seq()) {
        let p = srp_len(&s);
        prop_assert!(is_period(&s, p));
        for m in 1..p {
            prop_assert!(!is_period(&s, m));
        }
    }

    #[test]
    fn srp_of_power_divides_base_length(s in proptest::collection::vec(0u8..4, 1..12), e in 1usize..5) {
        let mut powered = Vec::new();
        for _ in 0..e {
            powered.extend_from_slice(&s);
        }
        let p = srp_len(&powered);
        // |s| is always a period of s^e, so the smallest one is at most |s|.
        prop_assert!(is_period(&powered, s.len()));
        prop_assert!(p <= s.len());
        // For e >= 2, |s^e| >= |s| + p, so by Fine–Wilf gcd(|s|, p) is a
        // period too; minimality then forces p | |s|.
        if e >= 2 {
            prop_assert_eq!(s.len() % p, 0);
        }
    }

    #[test]
    fn booth_matches_naive(s in small_seq()) {
        prop_assert_eq!(least_rotation(&s), least_rotation_naive(&s));
    }

    #[test]
    fn least_rotation_is_minimal(s in small_seq()) {
        let d = least_rotation(&s);
        let best = rotate_left(&s, d);
        for r in rotations(&s) {
            prop_assert!(best <= r);
        }
    }

    #[test]
    fn duval_factors_are_lyndon_and_nonincreasing(s in small_seq()) {
        let f = duval_factorization(&s);
        let mut concat = Vec::new();
        for w in &f {
            prop_assert!(is_lyndon(w));
            concat.extend_from_slice(w);
        }
        prop_assert_eq!(&concat, &s);
        for pair in f.windows(2) {
            prop_assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn lyndon_fast_matches_naive(s in small_seq()) {
        prop_assert_eq!(is_lyndon(&s), is_lyndon_naive(&s));
    }

    /// Lyndon words and their powers, plus one-letter perturbations: the
    /// shapes where the first-factor scan runs longest before deciding.
    #[test]
    fn lyndon_fast_matches_naive_on_near_periodic_words(
        s in proptest::collection::vec(0u8..3, 1..12),
        e in 1usize..4,
        at in any::<usize>(),
        bump in 0u8..3,
    ) {
        let base = rotate_left(&s, least_rotation(&s));
        let mut w: Vec<u8> = (0..e).flat_map(|_| base.iter().copied()).collect();
        prop_assert_eq!(is_lyndon(&w), is_lyndon_naive(&w));
        let i = at % w.len();
        w[i] = (w[i] + bump) % 3;
        prop_assert_eq!(is_lyndon(&w), is_lyndon_naive(&w));
    }

    #[test]
    fn lyndon_iff_single_duval_factor(s in small_seq()) {
        let f = duval_factorization(&s);
        prop_assert_eq!(is_lyndon(&s), f.len() == 1);
    }

    #[test]
    fn primitive_fast_matches_naive(s in small_seq()) {
        prop_assert_eq!(is_primitive(&s), is_primitive_naive(&s));
    }

    #[test]
    fn lyndon_rotation_of_primitive_is_unique_lyndon(s in small_seq()) {
        if is_primitive(&s) {
            let lw = lyndon_rotation(&s);
            prop_assert!(is_lyndon(&lw));
            let count = rotations(&s).into_iter().filter(|r| is_lyndon(r)).count();
            prop_assert_eq!(count, 1);
        }
    }

    #[test]
    fn multiplicity_totals(s in small_seq()) {
        let m = multiplicities(&s);
        let total: usize = m.values().sum();
        prop_assert_eq!(total, s.len());
        prop_assert_eq!(m.len(), distinct_labels(&s));
        let mm = max_multiplicity(&s);
        for (x, c) in &m {
            prop_assert_eq!(*c, occurrences(&s, x));
            prop_assert!(*c <= mm);
        }
    }

    #[test]
    fn labels_preserve_order(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(Label::new(a).cmp(&Label::new(b)), a.cmp(&b));
    }

    /// Duval generation: sorted, all-Lyndon, and closed under the
    /// rotate-then-normalize round trip.
    #[test]
    fn lyndon_generation_properties(n in 1usize..9, a in 1u8..4) {
        let words = lyndon_words_of_length(n, a);
        for w in &words {
            prop_assert!(is_lyndon(w));
            prop_assert!(w.iter().all(|&c| c < a));
        }
        for pair in words.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        // every rotation normalizes back to the generated word
        for w in words.iter().take(20) {
            for d in 0..n {
                let rot = rotate_left(w, d);
                prop_assert_eq!(&lyndon_rotation(&rot), w);
            }
        }
    }

    /// The border array is a valid failure function: each border is a
    /// proper border, and maximal.
    #[test]
    fn border_array_is_correct(s in small_seq()) {
        let b = border_array(&s);
        prop_assert_eq!(b.len(), s.len() + 1);
        for i in 1..=s.len() {
            let k = b[i];
            prop_assert!(k < i);
            prop_assert_eq!(&s[..k], &s[i - k..i]);
            // maximality: no longer border
            for longer in (k + 1)..i {
                prop_assert_ne!(&s[..longer], &s[i - longer..i]);
            }
        }
    }
}
