//! # hre-words — combinatorics on words for homonym-ring leader election
//!
//! This crate is the string-algorithms substrate of the reproduction of
//! *"Leader Election in Asymmetric Labeled Unidirectional Rings"*
//! (Altisen, Datta, Devismes, Durand, Larmore — IPDPS 2017).
//!
//! The paper's Algorithm `Ak` is built on three notions from combinatorics on
//! words, all implemented here:
//!
//! * the **smallest repeating prefix** `srp(σ)` of a finite sequence
//!   (equivalently: its smallest period) — [`srp_len`], [`srp`];
//! * **Lyndon words** — non-empty sequences strictly smaller than all of
//!   their non-trivial rotations — [`is_lyndon`], and `LW(σ)`, the rotation
//!   of a primitive sequence that is a Lyndon word — [`lyndon_rotation`];
//! * **primitivity** — a cyclic sequence is free of non-trivial rotational
//!   symmetry iff it is primitive (not a proper power) — [`is_primitive`].
//!
//! Every non-trivial algorithm has both a naive reference implementation and
//! an optimized one (KMP border array for periods, Booth's algorithm for the
//! least rotation, Duval's algorithm for Lyndon factorization); the test
//! suite cross-checks them exhaustively on small alphabets and with property
//! tests on larger ones.
//!
//! All functions are generic over `T: Ord`; the concrete label type used by
//! the rest of the workspace is [`Label`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod label;
mod lyndon;
mod period;
mod rotation;
mod scratch;

pub use count::{
    distinct_labels, has_label_with_count, max_multiplicity, multiplicities, occurrences,
};
pub use label::{labels, Label, LabelVec};
pub use lyndon::{
    duval_factorization, is_lyndon, is_lyndon_naive, least_rotation, least_rotation_naive,
    lyndon_rotation, lyndon_words_of_length,
};
pub use period::{border_array, is_period, is_repeating_prefix, srp, srp_len, srp_len_naive};
pub use rotation::{
    canonical_rotation, canonical_rotation_index, is_primitive, is_primitive_naive, rotate_left,
    rotational_symmetries, rotations,
};
pub use scratch::RotationScratch;
