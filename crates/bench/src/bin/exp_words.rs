//! Experiment binary; see `hre_bench::experiments::e12_words`.
fn main() {
    hre_bench::args::from_env("E12 — Lemmas 5–6: word-combinatorics foundations.", false);
    print!("{}", hre_bench::experiments::e12_words::report());
}
