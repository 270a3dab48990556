//! Experiment binary; see `hre_bench::experiments::e01_lower_bound`.
fn main() {
    hre_bench::args::from_env("E1 — Lemma 1 / Cor. 2/4: Ω(kn) synchronous lower bound.", false);
    print!("{}", hre_bench::experiments::e01_lower_bound::report());
}
