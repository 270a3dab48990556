//! Experiment binary; see `hre_bench::experiments::e02_impossibility`.
fn main() {
    hre_bench::args::from_env("E2 — Theorem 1 / Cor. 3: impossibility for U* (and A).", false);
    print!("{}", hre_bench::experiments::e02_impossibility::report());
}
