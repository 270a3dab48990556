//! Experiment binary; see `hre_bench::experiments::e07_tradeoff`.
fn main() {
    hre_bench::args::from_env("E7 — Abstract: the Ak/Bk time-space trade-off.", false);
    print!("{}", hre_bench::experiments::e07_tradeoff::report());
}
