//! Experiment binary; see `hre_bench::experiments::e08_baselines`.
fn main() {
    hre_bench::args::from_env("E8 — §I: baseline comparison on identified rings.", false);
    print!("{}", hre_bench::experiments::e08_baselines::report());
}
