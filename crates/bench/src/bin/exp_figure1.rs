//! Experiment binary; see `hre_bench::experiments::e05_figure1`.
fn main() {
    hre_bench::args::from_env("E5 — Figure 1: Bk phase-by-phase on the paper's ring.", false);
    print!("{}", hre_bench::experiments::e05_figure1::report());
}
