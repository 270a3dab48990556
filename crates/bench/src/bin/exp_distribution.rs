//! Experiment binary; see `hre_bench::experiments::e15_distribution`.
fn main() {
    hre_bench::args::from_env(
        "E15 — cost distributions: slack of the worst-case bounds on random rings.",
        false,
    );
    print!("{}", hre_bench::experiments::e15_distribution::report());
}
