//! Experiment binary; see `hre_bench::experiments::e14_knowledge`.
fn main() {
    hre_bench::args::from_env(
        "E14 — knowledge comparison: bounds on n vs the multiplicity bound k.",
        false,
    );
    print!("{}", hre_bench::experiments::e14_knowledge::report());
}
