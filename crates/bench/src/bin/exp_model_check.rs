//! Experiment binary; see `hre_bench::experiments::e16_model_check`.
fn main() {
    hre_bench::args::from_env(
        "E16 — exhaustive model checking: safety, deadlock-freedom, confluence.",
        false,
    );
    print!("{}", hre_bench::experiments::e16_model_check::report());
}
