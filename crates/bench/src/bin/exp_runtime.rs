//! Experiment binary; see `hre_bench::experiments::e11_runtime`.
fn main() {
    hre_bench::args::from_env("E11 — threaded runtime agreement (substitution check).", false);
    print!("{}", hre_bench::experiments::e11_runtime::report());
}
