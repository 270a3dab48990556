//! Experiment binary; see `hre_bench::experiments::e13_faults`.
fn main() {
    hre_bench::args::from_env("E13 — ablation: the model's link assumptions are necessary.", false);
    print!("{}", hre_bench::experiments::e13_faults::report());
}
