//! Experiment binary; see `hre_bench::experiments::e10_schedulers`.
fn main() {
    hre_bench::args::from_env("E10 — §II model: scheduler robustness / confluence.", false);
    print!("{}", hre_bench::experiments::e10_schedulers::report());
}
