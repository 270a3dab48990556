//! Experiment binary; see `hre_bench::experiments::e06_state_diagram`.
fn main() {
    hre_bench::args::from_env("E6 — Figure 2: Bk state-diagram conformance.", false);
    print!("{}", hre_bench::experiments::e06_state_diagram::report());
}
