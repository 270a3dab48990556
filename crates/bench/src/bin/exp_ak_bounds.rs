//! Experiment binary; see `hre_bench::experiments::e03_ak_bounds`.
fn main() {
    hre_bench::args::from_env("E3 — Theorem 2: Algorithm Ak (Table 1) bounds.", false);
    print!("{}", hre_bench::experiments::e03_ak_bounds::report());
}
