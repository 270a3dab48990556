//! Experiment binary; see `hre_bench::experiments::e04_bk_bounds`.
fn main() {
    hre_bench::args::from_env("E4 — Theorems 3–4: Algorithm Bk (Table 2) bounds.", false);
    print!("{}", hre_bench::experiments::e04_bk_bounds::report());
}
