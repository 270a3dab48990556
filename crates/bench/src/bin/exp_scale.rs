//! Experiment binary; see `hre_bench::experiments::e17_scale`.
fn main() {
    hre_bench::args::from_env("E17 — scale: asymptotic shapes at n up to 512.", false);
    print!("{}", hre_bench::experiments::e17_scale::report());
}
