//! Experiment binary; see `hre_bench::experiments::e09_ring122`.
fn main() {
    hre_bench::args::from_env("E9 — §I closing remark: the ring (1,2,2).", false);
    print!("{}", hre_bench::experiments::e09_ring122::report());
}
