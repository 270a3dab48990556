//! Experiment binary; see `hre_bench::experiments::e20_cluster`.
fn main() {
    hre_bench::args::from_env(
        "E20 — cluster scaling by rotation-affinity sharding and kill transparency.",
        false,
    );
    print!("{}", hre_bench::experiments::e20_cluster::report());
}
