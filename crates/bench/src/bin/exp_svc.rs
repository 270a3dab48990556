//! Experiment binary; see `hre_bench::experiments::e19_svc`.
fn main() {
    hre_bench::args::from_env(
        "E19 — election-as-a-service agreement and canonical-rotation cache speedup.",
        false,
    );
    print!("{}", hre_bench::experiments::e19_svc::report());
}
