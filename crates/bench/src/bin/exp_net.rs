//! Experiment binary; see `hre_bench::experiments::e18_net`.
fn main() {
    hre_bench::args::from_env("E18 — TCP socket runtime agreement and fault recovery.", false);
    print!("{}", hre_bench::experiments::e18_net::report());
}
