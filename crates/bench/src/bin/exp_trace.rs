//! Experiment binary; see `hre_bench::experiments::e21_trace`.
//! `--quick` runs the CI-sized variant (smaller load, looser bound).
fn main() {
    let quick = hre_bench::args::from_env(
        "E21 — end-to-end tracing: recorder overhead and the failover span tree.",
        true,
    );
    let report = if quick {
        hre_bench::experiments::e21_trace::report_quick()
    } else {
        hre_bench::experiments::e21_trace::report()
    };
    print!("{report}");
}
