//! Experiment binary; see `hre_bench::experiments::e23_ctrl`.
//! `--quick` runs the CI-sized variant (smaller load, same gates).
fn main() {
    let quick = hre_bench::args::from_env(
        "E23 — self-hosting control plane: coordinator kill, re-election, fencing.",
        true,
    );
    let report = if quick {
        hre_bench::experiments::e23_ctrl::report_quick()
    } else {
        hre_bench::experiments::e23_ctrl::report()
    };
    print!("{report}");
}
