//! Experiment binary; see `hre_bench::experiments::e22_perf`.
//!
//! Writes the machine-readable result to `BENCH_e22.json` at the repo
//! root and exits non-zero if any gate fails (`--quick` relaxes the
//! speedup gate to the CI threshold of 1.5× and shrinks the workload).

fn main() {
    let quick = hre_bench::args::from_env(
        "E22 — engine performance: zero-copy messages, pooled links, parallel sweep.",
        true,
    );
    let outcome = hre_bench::experiments::e22_perf::run_e22(quick);
    print!("{}", outcome.report);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e22.json");
    std::fs::write(path, &outcome.json).expect("write BENCH_e22.json");
    eprintln!("wrote {path}");
    if !outcome.ok {
        eprintln!("E22 gate FAILED");
        std::process::exit(1);
    }
}
