//! Experiment binary; see `hre_bench::experiments::e26_batch`.
//!
//! Writes the machine-readable result to `BENCH_e26.json` at the repo
//! root and exits non-zero if any gate fails (`--quick` relaxes the
//! batched-throughput gate to the CI threshold of 1.3× and shrinks the
//! workload).

fn main() {
    let quick = hre_bench::args::from_env(
        "E26 — batched elections: per-entry byte equality and amortized throughput.",
        true,
    );
    let outcome = hre_bench::experiments::e26_batch::run_e26(quick);
    print!("{}", outcome.report);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e26.json");
    std::fs::write(path, &outcome.json).expect("write BENCH_e26.json");
    eprintln!("wrote {path}");
    if !outcome.ok {
        eprintln!("E26 gate FAILED");
        std::process::exit(1);
    }
}
