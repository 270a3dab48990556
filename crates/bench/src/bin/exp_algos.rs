//! Experiment binary; see `hre_bench::experiments::e25_algos`.
//!
//! Writes the machine-readable result to `BENCH_e25.json` at the repo
//! root and exits non-zero if any gate fails (`--quick` trims both ring
//! catalogs for CI).

fn main() {
    let quick = hre_bench::args::from_env(
        "E25 — algorithm zoo: every engine on exhaustive catalogs, agreement-gated.",
        true,
    );
    let outcome = hre_bench::experiments::e25_algos::run_e25(quick);
    print!("{}", outcome.report);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e25.json");
    std::fs::write(path, &outcome.json).expect("write BENCH_e25.json");
    eprintln!("wrote {path}");
    if !outcome.ok {
        eprintln!("E25 gate FAILED");
        std::process::exit(1);
    }
}
