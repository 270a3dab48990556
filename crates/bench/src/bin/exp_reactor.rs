//! Experiment binary; see `hre_bench::experiments::e27_reactor`.
//!
//! Writes the machine-readable result to `BENCH_e27.json` at the repo
//! root and exits non-zero if any gate fails (`--quick` trims the
//! connection counts and request volumes for CI).

fn main() {
    let quick = hre_bench::args::from_env(
        "E27 — async serving core: epoll reactor vs thread-per-connection, hedges as timers.",
        true,
    );
    let outcome = hre_bench::experiments::e27_reactor::run_e27(quick);
    print!("{}", outcome.report);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e27.json");
    std::fs::write(path, &outcome.json).expect("write BENCH_e27.json");
    eprintln!("wrote {path}");
    if !outcome.ok {
        eprintln!("E27 gate FAILED");
        std::process::exit(1);
    }
}
