//! Experiment binary; see `hre_bench::experiments::e24_dst`.
//!
//! Writes the machine-readable result to `BENCH_e24.json` at the repo
//! root and exits non-zero if any gate fails (`--quick` shrinks the
//! sweeps from 100 000 instances to 2 000 for CI).

fn main() {
    let quick = hre_bench::args::from_env(
        "E24 — whole-stack deterministic simulation: seeded fault sweeps in virtual time.",
        true,
    );
    let outcome = hre_bench::experiments::e24_dst::run_e24(quick);
    print!("{}", outcome.report);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e24.json");
    std::fs::write(path, &outcome.json).expect("write BENCH_e24.json");
    eprintln!("wrote {path}");
    if !outcome.ok {
        eprintln!("E24 gate FAILED");
        std::process::exit(1);
    }
}
