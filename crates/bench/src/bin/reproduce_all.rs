//! Regenerates every experiment report (E1–E23) in order — the body of
//! `EXPERIMENTS.md`.
fn main() {
    hre_bench::args::from_env(
        "Regenerates every experiment report, in order: the body of EXPERIMENTS.md.",
        false,
    );
    println!("# Experiment reports (generated by `cargo run --release -p hre-bench --bin reproduce_all`)");
    print!("{}", hre_bench::experiments::reproduce_all());
}
