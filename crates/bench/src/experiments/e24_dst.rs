//! E24 — whole-stack deterministic simulation: the serving path
//! (worker pools, queue deadlines, breakers, probes, hedging, failover,
//! gossip, failure detection, `Ak` coordinator elections, fenced config
//! pushes) runs inside virtual time against seeded fault plans. Every
//! decision is made by the code that ships: the router's
//! `ForwardMachine` over its own breakers and topology, its prober's
//! sweep and its config fence, each backend's svc `Desk` and `execute`
//! (a revived backend starts cold), and ctrl's member `Machine` on every
//! backend and on the router (a revived member starts from nothing), on
//! one `ClusterConfig`, one `SvcConfig` and one `CtrlConfig` whose clock
//! is the world's, and each member's side of an `Ak` round is the
//! shipped ring member. The engine's cost is modelled.
//!
//! Three claims, three gates:
//!
//! 1. **Determinism.** The same base seed produces a byte-identical
//!    sweep — the summary hash, a fold of every instance's transcript
//!    hash in index order — at 1, 2, and 4 worker threads. Virtual time
//!    and seeded latency draws remove the OS scheduler from the
//!    observable behavior entirely.
//! 2. **Invariants at scale.** A sweep across every scenario kind
//!    (backend kills, partitions, slow links, flap storms, coordinator
//!    churn, and mixtures) holds the safety invariants on every
//!    instance: the elected coordinator is the ring's Lyndon winner
//!    (I0), the router accepts at most one config per ballot epoch and
//!    epochs only advance (I1), every transport failure delivered to the
//!    router shows in that backend's breaker and no client-visible
//!    failure (502, 504) goes unattributed — outside every fault window
//!    with every breaker closed (I2), every 200 body is byte-equal to
//!    the memoized election oracle's answer (I3), and within a budget
//!    derived from the control plane's config after the last fault
//!    window, every live member and the router hold one config over
//!    exactly the live backends with a live coordinator (I4). Full mode
//!    runs ≥ 100 000 instances; `--quick` runs 2 000.
//! 3. **Regressions are caught and minimized.** With a deliberately
//!    planted bug armed in the shipped router (a failover or hedge
//!    attempt's transport failure skips the breaker's `record_failure`,
//!    silently under-counting ill health), the sweep must fail, the
//!    failing plan must shrink to a smaller reproducer, and that
//!    reproducer must replay with an identical transcript hash twice in
//!    a row — the debugging loop the harness exists for.
//!
//! The counters come from the shipped code: `hedges`, `failovers`
//! (transport failures plus candidates skipped for an open breaker) and
//! `breaker opens` sum the router's per-backend counters, the cache
//! counters every backend svc's, `suspects` the deaths members declared,
//! `config accepts` the configs the router's fence took, and `elections`
//! the `Ak` rounds completed.
//!
//! The machine-readable result is written to `BENCH_e24.json` at the
//! repo root by the `exp_dst` binary.

use hre_dst::{minimize, run_plan, sweep, ScenarioKind, WorldOptions};
use std::time::Instant;

/// Base seed for the determinism gate.
const DET_SEED: u64 = 2424;
/// Base seed for the invariant sweep.
const SWEEP_SEED: u64 = 24;
/// Base seed for the planted-regression hunt.
const REGRESSION_SEED: u64 = 1234;

/// Everything the run produced: the human report, the machine-readable
/// JSON (the contents of `BENCH_e24.json`), and the gate verdict.
pub struct E24Outcome {
    /// Rendered report (gate lines + counters).
    pub report: String,
    /// JSON document for `BENCH_e24.json`.
    pub json: String,
    /// Every gate passed.
    pub ok: bool,
}

/// Runs the experiment. `quick` shrinks every sweep for CI.
pub fn run_e24(quick: bool) -> E24Outcome {
    let mut out = String::new();
    let mut ok = true;
    let all = ScenarioKind::ALL;
    let healthy = WorldOptions::default();

    // ── 1. Same seed, any thread count, same bytes ───────────────────────
    let det_count = if quick { 60 } else { 600 };
    let hashes: Vec<u64> = [1usize, 2, 4]
        .iter()
        .map(|&t| sweep(&all, det_count, t, DET_SEED, &healthy).hash)
        .collect();
    let det_ok = hashes.iter().all(|h| *h == hashes[0]);
    ok &= det_ok;
    out.push_str(&format!(
        "### Determinism across thread counts\n\n{det_count} instances, every scenario kind, \
         base seed {DET_SEED}:\nsummary hash at 1/2/4 threads: {:016x} / {:016x} / {:016x} — {}\n\n",
        hashes[0],
        hashes[1],
        hashes[2],
        if det_ok { "IDENTICAL (PASS)" } else { "DIVERGED (FAIL)" }
    ));

    // ── 2. The invariant sweep ───────────────────────────────────────────
    let sweep_count = if quick { 2_000 } else { 100_000 };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t0 = Instant::now();
    let summary = sweep(&all, sweep_count, threads, SWEEP_SEED, &healthy);
    let wall_s = t0.elapsed().as_secs_f64();
    let sweep_ok = summary.failures.is_empty();
    ok &= sweep_ok;
    let t = &summary.totals;
    out.push_str(&format!(
        "### Invariants at scale (I0 coordinator = Lyndon winner, I1 epoch fencing, \
         I2 failure attribution, I3 oracle byte-equality, I4 post-heal convergence)\n\n\
         {} seeded instances across {} scenario kinds in {wall_s:.1} s on {threads} thread(s):\n\
         {} requests ({} ok, {} invalid, {} busy, {} failed), {} hedges, {} failovers, \
         {} timeouts,\n{} cache hits / {} misses, {} elections, {} config accepts \
         ({} rejects), {} suspects, {} breaker opens.\n\
         invariant violations: {} — {}\n\n",
        summary.instances,
        all.len(),
        t.requests,
        t.ok,
        t.invalid,
        t.busy,
        t.failed,
        t.hedges,
        t.failovers,
        t.timeouts,
        t.cache_hits,
        t.cache_misses,
        t.elections,
        t.config_accepts,
        t.config_rejects,
        t.suspects,
        t.breaker_opens,
        summary.failures.len(),
        if sweep_ok { "PASS" } else { "FAIL" }
    ));
    if !sweep_ok {
        for f in summary.failures.iter().take(3) {
            out.push_str(&format!(
                "  instance {} (scenario {}, seed {}): {}\n",
                f.idx,
                f.plan.kind.as_str(),
                f.plan.seed,
                f.violations.first().map(String::as_str).unwrap_or("?")
            ));
        }
    }

    // ── 3. The planted regression: caught, minimized, replayed ───────────
    let armed = WorldOptions { planted_regression: true, ..Default::default() };
    let reg_count = if quick { 60 } else { 200 };
    let reg_kinds = [ScenarioKind::BackendKill, ScenarioKind::Mixed];
    let reg = sweep(&reg_kinds, reg_count, threads, REGRESSION_SEED, &armed);
    let caught = !reg.failures.is_empty();
    let (mut minimized_faults, mut original_faults, mut replay_ok, mut min_seed, mut min_hash) =
        (0usize, 0usize, false, 0u64, 0u64);
    if caught {
        let failure = &reg.failures[0];
        original_faults = failure.plan.faults.len();
        let (minimal, violations) = minimize(&failure.plan, &armed);
        minimized_faults = minimal.faults.len();
        min_seed = minimal.seed;
        let a = run_plan(&minimal, &armed);
        let b = run_plan(&minimal, &armed);
        min_hash = a.hash;
        replay_ok = !violations.is_empty()
            && a.hash == b.hash
            && a.violations == b.violations
            && !a.violations.is_empty();
    }
    let reg_ok = caught && replay_ok;
    ok &= reg_ok;
    out.push_str(&format!(
        "### Planted regression (failover/hedge transport failures skip the breaker)\n\n\
         {reg_count} armed instances (backend-kill + mixed, base seed {REGRESSION_SEED}): \
         {} failing instance(s) — {}\n",
        reg.failures.len(),
        if caught { "caught" } else { "MISSED (FAIL)" }
    ));
    if caught {
        out.push_str(&format!(
            "first failure minimized from {original_faults} fault(s) to {minimized_faults}; \
             the reproducer (seed {min_seed}) replays to transcript hash {min_hash:016x} \
             twice — {}\n",
            if replay_ok { "byte-identical (PASS)" } else { "DIVERGED (FAIL)" }
        ));
    }
    out.push_str(&format!("\noverall: {}\n", if ok { "PASS" } else { "FAIL" }));

    let json = format!(
        "{{\n  \"experiment\": \"E24\",\n  \"quick\": {quick},\n  \
         \"determinism\": {{\"instances\": {det_count}, \"seed\": {DET_SEED}, \
         \"hash_1t\": \"{:016x}\", \"hash_2t\": \"{:016x}\", \"hash_4t\": \"{:016x}\", \
         \"identical\": {det_ok}}},\n  \
         \"invariants\": {{\"instances\": {}, \"seed\": {SWEEP_SEED}, \"wall_s\": {wall_s:.1}, \
         \"requests\": {}, \"ok_responses\": {}, \"failed\": {}, \"elections\": {}, \
         \"violations\": {}, \"pass\": {sweep_ok}}},\n  \
         \"regression\": {{\"instances\": {reg_count}, \"seed\": {REGRESSION_SEED}, \
         \"failures\": {}, \"caught\": {caught}, \"original_faults\": {original_faults}, \
         \"minimized_faults\": {minimized_faults}, \"reproducer_seed\": {min_seed}, \
         \"reproducer_hash\": \"{min_hash:016x}\", \"replay_identical\": {replay_ok}}},\n  \
         \"ok\": {ok}\n}}\n",
        hashes[0],
        hashes[1],
        hashes[2],
        summary.instances,
        t.requests,
        t.ok,
        t.failed,
        t.elections,
        summary.failures.len(),
        reg.failures.len(),
    );
    E24Outcome { report: out, json, ok }
}

/// Registry entry point: the full (non-quick) report.
pub fn report() -> String {
    run_e24(false).report
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_passes_all_gates() {
        let o = super::run_e24(true);
        assert!(o.ok, "{}", o.report);
        assert!(o.json.contains("\"experiment\": \"E24\""));
    }
}
