//! Seeded sweeps over scenario instances, failure minimization, and
//! replay artifacts.
//!
//! A sweep fans `count` independent worlds through the work-stealing
//! runner in `hre-sim`. Each instance's seed is `item_seed(base, idx)`,
//! so the instance set — and every transcript inside it — is a pure
//! function of `(scenarios, count, base seed)`, independent of the
//! thread count. The summary hash folds every instance hash in index
//! order, making "same sweep on 1 vs 8 threads" a one-u64 comparison.

use crate::scenario::{ScenarioKind, ScenarioPlan};
use crate::world::{run_plan, RunOutcome, RunStats, WorldOptions};
use hre_svc::json::{self, Json};

/// One failing instance, carrying everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Index within the sweep.
    pub idx: usize,
    /// The full plan (seed included).
    pub plan: ScenarioPlan,
    /// The violations observed.
    pub violations: Vec<String>,
    /// The transcript hash of the failing run.
    pub hash: u64,
}

/// What a sweep produced.
#[derive(Clone, Debug)]
pub struct SweepSummary {
    /// Instances executed.
    pub instances: usize,
    /// Fold of every instance's transcript hash, in index order.
    pub hash: u64,
    /// Failing instances (empty on a healthy sweep).
    pub failures: Vec<Failure>,
    /// Counters summed across instances.
    pub totals: RunStats,
}

fn fold_hash(acc: u64, h: u64) -> u64 {
    // FNV-1a over the 8 hash bytes keeps the fold order-sensitive.
    let mut acc = acc;
    for b in h.to_le_bytes() {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// Runs `count` instances cycling through `scenarios`, on `threads`
/// workers. Deterministic in everything but wall time.
pub fn sweep(
    scenarios: &[ScenarioKind],
    count: usize,
    threads: usize,
    base_seed: u64,
    opts: &WorldOptions,
) -> SweepSummary {
    assert!(!scenarios.is_empty(), "sweep needs at least one scenario kind");
    let items: Vec<(usize, ScenarioKind, u64)> = (0..count)
        .map(|idx| (idx, scenarios[idx % scenarios.len()], hre_sim::item_seed(base_seed, idx)))
        .collect();
    let results: Vec<(ScenarioPlan, RunOutcome)> =
        hre_sim::sweep_map(&items, threads, |_, item| {
            let (_, kind, seed) = *item;
            let plan = ScenarioPlan::generate(kind, seed);
            let out = run_plan(&plan, opts);
            (plan, out)
        });
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut failures = Vec::new();
    let mut totals = RunStats::default();
    for (idx, (plan, out)) in results.iter().enumerate() {
        hash = fold_hash(hash, out.hash);
        totals.add(&out.stats);
        if !out.violations.is_empty() {
            failures.push(Failure {
                idx,
                plan: plan.clone(),
                violations: out.violations.clone(),
                hash: out.hash,
            });
        }
    }
    SweepSummary { instances: results.len(), hash, failures, totals }
}

/// Shrinks a failing plan: greedily drops faults, then halves the
/// request load, keeping every step that still violates. The result is
/// the smallest reproducer this ladder reaches, plus its violations.
pub fn minimize(plan: &ScenarioPlan, opts: &WorldOptions) -> (ScenarioPlan, Vec<String>) {
    let mut best = plan.clone();
    let mut violations = run_plan(&best, opts).violations;
    if violations.is_empty() {
        return (best, violations);
    }
    // Drop faults one at a time (restarting after each success, so
    // interacting faults are handled).
    loop {
        let mut shrunk = false;
        for i in 0..best.faults.len() {
            if best.faults.len() == 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.faults.remove(i);
            let out = run_plan(&candidate, opts);
            if !out.violations.is_empty() {
                best = candidate;
                violations = out.violations;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    // Halve the request load while the violation persists.
    while best.requests >= 8 {
        let mut candidate = best.clone();
        candidate.requests /= 2;
        let out = run_plan(&candidate, opts);
        if out.violations.is_empty() {
            break;
        }
        best = candidate;
        violations = out.violations;
    }
    (best, violations)
}

/// Serializes a failure into the replay artifact format.
pub fn artifact_json(f: &Failure, regression: bool) -> String {
    json::obj(vec![
        ("plan", f.plan.to_json()),
        ("idx", Json::Num(f.idx as i128)),
        ("regression", Json::Bool(regression)),
        ("transcript_hash", Json::Str(format!("{:016x}", f.hash))),
        ("violations", Json::Arr(f.violations.iter().map(|v| Json::Str(v.clone())).collect())),
    ])
    .to_string()
}

/// Parses [`artifact_json`]'s output back into `(plan, regression,
/// expected transcript hash)`.
pub fn parse_artifact(text: &str) -> Result<(ScenarioPlan, bool, u64), String> {
    let v = Json::parse(text).map_err(|e| format!("artifact is not valid JSON: {e}"))?;
    let plan = ScenarioPlan::from_json(v.get("plan").ok_or("artifact missing plan")?)?;
    let regression = matches!(v.get("regression"), Some(Json::Bool(true)));
    let hash = v
        .get("transcript_hash")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("artifact missing transcript_hash")?;
    Ok((plan, regression, hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let kinds = [ScenarioKind::BackendKill, ScenarioKind::SlowLinks];
        let opts = WorldOptions::default();
        let one = sweep(&kinds, 12, 1, 77, &opts);
        let four = sweep(&kinds, 12, 4, 77, &opts);
        assert_eq!(one.hash, four.hash, "thread count must not change the sweep");
        assert_eq!(one.instances, four.instances);
        assert_eq!(one.failures.len(), four.failures.len());
    }

    #[test]
    fn regression_sweeps_fail_and_minimize_to_a_replayable_plan() {
        let opts = WorldOptions { planted_regression: true, ..Default::default() };
        let kinds = [ScenarioKind::BackendKill, ScenarioKind::Mixed];
        let mut summary = sweep(&kinds, 60, 2, 1234, &opts);
        assert!(!summary.failures.is_empty(), "the planted regression must surface");
        let failure = summary.failures.remove(0);
        let (minimal, violations) = minimize(&failure.plan, &opts);
        assert!(!violations.is_empty());
        assert!(minimal.faults.len() <= failure.plan.faults.len());
        let a = run_plan(&minimal, &opts);
        let b = run_plan(&minimal, &opts);
        assert_eq!(a.hash, b.hash, "the minimal reproducer replays byte-identically");
    }

    #[test]
    fn artifacts_round_trip_and_replay() {
        let opts = WorldOptions { planted_regression: true, ..Default::default() };
        let summary = sweep(&[ScenarioKind::BackendKill], 60, 2, 99, &opts);
        let failure = summary.failures.first().expect("regression surfaces").clone();
        let text = artifact_json(&failure, true);
        let (plan, regression, hash) = parse_artifact(&text).expect("parses");
        assert_eq!(plan, failure.plan);
        assert!(regression);
        let replayed =
            run_plan(&plan, &WorldOptions { planted_regression: regression, ..Default::default() });
        assert_eq!(replayed.hash, hash, "artifact replay reproduces the transcript");
    }
}
