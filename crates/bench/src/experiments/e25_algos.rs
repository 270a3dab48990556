//! E25 — the algorithm zoo, cross-benchmarked: every registered
//! election engine over exhaustive ring catalogs, with hard agreement
//! gates wherever two engines' assumptions overlap.
//!
//! Two catalogs, chosen so every engine family gets rings it supports:
//!
//! * **asymmetric** — every asymmetric labeling of lengths 2–5 over the
//!   alphabet `{1,2,3}` (the 342-ring catalog the model-checking and
//!   bounds experiments use). The paper's family (`ak`, `ak-ref`, `bk`)
//!   and `oracle-n` support all of it; the max-label family runs on the
//!   unique-maximum subset.
//! * **distinct** — all `n!` permutation labelings of `{0,…,n−1}` for
//!   n = 3–6 (fully identified `K1` rings). Every engine supports these.
//!
//! Three gates:
//!
//! 1. **Universality.** On every supported catalog ring, every engine's
//!    run is accepted under its own termination discipline, elects
//!    exactly one leader, and — when the engine's [`WinnerRule`] has a
//!    closed form — that leader is the rule's predicted process.
//! 2. **Pairwise agreement.** For every ring and every pair of engines
//!    that both support it *and* declare the same winner rule, the two
//!    runs elect the same process. This is the zoo's interchangeability
//!    contract: within a family, engines are substitutes.
//! 3. **Families genuinely differ (negative control).** On rings
//!    supported by both the Lyndon family and the max-label family, the
//!    two families disagree on at least one ring — the agreement gate
//!    above is not vacuously comparing one oracle with itself.
//!
//! The machine-readable result is written to `BENCH_e25.json` at the
//! repo root by the `exp_algos` binary.

use hre_algos::{engines, WinnerRule};
use hre_analysis::{render_cost_curves, summarize_cost_curves, CostCurve, Table};
use hre_ring::{enumerate, RingLabeling};
use hre_runtime::Log2Histogram;
use hre_sim::RoundRobinSched;
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything the run produced: the human report, the machine-readable
/// JSON (the contents of `BENCH_e25.json`), and the gate verdict.
pub struct E25Outcome {
    /// Rendered report (matrix + gate lines).
    pub report: String,
    /// JSON document for `BENCH_e25.json`.
    pub json: String,
    /// Every gate passed.
    pub ok: bool,
}

/// Per-`(catalog, engine, n)` cost accumulator.
#[derive(Default)]
struct Cell {
    rings: u64,
    msgs: u64,
    msgs_max: u64,
    bits: u64,
    time: u64,
    time_max: u64,
    space: u64,
}

/// Runs the experiment. `quick` trims both catalogs for CI.
pub fn run_e25(quick: bool) -> E25Outcome {
    let mut out = String::new();
    let mut ok = true;

    let asym_n = if quick { 4 } else { 5 };
    let asym: Vec<RingLabeling> =
        (2..=asym_n).flat_map(|n| enumerate::asymmetric_labelings(n, 3)).collect();
    let distinct_n = if quick { 4 } else { 6 };
    let distinct: Vec<RingLabeling> =
        (3..=distinct_n).flat_map(enumerate::all_k1_labelings).collect();
    let expected_asym = if quick { 6 + 24 + 72 } else { 6 + 24 + 72 + 240 };
    let catalog_ok = asym.len() == expected_asym;
    ok &= catalog_ok;
    out.push_str(&format!(
        "catalogs: {} asymmetric rings (n ≤ {asym_n}, alphabet 3; expected {expected_asym} — {}), \
         {} distinct-label rings (n ≤ {distinct_n})\n\n",
        asym.len(),
        if catalog_ok { "PASS" } else { "FAIL" },
        distinct.len(),
    ));

    let zoo = engines();
    let mut cells: BTreeMap<(&str, &str, usize), Cell> = BTreeMap::new();
    // Wall-clock runtime distribution per engine, in the same log₂
    // histogram family the daemons export (satellite of the async
    // serving core: the measured cost curve behind each `algo=` label).
    let mut run_seconds: BTreeMap<&str, Log2Histogram> = BTreeMap::new();
    let (mut runs, mut universality_failures) = (0u64, 0u64);
    let (mut pairs_checked, mut pair_disagreements) = (0u64, 0u64);
    let (mut cross_rule_pairs, mut cross_rule_splits) = (0u64, 0u64);
    let mut first_failures: Vec<String> = Vec::new();

    for (catalog, rings) in [("asymmetric", &asym), ("distinct", &distinct)] {
        for ring in rings {
            let k = ring.max_multiplicity();
            // (winner rule, elected leader) per engine that supports this ring.
            let mut elected: Vec<(WinnerRule, usize)> = Vec::new();
            for engine in zoo {
                if engine.supports(ring).is_err() {
                    continue;
                }
                let t0 = Instant::now();
                let o = engine.run(ring, k, &mut RoundRobinSched::default(), false);
                run_seconds.entry(engine.name()).or_default().record(t0.elapsed());
                runs += 1;
                let leader = match (o.accepted, o.leader) {
                    (true, Some(l)) => l,
                    _ => {
                        universality_failures += 1;
                        if first_failures.len() < 3 {
                            first_failures.push(format!(
                                "{} on {:?}: accepted={} leader={:?} verdict={:?}",
                                engine.name(),
                                ring.labels(),
                                o.accepted,
                                o.leader,
                                o.verdict
                            ));
                        }
                        continue;
                    }
                };
                if let Some(want) = engine.oracle_leader(ring) {
                    if leader != want {
                        universality_failures += 1;
                        if first_failures.len() < 3 {
                            first_failures.push(format!(
                                "{} on {:?}: elected {leader}, winner rule says {want}",
                                engine.name(),
                                ring.labels()
                            ));
                        }
                        continue;
                    }
                }
                elected.push((engine.winner(), leader));
                let cell = cells.entry((catalog, engine.name(), ring.n())).or_default();
                cell.rings += 1;
                cell.msgs += o.metrics.messages;
                cell.msgs_max = cell.msgs_max.max(o.metrics.messages);
                cell.bits += o.metrics.wire_bits;
                cell.time += o.metrics.time_units;
                cell.time_max = cell.time_max.max(o.metrics.time_units);
                cell.space += o.metrics.peak_space_bits;
            }
            for (i, &(rule_a, leader_a)) in elected.iter().enumerate() {
                for &(rule_b, leader_b) in &elected[i + 1..] {
                    match (rule_a == rule_b, rule_a) {
                        (true, WinnerRule::Emergent) => {} // no contract between emergent engines
                        (true, _) => {
                            pairs_checked += 1;
                            pair_disagreements += u64::from(leader_a != leader_b);
                        }
                        (false, _) => {
                            if rule_a != WinnerRule::Emergent && rule_b != WinnerRule::Emergent {
                                cross_rule_pairs += 1;
                                cross_rule_splits += u64::from(leader_a != leader_b);
                            }
                        }
                    }
                }
            }
        }
    }

    let mut t = Table::new([
        "catalog", "engine", "n", "rings", "msgs μ", "msgs max", "bits μ", "time μ", "time max",
        "space μ",
    ]);
    for ((catalog, engine, n), c) in &cells {
        let mean = |sum: u64| format!("{:.1}", sum as f64 / c.rings as f64);
        t.row([
            catalog.to_string(),
            engine.to_string(),
            n.to_string(),
            c.rings.to_string(),
            mean(c.msgs),
            c.msgs_max.to_string(),
            mean(c.bits),
            mean(c.time),
            c.time_max.to_string(),
            mean(c.space),
        ]);
    }
    out.push_str(&t.render());

    let universality_ok = universality_failures == 0;
    ok &= universality_ok;
    out.push_str(&format!(
        "\n### Gate 1 — universality\n\n{runs} engine runs; every supported run accepted with \
         the winner rule's leader: {} failure(s) — {}\n",
        universality_failures,
        if universality_ok { "PASS" } else { "FAIL" }
    ));
    for f in &first_failures {
        out.push_str(&format!("  {f}\n"));
    }

    let agreement_ok = pairs_checked > 0 && pair_disagreements == 0;
    ok &= agreement_ok;
    out.push_str(&format!(
        "\n### Gate 2 — pairwise winner agreement (same rule, shared rings)\n\n\
         {pairs_checked} engine pairs compared, {pair_disagreements} disagreement(s) — {}\n",
        if agreement_ok { "PASS" } else { "FAIL" }
    ));

    let control_ok = cross_rule_splits > 0;
    ok &= control_ok;
    out.push_str(&format!(
        "\n### Gate 3 — families genuinely differ (negative control)\n\n\
         Lyndon-family vs max-label-family on shared rings: {cross_rule_splits} of \
         {cross_rule_pairs} pairs elect different processes — {}\n",
        if control_ok { "PASS (the agreement gate is not vacuous)" } else { "FAIL" }
    ));

    // Per-engine cost curve: measured wall-clock runtime distribution,
    // quantile table + the `hre_election_run_seconds{algo}` histogram
    // snapshot (directly overlayable with the daemons' /metrics).
    let curves: Vec<CostCurve> = run_seconds
        .iter()
        .map(|(algo, h)| CostCurve { algo: (*algo).to_string(), snap: h.snapshot() })
        .collect();
    let curve_rows = summarize_cost_curves(&curves);
    out.push_str("\n### Cost curves — measured wall-clock runtime per engine\n\n");
    let mut ct = Table::new(["engine", "runs", "mean µs", "p50 µs", "p95 µs", "p99 µs"]);
    for r in &curve_rows {
        ct.row([
            r.algo.clone(),
            r.count.to_string(),
            format!("{:.1}", r.mean_us),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
        ]);
    }
    out.push_str(&ct.render());
    out.push_str("\nhre_election_run_seconds snapshot (Prometheus text format):\n\n");
    out.push_str(&render_cost_curves(&curves));
    out.push_str(&format!("\noverall: {}\n", if ok { "PASS" } else { "FAIL" }));

    let mut engines_json = String::new();
    let mut rollup: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for ((_, engine, _), c) in &cells {
        let r = rollup.entry(engine).or_default();
        r.0 += c.rings;
        r.1 += c.msgs;
        r.2 += c.time;
        r.3 += c.space;
    }
    for (engine, (rings, msgs, time, space)) in &rollup {
        if !engines_json.is_empty() {
            engines_json.push_str(",\n    ");
        }
        // The measured cost curve rides along with the abstract costs.
        let curve = curve_rows
            .iter()
            .find(|r| r.algo == **engine)
            .map(|r| {
                format!(
                    ", \"run_us\": {{\"count\": {}, \"mean\": {:.2}, \"p50\": {}, \
                     \"p95\": {}, \"p99\": {}}}",
                    r.count, r.mean_us, r.p50_us, r.p95_us, r.p99_us
                )
            })
            .unwrap_or_default();
        engines_json.push_str(&format!(
            "{{\"engine\": \"{engine}\", \"rings\": {rings}, \
             \"messages_mean\": {:.2}, \"time_mean\": {:.2}, \"space_bits_mean\": {:.2}{curve}}}",
            *msgs as f64 / *rings as f64,
            *time as f64 / *rings as f64,
            *space as f64 / *rings as f64,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"E25\",\n  \"quick\": {quick},\n  \
         \"catalogs\": {{\"asymmetric\": {}, \"distinct\": {}, \"asymmetric_expected\": \
         {expected_asym}}},\n  \
         \"runs\": {runs},\n  \"engines\": [{engines_json}],\n  \
         \"universality\": {{\"failures\": {universality_failures}, \"pass\": \
         {universality_ok}}},\n  \
         \"agreement\": {{\"pairs\": {pairs_checked}, \"disagreements\": {pair_disagreements}, \
         \"pass\": {agreement_ok}}},\n  \
         \"negative_control\": {{\"cross_rule_pairs\": {cross_rule_pairs}, \"splits\": \
         {cross_rule_splits}, \"pass\": {control_ok}}},\n  \"ok\": {ok}\n}}\n",
        asym.len(),
        distinct.len(),
    );
    E25Outcome { report: out, json, ok }
}

/// Registry entry point: the full (non-quick) report.
pub fn report() -> String {
    run_e25(false).report
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_passes_all_gates() {
        let o = super::run_e25(true);
        assert!(o.ok, "{}", o.report);
        assert!(o.json.contains("\"experiment\": \"E25\""));
        // The cost-curve slice rides along: one labeled histogram series
        // per engine in the report, quantiles in the JSON.
        assert!(o.report.contains("hre_election_run_seconds_count{algo=\"ak\"}"), "{}", o.report);
        assert!(o.json.contains("\"run_us\""), "{}", o.json);
    }
}
