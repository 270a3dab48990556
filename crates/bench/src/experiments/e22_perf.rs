//! E22 — engine performance: zero-copy messages, pooled links, and the
//! parallel sweep runner, measured against the frozen pre-optimization
//! engine ([`hre_sim::baseline`]).
//!
//! Three claims, three checks:
//!
//! 1. **Correctness is untouched.** On the exhaustive catalog of
//!    asymmetric rings (n ≤ 5, alphabet ≤ 3), the optimized engine
//!    running the optimized `Ak` produces *byte-identical* outcomes —
//!    leader, per-process received/sent message streams, message and time
//!    totals — to the frozen baseline engine running the paper-literal
//!    `AkReference` oracle. Both engines answer every scheduler query in
//!    ascending index order, so deterministic schedulers make the same
//!    decisions and traces are comparable step for step.
//! 2. **Single-thread speedup.** The E17 scale workload (rings of exact
//!    multiplicity 3 from the E17 seed) runs ≥ 3× faster on the new
//!    engine (≥ 1.5× gates the CI quick mode); outcomes must agree
//!    exactly at every size.
//! 3. **Parallel scaling.** The sweep runner fans a ring catalog across
//!    threads; reports must be identical at every thread count (hard
//!    assertion), and on multi-core hosts 4 threads must beat 1 by ≥ 2×
//!    wall-clock (skipped, and said so, on single-core hosts).
//!
//! A fourth section reports, without a gate, the engine's cost per atomic
//! action as the daemon pays it: `ak` and `bk` through
//! [`hre_svc::run_election`] on rings shaped like perfbench's
//! `cold-distinct` workload (n 24–48, k 2–3; 200 rings, 40 in quick
//! mode), as the median, min and max of five repeats — the number that
//! tracks the engine across changes. A shared virtual machine's speed
//! swings with its host's load (seven runs of one tree read `ak` at 48–77
//! ns per action), so a fixed probe that runs no repository code — digit
//! parsing and small sorts — is timed before and after every repeat, and
//! each repeat is also reported scaled to the probe's reference speed.
//!
//! The machine-readable result is written to `BENCH_e22.json` at the repo
//! root by the `exp_perf` binary.

use hre_analysis::Table;
use hre_core::{Ak, AkReference, Bk};
use hre_ring::generate::random_exact_multiplicity;
use hre_ring::{enumerate, RingLabeling};
use hre_sim::baseline::run_baseline;
use hre_sim::{run, sweep_map, RoundRobinSched, RunOptions};
use hre_svc::{run_election, AlgoId, ElectRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// E17's seed: the speedup is measured on the same ring family E17 sweeps.
const E17_SEED: u64 = 1717;
/// Seed for the parallel-scaling catalog.
const SWEEP_SEED: u64 = 2222;
/// Seed for the served per-action rings.
const SERVED_SEED: u64 = 2223;
/// Repeats of the served per-action measurement.
const SERVED_REPEATS: usize = 5;
/// Wall time of one [`probe_unit`] on the host E22 was written on (2-vCPU
/// x86-64 VM, release build; its fastest readings). Only ratios to it are
/// used, so its exact value scales every scaled figure alike.
const PROBE_REFERENCE_NS: f64 = 550_000.0;
/// Timed probe units per reading; their median counts.
const PROBE_REPS: usize = 5;
/// Bytes of the probe's text.
const PROBE_TEXT: usize = 1 << 14;

/// Everything the run produced: the human report, the machine-readable
/// JSON (the contents of `BENCH_e22.json`), and the gate verdict.
pub struct E22Outcome {
    /// Rendered report (tables + gate lines).
    pub report: String,
    /// JSON document for `BENCH_e22.json`.
    pub json: String,
    /// Every gate passed.
    pub ok: bool,
}

/// A run's observable outcome, flattened for exact comparison. Streams are
/// rendered through `Debug`, so equality is byte equality.
fn outcome_key<M: std::fmt::Debug + Clone>(rep: &hre_sim::RunReport<M>, n: usize) -> String {
    let t = rep.trace.as_ref().expect("recorded run");
    let streams: Vec<String> =
        (0..n).map(|p| format!("r{:?}s{:?}", t.received_stream(p), t.sent_stream(p))).collect();
    format!(
        "leader={:?} msgs={} time={} wire={} space={} {}",
        rep.leader,
        rep.metrics.messages,
        rep.metrics.time_units,
        rep.metrics.wire_bits,
        rep.metrics.peak_space_bits,
        streams.join("|")
    )
}

/// Wall-clock of the best of `reps` invocations, in milliseconds.
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// A ring shaped like perfbench's `cold-distinct` requests: `n` labels
/// drawn without replacement from `k` copies of `1..=n`, asymmetric.
fn cold_shaped_ring(rng: &mut StdRng, n: usize, k: usize) -> Vec<u64> {
    loop {
        let mut pool: Vec<u64> = (1..=n as u64).flat_map(|l| std::iter::repeat_n(l, k)).collect();
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.gen_range(0..=i));
        }
        pool.truncate(n);
        if RingLabeling::from_raw(&pool).is_asymmetric() {
            return pool;
        }
    }
}

/// Median, min and max of `xs`.
fn spread(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0], xs[xs.len() - 1])
}

/// The host-speed probe's text: a JSON-like array of small numbers, as in
/// an election request.
fn probe_text() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(SERVED_SEED);
    let mut text = b"[".to_vec();
    while text.len() < PROBE_TEXT - 8 {
        text.extend_from_slice(rng.gen_range(0..300u32).to_string().as_bytes());
        text.push(b',');
    }
    text.push(b']');
    text
}

/// One fixed unit of work that runs no repository code: parsing the
/// digits of `text` (byte-wise branches) and building, sorting and
/// dropping small vectors (the allocator and data-dependent branches) —
/// the socket-free part of perfbench's speed probe. Returns a checksum,
/// the same on every call.
fn probe_unit(text: &[u8]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..12 {
        let mut number = 0u64;
        for &b in text {
            if b.is_ascii_digit() {
                number = number * 10 + u64::from(b - b'0');
            } else if b == b',' {
                acc = (acc ^ number).wrapping_mul(0x0100_0000_01B3);
                number = 0;
            }
        }
    }
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut kept: Vec<Vec<u64>> = Vec::with_capacity(64);
    for round in 0..1_500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut v: Vec<u64> = (0..8 + (x % 33)).map(|j| (x >> (j % 48)) ^ (j * round)).collect();
        v.sort_unstable();
        acc = acc.wrapping_add(v[v.len() / 2]);
        kept.push(v);
        if kept.len() == 64 {
            kept.clear();
        }
    }
    acc
}

/// One probe reading: the median nanoseconds of [`PROBE_REPS`] units,
/// after one untimed unit.
fn probe_ns(text: &[u8]) -> f64 {
    std::hint::black_box(probe_unit(text));
    let mut ns: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(probe_unit(std::hint::black_box(text)));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[PROBE_REPS / 2]
}

/// Runs the experiment. `quick` shrinks the workload (and relaxes the
/// speedup gate to the CI threshold of 1.5×) for fast iteration.
pub fn run_e22(quick: bool) -> E22Outcome {
    let mut out = String::new();
    let mut ok = true;
    let threads_avail = std::thread::available_parallelism().map_or(1, |p| p.get());
    let opts = RunOptions::default();
    let rec = RunOptions { record_trace: true, ..RunOptions::default() };

    // ── 1. Oracle agreement on the exhaustive small-ring catalog ─────────
    let catalog: Vec<RingLabeling> =
        (2..=5usize).flat_map(|n| enumerate::asymmetric_labelings(n, 3)).collect();
    let divergences: usize = sweep_map(&catalog, threads_avail, |_, ring| {
        let k = ring.max_multiplicity().max(1);
        let oracle = run_baseline(&AkReference::new(k), ring, &mut RoundRobinSched::default(), rec);
        let fast = run(&Ak::new(k), ring, &mut RoundRobinSched::default(), rec);
        usize::from(
            outcome_key(&oracle, ring.n()) != outcome_key(&fast, ring.n())
                || !oracle.clean()
                || !fast.clean(),
        )
    })
    .into_iter()
    .sum();
    ok &= divergences == 0;
    out.push_str(&format!(
        "### Oracle agreement\n\nOptimized engine + optimized Ak vs frozen baseline engine + \
         paper-literal AkReference,\nexhaustive asymmetric catalog n ≤ 5, alphabet ≤ 3: \
         {} rings, {} divergence(s)\n(byte-identical leader, metrics, and per-process \
         message streams required).\n\n",
        catalog.len(),
        divergences
    ));

    // ── 2. Single-thread speedup on the E17 workload ─────────────────────
    let mut rng = StdRng::seed_from_u64(E17_SEED);
    let sizes: &[usize] = if quick { &[64, 128] } else { &[64, 128, 256, 512] };
    let max_gen = *sizes.last().unwrap();
    let mut all_sizes = vec![64usize];
    while *all_sizes.last().unwrap() * 2 <= max_gen {
        let next = all_sizes.last().unwrap() * 2;
        all_sizes.push(next);
    }
    let rings: Vec<(usize, RingLabeling)> =
        all_sizes.iter().map(|&n| (n, random_exact_multiplicity(n, 3, &mut rng))).collect();

    let mut t = Table::new(["n", "algo", "baseline ms", "optimized ms", "speedup", "agree"]);
    let mut speedups = Vec::new();
    let mut rows_json = Vec::new();
    for (n, ring) in rings.iter().filter(|(n, _)| sizes.contains(n)) {
        for (algo, cap) in [("Ak", usize::MAX), ("Bk", 256)] {
            if *n > cap {
                continue;
            }
            let reps = if *n >= 256 { 1 } else { 2 };
            let (old_ms, old_rep, new_ms, new_rep) = if algo == "Ak" {
                let (o_ms, o) = best_ms(reps, || {
                    run_baseline(&Ak::new(3), ring, &mut RoundRobinSched::default(), opts)
                });
                let (n_ms, r) =
                    best_ms(reps, || run(&Ak::new(3), ring, &mut RoundRobinSched::default(), opts));
                (o_ms, (o.leader, o.metrics), n_ms, (r.leader, r.metrics))
            } else {
                let (o_ms, o) = best_ms(reps, || {
                    run_baseline(&Bk::new(3), ring, &mut RoundRobinSched::default(), opts)
                });
                let (n_ms, r) =
                    best_ms(reps, || run(&Bk::new(3), ring, &mut RoundRobinSched::default(), opts));
                (o_ms, (o.leader, o.metrics), n_ms, (r.leader, r.metrics))
            };
            let agree = old_rep == new_rep;
            ok &= agree;
            let speedup = old_ms / new_ms;
            if algo == "Ak" {
                speedups.push(speedup);
            }
            t.row([
                n.to_string(),
                algo.into(),
                format!("{old_ms:.2}"),
                format!("{new_ms:.2}"),
                format!("{speedup:.1}x"),
                if agree { "✓".into() } else { "✗".to_string() },
            ]);
            rows_json.push(format!(
                "{{\"n\":{n},\"algo\":\"{algo}\",\"baseline_ms\":{old_ms:.3},\
                 \"optimized_ms\":{new_ms:.3},\"speedup\":{speedup:.2},\"agree\":{agree}}}"
            ));
        }
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let gate = if quick { 1.5 } else { 3.0 };
    let speed_ok = geomean >= gate;
    ok &= speed_ok;
    out.push_str(&format!(
        "### Single-thread speedup (E17 workload, seed {E17_SEED}, round-robin)\n\n{}\n\
         Ak geometric-mean speedup: {geomean:.1}x (gate: ≥ {gate}x — {})\n\
         (the baseline re-scans all n processes per step and builds the scheduler's \
         bitset enabled set from the result)\n\n",
        t.render(),
        if speed_ok { "PASS" } else { "FAIL" }
    ));

    // ── 3. Parallel sweep scaling + thread-count invariance ──────────────
    let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
    let (count, n_sweep) = if quick { (8, 64) } else { (16, 128) };
    let sweep_rings: Vec<RingLabeling> =
        (0..count).map(|_| random_exact_multiplicity(n_sweep, 3, &mut rng)).collect();
    let digest = |threads: usize| {
        sweep_map(&sweep_rings, threads, |_, ring| {
            let rep = run(&Ak::new(3), ring, &mut RoundRobinSched::default(), opts);
            (rep.leader, rep.metrics)
        })
    };
    let (ms1, d1) = best_ms(1, || digest(1));
    let (ms4, d4) = best_ms(1, || digest(4));
    let invariant = d1 == d4;
    ok &= invariant;
    let scaling = ms1 / ms4;
    let scaling_gate = if threads_avail >= 4 {
        let pass = scaling >= 2.0;
        ok &= pass;
        if pass {
            "PASS".to_string()
        } else {
            "FAIL".to_string()
        }
    } else {
        format!("SKIPPED ({threads_avail} core(s) available)")
    };
    out.push_str(&format!(
        "### Parallel sweep ({count} rings, n = {n_sweep}, Ak)\n\n\
         threads=1: {ms1:.1} ms; threads=4: {ms4:.1} ms; scaling {scaling:.2}x \
         (gate: ≥ 2x at ≥ 4 cores — {scaling_gate})\n\
         thread-count invariance (identical reports at 1 and 4 threads): {}\n\n",
        if invariant { "HOLDS" } else { "VIOLATED" },
    ));

    // ── 4. Served cost per action (report only) ──────────────────────────
    let mut rng = StdRng::seed_from_u64(SERVED_SEED);
    let served_rings = if quick { 40 } else { 200 };
    let shapes: Vec<(Vec<u64>, usize)> = (0..served_rings)
        .map(|_| {
            let (n, k) = (rng.gen_range(24..=48), rng.gen_range(2..=3));
            (cold_shaped_ring(&mut rng, n, k), k)
        })
        .collect();
    let algos = [AlgoId::Ak, AlgoId::Bk];
    let reqs: Vec<Vec<ElectRequest>> = algos
        .iter()
        .map(|&algo| {
            shapes
                .iter()
                .map(|(labels, k)| {
                    ElectRequest::new(labels.clone(), algo, Some(*k)).expect("a valid request")
                })
                .collect()
        })
        .collect();
    // One pass over the rings: (actions fired, wall ns).
    let pass = |reqs: &[ElectRequest]| {
        let t0 = Instant::now();
        let actions: u64 = reqs
            .iter()
            .map(|req| run_election(req).expect("an asymmetric ring elects").actions)
            .sum();
        (actions, t0.elapsed().as_nanos() as f64)
    };
    // An untimed warm-up pass each, then the repeats alternate between the
    // algorithms, so a drift in the host's speed reaches both alike. The
    // probe is read before the first repeat and after each, and a repeat
    // is scaled by the mean of the readings around it.
    for r in &reqs {
        pass(r);
    }
    let text = probe_text();
    let mut readings = vec![probe_ns(&text)];
    let mut per_action = vec![Vec::new(); algos.len()];
    let mut scaled = vec![Vec::new(); algos.len()];
    let mut actions = vec![0; algos.len()];
    for _ in 0..SERVED_REPEATS {
        for (a, r) in reqs.iter().enumerate() {
            let (fired, ns) = pass(r);
            readings.push(probe_ns(&text));
            let around = (readings[readings.len() - 2] + readings[readings.len() - 1]) / 2.0;
            let raw = ns / fired as f64;
            actions[a] = fired;
            per_action[a].push(raw);
            scaled[a].push(raw * PROBE_REFERENCE_NS / around);
        }
    }
    let mut t = Table::new([
        "algo",
        "actions / pass",
        "ns/action median",
        "min",
        "max",
        "scaled median",
        "min",
        "max",
    ]);
    let mut served_json = Vec::new();
    for (((algo, raw), scaled), actions) in algos.iter().zip(per_action).zip(scaled).zip(actions) {
        let (median, min, max) = spread(raw);
        let (s_median, s_min, s_max) = spread(scaled);
        t.row([
            algo.name().to_string(),
            actions.to_string(),
            format!("{median:.1}"),
            format!("{min:.1}"),
            format!("{max:.1}"),
            format!("{s_median:.1}"),
            format!("{s_min:.1}"),
            format!("{s_max:.1}"),
        ]);
        served_json.push(format!(
            "{{\"algo\":\"{}\",\"rings\":{served_rings},\"actions\":{actions},\
             \"repeats\":{SERVED_REPEATS},\"ns_per_action\":{{\"median\":{median:.1},\
             \"min\":{min:.1},\"max\":{max:.1}}},\"scaled_ns_per_action\":{{\
             \"median\":{s_median:.1},\"min\":{s_min:.1},\"max\":{s_max:.1}}}}}",
            algo.name()
        ));
    }
    let (p_median, p_min, p_max) = spread(readings.iter().map(|ns| ns / 1e3).collect());
    out.push_str(&format!(
        "### Served cost per action ({served_rings} cold-distinct-shaped rings, n 24–48, k 2–3, \
         seed {SERVED_SEED}; report only)\n\n{}\n\
         (each repeat runs every ring once through `hre_svc::run_election`, round-robin, and \
         divides the wall time by the actions fired; after one untimed pass each, the \
         {SERVED_REPEATS} repeats alternate between the algorithms; median, min and max. \
         Scaled: each repeat times {PROBE_REFERENCE_NS:.0} ns over the mean of the host-speed \
         probe's readings before and after it; the {} readings took {p_median:.1} µs \
         (min {p_min:.1}, max {p_max:.1}))\n\n\
         overall: {}\n",
        t.render(),
        readings.len(),
        if ok { "PASS" } else { "FAIL" }
    ));

    let json = format!(
        "{{\n  \"experiment\": \"E22\",\n  \"quick\": {quick},\n  \"cores\": {threads_avail},\n  \
         \"oracle\": {{\"rings_checked\": {}, \"divergences\": {divergences}}},\n  \
         \"single_thread\": [\n    {}\n  ],\n  \"ak_geomean_speedup\": {geomean:.2},\n  \
         \"baseline_step\": \"O(n) enabled re-scan, then a bitset EnabledSet built from it\",\n  \
         \"speedup_gate\": {gate},\n  \"parallel\": {{\"rings\": {count}, \"n\": {n_sweep}, \
         \"wall_ms_1t\": {ms1:.3}, \"wall_ms_4t\": {ms4:.3}, \"scaling\": {scaling:.2}, \
         \"invariant\": {invariant}, \"scaling_gate\": \"{scaling_gate}\"}},\n  \
         \"served_per_action\": [\n    {}\n  ],\n  \
         \"probe\": {{\"reference_ns\": {PROBE_REFERENCE_NS:.0}, \"readings\": {}, \
         \"us\": {{\"median\": {p_median:.1}, \"min\": {p_min:.1}, \"max\": {p_max:.1}}}}},\n  \
         \"ok\": {ok}\n}}\n",
        catalog.len(),
        rows_json.join(",\n    "),
        served_json.join(",\n    "),
        readings.len(),
    );
    E22Outcome { report: out, json, ok }
}

/// Registry entry point: the full (non-quick) report.
pub fn report() -> String {
    run_e22(false).report
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_passes_all_gates() {
        let o = super::run_e22(true);
        assert!(o.ok, "{}", o.report);
        assert!(o.report.contains("0 divergence(s)"), "{}", o.report);
        assert!(o.json.contains("\"ok\": true"), "{}", o.json);
    }
}
