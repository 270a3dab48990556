//! E26 — batched elections: `POST /elect/batch` answers N elections in
//! one HTTP exchange, byte-identical per entry and ≥ 2× faster than N
//! single requests.
//!
//! Three claims, three checks:
//!
//! 1. **Per-entry byte equality.** Every element of a batch response is
//!    byte-identical to the body a single `POST /elect` returns for that
//!    entry *and* to the in-process `response_json` document `hre elect
//!    --json` emits — across every algorithm in the registry, invalid
//!    entries (which answer `{"error": ...}` in place), spec failures,
//!    and both cache temperatures (a cold daemon and a warm one must
//!    produce the same bytes).
//! 2. **Batched throughput.** On the 100%-rotation workload (every entry
//!    a different rotation of one ring), packing 32 elections per request
//!    yields ≥ 2× elections/s over the classic one-request-per-election
//!    closed loop (≥ 1.3× gates the CI quick mode) — the batch path
//!    amortizes HTTP framing, dispatch, and canonicalization scratch
//!    across entries.
//! 3. **Kernel scratch reuse.** Canonicalizing a batch through one
//!    reused [`hre_words::RotationScratch`] agrees with the allocating
//!    [`hre_words::canonical_rotation_index`] on every input (hard
//!    gate) and its amortized per-entry cost is reported alongside.
//!
//! The machine-readable result is written to `BENCH_e26.json` at the repo
//! root by the `exp_batch` binary.

use hre_analysis::Table;
use hre_svc::{
    run_election, run_load, start, AlgoId, Client, ElectRequest, Json, LoadOptions, SvcConfig,
};
use hre_words::RotationScratch;
use std::time::{Duration, Instant};

/// Entries per batch request in the throughput measurement.
const BATCH: usize = 32;

/// Everything the run produced: the human report, the machine-readable
/// JSON (the contents of `BENCH_e26.json`), and the gate verdict.
pub struct E26Outcome {
    /// Rendered report (tables + gate lines).
    pub report: String,
    /// JSON document for `BENCH_e26.json`.
    pub json: String,
    /// Every gate passed.
    pub ok: bool,
}

/// Ring for the throughput workload: the paper's Figure 1 ring (n = 8).
/// Small on purpose — with warm-cache entries this cheap, the single
/// -request loop is dominated by per-request overhead (framing, parse,
/// dispatch, syscalls), which is exactly the cost batching amortizes.
fn rotation_ring() -> Vec<u64> {
    vec![1, 3, 1, 3, 2, 2, 1, 2]
}

/// The mixed case table: `(label, raw JSON entry)` covering every
/// registry algorithm, an invalid entry, and a spec failure.
fn cases() -> Vec<(&'static str, String)> {
    let fig1 = "[1,3,1,3,2,2,1,2]";
    let mut out: Vec<(&'static str, String)> = vec![
        ("ak", format!(r#"{{"ring":{fig1},"algo":"ak"}}"#)),
        ("ak-ref", format!(r#"{{"ring":{fig1},"algo":"ak-ref"}}"#)),
        ("bk", format!(r#"{{"ring":{fig1},"algo":"bk","k":2}}"#)),
        ("ak k=2 (1,2,2)", r#"{"ring":[1,2,2],"algo":"ak","k":2}"#.into()),
        ("invalid (n=1)", r#"{"ring":[1]}"#.into()),
        ("cr spec-fail", r#"{"ring":[5,1,5,2],"algo":"cr"}"#.into()),
        ("rotation of ak", r#"{"ring":[2,1,3,1,3,2,2,1],"algo":"ak"}"#.into()),
    ];
    for algo in ["cr", "peterson", "oracle-n", "max-uid", "content-oblivious"] {
        out.push((algo, format!(r#"{{"ring":[4,1,3,2,7,5],"algo":"{algo}"}}"#)));
    }
    out
}

/// Serves the case table once against `addr`: each case as a single
/// `POST /elect`, then all of them as one batch. Returns
/// `(singles, batch_elements, divergences_vs_single, divergences_vs_local)`.
fn serve_table(addr: &str) -> (Vec<String>, Vec<String>, usize, usize) {
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let table = cases();
    let singles: Vec<String> = table
        .iter()
        .map(|(_, entry)| client.post_json("/elect", entry).expect("single").body_text())
        .collect();
    let body = format!("[{}]", table.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>().join(","));
    let resp = client.post_json("/elect/batch", &body).expect("batch");
    assert_eq!(resp.status, 200, "batch endpoint answered {}", resp.status);
    let elements: Vec<String> = Json::parse(&resp.body_text())
        .expect("batch body is JSON")
        .as_arr()
        .expect("batch body is an array")
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(elements.len(), table.len(), "one element per entry");
    let locals: Vec<String> = table
        .iter()
        .map(|(_, entry)| match ElectRequest::from_json(entry.as_bytes()) {
            Ok(req) => match run_election(&req) {
                Ok(out) => hre_svc::response_json(&req, &out),
                Err(why) => hre_svc::error_json(&why),
            },
            Err(why) => hre_svc::error_json(&why),
        })
        .collect();
    let vs_single = elements.iter().zip(&singles).filter(|(b, s)| b != s).count();
    let vs_local = elements.iter().zip(&locals).filter(|(b, l)| b != l).count();
    (singles, elements, vs_single, vs_local)
}

/// Elections/s of the rotation workload at the given batch size
/// (`0` = classic single requests), against a fresh daemon.
fn throughput(requests: u64, batch: usize) -> f64 {
    let cfg = SvcConfig { workers: 4, deadline: Duration::from_secs(60), ..SvcConfig::default() };
    let handle = start(cfg).expect("bind ephemeral port");
    let base = ElectRequest::new(rotation_ring(), AlgoId::Ak, None).expect("valid ring");
    let load = LoadOptions {
        connections: 4,
        requests,
        bases: vec![base],
        rotate: true,
        batch,
        ..LoadOptions::default()
    };
    let report = run_load(&handle.addr.to_string(), &load).expect("load run");
    handle.shutdown();
    assert_eq!(report.ok, requests, "every election must complete: {report:?}");
    report.throughput()
}

/// Runs the experiment. `quick` shrinks the workload and relaxes the
/// batched-throughput gate to the CI threshold of 1.3×.
pub fn run_e26(quick: bool) -> E26Outcome {
    let mut out = String::new();
    let mut ok = true;

    // ── 1. Per-entry byte equality, cold and warm ────────────────────────
    let handle = start(SvcConfig { workers: 2, ..SvcConfig::default() }).expect("start daemon");
    let addr = handle.addr.to_string();
    // Cold pass: singles compute, the batch that follows hits; warm
    // pass: everything hits. The bytes must never move.
    let (_, cold_elems, cold_vs_single, cold_vs_local) = serve_table(&addr);
    let (_, warm_elems, warm_vs_single, warm_vs_local) = serve_table(&addr);
    let temp_stable = cold_elems == warm_elems;
    let summary = handle.shutdown();
    let eq_ok = cold_vs_single == 0
        && cold_vs_local == 0
        && warm_vs_single == 0
        && warm_vs_local == 0
        && temp_stable;
    ok &= eq_ok;
    out.push_str(&format!(
        "### Per-entry byte equality\n\n{} mixed entries (every registry algorithm, an invalid \
         entry, a spec failure,\na rotation alias) served as singles, as one batch, and run \
         in-process:\n\n\
         cold batch vs singles: {cold_vs_single} divergence(s); vs in-process: {cold_vs_local}\n\
         warm batch vs singles: {warm_vs_single} divergence(s); vs in-process: {warm_vs_local}\n\
         cold bytes == warm bytes: {temp_stable}\n\
         daemon cache over both passes: {} hits / {} misses — {}\n\n",
        cases().len(),
        summary.cache.hits,
        summary.cache.misses,
        if eq_ok { "PASS" } else { "FAIL" }
    ));

    // ── 2. Batched elections/s vs the single-request loop ────────────────
    let requests: u64 = if quick { 1536 } else { 8192 };
    let single_rps = throughput(requests, 0);
    let batched_rps = throughput(requests, BATCH);
    let speedup = batched_rps / single_rps;
    // The claim is about amortizing per-request overhead against the
    // optimized per-entry cost; a debug build inflates the per-entry
    // compute ~50x and drowns that overhead, so unoptimized builds only
    // sanity-check that batching is not a slowdown. CI enforces the
    // real gate via the release `exp_batch` binary.
    let gate = if cfg!(debug_assertions) {
        0.8
    } else if quick {
        1.3
    } else {
        2.0
    };
    let speed_ok = speedup >= gate;
    ok &= speed_ok;
    let mut t = Table::new(["mode", "elections", "elections/s"]);
    t.row(["single /elect".into(), requests.to_string(), format!("{single_rps:.0}")]);
    t.row([format!("batch of {BATCH}"), requests.to_string(), format!("{batched_rps:.0}")]);
    out.push_str(&format!(
        "### Batched throughput (100%-rotation workload, Figure-1 ring, Ak, 4 connections)\n\n{}\n\
         batched speedup: {speedup:.1}x (gate: ≥ {gate}x — {})\n\n",
        t.render(),
        if speed_ok { "PASS" } else { "FAIL" }
    ));

    // ── 3. Kernel scratch reuse across a batch ───────────────────────────
    let n = 256usize;
    let reps: usize = if quick { 2_000 } else { 20_000 };
    let base: Vec<u64> = (0..n as u64).map(|i| i % 11).collect();
    let inputs: Vec<Vec<u64>> = (0..reps)
        .map(|i| {
            let mut v = base.clone();
            v.rotate_left(i % n);
            v
        })
        .collect();
    let mut scratch = RotationScratch::new();
    let mut agree = true;
    let t0 = Instant::now();
    for sigma in &inputs {
        agree &= scratch.least_rotation(sigma) == hre_words::canonical_rotation_index(sigma);
    }
    let both_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let mut acc = 0usize;
    for sigma in &inputs {
        acc = acc.wrapping_add(scratch.least_rotation(sigma));
    }
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    for sigma in &inputs {
        acc = acc.wrapping_add(hre_words::canonical_rotation_index(sigma));
    }
    let alloc_ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(acc);
    ok &= agree;
    let kernel_speedup = alloc_ms / scratch_ms;
    out.push_str(&format!(
        "### Kernel scratch reuse ({reps} canonicalizations, n = {n})\n\n\
         reused RotationScratch: {scratch_ms:.1} ms; allocating per call: {alloc_ms:.1} ms \
         ({kernel_speedup:.2}x, informational)\n\
         agreement with canonical_rotation_index on every input: {} \
         (hard gate — {})\n\n\
         overall: {}\n",
        agree,
        if agree { "PASS" } else { "FAIL" },
        if ok { "PASS" } else { "FAIL" }
    ));
    let _ = both_ms;

    let json = format!(
        "{{\n  \"experiment\": \"E26\",\n  \"quick\": {quick},\n  \
         \"byte_equality\": {{\"entries\": {}, \"cold_vs_single\": {cold_vs_single}, \
         \"cold_vs_local\": {cold_vs_local}, \"warm_vs_single\": {warm_vs_single}, \
         \"warm_vs_local\": {warm_vs_local}, \"cold_equals_warm\": {temp_stable}}},\n  \
         \"throughput\": {{\"elections\": {requests}, \"batch\": {BATCH}, \
         \"single_rps\": {single_rps:.0}, \"batched_rps\": {batched_rps:.0}, \
         \"speedup\": {speedup:.2}, \"gate\": {gate}}},\n  \
         \"kernel\": {{\"reps\": {reps}, \"n\": {n}, \"scratch_ms\": {scratch_ms:.3}, \
         \"alloc_ms\": {alloc_ms:.3}, \"speedup\": {kernel_speedup:.2}, \
         \"agree\": {agree}}},\n  \"ok\": {ok}\n}}\n",
        cases().len(),
    );
    E26Outcome { report: out, json, ok }
}

/// Registry entry point: the full (non-quick) report.
pub fn report() -> String {
    run_e26(false).report
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_passes_all_gates() {
        let o = super::run_e26(true);
        assert!(o.ok, "{}", o.report);
        assert!(o.report.contains("cold batch vs singles: 0 divergence(s)"), "{}", o.report);
        assert!(o.json.contains("\"ok\": true"), "{}", o.json);
    }
}
