//! The `/elect` API surface: request parsing, election execution, and
//! response building.
//!
//! Everything that decides response **bytes** lives here, and only here,
//! so the daemon's `POST /elect` and the CLI's `hre elect --json` emit
//! byte-identical documents for the same ring and algorithm; the one
//! exception, the cost-cap refusals, comes from the engine registry
//! ([`hre_algos::Engine::admit`]), which `hre elect` also applies. The daemon
//! additionally runs elections in *canonical coordinates* (the least
//! rotation of the label sequence) so rotationally-equivalent requests
//! share cache entries; [`ElectOutcome::into_coords`] maps a canonical
//! outcome back into the coordinates of the request.

use crate::json::{ArrayWriter, Json, Kind, ObjWriter, Parser};
use hre_ring::RingLabeling;
use hre_sim::RoundRobinSched;
use hre_words::Label;

/// Largest ring the service accepts. A 4096-process Ak election is
/// already tens of millions of atomic actions; beyond this the request
/// would blow the per-request deadline anyway.
pub const MAX_RING: usize = 4096;

/// The engines the service can run, by wire name: the registry's key.
pub use hre_algos::AlgoId;

/// A validated election request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectRequest {
    /// Raw labels, clockwise, as sent by the client.
    pub labels: Vec<u64>,
    /// Algorithm to run.
    pub algo: AlgoId,
    /// Multiplicity bound `k` (defaulted to the ring's actual maximum
    /// multiplicity when the client omits it, exactly like the CLI).
    pub k: usize,
}

impl ElectRequest {
    /// Builds and validates a request; `k = None` uses the ring's actual
    /// maximum label multiplicity.
    pub fn new(labels: Vec<u64>, algo: AlgoId, k: Option<usize>) -> Result<ElectRequest, String> {
        if labels.len() < 2 {
            return Err("ring needs at least two labels".into());
        }
        if labels.len() > MAX_RING {
            return Err(format!("ring too large ({} labels, max {MAX_RING})", labels.len()));
        }
        let k = match k {
            Some(0) => return Err("k must be >= 1".into()),
            Some(k) => k,
            None => RingLabeling::from_raw(&labels).max_multiplicity(),
        };
        Ok(ElectRequest { labels, algo, k: algo.effective_k(k) })
    }

    /// Parses a `POST /elect` JSON body:
    /// `{"ring": [1,2,2], "algo": "ak", "k": 2}` (`algo` defaults to
    /// `"ak"`, `k` to the ring's maximum multiplicity). One pass over the
    /// bytes, no tree: the answer, error text included, is what
    /// [`Json::parse`] followed by [`ElectRequest::from_doc`] gives.
    pub fn from_json(body: &[u8]) -> Result<ElectRequest, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        Parser::document(text, RequestFields::decode)
            .map_err(|e| format!("bad JSON: {e}"))?
            .into_request()
    }

    /// Parses one already-parsed request document, with the same
    /// validation, in the same order, as the streaming decoders
    /// [`ElectRequest::from_json`] and [`batch_from_json`].
    pub fn from_doc(doc: &Json) -> Result<ElectRequest, String> {
        RequestFields {
            ring: doc.get("ring").map(|ring| {
                let arr = ring.as_arr().ok_or(RING_NOT_ARRAY)?;
                arr.iter().map(|v| v.as_u64().ok_or(BAD_LABEL)).collect()
            }),
            algo: doc.get("algo").map(|a| algo_named(a.as_str())),
            k: doc.get("k").map(|v| v.as_usize().ok_or(BAD_K)),
        }
        .into_request()
    }

    /// The request as a JSON body (what clients send).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(40 + 21 * self.labels.len());
        self.write_json(&mut out);
        out
    }

    /// Appends [`ElectRequest::to_json`] to `out`.
    pub fn write_json(&self, out: &mut String) {
        let mut obj = ObjWriter::new(out);
        obj.nums("ring", &self.labels);
        obj.str("algo", self.algo.name());
        obj.num("k", self.k as u64);
        obj.finish();
    }

    /// The labeled ring described by the request.
    pub fn ring(&self) -> RingLabeling {
        RingLabeling::from_raw(&self.labels)
    }

    /// The same request in canonical (least-rotation) coordinates, plus
    /// the rotation distance `d` such that
    /// `canonical = rotate_left(labels, d)`.
    pub fn canonicalized(&self) -> (ElectRequest, usize) {
        let d = hre_words::canonical_rotation_index(&self.labels);
        let mut labels = self.labels.clone();
        labels.rotate_left(d);
        (ElectRequest { labels, algo: self.algo, k: self.k }, d)
    }

    /// [`ElectRequest::canonicalized`] through a caller-owned
    /// [`hre_words::RotationScratch`]: same result, but Booth's doubled
    /// buffer and failure function are reused across calls instead of
    /// allocated per ring — the batch path canonicalizes every entry
    /// with one scratch.
    pub fn canonicalized_with(
        &self,
        scratch: &mut hre_words::RotationScratch<u64>,
    ) -> (ElectRequest, usize) {
        let mut labels = Vec::with_capacity(self.labels.len());
        let d = scratch.canonical_rotation_into(&self.labels, &mut labels);
        (ElectRequest { labels, algo: self.algo, k: self.k }, d)
    }
}

const RING_NOT_ARRAY: &str = "\"ring\" must be an array of labels";
const BAD_LABEL: &str = "labels must be non-negative integers";
const BAD_K: &str = "\"k\" must be a positive integer";

/// The first `"ring"`, `"algo"` and `"k"` members of a request
/// document, each already judged, but not yet checked against each
/// other. Both decoders fill one — [`ElectRequest::from_doc`] from a
/// tree, [`RequestFields::decode`] straight from the grammar — and
/// [`RequestFields::into_request`] reports the first error in one fixed
/// order, so both paths answer with the same text.
#[derive(Default)]
struct RequestFields {
    ring: Option<Result<Vec<u64>, &'static str>>,
    algo: Option<Result<AlgoId, String>>,
    k: Option<Result<usize, &'static str>>,
}

impl RequestFields {
    /// Consumes one request document from the grammar. `Err` is a syntax
    /// error; a document that is not an object has no members.
    fn decode(p: &mut Parser<'_>) -> Result<RequestFields, String> {
        let mut fields = RequestFields::default();
        if p.kind()? != Kind::Obj {
            p.skip_value()?;
            return Ok(fields);
        }
        p.object(&mut String::new(), |p, key| {
            match key {
                "ring" if fields.ring.is_none() => fields.ring = Some(decode_labels(p)?),
                "algo" if fields.algo.is_none() => {
                    fields.algo = Some(if p.kind()? == Kind::Str {
                        algo_named(Some(p.string(&mut String::new())?))
                    } else {
                        p.skip_value()?;
                        algo_named(None)
                    });
                }
                "k" if fields.k.is_none() => {
                    fields.k = Some(if p.kind()? == Kind::Num {
                        usize::try_from(p.number()?).map_err(|_| BAD_K)
                    } else {
                        p.skip_value()?;
                        Err(BAD_K)
                    });
                }
                // Unknown members and later duplicates: checked, not kept.
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        Ok(fields)
    }

    fn into_request(self) -> Result<ElectRequest, String> {
        let labels = self.ring.ok_or("missing \"ring\"")??;
        let algo = self.algo.unwrap_or(Ok(AlgoId::Ak))?;
        let k = self.k.transpose()?;
        ElectRequest::new(labels, algo, k)
    }
}

/// The `"ring"` member's value: its labels, or why it has none.
fn decode_labels(p: &mut Parser<'_>) -> Result<Result<Vec<u64>, &'static str>, String> {
    if p.kind()? != Kind::Arr {
        p.skip_value()?;
        return Ok(Err(RING_NOT_ARRAY));
    }
    let mut labels = Vec::new();
    let mut all_labels = true;
    p.array(|p| {
        if p.kind()? == Kind::Num {
            match u64::try_from(p.number()?) {
                Ok(label) => labels.push(label),
                Err(_) => all_labels = false,
            }
        } else {
            p.skip_value()?;
            all_labels = false;
        }
        Ok(())
    })?;
    Ok(if all_labels { Ok(labels) } else { Err(BAD_LABEL) })
}

/// The `"algo"` member's value: a known name, or the error for a
/// non-string (`None`) or an unknown name.
fn algo_named(name: Option<&str>) -> Result<AlgoId, String> {
    let name = name.ok_or("\"algo\" must be a string")?;
    AlgoId::parse(name).ok_or_else(|| {
        let known: Vec<&str> = AlgoId::ALL.iter().map(|a| a.name()).collect();
        format!("unknown algo {name:?} ({})", known.join(" | "))
    })
}

/// The result of a successful election, in the coordinates of whichever
/// ring was actually run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectOutcome {
    /// Index of the elected leader.
    pub leader: usize,
    /// The leader's label (rotation-invariant).
    pub leader_label: u64,
    /// The leader's full counter-clockwise label word `llabels_n(leader)`
    /// (rotation-invariant: rotating the ring re-indexes processes but
    /// the word starting at the leader is unchanged).
    pub label_word: Vec<u64>,
    /// Messages sent.
    pub messages: u64,
    /// Atomic actions fired.
    pub actions: u64,
    /// Virtual time units (longest causal message chain).
    pub time_units: u64,
    /// Total bits on the wire.
    pub wire_bits: u64,
}

impl ElectOutcome {
    /// Re-expresses an outcome computed on the canonical rotation in the
    /// coordinates of a request rotated `d` places to the right of it
    /// (i.e. `canonical = rotate_left(request, d)`). Only the leader
    /// *index* moves; every other field is rotation-invariant.
    pub fn into_coords(mut self, d: usize, n: usize) -> ElectOutcome {
        self.leader = (self.leader + d) % n;
        self
    }
}

/// Runs the requested election in-process (round-robin scheduler, the
/// default everywhere else in the workspace) and reports the outcome in
/// the request's own coordinates. Errors are returned as strings —
/// they are legitimate, cacheable results (e.g. Chang–Roberts violating
/// the spec on a homonym ring does so on every rotation). A request the
/// engine's cost caps refuse ([`hre_algos::Engine::admit`]) is answered
/// without running.
pub fn run_election(req: &ElectRequest) -> Result<ElectOutcome, String> {
    let engine = req.algo.engine();
    let ring = req.ring();
    let t0 = std::time::Instant::now();
    engine.admit(&ring, req.k)?;
    let out = engine.run(&ring, req.k, &mut RoundRobinSched::default(), false);
    if hre_core::hook::installed() {
        hre_core::hook::notify(&hre_core::hook::ElectionRun {
            algo: req.algo.name(),
            n: ring.n(),
            messages: out.metrics.messages,
            time_units: out.metrics.time_units,
            wall: t0.elapsed(),
        });
    }
    let leader = match (out.accepted, out.leader) {
        (true, Some(l)) => l,
        _ => {
            return Err(format!(
                "election did not satisfy the specification (algo {}, n {})",
                req.algo.name(),
                ring.n()
            ))
        }
    };
    let metrics = out.metrics;
    Ok(ElectOutcome {
        leader,
        leader_label: ring.label(leader).raw(),
        label_word: ring.llabels_n(leader).iter().map(|l: &Label| l.raw()).collect(),
        messages: metrics.messages,
        actions: metrics.actions,
        time_units: metrics.time_units,
        wire_bits: metrics.wire_bits,
    })
}

/// Builds the canonical success-response document. Field order is part
/// of the contract: `hre elect --json` and `POST /elect` both emit this
/// and must stay byte-identical.
pub fn response_json(req: &ElectRequest, out: &ElectOutcome) -> String {
    // Room for every member at its widest (20-digit numbers), so the
    // one buffer never grows.
    let mut body = String::with_capacity(320 + 21 * (req.labels.len() + out.label_word.len()));
    write_response(&mut body, req, out);
    body
}

/// Appends [`response_json`] to `body`.
pub(crate) fn write_response(body: &mut String, req: &ElectRequest, out: &ElectOutcome) {
    let mut obj = ObjWriter::new(body);
    obj.str("algo", req.algo.name());
    obj.nums("ring", &req.labels);
    obj.num("n", req.labels.len() as u64);
    obj.num("k", req.k as u64);
    obj.num("leader", out.leader as u64);
    obj.num("leader_label", out.leader_label);
    obj.nums("label_word", &out.label_word);
    obj.num("messages", out.messages);
    obj.num("actions", out.actions);
    obj.num("time_units", out.time_units);
    obj.num("wire_bits", out.wire_bits);
    obj.finish();
}

/// Builds the error-response document (also byte-stable).
pub fn error_json(message: &str) -> String {
    let mut body = String::with_capacity(16 + message.len());
    write_error(&mut body, message);
    body
}

/// Appends [`error_json`] to `body`.
pub(crate) fn write_error(body: &mut String, message: &str) {
    let mut obj = ObjWriter::new(body);
    obj.str("error", message);
    obj.finish();
}

/// Largest number of entries accepted in one `POST /elect/batch` body.
/// Together with [`MAX_RING`] this bounds the work one request can
/// demand; callers wanting more send more batches down the same
/// (pipelined) connection.
pub const MAX_BATCH: usize = 1024;

/// Parses a `POST /elect/batch` JSON body: an **array** of the same
/// documents `POST /elect` takes, e.g.
/// `[{"ring":[1,2,2]},{"ring":[2,1],"algo":"bk","k":2}]`.
///
/// Batch-level problems (not UTF-8, not JSON, not an array, empty, over
/// [`MAX_BATCH`]) fail the whole batch with `Err`. Per-entry validation
/// problems do **not**: each entry parses independently, and an invalid
/// entry is preserved in place as `Err(message)` with the exact message
/// single-request `POST /elect` would produce, so the response array
/// always matches the request array position by position.
pub fn batch_from_json(body: &[u8]) -> Result<Vec<Result<ElectRequest, String>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut count = 0usize;
    let entries = Parser::document(text, |p| {
        if p.kind()? != Kind::Arr {
            p.skip_value()?;
            return Ok(None);
        }
        let mut entries = Vec::new();
        p.array(|p| {
            // Entries past the cap are still checked for syntax (a syntax
            // error anywhere decides the answer) and counted, not kept.
            if count < MAX_BATCH {
                entries.push(RequestFields::decode(p)?.into_request());
            } else {
                p.skip_value()?;
            }
            count += 1;
            Ok(())
        })?;
        Ok(Some(entries))
    })
    .map_err(|e| format!("bad JSON: {e}"))?
    .ok_or("batch body must be a JSON array of election requests")?;
    if count == 0 {
        return Err("batch is empty".into());
    }
    if count > MAX_BATCH {
        return Err(format!("batch too large ({count} entries, max {MAX_BATCH})"));
    }
    Ok(entries)
}

/// Joins per-entry response documents into the batch response body.
/// Each part is already a complete JSON document (success or error
/// object); the batch body is exactly `[part,part,…]` with no
/// whitespace, so an entry's bytes inside the array are identical to
/// that entry's single-request response body. `hre elect --batch-file`
/// joins with it; the daemon and the router's scatter-gather write the
/// same layout straight into one buffer with [`ArrayWriter`].
pub fn batch_response_body(parts: &[String]) -> String {
    let mut out = String::with_capacity(parts.iter().map(|p| p.len() + 1).sum::<usize>() + 2);
    let mut arr = ArrayWriter::new(&mut out);
    for part in parts {
        arr.element().push_str(part);
    }
    arr.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_defaults() {
        let req = ElectRequest::from_json(br#"{"ring":[1,3,1,3,2,2,1,2]}"#).expect("parse");
        assert_eq!(req.algo, AlgoId::Ak);
        assert_eq!(req.k, 3); // actual max multiplicity of the figure-1 ring
        let req = ElectRequest::from_json(br#"{"ring":[1,2,2],"algo":"bk","k":1}"#).expect("parse");
        assert_eq!(req.algo, AlgoId::Bk);
        assert_eq!(req.k, 2); // bk clamps to >= 2
    }

    #[test]
    fn rejects_bad_requests() {
        for body in [
            &br#"{"algo":"ak"}"#[..],              // no ring
            br#"{"ring":[1]}"#,                    // too small
            br#"{"ring":[1,2],"algo":"quantum"}"#, // unknown algo
            br#"{"ring":[1,-2]}"#,                 // negative label
            br#"{"ring":[1,2],"k":0}"#,            // zero k
            br#"{"ring":"1,2"}"#,                  // ring not an array
            b"not json",
        ] {
            assert!(ElectRequest::from_json(body).is_err(), "{:?}", String::from_utf8_lossy(body));
        }
        let huge: Vec<u64> = (0..=MAX_RING as u64).collect();
        assert!(ElectRequest::new(huge, AlgoId::Ak, None).is_err());
    }

    #[test]
    fn election_runs_and_reports() {
        let req = ElectRequest::new(vec![1, 2, 2], AlgoId::Ak, Some(2)).expect("req");
        let out = run_election(&req).expect("clean election");
        assert_eq!(out.leader, 0);
        assert_eq!(out.leader_label, 1);
        assert_eq!(out.label_word.len(), 3);
        assert!(out.messages > 0);
        let body = response_json(&req, &out);
        assert!(
            body.starts_with(r#"{"algo":"ak","ring":[1,2,2],"n":3,"k":2,"leader":0"#),
            "{body}"
        );
        // The response parses back and the label word starts at the leader.
        let doc = Json::parse(&body).expect("valid json");
        assert_eq!(doc.get("leader_label").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn ak_and_bk_past_the_action_budget_are_rejected_before_running() {
        // On [1,2,3] the bounds are 18k + 9 (ak, the exact count) and
        // 9k² + 3k + 6 (bk): the largest admitted k runs, clean, inside
        // the budget; the next one is refused without an engine run.
        use hre_algos::min_clean_actions;
        let budget = hre_sim::RunOptions::default().max_actions;
        for (algo, k_max) in [(AlgoId::Ak, 1_111_110), (AlgoId::Bk, 1_490)] {
            let req = |k| ElectRequest::new(vec![1, 2, 3], algo, Some(k)).expect("req");
            let ring = req(k_max).ring();
            let admitted = min_clean_actions(algo, &ring, k_max).unwrap();
            assert!(admitted <= u128::from(budget), "{algo:?}: {admitted}");
            // Each such run is ~20 M actions: ~20 s unoptimised, so only
            // optimised builds run it.
            if !cfg!(debug_assertions) {
                let out = run_election(&req(k_max)).expect("the largest admitted k elects");
                assert!(out.actions <= budget, "{algo:?}: {} actions", out.actions);
                assert!(admitted <= u128::from(out.actions), "{algo:?}: {}", out.actions);
            }

            let bound = min_clean_actions(algo, &ring, k_max + 1).unwrap();
            assert!(bound > u128::from(budget), "{algo:?}: {bound}");
            let t0 = std::time::Instant::now();
            let err = run_election(&req(k_max + 1)).expect_err("past the budget");
            assert!(t0.elapsed() < std::time::Duration::from_millis(100), "{:?}", t0.elapsed());
            assert!(err.contains(&format!("needs at least {bound} actions")), "{err}");
            assert!(err.contains(&format!("the {budget} action budget")), "{err}");
        }
        // The 44-byte request from the CI smoke.
        let req = ElectRequest::from_json(br#"{"ring":[1,2,3],"algo":"ak","k":1000000000}"#)
            .expect("req");
        let err = run_election(&req).expect_err("refused");
        assert!(err.contains("needs at least 18000000009 actions"), "{err}");
    }

    #[test]
    fn spec_violations_become_errors() {
        // Chang–Roberts elects two leaders on a homonym ring.
        let req = ElectRequest::new(vec![5, 1, 5, 2], AlgoId::Cr, None).expect("req");
        let err = run_election(&req).expect_err("cr must fail on homonyms");
        assert!(err.contains("did not satisfy"), "{err}");
        assert!(error_json(&err).starts_with(r#"{"error":"#));
    }

    #[test]
    fn max_uid_elects_the_max_label_owner() {
        let req = ElectRequest::new(vec![3, 9, 4, 7], AlgoId::MaxUid, None).expect("req");
        let out = run_election(&req).expect("clean election");
        assert_eq!(out.leader, 1);
        assert_eq!(out.leader_label, 9);
        // Duplicate labels break it — reported as a spec error, not a panic.
        let req = ElectRequest::new(vec![7, 1, 7, 2], AlgoId::MaxUid, None).expect("req");
        assert!(run_election(&req).is_err());
    }

    #[test]
    fn content_oblivious_stabilizes_and_is_served() {
        // Never halts and flickers transiently, yet the service accepts
        // it under the stabilizing spec and reports the quiescent leader.
        let req = ElectRequest::new(vec![2, 1, 3, 1], AlgoId::ContentOblivious, None).expect("req");
        let out = run_election(&req).expect("stabilizing election");
        assert_eq!(out.leader, 2);
        assert_eq!(out.leader_label, 3);
        assert_eq!(out.wire_bits, 0, "zero content bits on the wire");
        // A duplicated maximum has two terminal claimants: spec error.
        let req = ElectRequest::new(vec![3, 1, 3], AlgoId::ContentOblivious, None).expect("req");
        assert!(run_election(&req).is_err());
        // Labels beyond the cost cap are rejected deterministically.
        let big = hre_algos::CONTENT_OBLIVIOUS_MAX_LABEL + 1;
        let req = ElectRequest::new(vec![1, big], AlgoId::ContentOblivious, None).expect("req");
        let err = run_election(&req).expect_err("cap");
        assert!(err.contains("requires labels <="), "{err}");
    }

    #[test]
    fn ak_ref_is_bounded_by_its_string_length() {
        let cap = hre_algos::AK_REF_MAX_STRING;
        // (2k+1)·n = 510, the largest value at most 512 that n = 2 reaches.
        let req = ElectRequest::new(vec![1, 2], AlgoId::AkRef, Some(127)).expect("req");
        assert!((2 * req.k + 1) * 2 <= cap && (2 * req.k + 3) * 2 > cap);
        assert_eq!(run_election(&req).expect("at the bound").leader, 0);
        // One step past it, by k and by n: rejected before running.
        let req = ElectRequest::new(vec![1, 2], AlgoId::AkRef, Some(128)).expect("req");
        let err = run_election(&req).expect_err("past the bound");
        assert!(err.contains(&format!("(2k+1)*n <= {cap} (got 514)")), "{err}");
        let distinct: Vec<u64> = (1..=171).collect();
        let req = ElectRequest::new(distinct, AlgoId::AkRef, None).expect("req");
        assert_eq!(req.k, 1);
        let err = run_election(&req).expect_err("past the bound");
        assert!(err.contains("(got 513)"), "{err}");
        // A k that overflows the product is rejected, not wrapped.
        let req = ElectRequest::new(vec![1, 2], AlgoId::AkRef, Some(usize::MAX)).expect("req");
        assert!(run_election(&req).is_err());
    }

    #[test]
    fn batch_parses_entries_independently() {
        let body = br#"[{"ring":[1,2,2]},{"ring":[1]},{"ring":[2,1],"algo":"bk"}]"#;
        let entries = batch_from_json(body).expect("batch parses");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].as_ref().expect("valid").algo, AlgoId::Ak);
        // Entry 1 is invalid but carries the single-request error text.
        let why = entries[1].as_ref().expect_err("too small");
        assert_eq!(why, &ElectRequest::from_json(br#"{"ring":[1]}"#).unwrap_err());
        assert_eq!(entries[2].as_ref().expect("valid").algo, AlgoId::Bk);
    }

    #[test]
    fn batch_level_failures_reject_the_whole_body() {
        for body in [
            &b"not json"[..],
            br#"{"ring":[1,2]}"#, // an object, not an array
            br#"[]"#,
        ] {
            assert!(batch_from_json(body).is_err(), "{:?}", String::from_utf8_lossy(body));
        }
        let huge = format!("[{}]", vec![r#"{"ring":[1,2]}"#; MAX_BATCH + 1].join(","));
        let err = batch_from_json(huge.as_bytes()).expect_err("over MAX_BATCH");
        assert!(err.contains("batch too large"), "{err}");
    }

    #[test]
    fn batch_response_body_concatenates_byte_identical_parts() {
        let req = ElectRequest::new(vec![1, 2, 2], AlgoId::Ak, Some(2)).expect("req");
        let out = run_election(&req).expect("clean");
        let single = response_json(&req, &out);
        let err = error_json("nope");
        let body = batch_response_body(&[single.clone(), err.clone()]);
        assert_eq!(body, format!("[{single},{err}]"));
        // The batch body is itself valid JSON and re-serializes stably.
        let doc = Json::parse(&body).expect("valid json");
        assert_eq!(doc.to_string(), body);
    }

    #[test]
    fn canonicalized_with_scratch_matches_the_allocating_path() {
        let mut scratch = hre_words::RotationScratch::new();
        let base: Vec<u64> = vec![1, 3, 1, 3, 2, 2, 1, 2];
        for d in 0..base.len() {
            let mut labels = base.clone();
            labels.rotate_left(d);
            let req = ElectRequest::new(labels, AlgoId::Ak, None).expect("req");
            assert_eq!(req.canonicalized_with(&mut scratch), req.canonicalized(), "d={d}");
        }
    }

    #[test]
    fn canonical_outcome_maps_back_to_request_coordinates() {
        let base: Vec<u64> = vec![1, 3, 1, 3, 2, 2, 1, 2];
        let n = base.len();
        for d in 0..n {
            let mut labels = base.clone();
            labels.rotate_left(d);
            let req = ElectRequest::new(labels, AlgoId::Ak, None).expect("req");
            let (canon_req, rot) = req.canonicalized();
            assert_eq!(canon_req.labels, hre_words::canonical_rotation(&req.labels));
            let canon_out = run_election(&canon_req).expect("clean");
            let mapped = canon_out.into_coords(rot, n);
            let direct = run_election(&req).expect("clean");
            assert_eq!(mapped, direct, "rotation d={d}");
            // And the response bodies are byte-identical.
            assert_eq!(response_json(&req, &mapped), response_json(&req, &direct));
        }
    }
}
