//! Round-trip property tests for the wire codec — the single source of
//! truth shared (by re-export) between `hre-svc` and `hre-cluster`.
//! These pin the properties that sharing is supposed to guarantee: a
//! request the router serializes is exactly the request a backend
//! parses, for *arbitrary* label sequences, and the JSON printer/parser
//! pair is a bijection on the API's value space.
//!
//! The vendored proptest has no combinator for recursive strategies, so
//! arbitrary `Json` trees are generated from a `(seed, budget)` pair
//! fed through a deterministic splitmix-style builder: same inputs,
//! same tree — which is all a property test needs.

use hre_svc::{AlgoId, ElectRequest, Json};
use proptest::prelude::*;

const ALGOS: [AlgoId; 6] =
    [AlgoId::Ak, AlgoId::AkRef, AlgoId::Bk, AlgoId::Cr, AlgoId::Peterson, AlgoId::OracleN];

/// Arbitrary valid label sequences: full `u64` range, lengths 2..=40.
fn arb_labels() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 2..41)
}

/// Splitmix64: a tiny deterministic stream of u64s from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Strings chosen to exercise every escape path in the writer: quotes,
/// backslashes, the named control escapes, raw sub-0x20 code points
/// (forced through `\uXXXX`), slashes, and multi-byte UTF-8.
fn arb_string(rng: &mut Rng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '0', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{b}', '\u{1f}', ' ', 'é', 'λ',
        '{',
    ];
    let len = (rng.next() % 13) as usize;
    (0..len).map(|_| ALPHABET[(rng.next() % ALPHABET.len() as u64) as usize]).collect()
}

/// Builds one arbitrary `Json` value. `budget` bounds total node count,
/// `depth` bounds nesting; leaves cover null/bool/full-range ints (both
/// signs) and escape-heavy strings.
fn build_json(rng: &mut Rng, budget: &mut usize, depth: u32) -> Json {
    let containers_allowed = depth < 4 && *budget > 0;
    let pick = rng.next() % if containers_allowed { 7 } else { 5 };
    *budget = budget.saturating_sub(1);
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next() & 1 == 0),
        2 => Json::Num(rng.next() as i64 as i128), // negative half included
        3 => Json::Num(rng.next() as i128),        // full u64 range, as labels use
        4 => Json::Str(arb_string(rng)),
        5 => {
            let n = (rng.next() % 5) as usize;
            Json::Arr((0..n).map(|_| build_json(rng, budget, depth + 1)).collect())
        }
        _ => {
            let n = (rng.next() % 5) as usize;
            Json::Obj(
                (0..n).map(|_| (arb_string(rng), build_json(rng, budget, depth + 1))).collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ElectRequest` → JSON body → `ElectRequest` is the identity for
    /// every valid request, over arbitrary labels, algorithms, and
    /// explicit or defaulted k.
    #[test]
    fn elect_request_round_trips(
        labels in arb_labels(),
        algo_ix in 0usize..ALGOS.len(),
        k in (any::<bool>(), 1usize..64).prop_map(|(some, k)| if some { Some(k) } else { None }),
    ) {
        let original = ElectRequest::new(labels, ALGOS[algo_ix], k)
            .expect("valid by construction");
        let body = original.to_json();
        let parsed = ElectRequest::from_json(body.as_bytes()).expect("own output must parse");
        prop_assert_eq!(&parsed, &original, "round trip changed the request: {}", body);
        // And serialization is byte-stable: the comparability contract.
        prop_assert_eq!(parsed.to_json(), body);
    }

    /// The JSON printer/parser pair round-trips every value in the API's
    /// grammar, including strings with quotes, backslashes, control
    /// characters, and the full integer range the labels use.
    #[test]
    fn json_value_round_trips(seed in any::<u64>(), budget in 1usize..48) {
        let mut budget = budget;
        let value = build_json(&mut Rng(seed), &mut budget, 0);
        let text = value.to_string();
        let reparsed = Json::parse(&text)
            .unwrap_or_else(|e| panic!("own output must parse: {e} in {text}"));
        prop_assert_eq!(&reparsed, &value, "round trip changed the value: {}", text);
        prop_assert_eq!(reparsed.to_string(), text, "printing must be stable");
    }

    /// Requests with defaulted algo/k parse to the same request as their
    /// fully-explicit serialization — clients may omit, the wire answer
    /// may not drift.
    #[test]
    fn omitted_fields_default_consistently(labels in arb_labels()) {
        let nums: Vec<String> = labels.iter().map(u64::to_string).collect();
        let terse = format!(r#"{{"ring":[{}]}}"#, nums.join(","));
        let parsed = ElectRequest::from_json(terse.as_bytes()).expect("terse parses");
        let explicit = ElectRequest::from_json(parsed.to_json().as_bytes())
            .expect("explicit parses");
        prop_assert_eq!(parsed, explicit);
    }
}

// ---------------------------------------------------------------------
// Differential properties: the tree-free election codec against the
// `Json` tree. The writers must print the bytes `reference_render`
// prints for the same tree, and the streaming decoders must answer
// exactly what `Json::parse` + `ElectRequest::from_doc` answer.
// ---------------------------------------------------------------------

use hre_svc::json::{self, MAX_DEPTH};
use hre_svc::{batch_from_json, error_json, response_json, ElectOutcome, MAX_BATCH};
use std::fmt::Write as _;

/// A printer of the tree written apart from the crate's: numbers
/// through `fmt`, strings escaped char by char.
fn reference_render(v: &Json) -> String {
    fn escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn render(out: &mut String, v: &Json) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Num(n) => write!(out, "{n}").unwrap(),
            Json::Str(s) => escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(out, item);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, item)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escaped(out, k);
                    out.push(':');
                    render(out, item);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    render(&mut out, v);
    out
}

/// The success response as a tree, member for member.
fn response_tree(req: &ElectRequest, out: &ElectOutcome) -> Json {
    json::obj(vec![
        ("algo", Json::Str(req.algo.name().into())),
        ("ring", json::nums(req.labels.iter().copied())),
        ("n", Json::Num(req.labels.len() as i128)),
        ("k", Json::Num(req.k as i128)),
        ("leader", Json::Num(out.leader as i128)),
        ("leader_label", Json::Num(out.leader_label as i128)),
        ("label_word", json::nums(out.label_word.iter().copied())),
        ("messages", Json::Num(out.messages as i128)),
        ("actions", Json::Num(out.actions as i128)),
        ("time_units", Json::Num(out.time_units as i128)),
        ("wire_bits", Json::Num(out.wire_bits as i128)),
    ])
}

/// The single-request oracle: UTF-8 check, tree parse, `from_doc`.
fn oracle_single(body: &[u8]) -> Result<ElectRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    ElectRequest::from_doc(&doc)
}

/// The batch oracle: the tree-based batch decoder.
fn oracle_batch(body: &[u8]) -> Result<Vec<Result<ElectRequest, String>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let arr = doc.as_arr().ok_or("batch body must be a JSON array of election requests")?;
    if arr.is_empty() {
        return Err("batch is empty".into());
    }
    if arr.len() > MAX_BATCH {
        return Err(format!("batch too large ({} entries, max {MAX_BATCH})", arr.len()));
    }
    Ok(arr.iter().map(ElectRequest::from_doc).collect())
}

fn pick<'s>(rng: &mut Rng, options: &[&'s str]) -> &'s str {
    options[(rng.next() % options.len() as u64) as usize]
}

/// Optional whitespace, as clients may put between tokens.
fn ws(rng: &mut Rng) -> &'static str {
    pick(rng, &["", "", "", " ", "\n", " \t\r\n "])
}

/// A number token: mostly labels, plus the grammar's corner cases.
fn arb_number(rng: &mut Rng) -> String {
    match rng.next() % 32 {
        0 | 1 => u64::MAX.to_string(),
        2 => "18446744073709551616".into(), // u64::MAX + 1
        3 => "-0".into(),
        4 | 5 => format!("00{}", rng.next() % 100), // leading zeros
        6 => format!("-{}", 1 + rng.next() % 9),
        7 => format!("{}0", i128::MAX),  // past i128
        8 => format!("-{}0", i128::MAX), // below i128
        9 => pick(rng, &["1.5", "2e3", "-", "0x1"]).into(),
        _ => (rng.next() % 6).to_string(),
    }
}

/// An `"algo"` value: names plain and escaped, broken escapes, and
/// non-strings.
fn arb_algo(rng: &mut Rng) -> String {
    match rng.next() % 10 {
        0 => r#""ak""#.into(),
        1 => r#""bk""#.into(),
        2 => r#""max-uid""#.into(),
        3 => pick(rng, &[r#""a\k""#, r#""\u00""#, r#""\ud800""#, r#""\u+061""#]).into(),
        4 => pick(rng, &["3", "null", r#"["ak"]"#, r#""quantum""#, r#""\"ak\"""#]).into(),
        _ => format!(r#""{}""#, AlgoId::ALL[(rng.next() % 8) as usize].name()),
    }
}

/// A `"ring"` value: label arrays with corner-case elements, and
/// non-arrays.
fn arb_ring(rng: &mut Rng) -> String {
    if rng.next().is_multiple_of(10) {
        return pick(rng, &[r#""1,2""#, "7", "null", r#"{"ring":[1,2]}"#]).into();
    }
    let len = (rng.next() % 7) as usize;
    let mut out = String::from("[");
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        out.push_str(ws(rng));
        match rng.next() % 16 {
            0 => out.push_str(pick(rng, &["null", r#""1""#, "[1]", "{}", "true"])),
            1..=3 => out.push_str(&arb_number(rng)),
            _ => out.push_str(&(1 + rng.next() % 4).to_string()),
        }
        out.push_str(ws(rng));
    }
    out.push(']');
    out
}

/// One request document: members in random order, with duplicates,
/// unknown members and whitespace; sometimes not an object at all.
fn arb_request(rng: &mut Rng) -> String {
    if rng.next().is_multiple_of(16) {
        return pick(rng, &["[]", "{}", "5", r#""ring""#, "null", r#"[{"ring":[1,2]}]"#]).into();
    }
    let members = 1 + (rng.next() % 5) as usize;
    let mut out = format!("{{{}", ws(rng));
    for i in 0..members {
        if i > 0 {
            out.push_str(&format!("{},{}", ws(rng), ws(rng)));
        }
        let (key, value) = match rng.next() % 10 {
            0..=4 => (r#""ring""#, arb_ring(rng)),
            5 => (r#""algo""#, arb_algo(rng)),
            6 => (r#""k""#, arb_number(rng)),
            7 => (pick(rng, &[r#""ri\u006eg""#, r#""\u0061lgo""#, r#""\u006b""#]), arb_ring(rng)),
            _ => {
                let mut budget = 6;
                let value = reference_render(&build_json(rng, &mut budget, 0));
                (pick(rng, &[r#""x""#, r#""Ring""#, r#""""#, r#""k ""#]), value)
            }
        };
        out.push_str(&format!("{key}{}:{}{value}", ws(rng), ws(rng)));
    }
    out.push_str(&format!("{}}}", ws(rng)));
    out
}

/// A batch body of generated requests; sometimes empty.
fn arb_batch(rng: &mut Rng) -> String {
    let len = (rng.next() % 6) as usize;
    let entries: Vec<String> = (0..len).map(|_| arb_request(rng)).collect();
    format!("{}[{}{}]{}", ws(rng), entries.join(","), ws(rng), ws(rng))
}

/// Byte-level damage: flips, insertions and deletions of structural or
/// non-ASCII bytes, and truncation.
fn mutate(rng: &mut Rng, body: &str) -> Vec<u8> {
    const BYTES: &[u8] = b"[]{}\",:\\-0 9eu.\xc3\xa9\xff\x01";
    let mut bytes = body.as_bytes().to_vec();
    for _ in 0..1 + rng.next() % 3 {
        let at = (rng.next() % (bytes.len() as u64 + 1)) as usize;
        let b = BYTES[(rng.next() % BYTES.len() as u64) as usize];
        match rng.next() % 4 {
            0 if at < bytes.len() => bytes[at] = b,
            1 => bytes.insert(at, b),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tree-free writers print exactly the bytes the tree printed:
    /// success documents (full `u64` range, every algorithm), error
    /// documents over the escape-heavy alphabet, and request bodies.
    #[test]
    fn writers_match_the_tree_rendering(
        seed in any::<u64>(),
        labels in arb_labels(),
        algo_ix in 0usize..AlgoId::ALL.len(),
        k in 1usize..64,
    ) {
        let mut rng = Rng(seed);
        let mut labels = labels;
        if seed.is_multiple_of(3) {
            labels[0] = u64::MAX;
        }
        let req = ElectRequest { labels, algo: AlgoId::ALL[algo_ix], k };
        let wide = |rng: &mut Rng| if rng.next().is_multiple_of(4) { u64::MAX } else { rng.next() % 1000 };
        let out = ElectOutcome {
            leader: (rng.next() % req.labels.len() as u64) as usize,
            leader_label: wide(&mut rng),
            label_word: (0..req.labels.len()).map(|_| wide(&mut rng)).collect(),
            messages: wide(&mut rng),
            actions: wide(&mut rng),
            time_units: wide(&mut rng),
            wire_bits: wide(&mut rng),
        };
        let tree = response_tree(&req, &out);
        prop_assert_eq!(response_json(&req, &out), reference_render(&tree));
        prop_assert_eq!(tree.to_string(), reference_render(&tree));

        let message = arb_string(&mut rng);
        let error_tree = json::obj(vec![("error", Json::Str(message.clone()))]);
        prop_assert_eq!(error_json(&message), reference_render(&error_tree));

        let request_tree = json::obj(vec![
            ("ring", json::nums(req.labels.iter().copied())),
            ("algo", Json::Str(req.algo.name().into())),
            ("k", Json::Num(req.k as i128)),
        ]);
        prop_assert_eq!(req.to_json(), reference_render(&request_tree));

        let mut budget = 48;
        let value = build_json(&mut rng, &mut budget, 0);
        prop_assert_eq!(value.to_string(), reference_render(&value));
    }

    /// The streaming decoders answer what the tree oracle answers — the
    /// same request or the same error text — on generated bodies (key
    /// order, whitespace, duplicates, unknown members, number and escape
    /// corner cases) and on byte-level mutations and truncations of them.
    #[test]
    fn decoders_match_the_tree_oracle(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let single = arb_request(&mut rng);
        let batch = arb_batch(&mut rng);
        let mut bodies = vec![single.clone().into_bytes(), batch.clone().into_bytes()];
        for _ in 0..4 {
            bodies.push(mutate(&mut rng, &single));
            bodies.push(mutate(&mut rng, &batch));
        }
        for body in &bodies {
            let shown = String::from_utf8_lossy(body);
            prop_assert_eq!(ElectRequest::from_json(body), oracle_single(body), "{}", shown);
            prop_assert_eq!(batch_from_json(body), oracle_batch(body), "{}", shown);
        }
    }
}

/// The batch cap counts every entry, and a syntax error past the cap
/// still decides the answer, exactly as in the tree oracle; nesting past
/// [`MAX_DEPTH`] is a `bad JSON` error on both paths.
#[test]
fn decoders_match_the_oracle_at_the_caps() {
    let entry = r#"{"ring":[1,2]}"#;
    let over = format!("[{}]", vec![entry; MAX_BATCH + 6].join(","));
    let broken = format!("[{},{{]", vec![entry; MAX_BATCH + 1].join(","));
    let full = format!("[{}]", vec![entry; MAX_BATCH].join(","));
    let deep = format!(r#"{{"ring":[1,2],"x":{}}}"#, "[".repeat(200_000));
    let deep_batch = format!("[{}{}]", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    for body in [&over, &broken, &full, &deep, &deep_batch] {
        assert_eq!(ElectRequest::from_json(body.as_bytes()), oracle_single(body.as_bytes()));
        assert_eq!(batch_from_json(body.as_bytes()), oracle_batch(body.as_bytes()));
    }
    assert!(batch_from_json(over.as_bytes()).unwrap_err().contains("1030 entries"));
    assert!(batch_from_json(deep_batch.as_bytes()).unwrap_err().starts_with("bad JSON: nesting"));
    assert!(ElectRequest::from_json(deep.as_bytes()).unwrap_err().starts_with("bad JSON: nesting"));
}
