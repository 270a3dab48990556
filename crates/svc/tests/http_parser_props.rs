//! Property tests for the resumable HTTP parsers: however the byte
//! stream is sliced — at every single boundary, in pathological 1-byte
//! reads, or in arbitrary random chunks — the parse outcome must be
//! byte-identical to parsing the whole stream at once. This is the
//! invariant the daemons' reactors ride on: edge-triggered reads hand
//! the parser whatever fragments the kernel has, and the responses must
//! not depend on that segmentation.

use hre_svc::{ParseStep, Request, RequestParser, RespStep, ResponseParser};
use proptest::prelude::*;

/// Canonical, comparable rendering of one parse outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Request { method: String, path: String, headers: Vec<(String, String)>, body: Vec<u8> },
    TooLarge { declared: usize },
    Malformed(String),
}

fn outcome_of_request(req: Request) -> Outcome {
    Outcome::Request { method: req.method, path: req.path, headers: req.headers, body: req.body }
}

/// Feeds `wire` to a fresh request parser in the given chunk sizes and
/// collects every outcome (stopping at the first Malformed, as the
/// drivers do — they answer 400 and close).
fn drive_request_parser(wire: &[u8], chunks: &[usize], max_body: usize) -> Vec<Outcome> {
    let mut parser = RequestParser::new(max_body);
    let mut outcomes = Vec::new();
    let mut fed = 0;
    let mut feeds: Vec<usize> = chunks.to_vec();
    feeds.push(wire.len()); // whatever the chunk list left over, feed it last
    for size in feeds {
        let end = (fed + size.max(1)).min(wire.len());
        if end > fed {
            parser.push(&wire[fed..end]);
            fed = end;
        }
        loop {
            match parser.step() {
                ParseStep::NeedMore => break,
                ParseStep::Request(req) => outcomes.push(outcome_of_request(req)),
                ParseStep::TooLarge { declared } => outcomes.push(Outcome::TooLarge { declared }),
                ParseStep::Malformed(why) => {
                    outcomes.push(Outcome::Malformed(why));
                    return outcomes;
                }
            }
        }
    }
    outcomes
}

fn whole(wire: &[u8], max_body: usize) -> Vec<Outcome> {
    drive_request_parser(wire, &[wire.len()], max_body)
}

fn one_byte_reads(wire: &[u8], max_body: usize) -> Vec<Outcome> {
    drive_request_parser(wire, &vec![1; wire.len()], max_body)
}

/// A single split point: `[..at]` then `[at..]`.
fn split_at(wire: &[u8], at: usize, max_body: usize) -> Vec<Outcome> {
    drive_request_parser(wire, &[at.max(1), wire.len().saturating_sub(at).max(1)], max_body)
}

/// Strategy: one syntactically valid request with headers and a body,
/// built from integer strategies (the vendored proptest subset has no
/// regex string strategies).
fn valid_request() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..3,
        proptest::collection::vec(0u8..26, 0..9),
        proptest::collection::vec(
            (proptest::collection::vec(0u8..26, 1..7), proptest::collection::vec(0u8..94, 0..13)),
            0..3,
        ),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(method_ix, path, headers, body)| {
            let method = ["GET", "POST", "PUT"][method_ix];
            let path: String = path.iter().map(|c| (b'a' + c) as char).collect();
            let mut wire =
                format!("{method} /{path} HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
            for (name, value) in &headers {
                let name: String = name.iter().map(|c| (b'a' + c) as char).collect();
                // Printable ASCII 0x20..=0x7d, excluding none: values may
                // contain ':' (only the first is a separator) but never
                // CR/LF, which the offset range already guarantees.
                let value: String = value.iter().map(|c| (b' ' + c) as char).collect();
                wire.push_str(&format!("x-{name}: {value}\r\n"));
            }
            wire.push_str("\r\n");
            let mut wire = wire.into_bytes();
            wire.extend_from_slice(&body);
            wire
        })
}

/// Strategy: a pipelined stream of 1..4 valid requests.
fn pipelined_stream() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(valid_request(), 1..4).prop_map(|reqs| reqs.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: a pipelined stream of valid requests
    /// parses to identical outcomes split at EVERY byte boundary, and
    /// under pathological 1-byte reads.
    #[test]
    fn request_parse_is_invariant_under_every_split(wire in pipelined_stream()) {
        let reference = whole(&wire, 1024);
        let all_requests =
            !reference.is_empty() && reference.iter().all(|o| matches!(o, Outcome::Request { .. }));
        prop_assert!(all_requests, "reference parse of a valid stream: {:?}", reference);
        prop_assert_eq!(&one_byte_reads(&wire, 1024), &reference);
        for at in 0..=wire.len() {
            prop_assert_eq!(&split_at(&wire, at, 1024), &reference, "diverged splitting at {}", at);
        }
    }

    /// Same property over ARBITRARY bytes — including garbage the
    /// parser must call Malformed: the verdict (and its message) may
    /// not depend on segmentation either.
    #[test]
    fn arbitrary_bytes_parse_identically_under_random_chunking(
        wire in proptest::collection::vec(any::<u8>(), 0..256),
        chunks in proptest::collection::vec(1usize..32, 1..64),
    ) {
        let reference = whole(&wire, 64);
        prop_assert_eq!(&drive_request_parser(&wire, &chunks, 64), &reference);
        prop_assert_eq!(&one_byte_reads(&wire, 64), &reference);
    }

    /// Over-cap bodies: the TooLarge outcome (and the framing of any
    /// pipelined follow-up) survives every split.
    #[test]
    fn oversized_bodies_discard_identically_under_every_split(
        declared in 65usize..200,
        follow_up in valid_request(),
    ) {
        let mut wire =
            format!("POST /big HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n").into_bytes();
        wire.extend_from_slice(&vec![b'x'; declared]);
        wire.extend_from_slice(&follow_up);
        let reference = whole(&wire, 64);
        prop_assert_eq!(reference.first(), Some(&Outcome::TooLarge { declared }));
        prop_assert_eq!(reference.len(), 2);
        for at in 0..=wire.len() {
            prop_assert_eq!(&split_at(&wire, at, 64), &reference, "diverged splitting at {}", at);
        }
        prop_assert_eq!(&one_byte_reads(&wire, 64), &reference);
    }

    /// The client-side twin: response streams parse identically under
    /// every split.
    #[test]
    fn response_parse_is_invariant_under_every_split(
        specs in proptest::collection::vec(
            (100u16..600, proptest::collection::vec(any::<u8>(), 0..48)),
            1..4,
        ),
    ) {
        let mut wire = Vec::new();
        for (status, body) in &specs {
            wire.extend_from_slice(
                format!("HTTP/1.1 {status} X\r\ncontent-length: {}\r\n\r\n", body.len()).as_bytes(),
            );
            wire.extend_from_slice(body);
        }
        let collect = |chunks: &[usize]| -> Vec<(u16, Vec<u8>)> {
            let mut parser = ResponseParser::new(1024);
            let mut got = Vec::new();
            let mut fed = 0;
            let mut feeds = chunks.to_vec();
            feeds.push(wire.len());
            for size in feeds {
                let end = (fed + size.max(1)).min(wire.len());
                if end > fed {
                    parser.push(&wire[fed..end]);
                    fed = end;
                }
                loop {
                    match parser.step() {
                        RespStep::NeedMore => break,
                        RespStep::Response(r) => got.push((r.status, r.body)),
                        RespStep::Invalid { why, .. } => panic!("invalid: {why}"),
                    }
                }
            }
            got
        };
        let reference = collect(&[wire.len()]);
        prop_assert_eq!(reference.len(), specs.len());
        prop_assert_eq!(&collect(&vec![1; wire.len()]), &reference);
        for at in 0..wire.len() {
            prop_assert_eq!(&collect(&[at.max(1), wire.len() - at]), &reference);
        }
    }
}
