//! Input fuzz against live daemons: byte-mutated, truncated, split,
//! oversized and deeply nested request streams — HTTP heads, `/elect`
//! bodies and `/elect/batch` bodies — sent to a running `hre-svc`
//! daemon and to a running router in front of it.
//!
//! Every exchange must end in zero or more complete responses, each a
//! 200 or a 4xx carrying an error document, followed by the daemon
//! closing the connection. A 5xx, a torn response, a panic, an abort or
//! a hang fails the case, and both daemons must still answer `/healthz`
//! after every case. The harness has the shape of the svc crate's
//! `http_parser_props.rs`: generated streams fed in arbitrary splits.

use hre_cluster::{start, ClusterConfig};
use hre_svc::{start as start_svc, Client, Json, RespStep, ResponseParser, SvcConfig};
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// Largest body either daemon accepts: a generated nesting (up to 50 000
/// deep) is parsed and refused by the nesting cap, not by the body cap.
const MAX_BODY: usize = 64 * 1024;

/// How long a daemon may take to answer and close; past it the case is
/// a hang. Deadlines are longer still, so no case can see a 504.
const PATIENCE: Duration = Duration::from_secs(30);

/// A daemon and a router in front of it, shared by every case and left
/// running until the test process exits.
fn daemons() -> &'static [String; 2] {
    static ADDRS: OnceLock<[String; 2]> = OnceLock::new();
    ADDRS.get_or_init(|| {
        let svc = start_svc(SvcConfig {
            workers: 2,
            max_body: MAX_BODY,
            deadline: 2 * PATIENCE,
            ..SvcConfig::default()
        })
        .expect("svc");
        let router = start(ClusterConfig {
            backends: vec![svc.addr.to_string()],
            max_body: MAX_BODY,
            deadline: 2 * PATIENCE,
            timeout: 2 * PATIENCE,
            ..Default::default()
        })
        .expect("router");
        let addrs = [svc.addr.to_string(), router.addr.to_string()];
        std::mem::forget((svc, router));
        addrs
    })
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let head =
        format!("POST {path} HTTP/1.1\r\nhost: fuzz\r\ncontent-length: {}\r\n\r\n", body.len());
    [head.as_bytes(), body].concat()
}

/// The unmutated request streams; `depth` sizes the nested ones.
fn seed(ix: usize, depth: usize) -> Vec<u8> {
    let nested = |prefix: &str| [prefix.as_bytes(), &vec![b'['; depth]].concat();
    match ix {
        0 => post("/elect", br#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#),
        1 => post(
            "/elect/batch",
            br#"[{"ring":[1,3,1,3,2,2,1,2]},{"ring":[1]},{"ring":[5,1,5,2],"algo":"cr"},{"ring":[4,1,3,2,7,5],"algo":"peterson"}]"#,
        ),
        2 => [
            &b"GET /healthz HTTP/1.1\r\nhost: fuzz\r\n\r\n"[..],
            &post("/elect", br#"{"ring":[2,1,3,1,3,2,2,1],"algo":"bk","k":2}"#),
        ]
        .concat(),
        3 => post("/elect", &nested(r#"{"ring":[1,2],"x":"#)),
        4 => post("/elect/batch", &nested("[")),
        // Declares far more body than the cap: a 413, never an allocation.
        _ => b"POST /elect HTTP/1.1\r\ncontent-length: 1000000000000\r\n\r\n{\"ring\":[1,2]}".to_vec(),
    }
}

/// Applies mutation `kind` at the generated edit points.
fn mutate(mut wire: Vec<u8>, kind: usize, edits: &[(usize, u8)]) -> Vec<u8> {
    match kind {
        0 => {}
        1 => {
            for &(at, byte) in edits {
                let i = at % wire.len();
                wire[i] = byte;
            }
        }
        2 => wire.truncate(edits[0].0 % (wire.len() + 1)),
        3 => {
            for &(at, byte) in edits {
                wire.insert(at % (wire.len() + 1), byte);
            }
        }
        _ => wire = wire.repeat(2),
    }
    wire
}

/// Sends `wire` in `chunks`, half-closes, and reads until the daemon
/// closes. Returns the complete responses, or why the exchange failed.
fn exchange(addr: &str, wire: &[u8], chunks: &[usize]) -> Result<Vec<(u16, Vec<u8>)>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
    let mut fed = 0;
    for &size in chunks.iter().chain([&wire.len()]) {
        let end = (fed + size).min(wire.len());
        // A daemon that answered and closed early may refuse the rest.
        if s.write_all(&wire[fed..end]).is_err() {
            break;
        }
        fed = end;
    }
    let _ = s.shutdown(Shutdown::Write);
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            // Closing with unread input resets the connection: a close.
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => return Err(format!("the daemon neither answered nor closed: {e}")),
        }
    }
    let mut parser = ResponseParser::new(16 * MAX_BODY);
    parser.push(&bytes);
    let mut responses = Vec::new();
    loop {
        match parser.step() {
            RespStep::Response(r) => responses.push((r.status, r.body)),
            RespStep::NeedMore if parser.is_idle() => return Ok(responses),
            RespStep::NeedMore => return Err(format!("torn response after {responses:?}")),
            RespStep::Invalid { why, .. } => return Err(format!("invalid response: {why}")),
        }
    }
}

/// A 4xx must carry an error document.
fn is_error_doc(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    Json::parse(&text).is_ok_and(|doc| doc.get("error").is_some())
}

fn healthy(addr: &str) -> bool {
    Client::connect(addr, PATIENCE)
        .and_then(|mut c| c.get("/healthz"))
        .is_ok_and(|r| r.status == 200 && r.body == b"ok\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_request_stream_breaks_a_live_daemon(
        seed_ix in 0usize..6,
        depth in 100usize..50_000,
        kind in 0usize..5,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        chunks in proptest::collection::vec(1usize..512, 1..32),
    ) {
        let wire = mutate(seed(seed_ix, depth), kind, &edits);
        for addr in daemons() {
            let responses = exchange(addr, &wire, &chunks).map_err(TestCaseError::fail)?;
            for (status, body) in &responses {
                prop_assert!(
                    *status == 200 || ((400..500).contains(status) && is_error_doc(body)),
                    "{addr} answered {status}: {}",
                    String::from_utf8_lossy(body)
                );
            }
            prop_assert!(healthy(addr), "{addr} stopped answering /healthz");
        }
    }
}
