//! Minimal HTTP/1.1, hand-rolled over `std::net::TcpStream` — the same
//! std-only discipline as `hre-net`'s framing layer. Implements exactly
//! the slice the election service needs: request parsing with
//! `Content-Length` bodies, keep-alive, compact responses, and a tiny
//! client for the load generator and the tests.
//!
//! Parsing is **resumable**: [`RequestParser`] and [`ResponseParser`]
//! are push-based state machines (`push` bytes, `step` for outcomes)
//! that accept input split at *any* byte boundary — one byte at a time
//! included — and produce identical results regardless of how TCP
//! segments the stream (property-tested in
//! `tests/http_parser_props.rs`). The blocking [`Client`], the front
//! connections of every listener ([`crate::front`]) and the router's
//! backend attempts drive the *same* parsers, so they cannot disagree
//! about framing.
//!
//! Deliberately out of scope: chunked transfer encoding, TLS, and
//! multi-line headers. Requests using unsupported features get a clean
//! `400`/`411` instead of undefined behavior.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on head (request line + headers) size.
const MAX_HEAD: usize = 16 * 1024;
/// Default upper bound on body size (server requests *and* client
/// responses) — a 4096-label ring spec is ~50 KiB, so 1 MiB is ample.
/// Configurable via [`RequestParser::set_max_body`] /
/// [`Client::set_max_body`]; a declared `Content-Length` over the cap
/// is rejected *before* any body byte is buffered, so a hostile header
/// can never force a large allocation.
pub const DEFAULT_MAX_BODY: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path only; the service ignores query strings).
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// `true` if the client asked for the connection to close.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Which framing phase a parser is in — drivers use it to attribute
/// EOFs and timeouts ("mid-request" vs "mid-body" vs an abandoned
/// oversized-body discard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Between requests, or mid-head.
    Head,
    /// Head parsed; waiting for declared body bytes.
    Body,
    /// Discarding an over-cap body to keep the stream framed.
    Discard,
}

/// One step of the resumable request parser.
#[derive(Debug)]
pub enum ParseStep {
    /// Not enough buffered bytes to make progress.
    NeedMore,
    /// One complete request.
    Request(Request),
    /// The peer sent something unparseable; the driver should answer
    /// 400 and close. The parser is poisoned: further steps repeat
    /// this outcome.
    Malformed(String),
    /// A declared body over the cap was *fully discarded* in bounded
    /// memory — the stream is still framed, so the driver can answer
    /// `413` and keep serving. (An abandoned discard — peer stalled or
    /// hung up — is the driver's call, via [`RequestParser::phase`] /
    /// [`RequestParser::discarding`].)
    TooLarge {
        /// The `Content-Length` the peer declared.
        declared: usize,
    },
}

enum ReqState {
    Head,
    Body { method: String, path: String, headers: Vec<(String, String)>, need: usize },
    Discard { declared: usize, remaining: usize },
}

/// Push-based HTTP/1.1 **request** parser: feed arbitrary byte chunks
/// with [`RequestParser::push`], harvest requests with
/// [`RequestParser::step`]. Outcomes are independent of how the input
/// is split — the property the reactor's edge-triggered reads (and any
/// TCP segmentation) rely on.
pub struct RequestParser {
    buf: Vec<u8>,
    max_body: usize,
    state: ReqState,
}

impl RequestParser {
    /// A fresh parser with the given body cap.
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser { buf: Vec::new(), max_body, state: ReqState::Head }
    }

    /// Sets the largest request body the parser will buffer; larger
    /// declared lengths yield [`ParseStep::TooLarge`].
    pub fn set_max_body(&mut self, max_body: usize) {
        self.max_body = max_body;
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Current framing phase.
    pub fn phase(&self) -> Phase {
        match self.state {
            ReqState::Head => Phase::Head,
            ReqState::Body { .. } => Phase::Body,
            ReqState::Discard { .. } => Phase::Discard,
        }
    }

    /// `true` when nothing is buffered and no request is in flight —
    /// the idle keep-alive state where an EOF is a normal close.
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && matches!(self.state, ReqState::Head)
    }

    /// The declared size of the over-cap body currently being
    /// discarded, if any.
    pub fn discarding(&self) -> Option<usize> {
        match self.state {
            ReqState::Discard { declared, .. } => Some(declared),
            _ => None,
        }
    }

    /// Tries to make progress on the buffered bytes.
    pub fn step(&mut self) -> ParseStep {
        loop {
            match &mut self.state {
                ReqState::Head => {
                    let Some(head_end) = find_head_end(&self.buf) else {
                        // Split-invariance: reject exactly when the head
                        // (bytes before the terminator) would exceed
                        // MAX_HEAD, never based on how much of it one
                        // read() happened to deliver. The old blocking
                        // loop checked the *buffer* length between
                        // reads, so an over-cap head squeezed into one
                        // TCP segment parsed while the same bytes
                        // trickled in slowly got a 400.
                        if self.buf.len() > MAX_HEAD + 3 {
                            return ParseStep::Malformed("request head too large".into());
                        }
                        return ParseStep::NeedMore;
                    };
                    if head_end > MAX_HEAD {
                        return ParseStep::Malformed("request head too large".into());
                    }
                    let head = match std::str::from_utf8(&self.buf[..head_end]) {
                        Ok(h) => h.to_string(),
                        Err(_) => return ParseStep::Malformed("non-utf8 request head".into()),
                    };
                    let mut lines = head.split("\r\n");
                    let request_line = lines.next().unwrap_or_default();
                    let mut parts = request_line.split(' ');
                    let (Some(method), Some(target), Some(version)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return ParseStep::Malformed(format!("bad request line {request_line:?}"));
                    };
                    if !version.starts_with("HTTP/1.") {
                        return ParseStep::Malformed(format!("unsupported version {version:?}"));
                    }
                    let mut headers = Vec::new();
                    for line in lines {
                        if line.is_empty() {
                            continue;
                        }
                        let Some((name, value)) = line.split_once(':') else {
                            return ParseStep::Malformed(format!("bad header line {line:?}"));
                        };
                        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                    }
                    if headers.iter().any(|(k, v)| {
                        k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity")
                    }) {
                        return ParseStep::Malformed(
                            "chunked transfer encoding unsupported".into(),
                        );
                    }
                    let content_length = match parse_content_length(&headers) {
                        Ok(len) => len,
                        Err(why) => return ParseStep::Malformed(why),
                    };
                    let (path, _query) = match target.split_once('?') {
                        Some((p, q)) => (p, Some(q)),
                        None => (target, None),
                    };
                    let (method, path) = (method.to_string(), path.to_string());
                    self.buf.drain(..head_end + 4);
                    if content_length > self.max_body {
                        self.state = ReqState::Discard {
                            declared: content_length,
                            remaining: content_length,
                        };
                    } else {
                        self.state = ReqState::Body { method, path, headers, need: content_length };
                    }
                }
                ReqState::Body { need, .. } => {
                    if self.buf.len() < *need {
                        return ParseStep::NeedMore;
                    }
                    let ReqState::Body { method, path, headers, need } =
                        std::mem::replace(&mut self.state, ReqState::Head)
                    else {
                        unreachable!("matched Body above");
                    };
                    let body: Vec<u8> = self.buf.drain(..need).collect();
                    return ParseStep::Request(Request { method, path, headers, body });
                }
                ReqState::Discard { declared, remaining } => {
                    // Body bytes are dropped as they arrive — never
                    // buffered — and the over-read past the body (the
                    // next pipelined request) stays put.
                    let take = self.buf.len().min(*remaining);
                    *remaining -= take;
                    let declared = *declared;
                    let done = *remaining == 0;
                    self.buf.drain(..take);
                    if !done {
                        return ParseStep::NeedMore;
                    }
                    self.state = ReqState::Head;
                    return ParseStep::TooLarge { declared };
                }
            }
        }
    }
}

/// Index of the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Extracts the declared `Content-Length` from parsed headers, strictly.
/// The value must be pure ASCII digits (`usize::from_str` would accept a
/// leading `+`), and duplicate headers must agree: picking one of two
/// conflicting lengths is exactly the framing desync that lets one
/// peer's "body" be read as the other's next pipelined request, so it is
/// refused outright. Used by both the server and client paths — a keep-
/// alive stream is only as sound as both directions' framing.
fn parse_content_length(headers: &[(String, String)]) -> Result<usize, String> {
    let mut declared: Option<usize> = None;
    for (k, v) in headers {
        if k != "content-length" {
            continue;
        }
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("bad content-length {v:?}"));
        }
        let len = v.parse::<usize>().map_err(|_| format!("bad content-length {v:?}"))?;
        if let Some(prev) = declared {
            if prev != len {
                return Err(format!("conflicting content-length headers ({prev} vs {len})"));
            }
        }
        declared = Some(len);
    }
    Ok(declared.unwrap_or(0))
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Content type of `body`.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// The standard reason phrase for the codes the service emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Response",
        }
    }

    /// The full wire serialization — head and body; `close` sets the
    /// `connection:` header. Every response the daemons send goes
    /// through this one function.
    pub fn to_bytes(&self, close: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// A minimal client response, as read by [`Client`].
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One step of the resumable **response** parser.
#[derive(Debug)]
pub enum RespStep {
    /// Not enough buffered bytes.
    NeedMore,
    /// One complete in-order response.
    Response(ClientResponse),
    /// The stream is broken or desynced; surface as an I/O error of
    /// this kind and drop the connection.
    Invalid {
        /// The error kind the blocking client path reports.
        kind: std::io::ErrorKind,
        /// Human-readable cause.
        why: String,
    },
}

enum RespState {
    Head,
    Body { status: u16, headers: Vec<(String, String)>, need: usize },
}

/// Push-based HTTP/1.1 **response** parser — the client-side twin of
/// [`RequestParser`], driven by the router's multiplexed nonblocking
/// backend connections and by the blocking [`Client`].
pub struct ResponseParser {
    buf: Vec<u8>,
    max_body: usize,
    state: RespState,
}

impl ResponseParser {
    /// A fresh parser with the given response-body cap.
    pub fn new(max_body: usize) -> ResponseParser {
        ResponseParser { buf: Vec::new(), max_body, state: RespState::Head }
    }

    /// Sets the largest response body the parser will buffer.
    pub fn set_max_body(&mut self, max_body: usize) {
        self.max_body = max_body;
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Current framing phase (never [`Phase::Discard`]: a desynced
    /// response stream is dropped, not drained).
    pub fn phase(&self) -> Phase {
        match self.state {
            RespState::Head => Phase::Head,
            RespState::Body { .. } => Phase::Body,
        }
    }

    /// `true` when nothing is buffered and no response is mid-parse.
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && matches!(self.state, RespState::Head)
    }

    /// Tries to make progress on the buffered bytes.
    pub fn step(&mut self) -> RespStep {
        loop {
            match &mut self.state {
                RespState::Head => {
                    let Some(head_end) = find_head_end(&self.buf) else {
                        return RespStep::NeedMore;
                    };
                    let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
                    let mut lines = head.split("\r\n");
                    let status_line = lines.next().unwrap_or_default();
                    let Some(status) =
                        status_line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok())
                    else {
                        return RespStep::Invalid {
                            kind: std::io::ErrorKind::Other,
                            why: format!("bad status line {status_line:?}"),
                        };
                    };
                    let mut headers = Vec::new();
                    for line in lines {
                        if let Some((name, value)) = line.split_once(':') {
                            headers
                                .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                        }
                    }
                    let need = match parse_content_length(&headers) {
                        Ok(len) => len,
                        Err(why) => {
                            return RespStep::Invalid { kind: std::io::ErrorKind::InvalidData, why }
                        }
                    };
                    if need > self.max_body {
                        // Refuse to buffer it; the stream is desynced
                        // now, so the owner must drop this connection
                        // (the pools already drop any client that
                        // returned an error).
                        return RespStep::Invalid {
                            kind: std::io::ErrorKind::InvalidData,
                            why: format!(
                                "response declared {need} body bytes, over the {} cap",
                                self.max_body
                            ),
                        };
                    }
                    self.buf.drain(..head_end + 4);
                    self.state = RespState::Body { status, headers, need };
                }
                RespState::Body { need, .. } => {
                    if self.buf.len() < *need {
                        return RespStep::NeedMore;
                    }
                    let RespState::Body { status, headers, need } =
                        std::mem::replace(&mut self.state, RespState::Head)
                    else {
                        unreachable!("matched Body above");
                    };
                    let body: Vec<u8> = self.buf.drain(..need).collect();
                    return RespStep::Response(ClientResponse { status, headers, body });
                }
            }
        }
    }
}

/// The wire serialization of one client request — the single source of
/// both the blocking [`Client::send`] and the reactor's multiplexed
/// backend writes.
pub fn request_bytes(
    method: &str,
    path: &str,
    host: &str,
    extra: &[(&str, &str)],
    body: Option<&[u8]>,
) -> Vec<u8> {
    let body = body.unwrap_or_default();
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\n", body.len(),);
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// A keep-alive HTTP client over one `TcpStream` — enough for the load
/// generator, the integration tests, and the CI smoke check.
pub struct Client {
    stream: TcpStream,
    parser: ResponseParser,
    host: String,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let sockaddr = addr
            .parse()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, parser: ResponseParser::new(DEFAULT_MAX_BODY), host: addr.to_string() })
    }

    /// Sets the largest response body this client will buffer. A
    /// response declaring more is a transport error ([`std::io::ErrorKind::InvalidData`]):
    /// without the cap, a hostile or broken server's `Content-Length`
    /// could make the client allocate without bound.
    pub fn set_max_body(&mut self, max_body: usize) {
        self.parser.set_max_body(max_body);
    }

    /// Sends one request and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<ClientResponse> {
        self.request_with_headers(method, path, &[], body)
    }

    /// Sends one request carrying extra headers (e.g. `x-trace-id`) and
    /// reads the response.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> std::io::Result<ClientResponse> {
        self.send(method, path, extra, body)?;
        self.recv()
    }

    /// Queues one request on the stream *without* waiting for its
    /// response — the sending half of a pipelined (streaming) client.
    /// HTTP/1.1 responses come back in request order, so after `w`
    /// sends, `w` [`Client::recv`] calls collect them; keeping a few
    /// requests in flight amortizes the round-trip the lock-step
    /// [`Client::request`] pays per call.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> std::io::Result<()> {
        self.stream.write_all(&request_bytes(method, path, &self.host, extra, body))?;
        self.stream.flush()
    }

    /// Reads the next in-order response for a request queued with
    /// [`Client::send`].
    pub fn recv(&mut self) -> std::io::Result<ClientResponse> {
        self.read_response()
    }

    /// Convenience: `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Convenience: `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, json: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(json.as_bytes()))
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.parser.step() {
                RespStep::Response(resp) => return Ok(resp),
                RespStep::Invalid { kind, why } => return Err(std::io::Error::new(kind, why)),
                RespStep::NeedMore => {}
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        match self.parser.phase() {
                            Phase::Head => "server closed before response head",
                            _ => "server closed mid-body",
                        },
                    ))
                }
                n => self.parser.push(&chunk[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Drives the resumable parser over `wire` split into `step`-sized
    /// pushes, collecting every outcome.
    fn parse_in_chunks(wire: &[u8], step: usize, max_body: usize) -> Vec<String> {
        let mut parser = RequestParser::new(max_body);
        let mut outcomes = Vec::new();
        for chunk in wire.chunks(step.max(1)) {
            parser.push(chunk);
            loop {
                match parser.step() {
                    ParseStep::NeedMore => break,
                    ParseStep::Request(req) => outcomes.push(format!(
                        "request {} {}",
                        req.path,
                        String::from_utf8_lossy(&req.body)
                    )),
                    ParseStep::TooLarge { declared } => {
                        outcomes.push(format!("too-large {declared}"))
                    }
                    ParseStep::Malformed(why) => {
                        outcomes.push(format!("malformed {why}"));
                        return outcomes;
                    }
                }
            }
        }
        outcomes
    }

    /// The outcomes of `wire` under a 64-byte body cap, checked to be the
    /// same whether it arrives whole, in small pieces or byte by byte.
    fn parse_pipelined(wire: &[u8]) -> Vec<String> {
        let whole = parse_in_chunks(wire, wire.len(), 64);
        for step in [1, 3, 7] {
            assert_eq!(parse_in_chunks(wire, step, 64), whole, "split at {step} diverged");
        }
        whole
    }

    #[test]
    fn client_refuses_oversized_response_bodies() {
        // Regression: the client trusted the server's Content-Length
        // and would buffer any declared size; now it errors out before
        // allocating.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut sink = [0u8; 1024];
            let _ = stream.read(&mut sink);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 999999999\r\n\r\n")
                .expect("write head");
        });
        let mut client = Client::connect(&addr, Duration::from_secs(2)).expect("connect");
        client.set_max_body(1024);
        let err = client.get("/x").expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("999999999"), "{err}");
    }

    #[test]
    fn conflicting_content_length_headers_are_malformed() {
        // Regression: the parser used to take the *first* content-length
        // header and silently ignore the rest — with two conflicting
        // lengths, whichever one the peer's other hop believed becomes a
        // framing desync (classic request smuggling). Now it refuses.
        let outcomes = parse_pipelined(
            b"POST /elect HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 10\r\n\r\nabGET /next HTTP/1.1\r\n\r\n",
        );
        assert_eq!(outcomes.len(), 1, "{outcomes:?}");
        assert!(outcomes[0].contains("malformed"), "{outcomes:?}");
        assert!(outcomes[0].contains("conflicting content-length"), "{outcomes:?}");
    }

    #[test]
    fn duplicate_identical_content_lengths_are_tolerated() {
        // Identical duplicates are unambiguous (and RFC-permitted to
        // fold), so the request still parses with a single body.
        let outcomes = parse_pipelined(
            b"POST /elect HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nab",
        );
        assert_eq!(outcomes, vec!["request /elect ab".to_string()]);
    }

    #[test]
    fn content_length_must_be_strict_digits() {
        // Regression: `usize::from_str` accepts a leading `+`, so
        // "content-length: +5" parsed fine here while another hop that
        // rejects (or reads 0 for) the malformed value would frame the
        // stream differently. Strict ASCII digits only.
        let outcomes = parse_pipelined(b"POST /elect HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello");
        assert!(outcomes[0].contains("malformed bad content-length"), "{outcomes:?}");
    }

    #[test]
    fn zero_length_body_keeps_pipelined_bytes_for_the_next_request() {
        // Content-Length: 0 with the next request's bytes already
        // buffered behind the head: the empty body must consume nothing,
        // leaving the follow-up intact.
        let outcomes = parse_pipelined(
            b"POST /first HTTP/1.1\r\ncontent-length: 0\r\n\r\nPOST /second HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz",
        );
        assert_eq!(
            outcomes,
            vec!["request /first ".to_string(), "request /second xyz".to_string()]
        );
    }

    #[test]
    fn body_shorter_than_buffered_bytes_leaves_the_tail_framed() {
        // Two pipelined requests arrive in one TCP segment, so when the
        // first head is parsed the buffer already holds *more* than its
        // declared body. Only `content_length` bytes may be taken as the
        // body; the tail is the second request.
        let outcomes = parse_pipelined(
            b"POST /a HTTP/1.1\r\ncontent-length: 5\r\n\r\nabcdePOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nok",
        );
        assert_eq!(outcomes, vec!["request /a abcde".to_string(), "request /b ok".to_string()]);
    }

    #[test]
    fn oversized_discard_preserves_a_pipelined_follow_up() {
        // The over-cap body *and* the next request arrive in one write:
        // the discard path must drop exactly `declared` body bytes and
        // splice the over-read back, so the follow-up parses cleanly on
        // the same connection.
        let mut wire = b"POST /big HTTP/1.1\r\ncontent-length: 100\r\n\r\n".to_vec();
        wire.extend_from_slice(&[b'x'; 100]); // over the 64-byte test cap
        wire.extend_from_slice(b"POST /after HTTP/1.1\r\ncontent-length: 2\r\n\r\nok");
        assert_eq!(
            parse_pipelined(&wire),
            vec!["too-large 100".to_string(), "request /after ok".to_string()]
        );
    }

    #[test]
    fn client_rejects_conflicting_response_content_lengths() {
        // The client direction gets the same strictness: a server that
        // declares two different lengths has desynced the stream, which
        // is a transport error, not a guess.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut sink = [0u8; 1024];
            let _ = stream.read(&mut sink);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 4\r\n\r\nabcd")
                .expect("write");
        });
        let mut client = Client::connect(&addr, Duration::from_secs(2)).expect("connect");
        let err = client.get("/x").expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("conflicting"), "{err}");
    }

    #[test]
    fn malformed_head_is_reported() {
        let outcomes = parse_pipelined(b"GARBAGE\r\n\r\n");
        assert_eq!(outcomes.len(), 1, "{outcomes:?}");
        assert!(outcomes[0].contains("bad request line"), "{outcomes:?}");
    }

    #[test]
    fn resumable_parser_is_split_invariant_on_a_pipelined_stream() {
        // Two requests, an over-cap body, and a follow-up, parsed whole
        // and parsed one byte at a time: identical outcome sequences.
        let mut wire = b"POST /a HTTP/1.1\r\ncontent-length: 5\r\n\r\nabcde".to_vec();
        wire.extend_from_slice(b"POST /big HTTP/1.1\r\ncontent-length: 100\r\n\r\n");
        wire.extend_from_slice(&[b'x'; 100]);
        wire.extend_from_slice(b"GET /after HTTP/1.1\r\n\r\n");
        let whole = parse_in_chunks(&wire, wire.len(), 64);
        assert_eq!(
            whole,
            vec![
                "request /a abcde".to_string(),
                "too-large 100".to_string(),
                "request /after ".to_string()
            ]
        );
        for step in [1, 2, 3, 7, 4096] {
            assert_eq!(parse_in_chunks(&wire, step, 64), whole, "split at {step} diverged");
        }
    }

    #[test]
    fn oversized_head_rejection_does_not_depend_on_segmentation() {
        // Regression (short-read bug): the pre-resumable loop checked
        // the buffer length only *between* socket reads, so a >16 KiB
        // head delivered in large segments could slip through while the
        // same head delivered byte-by-byte was rejected. The parser now
        // decides from the head length alone.
        let mut wire = b"GET /big HTTP/1.1\r\nx-pad: ".to_vec();
        wire.extend_from_slice(&vec![b'p'; MAX_HEAD]);
        wire.extend_from_slice(b"\r\n\r\n");
        let whole = parse_in_chunks(&wire, wire.len(), DEFAULT_MAX_BODY);
        let trickled = parse_in_chunks(&wire, 1, DEFAULT_MAX_BODY);
        assert_eq!(whole, trickled, "head-cap decision depended on read chunking");
        assert_eq!(whole.len(), 1, "{whole:?}");
        assert!(whole[0].contains("head too large"), "{whole:?}");
    }

    #[test]
    fn response_parser_matches_blocking_client_on_split_input() {
        let wire = b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\ncontent-length: 4\r\nconnection: keep-alive\r\n\r\nbusyHTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
        for step in [1usize, 3, wire.len()] {
            let mut parser = ResponseParser::new(DEFAULT_MAX_BODY);
            let mut got = Vec::new();
            for chunk in wire.chunks(step) {
                parser.push(chunk);
                loop {
                    match parser.step() {
                        RespStep::NeedMore => break,
                        RespStep::Response(r) => got.push((r.status, r.body_text())),
                        RespStep::Invalid { why, .. } => panic!("invalid: {why}"),
                    }
                }
            }
            assert_eq!(
                got,
                vec![(503, "busy".to_string()), (200, "ok".to_string())],
                "step {step}"
            );
        }
    }
}
