//! The front-connection machine: one epoll loop that accepts, reads,
//! frames, dispatches and writes HTTP/1.1 for every listener in the
//! workspace — the election daemon, the router and each control-plane
//! node.
//!
//! Connection lifecycle (DESIGN §7):
//!
//! ```text
//!            accept            ParseStep::Request
//!   listener ──────▶ READING ───────────────────────▶ Service::dispatch
//!                      ▲  ▲                             │        │
//!        flush done,   │  │ Front::answer, or the        │ Answer │ Park
//!        keep-alive    │  │ park deadline (expire)       ▼        ▼
//!                    WRITING ◀──────────────────────────────── PARKED
//! ```
//!
//! The machine owns what every listener shares: accept, the read loop
//! over [`RequestParser`], in-order responses with keep-alive and
//! pipelining, the 5 s head timer, the 400 and 413 framing answers, the
//! open-connections gauge, a parked request's deadline timer, and
//! graceful drain. A listener is a [`Service`]: its `dispatch` answers a
//! request at once or parks whatever it needs to finish it later
//! ([`Service::Parked`]), and it hands the answer back by connection
//! token through [`Front::answer`]. A parked connection reads nothing:
//! pipelined follow-ups stay in the kernel buffer and are answered in
//! order once the parked answer is written.

use crate::api::error_json;
use crate::http::{ParseStep, Phase, Request, RequestParser, Response};
use hre_runtime::{Event, Interest, Reactor, TimerKey};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Timer-token bit marking the deadline of the request parked on
/// connection `token & !DEADLINE_BIT`.
const DEADLINE_BIT: u64 = 1 << 62;
/// Timer-token bit marking a request-head timeout.
const HEAD_BIT: u64 = 1 << 61;
/// How long a partial request may dribble in before the connection is
/// timed out.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);
/// How often the loop wakes to check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// What one `dispatch` decided.
pub enum Dispatch<P> {
    /// The answer, written now.
    Answer(Response),
    /// The answer comes later through [`Front::answer`]. With a deadline,
    /// [`Service::expire`] runs if it passes first.
    Park(P, Option<Instant>),
}

/// What the machine counts, reported through [`Service::tally`].
#[derive(Clone, Copy, Debug)]
pub enum Tally {
    /// A connection was accepted.
    Accepted,
    /// The number of open connections moved by this much.
    Open(i64),
    /// The reactor's `epoll_wait` returns so far.
    Wakeups(u64),
    /// A request was refused for its framing (a 400 or a 413).
    Refused,
}

/// One listener: its routes, and whatever else it drives on the
/// machine's reactor. Only `dispatch` is required.
pub trait Service {
    /// What a connection holds while its answer is produced elsewhere.
    type Parked;

    /// Answers one framed request now, or parks it.
    fn dispatch(
        &mut self,
        front: &mut Front<Self::Parked>,
        token: u64,
        req: &Request,
    ) -> Dispatch<Self::Parked>;

    /// The deadline of the request parked on `token` passed before its
    /// answer: answer it now.
    fn expire(&mut self, _front: &mut Front<Self::Parked>, _token: u64) {}

    /// Readiness on a token the service registered itself.
    fn event(&mut self, _front: &mut Front<Self::Parked>, _ev: Event) {}

    /// Runs after each wakeup's readiness events and before its timers,
    /// to collect work finished on other threads: an answer given here
    /// beats a deadline that fired in the same wakeup.
    fn woken(&mut self, _front: &mut Front<Self::Parked>) {}

    /// A timer the service armed fired.
    fn timer(&mut self, _front: &mut Front<Self::Parked>, _token: u64) {}

    /// Runs after the ready connections were serviced. `true` means it
    /// did work that may have answered more, and the machine services
    /// again.
    fn settle(&mut self, _front: &mut Front<Self::Parked>) -> bool {
        false
    }

    /// Counts what the machine observed.
    fn tally(&self, _what: Tally) {}
}

/// A request waiting for its answer.
struct Waiting<P> {
    /// `None` while the service holds it ([`Front::unpark`]).
    state: Option<P>,
    /// The `connection:` header decided when the request was framed.
    close: bool,
    deadline: Option<TimerKey>,
}

/// One connection's state machine.
struct Conn<P> {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialized response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    /// Edge-triggered readiness we have not consumed yet.
    want_read: bool,
    head_timer: Option<TimerKey>,
    waiting: Option<Waiting<P>>,
}

/// Why [`Front::drive`] stopped working on a connection.
enum Drive {
    Keep,
    Close,
}

/// The machine: the reactor and every connection of one listener.
pub struct Front<P> {
    /// The reactor the listener, its connections and the service's own
    /// sockets and timers share.
    pub reactor: Reactor,
    conns: HashMap<u64, Conn<P>>,
    next_token: u64,
    /// Connections to service before the next poll.
    ready: Vec<u64>,
    max_body: usize,
    shutdown: Arc<AtomicBool>,
}

/// Serves `listener` through `svc` until `shutdown` is set and every
/// connection has drained; returns the number of connections accepted.
///
/// Drain: the listener closes, idle connections close, busy ones finish
/// their request (which carries `connection: close`), and partial reads
/// run into the head timer.
pub fn serve<S: Service>(
    svc: &mut S,
    reactor: Reactor,
    listener: TcpListener,
    max_body: usize,
    shutdown: Arc<AtomicBool>,
) -> u64 {
    let mut front = Front {
        reactor,
        conns: HashMap::new(),
        next_token: LISTENER_TOKEN + 1,
        ready: Vec::new(),
        max_body,
        shutdown,
    };
    if front.reactor.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE).is_err() {
        return 0;
    }
    let mut listener = Some(listener);
    let mut accepted = 0u64;
    let mut events = Vec::new();
    let mut fired = Vec::new();

    loop {
        if front.draining() {
            if let Some(l) = listener.take() {
                let _ = front.reactor.deregister(l.as_raw_fd());
            }
            let idle: Vec<u64> = front
                .conns
                .iter()
                .filter(|(_, c)| c.waiting.is_none() && c.out.is_empty() && c.parser.is_idle())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                front.close(svc, token);
            }
            if front.conns.is_empty() {
                break;
            }
        }

        if front.reactor.poll(&mut events, &mut fired, Some(POLL)).is_err() {
            break;
        }
        svc.tally(Tally::Wakeups(front.reactor.wakeups()));

        for ev in events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                if let Some(l) = &listener {
                    accepted += front.accept(svc, l);
                }
            } else if let Some(conn) = front.conns.get_mut(&ev.token) {
                if ev.readable || ev.hangup || ev.error {
                    conn.want_read = true;
                }
                front.ready.push(ev.token);
            } else {
                svc.event(&mut front, ev);
            }
        }
        svc.woken(&mut front);
        for token in fired.drain(..) {
            if token & DEADLINE_BIT != 0 {
                front.expire_deadline(svc, token & !DEADLINE_BIT);
            } else if token & HEAD_BIT != 0 {
                front.expire_head(svc, token & !HEAD_BIT);
            } else {
                svc.timer(&mut front, token);
            }
        }
        loop {
            for token in std::mem::take(&mut front.ready) {
                front.service(svc, token);
            }
            if !svc.settle(&mut front) && front.ready.is_empty() {
                break;
            }
        }
    }
    accepted
}

impl<P> Front<P> {
    /// A fresh token for a socket the service registers itself. Tokens
    /// stay far below the timer-token bits.
    pub fn token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// The state parked on connection `token`, if it awaits an answer.
    pub fn parked(&mut self, token: u64) -> Option<&mut P> {
        self.conns.get_mut(&token)?.waiting.as_mut()?.state.as_mut()
    }

    /// Takes the state parked on `token` out, for work that needs the
    /// whole machine. The connection keeps waiting: put the state back
    /// with [`Front::repark`] or end the wait with [`Front::answer`].
    pub fn unpark(&mut self, token: u64) -> Option<P> {
        self.conns.get_mut(&token)?.waiting.as_mut()?.state.take()
    }

    /// Puts state taken by [`Front::unpark`] back.
    pub fn repark(&mut self, token: u64, state: P) {
        if let Some(waiting) = self.conns.get_mut(&token).and_then(|c| c.waiting.as_mut()) {
            waiting.state = Some(state);
        }
    }

    /// Ends the wait of connection `token`: `resp` goes out with the
    /// `connection:` header decided when its request was framed, and the
    /// park deadline is cancelled.
    pub fn answer(&mut self, token: u64, resp: Response) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let Some(waiting) = conn.waiting.take() else { return };
        if let Some(key) = waiting.deadline {
            self.reactor.cancel_timer(key);
        }
        push_response(conn, &resp, waiting.close);
        self.ready.push(token);
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Accepts every pending connection; returns how many.
    fn accept<S: Service<Parked = P>>(&mut self, svc: &S, listener: &TcpListener) -> u64 {
        let mut accepted = 0;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    accepted += 1;
                    svc.tally(Tally::Accepted);
                    let token = self.token();
                    if self.admit(svc, stream, token).is_ok() {
                        self.ready.push(token);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        accepted
    }

    /// Registers a fresh connection with the reactor.
    fn admit<S: Service<Parked = P>>(
        &mut self,
        svc: &S,
        stream: TcpStream,
        token: u64,
    ) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.reactor.register(stream.as_raw_fd(), token, Interest::BOTH)?;
        svc.tally(Tally::Open(1));
        self.conns.insert(
            token,
            Conn {
                stream,
                parser: RequestParser::new(self.max_body),
                out: Vec::new(),
                out_pos: 0,
                close_after_flush: false,
                want_read: true,
                head_timer: None,
                waiting: None,
            },
        );
        Ok(())
    }

    fn close<S: Service<Parked = P>>(&mut self, svc: &S, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.teardown(svc, &conn);
        }
    }

    /// Detaches a connection. A parked one is never closed here: it
    /// reads nothing and has nothing to flush until its answer.
    fn teardown<S: Service<Parked = P>>(&mut self, svc: &S, conn: &Conn<P>) {
        debug_assert!(conn.waiting.is_none(), "a parked connection outlives its answer");
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        if let Some(key) = conn.head_timer {
            self.reactor.cancel_timer(key);
        }
        svc.tally(Tally::Open(-1));
    }

    /// Advances one connection as far as readiness allows.
    fn service<S: Service<Parked = P>>(&mut self, svc: &mut S, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match self.drive(svc, token, &mut conn) {
            Drive::Keep => {
                self.conns.insert(token, conn);
            }
            Drive::Close => self.teardown(svc, &conn),
        }
    }

    fn drive<S: Service<Parked = P>>(
        &mut self,
        svc: &mut S,
        token: u64,
        conn: &mut Conn<P>,
    ) -> Drive {
        loop {
            // 1. Flush whatever response bytes are pending.
            if conn.out_pos < conn.out.len() {
                match flush(conn) {
                    Ok(true) => {
                        conn.out.clear();
                        conn.out_pos = 0;
                        if conn.close_after_flush {
                            return Drive::Close;
                        }
                    }
                    Ok(false) => return Drive::Keep, // wait for writable
                    Err(_) => return Drive::Close,
                }
            }
            // 2. Parked: nothing to do until its answer arrives.
            if conn.waiting.is_some() {
                return Drive::Keep;
            }
            // 3. Frame the next request off buffered bytes.
            match conn.parser.step() {
                ParseStep::Request(req) => {
                    self.settle_head_timer(token, conn);
                    let close = req.wants_close() || self.draining();
                    match svc.dispatch(self, token, &req) {
                        Dispatch::Answer(resp) => push_response(conn, &resp, close),
                        Dispatch::Park(state, deadline) => {
                            let deadline = deadline
                                .map(|at| self.reactor.set_timer_at(at, token | DEADLINE_BIT));
                            conn.waiting = Some(Waiting { state: Some(state), close, deadline });
                        }
                    }
                    continue;
                }
                ParseStep::Malformed(why) => {
                    svc.tally(Tally::Refused);
                    push_response(conn, &Response::json(400, error_json(&why)), true);
                    continue;
                }
                ParseStep::TooLarge { declared } => {
                    svc.tally(Tally::Refused);
                    let close = self.draining();
                    push_response(conn, &self.too_large(declared), close);
                    continue;
                }
                ParseStep::NeedMore => {}
            }
            // 4. Pull fresh bytes if the socket reported readiness.
            if !conn.want_read {
                self.settle_head_timer(token, conn);
                return Drive::Keep;
            }
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return self.peer_closed(svc, conn),
                    Ok(n) => {
                        conn.parser.push(&chunk[..n]);
                        // Re-enter the step loop: there may be whole
                        // requests (or a body completion) in the buffer.
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.want_read = false;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return self.read_failed(svc, conn),
                }
            }
        }
    }

    /// Arms the head-timeout timer when a request is mid-parse with no
    /// answer owed, and cancels it when the connection is idle.
    fn settle_head_timer(&mut self, token: u64, conn: &mut Conn<P>) {
        let partial = !conn.parser.is_idle() && conn.waiting.is_none();
        match (partial, conn.head_timer) {
            (true, None) => {
                conn.head_timer = Some(self.reactor.set_timer(HEAD_DEADLINE, token | HEAD_BIT));
            }
            (false, Some(key)) => {
                self.reactor.cancel_timer(key);
                conn.head_timer = None;
            }
            _ => {}
        }
    }

    /// EOF from the peer: a clean close between requests, else a 400.
    fn peer_closed<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>) -> Drive {
        match conn.parser.phase() {
            Phase::Head if conn.parser.is_idle() => Drive::Close,
            Phase::Head => self.abort_with(svc, conn, "connection closed mid-request"),
            Phase::Body => self.abort_with(svc, conn, "connection closed mid-body"),
            Phase::Discard => self.abort_too_large(svc, conn),
        }
    }

    /// A hard read error: a 400 mid-body, else just close.
    fn read_failed<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>) -> Drive {
        match conn.parser.phase() {
            Phase::Head => Drive::Close,
            Phase::Body => self.abort_with(svc, conn, "read error mid-body"),
            Phase::Discard => self.abort_too_large(svc, conn),
        }
    }

    fn abort_with<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>, why: &str) -> Drive {
        abort(svc, conn, &Response::json(400, error_json(why)))
    }

    fn abort_too_large<S: Service<Parked = P>>(&self, svc: &S, conn: &mut Conn<P>) -> Drive {
        let declared = conn.parser.discarding().unwrap_or_default();
        abort(svc, conn, &self.too_large(declared))
    }

    /// The head timeout fired: the peer stalled mid-request.
    fn expire_head<S: Service<Parked = P>>(&mut self, svc: &S, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        conn.head_timer = None;
        if conn.waiting.is_some() || conn.parser.is_idle() {
            self.conns.insert(token, conn);
            return;
        }
        match conn.parser.phase() {
            Phase::Head => self.abort_with(svc, &mut conn, "timed out mid-request"),
            Phase::Body => self.abort_with(svc, &mut conn, "timed out reading body"),
            Phase::Discard => self.abort_too_large(svc, &mut conn),
        };
        self.teardown(svc, &conn);
    }

    /// The deadline of the request parked on `token` passed.
    fn expire_deadline<S: Service<Parked = P>>(&mut self, svc: &mut S, token: u64) {
        let Some(waiting) = self.conns.get_mut(&token).and_then(|c| c.waiting.as_mut()) else {
            return;
        };
        waiting.deadline = None;
        svc.expire(self, token);
    }

    /// The 413 for an over-cap body.
    fn too_large(&self, declared: usize) -> Response {
        let why =
            format!("request body of {declared} bytes exceeds the {} byte limit", self.max_body);
        Response::json(413, error_json(&why))
    }
}

/// Answers a connection that ends mid-request, best effort, then closes.
fn abort<P, S: Service<Parked = P>>(svc: &S, conn: &mut Conn<P>, resp: &Response) -> Drive {
    svc.tally(Tally::Refused);
    push_response(conn, resp, true);
    // Best-effort write to a peer that may be gone; then close.
    let _ = flush(conn);
    Drive::Close
}

/// Serializes a response onto the connection's output buffer. Appends
/// when earlier bytes are still flushing: HTTP/1.1 responses go out in
/// order.
fn push_response<P>(conn: &mut Conn<P>, resp: &Response, close: bool) {
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    conn.out.extend_from_slice(&resp.to_bytes(close));
    conn.close_after_flush |= close;
}

/// Writes as much buffered output as the socket accepts; `Ok(true)`
/// when the buffer is fully flushed.
fn flush<P>(conn: &mut Conn<P>) -> std::io::Result<bool> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Client, RespStep, ResponseParser};
    use std::convert::Infallible;
    use std::thread::JoinHandle;

    /// Answers every request at once: the body echoed, the method, path
    /// and request headers reported as `x-method`, `x-path` and
    /// `x-req-<name>`.
    struct Echo;

    impl Service for Echo {
        type Parked = Infallible;

        fn dispatch(
            &mut self,
            _: &mut Front<Infallible>,
            _: u64,
            req: &Request,
        ) -> Dispatch<Infallible> {
            let mut resp = Response::text(200, req.body.clone())
                .with_header("x-method", req.method.clone())
                .with_header("x-path", req.path.clone());
            for (name, value) in &req.headers {
                resp = resp.with_header(&format!("x-req-{name}"), value.clone());
            }
            Dispatch::Answer(resp)
        }
    }

    /// `Echo` served on an ephemeral port; dropping it drains the machine.
    struct Served {
        addr: String,
        shutdown: Arc<AtomicBool>,
        thread: Option<JoinHandle<u64>>,
    }

    impl Served {
        fn start(max_body: usize) -> Served {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            let addr = listener.local_addr().expect("addr").to_string();
            let reactor = Reactor::new().expect("reactor");
            let shutdown = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&shutdown);
            let thread =
                std::thread::spawn(move || serve(&mut Echo, reactor, listener, max_body, flag));
            Served { addr, shutdown, thread: Some(thread) }
        }

        fn client(&self) -> Client {
            Client::connect(&self.addr, Duration::from_secs(10)).expect("connect")
        }

        /// Drains the machine; returns the connections it accepted.
        fn stop(mut self) -> u64 {
            self.shutdown.store(true, Ordering::SeqCst);
            self.thread.take().expect("running").join().expect("front thread")
        }
    }

    impl Drop for Served {
        fn drop(&mut self) {
            self.shutdown.store(true, Ordering::SeqCst);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Reads until the peer closes and parses what arrived.
    fn read_to_close(mut stream: TcpStream) -> Vec<crate::http::ClientResponse> {
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("the machine closes the connection");
        let mut parser = ResponseParser::new(crate::http::DEFAULT_MAX_BODY);
        parser.push(&bytes);
        let mut responses = Vec::new();
        while let RespStep::Response(resp) = parser.step() {
            responses.push(resp);
        }
        assert!(parser.is_idle(), "torn response after {responses:?}");
        responses
    }

    #[test]
    fn request_response_roundtrip() {
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let mut client = served.client();
        let resp = client.post_json("/elect?verbose=1", r#"{"x":1}"#).expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), r#"{"x":1}"#);
        assert_eq!(resp.header("x-method"), Some("POST"));
        assert_eq!(resp.header("x-path"), Some("/elect")); // query string stripped
        assert_eq!(resp.header("x-req-content-length"), Some("7"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn keep_alive_carries_multiple_requests() {
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let mut client = served.client();
        for path in ["/a", "/b", "/c"] {
            let resp = client.get(path).expect("get");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("x-path"), Some(path));
        }
        drop(client);
        assert_eq!(served.stop(), 1, "three requests on one connection");
    }

    #[test]
    fn request_with_headers_carries_extras() {
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let resp = served
            .client()
            .request_with_headers(
                "POST",
                "/elect",
                &[("x-trace-id", "00000000000000ff"), ("x-parent-span", "0000000000000007")],
                Some(b"{}"),
            )
            .expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-req-x-trace-id"), Some("00000000000000ff"));
        assert_eq!(resp.header("x-req-x-parent-span"), Some("0000000000000007"));
    }

    #[test]
    fn pipelined_sends_collect_in_order_responses() {
        // Several requests in flight on one keep-alive connection: the
        // machine answers them in order off its buffer, and each response
        // is byte-identical to what the lock-step client path gets.
        let served = Served::start(crate::http::DEFAULT_MAX_BODY);
        let mut client = served.client();
        let paths = ["/a", "/b", "/c"];
        let sequential: Vec<_> = paths
            .iter()
            .map(|p| client.request("POST", p, Some(b"body:")).expect("request"))
            .collect();
        for p in paths {
            client.send("POST", p, &[], Some(b"body:")).expect("send");
        }
        for (i, want) in sequential.iter().enumerate() {
            let resp = client.recv().expect("recv");
            assert_eq!(resp.status, 200);
            assert_eq!((&resp.headers, &resp.body), (&want.headers, &want.body), "response {i}");
        }
    }

    #[test]
    fn oversized_body_yields_too_large_and_keep_alive_survives() {
        // An over-cap Content-Length is a 413 naming the limit; the body
        // is discarded without buffering and the *same* connection serves
        // the next request.
        let served = Served::start(64);
        let mut client = served.client();
        let resp = client.request("POST", "/elect", Some(&[b'x'; 200])).expect("oversized");
        assert_eq!(resp.status, 413);
        assert_eq!(
            resp.body_text(),
            r#"{"error":"request body of 200 bytes exceeds the 64 byte limit"}"#
        );
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        let resp = client.request("POST", "/elect", Some(&[b'y'; 10])).expect("follow-up");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, [b'y'; 10]);
    }

    #[test]
    fn oversized_body_from_a_stalling_peer_gets_413_and_a_close() {
        // Declare a huge body, send only the head and stall: the head
        // deadline gives up on the discard with a 413 and a close.
        let served = Served::start(64);
        let mut stream = TcpStream::connect(&served.addr).expect("connect");
        stream
            .write_all(b"POST /elect HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n")
            .expect("write");
        let t0 = Instant::now();
        let responses = read_to_close(stream);
        assert!(t0.elapsed() >= HEAD_DEADLINE - Duration::from_millis(100), "{:?}", t0.elapsed());
        assert_eq!(responses.len(), 1, "{responses:?}");
        assert_eq!(responses[0].status, 413);
        assert_eq!(responses[0].header("connection"), Some("close"));
        assert!(responses[0].body_text().contains("1000000 bytes"), "{:?}", responses[0]);
    }

    #[test]
    fn a_framing_error_is_answered_400_and_closed() {
        let served = Served::start(64);
        let mut stream = TcpStream::connect(&served.addr).expect("connect");
        stream.write_all(b"GARBAGE\r\n\r\nGET /never HTTP/1.1\r\n\r\n").expect("write");
        let responses = read_to_close(stream);
        assert_eq!(responses.len(), 1, "{responses:?}");
        assert_eq!(responses[0].status, 400);
        assert_eq!(responses[0].header("connection"), Some("close"));
        assert!(responses[0].body_text().contains("bad request line"), "{:?}", responses[0]);
    }
}
