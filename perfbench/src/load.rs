//! The load generator: two threads, each with one keep-alive connection,
//! driving the front daemon in closed or open loop from a shared request
//! stream, and checking every answer.

use crate::check::{check, int_fields, Verdict};
use crate::wire::{Conn, Reply};
use crate::workload::Stream;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads, one keep-alive connection each (the host's `nproc`
/// when the benchmark was written).
pub const CONNECTIONS: usize = 2;
/// Timer slack of the generator threads, so a paced sleep wakes on time.
/// The daemons keep the host default.
pub const GENERATOR_SLACK_NS: u64 = 1_000;
/// Width of the closed-loop windows whose median rate is `throughput_eps`.
const WINDOW_S: f64 = 0.25;

const SLACK_FILE: &str = "/proc/self/timerslack_ns";

pub fn read_slack() -> Option<u64> {
    std::fs::read_to_string(SLACK_FILE).ok()?.trim().parse().ok()
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub exchanges: u64,
    /// Elections inside correct answers.
    pub elections_ok: u64,
    pub refused: u64,
    pub failed: u64,
    pub wrong: u64,
    pub wrong_examples: Vec<String>,
    /// Per exchange, in microseconds: from the due instant (open loop) or
    /// from the send (closed loop) to the complete answer.
    pub latency_us: Vec<f64>,
    /// Per correct exchange: completion offset from phase start, elections.
    pub completions: Vec<(f64, u32)>,
    /// Open loop: send instant minus due instant.
    pub late_us: Vec<f64>,
    /// Open loop: exchanges answered correctly within the limit.
    pub within_limit: u64,
    /// Sum of the `actions` fields of correct answers (when recorded).
    pub actions: u64,
    pub elapsed_s: f64,
    /// The phase used its slice of the stream up before its time was up.
    pub exhausted: bool,
    /// The timer slack the generator threads ran with.
    pub slack_ns: Option<u64>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.exchanges += other.exchanges;
        self.elections_ok += other.elections_ok;
        self.refused += other.refused;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.wrong_examples.extend(other.wrong_examples);
        self.latency_us.extend(other.latency_us);
        self.completions.extend(other.completions);
        self.late_us.extend(other.late_us);
        self.within_limit += other.within_limit;
        self.actions += other.actions;
        self.exhausted |= other.exhausted;
    }

    /// Exchanges that did not come back correct.
    pub fn errors(&self) -> u64 {
        self.refused + self.failed + self.wrong
    }

    /// Elections completed per second in each full window of the phase.
    pub fn window_rates(&self) -> Vec<f64> {
        let windows = (self.elapsed_s / WINDOW_S).floor() as usize;
        let mut counts = vec![0u64; windows];
        for &(t, n) in &self.completions {
            if let Some(c) = counts.get_mut((t / WINDOW_S) as usize) {
                *c += u64::from(n);
            }
        }
        counts.iter().map(|&c| c as f64 / WINDOW_S).collect()
    }

    fn record(
        &mut self,
        exchange_elections: usize,
        verdict: Verdict,
        reply: Option<&Reply>,
        record_actions: bool,
    ) -> bool {
        self.exchanges += 1;
        match verdict {
            Verdict::Correct => {
                self.elections_ok += exchange_elections as u64;
                if record_actions {
                    if let Some(r) = reply {
                        self.actions += int_fields(&r.body, "actions").iter().sum::<u64>();
                    }
                }
                true
            }
            Verdict::Refused => {
                self.refused += 1;
                false
            }
            Verdict::Failed(_) => {
                self.failed += 1;
                false
            }
            Verdict::Wrong(why) => {
                self.wrong += 1;
                if self.wrong_examples.len() < 3 {
                    self.wrong_examples.push(why);
                }
                false
            }
        }
    }
}

/// How a phase paces its requests.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Each connection sends its next request when the answer arrives.
    Closed,
    /// Requests are due on a fixed schedule at `rate` exchanges per second
    /// in total; each is timed from its due instant.
    Open { rate: f64, limit: Duration },
}

/// Sends one exchange, reconnecting once after a transport error.
fn send(conn: &mut Option<Conn>, front: &str, wire: &[u8]) -> Option<Reply> {
    for _ in 0..2 {
        if conn.is_none() {
            *conn = Conn::connect(front).ok();
        }
        if let Some(c) = conn.as_mut() {
            match c.exchange(wire) {
                Ok(reply) => return Some(reply),
                Err(_) => *conn = None,
            }
        }
    }
    None
}

/// Runs one phase for `seconds` against `front`, taking requests from
/// `slice` of `stream` in order, and ending early when they run out.
pub fn run(
    front: &str,
    stream: &Stream,
    slice: Range<usize>,
    pace: Pace,
    seconds: f64,
    record_actions: bool,
) -> Phase {
    let cursor = AtomicUsize::new(slice.start);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let worker = |t: usize| {
        let mut out = Phase::default();
        let mut conn = Conn::connect(front).ok();
        let mut j = 0u64;
        loop {
            let due = match pace {
                Pace::Closed => None,
                Pace::Open { rate, .. } => Some(
                    start
                        + Duration::from_secs_f64(
                            (t as u64 + CONNECTIONS as u64 * j) as f64 / rate,
                        ),
                ),
            };
            j += 1;
            let wake = due.unwrap_or(start);
            if wake >= end || Instant::now() >= end {
                break;
            }
            let now = Instant::now();
            if now < wake {
                std::thread::sleep(wake - now);
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(exchange) = stream.get(i).filter(|_| i < slice.end) else {
                out.exhausted = true;
                break;
            };
            let sent = Instant::now();
            let reply = send(&mut conn, front, &exchange.wire);
            let done = Instant::now();
            let verdict = match &reply {
                Some(r) => check(exchange, r),
                None => Verdict::Failed(0),
            };
            let from = due.unwrap_or(sent);
            let latency = done.saturating_duration_since(from);
            let ok = out.record(exchange.leaders.len(), verdict, reply.as_ref(), record_actions);
            out.latency_us.push(latency.as_secs_f64() * 1e6);
            if ok {
                out.completions.push((
                    done.saturating_duration_since(start).as_secs_f64(),
                    exchange.leaders.len() as u32,
                ));
            }
            if let (Some(due), Pace::Open { limit, .. }) = (due, pace) {
                out.late_us.push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
                if ok && latency <= limit {
                    out.within_limit += 1;
                }
            }
        }
        out
    };
    let default_slack = read_slack();
    let (parts, slack_ns) = std::thread::scope(|s| {
        let _ = std::fs::write(SLACK_FILE, GENERATOR_SLACK_NS.to_string());
        let slack_ns = read_slack();
        let handles: Vec<_> = (0..CONNECTIONS).map(|t| s.spawn(move || worker(t))).collect();
        if let Some(ns) = default_slack {
            let _ = std::fs::write(SLACK_FILE, ns.to_string());
        }
        let parts: Vec<Phase> =
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect();
        (parts, slack_ns)
    });
    let mut phase = Phase { slack_ns, ..Phase::default() };
    for p in parts {
        phase.merge(p);
    }
    phase.elapsed_s = Instant::now().min(end).saturating_duration_since(start).as_secs_f64();
    phase
}
