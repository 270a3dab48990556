//! Flight recorder — a lock-free, fixed-capacity span ring buffer for
//! end-to-end request tracing across the serving stack.
//!
//! Every daemon (the election service, the cluster router, a traced
//! transport run) owns one [`FlightRecorder`]. Recording a span is the
//! hot path and is engineered accordingly:
//!
//! * **No locks.** A global ticket counter (`fetch_add`) claims a slot;
//!   each slot is a seqlock of plain `AtomicU64` fields (this crate
//!   forbids `unsafe`, and needs none). Writers never wait on readers,
//!   readers detect and skip torn slots by re-checking the slot's
//!   sequence word.
//! * **No allocation.** All slots are preallocated at construction;
//!   span payloads are two untyped `u64` attributes whose meaning is
//!   fixed per [`Stage`]. Strings only appear on the cold read side
//!   ([`FlightRecorder::spans`], [`render_tree`]).
//! * **Fixed capacity.** The buffer holds the most recent `capacity`
//!   spans; older spans are overwritten. A capacity of 0 disables
//!   recording entirely (id minting still works, so trace propagation
//!   headers keep flowing) — that is the "tracing off" configuration
//!   the E21 overhead experiment compares against.
//!
//! Timestamps are microseconds since one process-wide epoch, which is
//! also every [`VirtualClock`](crate::VirtualClock)'s zero: spans from
//! one process order and subtract exactly, whichever recorder holds
//! them. Spans merged across processes (`src` field) are related only
//! through parent/child edges, never by comparing clocks.
//!
//! Per-stage latency histograms ([`FlightRecorder::stage_snapshots`])
//! are fed by the same `record_span` calls and back the Prometheus
//! `hre_stage_seconds` family on both daemons.

use crate::clock::{process_epoch, ClockHandle};
use crate::hist::{HistSnapshot, Log2Histogram};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default flight-recorder capacity (spans retained).
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// Identifier of one end-to-end request trace, propagated across
/// processes via the `X-Trace-Id` header (16 lowercase hex digits).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace. `SpanId::NONE` (zero) marks
/// a root span with no parent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl TraceId {
    /// The wire form: 16 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form; `None` for malformed or all-zero ids.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        parse_hex_u64(s).filter(|&v| v != 0).map(TraceId)
    }
}

impl SpanId {
    /// The absent parent.
    pub const NONE: SpanId = SpanId(0);

    /// `true` iff this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The wire form: 16 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form; `None` for malformed input (zero is legal:
    /// it is the explicit "no parent").
    pub fn from_hex(s: &str) -> Option<SpanId> {
        parse_hex_u64(s).map(SpanId)
    }
}

/// Splitmix64 mixing step — the common core of the id generators.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Strict 1–16 digit hex parse (the header forms are zero-padded to 16,
/// but shorter forms are accepted for hand-typed CLI arguments).
fn parse_hex_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The fixed vocabulary of span stages across the whole stack. Spans
/// carry the stage as a small integer so recording stays allocation-free;
/// the names appear only on the read side (JSON, trees, metric labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Whole request as seen by one daemon (root span per process).
    Request = 0,
    /// Cluster: canonical-rotation shard-key hash + ring lookup.
    Hash,
    /// Cluster: breaker-state filtering of the candidate backends.
    BreakerCheck,
    /// Cluster: one proxied attempt against one backend.
    Attempt,
    /// Cluster: a hedge fired (instant event; `a` = hedge backend).
    Hedge,
    /// Cluster: failover launched (instant event; `a` = next backend).
    Failover,
    /// Service: time a job spent queued before a worker picked it up.
    QueueWait,
    /// Service: canonical-rotation result-cache probe (`a` = 1 on hit).
    CacheLookup,
    /// Service: worker-side election computation (cache misses only).
    Execute,
    /// Core: one election run (`a` = messages, `b` = time units).
    Election,
    /// Transport: a frame was retransmitted (`a` = seq, `b` = attempt).
    Retransmit,
    /// Transport: reassembly event (`a` = seq; `b` = 1 dup, 2 buffered).
    Reassembly,
    /// Control plane: one membership round — view change through the
    /// `Ak` coordinator election (`a` = epoch, `b` = ring size).
    Membership,
    /// Control plane: a topology config push applied or refused
    /// (`a` = epoch, `b` = 1 accepted / 0 rejected as stale).
    Reconfigure,
}

/// Number of distinct stages (length of [`Stage::ALL`]).
pub const STAGE_COUNT: usize = 14;

impl Stage {
    /// Every stage, indexed by its wire code.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Request,
        Stage::Hash,
        Stage::BreakerCheck,
        Stage::Attempt,
        Stage::Hedge,
        Stage::Failover,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::Execute,
        Stage::Election,
        Stage::Retransmit,
        Stage::Reassembly,
        Stage::Membership,
        Stage::Reconfigure,
    ];

    /// Stable lowercase name (Prometheus `stage` label, JSON, trees).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Hash => "hash",
            Stage::BreakerCheck => "breaker-check",
            Stage::Attempt => "attempt",
            Stage::Hedge => "hedge",
            Stage::Failover => "failover",
            Stage::QueueWait => "queue-wait",
            Stage::CacheLookup => "cache-lookup",
            Stage::Execute => "execute",
            Stage::Election => "election",
            Stage::Retransmit => "retransmit",
            Stage::Reassembly => "reassembly",
            Stage::Membership => "membership",
            Stage::Reconfigure => "reconfigure",
        }
    }

    /// Inverse of the wire code (`stage as u64`).
    pub fn from_code(code: u64) -> Option<Stage> {
        Self::ALL.get(code as usize).copied()
    }

    /// Inverse of [`Stage::as_str`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Self::ALL.iter().copied().find(|s| s.as_str() == name)
    }

    /// Human rendering of the stage's two attributes ("" when both are
    /// meaningless for this stage).
    pub fn describe(self, a: u64, b: u64) -> String {
        match self {
            Stage::Hash => format!("backend={a} of {b}"),
            Stage::BreakerCheck => format!("admitted={a}/{b}"),
            Stage::Attempt | Stage::Hedge | Stage::Failover => format!("backend={a}"),
            Stage::CacheLookup => (if a == 1 { "hit" } else { "miss" }).to_string(),
            Stage::Election => format!("messages={a} rounds={b}"),
            Stage::Retransmit => format!("seq={a} attempt={b}"),
            Stage::Reassembly => {
                format!("seq={a} {}", if b == 1 { "duplicate" } else { "buffered" })
            }
            Stage::Membership => format!("epoch={a} ring={b}"),
            Stage::Reconfigure => {
                format!("epoch={a} {}", if b == 1 { "accepted" } else { "rejected" })
            }
            Stage::Request | Stage::QueueWait | Stage::Execute => String::new(),
        }
    }
}

/// Optional per-span markers, packed into the slot's stage word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAttrs {
    /// First stage-specific attribute (see [`Stage`] docs).
    pub a: u64,
    /// Second stage-specific attribute.
    pub b: u64,
    /// The spanned work failed.
    pub err: bool,
    /// This span is the root this process created for the request
    /// (its parent, if any, lives in another process).
    pub root: bool,
}

const FLAG_ERR: u64 = 1 << 8;
const FLAG_ROOT: u64 = 1 << 9;

/// One decoded span, as read back from the recorder (or parsed from a
/// peer daemon's `/trace/<id>` JSON).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span.
    pub id: SpanId,
    /// Parent span ([`SpanId::NONE`] for an unparented root).
    pub parent: SpanId,
    /// What the span measures.
    pub stage: Stage,
    /// Start, µs on the recording process's monotonic clock.
    pub start_us: u64,
    /// Duration, µs (0 for instant events).
    pub dur_us: u64,
    /// Stage-specific attribute.
    pub a: u64,
    /// Stage-specific attribute.
    pub b: u64,
    /// The spanned work failed.
    pub err: bool,
    /// Root span of its recording process.
    pub root: bool,
    /// Which process recorded it ("" until merged across daemons).
    pub src: String,
}

/// One seqlock slot. `seq` is `2·ticket+1` while a write is in flight
/// and `2·ticket+2` once stable, so a reader can both detect torn reads
/// and recover the slot's logical position in the stream.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    id: AtomicU64,
    parent: AtomicU64,
    stage_flags: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The flight recorder: see the module docs for the design.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    ids: AtomicU64,
    trace_seed: AtomicU64,
    /// Stamps events: the owning daemon's clock.
    clock: ClockHandle,
    stage_hist: [Log2Histogram; STAGE_COUNT],
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` spans
    /// (0 disables recording; ids still mint), on the wall clock.
    pub fn new(capacity: usize) -> Arc<FlightRecorder> {
        Self::with_clock(capacity, ClockHandle::default())
    }

    /// [`FlightRecorder::new`] on `clock`, which stamps its events.
    pub fn with_clock(capacity: usize, clock: ClockHandle) -> Arc<FlightRecorder> {
        // Seed from wall time *and* a per-process recorder counter:
        // several recorders can share one process (router + backends in
        // a test), and merged traces need their span-id streams disjoint.
        static RECORDER_NONCE: AtomicU64 = AtomicU64::new(0);
        let nonce = RECORDER_NONCE.fetch_add(1, Ordering::Relaxed);
        let seed = std::time::SystemTime::UNIX_EPOCH
            .elapsed()
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            ^ splitmix64(nonce);
        Arc::new(FlightRecorder {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            ids: AtomicU64::new(splitmix64(seed)),
            trace_seed: AtomicU64::new(seed),
            clock,
            stage_hist: std::array::from_fn(|_| Log2Histogram::default()),
        })
    }

    /// A recorder that records nothing (capacity 0).
    pub fn disabled() -> Arc<FlightRecorder> {
        Self::new(0)
    }

    /// Spans retained (0 = recording disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Mints a fresh, non-zero trace id (splitmix64 over a seeded
    /// counter: unique within the process, collision-unlikely across).
    pub fn mint_trace(&self) -> TraceId {
        loop {
            let x = self.trace_seed.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
            let z = splitmix64(x);
            if z != 0 {
                return TraceId(z);
            }
        }
    }

    /// Allocates the next span id — non-zero and drawn from the same
    /// splitmix64 stream as trace ids, **not** a sequential counter:
    /// merged traces parent spans across daemon boundaries, so ids from
    /// different processes must not collide (counters would all start
    /// at 1).
    pub fn next_span_id(&self) -> SpanId {
        loop {
            let x = self.ids.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
            let z = splitmix64(x);
            if z != 0 {
                return SpanId(z);
            }
        }
    }

    /// Microseconds of `t` on the recorders' clock.
    pub fn clock_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(process_epoch()).as_micros().min(u64::MAX as u128) as u64
    }

    /// Records a completed span and returns its freshly minted id.
    /// Lock-free, allocation-free; a no-op (beyond the id) at capacity 0.
    pub fn record_span(
        &self,
        trace: TraceId,
        parent: SpanId,
        stage: Stage,
        start: Instant,
        end: Instant,
        attrs: SpanAttrs,
    ) -> SpanId {
        let id = self.next_span_id();
        self.record_span_with_id(id, trace, parent, stage, start, end, attrs);
        id
    }

    /// Records a completed span under a pre-allocated id (used when the
    /// id had to be propagated — e.g. as a child's parent — before the
    /// span finished).
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_with_id(
        &self,
        id: SpanId,
        trace: TraceId,
        parent: SpanId,
        stage: Stage,
        start: Instant,
        end: Instant,
        attrs: SpanAttrs,
    ) {
        if self.slots.is_empty() || trace.0 == 0 {
            return;
        }
        let dur = end.saturating_duration_since(start);
        self.stage_hist[stage as usize].record(dur);
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) % self.slots.len()];
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        slot.trace.store(trace.0, Ordering::Relaxed);
        slot.id.store(id.0, Ordering::Relaxed);
        slot.parent.store(parent.0, Ordering::Relaxed);
        let flags = (stage as u64)
            | if attrs.err { FLAG_ERR } else { 0 }
            | if attrs.root { FLAG_ROOT } else { 0 };
        slot.stage_flags.store(flags, Ordering::Relaxed);
        slot.start_us.store(self.clock_us(start), Ordering::Relaxed);
        slot.dur_us.store(dur.as_micros().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        slot.a.store(attrs.a, Ordering::Relaxed);
        slot.b.store(attrs.b, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Records an instant event (a zero-duration span) at its clock's now.
    pub fn record_event(&self, trace: TraceId, parent: SpanId, stage: Stage, a: u64, b: u64) {
        let now = self.clock.now();
        self.record_span(trace, parent, stage, now, now, SpanAttrs { a, b, ..Default::default() });
    }

    /// Every stable span currently retained, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let cap = self.slots.len() as u64;
        if cap == 0 {
            return Vec::new();
        }
        let head = self.head.load(Ordering::Acquire);
        let first = head.saturating_sub(cap);
        let mut out = Vec::new();
        for ticket in first..head {
            let slot = &self.slots[(ticket as usize) % self.slots.len()];
            if slot.seq.load(Ordering::Acquire) != ticket * 2 + 2 {
                continue; // overwritten, or a write is in flight
            }
            let rec = SpanRecord {
                trace: TraceId(slot.trace.load(Ordering::Acquire)),
                id: SpanId(slot.id.load(Ordering::Acquire)),
                parent: SpanId(slot.parent.load(Ordering::Acquire)),
                stage: Stage::Request, // patched below
                start_us: slot.start_us.load(Ordering::Acquire),
                dur_us: slot.dur_us.load(Ordering::Acquire),
                a: slot.a.load(Ordering::Acquire),
                b: slot.b.load(Ordering::Acquire),
                err: false,
                root: false,
                src: String::new(),
            };
            let flags = slot.stage_flags.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != ticket * 2 + 2 {
                continue; // torn: the slot was reused mid-read
            }
            let Some(stage) = Stage::from_code(flags & 0xff) else { continue };
            out.push(SpanRecord {
                stage,
                err: flags & FLAG_ERR != 0,
                root: flags & FLAG_ROOT != 0,
                ..rec
            });
        }
        out
    }

    /// The retained spans of one trace, oldest first.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut spans = self.spans();
        spans.retain(|s| s.trace == trace);
        spans
    }

    /// The most recent root spans (newest first, at most `limit`) — the
    /// index behind `GET /trace/recent`.
    pub fn recent_roots(&self, limit: usize) -> Vec<SpanRecord> {
        let mut roots: Vec<SpanRecord> = self.spans().into_iter().filter(|s| s.root).collect();
        roots.reverse();
        roots.truncate(limit);
        roots
    }

    /// Age of the recorder's clock, µs (for "how long ago" renderings).
    pub fn now_us(&self) -> u64 {
        self.clock_us(Instant::now())
    }

    /// Latency histogram of one stage, fed by every recorded span.
    pub fn stage_snapshot(&self, stage: Stage) -> HistSnapshot {
        self.stage_hist[stage as usize].snapshot()
    }

    /// Snapshots of every stage with at least one sample.
    pub fn stage_snapshots(&self) -> Vec<(Stage, HistSnapshot)> {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.stage_snapshot(s)))
            .filter(|(_, snap)| snap.count > 0)
            .collect()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<FlightRecorder>, TraceId, SpanId)>> =
        const { RefCell::new(None) };
}

/// Scope guard restoring the previously current span on drop.
pub struct CurrentSpan {
    prev: Option<(Arc<FlightRecorder>, TraceId, SpanId)>,
}

/// Makes `(trace, span)` the calling thread's current span until the
/// returned guard drops. Deep layers with no parameter path to the
/// recorder (the core election hook) attach through this.
pub fn set_current(rec: &Arc<FlightRecorder>, trace: TraceId, span: SpanId) -> CurrentSpan {
    let prev = CURRENT.with(|c| c.borrow_mut().replace((Arc::clone(rec), trace, span)));
    CurrentSpan { prev }
}

impl Drop for CurrentSpan {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Calls `f` with the thread's current span context, if any.
pub fn with_current<R>(f: impl FnOnce(&Arc<FlightRecorder>, TraceId, SpanId) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(rec, t, s)| f(rec, *t, *s)))
}

/// Human-scale duration: integral µs below 1 ms, fractional ms above.
pub fn fmt_dur_us(us: u64) -> String {
    if us >= 1000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{us}µs")
    }
}

/// Renders a set of spans (possibly merged from several daemons) as an
/// indented tree. Spans whose parent is absent from the set are printed
/// as roots; children sort by start time on their recording process's
/// clock, ties in the order of `spans` (a recorder's is its recording
/// order). The same rendering backs `hre trace` and the slow-request log.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let ids: HashSet<u64> = spans.iter().map(|s| s.id.0).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if !s.parent.is_none() && ids.contains(&s.parent.0) && s.parent != s.id {
            children.entry(s.parent.0).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    // Stable: equal starts keep their order in `spans`.
    let by_start = |xs: &mut Vec<usize>| xs.sort_by_key(|&i| spans[i].start_us);
    by_start(&mut roots);
    for xs in children.values_mut() {
        by_start(xs);
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    let mut guard = 0usize;
    while let Some((i, depth)) = stack.pop() {
        guard += 1;
        if guard > spans.len() + 1 {
            break; // cycle in parent links (corrupt input): stop printing
        }
        let s = &spans[i];
        let desc = s.stage.describe(s.a, s.b);
        let _ = write!(out, "{:indent$}{}", "", s.stage.as_str(), indent = depth * 2);
        if !s.src.is_empty() {
            let _ = write!(out, " [{}]", s.src);
        }
        if !desc.is_empty() {
            let _ = write!(out, " {desc}");
        }
        if s.dur_us > 0 || s.stage == Stage::Request {
            let _ = write!(out, " {}", fmt_dur_us(s.dur_us));
        }
        if s.err {
            out.push_str(" ERR");
        }
        out.push('\n');
        if let Some(kids) = children.get(&s.id.0) {
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no spans)\n");
    }
    out
}

/// `true` iff `spans` form one connected tree: exactly one unparented
/// root, and every other span's parent present in the set. The
/// propagation integration tests assert this end to end.
pub fn is_connected_tree(spans: &[SpanRecord]) -> bool {
    if spans.is_empty() {
        return false;
    }
    let ids: HashSet<u64> = spans.iter().map(|s| s.id.0).collect();
    if ids.len() != spans.len() {
        return false; // duplicate ids
    }
    let mut roots = 0usize;
    for s in spans {
        if s.parent.is_none() || !ids.contains(&s.parent.0) {
            roots += 1;
        } else if s.parent == s.id {
            return false;
        }
    }
    roots == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec_with(cap: usize) -> Arc<FlightRecorder> {
        FlightRecorder::new(cap)
    }

    #[test]
    fn ids_parse_and_render_as_hex() {
        let t = TraceId(0xdead_beef_0000_0001);
        assert_eq!(t.to_hex(), "deadbeef00000001");
        assert_eq!(TraceId::from_hex("deadbeef00000001"), Some(t));
        assert_eq!(TraceId::from_hex("0"), None, "zero trace id is invalid");
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(SpanId::from_hex("0"), Some(SpanId::NONE));
        assert_eq!(SpanId::from_hex("1f"), Some(SpanId(0x1f)));
    }

    #[test]
    fn stages_round_trip_codes_and_names() {
        for (code, &stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage as usize, code);
            assert_eq!(Stage::from_code(code as u64), Some(stage));
            assert_eq!(Stage::from_name(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::from_code(999), None);
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn records_and_reads_back_spans_in_order() {
        let rec = rec_with(16);
        let trace = rec.mint_trace();
        let t0 = Instant::now();
        let root = rec.record_span(
            trace,
            SpanId::NONE,
            Stage::Request,
            t0,
            t0 + Duration::from_millis(2),
            SpanAttrs { root: true, ..Default::default() },
        );
        rec.record_span(
            trace,
            root,
            Stage::CacheLookup,
            t0,
            t0 + Duration::from_micros(5),
            SpanAttrs { a: 1, ..Default::default() },
        );
        rec.record_event(trace, root, Stage::Failover, 2, 0);
        let spans = rec.trace_spans(trace);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].stage, Stage::Request);
        assert!(spans[0].root);
        assert_eq!(spans[0].dur_us, 2000);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].a, 1);
        assert_eq!(spans[2].stage, Stage::Failover);
        assert!(is_connected_tree(&spans));
        // Other traces don't leak in.
        assert!(rec.trace_spans(rec.mint_trace()).is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_recent_roots_index_newest_first() {
        let rec = rec_with(4);
        let now = Instant::now();
        let mut traces = Vec::new();
        for _ in 0..6 {
            let t = rec.mint_trace();
            traces.push(t);
            rec.record_span(
                t,
                SpanId::NONE,
                Stage::Request,
                now,
                now,
                SpanAttrs { root: true, ..Default::default() },
            );
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4, "fixed capacity holds the newest 4");
        assert!(rec.trace_spans(traces[0]).is_empty(), "oldest overwritten");
        assert!(!rec.trace_spans(traces[5]).is_empty());
        let recent = rec.recent_roots(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace, traces[5], "newest first");
        assert_eq!(recent[1].trace, traces[4]);
    }

    #[test]
    fn capacity_zero_disables_recording_but_still_mints() {
        let rec = FlightRecorder::disabled();
        let trace = rec.mint_trace();
        assert_ne!(trace.0, 0);
        let now = Instant::now();
        let id =
            rec.record_span(trace, SpanId::NONE, Stage::Request, now, now, SpanAttrs::default());
        assert!(!id.is_none(), "ids keep flowing for header propagation");
        assert!(rec.spans().is_empty());
        assert_eq!(rec.stage_snapshot(Stage::Request).count, 0);
    }

    #[test]
    fn mint_trace_is_unique_and_nonzero() {
        let rec = rec_with(1);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let t = rec.mint_trace();
            assert_ne!(t.0, 0);
            assert!(seen.insert(t.0), "duplicate trace id");
        }
    }

    #[test]
    fn stage_histograms_follow_spans() {
        let rec = rec_with(8);
        let t = rec.mint_trace();
        let t0 = Instant::now();
        rec.record_span(
            t,
            SpanId::NONE,
            Stage::Execute,
            t0,
            t0 + Duration::from_micros(100),
            SpanAttrs::default(),
        );
        rec.record_span(
            t,
            SpanId::NONE,
            Stage::Execute,
            t0,
            t0 + Duration::from_micros(300),
            SpanAttrs::default(),
        );
        let snap = rec.stage_snapshot(Stage::Execute);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_us, 400);
        let stages: Vec<Stage> = rec.stage_snapshots().iter().map(|(s, _)| *s).collect();
        assert_eq!(stages, vec![Stage::Execute]);
    }

    #[test]
    fn current_span_guard_nests_and_restores() {
        let rec = rec_with(4);
        let t = rec.mint_trace();
        assert!(with_current(|_, _, _| ()).is_none());
        {
            let _g1 = set_current(&rec, t, SpanId(7));
            assert_eq!(with_current(|_, _, s| s), Some(SpanId(7)));
            {
                let _g2 = set_current(&rec, t, SpanId(9));
                assert_eq!(with_current(|_, _, s| s), Some(SpanId(9)));
            }
            assert_eq!(with_current(|_, _, s| s), Some(SpanId(7)));
        }
        assert!(with_current(|_, _, _| ()).is_none());
    }

    #[test]
    fn concurrent_recorders_never_corrupt_the_buffer() {
        let rec = rec_with(64);
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                let trace = TraceId(th + 1);
                let now = Instant::now();
                for i in 0..500 {
                    rec.record_span(
                        trace,
                        SpanId::NONE,
                        Stage::Attempt,
                        now,
                        now,
                        SpanAttrs { a: th, b: i, ..Default::default() },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let spans = rec.spans();
        assert!(spans.len() <= 64);
        assert!(!spans.is_empty());
        for s in &spans {
            assert!(matches!(s.stage, Stage::Attempt));
            assert!((1..=4).contains(&s.trace.0), "field mix-up: {s:?}");
            assert_eq!(s.a, s.trace.0 - 1, "a/trace torn: {s:?}");
        }
        assert_eq!(rec.stage_snapshot(Stage::Attempt).count, 2000);
    }

    #[test]
    fn render_tree_indents_children_and_marks_errors() {
        let rec = rec_with(16);
        let trace = rec.mint_trace();
        let t0 = Instant::now();
        let root = rec.record_span(
            trace,
            SpanId::NONE,
            Stage::Request,
            t0,
            t0 + Duration::from_millis(3),
            SpanAttrs { root: true, ..Default::default() },
        );
        rec.record_span(
            trace,
            root,
            Stage::Attempt,
            t0,
            t0 + Duration::from_millis(1),
            SpanAttrs { a: 0, err: true, ..Default::default() },
        );
        let exec = rec.record_span(
            trace,
            root,
            Stage::Execute,
            t0 + Duration::from_millis(1),
            t0 + Duration::from_millis(3),
            SpanAttrs::default(),
        );
        rec.record_span(
            trace,
            exec,
            Stage::Election,
            t0 + Duration::from_millis(1),
            t0 + Duration::from_millis(2),
            SpanAttrs { a: 42, b: 7, ..Default::default() },
        );
        let tree = render_tree(&rec.trace_spans(trace));
        assert!(tree.contains("request 3.0ms"), "{tree}");
        assert!(tree.contains("  attempt backend=0 1.0ms ERR"), "{tree}");
        assert!(tree.contains("    election messages=42 rounds=7 1.0ms"), "{tree}");
        assert_eq!(render_tree(&[]), "(no spans)\n");
    }

    #[test]
    fn connectedness_rejects_forests_and_orphans() {
        let mk = |id: u64, parent: u64| SpanRecord {
            trace: TraceId(1),
            id: SpanId(id),
            parent: SpanId(parent),
            stage: Stage::Request,
            start_us: 0,
            dur_us: 0,
            a: 0,
            b: 0,
            err: false,
            root: false,
            src: String::new(),
        };
        assert!(is_connected_tree(&[mk(1, 0), mk(2, 1), mk(3, 1)]));
        // Adopted foreign parent still counts as the single root.
        assert!(is_connected_tree(&[mk(2, 99), mk(3, 2)]));
        assert!(!is_connected_tree(&[mk(1, 0), mk(2, 0)]), "two roots");
        assert!(!is_connected_tree(&[mk(1, 0), mk(3, 99)]), "orphan");
        assert!(!is_connected_tree(&[]));
        assert!(!is_connected_tree(&[mk(1, 0), mk(1, 0)]), "dup ids");
    }

    #[test]
    fn fmt_dur_scales() {
        assert_eq!(fmt_dur_us(0), "0µs");
        assert_eq!(fmt_dur_us(999), "999µs");
        assert_eq!(fmt_dur_us(1000), "1.0ms");
        assert_eq!(fmt_dur_us(12_345), "12.3ms");
    }
}
