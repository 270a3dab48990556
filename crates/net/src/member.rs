//! One ring process and its two reliable links, as a sans-IO machine.
//!
//! A [`RingMember`] holds one guarded-action process, the link toward
//! its successor — the [`RetransmitWindow`], the [`LinkInjector`] at its
//! egress, a [`FrameReader`] for the returning ACKs — and the link from
//! its predecessor — a [`FrameReader`] for the DATA frames and the
//! [`Reassembly`] that restores the model's exactly-once FIFO stream. It
//! owns no socket, thread or timer. Its inputs, each with its `now`, are
//! bytes from either connection, a dial's result, a closed connection
//! and a fired timer; after each, the driver drains
//! [`RingMember::poll_output`] — bytes to write, a dial, the outcome —
//! and arms one timer at [`RingMember::deadline`].
//!
//! [`Output::Done`] reports the process's outcome the moment it halts,
//! wedges or idles out. The link keeps running after it: the window
//! drains toward the successor (for at most
//! [`LinkConfig::drain_deadline`]), then the predecessor's frames are
//! still ACKed for a linger (100 ms), so a neighbor draining its own window is
//! not orphaned, until [`RingMember::closed`]. The process runs by the
//! rules of [`hre_runtime::Steps`], as the channel runtime's threads do.
//! Two drivers carry the bytes: the socket shell ([`crate::RingSocket`])
//! over TCP — `run_tcp` and the control plane's rounds — and the
//! deterministic simulator over its modelled hop.

use crate::fault::{FaultPolicy, LinkInjector, WireAction};
use crate::frame::{encode_frame, Frame, FrameError, FrameReader, KIND_ACK, KIND_DATA};
use crate::metrics::LinkMetrics;
use crate::reliable::{Offer, Reassembly};
use crate::window::RetransmitWindow;
use crate::wire::WireMessage;
use hre_runtime::trace::{FlightRecorder, SpanId, Stage, TraceId};
use hre_runtime::{Backoff, Steps, ThreadOutcome};
use hre_sim::{ElectionState, ProcessBehavior};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a reorder-stashed frame waits for a successor frame before
/// being flushed anyway.
const REORDER_HOLD: Duration = Duration::from_millis(2);
/// First reconnect backoff; doubles per failure up to [`BACKOFF_CAP`]
/// (the shared [`hre_runtime::Backoff`] policy).
const BACKOFF_START: Duration = Duration::from_millis(1);
/// Ceiling for the reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(100);
/// How long a member whose window drained keeps ACKing its predecessor.
const LINGER: Duration = Duration::from_millis(100);

/// Where a traced link reports its wire-level recovery events: the
/// flight recorder plus the trace and parent span the events attach to.
pub type TraceHandle = (Arc<FlightRecorder>, TraceId, SpanId);

/// Wire-level knobs for one member's links (the link-relevant subset of
/// [`crate::NetOptions`]).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Retransmission timeout: an unacked DATA frame is resent this long
    /// after its last transmission attempt.
    pub retransmit_timeout: Duration,
    /// After its process finishes, the member keeps retransmitting at
    /// most this long to drain unacknowledged frames before giving up.
    pub drain_deadline: Duration,
    /// Transport faults injected at this member's egress.
    pub faults: FaultPolicy,
    /// Seed for this link's fault schedule.
    pub fault_seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            retransmit_timeout: Duration::from_millis(25),
            drain_deadline: Duration::from_secs(5),
            faults: FaultPolicy::NONE,
            fault_seed: 0,
        }
    }
}

/// Where a member counts and traces: the ledger of its outgoing link,
/// the ledger of its incoming link, and an optional trace. A ring
/// runtime shares one ledger per directed link between the sender's
/// egress and the receiver's ingress.
#[derive(Clone, Default)]
pub struct Ledger {
    /// Counters of the link toward the successor.
    pub egress: Arc<LinkMetrics>,
    /// Counters of the link from the predecessor.
    pub ingress: Arc<LinkMetrics>,
    /// Where retransmissions and reassembly events are recorded.
    pub trace: Option<TraceHandle>,
}

/// What a [`RingMember`] asks its driver to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Open a connection to the successor and report the result to
    /// [`RingMember::on_connected`].
    Dial,
    /// Write these bytes to the successor's connection.
    ToSuccessor(Vec<u8>),
    /// Write these bytes (ACKs) to the predecessor's connection.
    ToPredecessor(Vec<u8>),
    /// Close the successor's connection (an injected reset, or a
    /// desynchronized stream); a [`Output::Dial`] follows when needed.
    DropSuccessor,
    /// Close the predecessor's connection (a desynchronized stream); the
    /// predecessor redials.
    DropPredecessor,
    /// The process finished, with this outcome.
    Done(ThreadOutcome),
}

/// The state of the connection toward the successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Egress {
    /// No connection; the next dial waits until `retry_at`, if set.
    Down {
        retry_at: Option<Instant>,
    },
    Dialing,
    Up,
}

/// Where the member is in its life, with the instant that ends the
/// phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// The process runs; it idles out `idle` after its last message.
    Running,
    /// The process finished; the window drains until it empties or
    /// this instant passes.
    Draining(Instant),
    /// The window is done; the predecessor is still ACKed until this
    /// instant.
    Lingering(Instant),
    Closed,
}

/// One ring process with its two links; see the module docs.
pub struct RingMember<P: ProcessBehavior> {
    proc: P,
    steps: Steps<P::Msg>,
    idle: Duration,
    drain_deadline: Duration,
    /// When the process last received a message (or started).
    last_rx: Instant,
    phase: Phase,
    window: RetransmitWindow,
    injector: Option<LinkInjector>,
    /// Injected delays: frames written once their instant passes.
    delayed: Vec<(Instant, Vec<u8>)>,
    /// An injected reorder: the frame written after the next one.
    stash: Option<(Instant, Vec<u8>)>,
    egress: Egress,
    backoff: Backoff,
    connected_once: bool,
    from_successor: FrameReader,
    from_predecessor: FrameReader,
    reassembly: Reassembly,
    ledger: Ledger,
    out: VecDeque<Output>,
}

impl<P> RingMember<P>
where
    P: ProcessBehavior,
    P::Msg: WireMessage,
{
    /// Starts `proc` at `now`: its initial sends enter the window, and it
    /// gives up after `idle` without a message.
    pub fn start(
        mut proc: P,
        idle: Duration,
        cfg: LinkConfig,
        ledger: Ledger,
        now: Instant,
    ) -> RingMember<P> {
        let mut window = RetransmitWindow::new(cfg.retransmit_timeout);
        let (steps, done) = Steps::start(&mut proc, |m| {
            admit(&mut window, &m, now);
            Ok(())
        });
        let injector =
            (!cfg.faults.is_none()).then(|| LinkInjector::new(cfg.faults, cfg.fault_seed));
        let mut member = RingMember {
            proc,
            steps,
            idle,
            drain_deadline: cfg.drain_deadline,
            last_rx: now,
            phase: Phase::Running,
            window,
            injector,
            delayed: Vec::new(),
            stash: None,
            egress: Egress::Down { retry_at: None },
            backoff: Backoff::new(BACKOFF_START, BACKOFF_CAP),
            connected_once: false,
            from_successor: FrameReader::new(),
            from_predecessor: FrameReader::new(),
            reassembly: Reassembly::new(),
            ledger,
            out: VecDeque::new(),
        };
        if let Some(outcome) = done {
            member.finish(outcome, now);
        }
        member.pump(now);
        member
    }

    /// The next thing to do, if any.
    pub fn poll_output(&mut self) -> Option<Output> {
        self.out.pop_front()
    }

    /// When the driver must call [`RingMember::on_timer`] next; `None`
    /// while only a socket event can move the member.
    pub fn deadline(&self) -> Option<Instant> {
        let ends = match self.phase {
            Phase::Running => self.last_rx + self.idle,
            Phase::Draining(until) => until,
            Phase::Lingering(until) => return Some(until),
            Phase::Closed => return None,
        };
        let link = match self.egress {
            Egress::Up => [
                self.window.next_due_at(),
                self.delayed.iter().map(|(t, _)| *t).min(),
                self.stash.as_ref().map(|(t, _)| *t + REORDER_HOLD),
            ]
            .into_iter()
            .flatten()
            .min(),
            Egress::Down { retry_at } => retry_at.filter(|_| self.needs_link()),
            Egress::Dialing => None,
        };
        Some(link.map_or(ends, |t| t.min(ends)))
    }

    /// The outcome of a dial [`Output::Dial`] asked for.
    pub fn on_connected(&mut self, ok: bool, now: Instant) {
        if self.egress != Egress::Dialing {
            return;
        }
        if ok {
            if self.connected_once {
                self.ledger.egress.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            self.connected_once = true;
            self.backoff.reset();
            // Everything unacked replays on the new connection.
            self.window.replay_all(now);
            self.from_successor = FrameReader::new();
            self.egress = Egress::Up;
        } else {
            self.egress = Egress::Down { retry_at: Some(now + self.backoff.advance()) };
        }
        self.pump(now);
    }

    /// The successor's connection broke (end of stream or an I/O error).
    pub fn on_successor_closed(&mut self, now: Instant) {
        if self.egress == Egress::Up {
            self.egress = Egress::Down { retry_at: None };
        }
        self.pump(now);
    }

    /// Bytes read from the successor's connection: cumulative ACKs.
    pub fn on_successor_bytes(&mut self, bytes: &[u8], now: Instant) {
        if self.egress != Egress::Up {
            return;
        }
        self.from_successor.extend(bytes);
        loop {
            match self.from_successor.next_frame() {
                Some(Ok(Frame { seq: cum, kind: KIND_ACK, .. })) => {
                    for rtt in self.window.ack(cum, now) {
                        self.ledger.egress.record_rtt(rtt);
                    }
                }
                Some(Ok(_)) => {} // stray DATA: ignore
                Some(Err(FrameError::BadLength)) => {
                    self.egress = Egress::Down { retry_at: None };
                    self.out.push_back(Output::DropSuccessor);
                    break;
                }
                Some(Err(_)) => {
                    self.ledger.egress.frames_rejected.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        self.pump(now);
    }

    /// The predecessor opened a new connection: what the old one left
    /// half-read is gone with it (its sender replays everything unacked).
    pub fn on_predecessor_open(&mut self) {
        self.from_predecessor = FrameReader::new();
    }

    /// Bytes read from the predecessor's connection: DATA frames, each
    /// answered with the cumulative ACK. The reassembly survives
    /// reconnects, so exactly-once holds across resets.
    pub fn on_predecessor_bytes(&mut self, bytes: &[u8], now: Instant) {
        self.from_predecessor.extend(bytes);
        loop {
            match self.from_predecessor.next_frame() {
                Some(Ok(Frame { seq, kind: KIND_DATA, payload })) => {
                    match self.reassembly.offer(seq, payload) {
                        Offer::Delivered(payloads) => {
                            for p in payloads {
                                self.receive(&p, now);
                            }
                        }
                        Offer::Buffered => self.trace(Stage::Reassembly, seq, 2),
                        Offer::Duplicate => {
                            self.ledger.ingress.dup_frames_rx.fetch_add(1, Ordering::Relaxed);
                            self.trace(Stage::Reassembly, seq, 1);
                        }
                    }
                    let ack = encode_frame(self.reassembly.cumulative_ack(), KIND_ACK, &[]);
                    let metrics = &self.ledger.ingress;
                    metrics.acks_sent.fetch_add(1, Ordering::Relaxed);
                    metrics.bytes_on_wire.fetch_add(ack.len() as u64, Ordering::Relaxed);
                    self.out.push_back(Output::ToPredecessor(ack));
                }
                Some(Ok(_)) => {} // stray ACK: ignore
                Some(Err(FrameError::BadLength)) => {
                    self.from_predecessor = FrameReader::new();
                    self.out.push_back(Output::DropPredecessor);
                    break;
                }
                Some(Err(_)) => {
                    self.ledger.ingress.frames_rejected.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        self.pump(now);
    }

    /// The timer armed at [`RingMember::deadline`] fired (early or late
    /// calls are harmless).
    pub fn on_timer(&mut self, now: Instant) {
        self.pump(now);
    }

    /// The process's specification variables.
    pub fn election(&self) -> ElectionState {
        self.proc.election()
    }

    /// Logical messages the process sent.
    pub fn sent(&self) -> u64 {
        self.steps.sent()
    }

    /// Whether the process finished and the link is done draining and
    /// lingering: the driver may drop the member and its sockets.
    pub fn closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// One decoded payload reaches the process, unless it already
    /// finished.
    fn receive(&mut self, payload: &[u8], now: Instant) {
        let Some(msg) = P::Msg::decode(payload) else {
            self.ledger.ingress.frames_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if self.phase != Phase::Running {
            return;
        }
        self.last_rx = now;
        let window = &mut self.window;
        let done = self.steps.deliver(&mut self.proc, &msg, |m| {
            admit(window, &m, now);
            Ok(())
        });
        if let Some(outcome) = done {
            self.finish(outcome, now);
        }
    }

    fn finish(&mut self, outcome: ThreadOutcome, now: Instant) {
        self.phase = Phase::Draining(now + self.drain_deadline);
        self.out.push_back(Output::Done(outcome));
    }

    /// Whether anything still waits to cross the link to the successor.
    fn needs_link(&self) -> bool {
        !self.window.is_empty() || !self.delayed.is_empty() || self.stash.is_some()
    }

    /// Everything due at `now`: the idle timeout, the drain and linger,
    /// a dial, and the frames whose (re)transmission is due.
    fn pump(&mut self, now: Instant) {
        if self.phase == Phase::Running && now >= self.last_rx + self.idle {
            self.finish(ThreadOutcome::TimedOut, now);
        }
        match self.phase {
            Phase::Draining(until) if !self.needs_link() || now >= until => {
                self.phase = Phase::Lingering(now + LINGER)
            }
            Phase::Lingering(until) if now >= until => self.phase = Phase::Closed,
            _ => {}
        }
        match self.egress {
            _ if matches!(self.phase, Phase::Lingering(_) | Phase::Closed) => {}
            Egress::Up => self.transmit(now),
            Egress::Down { retry_at } if self.needs_link() && retry_at.is_none_or(|t| now >= t) => {
                self.egress = Egress::Dialing;
                self.out.push_back(Output::Dial);
            }
            _ => {}
        }
    }

    /// Writes injected delays and a reorder stash whose hold elapsed,
    /// then every window entry whose (re)send is due, each through the
    /// fault injector.
    fn transmit(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, bytes) = self.delayed.swap_remove(i);
                self.write(bytes);
            } else {
                i += 1;
            }
        }
        if self.stash.as_ref().is_some_and(|(since, _)| now >= *since + REORDER_HOLD) {
            let (_, bytes) = self.stash.take().expect("stash checked");
            self.write(bytes);
        }
        for seq in self.window.due(now) {
            let (bytes, attempts) = self.window.begin_send(seq, now).expect("due seq in window");
            let metrics = &self.ledger.egress;
            if attempts == 1 {
                metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
            } else {
                metrics.frames_retried.fetch_add(1, Ordering::Relaxed);
                self.trace(Stage::Retransmit, seq, attempts as u64);
            }
            let action = self.injector.as_mut().map_or(WireAction::Deliver, LinkInjector::roll);
            if action != WireAction::Deliver {
                self.ledger.egress.faults_injected.fetch_add(1, Ordering::Relaxed);
            }
            match action {
                WireAction::Deliver => {
                    self.write(bytes);
                    // A pending reorder stash ships right after its
                    // successor: the swap is complete.
                    if let Some((_, stashed)) = self.stash.take() {
                        self.write(stashed);
                    }
                }
                WireAction::Drop => {}
                WireAction::Duplicate => {
                    self.write(bytes.clone());
                    self.write(bytes);
                }
                WireAction::Reorder => {
                    if let Some((_, prev)) = self.stash.replace((now, bytes)) {
                        self.write(prev);
                    }
                }
                WireAction::Delay(d) => self.delayed.push((now + d, bytes)),
                WireAction::Reset => {
                    self.out.push_back(Output::DropSuccessor);
                    self.window.force_due(seq, now); // replay at once after the redial
                    self.egress = Egress::Dialing;
                    self.out.push_back(Output::Dial);
                    return;
                }
            }
        }
    }

    fn write(&mut self, bytes: Vec<u8>) {
        self.ledger.egress.bytes_on_wire.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.out.push_back(Output::ToSuccessor(bytes));
    }

    fn trace(&self, stage: Stage, seq: u64, b: u64) {
        if let Some((rec, trace, parent)) = &self.ledger.trace {
            rec.record_event(*trace, *parent, stage, seq, b);
        }
    }
}

/// Frames one message into the window, due at once.
fn admit<M: WireMessage>(window: &mut RetransmitWindow, msg: &M, now: Instant) {
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    let seq = window.next_seq();
    window.insert(seq, encode_frame(seq, KIND_DATA, &payload), now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_core::{Ak, AkMsg};
    use hre_ring::RingLabeling;
    use hre_runtime::{Clock, VirtualClock};
    use hre_sim::{Algorithm, Outbox, Reaction};
    use hre_words::Label;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One-way latency of every in-memory hop.
    const HOP: Duration = Duration::from_millis(1);

    /// What is on its way over an in-memory hop.
    enum Wire {
        /// Member `from` dialed its successor.
        Connect { from: usize },
        /// DATA bytes for member `to` on connection `conn`.
        Data { to: usize, conn: u64, bytes: Vec<u8> },
        /// ACK bytes for member `to` on connection `conn`.
        Ack { to: usize, conn: u64, bytes: Vec<u8> },
        /// Member `of`'s timer, armed for this instant.
        Timer { of: usize },
    }

    /// Ring members over in-memory hops on one virtual clock: member
    /// `i`'s successor is `i + 1 mod n`, every byte and every dial take
    /// [`HOP`], a dial connects only to a live member, and what is on its
    /// way over a connection either end dropped is lost. A closed member
    /// is gone, as its sockets are, to `closed`.
    struct Hops<P: ProcessBehavior> {
        clock: Arc<VirtualClock>,
        members: Vec<Option<RingMember<P>>>,
        closed: Vec<Option<RingMember<P>>>,
        /// The connection each member dialed toward its successor.
        dialed: Vec<u64>,
        /// The connection each member accepted from its predecessor.
        accepted: Vec<Option<u64>>,
        next_conn: u64,
        armed: Vec<Option<Instant>>,
        queue: BTreeMap<(Instant, u64), Wire>,
        seq: u64,
        /// When DATA bytes last reached each member.
        last_data: Vec<Option<Instant>>,
        done: Vec<Option<(ThreadOutcome, Instant)>>,
    }

    impl<P> Hops<P>
    where
        P: ProcessBehavior,
        P::Msg: WireMessage,
    {
        fn start(procs: Vec<P>, idle: Duration, cfg: impl Fn(usize) -> LinkConfig) -> Hops<P> {
            let clock = VirtualClock::new();
            let n = procs.len();
            let now = clock.now();
            let members = procs
                .into_iter()
                .enumerate()
                .map(|(i, p)| Some(RingMember::start(p, idle, cfg(i), Ledger::default(), now)))
                .collect();
            let mut hops = Hops {
                clock,
                members,
                closed: (0..n).map(|_| None).collect(),
                dialed: vec![0; n],
                accepted: vec![None; n],
                next_conn: 1,
                armed: vec![None; n],
                queue: BTreeMap::new(),
                seq: 0,
                last_data: vec![None; n],
                done: vec![None; n],
            };
            for i in 0..n {
                hops.carry(i);
            }
            hops
        }

        fn n(&self) -> usize {
            self.members.len()
        }

        fn send(&mut self, at: Instant, wire: Wire) {
            self.queue.insert((at, self.seq), wire);
            self.seq += 1;
        }

        /// Carries out member `i`'s outputs and re-arms its timer.
        fn carry(&mut self, i: usize) {
            let now = self.clock.now();
            let (succ, pred) = ((i + 1) % self.n(), (i + self.n() - 1) % self.n());
            while let Some(out) = self.members[i].as_mut().and_then(RingMember::poll_output) {
                match out {
                    Output::Dial => self.send(now + HOP, Wire::Connect { from: i }),
                    Output::ToSuccessor(bytes) => {
                        let conn = self.dialed[i];
                        self.send(now + HOP, Wire::Data { to: succ, conn, bytes });
                    }
                    Output::ToPredecessor(bytes) => {
                        if let Some(conn) = self.accepted[i] {
                            self.send(now + HOP, Wire::Ack { to: pred, conn, bytes });
                        }
                    }
                    Output::DropSuccessor => self.dialed[i] = 0,
                    Output::DropPredecessor => self.accepted[i] = None,
                    Output::Done(outcome) => self.done[i] = Some((outcome, now)),
                }
            }
            if self.members[i].as_ref().is_some_and(RingMember::closed) {
                self.closed[i] = self.members[i].take();
                self.kill(i);
            }
            let want = self.members[i].as_ref().and_then(RingMember::deadline);
            if want != self.armed[i] {
                self.armed[i] = want;
                if let Some(at) = want {
                    self.send(at.max(now), Wire::Timer { of: i });
                }
            }
        }

        /// Member `i` dies: its frames stop, and nothing reaches it.
        fn kill(&mut self, i: usize) {
            self.members[i] = None;
            self.dialed[i] = 0;
            self.accepted[i] = None;
        }

        /// Delivers the next event; `false` once nothing is left.
        fn step(&mut self) -> bool {
            let Some(((at, _), wire)) = self.queue.pop_first() else { return false };
            self.clock.advance_to(at);
            let now = self.clock.now();
            let n = self.n();
            let touched = match wire {
                Wire::Connect { from } => {
                    let to = (from + 1) % n;
                    let ok = self.members[to].is_some();
                    if ok {
                        self.dialed[from] = self.next_conn;
                        self.accepted[to] = Some(self.next_conn);
                        self.next_conn += 1;
                        self.members[to].as_mut().expect("live").on_predecessor_open();
                    }
                    if let Some(m) = self.members[from].as_mut() {
                        m.on_connected(ok, now);
                    }
                    vec![from, to]
                }
                Wire::Data { to, conn, bytes } => {
                    let from = (to + n - 1) % n;
                    if self.accepted[to] == Some(conn) && self.dialed[from] == conn {
                        self.last_data[to] = Some(now);
                        self.members[to]
                            .as_mut()
                            .expect("accepted")
                            .on_predecessor_bytes(&bytes, now);
                    }
                    vec![to]
                }
                Wire::Ack { to, conn, bytes } => {
                    if self.dialed[to] == conn && self.accepted[(to + 1) % n] == Some(conn) {
                        self.members[to].as_mut().expect("dialed").on_successor_bytes(&bytes, now);
                    }
                    vec![to]
                }
                Wire::Timer { of } => {
                    if self.armed[of] == Some(at) {
                        self.armed[of] = None;
                        if let Some(m) = self.members[of].as_mut() {
                            m.on_timer(now);
                        }
                    }
                    vec![of]
                }
            };
            for i in touched {
                self.carry(i);
            }
            true
        }

        fn run(&mut self) {
            while self.step() {}
        }
    }

    /// Sends `sends` tokens numbered from 0 at start, records what it
    /// receives, and halts once it received `expects`.
    struct Script {
        sends: u64,
        expects: usize,
        got: Vec<AkMsg>,
        halted: bool,
    }

    impl Script {
        fn new(sends: u64, expects: usize) -> Script {
            Script { sends, expects, got: Vec::new(), halted: expects == 0 }
        }
    }

    impl ProcessBehavior for Script {
        type Msg = AkMsg;

        fn on_start(&mut self, out: &mut Outbox<AkMsg>) {
            (0..self.sends).for_each(|i| out.send(AkMsg::Token(Label::new(i))));
        }

        fn on_msg(&mut self, msg: &AkMsg, _: &mut Outbox<AkMsg>) -> Reaction {
            self.got.push(*msg);
            self.halted = self.got.len() == self.expects;
            Reaction::Consumed
        }

        fn election(&self) -> ElectionState {
            ElectionState { halted: self.halted, done: self.halted, ..ElectionState::INITIAL }
        }

        fn space_bits(&self, _: u32) -> u64 {
            0
        }
    }

    /// Any fault mix, in percent per transmission attempt.
    fn policy() -> impl Strategy<Value = FaultPolicy> {
        (0..50u32, 0..30u32, 0..30u32, 0..30u32, 0..5_000u64, 0..60u64).prop_map(
            |(drop, duplicate, reorder, delay, max_delay_us, reset)| FaultPolicy {
                drop: f64::from(drop) / 100.0,
                duplicate: f64::from(duplicate) / 100.0,
                reorder: f64::from(reorder) / 100.0,
                delay: f64::from(delay) / 100.0,
                max_delay: Duration::from_micros(max_delay_us),
                // Half the schedules reset the connection once.
                reset_after: (reset < 30).then_some(reset),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One link under any seeded fault mix: the receiver gets exactly
        /// the sent sequence, in order, and the sender's window empties.
        #[test]
        fn a_link_delivers_exactly_the_sent_sequence(
            faults in policy(),
            seed in any::<u64>(),
            count in 1..=300usize,
        ) {
            let procs = vec![Script::new(count as u64, 0), Script::new(0, count)];
            let cfg = |i| LinkConfig {
                faults: if i == 0 { faults } else { FaultPolicy::NONE },
                fault_seed: seed,
                ..LinkConfig::default()
            };
            let mut hops = Hops::start(procs, Duration::from_secs(30), cfg);
            hops.run();
            let [Some(sender), Some(receiver)] = &hops.closed[..] else {
                panic!("both ends close")
            };
            let sent: Vec<AkMsg> = (0..count as u64).map(|i| AkMsg::Token(Label::new(i))).collect();
            prop_assert_eq!(&receiver.proc.got, &sent);
            prop_assert_eq!(hops.done[1].map(|d| d.0), Some(ThreadOutcome::Halted));
            prop_assert!(sender.window.is_empty(), "the window ends empty");
        }
    }

    /// `Ak`'s processes on `labels`, which are distinct: k = 1.
    fn ak_ring(labels: &[u64]) -> Vec<<Ak as Algorithm>::Proc> {
        labels.iter().map(|&l| Ak::new(1).spawn(Label::new(l))).collect()
    }

    #[test]
    fn an_ak_round_over_hops_elects_the_true_leader_everywhere() {
        let labels = [11, 23, 7];
        let ring = RingLabeling::from_raw(&labels);
        let leader = ring.true_leader().expect("distinct labels are asymmetric");
        let mut hops =
            Hops::start(ak_ring(&labels), Duration::from_secs(5), |_| LinkConfig::default());
        hops.run();
        let mut sent = 0;
        for (i, member) in hops.closed.iter().enumerate() {
            let member = member.as_ref().expect("every member drains and closes");
            assert_eq!(hops.done[i].map(|d| d.0), Some(ThreadOutcome::Halted), "member {i}");
            let election = member.election();
            assert_eq!(election.leader, Some(ring.label(leader)), "member {i}");
            assert_eq!(election.is_leader, i == leader, "member {i}");
            assert!(member.window.is_empty());
            sent += member.sent();
        }
        let sim = hre_sim::run(
            &Ak::new(1),
            &ring,
            &mut hre_sim::RoundRobinSched::default(),
            hre_sim::RunOptions::default(),
        );
        assert_eq!(sent, sim.metrics.messages, "every logical message crossed once");
    }

    #[test]
    fn a_member_killed_mid_round_leaves_its_survivors_idling_out() {
        let idle = Duration::from_millis(350);
        let mut hops = Hops::start(ak_ring(&[5, 9, 2, 14]), idle, |_| LinkConfig::default());
        while hops.last_data.iter().any(Option::is_none) {
            assert!(hops.step(), "every member hears from its predecessor");
        }
        hops.kill(1);
        hops.run();
        assert!(hops.done[1].is_none(), "a killed member reports nothing");
        for i in [0, 2, 3] {
            let (outcome, at) = hops.done[i].expect("every survivor reports");
            assert_eq!(outcome, ThreadOutcome::TimedOut, "member {i}");
            let last = hops.last_data[i].expect("every survivor heard something");
            assert_eq!(at, last + idle, "member {i} idles out exactly idle after its last frame");
        }
    }
}
