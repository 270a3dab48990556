//! # hre-runtime — the algorithms on real threads
//!
//! The reproduction's "hardware": one OS thread per ring process, with
//! crossbeam unbounded MPSC channels as the reliable FIFO links. The
//! same [`hre_sim::ProcessBehavior`] implementations that
//! run under the discrete-event simulator run here unchanged — real
//! concurrency, real memory ordering, no scheduler in the loop.
//!
//! Channels give exactly the model's link semantics: reliable, FIFO,
//! unbounded, single-writer/single-reader per link. A blocking `recv` is
//! the model's message-blocking `rcv`; a process whose head message matches
//! no guard ([`Reaction::Ignored`](hre_sim::Reaction)) can never make
//! progress again and its thread exits reporting a wedge.
//!
//! Used by the E11 experiment for wall-clock benchmarking and by
//! integration tests to confirm simulator/thread-runtime agreement.

// `deny`, not `forbid`: the epoll reactor ([`reactor`]) needs one
// scoped `#[allow(unsafe_code)]` for its raw-glibc syscall shim — the
// same hand-rolled no-new-deps discipline as the vendored signal-hook
// crate. Everything else in the crate remains statically unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod clock;
pub mod driver;
pub mod hist;
pub mod net;
pub mod reactor;
pub mod trace;

pub use backoff::Backoff;
pub use clock::{Clock, ClockHandle, RealClock, VirtualClock};
pub use driver::{drive_node, NodeTransport, RecvFault, SendFault, ThreadOutcome};
pub use hist::{bucket_of, render_prometheus_histogram, HistSnapshot, Log2Histogram, LOG2_BUCKETS};
pub use net::{tcp_connect_nonblocking, ConnectStart};
pub use reactor::{Event, Interest, PollOutcome, Reactor, TimerKey, Waker, WAKE_TOKEN};
pub use trace::{FlightRecorder, SpanAttrs, SpanId, SpanRecord, Stage, TraceId, DEFAULT_TRACE_CAP};

use crossbeam::channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender,
};
use hre_ring::RingLabeling;
use hre_sim::{Algorithm, ElectionState, ProcessBehavior};
use hre_words::Label;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one threaded execution.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// Final specification variables, per process.
    pub elections: Vec<ElectionState>,
    /// Per-thread outcome.
    pub outcomes: Vec<ThreadOutcome>,
    /// Total messages sent across all links.
    pub messages: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl ThreadedReport {
    /// Index of the unique leader, if there is exactly one.
    pub fn leader(&self) -> Option<usize> {
        let leaders: Vec<usize> = self
            .elections
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_leader)
            .map(|(i, _)| i)
            .collect();
        (leaders.len() == 1).then(|| leaders[0])
    }

    /// `true` iff every thread halted and the terminal states satisfy the
    /// leader-election specification's end conditions.
    pub fn clean(&self) -> bool {
        if !self.outcomes.iter().all(|o| *o == ThreadOutcome::Halted) {
            return false;
        }
        let Some(l) = self.leader() else { return false };
        let lid = self.elections[l].leader;
        lid.is_some() && self.elections.iter().all(|e| e.done && e.halted && e.leader == lid)
    }
}

/// Options for a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedOptions {
    /// A thread that waits this long without receiving gives up
    /// (`TimedOut`). Guards CI against non-terminating algorithms.
    pub idle_timeout: Duration,
    /// `None` (default): unbounded links, as the paper's model assumes.
    /// `Some(c)`: bounded crossbeam channels of capacity `c` — real
    /// backpressure. The ring algorithms send at most one message per
    /// action and consume before sending, so they are deadlock-free even
    /// at capacity 1 (see the tests); a stalled send past
    /// [`Self::send_timeout`] ends the thread with
    /// [`ThreadOutcome::Stalled`].
    pub channel_capacity: Option<usize>,
    /// How long a bounded send may block before the thread reports a
    /// stall. Irrelevant for unbounded links.
    pub send_timeout: Duration,
}

impl Default for ThreadedOptions {
    fn default() -> Self {
        ThreadedOptions {
            idle_timeout: Duration::from_secs(10),
            channel_capacity: None,
            send_timeout: Duration::from_secs(10),
        }
    }
}

/// One ring node's links realized as crossbeam channels: the
/// [`NodeTransport`] of the in-process runtime.
struct ChannelTransport<M> {
    tx: Sender<M>,
    rx: Receiver<M>,
    send_timeout: Duration,
}

impl<M> NodeTransport<M> for ChannelTransport<M> {
    fn send(&mut self, msg: M) -> Result<(), SendFault> {
        // The receiver may already have halted and dropped its endpoint;
        // the message is then provably irrelevant (the halted process would
        // never have received it), so a disconnect is swallowed. A timeout,
        // however, is a genuine backpressure stall.
        match self.tx.send_timeout(msg, self.send_timeout) {
            Ok(()) | Err(SendTimeoutError::Disconnected(_)) => Ok(()),
            Err(SendTimeoutError::Timeout(_)) => Err(SendFault::Stalled),
        }
    }

    fn recv(&mut self, idle: Duration) -> Result<M, RecvFault> {
        match self.rx.recv_timeout(idle) {
            Ok(msg) => Ok(msg),
            Err(RecvTimeoutError::Timeout) => Err(RecvFault::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvFault::Disconnected),
        }
    }
}

/// Runs `algo` on `ring` with one OS thread per process and crossbeam
/// channels as links. Returns once every thread has finished (halted,
/// wedged, or timed out).
pub fn run_threaded<A>(algo: &A, ring: &RingLabeling, opts: ThreadedOptions) -> ThreadedReport
where
    A: Algorithm,
    A::Proc: Send + 'static,
    <A::Proc as ProcessBehavior>::Msg: Send + 'static,
{
    let n = ring.n();
    let started = Instant::now();
    let sent_total = Arc::new(AtomicU64::new(0));

    // Channel i carries messages from p(i) to p(i+1); thread i receives
    // from channel (i-1) and sends on channel i.
    let mut senders: Vec<Option<Sender<_>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<_>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = match opts.channel_capacity {
            Some(c) => bounded(c.max(1)),
            None => unbounded(),
        };
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }

    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let rx = receivers[(i + n - 1) % n].take().expect("each rx taken once");
        let tx = senders[i].take().expect("each tx taken once");
        let mut proc = algo.spawn(ring.label(i));
        let sent = Arc::clone(&sent_total);
        let idle = opts.idle_timeout;
        let send_timeout = opts.send_timeout;
        handles.push(std::thread::spawn(move || {
            let mut transport = ChannelTransport { tx, rx, send_timeout };
            let (outcome, sent_here) = drive_node(&mut proc, &mut transport, idle);
            sent.fetch_add(sent_here, Ordering::Relaxed);
            // Channels drop here; peers past their own halt never notice.
            (proc, outcome)
        }));
    }

    let mut elections = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for h in handles {
        let (proc, outcome) = h.join().expect("process thread panicked");
        elections.push(proc.election());
        outcomes.push(outcome);
    }

    ThreadedReport {
        elections,
        outcomes,
        messages: sent_total.load(Ordering::Relaxed),
        wall: started.elapsed(),
    }
}

/// Convenience: spawn-and-check one algorithm on one ring; panics with a
/// diagnostic if the run is not clean. Used by examples.
pub fn run_threaded_expect_leader<A>(
    algo: &A,
    ring: &RingLabeling,
) -> (usize, Label, ThreadedReport)
where
    A: Algorithm,
    A::Proc: Send + 'static,
    <A::Proc as ProcessBehavior>::Msg: Send + 'static,
{
    let rep = run_threaded(algo, ring, ThreadedOptions::default());
    assert!(rep.clean(), "threaded run not clean: {:?}", rep.outcomes);
    let leader = rep.leader().expect("clean implies unique leader");
    let label = rep.elections[leader].leader.expect("leader label set");
    (leader, label, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_baselines::{ChangRoberts, OracleN, Peterson};
    use hre_core::{Ak, Bk};
    use hre_ring::{catalog, generate};
    use hre_sim::{run, RoundRobinSched, RunOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ak_on_threads_elects_figure1_leader() {
        let ring = catalog::figure1_ring();
        let rep = run_threaded(&Ak::new(3), &ring, ThreadedOptions::default());
        assert!(rep.clean(), "{:?}", rep.outcomes);
        assert_eq!(rep.leader(), Some(0));
    }

    #[test]
    fn bk_on_threads_elects_figure1_leader() {
        let ring = catalog::figure1_ring();
        let rep = run_threaded(&Bk::new(3), &ring, ThreadedOptions::default());
        assert!(rep.clean(), "{:?}", rep.outcomes);
        assert_eq!(rep.leader(), Some(0));
    }

    #[test]
    fn threaded_and_simulated_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let ring = generate::random_a_inter_kk(8, 3, 3, &mut rng);
            let sim =
                run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
            let thr = run_threaded(&Ak::new(3), &ring, ThreadedOptions::default());
            assert!(sim.clean() && thr.clean());
            assert_eq!(thr.leader(), sim.leader, "{ring:?}");
            // Message counts agree too: the algorithms are confluent.
            assert_eq!(thr.messages, sim.metrics.messages, "{ring:?}");
        }
    }

    #[test]
    fn baselines_run_on_threads() {
        let mut rng = StdRng::seed_from_u64(8);
        let ring = generate::random_k1(10, &mut rng);
        for rep in [
            run_threaded(&ChangRoberts, &ring, ThreadedOptions::default()),
            run_threaded(&Peterson, &ring, ThreadedOptions::default()),
            run_threaded(&OracleN::new(10), &ring, ThreadedOptions::default()),
        ] {
            assert!(rep.clean(), "{:?}", rep.outcomes);
        }
    }

    #[test]
    fn bounded_links_work_even_at_capacity_one() {
        // Both algorithms consume before sending and send at most one
        // message per action, so even capacity-1 links cannot deadlock the
        // ring (see the module docs for the counting argument). Outcomes
        // match the unbounded run exactly.
        let ring = catalog::figure1_ring();
        for cap in [1usize, 2, 8] {
            let opts = ThreadedOptions {
                channel_capacity: Some(cap),
                send_timeout: Duration::from_secs(5),
                ..Default::default()
            };
            let ak = run_threaded(&Ak::new(3), &ring, opts);
            assert!(ak.clean(), "Ak cap={cap}: {:?}", ak.outcomes);
            assert_eq!(ak.leader(), Some(0), "cap={cap}");
            let bk = run_threaded(&Bk::new(3), &ring, opts);
            assert!(bk.clean(), "Bk cap={cap}: {:?}", bk.outcomes);
            assert_eq!(bk.leader(), Some(0), "cap={cap}");
        }
    }

    #[test]
    fn bounded_and_unbounded_agree_on_messages() {
        let mut rng = StdRng::seed_from_u64(19);
        let ring = generate::random_a_inter_kk(10, 3, 4, &mut rng);
        let unbounded_rep = run_threaded(&Ak::new(3), &ring, ThreadedOptions::default());
        let bounded_rep = run_threaded(
            &Ak::new(3),
            &ring,
            ThreadedOptions { channel_capacity: Some(2), ..Default::default() },
        );
        assert!(unbounded_rep.clean() && bounded_rep.clean());
        assert_eq!(unbounded_rep.leader(), bounded_rep.leader());
        assert_eq!(unbounded_rep.messages, bounded_rep.messages);
    }

    #[test]
    fn timeout_guards_against_nontermination() {
        // OracleN with a wrong n never elects on this ring; threads must
        // time out rather than hang forever.
        let ring = hre_ring::RingLabeling::from_raw(&[1, 2, 1, 3]);
        let rep = run_threaded(
            &OracleN::new(3),
            &ring,
            ThreadedOptions { idle_timeout: Duration::from_millis(200), ..Default::default() },
        );
        assert!(!rep.clean());
        assert!(rep.outcomes.contains(&ThreadOutcome::TimedOut));
    }
}
