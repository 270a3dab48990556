//! The socket runtime: one process per OS thread, one TCP connection per
//! ring link, the model's reliable FIFO exactly-once links recovered in
//! software.
//!
//! Each ring node `i` gets one thread with one [`Reactor`], which drives
//! node `i`'s sans-IO [`RingMember`] through the socket shell
//! ([`RingSocket`]): the process runs by the rules every runtime shares
//! ([`hre_runtime::Steps`]), its sends are framed ([`crate::frame`]),
//! pushed through the fault injector ([`crate::fault`]) and written to a
//! connection dialed to the successor's listener — retransmitted on
//! timeout until the successor's cumulative ACK covers them, the
//! connection redialed with capped exponential backoff whenever it dies
//! — and its predecessor's frames are checksummed, reassembled into
//! exactly-once FIFO order ([`crate::reliable`]), ACKed and decoded
//! ([`crate::wire`]). Every listener is bound before any thread starts,
//! so every peer address is known up front.
//!
//! A thread keeps its links running after its own process finished —
//! delivery must keep flowing until every process is done — and exits
//! once the last process in the ring finishes, whose thread wakes the
//! others.

use crate::member::{Ledger, LinkConfig, RingMember};
use crate::metrics::{LinkMetrics, NetSnapshot};
use crate::shell::RingSocket;
use crate::wire::WireMessage;
use crate::{fault::FaultPolicy, member::TraceHandle};
use hre_ring::RingLabeling;
use hre_runtime::{Interest, Reactor, ThreadOutcome, Waker};
use hre_sim::{Algorithm, ElectionState, ProcessBehavior};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for a socket run.
#[derive(Clone, Copy, Debug)]
pub struct NetOptions {
    /// A driver that waits this long without a message gives up
    /// ([`ThreadOutcome::TimedOut`]).
    pub idle_timeout: Duration,
    /// Retransmission timeout: an unacked DATA frame is resent this long
    /// after its last transmission attempt.
    pub retransmit_timeout: Duration,
    /// After its process finishes, a node keeps retransmitting at most
    /// this long to drain unacknowledged frames before giving up.
    pub drain_deadline: Duration,
    /// Transport faults injected at every sender's egress.
    pub faults: FaultPolicy,
    /// Seed for the per-link fault schedules (links derive distinct
    /// streams from it).
    pub fault_seed: u64,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            idle_timeout: Duration::from_secs(10),
            retransmit_timeout: Duration::from_millis(25),
            drain_deadline: Duration::from_secs(5),
            faults: FaultPolicy::NONE,
            fault_seed: 0,
        }
    }
}

/// Result of one socket run. Mirrors
/// [`hre_runtime::ThreadedReport`] plus the transport ledger.
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Final specification variables, per process.
    pub elections: Vec<ElectionState>,
    /// Per-driver outcome.
    pub outcomes: Vec<ThreadOutcome>,
    /// Total *logical* messages the processes sent (comparable to the
    /// simulator's and the channel runtime's message counts).
    pub messages: u64,
    /// Wall-clock duration including transport teardown.
    pub wall: Duration,
    /// What the wire did: frames, retries, bytes, reconnects, RTTs.
    pub net: NetSnapshot,
}

impl NetReport {
    /// Index of the unique leader, if there is exactly one.
    pub fn leader(&self) -> Option<usize> {
        hre_runtime::unique_leader(&self.elections)
    }

    /// `true` iff every driver halted and the terminal states satisfy
    /// the leader-election specification's end conditions.
    pub fn clean(&self) -> bool {
        hre_runtime::clean_run(&self.elections, &self.outcomes)
    }
}

/// Runs `algo` on `ring` over real TCP sockets on loopback.
///
/// Each link is recovered to the model's reliable FIFO exactly-once
/// semantics regardless of the fault policy in `opts`; the price paid
/// (retransmissions, reconnects, duplicate suppression) is itemized in
/// the returned [`NetSnapshot`]. Panics where [`try_run_tcp`] errs.
pub fn run_tcp<A>(algo: &A, ring: &RingLabeling, opts: NetOptions) -> NetReport
where
    A: Algorithm,
    A::Proc: Send,
    <A::Proc as ProcessBehavior>::Msg: WireMessage,
{
    run_tcp_traced(algo, ring, opts, None)
}

/// [`run_tcp`] with an optional flight-recorder attachment: every
/// wire-level recovery event (a retransmission, a duplicate suppressed,
/// a frame buffered out of order) lands in the recorder as an instant
/// event under the given trace and parent span, tagged with the frame's
/// sequence number. `None` is byte-for-byte the untraced run.
pub fn run_tcp_traced<A>(
    algo: &A,
    ring: &RingLabeling,
    opts: NetOptions,
    trace: Option<TraceHandle>,
) -> NetReport
where
    A: Algorithm,
    A::Proc: Send,
    <A::Proc as ProcessBehavior>::Msg: WireMessage,
{
    try_run_tcp(algo, ring, opts, trace).expect("a loopback ring needs sockets and a reactor")
}

/// [`run_tcp_traced`], with the error of binding a loopback listener or
/// creating a reactor — `Unsupported` off Linux — returned instead.
pub fn try_run_tcp<A>(
    algo: &A,
    ring: &RingLabeling,
    opts: NetOptions,
    trace: Option<TraceHandle>,
) -> std::io::Result<NetReport>
where
    A: Algorithm,
    A::Proc: Send,
    <A::Proc as ProcessBehavior>::Msg: WireMessage,
{
    let n = ring.n();
    let started = Instant::now();

    // One listener and one reactor per node, ready before any thread
    // starts: every peer address is known, and every thread can be woken.
    let mut nodes = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        addrs.push(listener.local_addr()?);
        let reactor = Reactor::new()?;
        reactor.register(listener.as_raw_fd(), 0, Interest::READABLE)?;
        nodes.push((listener, reactor));
    }
    let wakers: Vec<Waker> = nodes.iter().map(|(_, r)| r.waker()).collect();
    let running = AtomicUsize::new(n);

    // Link i carries messages from process i to process (i+1) % n; its
    // metrics are shared by i's egress and (i+1)'s ingress.
    let links: Vec<Arc<LinkMetrics>> = (0..n).map(|_| Arc::new(LinkMetrics::default())).collect();

    let results: Vec<(ElectionState, ThreadOutcome, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, (listener, mut reactor))| {
                let cfg = LinkConfig {
                    retransmit_timeout: opts.retransmit_timeout,
                    drain_deadline: opts.drain_deadline,
                    faults: opts.faults,
                    fault_seed: opts.fault_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                };
                let ledger = Ledger {
                    egress: Arc::clone(&links[i]),
                    ingress: Arc::clone(&links[(i + n - 1) % n]),
                    trace: trace.clone(),
                };
                let proc = algo.spawn(ring.label(i));
                let successor = addrs[(i + 1) % n];
                let (wakers, running) = (&wakers, &running);
                scope.spawn(move || {
                    let member =
                        RingMember::start(proc, opts.idle_timeout, cfg, ledger, Instant::now());
                    let mut socket =
                        RingSocket::start(member, listener, successor, [0, 1, 2], &mut reactor);
                    drive(&mut socket, &mut reactor, wakers, running)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ring node thread panicked")).collect()
    });

    let mut elections = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut messages = 0u64;
    for (election, outcome, sent) in results {
        elections.push(election);
        outcomes.push(outcome);
        messages += sent;
    }
    Ok(NetReport {
        elections,
        outcomes,
        messages,
        wall: started.elapsed(),
        net: NetSnapshot::collect(&links),
    })
}

/// One node's thread: runs the socket until every process in the ring
/// finished. The node whose process finishes last wakes the others.
fn drive<P>(
    socket: &mut RingSocket<P>,
    reactor: &mut Reactor,
    wakers: &[Waker],
    running: &AtomicUsize,
) -> (ElectionState, ThreadOutcome, u64)
where
    P: ProcessBehavior,
    P::Msg: WireMessage,
{
    let mut outcome = None;
    let (mut events, mut fired) = (Vec::new(), Vec::new());
    loop {
        if let Some(done) = socket.take_done() {
            outcome = Some(done);
            if running.fetch_sub(1, Ordering::SeqCst) == 1 {
                wakers.iter().for_each(Waker::wake);
            }
        }
        if running.load(Ordering::SeqCst) == 0 {
            break;
        }
        if reactor.poll(&mut events, &mut fired, None).is_err() {
            // A reactor that cannot wait any more still lets the ring
            // end: this node gives up as if its predecessor vanished.
            if outcome.is_none() {
                outcome = Some(ThreadOutcome::Disconnected);
                running.fetch_sub(1, Ordering::SeqCst);
            }
            break;
        }
        for ev in events.drain(..) {
            socket.event(reactor, ev);
        }
        if !fired.is_empty() {
            socket.timer(reactor);
        }
    }
    let member = socket.member();
    (member.election(), outcome.expect("the loop ends after the process"), member.sent())
}
