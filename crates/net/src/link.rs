//! One node's reliable link endpoints, reusable outside the all-in-one
//! ring runtime: **receive on a listener you own, dial back to a peer
//! you're told about**.
//!
//! [`run_tcp`](crate::run_tcp) binds every ring node's listener inside
//! one process, so it always knows all the peer addresses up front. A
//! *distributed* ring — the control plane electing a coordinator across
//! real processes — can't do that: each process owns exactly one
//! listener and learns its successor's address from the membership
//! view. [`PeerLink`] packages the transmit and receive loops for that
//! case: the same framing, retransmission window, cumulative ACKs,
//! reconnect backoff, and exactly-once FIFO reassembly as the in-process
//! runtime, but for a single directed link pair (my egress to one peer,
//! my ingress from another).
//!
//! Teardown has two shapes. [`PeerLink::close_now`] retires the threads
//! immediately (the in-process runtime's behavior: every driver already
//! joined, nothing needs delivery). [`PeerLink::close_graceful`] first
//! lets the TX thread drain its unacknowledged window, then keeps the
//! RX thread alive for a linger period so a *predecessor* still
//! draining its own window gets its final ACKs — without the linger,
//! two neighboring processes closing simultaneously would each stall
//! the other's drain until the deadline.

use crate::fault::{FaultPolicy, LinkInjector, WireAction};
use crate::frame::{encode_frame, Frame, FrameError, FrameReader, KIND_ACK, KIND_DATA};
use crate::metrics::LinkMetrics;
use crate::reliable::{Offer, Reassembly};
use crate::window::RetransmitWindow;
use crate::wire::WireMessage;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use hre_runtime::trace::{FlightRecorder, SpanId, Stage, TraceId};
use hre_runtime::{NodeTransport, RecvFault, SendFault};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tick granularity of the TX polling loop.
pub(crate) const TICK: Duration = Duration::from_micros(500);
/// How long a reorder-stashed frame waits for a successor frame before
/// being flushed anyway.
const REORDER_HOLD: Duration = Duration::from_millis(2);
/// First reconnect backoff; doubles per failure up to [`BACKOFF_CAP`]
/// (the shared [`hre_runtime::Backoff`] policy).
const BACKOFF_START: Duration = Duration::from_millis(1);
/// Ceiling for the reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Where a traced link reports its wire-level recovery events: the
/// flight recorder plus the trace and parent span the events attach to.
pub type TraceHandle = (Arc<FlightRecorder>, TraceId, SpanId);

/// Wire-level knobs for one link (the link-relevant subset of
/// [`crate::NetOptions`]).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Retransmission timeout: an unacked DATA frame is resent this long
    /// after its last transmission attempt.
    pub retransmit_timeout: Duration,
    /// After its driver disconnects, the TX thread lingers at most this
    /// long to drain unacknowledged frames before giving up.
    pub drain_deadline: Duration,
    /// Transport faults injected at this sender's egress.
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

/// The driver-facing ends of one node's links: in-memory queues serviced
/// by the TX and RX threads. Dropping it disconnects the TX queue, which
/// starts the TX thread's drain.
pub struct LinkTransport<M> {
    pub(crate) to_tx: Sender<M>,
    pub(crate) from_rx: Receiver<M>,
}

impl<M> NodeTransport<M> for LinkTransport<M> {
    fn send(&mut self, msg: M) -> Result<(), SendFault> {
        // Unbounded queue: only fails if the TX thread died, which never
        // happens before the driver itself returns.
        self.to_tx.send(msg).map_err(|_| SendFault::Disconnected)
    }

    fn recv(&mut self, idle: Duration) -> Result<M, RecvFault> {
        match self.from_rx.recv_timeout(idle) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(RecvFault::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvFault::Disconnected),
        }
    }
}

/// One node's pair of reliable link endpoints: a TX thread dialing
/// `peer` (the ring successor) and an RX thread accepting on the node's
/// own listener (the ring predecessor dials back). See the module docs.
pub struct PeerLink {
    shutdown: Arc<AtomicBool>,
    tx: Option<JoinHandle<()>>,
    rx: Option<JoinHandle<()>>,
    /// Egress metrics (this node's TX side of its outgoing link).
    pub tx_metrics: Arc<LinkMetrics>,
    /// Ingress metrics (this node's RX side of its incoming link).
    pub rx_metrics: Arc<LinkMetrics>,
}

impl PeerLink {
    /// Opens the endpoints: spawns the TX thread (dialing `peer`) and the
    /// RX thread (accepting on `listener`), wired to the returned
    /// [`LinkTransport`]. Metrics arcs are supplied by the caller so an
    /// orchestrator can share one ledger per *directed link* between the
    /// sender's TX and the receiver's RX, as the ring runtime does.
    pub fn open<M: WireMessage>(
        listener: TcpListener,
        peer: SocketAddr,
        tx_metrics: Arc<LinkMetrics>,
        rx_metrics: Arc<LinkMetrics>,
        cfg: LinkConfig,
        trace: Option<TraceHandle>,
    ) -> (PeerLink, LinkTransport<M>) {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (to_tx, from_driver) = unbounded();
        let (to_driver, from_rx) = unbounded();

        let rx_loop = RxLoop::<M> {
            listener,
            to_driver,
            metrics: Arc::clone(&rx_metrics),
            shutdown: Arc::clone(&shutdown),
            trace: trace.clone(),
        };
        let rx = std::thread::spawn(move || rx_loop.run());

        let tx_loop = TxLoop::<M> {
            from_driver,
            peer,
            metrics: Arc::clone(&tx_metrics),
            injector: LinkInjector::new(cfg.faults, cfg.fault_seed),
            inject: !cfg.faults.is_none(),
            rto: cfg.retransmit_timeout,
            drain_deadline: cfg.drain_deadline,
            shutdown: Arc::clone(&shutdown),
            trace,
        };
        let tx = std::thread::spawn(move || tx_loop.run());

        (
            PeerLink { shutdown, tx: Some(tx), rx: Some(rx), tx_metrics, rx_metrics },
            LinkTransport { to_tx, from_rx },
        )
    }

    /// Retires both threads immediately. Anything still in the TX window
    /// is abandoned — correct once every driver in the ring has already
    /// finished (the in-process runtime's shutdown phase).
    pub fn close_now(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.join();
    }

    /// Graceful teardown for a *distributed* ring, where peers close
    /// independently: join the TX thread first (it exits on its own once
    /// its window drains — the transport must already be dropped), keep
    /// the RX thread ACKing for `linger`, then retire it.
    pub fn close_graceful(mut self, linger: Duration) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.join();
        }
        std::thread::sleep(linger);
        self.shutdown.store(true, Ordering::Relaxed);
        self.join();
    }

    fn join(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.join();
        }
        if let Some(rx) = self.rx.take() {
            let _ = rx.join();
        }
    }
}

/// Sender side of one link.
pub(crate) struct TxLoop<M: WireMessage> {
    pub(crate) from_driver: Receiver<M>,
    pub(crate) peer: SocketAddr,
    pub(crate) metrics: Arc<LinkMetrics>,
    pub(crate) injector: LinkInjector,
    pub(crate) inject: bool,
    pub(crate) rto: Duration,
    pub(crate) drain_deadline: Duration,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) trace: Option<TraceHandle>,
}

impl<M: WireMessage> TxLoop<M> {
    pub(crate) fn run(mut self) {
        let mut conn: Option<(TcpStream, FrameReader)> = None;
        // The timing logic lives in the clock-agnostic window state
        // machine; this loop just feeds it wall-clock `now`s.
        let mut window = RetransmitWindow::new(self.rto);
        let mut delayq: Vec<(Instant, Vec<u8>)> = Vec::new();
        let mut stash: Option<(Instant, Vec<u8>)> = None;
        let mut backoff = hre_runtime::Backoff::new(BACKOFF_START, BACKOFF_CAP);
        let mut connected_once = false;
        let mut driver_done: Option<Instant> = None;
        let mut readbuf = [0u8; 4096];

        loop {
            // When fully idle, block on the driver queue instead of
            // polling — a fresh message wakes the loop immediately, so
            // per-hop latency is bounded by the wire, not by a tick.
            let idle = window.is_empty() && delayq.is_empty() && stash.is_none();
            if driver_done.is_none() && idle {
                match self.from_driver.recv_timeout(TICK) {
                    Ok(m) => {
                        let now = Instant::now();
                        let mut payload = Vec::new();
                        m.encode(&mut payload);
                        let seq = window.next_seq();
                        window.insert(seq, encode_frame(seq, KIND_DATA, &payload), now);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => driver_done = Some(Instant::now()),
                }
            }
            let now = Instant::now();

            // Ingest whatever else the driver queued, without blocking.
            if driver_done.is_none() {
                loop {
                    match self.from_driver.try_recv() {
                        Ok(m) => {
                            let mut payload = Vec::new();
                            m.encode(&mut payload);
                            let seq = window.next_seq();
                            window.insert(seq, encode_frame(seq, KIND_DATA, &payload), now);
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            driver_done = Some(now);
                            break;
                        }
                    }
                }
            }

            // Exit checks.
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if let Some(done_at) = driver_done {
                let drained = window.is_empty() && delayq.is_empty() && stash.is_none();
                if drained || now.duration_since(done_at) > self.drain_deadline {
                    return;
                }
            }

            // Ensure a connection exists (dial with capped backoff).
            if conn.is_none() && (!window.is_empty() || !delayq.is_empty() || stash.is_some()) {
                match TcpStream::connect(self.peer) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_read_timeout(Some(Duration::from_millis(1)));
                        let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
                        if connected_once {
                            self.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        connected_once = true;
                        backoff.reset();
                        // Everything unacked replays on the new pipe.
                        window.replay_all(now);
                        conn = Some((s, FrameReader::new()));
                    }
                    Err(_) => {
                        std::thread::sleep(backoff.advance());
                        continue;
                    }
                }
            }

            let mut io_failed = false;

            if let Some((stream, _)) = conn.as_mut() {
                // Injected delays whose hold time elapsed.
                let mut i = 0;
                while i < delayq.len() {
                    if delayq[i].0 <= now {
                        let (_, bytes) = delayq.swap_remove(i);
                        io_failed |= !write_wire(stream, &bytes, &self.metrics);
                    } else {
                        i += 1;
                    }
                }

                // A reorder stash that waited long enough goes out as-is.
                if let Some((since, _)) = stash {
                    if now.duration_since(since) > REORDER_HOLD {
                        let (_, bytes) = stash.take().expect("stash checked");
                        io_failed |= !write_wire(stream, &bytes, &self.metrics);
                    }
                }
            }

            // Transmit every window entry whose (re)send is due.
            for seq in window.due(now) {
                if io_failed || conn.is_none() {
                    break;
                }
                let (bytes, attempts) = window.begin_send(seq, now).expect("due seq in window");
                if attempts == 1 {
                    self.metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.metrics.frames_retried.fetch_add(1, Ordering::Relaxed);
                    if let Some((rec, trace, parent)) = &self.trace {
                        rec.record_event(*trace, *parent, Stage::Retransmit, seq, attempts as u64);
                    }
                }
                let action = if self.inject { self.injector.roll() } else { WireAction::Deliver };
                if action != WireAction::Deliver {
                    self.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                }
                let (stream, _) = conn.as_mut().expect("conn checked");
                match action {
                    WireAction::Deliver => {
                        io_failed |= !write_wire(stream, &bytes, &self.metrics);
                        // A pending reorder stash ships right after its
                        // successor: the swap is complete.
                        if let Some((_, stashed)) = stash.take() {
                            io_failed |= !write_wire(stream, &stashed, &self.metrics);
                        }
                    }
                    WireAction::Drop => {}
                    WireAction::Duplicate => {
                        io_failed |= !write_wire(stream, &bytes, &self.metrics);
                        io_failed |= !write_wire(stream, &bytes, &self.metrics);
                    }
                    WireAction::Reorder => {
                        if let Some((_, prev)) = stash.replace((now, bytes)) {
                            io_failed |= !write_wire(stream, &prev, &self.metrics);
                        }
                    }
                    WireAction::Delay(d) => delayq.push((now + d, bytes)),
                    WireAction::Reset => {
                        conn = None;
                        window.force_due(seq, now); // replay immediately after redial
                    }
                }
            }

            // Read cumulative ACKs flowing back on the same connection.
            // Only worth blocking for while something is unacknowledged;
            // the 1 ms read timeout doubles as the loop's tick then.
            if !window.is_empty() {
                if let Some((stream, reader)) = conn.as_mut() {
                    match stream.read(&mut readbuf) {
                        Ok(0) => io_failed = true,
                        Ok(nread) => {
                            reader.extend(&readbuf[..nread]);
                            loop {
                                match reader.next_frame() {
                                    Some(Ok(Frame { seq: cum, kind: KIND_ACK, .. })) => {
                                        let acked_at = Instant::now();
                                        for rtt in window.ack(cum, acked_at) {
                                            self.metrics.record_rtt(rtt);
                                        }
                                    }
                                    Some(Ok(_)) => {} // stray DATA: ignore
                                    Some(Err(FrameError::BadLength)) => {
                                        io_failed = true;
                                        break;
                                    }
                                    Some(Err(_)) => {
                                        self.metrics
                                            .frames_rejected
                                            .fetch_add(1, Ordering::Relaxed);
                                    }
                                    None => break,
                                }
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(_) => io_failed = true,
                    }
                }
            }

            if io_failed {
                conn = None;
            }
            // Pacing: the blocking points above (driver recv when fully
            // idle, ACK read while awaiting acks) bound the loop in the
            // common states; only a pending delay/reorder stash with an
            // empty window still needs an explicit nap.
            if window.is_empty() && !(delayq.is_empty() && stash.is_none()) {
                std::thread::sleep(TICK);
            }
        }
    }
}

/// Writes one frame; returns `false` on any I/O failure (the caller
/// reconnects; the window replays whatever was lost).
fn write_wire(stream: &mut TcpStream, bytes: &[u8], metrics: &LinkMetrics) -> bool {
    match stream.write_all(bytes) {
        Ok(()) => {
            metrics.bytes_on_wire.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            true
        }
        Err(_) => false,
    }
}

/// Receiver side of one link: accept, verify, reassemble, ack, decode,
/// deliver. Reassembly state survives reconnects — exactly-once holds
/// across resets.
pub(crate) struct RxLoop<M: WireMessage> {
    pub(crate) listener: TcpListener,
    pub(crate) to_driver: Sender<M>,
    pub(crate) metrics: Arc<LinkMetrics>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) trace: Option<TraceHandle>,
}

impl<M: WireMessage> RxLoop<M> {
    pub(crate) fn run(self) {
        let mut reasm = Reassembly::new();
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        let mut readbuf = [0u8; 4096];
        'accept: while !self.shutdown.load(Ordering::Relaxed) {
            let mut stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(2)));
            let mut reader = FrameReader::new();
            loop {
                if self.shutdown.load(Ordering::Relaxed) {
                    break 'accept;
                }
                match stream.read(&mut readbuf) {
                    Ok(0) => continue 'accept, // sender closed; await redial
                    Ok(nread) => {
                        reader.extend(&readbuf[..nread]);
                        loop {
                            match reader.next_frame() {
                                Some(Ok(Frame { seq, kind: KIND_DATA, payload })) => {
                                    match reasm.offer(seq, payload) {
                                        Offer::Delivered(payloads) => {
                                            for p in payloads {
                                                match M::decode(&p) {
                                                    Some(m) => {
                                                        // The driver may have
                                                        // halted; late traffic
                                                        // is irrelevant then.
                                                        let _ = self.to_driver.send(m);
                                                    }
                                                    None => {
                                                        self.metrics
                                                            .frames_rejected
                                                            .fetch_add(1, Ordering::Relaxed);
                                                    }
                                                }
                                            }
                                        }
                                        Offer::Buffered => {
                                            if let Some((rec, trace, parent)) = &self.trace {
                                                rec.record_event(
                                                    *trace,
                                                    *parent,
                                                    Stage::Reassembly,
                                                    seq,
                                                    2,
                                                );
                                            }
                                        }
                                        Offer::Duplicate => {
                                            self.metrics
                                                .dup_frames_rx
                                                .fetch_add(1, Ordering::Relaxed);
                                            if let Some((rec, trace, parent)) = &self.trace {
                                                rec.record_event(
                                                    *trace,
                                                    *parent,
                                                    Stage::Reassembly,
                                                    seq,
                                                    1,
                                                );
                                            }
                                        }
                                    }
                                    let ack = encode_frame(reasm.cumulative_ack(), KIND_ACK, &[]);
                                    if stream.write_all(&ack).is_ok() {
                                        self.metrics.acks_sent.fetch_add(1, Ordering::Relaxed);
                                        self.metrics
                                            .bytes_on_wire
                                            .fetch_add(ack.len() as u64, Ordering::Relaxed);
                                    }
                                }
                                Some(Ok(_)) => {} // stray ACK: ignore
                                Some(Err(FrameError::BadLength)) => continue 'accept,
                                Some(Err(_)) => {
                                    self.metrics.frames_rejected.fetch_add(1, Ordering::Relaxed);
                                }
                                None => break,
                            }
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => continue 'accept,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_core::AkMsg;
    use hre_runtime::NodeTransport;
    use hre_words::Label;

    /// Two processes' worth of endpoints in one test: A sends to B over
    /// a real TCP dial-back pair, with faults on A's egress.
    #[test]
    fn dial_back_pair_delivers_exactly_once_in_order() {
        let listener_b = TcpListener::bind("127.0.0.1:0").expect("bind b");
        let addr_b = listener_b.local_addr().expect("addr b");
        // A needs a listener too (unused ingress side in this test).
        let listener_a = TcpListener::bind("127.0.0.1:0").expect("bind a");

        let cfg = LinkConfig {
            faults: FaultPolicy { drop: 0.2, duplicate: 0.2, reorder: 0.1, ..FaultPolicy::NONE },
            fault_seed: 42,
            retransmit_timeout: Duration::from_millis(10),
            ..Default::default()
        };
        let (link_a, mut ta) = PeerLink::open::<AkMsg>(
            listener_a,
            addr_b,
            Arc::new(LinkMetrics::default()),
            Arc::new(LinkMetrics::default()),
            cfg,
            None,
        );
        let (link_b, mut tb) = PeerLink::open::<AkMsg>(
            listener_b,
            // B never sends in this test; a dead peer address is fine
            // because the TX thread only dials once it has traffic.
            "127.0.0.1:1".parse().unwrap(),
            Arc::new(LinkMetrics::default()),
            Arc::new(LinkMetrics::default()),
            LinkConfig::default(),
            None,
        );

        for i in 0..200u64 {
            ta.send(AkMsg::Token(Label::new(i))).expect("send");
        }
        for i in 0..200u64 {
            let got = tb.recv(Duration::from_secs(10)).expect("recv");
            assert_eq!(got, AkMsg::Token(Label::new(i)), "FIFO exactly-once order");
        }

        drop(ta);
        drop(tb);
        link_a.close_graceful(Duration::from_millis(50));
        link_b.close_now();
    }
}
