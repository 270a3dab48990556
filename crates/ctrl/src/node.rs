//! The control-plane node: one per process, next to the data-plane
//! daemon it represents. It drives one [`Machine`] — the member's whole
//! state and every decision, see [`crate::machine`] for the protocol —
//! over real sockets, from one reactor thread.
//!
//! The machine sits behind one lock, which the handle's readers share.
//! The node's small HTTP endpoint — served by the data plane's
//! front-connection machine ([`hre_svc::front`]) — hands it each request
//! and answers at once. A prepare it accepts binds an election listener
//! on the reactor, and a commit starts the round's `Ak` member there
//! ([`RingSocket`], the socket shell `run_tcp` uses too), which reports
//! the elected coordinator to the machine the moment its process halts
//! or idles out; the member's window drains and its ACKs linger on the
//! reactor's timers after that. A reactor timer ticks the machine every
//! heartbeat interval, and each exchange it asks for is a wire of the
//! front machine ([`Front::open_wire`]): all of a tick's exchanges are
//! out at once, each failing on its own after [`CTRL_TIMEOUT`], as the
//! deterministic simulator schedules them. Accepted configs and
//! declared deaths reach the `on_config`/`on_death` callbacks, called
//! outside the lock.

use crate::election;
use crate::machine::{exchange_request, ClusterTopology, Command, Machine, CTRL_TIMEOUT};
use crate::member::{MemberId, RingPlan, Role, View};
use hre_core::AkProc;
use hre_net::{Ledger, RingSocket};
use hre_runtime::trace::FlightRecorder;
use hre_runtime::{ClockHandle, Event, Interest, Reactor};
use hre_svc::front::{self, Dispatch, Front, Service, WireOutcome};
use hre_svc::http::{Request, DEFAULT_MAX_BODY};
use hre_svc::StatusProvider;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Callback invoked whenever a config push is accepted (routers hook
/// `hre-cluster`'s `Shared::update_backends` here).
pub type ConfigCallback = Arc<dyn Fn(&ClusterTopology) + Send + Sync>;

/// Callback invoked when a live backend is declared dead, with its
/// serve address (routers hook breaker tripping here, so traffic stops
/// flowing into the hole before the config catches up).
pub type DeathCallback = Arc<dyn Fn(&str) + Send + Sync>;

/// Configuration of one control-plane node.
#[derive(Clone)]
pub struct CtrlConfig {
    /// Stable node id; `None` derives one from `serve_addr` so the same
    /// logical node keeps its identity across restarts.
    pub node_id: Option<u64>,
    /// Backend (electable, in the ring) or router (observer).
    pub role: Role,
    /// Control-plane listen address; port 0 picks an ephemeral port.
    pub ctrl_addr: String,
    /// The data-plane address this member advertises.
    pub serve_addr: String,
    /// Control-plane addresses of existing members to join through
    /// (empty bootstraps a new cluster).
    pub seeds: Vec<String>,
    /// Gossip/heartbeat tick interval.
    pub heartbeat_interval: Duration,
    /// A peer whose latest exchange failed and that has been silent past
    /// this is declared dead.
    pub failure_timeout: Duration,
    /// Idle timeout for this member's `Ak` process during a round, and
    /// so the least time between an election attempt that did not settle
    /// (no config was accepted at or above its epoch) and the next; an
    /// attempt that settled holds off no later one.
    pub election_idle: Duration,
    /// How often the coordinator re-pushes the active config.
    pub push_interval: Duration,
    /// Flight recorder to record membership/reconfigure spans into
    /// (share the daemon's so `GET /trace/recent` shows re-elections);
    /// `None` creates a private one.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Called on every accepted config push.
    pub on_config: Option<ConfigCallback>,
    /// Called when a live backend is declared dead.
    pub on_death: Option<DeathCallback>,
    /// Time source for the member's [`Machine`] (last-heard times,
    /// failure detection, the push and election timers). Defaults to the
    /// wall clock; the simulation harness injects a virtual clock.
    pub clock: ClockHandle,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            node_id: None,
            role: Role::Backend,
            ctrl_addr: "127.0.0.1:0".into(),
            serve_addr: String::new(),
            seeds: Vec::new(),
            heartbeat_interval: Duration::from_millis(75),
            failure_timeout: Duration::from_millis(450),
            election_idle: Duration::from_secs(3),
            push_interval: Duration::from_millis(400),
            recorder: None,
            on_config: None,
            on_death: None,
            clock: ClockHandle::default(),
        }
    }
}

impl std::fmt::Debug for CtrlConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtrlConfig")
            .field("node_id", &self.node_id)
            .field("role", &self.role)
            .field("ctrl_addr", &self.ctrl_addr)
            .field("serve_addr", &self.serve_addr)
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

/// Timer token of the heartbeat; far above every socket token.
const TICK: u64 = 1 << 60;

struct Inner {
    cfg: CtrlConfig,
    machine: Mutex<Machine>,
    shutdown: Arc<AtomicBool>,
}

/// A running control-plane node. Dropping the handle leaks its thread;
/// call [`CtrlHandle::shutdown`] to drain.
pub struct CtrlHandle {
    /// The control-plane address actually bound (resolves port 0).
    pub addr: SocketAddr,
    inner: Arc<Inner>,
    endpoint: JoinHandle<()>,
}

/// Derives a stable node id from the advertised serve address (FNV-1a
/// then a SplitMix finalizer), so restarts keep the identity.
pub fn derive_node_id(serve_addr: &str) -> MemberId {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in serve_addr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

/// Binds the control endpoint and starts its reactor, which joins
/// through the seeds at once and ticks one heartbeat later. Returns
/// without waiting for the joins.
pub fn start(cfg: CtrlConfig) -> std::io::Result<CtrlHandle> {
    let listener = TcpListener::bind(&cfg.ctrl_addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let reactor = Reactor::new()?;
    // Wall-clock incarnation: strictly greater than any incarnation a
    // previous run of this node can have gossiped (assuming the clock
    // does not run backwards across a restart), so a rejoin supersedes
    // stale records without coordination.
    let incarnation = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(1)
        .max(1);
    let machine = Machine::new(&cfg, addr.to_string(), incarnation);
    let me = machine.member_id();
    let inner = Arc::new(Inner {
        cfg,
        machine: Mutex::new(machine),
        shutdown: Arc::new(AtomicBool::new(false)),
    });
    let mut endpoint = Endpoint {
        inner: Arc::clone(&inner),
        me,
        ip: addr.ip(),
        exchanges: HashMap::new(),
        prepared: None,
        round: None,
    };
    let shutdown = Arc::clone(&inner.shutdown);
    let endpoint = std::thread::spawn(move || {
        front::serve(&mut endpoint, reactor, listener, DEFAULT_MAX_BODY, shutdown);
    });
    Ok(CtrlHandle { addr, inner, endpoint })
}

impl CtrlHandle {
    fn read<T>(&self, f: impl FnOnce(&Machine) -> T) -> T {
        f(&self.inner.machine.lock().unwrap())
    }

    /// This node's member id.
    pub fn member_id(&self) -> MemberId {
        self.read(Machine::member_id)
    }

    /// The highest epoch this node has observed.
    pub fn epoch(&self) -> u64 {
        self.read(Machine::epoch)
    }

    /// The coordinator per the active config, if one has been accepted.
    pub fn coordinator(&self) -> Option<MemberId> {
        self.read(|m| m.config().map(|c| c.coordinator))
    }

    /// Whether this node is the active coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.read(Machine::is_coordinator)
    }

    /// The active config, if one has been accepted.
    pub fn config(&self) -> Option<ClusterTopology> {
        self.read(|m| m.config().cloned())
    }

    /// A snapshot of the membership view.
    pub fn view(&self) -> View {
        self.read(|m| m.view().clone())
    }

    /// The `/ctrl` status document (same JSON the control endpoint and
    /// the attached daemon's `GET /ctrl` serve).
    pub fn status_json(&self) -> String {
        self.read(|m| m.status_doc().to_string())
    }

    /// A provider for [`hre_svc::SvcConfig::ctrl_status`], so the
    /// data-plane daemon's `GET /ctrl` answers with this node's status.
    pub fn status_provider(&self) -> StatusProvider {
        let inner = Arc::clone(&self.inner);
        StatusProvider::new(move || inner.machine.lock().unwrap().status_doc().to_string())
    }

    /// Drains the endpoint and joins its reactor; exchanges and any
    /// election round still on it are dropped.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let _ = self.endpoint.join();
    }
}

/// Runs `input` on the machine under the lock; returns its value and
/// every command the machine emitted.
fn step<T>(inner: &Inner, input: impl FnOnce(&mut Machine) -> T) -> (T, VecDeque<Command>) {
    let mut machine = inner.machine.lock().unwrap();
    let value = input(&mut machine);
    (value, std::iter::from_fn(|| machine.next_command()).collect())
}

/// Calls the callback of a config or a death; hands any other command
/// back.
fn notify(cfg: &CtrlConfig, command: Command) -> Option<Command> {
    match command {
        Command::Config(topo) => {
            if let Some(cb) = &cfg.on_config {
                cb(&topo);
            }
            None
        }
        Command::Died(member) => {
            if let (Role::Backend, Some(cb)) = (member.role, &cfg.on_death) {
                cb(&member.serve_addr);
            }
            None
        }
        other => Some(other),
    }
}

/// The control endpoint: a listener of the front-connection machine,
/// and the heartbeat, the exchanges and the round this member runs on
/// the same reactor. Every route answers at once, so nothing parks.
struct Endpoint {
    inner: Arc<Inner>,
    me: MemberId,
    /// The interface the control endpoint listens on; election
    /// listeners bind there too.
    ip: IpAddr,
    /// The machine's id of the exchange on each wire.
    exchanges: HashMap<u64, u64>,
    /// The election listener of the round this member prepared, watched
    /// by the reactor under the first of its tokens.
    prepared: Option<(TcpListener, [u64; 3])>,
    /// The round this member runs: its epoch, its plan, and its member.
    round: Option<(u64, RingPlan, RingSocket<AkProc>)>,
}

impl Endpoint {
    /// Carries out what the machine emitted: callbacks, a round, and
    /// exchanges as wires. An exchange that cannot even be dialed fails
    /// at once, and what its failure leads to is carried out too.
    fn carry_out(&mut self, front: &mut Front<Infallible>, mut todo: VecDeque<Command>) {
        while let Some(command) = todo.pop_front() {
            match notify(&self.inner.cfg, command) {
                Some(Command::Run { epoch, plan, successor }) => {
                    self.run(front, epoch, plan, &successor)
                }
                Some(Command::Exchange { id, to, path, body }) => {
                    let request = exchange_request(&to, path, &body);
                    let deadline = Some(Instant::now() + CTRL_TIMEOUT);
                    match front.open_wire(&to, None, request, deadline) {
                        Ok(wire) => drop(self.exchanges.insert(wire, id)),
                        Err(_) => todo.extend(step(&self.inner, |m| m.on_reply(id, None)).1),
                    }
                }
                _ => {}
            }
        }
    }

    /// Feeds `input` to the machine and carries out what it emitted.
    fn input(&mut self, front: &mut Front<Infallible>, input: impl FnOnce(&mut Machine)) {
        let todo = step(&self.inner, input).1;
        self.carry_out(front, todo);
    }

    /// Starts this member's round committed at `epoch` on the listener
    /// its prepare bound. A round still draining is dropped: the machine
    /// waits for the new one only.
    fn run(&mut self, front: &mut Front<Infallible>, epoch: u64, plan: RingPlan, successor: &str) {
        let idle = self.inner.cfg.election_idle;
        let started = successor
            .parse::<SocketAddr>()
            .map_err(|e| format!("bad successor address: {e}"))
            .and_then(|next| {
                let (listener, tokens) =
                    self.prepared.take().ok_or("no election listener bound for the round")?;
                let member = election::start_member(
                    self.me,
                    &plan,
                    idle,
                    Ledger::default(),
                    Instant::now(),
                )?;
                Ok(RingSocket::start(member, listener, next, tokens, &mut front.reactor))
            });
        match started {
            Ok(socket) => {
                self.round = Some((epoch, plan, socket));
                self.report(front);
            }
            Err(why) => self.finish(front, epoch, Err(why)),
        }
    }

    /// Hands the round's outcome to the machine once its process
    /// finished, and drops the round once its link closed.
    fn report(&mut self, front: &mut Front<Infallible>) {
        let Some((epoch, plan, socket)) = &mut self.round else { return };
        let epoch = *epoch;
        let outcome = socket
            .take_done()
            .map(|done| election::coordinator(self.me, plan, socket.member(), done));
        if socket.member().closed() {
            self.round = None;
        }
        if let Some(outcome) = outcome {
            self.finish(front, epoch, outcome);
        }
    }

    fn finish(
        &mut self,
        front: &mut Front<Infallible>,
        epoch: u64,
        outcome: Result<MemberId, String>,
    ) {
        if let Err(why) = &outcome {
            eprintln!("ctrl[{}]: election round at epoch {epoch} failed: {why}", self.me);
        }
        self.input(front, |m| m.on_round(epoch, outcome));
    }
}

impl Service for Endpoint {
    type Parked = Infallible;

    fn dispatch(
        &mut self,
        front: &mut Front<Infallible>,
        _: u64,
        req: &Request,
    ) -> Dispatch<Infallible> {
        let (ip, prepared) = (self.ip, &mut self.prepared);
        let (resp, todo) = step(&self.inner, |machine| {
            machine.on_request(req, || {
                let bound = TcpListener::bind((ip, 0))
                    .and_then(|l| l.set_nonblocking(true).map(|()| l))
                    .map_err(|e| format!("cannot bind election listener: {e}"))?;
                let addr = bound.local_addr().map_err(|e| e.to_string())?;
                let tokens = [front.token(), front.token(), front.token()];
                front
                    .reactor
                    .register(bound.as_raw_fd(), tokens[0], Interest::READABLE)
                    .map_err(|e| format!("cannot watch election listener: {e}"))?;
                *prepared = Some((bound, tokens));
                Ok(addr.to_string())
            })
        });
        self.carry_out(front, todo);
        Dispatch::Answer(resp)
    }

    /// The joins [`Machine::new`] asked for go out at once; the first
    /// tick comes one heartbeat later.
    fn started(&mut self, front: &mut Front<Infallible>) {
        self.input(front, |_| ());
        front.reactor.set_timer(self.inner.cfg.heartbeat_interval, TICK);
    }

    fn event(&mut self, front: &mut Front<Infallible>, ev: Event) {
        // A dial that reaches a prepared listener before its round
        // starts waits in the backlog: the round accepts it at start.
        if let Some((_, _, socket)) = self.round.as_mut().filter(|r| r.2.owns(ev.token)) {
            socket.event(&mut front.reactor, ev);
            self.report(front);
        }
    }

    fn timer(&mut self, front: &mut Front<Infallible>, token: u64) {
        if token == TICK {
            // A draining node stops gossiping.
            if !self.inner.shutdown.load(Ordering::Relaxed) {
                self.input(front, Machine::tick);
                front.reactor.set_timer(self.inner.cfg.heartbeat_interval, TICK);
            }
        } else if let Some((_, _, socket)) = self.round.as_mut().filter(|r| r.2.owns(token)) {
            socket.timer(&mut front.reactor);
            self.report(front);
        }
    }

    /// An exchange's reply, or its failure: refused, broken, or past
    /// [`CTRL_TIMEOUT`].
    fn wire_done(&mut self, front: &mut Front<Infallible>, wire: u64, outcome: WireOutcome) {
        let Some(id) = self.exchanges.remove(&wire) else { return };
        let reply = match outcome {
            WireOutcome::Done(resp, _) => Some(resp),
            WireOutcome::Failed => None,
        };
        self.input(front, |m| m.on_reply(id, reply));
    }
}
