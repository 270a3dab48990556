//! The control-plane node: one per process, next to the data-plane
//! daemon it represents. It drives one [`Machine`] — the member's whole
//! state and every decision, see [`crate::machine`] for the protocol —
//! over real sockets and threads.
//!
//! The machine sits behind one lock. The node's small HTTP endpoint —
//! served by the data plane's front-connection machine
//! ([`hre_svc::front`]) on one reactor thread — hands it each request
//! and answers at once, binding an election listener when a prepare is
//! accepted. A manager thread ticks it every heartbeat interval and
//! carries out its exchanges as blocking [`Client`] calls, one at a time,
//! each within [`CTRL_TIMEOUT`]. A committed round runs on its own thread
//! ([`run_round`] over TCP) and reports its outcome back. Accepted
//! configs and declared deaths reach the `on_config`/`on_death`
//! callbacks, called outside the lock.

use crate::election::run_round;
use crate::machine::{ClusterTopology, Command, Machine, CTRL_TIMEOUT};
use crate::member::{MemberId, Role, View};
use hre_runtime::trace::FlightRecorder;
use hre_runtime::{ClockHandle, Reactor};
use hre_svc::front::{self, Dispatch, Front, Service};
use hre_svc::http::{Request, DEFAULT_MAX_BODY};
use hre_svc::{Client, StatusProvider};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

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
    /// so the least time between two election attempts.
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

/// How often the manager wakes up to check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// What the lock guards: the member, and the election listener bound for
/// the round it prepared (handed to that round's thread at commit).
struct Node {
    machine: Machine,
    listener: Option<TcpListener>,
}

struct Inner {
    cfg: CtrlConfig,
    /// The interface the control endpoint listens on; election
    /// listeners bind there too.
    ip: IpAddr,
    node: Mutex<Node>,
    shutdown: Arc<AtomicBool>,
    rounds: Mutex<Vec<JoinHandle<()>>>,
}

/// A running control-plane node. Dropping the handle leaks the threads;
/// call [`CtrlHandle::shutdown`] to drain.
pub struct CtrlHandle {
    /// The control-plane address actually bound (resolves port 0).
    pub addr: SocketAddr,
    inner: Arc<Inner>,
    endpoint: JoinHandle<()>,
    manager: JoinHandle<()>,
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

/// Binds the control endpoint, joins through the seeds, and starts the
/// gossip/election manager.
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
    let inner = Arc::new(Inner {
        cfg,
        ip: addr.ip(),
        node: Mutex::new(Node { machine, listener: None }),
        shutdown: Arc::new(AtomicBool::new(false)),
        rounds: Mutex::new(Vec::new()),
    });

    // Join through the seeds before the manager starts, so the first
    // tick already gossips with a populated view. Seed failures are
    // non-fatal: the seed may simply not be up yet, and later gossip
    // (seeds also learn about us from *our* records spreading) heals.
    drive(&inner, |_| ());

    let endpoint = {
        let mut endpoint = Endpoint(Arc::clone(&inner));
        let shutdown = Arc::clone(&inner.shutdown);
        std::thread::spawn(move || {
            front::serve(&mut endpoint, reactor, listener, DEFAULT_MAX_BODY, shutdown);
        })
    };
    let manager = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || manager_loop(&inner))
    };
    Ok(CtrlHandle { addr, inner, endpoint, manager })
}

impl CtrlHandle {
    fn read<T>(&self, f: impl FnOnce(&Machine) -> T) -> T {
        f(&self.inner.node.lock().unwrap().machine)
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
        StatusProvider::new(move || inner.node.lock().unwrap().machine.status_doc().to_string())
    }

    /// Stops gossiping, drains the endpoint, and joins the manager, the
    /// endpoint, and any election round still in flight.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let _ = self.manager.join();
        let _ = self.endpoint.join();
        for h in self.inner.rounds.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs `input` on the machine under the lock, then carries out every
/// command it emitted — and every command the replies to those lead to —
/// with the lock released.
fn drive<T>(inner: &Arc<Inner>, input: impl FnOnce(&mut Node) -> T) -> T {
    let (value, todo) = {
        let mut node = inner.node.lock().unwrap();
        let value = input(&mut node);
        (value, drain(&mut node.machine))
    };
    carry_out(inner, todo);
    value
}

fn carry_out(inner: &Arc<Inner>, mut todo: VecDeque<Command>) {
    while let Some(command) = todo.pop_front() {
        match command {
            Command::Exchange { id, to, path, body } => {
                let reply = Client::connect(&to, CTRL_TIMEOUT)
                    .and_then(|mut c| c.post_json(path, &body))
                    .ok();
                let mut node = inner.node.lock().unwrap();
                node.machine.on_reply(id, reply);
                todo.extend(drain(&mut node.machine));
            }
            Command::Run { epoch, plan, successor } => {
                // Only the endpoint's thread accepts a commit, and it runs
                // this before it takes another request: the listener the
                // lock holds is this round's.
                let (me, listener) = {
                    let mut node = inner.node.lock().unwrap();
                    (node.machine.member_id(), node.listener.take())
                };
                let round = {
                    let inner = Arc::clone(inner);
                    std::thread::spawn(move || {
                        let idle = inner.cfg.election_idle;
                        let outcome = successor
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("bad successor address: {e}"))
                            .and_then(|next| run_round(me, &plan, listener, Some(next), idle))
                            .map(|out| out.coordinator);
                        if let Err(why) = &outcome {
                            eprintln!("ctrl[{me}]: election round at epoch {epoch} failed: {why}");
                        }
                        drive(&inner, |node| node.machine.on_round(epoch, outcome));
                    })
                };
                inner.rounds.lock().unwrap().push(round);
            }
            Command::Config(topo) => {
                if let Some(cb) = &inner.cfg.on_config {
                    cb(&topo);
                }
            }
            Command::Died(member) => {
                if let (Role::Backend, Some(cb)) = (member.role, &inner.cfg.on_death) {
                    cb(&member.serve_addr);
                }
            }
        }
    }
}

fn drain(machine: &mut Machine) -> VecDeque<Command> {
    std::iter::from_fn(|| machine.next_command()).collect()
}

/// The control endpoint as a listener of the front-connection machine.
/// Every route answers at once — the machine emits no exchange for an
/// inbound request, and a commit's round runs on its own thread — so
/// nothing parks.
struct Endpoint(Arc<Inner>);

impl Service for Endpoint {
    type Parked = Infallible;

    fn dispatch(
        &mut self,
        _: &mut Front<Infallible>,
        _: u64,
        req: &Request,
    ) -> Dispatch<Infallible> {
        let ip = self.0.ip;
        Dispatch::Answer(drive(&self.0, |node| {
            let Node { machine, listener } = node;
            machine.on_request(req, || {
                let bound = TcpListener::bind((ip, 0))
                    .map_err(|e| format!("cannot bind election listener: {e}"))?;
                let addr = bound.local_addr().map_err(|e| e.to_string())?;
                *listener = Some(bound);
                Ok(addr.to_string())
            })
        }))
    }
}

fn manager_loop(inner: &Arc<Inner>) {
    while !inner.shutdown.load(Ordering::Relaxed) {
        drive(inner, |node| node.machine.tick());
        let mut slept = Duration::ZERO;
        while slept < inner.cfg.heartbeat_interval {
            if inner.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let step = POLL.min(inner.cfg.heartbeat_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}
