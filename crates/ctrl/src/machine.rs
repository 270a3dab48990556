//! One control-plane member as a sans-IO state machine.
//!
//! A [`Machine`] holds everything a member decides with: its membership
//! view with the time each peer was last heard from, the highest epoch
//! it has seen, the accepted config, the round it prepared and the round
//! it runs, an initiator's prepare/commit progress, and the push and
//! election timers. It owns no socket, listener, thread or timer, reads
//! `now` from [`CtrlConfig::clock`], and names peers by their control
//! addresses as strings. ctrl's node ([`crate::node`]) drives it over
//! TCP from its endpoint and manager threads; the deterministic
//! simulator (`hre-dst`) over its virtual-time event heap.
//!
//! Inputs: [`Machine::tick`] (each heartbeat), [`Machine::on_request`]
//! (an inbound `/ctrl/*` request, answered at once), [`Machine::on_reply`]
//! (an exchange's reply or its failure) and [`Machine::on_round`] (a
//! round's outcome). Outputs: the [`Command`]s drained by
//! [`Machine::next_command`]. An inbound request never emits an
//! exchange, so the code running it may answer requests on a thread
//! that must not block.
//!
//! The protocol, end to end:
//!
//! 1. **Join**: a starting member POSTs its own record to each seed's
//!    `/ctrl/join` and merges the returned view.
//! 2. **Gossip**: every tick, a member exchanges its full view with every
//!    live peer (`POST /ctrl/gossip` is a two-way anti-entropy merge)
//!    and with one member it holds dead, round-robin, so a healed
//!    partition or a member restarted behind dead seeds is heard from
//!    again. The view is a CRDT ([`View`]), so any exchange order
//!    converges. Join and gossip also carry the accepted config, which a
//!    member holding an older one (or none) passes through the fence.
//! 3. **Failure detection**: a peer whose latest exchange failed and
//!    that has not been heard from for `failure_timeout` is declared
//!    dead — a sticky, incarnation-fenced mark that gossip then spreads.
//!    Requiring the failed exchange keeps one silent peer, which stalls
//!    a tick that runs its exchanges one at a time for [`CTRL_TIMEOUT`],
//!    from aging every other peer past the timeout. A member that sees
//!    *itself* declared dead (it was partitioned, not crashed) rejoins by
//!    bumping its incarnation.
//! 4. **Election**: when the live backend set disagrees with the
//!    accepted config (first boot, join, crash, coordinator death), or a
//!    rival config was offered at the accepted epoch, the
//!    lowest-id live backend initiates, at most once per
//!    `election_idle`: it takes the epoch after the highest it has seen,
//!    sends the deterministic [`RingPlan`] to each participant in turn
//!    (`/ctrl/prepare` — each binds an election listener and answers its
//!    address), then `/ctrl/commit` to all, which starts every member's
//!    `Ak` process ([`Command::Run`]).
//! 5. **Config push**: the elected coordinator owns the backend list.
//!    It pushes `{epoch, coordinator, backends}` to every live member
//!    (`/ctrl/config`) and re-pushes each `push_interval`, so a member
//!    that missed the original push heals. Pushes are fenced: an epoch
//!    below the accepted one, or another config at the accepted epoch,
//!    is answered `409` — a deposed coordinator can shout, but nobody
//!    listens.
//!
//! Membership changes and config decisions land in the flight recorder
//! as [`Stage::Membership`] and [`Stage::Reconfigure`] spans, so
//! `GET /trace/recent` on the attached daemon shows re-elections as
//! first-class traced events.

use crate::member::{MemberId, MemberInfo, RingPlan, Role, Status, View};
use crate::node::{derive_node_id, CtrlConfig};
use hre_runtime::trace::{FlightRecorder, SpanAttrs, SpanId, Stage};
use hre_runtime::DEFAULT_TRACE_CAP;
use hre_svc::error_json;
use hre_svc::http::{ClientResponse, Request, Response};
use hre_svc::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timeout for one control-plane exchange (join, gossip, prepare,
/// commit, config push), connect and answer. Deliberately short: the
/// control plane prefers declaring a peer slow over stalling its own
/// tick.
pub const CTRL_TIMEOUT: Duration = Duration::from_millis(500);

/// The coordinator's product: the epoch-stamped backend list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    /// The election epoch that produced this config.
    pub epoch: u64,
    /// The elected coordinator.
    pub coordinator: MemberId,
    /// Backend serve addresses, in ring-plan order.
    pub backends: Vec<String>,
}

impl ClusterTopology {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("epoch", Json::Num(self.epoch as i128)),
            ("coordinator", Json::Num(self.coordinator as i128)),
            ("backends", Json::Arr(self.backends.iter().cloned().map(Json::Str).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<ClusterTopology, String> {
        Ok(ClusterTopology {
            epoch: v.get("epoch").and_then(Json::as_u64).ok_or("config missing epoch")?,
            coordinator: v
                .get("coordinator")
                .and_then(Json::as_u64)
                .ok_or("config missing coordinator")?,
            backends: strings(v, "backends", "config missing backends")?,
        })
    }
}

/// The array of strings at `key`.
fn strings(v: &Json, key: &str, missing: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or(missing)?
        .iter()
        .map(|b| b.as_str().map(String::from).ok_or(format!("{key} must be strings")))
        .collect()
}

/// What a [`Machine`] asks the code running it to do.
#[derive(Debug)]
pub enum Command {
    /// `POST` `body` to `path` at the control address `to`, within
    /// [`CTRL_TIMEOUT`]; report the outcome to [`Machine::on_reply`]
    /// under `id`.
    Exchange {
        /// The exchange's name in [`Machine::on_reply`].
        id: u64,
        /// The peer's control address.
        to: String,
        /// The `/ctrl/*` route.
        path: &'static str,
        /// The JSON body.
        body: String,
    },
    /// Run this member's `Ak` process for the round committed at
    /// `epoch`: accept the predecessor on the listener bound when the
    /// round was prepared, dial `successor`'s election address, and
    /// report the elected coordinator to [`Machine::on_round`].
    Run {
        /// The round's epoch.
        epoch: u64,
        /// The ring the round elects over.
        plan: RingPlan,
        /// The successor's election address.
        successor: String,
    },
    /// A config was accepted that differs from the one held before.
    Config(ClusterTopology),
    /// A live peer was declared dead.
    Died(MemberInfo),
}

/// What an exchange in flight is for.
enum Purpose {
    Join,
    Gossip(MemberId),
    Prepare(u64),
    Commit,
    Push,
}

/// An initiator's round in progress: prepares go to one member at a
/// time, in plan order, and commits to every member once all answered.
struct Initiation {
    epoch: u64,
    plan: RingPlan,
    ctrl_addrs: Vec<String>,
    /// The election addresses answered so far, in plan order.
    election_addrs: Vec<String>,
}

/// A round this member takes part in: prepared, then running once
/// committed.
struct Round {
    epoch: u64,
    plan: RingPlan,
    since: Instant,
}

/// One control-plane member; see the module docs.
pub struct Machine {
    cfg: CtrlConfig,
    me: MemberId,
    recorder: Arc<FlightRecorder>,
    view: View,
    /// The `{epoch, config, view}` document this member gossips, with the
    /// epoch and config epoch it was written at; dropped when the view
    /// changes.
    doc: Option<((u64, Option<u64>), String)>,
    /// When each peer was last heard from: an answered exchange, or its
    /// own gossip.
    last_seen: BTreeMap<MemberId, Instant>,
    /// Peers whose latest exchange failed.
    failing: BTreeSet<MemberId>,
    /// The highest epoch seen.
    epoch: u64,
    config: Option<ClusterTopology>,
    /// Whether another config was offered at the accepted epoch: two
    /// initiators minted it, and only a new election settles which
    /// config the epoch after it names.
    contested: bool,
    prepared: Option<Round>,
    running: Option<Round>,
    initiation: Option<Initiation>,
    last_push: Instant,
    /// When this member last initiated an election, and at which epoch.
    last_attempt: Option<(Instant, u64)>,
    /// The dead member gossip reached last (the round-robin cursor).
    dead_cursor: MemberId,
    next_id: u64,
    exchanges: BTreeMap<u64, Purpose>,
    out: VecDeque<Command>,
}

impl Machine {
    /// A member that knows only itself, reachable at `ctrl_addr`, at
    /// `incarnation` (larger than any an earlier run of the member
    /// gossiped); it joins through `cfg.seeds` at once.
    pub fn new(cfg: &CtrlConfig, ctrl_addr: String, incarnation: u64) -> Machine {
        let me = cfg.node_id.unwrap_or_else(|| derive_node_id(&cfg.serve_addr));
        let record = MemberInfo {
            id: me,
            role: cfg.role,
            ctrl_addr,
            serve_addr: cfg.serve_addr.clone(),
            incarnation,
            status: Status::Alive,
        };
        let body = record.to_json().to_string();
        let mut view = View::new();
        view.observe(record);
        let mut m = Machine {
            me,
            recorder: cfg
                .recorder
                .clone()
                .unwrap_or_else(|| FlightRecorder::new(DEFAULT_TRACE_CAP)),
            view,
            doc: None,
            last_seen: BTreeMap::new(),
            failing: BTreeSet::new(),
            epoch: 0,
            config: None,
            contested: false,
            prepared: None,
            running: None,
            initiation: None,
            last_push: cfg.clock.now(),
            last_attempt: None,
            dead_cursor: 0,
            next_id: 0,
            exchanges: BTreeMap::new(),
            out: VecDeque::new(),
            cfg: cfg.clone(),
        };
        for seed in &cfg.seeds {
            m.exchange(Purpose::Join, seed.clone(), "/ctrl/join", body.clone());
        }
        m
    }

    /// This member's id.
    pub fn member_id(&self) -> MemberId {
        self.me
    }

    /// The highest epoch this member has seen.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The accepted config, if any.
    pub fn config(&self) -> Option<&ClusterTopology> {
        self.config.as_ref()
    }

    /// Whether this member is the accepted config's coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.config.as_ref().is_some_and(|c| c.coordinator == self.me)
    }

    /// The membership view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The next thing to do, if any.
    pub fn next_command(&mut self) -> Option<Command> {
        self.out.pop_front()
    }

    /// The `/ctrl` status document.
    pub fn status_doc(&self) -> Json {
        let config = self.config.as_ref();
        let plan = self.view.ring_plan();
        let ring = |f: fn(&RingPlan) -> &Vec<u64>| {
            plan.as_ref().map(|p| json::nums(f(p).iter().copied())).unwrap_or(Json::Arr(Vec::new()))
        };
        json::obj(vec![
            ("id", Json::Num(self.me as i128)),
            ("role", Json::Str(self.cfg.role.as_str().into())),
            ("epoch", Json::Num(self.epoch as i128)),
            ("coordinator", config.map(|c| Json::Num(c.coordinator as i128)).unwrap_or(Json::Null)),
            ("is_coordinator", Json::Bool(self.is_coordinator())),
            ("config_epoch", config.map(|c| Json::Num(c.epoch as i128)).unwrap_or(Json::Null)),
            (
                "backends",
                Json::Arr(
                    config.map_or(Vec::new(), |c| {
                        c.backends.iter().cloned().map(Json::Str).collect()
                    }),
                ),
            ),
            ("ring", ring(|p| &p.order)),
            ("ring_labels", ring(|p| &p.labels)),
            ("members", Json::Arr(self.view.members().map(MemberInfo::to_json).collect())),
        ])
    }

    /// One heartbeat: refute our own death, declare failing silent peers
    /// dead, gossip, re-push the config if this member coordinates and a
    /// push is due, and start an election if this member initiates and
    /// the live backends disagree with the config.
    pub fn tick(&mut self) {
        let me = self.view.member(self.me).expect("own record always present").clone();
        if me.status == Status::Dead {
            self.view.observe(MemberInfo {
                incarnation: me.incarnation + 1,
                status: Status::Alive,
                ..me
            });
            self.doc = None;
        }
        self.detect_failures();
        self.gossip();
        self.coordinator_tick();
        self.election_tick();
    }

    /// Answers an inbound control request. `bind` binds the election
    /// listener of a prepare this member accepts and names its address.
    pub fn on_request(
        &mut self,
        req: &Request,
        bind: impl FnOnce() -> Result<String, String>,
    ) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let doc = || Json::parse(&body);
        let outcome = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => return Response::text(200, "ok\n"),
            ("GET", "/ctrl") => return Response::json(200, self.status_doc().to_string()),
            ("POST", "/ctrl/join") => {
                doc().and_then(|v| MemberInfo::from_json(&v)).map(|info| Ok(self.join(info)))
            }
            ("POST", "/ctrl/gossip") => self.gossiped(&body).map(Ok),
            ("POST", "/ctrl/prepare") => doc().and_then(|v| {
                let epoch = v.get("epoch").and_then(Json::as_u64).ok_or("prepare missing epoch")?;
                let plan = RingPlan::from_json(v.get("plan").ok_or("prepare missing plan")?)?;
                Ok(self
                    .prepare(epoch, plan, bind)
                    .map(|addr| json::obj(vec![("election_addr", Json::Str(addr))]).to_string()))
            }),
            ("POST", "/ctrl/commit") => doc().and_then(|v| {
                let epoch = v.get("epoch").and_then(Json::as_u64).ok_or("commit missing epoch")?;
                let addrs = strings(&v, "addrs", "commit missing addrs")?;
                Ok(self
                    .commit(epoch, addrs)
                    .map(|()| json::obj(vec![("ok", Json::Bool(true))]).to_string()))
            }),
            ("POST", "/ctrl/config") => {
                doc().and_then(|v| ClusterTopology::from_json(&v)).map(|t| {
                    let epoch = t.epoch;
                    self.accept_config(t).map(|()| {
                        json::obj(vec![
                            ("ok", Json::Bool(true)),
                            ("epoch", Json::Num(epoch as i128)),
                        ])
                        .to_string()
                    })
                })
            }
            ("POST", _) | ("GET", _) => return Response::json(404, error_json("no such endpoint")),
            _ => return Response::json(405, error_json("method not allowed")),
        };
        match outcome {
            Ok(Ok(answer)) => Response::json(200, answer),
            Ok(Err(refused)) => Response::json(409, error_json(&refused)),
            Err(bad) => Response::json(400, error_json(&bad)),
        }
    }

    /// An exchange's reply, or `None` if it failed (refused, timed out,
    /// broken).
    pub fn on_reply(&mut self, id: u64, reply: Option<ClientResponse>) {
        let Some(purpose) = self.exchanges.remove(&id) else { return };
        let ok = reply.filter(|r| r.status == 200);
        // A reply that is this member's own document changes nothing.
        let text = ok.as_ref().map(ClientResponse::body_text).filter(|t| !self.is_own_doc(t, 0));
        let doc = text.and_then(|t| Json::parse(&t).ok());
        match purpose {
            Purpose::Join => {
                if let Some(doc) = doc {
                    let _ = self.absorb(&doc);
                }
            }
            Purpose::Gossip(peer) => {
                if ok.is_none() {
                    self.failing.insert(peer);
                    return;
                }
                self.last_seen.insert(peer, self.cfg.clock.now());
                self.failing.remove(&peer);
                if let Some(doc) = doc {
                    let _ = self.absorb(&doc);
                }
            }
            Purpose::Prepare(epoch) => {
                let addr = doc
                    .as_ref()
                    .and_then(|d| d.get("election_addr").and_then(Json::as_str).map(String::from));
                match (&mut self.initiation, addr) {
                    (Some(init), Some(addr)) if init.epoch == epoch => {
                        init.election_addrs.push(addr);
                        self.advance_initiation();
                    }
                    // A refusal or a dead peer aborts the attempt; failure
                    // detection and a later tick take it from here.
                    _ => self.initiation = None,
                }
            }
            Purpose::Commit | Purpose::Push => {}
        }
    }

    /// The outcome of the round this member ran at `epoch`: the elected
    /// coordinator, or why the round failed.
    pub fn on_round(&mut self, epoch: u64, outcome: Result<MemberId, String>) {
        let Some(round) = self.running.take_if(|r| r.epoch == epoch) else { return };
        let Ok(coordinator) = outcome else { return };
        self.record_membership(round.since, round.plan.len());
        if coordinator == self.me {
            let backends = self.backends_of(&round.plan);
            self.coordinate(ClusterTopology { epoch, coordinator, backends });
        }
    }

    // ---- inbound ------------------------------------------------------

    fn join(&mut self, info: MemberInfo) -> String {
        let t0 = self.cfg.clock.now();
        let before = self.view.ring_plan();
        let fresh = self.fresh(std::iter::once(&info));
        if self.view.observe(info) {
            self.view_changed(t0, before, fresh);
        }
        self.view_doc().to_string()
    }

    /// Gossip: `{"from": id}` and a document to merge, answered with this
    /// member's own document.
    fn gossiped(&mut self, body: &str) -> Result<String, String> {
        let now = self.cfg.clock.now();
        // In steady state a peer gossips exactly this member's own
        // document after its id; absorbing it would change nothing, so it
        // is recognised by its bytes instead of parsed.
        let id_and_rest = body.strip_prefix("{\"from\":").and_then(|r| r.split_once(','));
        if let Some((from, _)) = id_and_rest.filter(|(_, rest)| self.is_own_doc(rest, 1)) {
            if let Ok(from) = from.parse() {
                self.last_seen.insert(from, now);
                return Ok(self.view_doc().to_string());
            }
        }
        let doc = Json::parse(body)?;
        if let Some(from) = doc.get("from").and_then(Json::as_u64) {
            self.last_seen.insert(from, now);
        }
        self.absorb(&doc)?;
        Ok(self.view_doc().to_string())
    }

    /// Fences the epoch and binds this member's election listener. A
    /// later prepare at a higher epoch supersedes a pending one.
    fn prepare(
        &mut self,
        epoch: u64,
        plan: RingPlan,
        bind: impl FnOnce() -> Result<String, String>,
    ) -> Result<String, String> {
        if plan.position(self.me).is_none() {
            return Err("this member is not in the proposed ring".into());
        }
        if let Some(cfg) = self.config.as_ref().filter(|c| epoch <= c.epoch) {
            return Err(format!(
                "stale prepare: epoch {epoch} does not exceed the accepted epoch {}",
                cfg.epoch
            ));
        }
        if let Some(p) = self.prepared.as_ref().filter(|p| p.epoch >= epoch) {
            return Err(format!("round at epoch {} already prepared", p.epoch));
        }
        let addr = bind()?;
        self.epoch = self.epoch.max(epoch);
        self.prepared = Some(Round { epoch, plan, since: self.cfg.clock.now() });
        Ok(addr)
    }

    /// Starts the prepared round. `addrs` carries every member's election
    /// address in plan order; each member dials its successor.
    fn commit(&mut self, epoch: u64, addrs: Vec<String>) -> Result<(), String> {
        let round = match self.prepared.take() {
            Some(p) if p.epoch == epoch => p,
            Some(p) => {
                let why = format!("prepared epoch {} ≠ committed epoch {epoch}", p.epoch);
                self.prepared = Some(p);
                return Err(why);
            }
            None => return Err("no prepared round".into()),
        };
        if addrs.len() != round.plan.len() {
            return Err("commit addrs must match the plan length".into());
        }
        let pos = round.plan.position(self.me).ok_or("not in the committed ring")?;
        let successor = addrs[(pos + 1) % addrs.len()].clone();
        self.out.push_back(Command::Run { epoch, plan: round.plan.clone(), successor });
        self.running = Some(Round { since: self.cfg.clock.now(), ..round });
        Ok(())
    }

    /// Accepts or fences a config: an epoch below the accepted one is a
    /// deposed coordinator, and another config at the accepted epoch is
    /// a second coordinator of that epoch; both are refused. The accepted
    /// config re-pushed is the live coordinator's refresh. Every decision
    /// is a [`Stage::Reconfigure`] span (`a` = offered epoch, `b` = 1 iff
    /// accepted).
    fn accept_config(&mut self, topo: ClusterTopology) -> Result<(), String> {
        let t0 = self.cfg.clock.now();
        let result = match &self.config {
            Some(cur) if topo.epoch < cur.epoch => Err(format!(
                "stale config push: epoch {} is behind the accepted epoch {}",
                topo.epoch, cur.epoch
            )),
            Some(cur) if topo.epoch == cur.epoch && *cur != topo => {
                self.contested = true;
                Err(format!(
                    "conflicting config push: epoch {} is accepted with another config",
                    topo.epoch
                ))
            }
            _ => Ok(()),
        };
        self.span(
            Stage::Reconfigure,
            t0,
            SpanAttrs { a: topo.epoch, b: result.is_ok() as u64, err: result.is_err(), root: true },
        );
        if result.is_ok() && self.config.as_ref() != Some(&topo) {
            self.epoch = self.epoch.max(topo.epoch);
            self.contested = false;
            self.config = Some(topo.clone());
            self.out.push_back(Command::Config(topo));
        }
        result
    }

    // ---- the tick -----------------------------------------------------

    /// Declares dead every live peer whose latest exchange failed and
    /// that has been silent past `failure_timeout`.
    fn detect_failures(&mut self) {
        let now = self.cfg.clock.now();
        let silent = |t: &Instant| now.saturating_duration_since(*t) > self.cfg.failure_timeout;
        let stale: Vec<MemberId> = self
            .view
            .live()
            .filter(|m| m.id != self.me && self.failing.contains(&m.id))
            .filter(|m| self.last_seen.get(&m.id).is_some_and(silent))
            .map(|m| m.id)
            .collect();
        for id in stale {
            if self.view.declare_dead(id) {
                self.doc = None;
                let ring = self.view.ring_plan().map_or(0, |p| p.len());
                self.record_membership(now, ring);
                let dead = self.view.member(id).expect("just declared").clone();
                self.out.push_back(Command::Died(dead));
            }
        }
    }

    /// Exchanges views with every live peer and one dead member, except
    /// peers whose previous gossip is still in flight.
    fn gossip(&mut self) {
        let mut peers: Vec<(MemberId, String)> = self.live_peers();
        let dead = || self.view.members().filter(|m| m.status == Status::Dead);
        let cursor = self.dead_cursor;
        if let Some(m) = dead().find(|m| m.id > cursor).or_else(|| dead().next()) {
            self.dead_cursor = m.id;
            peers.push((m.id, m.ctrl_addr.clone()));
        }
        let busy: BTreeSet<MemberId> = self
            .exchanges
            .values()
            .filter_map(|p| match p {
                Purpose::Gossip(id) => Some(*id),
                _ => None,
            })
            .collect();
        peers.retain(|(id, _)| !busy.contains(id));
        if peers.is_empty() {
            return;
        }
        let me = self.me;
        let body = format!("{{\"from\":{me},{}", &self.view_doc()[1..]);
        for (id, addr) in peers {
            self.exchange(Purpose::Gossip(id), addr, "/ctrl/gossip", body.clone());
        }
    }

    /// The coordinator's periodic config refresh: heal members that
    /// missed the push, and keep asserting the epoch so any deposed
    /// coordinator that resurfaces is fenced at once.
    fn coordinator_tick(&mut self) {
        let Some(topo) = self.config.clone().filter(|c| c.coordinator == self.me) else { return };
        let now = self.cfg.clock.now();
        if now.saturating_duration_since(self.last_push) < self.cfg.push_interval {
            return;
        }
        self.last_push = now;
        self.push(&topo);
    }

    /// Does the live backend set agree with the accepted, uncontested
    /// config? If not, and this member is the initiator (the lowest-id
    /// live backend), start an election — unless its last attempt did not
    /// settle (no config was accepted at or above its epoch) and started
    /// within `election_idle`, the time a failed round's members take to
    /// time out.
    fn election_tick(&mut self) {
        if self.cfg.role != Role::Backend || self.running.is_some() || self.initiation.is_some() {
            return;
        }
        let Some(plan) = self.view.ring_plan() else { return };
        if plan.order.first() != Some(&self.me) {
            return;
        }
        let backends = self.backends_of(&plan);
        let settled = !self.contested
            && self
                .config
                .as_ref()
                .is_some_and(|c| c.backends == backends && plan.order.contains(&c.coordinator));
        let now = self.cfg.clock.now();
        let cooling = self.last_attempt.is_some_and(|(t, epoch)| {
            self.config.as_ref().is_none_or(|c| c.epoch < epoch)
                && now.saturating_duration_since(t) < self.cfg.election_idle
        });
        if settled || cooling {
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.last_attempt = Some((now, epoch));
        if plan.len() == 1 {
            // Alone: coordinator by definition; no round, no messages —
            // the paper's n=1 ring is trivially asymmetric.
            self.coordinate(ClusterTopology { epoch, coordinator: self.me, backends });
            return;
        }
        let ctrl_addrs: Option<Vec<String>> = plan
            .order
            .iter()
            .map(|id| self.view.member(*id).map(|m| m.ctrl_addr.clone()))
            .collect();
        let Some(ctrl_addrs) = ctrl_addrs else { return };
        self.initiation = Some(Initiation { epoch, plan, ctrl_addrs, election_addrs: Vec::new() });
        self.advance_initiation();
    }

    /// Sends the initiation's next prepare, or, once every member has
    /// answered its prepare, every commit.
    fn advance_initiation(&mut self) {
        let Some(init) = &self.initiation else { return };
        let epoch = Json::Num(init.epoch as i128);
        let next = init.election_addrs.len();
        if next < init.plan.len() {
            let body = json::obj(vec![("epoch", epoch), ("plan", init.plan.to_json())]).to_string();
            let to = init.ctrl_addrs[next].clone();
            self.exchange(Purpose::Prepare(init.epoch), to, "/ctrl/prepare", body);
            return;
        }
        let init = self.initiation.take().expect("checked above");
        let addrs = Json::Arr(init.election_addrs.into_iter().map(Json::Str).collect());
        let body = json::obj(vec![("epoch", epoch), ("addrs", addrs)]).to_string();
        for to in init.ctrl_addrs {
            self.exchange(Purpose::Commit, to, "/ctrl/commit", body.clone());
        }
    }

    // ---- helpers ------------------------------------------------------

    /// Accepts a config this member coordinates and pushes it to every
    /// other live member (routers included — they are exactly who need
    /// it most).
    fn coordinate(&mut self, topo: ClusterTopology) {
        if self.accept_config(topo.clone()).is_ok() {
            self.push(&topo);
        }
    }

    fn push(&mut self, topo: &ClusterTopology) {
        let body = topo.to_json().to_string();
        for (_, to) in self.live_peers() {
            self.exchange(Purpose::Push, to, "/ctrl/config", body.clone());
        }
    }

    fn exchange(&mut self, purpose: Purpose, to: String, path: &'static str, body: String) {
        let id = self.next_id;
        self.next_id += 1;
        self.exchanges.insert(id, purpose);
        self.out.push_back(Command::Exchange { id, to, path, body });
    }

    fn live_peers(&self) -> Vec<(MemberId, String)> {
        self.view.live().filter(|m| m.id != self.me).map(|m| (m.id, m.ctrl_addr.clone())).collect()
    }

    /// The serve addresses of the plan's members, in plan order.
    fn backends_of(&self, plan: &RingPlan) -> Vec<String> {
        plan.order
            .iter()
            .filter_map(|id| self.view.member(*id).map(|m| m.serve_addr.clone()))
            .collect()
    }

    /// The `{epoch, config, view}` document gossip and join answer with
    /// (and gossip sends, after its sender's id).
    fn view_doc(&mut self) -> &str {
        let key = (self.epoch, self.config.as_ref().map(|c| c.epoch));
        if self.doc.as_ref().is_none_or(|(at, _)| *at != key) {
            let config = self.config.as_ref().map_or(Json::Null, ClusterTopology::to_json);
            let view = self.view.to_json();
            let text = format!("{{\"epoch\":{},\"config\":{config},\"view\":{view}}}", key.0);
            self.doc = Some((key, text));
        }
        &self.doc.as_ref().expect("just written").1
    }

    /// Whether `text` is this member's own document with its first `skip`
    /// bytes cut off.
    fn is_own_doc(&mut self, text: &str, skip: usize) -> bool {
        self.view_doc().get(skip..) == Some(text)
    }

    /// The live records among `records` newer than this member's: a
    /// member it never saw, or one that rejoined.
    fn fresh<'a>(&self, records: impl Iterator<Item = &'a MemberInfo>) -> Vec<MemberId> {
        records
            .filter(|r| r.id != self.me && r.status == Status::Alive)
            .filter(|r| self.view.member(r.id).is_none_or(|m| r.incarnation > m.incarnation))
            .map(|r| r.id)
            .collect()
    }

    /// Merges an `{epoch, config, view}` document into this member's
    /// state. A config that is not the accepted one goes to the fence: a
    /// member that missed the coordinator's pushes (or a coordinator that
    /// restarted and forgot its own config) learns a newer one from any
    /// peer, and a rival at the accepted epoch contests it.
    fn absorb(&mut self, doc: &Json) -> Result<(), String> {
        if let Some(e) = doc.get("epoch").and_then(Json::as_u64) {
            self.epoch = self.epoch.max(e);
        }
        let remote = View::from_json(doc.get("view").ok_or("missing view")?)?;
        let t0 = self.cfg.clock.now();
        let before = self.view.ring_plan();
        let fresh = self.fresh(remote.members());
        if self.view.merge(&remote) {
            self.view_changed(t0, before, fresh);
        }
        let offered = doc.get("config").and_then(|c| ClusterTopology::from_json(c).ok());
        let news =
            |t: &ClusterTopology| self.config.as_ref().is_none_or(|c| t.epoch >= c.epoch && t != c);
        if let Some(topo) = offered.filter(news) {
            let _ = self.accept_config(topo);
        }
        Ok(())
    }

    /// After the view took in new records: a fresh live record starts a
    /// full `failure_timeout` of grace with no failed exchange against
    /// it, and a change of the election ring is a membership span.
    fn view_changed(&mut self, t0: Instant, before: Option<RingPlan>, fresh: Vec<MemberId>) {
        self.doc = None;
        for id in fresh.into_iter().filter(|id| self.view.is_live(*id)) {
            self.last_seen.insert(id, t0);
            self.failing.remove(&id);
        }
        let after = self.view.ring_plan();
        if before != after {
            self.record_membership(t0, after.map_or(0, |p| p.len()));
        }
    }

    /// Records a [`Stage::Membership`] root span (`a` = epoch, `b` = live
    /// ring size).
    fn record_membership(&self, t0: Instant, ring: usize) {
        let attrs = SpanAttrs { a: self.epoch, b: ring as u64, root: true, ..Default::default() };
        self.span(Stage::Membership, t0, attrs);
    }

    fn span(&self, stage: Stage, t0: Instant, attrs: SpanAttrs) {
        let rec = &self.recorder;
        let (trace, root) = (rec.mint_trace(), rec.next_span_id());
        rec.record_span_with_id(root, trace, SpanId::NONE, stage, t0, self.cfg.clock.now(), attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_runtime::{Clock, ClockHandle, VirtualClock};
    use hre_svc::http::{RespStep, ResponseParser};

    const MS: Duration = Duration::from_millis(1);

    /// Members on one virtual clock, member `i` reachable at `c{i}`;
    /// exchanges are answered at once unless taken by the test.
    struct Sim {
        clock: Arc<VirtualClock>,
        members: Vec<Machine>,
        down: Vec<bool>,
        /// Every command other than an exchange, with its member.
        log: Vec<(usize, Command)>,
    }

    impl Sim {
        /// Member `i` has id `ids[i]`; ids from 100 up are routers. Each
        /// member seeds with member 0.
        fn new(ids: &[MemberId]) -> Sim {
            let clock = VirtualClock::new();
            let mut sim = Sim { clock, members: Vec::new(), down: Vec::new(), log: Vec::new() };
            for (i, &id) in ids.iter().enumerate() {
                let seeds = if i == 0 { Vec::new() } else { vec!["c0".to_string()] };
                let m = Machine::new(&sim.cfg(id, seeds), format!("c{i}"), 1);
                sim.members.push(m);
                sim.down.push(false);
            }
            sim.settle();
            sim
        }

        fn cfg(&self, id: MemberId, seeds: Vec<String>) -> CtrlConfig {
            CtrlConfig {
                node_id: Some(id),
                role: if id >= 100 { Role::Router } else { Role::Backend },
                serve_addr: format!("s{id}"),
                seeds,
                recorder: Some(FlightRecorder::new(0)),
                clock: ClockHandle::from(Arc::clone(&self.clock)),
                ..CtrlConfig::default()
            }
        }

        fn now(&self) -> Instant {
            self.clock.now()
        }

        /// Member `to`'s answer to `path` with `body`, `None` if it is
        /// down.
        fn call(&mut self, to: &str, path: &str, body: &str) -> Option<ClientResponse> {
            let j: usize = to.strip_prefix('c').and_then(|i| i.parse().ok()).expect("c{i}");
            if self.down[j] {
                return None;
            }
            let req = Request {
                method: "POST".into(),
                path: path.into(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            };
            let resp = self.members[j].on_request(&req, || Ok(format!("e{j}")));
            let mut parser = ResponseParser::new(1 << 20);
            parser.push(&resp.to_bytes(false));
            let RespStep::Response(resp) = parser.step() else { panic!("a whole response") };
            Some(resp)
        }

        /// Member `i`'s pending commands.
        fn take(&mut self, i: usize) -> Vec<Command> {
            std::iter::from_fn(|| self.members[i].next_command()).collect()
        }

        /// Answers every exchange at once and logs every other command,
        /// until no member has anything left to do.
        fn settle(&mut self) {
            while let Some(i) = (0..self.members.len()).find(|&i| !self.members[i].out.is_empty()) {
                for command in self.take(i) {
                    match command {
                        Command::Exchange { id, to, path, body } => {
                            let reply = self.call(&to, path, &body);
                            self.members[i].on_reply(id, reply);
                        }
                        other => self.log.push((i, other)),
                    }
                }
            }
        }

        /// Ticks every member that is up, then settles.
        fn round(&mut self) {
            for i in 0..self.members.len() {
                if !self.down[i] {
                    self.members[i].tick();
                }
            }
            self.settle();
        }

        fn status(&self, of: usize, id: MemberId) -> Status {
            self.members[of].view().member(id).expect("known").status
        }

        fn paths(commands: &[Command]) -> Vec<&'static str> {
            commands
                .iter()
                .filter_map(|c| match c {
                    Command::Exchange { path, .. } => Some(*path),
                    _ => None,
                })
                .collect()
        }
    }

    fn config_body(epoch: u64, coordinator: MemberId, backends: &[&str]) -> String {
        let backends: Vec<String> = backends.iter().map(|b| format!("\"{b}\"")).collect();
        format!(
            "{{\"epoch\":{epoch},\"coordinator\":{coordinator},\"backends\":[{}]}}",
            backends.join(",")
        )
    }

    #[test]
    fn suspicion_comes_exactly_past_the_failure_timeout() {
        let mut sim = Sim::new(&[1, 2]);
        let heard = sim.now();
        sim.down[1] = true;
        sim.clock.advance(MS);
        sim.round(); // the gossip to member 2 fails
        assert_eq!(sim.status(0, 2), Status::Alive, "a failed exchange alone is no death");
        let timeout = CtrlConfig::default().failure_timeout;
        sim.clock.advance_to(heard + timeout);
        sim.round();
        assert_eq!(sim.status(0, 2), Status::Alive, "silent exactly failure_timeout");
        sim.clock.advance(Duration::from_nanos(1));
        sim.round();
        assert_eq!(sim.status(0, 2), Status::Dead, "silent past failure_timeout");
        assert!(sim.log.iter().any(|(i, c)| *i == 0 && matches!(c, Command::Died(m) if m.id == 2)));
    }

    #[test]
    fn a_silent_peer_does_not_age_the_peers_that_answered() {
        // Exchanges run one at a time: replies from 2 and 3 land 1 and
        // 2 ms into the tick, the silent peer fails at its 500 ms timeout,
        // and only then does detection run.
        let mut sim = Sim::new(&[1, 2, 3, 4]);
        sim.round();
        let t = sim.now();
        sim.members[0].tick();
        let exchanges = sim.take(0);
        assert_eq!(Sim::paths(&exchanges), ["/ctrl/gossip"; 3]);
        for (step, command) in exchanges.into_iter().enumerate() {
            let Command::Exchange { id, to, path, body } = command else { unreachable!() };
            let reply = if to == "c3" {
                sim.clock.advance_to(t + CTRL_TIMEOUT);
                None
            } else {
                sim.clock.advance_to(t + MS * (step as u32 + 1));
                sim.call(&to, path, &body)
            };
            sim.members[0].on_reply(id, reply);
        }
        sim.members[0].tick();
        assert_eq!(sim.status(0, 2), Status::Alive);
        assert_eq!(sim.status(0, 3), Status::Alive);
        assert_eq!(sim.status(0, 4), Status::Dead, "the silent peer is declared dead");
    }

    #[test]
    fn refutation_bumps_the_incarnation() {
        let mut sim = Sim::new(&[1, 2]);
        // Member 1 alone declares member 2 dead.
        sim.down[1] = true;
        for _ in 0..8 {
            sim.clock.advance(Duration::from_millis(75));
            sim.round();
        }
        assert_eq!(sim.status(0, 2), Status::Dead);
        let before = sim.members[1].view().member(2).unwrap().incarnation;
        // Healed: member 1 still gossips with the member it holds dead, so
        // member 2 learns of its death and refutes it.
        sim.down[1] = false;
        sim.round();
        sim.round();
        let me = sim.members[1].view().member(2).unwrap().clone();
        assert_eq!((me.status, me.incarnation), (Status::Alive, before + 1));
        sim.round();
        assert_eq!(sim.members[0].view().member(2), Some(&me), "the refutation spread");
    }

    #[test]
    fn only_the_initiator_elects_and_only_after_the_cooldown() {
        let mut sim = Sim::new(&[1, 2, 3]);
        for i in [1, 2] {
            sim.members[i].tick();
            assert!(!Sim::paths(&sim.take(i)).contains(&"/ctrl/prepare"), "member {i} initiated");
        }
        sim.members[0].tick();
        let prepares: Vec<(u64, String)> = sim
            .take(0)
            .into_iter()
            .filter_map(|c| match c {
                Command::Exchange { id, to, path: "/ctrl/prepare", .. } => Some((id, to)),
                _ => None,
            })
            .collect();
        let [(id, to)] = &prepares[..] else { panic!("one prepare at a time: {prepares:?}") };
        assert_eq!(to, "c0", "the initiator prepares itself first");
        sim.members[0].on_reply(*id, None); // the attempt fails
        let idle = CtrlConfig::default().election_idle;
        sim.clock.advance(idle - MS);
        sim.members[0].tick();
        assert!(!Sim::paths(&sim.take(0)).contains(&"/ctrl/prepare"), "cooling down");
        sim.clock.advance(MS);
        sim.members[0].tick();
        assert!(Sim::paths(&sim.take(0)).contains(&"/ctrl/prepare"), "cooled down");
    }

    #[test]
    fn a_settled_election_holds_off_no_later_one() {
        // The plan over 2, 3 and 4 elects 4, which the initiator outlives.
        let mut sim = Sim::new(&[2, 3, 4]);
        sim.round();
        let runs: Vec<(usize, u64, RingPlan)> = std::mem::take(&mut sim.log)
            .into_iter()
            .filter_map(|(i, c)| match c {
                Command::Run { epoch, plan, .. } => Some((i, epoch, plan)),
                _ => None,
            })
            .collect();
        let coordinator = runs[0].2.expected_coordinator();
        assert_eq!(coordinator, 4);
        for (i, epoch, _) in &runs {
            sim.members[*i].on_round(*epoch, Ok(coordinator));
        }
        sim.settle();
        let heartbeat = CtrlConfig::default().heartbeat_interval;
        sim.clock.advance(Duration::from_millis(100));
        sim.down[2] = true;
        let killed = sim.now();
        let reelected = |log: &[(usize, Command)]| {
            log.iter().any(|(_, c)| matches!(c, Command::Run { epoch, .. } if *epoch > runs[0].1))
        };
        while !reelected(&sim.log) {
            assert!(sim.now() - killed < CtrlConfig::default().election_idle, "held off");
            sim.clock.advance(heartbeat);
            sim.round();
        }
        // Declaring the coordinator dead takes `failure_timeout` and a
        // tick; the initiator prepares on the next one.
        let timeout = CtrlConfig::default().failure_timeout;
        assert!(sim.now() - killed <= timeout + heartbeat * 2, "{:?}", sim.now() - killed);
    }

    #[test]
    fn a_three_member_round_installs_the_coordinators_config_everywhere() {
        let mut sim = Sim::new(&[1, 2, 3, 100]);
        sim.round();
        sim.round();
        let runs: Vec<(usize, u64, RingPlan)> = std::mem::take(&mut sim.log)
            .into_iter()
            .filter_map(|(i, c)| match c {
                Command::Run { epoch, plan, .. } => Some((i, epoch, plan)),
                _ => None,
            })
            .collect();
        assert_eq!(runs.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2], "backends run");
        let coordinator = runs[0].2.expected_coordinator();
        for (i, epoch, _) in runs {
            sim.members[i].on_round(epoch, Ok(coordinator));
        }
        sim.settle();
        let config = sim.members[0].config().cloned().expect("a config");
        assert_eq!((config.coordinator, config.backends.len()), (coordinator, 3));
        assert!(sim.members.iter().all(|m| m.config() == Some(&config)), "pushed to all");
        assert_eq!(sim.members.iter().filter(|m| m.is_coordinator()).count(), 1);
    }

    #[test]
    fn a_prepare_at_or_below_the_accepted_epoch_is_refused() {
        let mut sim = Sim::new(&[1, 2]);
        sim.round();
        let cfg = config_body(5, 1, &["s1", "s2"]);
        assert_eq!(sim.call("c1", "/ctrl/config", &cfg).unwrap().status, 200);
        let plan = sim.members[1].view().ring_plan().unwrap().to_json();
        let prepare = |epoch: u64| format!("{{\"epoch\":{epoch},\"plan\":{plan}}}");
        let req = |body: String| Request {
            method: "POST".into(),
            path: "/ctrl/prepare".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        for epoch in [4, 5] {
            let resp = sim.members[1]
                .on_request(&req(prepare(epoch)), || panic!("a refused prepare binds nothing"));
            assert_eq!(resp.status, 409, "epoch {epoch}");
        }
        let resp = sim.members[1].on_request(&req(prepare(6)), || Ok("e1".into()));
        assert_eq!(resp.status, 200);
        assert_eq!(sim.members[1].epoch(), 6);
    }

    #[test]
    fn one_epoch_names_one_config_and_a_deposed_coordinator_gets_409() {
        let mut sim = Sim::new(&[1, 2]);
        sim.round();
        assert_eq!(
            sim.call("c1", "/ctrl/config", &config_body(7, 2, &["s2"])).unwrap().status,
            200
        );
        let accepted = sim.members[1].config().cloned();
        let deposed = config_body(6, 1, &["s1", "s2"]);
        assert_eq!(sim.call("c1", "/ctrl/config", &deposed).unwrap().status, 409);
        let rival = config_body(7, 1, &["s1"]);
        assert_eq!(sim.call("c1", "/ctrl/config", &rival).unwrap().status, 409);
        let refresh = config_body(7, 2, &["s2"]);
        assert_eq!(sim.call("c1", "/ctrl/config", &refresh).unwrap().status, 200);
        assert_eq!(sim.members[1].config().cloned(), accepted);
        let configs = sim.take(1).into_iter().filter(|c| matches!(c, Command::Config(_)));
        assert_eq!(configs.count(), 1, "only the first acceptance changed the config");
    }

    #[test]
    fn a_rival_config_at_the_accepted_epoch_gets_a_new_election() {
        // Two initiators minted epoch 3, each for its side of a cut.
        let mut sim = Sim::new(&[1, 2]);
        assert_eq!(
            sim.call("c0", "/ctrl/config", &config_body(3, 1, &["s1"])).unwrap().status,
            200
        );
        assert_eq!(
            sim.call("c1", "/ctrl/config", &config_body(3, 2, &["s2"])).unwrap().status,
            200
        );
        sim.settle();
        sim.round(); // the gossip carries each side's config to the other
        assert_eq!(sim.members[0].config().unwrap().backends, ["s1"], "the fence held");
        sim.clock.advance(MS);
        sim.round(); // the initiator elects past the contested epoch
        let runs: Vec<(usize, u64)> = std::mem::take(&mut sim.log)
            .into_iter()
            .filter_map(|(i, c)| match c {
                Command::Run { epoch, .. } => Some((i, epoch)),
                _ => None,
            })
            .collect();
        assert_eq!(runs, [(0, 4), (1, 4)]);
        let coordinator = sim.members[0].view().ring_plan().unwrap().expected_coordinator();
        for (i, epoch) in runs {
            sim.members[i].on_round(epoch, Ok(coordinator));
        }
        sim.settle();
        let config = sim.members[0].config().cloned().unwrap();
        assert_eq!((config.epoch, config.backends.len()), (4, 2));
        assert_eq!(sim.members[1].config(), Some(&config));
    }

    #[test]
    fn a_one_member_ring_self_elects_without_a_round() {
        let mut sim = Sim::new(&[1, 100]);
        sim.round();
        sim.round();
        assert!(sim.log.iter().all(|(_, c)| !matches!(c, Command::Run { .. })));
        let config = sim.members[0].config().cloned().expect("self-elected");
        assert_eq!((config.coordinator, &config.backends[..]), (1, &["s1".to_string()][..]));
        assert_eq!(sim.members[1].config(), Some(&config), "pushed to the router");
    }

    #[test]
    fn the_coordinator_re_pushes_each_push_interval() {
        let mut sim = Sim::new(&[1, 100]);
        sim.round();
        sim.round();
        assert!(sim.members[0].is_coordinator());
        let interval = CtrlConfig::default().push_interval;
        let pushes = |sim: &mut Sim| {
            sim.members[0].tick();
            Sim::paths(&sim.take(0)).iter().filter(|p| **p == "/ctrl/config").count()
        };
        let start = sim.members[0].last_push;
        sim.clock.advance_to(start + interval - MS);
        assert_eq!(pushes(&mut sim), 0);
        sim.clock.advance_to(start + interval);
        assert_eq!(pushes(&mut sim), 1, "one push to the one peer");
        sim.clock.advance(interval - MS);
        assert_eq!(pushes(&mut sim), 0);
        sim.clock.advance(MS);
        assert_eq!(pushes(&mut sim), 1);
    }

    #[test]
    fn a_revived_member_rejoins_through_a_seed() {
        let mut sim = Sim::new(&[1, 2, 3]);
        sim.round();
        sim.down[2] = true;
        for _ in 0..8 {
            sim.clock.advance(Duration::from_millis(75));
            sim.round();
        }
        assert_eq!((sim.status(0, 3), sim.status(1, 3)), (Status::Dead, Status::Dead));
        // A restarted process: a fresh machine at a larger incarnation.
        let cfg = sim.cfg(3, vec!["c0".into()]);
        sim.members[2] = Machine::new(&cfg, "c2".into(), 2);
        sim.down[2] = false;
        sim.settle();
        assert_eq!(sim.status(0, 3), Status::Alive, "the seed took the new record");
        sim.clock.advance(Duration::from_millis(75));
        sim.round();
        sim.clock.advance(Duration::from_millis(75));
        sim.round();
        for i in 0..3 {
            assert_eq!(sim.members[i].view().member(3).unwrap().incarnation, 2);
            assert_eq!(sim.status(i, 3), Status::Alive, "member {i}");
        }
    }
}
