//! # hre-ctrl — the self-hosting control plane
//!
//! The serving stack built in PRs 1–5 runs leader elections *for
//! clients*; this crate turns the same machinery inward: **the cluster
//! elects its own coordinator with the paper's `Ak`, over real TCP
//! links between real processes.**
//!
//! Each process (backend daemon or router) runs one control-plane node
//! ([`node::start`]) with a stable identity. Every decision a member
//! makes is its sans-IO [`machine::Machine`]'s, which the node drives
//! over TCP and the deterministic simulator (`hre-dst`) in virtual time.
//! The members maintain a consistent membership view by heartbeat gossip
//! (a state-based CRDT — [`member::View`]); the live backends are
//! ordered into a **labeled unidirectional ring** ([`member::RingPlan`]:
//! id order, labels hashed distinct, hence an asymmetric labeling in
//! `K1`); and the unmodified [`hre_core::Ak`] engine runs over
//! [`hre_net::PeerLink`] TCP links to elect the coordinator
//! ([`election::run_round`]). The coordinator owns the consistent-hash
//! ring configuration and pushes it to every member; **epochs** fence
//! off deposed coordinators — a config push below the accepted epoch, or
//! a different config at it, is answered `409` and ignored.
//!
//! Churn — join, graceful leave, crash (missed heartbeats), coordinator
//! death — changes the live backend set, which triggers a fresh
//! election at a higher epoch, which produces a new config push, which
//! drives the router's ≤ 2.5/N consistent-hash remap path instead of a
//! static backend list.
//!
//! Dependency direction: `ctrl` sits on top of `core`/`net`/`runtime`/
//! `svc`; `cluster` does **not** depend on `ctrl` (the router exposes
//! `update_backends`/`trip_backend` hooks and the binary wires the two
//! together), so the data plane stays usable without a control plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod machine;
pub mod member;
pub mod node;
pub mod testbed;

pub use election::{run_round, RoundOutcome};
pub use machine::{ClusterTopology, Command, Machine, CTRL_TIMEOUT};
pub use member::{MemberId, MemberInfo, RingPlan, Role, Status, View};
pub use node::{derive_node_id, start, ConfigCallback, CtrlConfig, CtrlHandle, DeathCallback};
