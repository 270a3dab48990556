//! # hre-dst — whole-stack deterministic simulation
//!
//! This crate runs the repository's **entire serving path** — the
//! service's request desk, job queue and result cache, the router's
//! forward race (hash ring, circuit breakers, hedging, failover,
//! deadline), its prober and its config fence, and the control plane's
//! members with their gossip, failure detection, `Ak` coordinator
//! elections and config pushes — inside **virtual time**, against seeded
//! fault plans.
//!
//! Ports, not mocks: each client request is a real `POST /elect` body
//! through the router's own [`ForwardMachine`](hre_cluster::ForwardMachine),
//! each attempt is answered by svc's own [`Desk`](hre_svc::Desk) and
//! [`execute`](hre_svc::execute), every backend and the router run ctrl's
//! own [`Machine`](hre_ctrl::Machine), and the router's breakers take the
//! shipped prober's sweep and its topology the shipped fence
//! ([`Shared`](hre_cluster::Shared)), all on configs whose clock is the
//! world's [`VirtualClock`](hre_runtime::VirtualClock), and each member's
//! side of an `Ak` round is the shipped ring member
//! ([`RingMember`](hre_net::RingMember)); the world only carries their
//! commands and bytes. The engine's cost is modelled.
//!
//! The moving parts:
//!
//! - [`ScenarioPlan`] — a seeded, JSON-round-trippable fault timetable
//!   (backend kills, partitions, slow links, flap storms, coordinator
//!   churn).
//! - [`run_plan`] — executes one plan inside a
//!   [`VirtualClock`](hre_runtime::VirtualClock) world and returns a
//!   transcript hash, invariant violations, and counters.
//! - [`sweep()`] — fans instances through the work-stealing runner;
//!   thread-count invariant by construction.
//! - [`minimize`] / [`artifact_json`] / [`parse_artifact`] — shrink a
//!   failing plan to a small reproducer and round-trip it through the
//!   replay artifact format.
//!
//! Determinism contract: a run is a pure function of its plan. No wall
//! clocks, no OS scheduling, no global mutable state feeds the
//! transcript (the election memo caches *values* only; trace and span
//! ids stay out of it), so the same plan yields the same transcript hash
//! on any machine at any parallelism.

pub mod oracle;
pub mod scenario;
pub mod sweep;
pub mod world;

pub use scenario::{FaultSpec, ScenarioKind, ScenarioPlan};
pub use sweep::{artifact_json, minimize, parse_artifact, sweep, Failure, SweepSummary};
pub use world::{run_plan, RunOutcome, RunStats, World, WorldOptions, ROUTER};
