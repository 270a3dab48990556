//! # hre-cluster — the sharded election cluster
//!
//! A front-door router that spreads `POST /elect` traffic across N
//! backend `hre-svc` daemons, built from the same std-only pieces as the
//! rest of the workspace (the daemon's hand-rolled HTTP/1.1 server and
//! client, the shared log₂ histogram, the shared backoff policy):
//!
//! * **Rotation-affinity sharding** ([`hash`]): a consistent-hash ring
//!   over the backends, keyed by the *canonical* (Booth least) rotation
//!   of the request's label sequence. Every rotation of a labeled ring
//!   is the same labeled ring re-indexed, so every rotation routes to
//!   the same shard and shares its SIEVE result cache — cache hit rates
//!   survive scale-out. Adding or removing one of N nodes remaps only
//!   ~1/N of the keyspace (property-tested at ≤ 2.5/N).
//! * **Health-checked failover** ([`health`]): per-backend three-state
//!   circuit breakers (closed → open on consecutive transport failures →
//!   half-open probe → closed), probed via `GET /healthz` on the shared
//!   capped-backoff schedule; requests route to the next ring position
//!   while a breaker is open.
//! * **Hedged retries** ([`forward`]): if a backend sits on a request
//!   past an adaptive per-backend threshold (derived from its observed
//!   p95 latency), the router fires a duplicate to the failover backend
//!   and takes whichever response lands first. Safe because elections
//!   are deterministic and idempotent — both answers are byte-identical.
//!   The whole attempt/hedge/failover/deadline race is one sans-IO
//!   [`ForwardMachine`], driven by the router's reactor and by the
//!   deterministic simulator (`hre-dst`) alike.
//! * **Cluster observability**: Prometheus `GET /metrics` (per-backend
//!   request/error/hedge counters, breaker-state gauges, shared
//!   [`hre_runtime::Log2Histogram`] latencies) and a `GET /cluster`
//!   topology document.
//!
//! The wire codec is **not** duplicated here: requests, responses, and
//! JSON all come from [`hre_svc`] (re-exported below), so the router and
//! the backends cannot drift — a body the router parses is exactly a
//! body a backend parses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod eventloop;
pub mod forward;
pub mod hash;
pub mod health;
pub mod metrics;
pub mod router;
pub mod topology;

pub use forward::{AttemptId, Command, ForwardMachine, Timer};
pub use hash::{shard_key, HashRing};
pub use health::{Breaker, BreakerState};
pub use metrics::{BackendMetrics, ClusterMetrics};
pub use router::{start, ClusterConfig, RouterController, RouterHandle, RouterSummary, Shared};
pub use topology::{BackendSlot, Topology};

// The shared wire codec: one source of truth, re-exported so cluster
// users never import a second copy that could drift from the backends.
pub use hre_svc::{error_json, AlgoId, Client, ClientResponse, ElectRequest, Json};
