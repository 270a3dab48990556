//! # hre-svc — election-as-a-service
//!
//! A daemon that serves leader elections for labeled unidirectional
//! rings over hand-rolled HTTP/1.1 on a std `TcpListener` (no external
//! web stack — the workspace is offline and std-only by design):
//!
//! * **`POST /elect`** — JSON ring spec in, leader + label word +
//!   complexity metrics out, byte-identical to `hre elect --json`.
//! * **`GET /healthz`**, **`GET /metrics`** — liveness and Prometheus
//!   text metrics (request counters, log₂ latency histogram, queue
//!   depth, cache and worker stats).
//! * One **epoll reactor** thread holds every connection as a state
//!   machine (Linux only) — the [`front`] connection machine the router
//!   and the control plane serve from too — and hands each request to
//!   the sans-IO [`desk`], which the deterministic simulator drives as
//!   well; a fixed **worker pool** only runs elections.
//!   A full job queue answers `503 Retry-After` instead of accepting
//!   unbounded work, and every request carries a deadline (`504` past
//!   it). `POST /elect/batch` answers N elections in one exchange.
//! * A **sharded SIEVE result cache** keyed by the *canonical rotation*
//!   (Booth least rotation, via `hre-words`) of the label sequence, so
//!   rotationally-equivalent rings — the same labeled ring, re-indexed —
//!   share one entry; hits replay the outcome with the leader index
//!   mapped back into request coordinates.
//! * **Graceful drain** on SIGTERM/ctrl-c (via the vendored
//!   `signal-hook` flag API): stop accepting, finish in-flight
//!   requests, drain the queue, join every thread.
//!
//! The cache is sound because the service always elects with the
//! deterministic round-robin scheduler: rotating a ring re-indexes
//! processes without changing the labeled structure, so the leader's
//! *label word* and every complexity metric are rotation-invariant and
//! only the leader index shifts — by exactly the rotation distance
//! (`crates/svc/tests` and E19 verify this end to end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bench;
pub mod cache;
pub mod desk;
pub(crate) mod eventloop;
pub mod front;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod tracewire;

pub use api::{
    batch_from_json, batch_response_body, error_json, response_json, run_election, AlgoId,
    ElectOutcome, ElectRequest, MAX_BATCH,
};
pub use bench::{run_load, salted_rings, LoadOptions, LoadReport};
pub use cache::{CacheKey, CacheSnapshot, ShardedLru};
pub use desk::{execute, Desk, Done, Job};
pub use http::{
    request_bytes, Client, ClientResponse, ParseStep, Phase, Request, RequestParser, RespStep,
    Response, ResponseParser, DEFAULT_MAX_BODY,
};
pub use json::Json;
pub use metrics::{naming_violations, SvcMetrics};
pub use server::{start, RequestSpan, ServerHandle, Shared, StatusProvider, SvcConfig, SvcSummary};
