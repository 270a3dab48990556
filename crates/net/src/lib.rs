//! # hre-net — the algorithms on real TCP sockets
//!
//! The fourth execution substrate of the reproduction, after the
//! discrete-event simulator (`hre-sim`), the exhaustive explorer, and
//! the in-process channel runtime (`hre-runtime`): the same unmodified
//! [`hre_sim::ProcessBehavior`] implementations, one OS thread and one
//! reactor per ring process, with each directed ring link realized as a
//! **TCP connection on loopback**.
//!
//! A ring process and its two links are one sans-IO machine,
//! [`RingMember`], which owns every rule of the transport; the socket
//! shell [`RingSocket`] carries its bytes over TCP on a reactor. The
//! same member elects the control plane's coordinator between real
//! processes (`hre-ctrl`), and the deterministic simulator (`hre-dst`)
//! carries its frames over a modelled hop.
//!
//! The paper's model assumes links that are reliable, FIFO, and
//! exactly-once. A raw socket under the deterministic fault injector is
//! none of those — frames are dropped, duplicated, reordered, delayed,
//! and whole connections are reset. The transport recovers the model's
//! guarantees in software, the same way real deployments would:
//!
//! | model assumption | wire reality | recovery mechanism |
//! |---|---|---|
//! | reliable delivery | frames dropped, connections reset | per-frame CRC, cumulative ACKs, retransmission timer, redial with capped backoff |
//! | FIFO order | frames reordered or delayed | per-link sequence numbers + reorder buffer ([`Reassembly`]) |
//! | exactly-once | frames duplicated, retransmits replayed | receive cursor + duplicate suppression |
//!
//! Because recovery is total, the election outcome over the faulty wire
//! is *identical* to the simulator's — that is the tentpole claim the
//! `exp_net` experiment and the integration tests check — while the
//! price paid (retransmissions, reconnects, RTT) is itemized in
//! [`NetSnapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod member;
pub mod metrics;
pub mod node;
pub mod reliable;
pub mod shell;
pub mod window;
pub mod wire;

pub use fault::{FaultPolicy, LinkInjector, WireAction};
pub use frame::{crc32, encode_frame, Frame, FrameError, FrameReader, KIND_ACK, KIND_DATA};
pub use member::{Ledger, LinkConfig, Output, RingMember, TraceHandle};
pub use metrics::{LinkMetrics, LinkSnapshot, NetSnapshot, RTT_BUCKETS};
pub use node::{run_tcp, run_tcp_traced, try_run_tcp, NetOptions, NetReport};
pub use reliable::{Offer, Reassembly};
pub use shell::RingSocket;
pub use wire::WireMessage;
