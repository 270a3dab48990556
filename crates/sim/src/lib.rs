//! # hre-sim — the paper's computation model, executable
//!
//! This crate implements, faithfully, the model of Section II of
//! *"Leader Election in Asymmetric Labeled Unidirectional Rings"*:
//!
//! * a unidirectional ring of `n ≥ 2` processes, `p(i)` receiving only from
//!   `p(i−1)` and sending only to `p(i+1)`;
//! * reliable **FIFO links**; the function `rcv` is message-blocking and
//!   pattern-matching — a process whose head message matches no enabled
//!   guard is *disabled with a pending message* (a would-be deadlock, which
//!   the simulator detects and reports);
//! * **guarded actions** executed atomically, at most one action
//!   triggerable without a message (the initial action, executed first);
//! * **fair activation** — every continuously-enabled process eventually
//!   fires — provided by all bundled [schedulers](sched);
//! * the paper's **time-unit** metric (message transmission normalized to at
//!   most one unit, processing time zero), implemented as a virtual clock
//!   over the causal order ([`engine::Network`] tracks it online);
//! * an online **specification monitor** ([`spec::SpecMonitor`]) for the
//!   four conditions of process-terminating leader election.
//!
//! The two algorithms of the paper (and the baselines) are written against
//! [`process::ProcessBehavior`] and run unchanged under every scheduler —
//! and, via `hre-runtime`, on real OS threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod explore;
pub mod faults;
pub mod metrics;
pub mod process;
pub mod run;
pub mod sched;
pub mod spec;
pub mod sweep;
pub mod trace;

pub use engine::{NetCounters, Network, TerminalKind};
pub use explore::{explore, ExploreReport, StateKey};
pub use faults::{FaultPlan, LinkFault};
pub use metrics::RunMetrics;
pub use process::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
pub use run::{
    run, run_faulty, run_with_delays, run_with_observer, satisfies_message_terminating,
    satisfies_stabilizing_election, Observer, RunOptions, RunReport, Verdict,
};
pub use sched::{
    AdversarialSched, Adversary, EnabledSet, RandomSched, RoundRobinSched, Scheduler, Selection,
    SyncSched,
};
pub use spec::{SpecMonitor, SpecViolation};
pub use sweep::{item_seed, sweep_map, sweep_runs, sweep_runs_seeded};
pub use trace::{ActionEvent, EventKind, Trace};
