//! # homonym-rings
//!
//! A full Rust reproduction of *"Leader Election in Asymmetric Labeled
//! Unidirectional Rings"* (Altisen, Datta, Devismes, Durand, Larmore —
//! IPDPS 2017): deterministic, process-terminating leader election among
//! **homonym processes** (labels need not be unique) on unidirectional
//! rings, where processes know a bound `k` on label multiplicity but
//! nothing about the ring size `n`.
//!
//! ## Quick start
//!
//! ```
//! use homonym_rings::prelude::*;
//!
//! // The paper's Figure 1 ring: labels 1,3,1,3,2,2,1,2 and k = 3.
//! let ring = RingLabeling::from_raw(&[1, 3, 1, 3, 2, 2, 1, 2]);
//! assert!(ring.is_asymmetric() && ring.in_kk(3));
//!
//! // Run algorithm Ak under a seeded asynchronous scheduler.
//! let report = run(&Ak::new(3), &ring, &mut RandomSched::new(42), RunOptions::default());
//! assert!(report.clean());
//! assert_eq!(report.leader, Some(0)); // p0 is the true leader
//!
//! // Bk elects the same process with O(1) labels of state.
//! let report = run(&Bk::new(3), &ring, &mut RandomSched::new(43), RunOptions::default());
//! assert_eq!(report.leader, Some(0));
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`words`] | `hre-words` | Lyndon words, smallest repeating prefix, rotations |
//! | [`ring`] | `hre-ring` | Labelings, classes `A`/`Kk`/`U*`, generators, enumeration |
//! | [`sim`] | `hre-sim` | The paper's model: guarded actions, FIFO links, schedulers, spec monitor |
//! | [`core`] | `hre-core` | Algorithms `Ak` (Table 1) and `Bk` (Table 2 / Figure 2) |
//! | [`baselines`] | `hre-baselines` | Chang–Roberts, Peterson, known-`n` Lyndon election |
//! | [`algos`] | `hre-algos` | Pluggable engine zoo: one trait + registry over Ak/Bk, baselines, max-uid, content-oblivious |
//! | [`runtime`] | `hre-runtime` | One-thread-per-process crossbeam-channel runtime |
//! | [`net`] | `hre-net` | TCP socket runtime: framing, fault injection, FIFO/exactly-once recovery |
//! | [`svc`] | `hre-svc` | Election-as-a-service daemon: HTTP/1.1, worker pool, canonical-ring result cache |
//! | [`cluster`] | `hre-cluster` | Sharded election cluster: rotation-affinity routing, breakers, hedged retries |
//! | [`analysis`] | `hre-analysis` | Executable lower bound / impossibility proofs, figure reconstruction |
//! | [`dst`] | `hre-dst` | Whole-stack deterministic simulation: virtual time, seeded fault sweeps |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use hre_algos as algos;
pub use hre_analysis as analysis;
pub use hre_baselines as baselines;
pub use hre_cluster as cluster;
pub use hre_core as core;
pub use hre_ctrl as ctrl;
pub use hre_dst as dst;
pub use hre_net as net;
pub use hre_ring as ring;
pub use hre_runtime as runtime;
pub use hre_sim as sim;
pub use hre_svc as svc;
pub use hre_words as words;

/// One-stop imports for applications.
pub mod prelude {
    pub use hre_algos::{engines as election_engines, AlgoId, Engine};
    pub use hre_analysis::{demonstrate_impossibility, reconstruct_phases, Table};
    pub use hre_baselines::{BoundedN, ChangRoberts, MtAk, OracleN, Peterson};
    pub use hre_cluster::{ClusterConfig, HashRing, RouterHandle};
    pub use hre_core::{Ak, AkReference, Bk};
    pub use hre_net::{run_tcp, FaultPolicy, NetOptions, NetReport};
    pub use hre_ring::{classify, generate, RingLabeling};
    pub use hre_runtime::{run_threaded, ThreadedOptions};
    pub use hre_sim::{
        explore, run, run_faulty, satisfies_message_terminating, satisfies_stabilizing_election,
        AdversarialSched, Adversary, ExploreReport, FaultPlan, LinkFault, RandomSched,
        RoundRobinSched, RunOptions, RunReport, SyncSched, Verdict,
    };
    pub use hre_svc::{ElectRequest, ServerHandle, SvcConfig};
    pub use hre_words::{labels, Label};
}
