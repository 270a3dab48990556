//! A deliberately *literal* transcription of Table 1 — the reference
//! implementation `AkReference`.
//!
//! [`Ak`](crate::Ak) keeps incremental occurrence counts and caches the
//! `Leader(σ)` verdict once the ring is determined; those are pure
//! evaluation caches, but caches can hide bugs. This module transcribes
//! the paper's action table with **no optimization whatsoever** — the
//! `Leader` predicate is recomputed from scratch (full occurrence scan,
//! naive `O(m²)` srp, naive `O(n²)` Lyndon test) on every reception,
//! exactly as written.
//!
//! The differential tests (here and in `benches/bench_ablation.rs`) drive
//! both implementations over the same rings and assert **identical
//! per-process message streams** — the strongest behavioral equivalence
//! available short of state bisimulation — which justifies trusting the
//! optimized `Ak` everywhere else.

use crate::ak::AkMsg;
use hre_sim::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use hre_words::{
    is_lyndon_naive, least_rotation_naive, occurrences, rotate_left, srp_len_naive, Label,
};

/// The paper's `Leader(σ)` predicate, computed entirely with naive
/// reference algorithms.
pub fn leader_predicate_naive(sigma: &[Label], k: usize) -> bool {
    let threshold = 2 * k + 1;
    let has_heavy_label = sigma.iter().any(|l| occurrences(sigma, l) >= threshold);
    if !has_heavy_label {
        return false;
    }
    let srp = &sigma[..srp_len_naive(sigma)];
    is_lyndon_naive(srp)
}

/// Factory for the unoptimized reference processes.
#[derive(Clone, Copy, Debug)]
pub struct AkReference {
    /// The multiplicity bound `k ≥ 1`.
    pub k: usize,
}

impl AkReference {
    /// Creates the reference algorithm for a bound `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "Ak requires k >= 1");
        AkReference { k }
    }
}

impl Algorithm for AkReference {
    type Proc = AkReferenceProc;

    fn name(&self) -> String {
        format!("AkReference(k={})", self.k)
    }

    fn spawn(&self, label: Label) -> AkReferenceProc {
        AkReferenceProc {
            id: label,
            k: self.k,
            init: true,
            string: Vec::new(),
            st: ElectionState::INITIAL,
        }
    }
}

/// One reference process: exactly the paper's six variables, nothing else.
pub struct AkReferenceProc {
    id: Label,
    k: usize,
    init: bool,
    string: Vec<Label>,
    st: ElectionState,
}

impl ProcessBehavior for AkReferenceProc {
    type Msg = AkMsg;

    /// A1.
    fn on_start(&mut self, out: &mut Outbox<AkMsg>) {
        self.init = false;
        self.string.push(self.id);
        out.send(AkMsg::Token(self.id));
    }

    fn on_msg(&mut self, msg: &AkMsg, out: &mut Outbox<AkMsg>) -> Reaction {
        match (*msg, self.st.is_leader) {
            // A5.
            (AkMsg::Token(_), true) => Reaction::Consumed,
            (AkMsg::Token(x), false) => {
                // Guards of A2/A3 evaluate Leader(p.string . x) afresh.
                self.string.push(x);
                if leader_predicate_naive(&self.string, self.k) {
                    // A3.
                    self.st.is_leader = true;
                    self.st.leader = Some(self.id);
                    self.st.done = true;
                    out.send(AkMsg::Finish);
                } else {
                    // A2.
                    out.send(AkMsg::Token(x));
                }
                Reaction::Consumed
            }
            // A4 — all-naive LW(srp(string))[1].
            (AkMsg::Finish, false) => {
                let srp = &self.string[..srp_len_naive(&self.string)];
                let lw = rotate_left(srp, least_rotation_naive(srp));
                self.st.leader = Some(lw[0]);
                self.st.done = true;
                out.send(AkMsg::Finish);
                self.st.halted = true;
                Reaction::Consumed
            }
            // A6.
            (AkMsg::Finish, true) => {
                self.st.halted = true;
                Reaction::Consumed
            }
        }
    }

    fn election(&self) -> ElectionState {
        self.st
    }

    fn space_bits(&self, label_bits: u32) -> u64 {
        let b = label_bits as u64;
        self.string.len() as u64 * b + 2 * b + 3
    }

    /// `⟨x⟩` carries one label plus a one-bit tag; `⟨FINISH⟩` is the tag
    /// alone.
    fn msg_wire_bits(&self, msg: &AkMsg, label_bits: u32) -> u64 {
        match msg {
            AkMsg::Token(_) => label_bits as u64 + 1,
            AkMsg::Finish => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ak;
    use hre_ring::{catalog, enumerate, generate, RingLabeling};
    use hre_sim::{run, RoundRobinSched, RunOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn traces_identical(ring: &RingLabeling, k: usize) {
        let opts = RunOptions { record_trace: true, ..Default::default() };
        let fast = run(&Ak::new(k), ring, &mut RoundRobinSched::default(), opts);
        let slow = run(&AkReference::new(k), ring, &mut RoundRobinSched::default(), opts);
        assert_eq!(fast.verdict, slow.verdict, "{ring:?} k={k}");
        assert_eq!(fast.leader, slow.leader, "{ring:?} k={k}");
        assert_eq!(fast.metrics.messages, slow.metrics.messages, "{ring:?} k={k}");
        assert_eq!(fast.metrics.time_units, slow.metrics.time_units, "{ring:?} k={k}");
        assert_eq!(fast.metrics.peak_space_bits, slow.metrics.peak_space_bits, "{ring:?} k={k}");
        let (tf, ts) = (fast.trace.unwrap(), slow.trace.unwrap());
        for p in 0..ring.n() {
            assert_eq!(tf.received_stream(p), ts.received_stream(p), "{ring:?} k={k} p={p}");
            assert_eq!(tf.sent_stream(p), ts.sent_stream(p), "{ring:?} k={k} p={p}");
        }
    }

    #[test]
    fn differential_exhaustive_small_rings() {
        for n in 2..=5usize {
            for ring in enumerate::canonical_asymmetric_labelings(n, 3) {
                let k = ring.max_multiplicity();
                traces_identical(&ring, k);
                traces_identical(&ring, k + 1); // overestimation too
            }
        }
    }

    #[test]
    fn differential_random_rings() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..15 {
            let ring = generate::random_a_inter_kk(9, 3, 4, &mut rng);
            traces_identical(&ring, 3);
        }
    }

    #[test]
    fn differential_figure1() {
        traces_identical(&catalog::figure1_ring(), catalog::FIGURE1_K);
    }

    #[test]
    fn naive_predicate_matches_optimized_predicate() {
        use crate::leader_predicate;
        let ring = catalog::figure1_ring();
        for p in 0..ring.n() {
            for m in 1..=60 {
                let sigma = ring.llabels(p, m);
                for k in 1..=4 {
                    assert_eq!(
                        leader_predicate(&sigma, k),
                        leader_predicate_naive(&sigma, k),
                        "p={p} m={m} k={k}"
                    );
                }
            }
        }
    }
}
