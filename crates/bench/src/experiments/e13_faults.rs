//! E13 — ablation of the model's assumptions (§II): reliable, FIFO,
//! exactly-once links.
//!
//! The paper's proofs use all three properties (e.g. `p.string` is a
//! prefix of `LLabels(p)` only if nothing is lost, duplicated, or
//! reordered; `Bk`'s phase barrier is built on FIFO). This experiment
//! removes each assumption with deterministic link faults and reports what
//! actually goes wrong: silent non-election, livelock, or deadlock. A
//! benign plan is included as the control (always clean) — so the
//! assumptions are load-bearing, not decorative.
//!
//! Occasionally a sparse fault is tolerated by luck (the lost token wasn't
//! needed for any decision); the table makes that visible too — the claim
//! is "no guarantee without the assumptions", not "every fault is fatal".

use hre_algos::AlgoId;
use hre_analysis::Table;
use hre_core::{Ak, Bk};
use hre_net::{run_tcp, FaultPolicy, NetOptions};
use hre_ring::{catalog, generate};
use hre_sim::{run, run_faulty, FaultPlan, LinkFault, RoundRobinSched, RunOptions, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SEED: u64 = 13_131;

fn verdict_str<M>(rep: &hre_sim::RunReport<M>, benign: bool) -> String {
    if rep.clean() {
        return if benign { "clean".into() } else { "clean (fault tolerated by luck)".into() };
    }
    match rep.verdict {
        Verdict::Completed => "completed but spec violated".into(),
        Verdict::QuiescentNotHalted => "quiescent, nobody elected".into(),
        Verdict::Deadlock => "deadlock".into(),
        Verdict::ActionLimit => "livelock (action budget exhausted)".into(),
        Verdict::StoppedOnViolation => "spec violation".into(),
    }
}

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut out = String::new();
    out.push_str(&format!("seed = {SEED}\n\n"));
    let opts = RunOptions { max_actions: 300_000, ..Default::default() };

    let mut rng = StdRng::seed_from_u64(SEED);
    let rings = vec![
        ("figure-1 ring", catalog::figure1_ring()),
        ("random ring", generate::random_a_inter_kk(10, 3, 4, &mut rng)),
    ];
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("none (control)", FaultPlan::none()),
        ("drop every 5th msg", FaultPlan::single(LinkFault::DropEveryNth(5))),
        ("drop every 17th msg", FaultPlan::single(LinkFault::DropEveryNth(17))),
        ("duplicate every 5th", FaultPlan::single(LinkFault::DuplicateEveryNth(5))),
        ("reorder every 7th", FaultPlan::single(LinkFault::SwapEveryNth(7))),
    ];

    let mut t = Table::new(["ring", "link fault", "Ak outcome", "Bk outcome"]);
    let mut controls_clean = true;
    let mut each_fault_broke_something = vec![false; plans.len()];

    for (ring_name, ring) in &rings {
        let k = AlgoId::Bk.effective_k(ring.max_multiplicity());
        for (pi, (fault_name, plan)) in plans.iter().enumerate() {
            let ak =
                run_faulty(&Ak::new(k), ring, &mut RoundRobinSched::default(), opts, plan.clone());
            let bk =
                run_faulty(&Bk::new(k), ring, &mut RoundRobinSched::default(), opts, plan.clone());
            if plan.is_benign() {
                controls_clean &= ak.clean() && bk.clean();
            } else {
                each_fault_broke_something[pi] |= !ak.clean() || !bk.clean();
            }
            t.row([
                ring_name.to_string(),
                fault_name.to_string(),
                verdict_str(&ak, plan.is_benign()),
                verdict_str(&bk, plan.is_benign()),
            ]);
        }
    }
    out.push_str(&t.render());

    let all_faults_broke = each_fault_broke_something.iter().skip(1).all(|&b| b);
    out.push_str(&format!(
        "\nControls (no faults) clean: {}; every fault class broke at least \
         one run: {} — the reliability / exactly-once / FIFO assumptions of \
         §II are necessary.\n",
        if controls_clean { "YES" } else { "NO" },
        if all_faults_broke { "YES" } else { "NO" }
    ));

    // Second half of the ablation: the very fault classes that break the
    // bare model are harmless once the transport layer (hre-net) recovers
    // the link assumptions — sequence numbers, retransmission, and
    // duplicate suppression turn every class back into a clean election.
    out.push_str("\n### Transport-level recovery (hre-net over TCP)\n\n");
    let ring = catalog::figure1_ring();
    let k = AlgoId::Ak.effective_k(ring.max_multiplicity());
    let sim = run(&Ak::new(k), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    let wire_faults: Vec<(&str, FaultPolicy)> = vec![
        ("drop 20 % of frames", FaultPolicy { drop: 0.20, ..FaultPolicy::NONE }),
        ("duplicate 10 %", FaultPolicy { duplicate: 0.10, ..FaultPolicy::NONE }),
        ("reorder 10 %", FaultPolicy { reorder: 0.10, ..FaultPolicy::NONE }),
        (
            "delay 10 % up to 5 ms",
            FaultPolicy { delay: 0.10, max_delay: Duration::from_millis(5), ..FaultPolicy::NONE },
        ),
        (
            "one connection reset per link",
            FaultPolicy { reset_after: Some(2), ..FaultPolicy::NONE },
        ),
        ("all of the above", FaultPolicy::stress()),
    ];
    let mut t = Table::new([
        "wire fault",
        "Ak outcome",
        "retries",
        "reconnects",
        "dups dropped",
        "faults injected",
    ]);
    let mut all_recovered = true;
    for (name, policy) in wire_faults {
        let rep = run_tcp(
            &Ak::new(k),
            &ring,
            NetOptions { faults: policy, fault_seed: SEED, ..NetOptions::default() },
        );
        let ok = rep.clean() && rep.leader() == sim.leader && rep.messages == sim.metrics.messages;
        all_recovered &= ok;
        let w = &rep.net.total;
        t.row([
            name.to_string(),
            if ok { "clean, same leader & msg count".into() } else { "NOT RECOVERED".to_string() },
            w.frames_retried.to_string(),
            w.reconnects.to_string(),
            w.dup_frames_rx.to_string(),
            w.faults_injected.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nRetransmission + reassembly turned every fault class back into a \
         clean run: {} — the assumptions are necessary at the model layer \
         and sufficient to re-establish end-to-end.\n",
        if all_recovered { "YES" } else { "NO" }
    ));
    assert!(controls_clean && all_faults_broke && all_recovered, "E13 gate failed:\n{out}");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn assumptions_are_necessary() {
        let r = super::report();
        assert!(r.contains("Controls (no faults) clean: YES"), "{r}");
        assert!(r.contains("broke at least one run: YES"), "{r}");
        assert!(r.contains("back into a clean run: YES"), "{r}");
    }
}
