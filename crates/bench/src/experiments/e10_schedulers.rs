//! E10 — model robustness (§II): fair asynchronous executions.
//!
//! The specification quantifies over *every* fair execution. We run both
//! algorithms under the synchronous, round-robin, 100 seeded-random, and 3
//! adversarial schedulers and report: zero specification violations, zero
//! deadlocks, and full confluence (identical leader / messages / time on
//! every schedule).

use hre_algos::AlgoId;
use hre_analysis::Table;
use hre_core::{Ak, Bk};
use hre_ring::generate;
use hre_sim::{
    run, AdversarialSched, Adversary, RandomSched, RoundRobinSched, RunOptions, Scheduler,
    SyncSched,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 60_601;

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut rng = StdRng::seed_from_u64(SEED);
    let ring = generate::random_a_inter_kk(12, 3, 4, &mut rng);
    // Bk's bound, which Ak takes as well.
    let k = AlgoId::Bk.effective_k(ring.max_multiplicity());
    let victim = ring.true_leader().unwrap();

    let mut out = String::new();
    out.push_str(&format!("seed = {SEED}; ring = {ring}; k = {k}\n\n"));

    let mut t =
        Table::new(["algo", "schedules", "clean", "deadlocks", "distinct (leader,msgs,time)"]);
    let mut all_good = true;
    for algo_name in ["Ak", "Bk"] {
        let mut clean = 0usize;
        let mut deadlocks = 0usize;
        let mut outcomes: Vec<(Option<usize>, u64, u64)> = Vec::new();
        let mut total = 0usize;

        let mut scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(SyncSched),
            Box::new(RoundRobinSched::default()),
            Box::new(AdversarialSched { strategy: Adversary::LowestFirst }),
            Box::new(AdversarialSched { strategy: Adversary::HighestFirst }),
            Box::new(AdversarialSched { strategy: Adversary::Starve(victim) }),
        ];
        for seed in 0..100 {
            scheds.push(Box::new(RandomSched::new(seed)));
        }
        for mut sched in scheds {
            total += 1;
            let rep = if algo_name == "Ak" {
                let r = run(&Ak::new(k), &ring, &mut sched, RunOptions::default());
                (r.clean(), r.verdict, r.leader, r.metrics.messages, r.metrics.time_units)
            } else {
                let r = run(&Bk::new(k), &ring, &mut sched, RunOptions::default());
                (r.clean(), r.verdict, r.leader, r.metrics.messages, r.metrics.time_units)
            };
            if rep.0 {
                clean += 1;
            }
            if rep.1 == hre_sim::Verdict::Deadlock {
                deadlocks += 1;
            }
            let key = (rep.2, rep.3, rep.4);
            if !outcomes.contains(&key) {
                outcomes.push(key);
            }
        }
        all_good &= clean == total && deadlocks == 0 && outcomes.len() == 1;
        t.row([
            algo_name.to_string(),
            total.to_string(),
            clean.to_string(),
            deadlocks.to_string(),
            outcomes.len().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n105/105 schedules clean, 0 deadlocks, 1 distinct outcome per \
         algorithm (confluence): {}\n",
        if all_good { "CONFIRMED" } else { "CHECK TABLE" }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn robustness_confirmed() {
        let r = super::report();
        assert!(r.contains("(confluence): CONFIRMED"), "{r}");
    }
}
