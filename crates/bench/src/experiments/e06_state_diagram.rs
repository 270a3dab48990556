//! E6 — Figure 2: `Bk`'s state diagram, checked against thousands of
//! observed transitions.
//!
//! We run `Bk` across rings × schedulers, record every
//! `(state, action, state')` transition, assert the observed set is a
//! subset of Figure 2's edges, and print the transition census (the
//! figure, with measured edge frequencies).

use hre_algos::AlgoId;
use hre_analysis::state_diagram::{check_figure2_conformance, DiagramReport, ALLOWED_TRANSITIONS};
use hre_analysis::Table;
use hre_ring::{catalog, generate};
use hre_sim::{RandomSched, RoundRobinSched, SyncSched};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 31337;

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut merged = DiagramReport::default();
    let mut runs = 0usize;

    // The paper's ring, under many schedulers.
    let fig = catalog::figure1_ring();
    merged.merge(check_figure2_conformance(&fig, 3, &mut SyncSched));
    merged.merge(check_figure2_conformance(&fig, 3, &mut RoundRobinSched::default()));
    runs += 2;
    for seed in 0..20 {
        merged.merge(check_figure2_conformance(&fig, 3, &mut RandomSched::new(seed)));
        runs += 1;
    }
    // Random rings.
    for _ in 0..15 {
        let ring = generate::random_a_inter_kk(10, 3, 4, &mut rng);
        let k = AlgoId::Bk.effective_k(ring.max_multiplicity());
        merged.merge(check_figure2_conformance(&ring, k, &mut RoundRobinSched::default()));
        runs += 1;
    }

    let mut out = String::new();
    out.push_str(&format!("seed = {SEED}; {runs} clean runs analyzed\n\n"));
    let mut t = Table::new(["from", "action", "to", "times observed"]);
    for ((from, action, to), count) in &merged.counts {
        t.row([from.clone(), action.clone(), to.clone(), count.to_string()]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ndistinct edges observed: {} / {} allowed by Figure 2\n",
        merged.distinct_edges(),
        ALLOWED_TRANSITIONS.len()
    ));
    out.push_str(&format!(
        "transitions outside Figure 2: {} — conformance: {}\n",
        merged.violations.len(),
        if merged.conforms() && merged.distinct_edges() == ALLOWED_TRANSITIONS.len() {
            "YES (and every edge exercised)"
        } else if merged.conforms() {
            "YES"
        } else {
            "NO"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn conforms_with_full_coverage() {
        let r = super::report();
        assert!(r.contains("conformance: YES (and every edge exercised)"), "{r}");
    }
}
