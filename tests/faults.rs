//! Integration tests for the assumption-ablation machinery: the model's
//! reliable/FIFO/exactly-once link properties are necessary, and the
//! fault-injection engine itself is sound.

use homonym_rings::core::AkProc;
use homonym_rings::prelude::*;
use homonym_rings::ring::catalog;
use homonym_rings::sim::{run_faulty, Algorithm, FaultPlan, LinkFault};

fn opts() -> RunOptions {
    RunOptions { max_actions: 300_000, ..Default::default() }
}

#[test]
fn benign_plan_is_identical_to_fault_free_run() {
    let ring = catalog::figure1_ring();
    let clean = run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), opts());
    let benign =
        run_faulty(&Ak::new(3), &ring, &mut RoundRobinSched::default(), opts(), FaultPlan::none());
    assert!(clean.clean() && benign.clean());
    assert_eq!(clean.leader, benign.leader);
    assert_eq!(clean.metrics.messages, benign.metrics.messages);
    assert_eq!(clean.metrics.time_units, benign.metrics.time_units);
}

#[test]
fn message_loss_breaks_the_election() {
    let ring = catalog::figure1_ring();
    let rep = run_faulty(
        &Ak::new(3),
        &ring,
        &mut RoundRobinSched::default(),
        opts(),
        FaultPlan::single(LinkFault::DropEveryNth(5)),
    );
    assert!(!rep.clean(), "losing every 5th message must break Ak here");
    let rep = run_faulty(
        &Bk::new(3),
        &ring,
        &mut RoundRobinSched::default(),
        opts(),
        FaultPlan::single(LinkFault::DropEveryNth(5)),
    );
    assert!(!rep.clean(), "losing every 5th message must break Bk here");
}

#[test]
fn duplication_breaks_the_election() {
    let ring = catalog::figure1_ring();
    for k_alg in [Ok(3usize), Err(3usize)] {
        let plan = FaultPlan::single(LinkFault::DuplicateEveryNth(5));
        let clean = match k_alg {
            Ok(k) => run_faulty(&Ak::new(k), &ring, &mut RoundRobinSched::default(), opts(), plan)
                .clean(),
            Err(k) => run_faulty(&Bk::new(k), &ring, &mut RoundRobinSched::default(), opts(), plan)
                .clean(),
        };
        assert!(!clean, "duplication must break the election");
    }
}

#[test]
fn fifo_violation_breaks_the_election() {
    let ring = catalog::figure1_ring();
    let rep = run_faulty(
        &Bk::new(3),
        &ring,
        &mut RoundRobinSched::default(),
        opts(),
        FaultPlan::single(LinkFault::SwapEveryNth(7)),
    );
    // Bk's phase barrier is built on FIFO: reordering must deadlock or
    // mis-elect, and our engine's deadlock detection catches the former.
    assert!(!rep.clean());
}

#[test]
fn dropped_messages_are_really_gone() {
    // Engine soundness: with DropEveryNth(2), roughly half the sends are
    // never received; the run cannot possibly receive more than it sent.
    let ring = catalog::figure1_ring();
    let rep = run_faulty(
        &Ak::new(3),
        &ring,
        &mut RoundRobinSched::default(),
        RunOptions { record_trace: true, max_actions: 100_000, ..Default::default() },
        FaultPlan::single(LinkFault::DropEveryNth(2)),
    );
    let trace = rep.trace.unwrap();
    let received: u64 = (0..ring.n()).map(|p| trace.received_stream(p).len() as u64).sum();
    let sent = rep.metrics.messages;
    assert!(received < sent, "received {received} of {sent} sent");
    assert!(received * 3 >= sent, "should still receive roughly half, got {received}/{sent}");
}

#[test]
fn sparse_faults_are_sometimes_tolerated() {
    // The claim is "no guarantee", not "always fatal": this sparse drop
    // pattern happens to spare every decision-relevant message on the
    // Figure 1 ring, and Ak still elects correctly.
    let ring = catalog::figure1_ring();
    let rep = run_faulty(
        &Ak::new(3),
        &ring,
        &mut RoundRobinSched::default(),
        opts(),
        FaultPlan::single(LinkFault::DropEveryNth(17)),
    );
    assert!(rep.clean());
    assert_eq!(rep.leader, Some(0));
}

/// `Ak` as spawned by a runtime that does not know ring positions: every
/// process's string is owned from the start, so no run of it ever takes
/// the shared-window representation or its fallback.
struct OwnedStringAk(Ak);

impl Algorithm for OwnedStringAk {
    type Proc = AkProc;
    fn name(&self) -> String {
        self.0.name()
    }
    fn spawn(&self, label: Label) -> AkProc {
        self.0.spawn(label)
    }
}

#[test]
fn window_fallback_matches_owned_strings_under_faults() {
    // Dropped, duplicated and reordered tokens make a received label
    // differ from the window's prediction, which materializes the string
    // mid-run: the run must be indistinguishable from one that owned its
    // strings all along.
    let opts = RunOptions { record_trace: true, max_actions: 20_000, ..Default::default() };
    let rings = [catalog::figure1_ring(), catalog::ring_122(), catalog::section4_aab_ring()];
    let mut broken = 0;
    for ring in &rings {
        let k = ring.max_multiplicity();
        for every in 2..=7 {
            for rule in [
                LinkFault::DropEveryNth(every),
                LinkFault::DuplicateEveryNth(every),
                LinkFault::SwapEveryNth(every),
            ] {
                let plan = FaultPlan::single(rule);
                let rr = RoundRobinSched::default;
                let window = run_faulty(&Ak::new(k), ring, &mut rr(), opts, plan.clone());
                let owned =
                    run_faulty(&OwnedStringAk(Ak::new(k)), ring, &mut rr(), opts, plan.clone());
                let at = format!("{ring:?} k={k} {rule:?}");
                broken += usize::from(!window.clean());
                assert_eq!(window.verdict, owned.verdict, "{at}");
                assert_eq!(window.violations, owned.violations, "{at}");
                assert_eq!(window.leader, owned.leader, "{at}");
                assert_eq!(window.metrics, owned.metrics, "{at}");
                let (tw, to) = (window.trace.expect("recorded"), owned.trace.expect("recorded"));
                assert_eq!(tw.events(), to.events(), "{at}");
            }
        }
    }
    assert!(broken > 0, "some plan must disturb the token streams");
}
