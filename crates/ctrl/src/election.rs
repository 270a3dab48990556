//! One member's side of a distributed `Ak` election round.
//!
//! This is the point of the whole control plane: the coordinator is not
//! picked by a bully heuristic or a hand-rolled consensus — it is the
//! *paper's* `Ak` engine ([`hre_core::Ak`]), byte-for-byte the process
//! the simulator and the socket runtime execute, run as a sans-IO
//! [`hre_net::RingMember`] (the same framed, retransmitting,
//! exactly-once FIFO link `run_tcp` uses, here with its two ends in
//! different OS processes). The node drives it over TCP on its endpoint
//! reactor; the deterministic simulator (`hre-dst`) carries its frames
//! over a modelled hop.
//!
//! A round is fully determined by a [`RingPlan`]: member `order[i]`
//! listens for its predecessor on a listener bound at *prepare* time
//! and dials `order[(i+1) % n]`'s election address at *commit* time.
//! Because the plan's labels are all distinct, the labeling is in `K1`
//! and `Ak(k=1)` elects the unique Lyndon-word owner — which every
//! member can also compute locally from the plan
//! ([`RingPlan::expected_coordinator`]), giving tests and operators an
//! oracle for what the wire protocol must conclude.

use crate::member::{MemberId, RingPlan};
use hre_core::{Ak, AkProc};
use hre_net::{Ledger, LinkConfig, RingMember};
use hre_runtime::ThreadOutcome;
use hre_sim::Algorithm;
use hre_words::Label;
use std::time::{Duration, Instant};

/// One member's `Ak` process with its two ring links.
pub type RoundMember = RingMember<AkProc>;

/// Starts member `me`'s `Ak` process for the round over `plan` at `now`;
/// it gives up after `idle` without a message (a member dying mid-round
/// leaves the survivors timing out, and the initiator retries at a fresh
/// epoch).
pub fn start_member(
    me: MemberId,
    plan: &RingPlan,
    idle: Duration,
    ledger: Ledger,
    now: Instant,
) -> Result<RoundMember, String> {
    let pos = plan.position(me).ok_or("this member is not in the ring plan")?;
    // Distinct labels ⇒ the plan's labeling is in K1: k = 1 is the
    // tight multiplicity bound, giving Ak its cheapest correct run.
    let proc = Ak::new(1).spawn(Label::new(plan.labels[pos]));
    Ok(RingMember::start(proc, idle, LinkConfig::default(), ledger, now))
}

/// What member `me` learned from its round: the elected coordinator,
/// mapped back from the leader label, or why the round failed.
pub fn coordinator(
    me: MemberId,
    plan: &RingPlan,
    member: &RoundMember,
    outcome: ThreadOutcome,
) -> Result<MemberId, String> {
    if outcome != ThreadOutcome::Halted {
        return Err(format!("election round did not halt cleanly: {outcome:?}"));
    }
    let election = member.election();
    let leader_label = election.leader.ok_or("round halted without learning a leader")?.raw();
    let coordinator = plan
        .member_with_label(leader_label)
        .ok_or(format!("elected label {leader_label} is not in the ring plan"))?;
    if election.is_leader && coordinator != me {
        return Err("this member won the election but the plan disagrees".into());
    }
    Ok(coordinator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::{MemberInfo, Role, Status, View};
    use hre_net::Output;

    fn plan_of(ids: &[MemberId]) -> RingPlan {
        let mut v = View::new();
        for &id in ids {
            v.observe(MemberInfo {
                id,
                role: Role::Backend,
                ctrl_addr: String::new(),
                serve_addr: format!("127.0.0.1:{}", 8000 + id),
                incarnation: 1,
                status: Status::Alive,
            });
        }
        v.ring_plan().unwrap()
    }

    /// Three members' rounds over in-memory hops that deliver at once:
    /// every member concludes the plan's local oracle, and exactly one,
    /// the Lyndon owner, concludes it coordinates.
    #[test]
    fn three_member_round_elects_the_lyndon_owner_over_in_memory_hops() {
        let plan = plan_of(&[11, 23, 7]);
        assert_eq!(plan.order, vec![7, 11, 23]);
        let n = plan.len();
        let now = Instant::now();
        let idle = Duration::from_secs(5);
        let mut members: Vec<RoundMember> = plan
            .order
            .iter()
            .map(|&me| start_member(me, &plan, idle, Ledger::default(), now).unwrap())
            .collect();
        let mut outcomes = vec![None; n];
        let mut moved = true;
        while moved {
            moved = false;
            for i in 0..n {
                while let Some(out) = members[i].poll_output() {
                    moved = true;
                    let (succ, pred) = ((i + 1) % n, (i + n - 1) % n);
                    match out {
                        Output::Dial => members[i].on_connected(true, now),
                        Output::ToSuccessor(bytes) => {
                            members[succ].on_predecessor_bytes(&bytes, now)
                        }
                        Output::ToPredecessor(bytes) => {
                            members[pred].on_successor_bytes(&bytes, now)
                        }
                        Output::Done(outcome) => {
                            outcomes[i] =
                                Some(coordinator(plan.order[i], &plan, &members[i], outcome))
                        }
                        Output::DropSuccessor | Output::DropPredecessor => {
                            unreachable!("a faultless hop never desynchronizes")
                        }
                    }
                }
            }
        }
        let expect = plan.expected_coordinator();
        let outcomes: Vec<MemberId> = outcomes.into_iter().map(|o| o.unwrap().unwrap()).collect();
        assert_eq!(outcomes, vec![expect; n], "every member concludes the oracle");
        let winners: Vec<usize> = (0..n).filter(|&i| members[i].election().is_leader).collect();
        assert_eq!(winners, vec![plan.position(expect).unwrap()]);
    }
}
