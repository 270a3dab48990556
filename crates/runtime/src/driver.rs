//! The rules for running one process, shared by every real-concurrency
//! runtime: the channel runtime's threads ([`crate::run_threaded`]) and
//! the socket runtime's sans-IO ring member (`hre_net::RingMember`)
//! both step their processes through [`Steps`], so their process-facing
//! semantics cannot drift.
//!
//! The steps reproduce the model's `rcv` exactly as the simulator does: a
//! process whose head message matches no enabled guard is permanently
//! disabled ([`ThreadOutcome::Wedged`]), and a halted process stops
//! receiving forever.

use hre_sim::{ElectionState, Outbox, ProcessBehavior, Reaction};

/// How one process's run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadOutcome {
    /// The process halted (local termination decision).
    Halted,
    /// The process ignored its head message — permanently disabled.
    Wedged,
    /// No message arrived within the idle timeout (livelock / lost peers).
    TimedOut,
    /// The incoming link disconnected before the process halted.
    Disconnected,
    /// The outgoing link stayed unavailable past the send deadline
    /// (backpressure stall on bounded links).
    Stalled,
}

/// Why a send gave up: the link stayed full past the runtime's
/// deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendFault;

/// One process's pending sends and its count of sent messages. Each
/// step hands the whole outbox to a `send` function and then checks for
/// local termination; a batch counts toward [`Steps::sent`] only if
/// every message in it was accepted (the accounting whose message
/// totals integration tests compare bit-for-bit against the simulator).
#[derive(Debug)]
pub struct Steps<M> {
    out: Outbox<M>,
    sent: u64,
}

impl<M> Steps<M> {
    /// Starts `proc` and flushes its initial sends; `Some` if the
    /// process is already finished.
    pub fn start<P>(
        proc: &mut P,
        send: impl FnMut(M) -> Result<(), SendFault>,
    ) -> (Steps<M>, Option<ThreadOutcome>)
    where
        P: ProcessBehavior<Msg = M>,
    {
        let mut steps = Steps { out: Outbox::new(), sent: 0 };
        proc.on_start(&mut steps.out);
        let done = steps.flush(proc, send);
        (steps, done)
    }

    /// Offers the head message of the incoming link and flushes what the
    /// process sent in reaction; `Some` once the process is finished. An
    /// ignored head message wedges the process for good.
    pub fn deliver<P>(
        &mut self,
        proc: &mut P,
        msg: &M,
        send: impl FnMut(M) -> Result<(), SendFault>,
    ) -> Option<ThreadOutcome>
    where
        P: ProcessBehavior<Msg = M>,
    {
        match proc.on_msg(msg, &mut self.out) {
            Reaction::Consumed => self.flush(proc, send),
            Reaction::Ignored => Some(ThreadOutcome::Wedged),
        }
    }

    /// Logical messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn flush<P>(
        &mut self,
        proc: &P,
        mut send: impl FnMut(M) -> Result<(), SendFault>,
    ) -> Option<ThreadOutcome>
    where
        P: ProcessBehavior<Msg = M>,
    {
        let msgs = std::mem::take(&mut self.out).into_msgs();
        let count = msgs.len() as u64;
        if msgs.into_iter().try_for_each(&mut send).is_err() {
            return Some(ThreadOutcome::Stalled);
        }
        self.sent += count;
        proc.election().halted.then_some(ThreadOutcome::Halted)
    }
}

/// Index of the unique leader among a run's final states, if there is
/// exactly one.
pub fn unique_leader(elections: &[ElectionState]) -> Option<usize> {
    let mut leaders = elections.iter().enumerate().filter(|(_, e)| e.is_leader).map(|(i, _)| i);
    match (leaders.next(), leaders.next()) {
        (Some(i), None) => Some(i),
        _ => None,
    }
}

/// Whether every process halted and the final states satisfy the
/// leader-election specification's end conditions.
pub fn clean_run(elections: &[ElectionState], outcomes: &[ThreadOutcome]) -> bool {
    let Some(l) = unique_leader(elections) else { return false };
    let lid = elections[l].leader;
    outcomes.iter().all(|o| *o == ThreadOutcome::Halted)
        && lid.is_some()
        && elections.iter().all(|e| e.done && e.halted && e.leader == lid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_sim::{ElectionState, Outbox};
    use std::collections::VecDeque;

    /// A process that echoes `n` messages then halts.
    struct Echo {
        remaining: u32,
        st: ElectionState,
    }

    impl ProcessBehavior for Echo {
        type Msg = u32;
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            out.send(0);
        }
        fn on_msg(&mut self, msg: &u32, out: &mut Outbox<u32>) -> Reaction {
            if *msg == 999 {
                return Reaction::Ignored;
            }
            self.remaining -= 1;
            if self.remaining == 0 {
                self.st.halted = true;
                self.st.done = true;
            } else {
                out.send(msg + 1);
            }
            Reaction::Consumed
        }
        fn election(&self) -> ElectionState {
            self.st
        }
        fn space_bits(&self, _b: u32) -> u64 {
            32
        }
    }

    /// Steps `proc` over a loopback link holding `queued` first: what is
    /// sent is received back, FIFO.
    fn loopback(proc: &mut Echo, queued: &[u32]) -> (ThreadOutcome, u64) {
        let mut q: VecDeque<u32> = queued.iter().copied().collect();
        let (mut steps, mut done) = Steps::start(proc, |m| {
            q.push_back(m);
            Ok(())
        });
        while done.is_none() {
            let msg = q.pop_front().expect("the loop never runs dry");
            done = steps.deliver(proc, &msg, |m| {
                q.push_back(m);
                Ok(())
            });
        }
        (done.expect("finished"), steps.sent())
    }

    #[test]
    fn steps_to_halt_and_counts_sends() {
        let mut proc = Echo { remaining: 5, st: ElectionState::INITIAL };
        // initial send + 4 echoes (the 5th reception halts without sending)
        assert_eq!(loopback(&mut proc, &[]), (ThreadOutcome::Halted, 5));
    }

    #[test]
    fn wedges_on_unmatched_guard() {
        let mut proc = Echo { remaining: 100, st: ElectionState::INITIAL };
        assert_eq!(loopback(&mut proc, &[999]).0, ThreadOutcome::Wedged);
    }

    #[test]
    fn a_refused_batch_is_not_counted() {
        let mut proc = Echo { remaining: 3, st: ElectionState::INITIAL };
        let (steps, done) = Steps::start(&mut proc, |_| Err(SendFault));
        assert_eq!((done, steps.sent()), (Some(ThreadOutcome::Stalled), 0));
    }
}
