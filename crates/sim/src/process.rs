//! Process behaviors: the guarded-action programming interface.
//!
//! A distributed algorithm is, per the paper, a collection of identical
//! local algorithms differing only in the label. Here an [`Algorithm`] is a
//! factory that, given a label, spawns one [`ProcessBehavior`].
//!
//! The message-blocking `rcv` of the model maps onto [`ProcessBehavior::on_msg`]:
//! the engine presents the **head** message of the incoming link; the
//! process either fires an enabled action ([`Reaction::Consumed`], the
//! message is removed) or has no enabled action matching it
//! ([`Reaction::Ignored`], the message stays at the head and the process is
//! disabled — permanently, since its state can only change by receiving).

use hre_words::Label;
use std::fmt::Debug;

/// What a process did with the head message offered to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reaction {
    /// An action whose guard matched fired; the message is removed from the
    /// link (each message is received exactly once).
    Consumed,
    /// No enabled action matches the head message. The message stays; the
    /// process is disabled (and, the head being immutable, deadlocked).
    Ignored,
}

/// The three specification variables every process must expose
/// (Section II, "Leader Election"), plus the local-termination flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectionState {
    /// `p.isLeader` — initially `FALSE`, irrevocable once `TRUE`.
    pub is_leader: bool,
    /// `p.leader` — must equal the elected leader's label at termination.
    /// `None` encodes "not yet assigned".
    pub leader: Option<Label>,
    /// `p.done` — `TRUE` once `p` knows the leader has been elected;
    /// irrevocable.
    pub done: bool,
    /// Whether `p` has executed its halting statement (local termination).
    pub halted: bool,
}

impl ElectionState {
    /// The initial state required by the specification.
    pub const INITIAL: ElectionState =
        ElectionState { is_leader: false, leader: None, done: false, halted: false };
}

/// Buffer of messages a single action sends to the right neighbor.
///
/// The model's `send m` appends `m` at the tail of the outgoing link; an
/// atomic action may send several messages.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<M>,
}

impl<M> Outbox<M> {
    /// An empty outbox (engine-internal, but public for tests and custom
    /// runtimes).
    pub fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// `send m` — appended to the tail of the link to the right neighbor.
    pub fn send(&mut self, msg: M) {
        self.msgs.push(msg);
    }

    /// Number of messages queued in this action.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the action sent nothing.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Drains the buffered messages (engine-internal).
    pub fn into_msgs(self) -> Vec<M> {
        self.msgs
    }

    /// Drains the buffered messages in place, keeping the allocation — the
    /// engine lends one outbox to every action and reuses its buffer, so
    /// steady-state sends don't allocate.
    pub(crate) fn drain_msgs(&mut self) -> std::vec::Drain<'_, M> {
        self.msgs.drain(..)
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// One process's local algorithm.
pub trait ProcessBehavior {
    /// The message datatype exchanged on the ring.
    type Msg: Clone + Debug;

    /// The unique action triggerable without a message reception, executed
    /// first in every execution (e.g. `Ak`'s action A1, `Bk`'s B1).
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Offered the head message of the incoming link; fire the enabled
    /// action whose `rcv` pattern matches, or report [`Reaction::Ignored`].
    ///
    /// Must not be called after the process halted (the engine guarantees
    /// this; implementations may debug-assert it).
    fn on_msg(&mut self, msg: &Self::Msg, out: &mut Outbox<Self::Msg>) -> Reaction;

    /// Current values of the specification variables.
    fn election(&self) -> ElectionState;

    /// Live storage of the process in bits, given `b` = bits per label —
    /// using the paper's own accounting for the respective algorithm.
    fn space_bits(&self, label_bits: u32) -> u64;

    /// Wire size of one message in bits, given `b` = bits per label. The
    /// default charges a label plus a two-bit tag; algorithms with other
    /// message shapes override it. Used for the bit-complexity metric.
    fn msg_wire_bits(&self, msg: &Self::Msg, label_bits: u32) -> u64 {
        let _ = msg;
        label_bits as u64 + 2
    }
}

/// A distributed algorithm: a label-indexed family of identical local
/// algorithms (plus the constants — such as `k` — baked into the factory).
pub trait Algorithm {
    /// Process type this algorithm spawns.
    type Proc: ProcessBehavior;

    /// Human-readable name for reports ("Ak", "Bk", "ChangRoberts", …).
    fn name(&self) -> String;

    /// Builds the local algorithm of a process labeled `label`.
    fn spawn(&self, label: Label) -> Self::Proc;

    /// Builds the local algorithms of every process of `ring`, in ring
    /// order.
    ///
    /// Semantically identical to `spawn(ring.label(i))` for each `i` — a
    /// process still knows nothing beyond its own label — but building
    /// the whole ring at once lets an implementation share per-ring
    /// tables and the ring's label storage between its processes (`Ak`
    /// represents each growing `string` as a window into the shared
    /// labeling, with label counts indexed by a rank table computed once
    /// per ring). The default spawns each process from its label.
    fn spawn_ring(&self, ring: &hre_ring::RingLabeling) -> Vec<Self::Proc> {
        ring.labels().iter().map(|&label| self.spawn(label)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_in_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(1u32);
        out.send(2);
        out.send(3);
        assert_eq!(out.len(), 3);
        assert_eq!(out.into_msgs(), vec![1, 2, 3]);
    }

    #[test]
    fn initial_election_state() {
        let s = ElectionState::INITIAL;
        assert!(!s.is_leader && !s.done && !s.halted);
        assert_eq!(s.leader, None);
    }
}
