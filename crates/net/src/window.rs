//! The sender's retransmission window as a pure state machine.
//!
//! The *timing logic* — which frames are due, when a resend fires,
//! which ACKs yield clean RTT samples — is a function of an explicit
//! `now` instead of ambient wall-clock reads. The sans-IO ring member
//! ([`crate::RingMember`]) runs it toward its successor, fed the wall
//! clock by the socket shell and virtual time by the deterministic
//! simulator; the explicit `now` is also what lets its unit tests step
//! the same code through chosen instants.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One unacknowledged DATA frame in the window.
struct WindowEntry {
    bytes: Vec<u8>,
    attempts: u32,
    first_tx: Option<Instant>,
    next_due: Instant,
}

/// The sender side of one reliable link: sequence allocation, the
/// unacknowledged window, per-frame retransmit deadlines, and
/// cumulative-ACK reaping. Every method takes `now` explicitly.
pub struct RetransmitWindow {
    window: BTreeMap<u64, WindowEntry>,
    next_seq: u64,
    rto: Duration,
}

impl RetransmitWindow {
    /// An empty window resending unacked frames every `rto`.
    pub fn new(rto: Duration) -> RetransmitWindow {
        RetransmitWindow { window: BTreeMap::new(), next_seq: 0, rto }
    }

    /// The sequence number the next [`RetransmitWindow::insert`] must
    /// use (frames carry their seq inside the encoded bytes, so the
    /// caller encodes first).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Admits the encoded frame for `seq` (which must be
    /// [`RetransmitWindow::next_seq`]), due for its first transmission
    /// immediately.
    pub fn insert(&mut self, seq: u64, bytes: Vec<u8>, now: Instant) {
        debug_assert_eq!(seq, self.next_seq, "frames are admitted in sequence order");
        self.next_seq = seq + 1;
        self.window.insert(seq, WindowEntry { bytes, attempts: 0, first_tx: None, next_due: now });
    }

    /// Whether every admitted frame has been acknowledged.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Unacknowledged frames.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Sequence numbers whose (re)send deadline has passed at `now`.
    pub fn due(&self, now: Instant) -> Vec<u64> {
        self.window.iter().filter(|(_, e)| e.next_due <= now).map(|(s, _)| *s).collect()
    }

    /// The earliest pending (re)send deadline, for schedulers that wait
    /// for it instead of polling.
    pub fn next_due_at(&self) -> Option<Instant> {
        self.window.values().map(|e| e.next_due).min()
    }

    /// Marks `seq` as transmitted at `now`: bumps the attempt counter,
    /// stamps the first-transmission time, and arms the retransmit
    /// deadline. Returns `(bytes, attempts)` — attempts of 1 means this
    /// is the first send (count it as sent, not retried).
    pub fn begin_send(&mut self, seq: u64, now: Instant) -> Option<(Vec<u8>, u32)> {
        let e = self.window.get_mut(&seq)?;
        e.attempts += 1;
        if e.attempts == 1 {
            e.first_tx = Some(now);
        }
        e.next_due = now + self.rto;
        Some((e.bytes.clone(), e.attempts))
    }

    /// Re-arms `seq` to resend immediately (connection reset replay).
    pub fn force_due(&mut self, seq: u64, now: Instant) {
        if let Some(e) = self.window.get_mut(&seq) {
            e.next_due = now;
        }
    }

    /// Everything unacked replays immediately — a fresh connection.
    pub fn replay_all(&mut self, now: Instant) {
        for e in self.window.values_mut() {
            e.next_due = now;
        }
    }

    /// Applies a cumulative ACK covering every seq `< cum` at `now`.
    /// Returns the RTT samples from frames acknowledged on their first
    /// transmission attempt (retransmitted frames are ambiguous — Karn's
    /// rule — and yield none).
    pub fn ack(&mut self, cum: u64, now: Instant) -> Vec<Duration> {
        let acked: Vec<u64> = self.window.range(..cum).map(|(s, _)| *s).collect();
        let mut rtts = Vec::new();
        for s in acked {
            let e = self.window.remove(&s).expect("acked seq in window");
            if e.attempts == 1 {
                if let Some(t0) = e.first_tx {
                    rtts.push(now.duration_since(t0));
                }
            }
        }
        rtts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTO: Duration = Duration::from_millis(25);

    #[test]
    fn frames_become_due_then_rearm_on_send() {
        let mut w = RetransmitWindow::new(RTO);
        let t0 = Instant::now();
        let seq = w.next_seq();
        w.insert(seq, vec![1, 2, 3], t0);
        assert_eq!(w.due(t0), vec![0], "first send due immediately");
        let (bytes, attempts) = w.begin_send(0, t0).expect("in window");
        assert_eq!((bytes.as_slice(), attempts), (&[1u8, 2, 3][..], 1));
        assert!(w.due(t0).is_empty(), "armed for retransmit, not due yet");
        assert_eq!(w.next_due_at(), Some(t0 + RTO));
        assert_eq!(w.due(t0 + RTO), vec![0], "retransmit due after RTO");
        let (_, attempts) = w.begin_send(0, t0 + RTO).expect("still unacked");
        assert_eq!(attempts, 2, "second attempt is a retry");
    }

    #[test]
    fn cumulative_ack_reaps_and_samples_first_attempt_rtt_only() {
        let mut w = RetransmitWindow::new(RTO);
        let t0 = Instant::now();
        for i in 0..3u8 {
            let seq = w.next_seq();
            w.insert(seq, vec![i], t0);
            w.begin_send(seq, t0);
        }
        // Frame 1 gets retransmitted: its RTT sample must be suppressed.
        w.begin_send(1, t0 + RTO);
        let rtts = w.ack(3, t0 + Duration::from_millis(40));
        assert_eq!(w.len(), 0);
        assert_eq!(rtts.len(), 2, "frames 0 and 2 sampled, retransmitted 1 skipped");
        assert!(rtts.iter().all(|r| *r == Duration::from_millis(40)));
    }

    #[test]
    fn replay_all_rearms_everything_for_a_fresh_connection() {
        let mut w = RetransmitWindow::new(RTO);
        let t0 = Instant::now();
        for i in 0..2u8 {
            let seq = w.next_seq();
            w.insert(seq, vec![i], t0);
            w.begin_send(seq, t0);
        }
        assert!(w.due(t0).is_empty());
        w.replay_all(t0);
        assert_eq!(w.due(t0), vec![0, 1]);
        w.begin_send(1, t0);
        w.force_due(1, t0 + Duration::from_millis(1));
        assert_eq!(w.due(t0 + Duration::from_millis(1)), vec![0, 1], "force_due re-arms");
    }

    #[test]
    fn partial_ack_keeps_the_tail() {
        let mut w = RetransmitWindow::new(RTO);
        let t0 = Instant::now();
        for i in 0..4u8 {
            let seq = w.next_seq();
            w.insert(seq, vec![i], t0);
            w.begin_send(seq, t0);
        }
        w.ack(2, t0 + Duration::from_millis(5));
        assert_eq!(w.len(), 2);
        assert_eq!(w.due(t0 + RTO), vec![2, 3]);
    }
}
