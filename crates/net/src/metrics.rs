//! Transport-level metrics: what the wire actually did.
//!
//! The simulator's [`hre_sim::RunMetrics`] counts *logical* messages —
//! the quantity the paper bounds. This module counts the physical cost
//! of recovering the paper's link assumptions over a faulty wire:
//! frames (including retransmissions and duplicates), bytes, reconnects,
//! and round-trip times. Comparing the two layers is the point of the
//! `exp_net` experiment.
//!
//! All counters are lock-free atomics, so the two nodes that share a
//! link's ledger — the sender's egress and the receiver's ingress, each
//! on its own thread — never contend; the RTT histogram is the shared
//! [`hre_runtime::Log2Histogram`] (power-of-two microsecond buckets),
//! the same type the election service uses for request latency.
//!
//! Naming-audit note: nothing in this module is exported in Prometheus
//! text form — these are in-process counters consumed by `exp_net` and
//! the CLI. If any series here ever gains a `/metrics` exposition, it
//! must follow the workspace conventions established in `hre-svc` and
//! `hre-cluster`: `hre_net_` prefix, `_total` counter suffix, and base
//! units with a unit suffix (`_seconds`, `_bytes`).

use hre_runtime::{HistSnapshot, Log2Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ RTT buckets (re-exported from the shared histogram).
pub const RTT_BUCKETS: usize = hre_runtime::LOG2_BUCKETS;

/// Live counters for one directed link (writer side and reader side
/// update disjoint fields).
#[derive(Debug, Default)]
pub struct LinkMetrics {
    /// DATA frames written to the socket (first transmissions only).
    pub frames_sent: AtomicU64,
    /// DATA frame transmission attempts beyond the first for a sequence
    /// number — the retransmission/recovery traffic.
    pub frames_retried: AtomicU64,
    /// Bytes actually written to the socket, frames and acks alike.
    pub bytes_on_wire: AtomicU64,
    /// Successful (re)connections beyond the first.
    pub reconnects: AtomicU64,
    /// ACK frames written by the receiver.
    pub acks_sent: AtomicU64,
    /// DATA frames the receiver recognized as duplicates and dropped.
    pub dup_frames_rx: AtomicU64,
    /// Frames rejected for a bad checksum or unknown kind.
    pub frames_rejected: AtomicU64,
    /// Fault-injector actions other than `Deliver`.
    pub faults_injected: AtomicU64,
    rtt: Log2Histogram,
}

impl LinkMetrics {
    /// Records one clean (never-retransmitted) round-trip sample,
    /// following Karn's rule: ambiguous samples from retransmitted
    /// frames are excluded.
    pub fn record_rtt(&self, rtt: Duration) {
        self.rtt.record(rtt);
    }

    fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_retried: self.frames_retried.load(Ordering::Relaxed),
            bytes_on_wire: self.bytes_on_wire.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            acks_sent: self.acks_sent.load(Ordering::Relaxed),
            dup_frames_rx: self.dup_frames_rx.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            rtt: self.rtt.snapshot(),
        }
    }
}

/// Frozen counters of one link at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct LinkSnapshot {
    /// See [`LinkMetrics::frames_sent`].
    pub frames_sent: u64,
    /// See [`LinkMetrics::frames_retried`].
    pub frames_retried: u64,
    /// See [`LinkMetrics::bytes_on_wire`].
    pub bytes_on_wire: u64,
    /// See [`LinkMetrics::reconnects`].
    pub reconnects: u64,
    /// See [`LinkMetrics::acks_sent`].
    pub acks_sent: u64,
    /// See [`LinkMetrics::dup_frames_rx`].
    pub dup_frames_rx: u64,
    /// See [`LinkMetrics::frames_rejected`].
    pub frames_rejected: u64,
    /// See [`LinkMetrics::faults_injected`].
    pub faults_injected: u64,
    /// Clean RTT samples (Karn's rule: retransmitted frames contribute
    /// none), as a frozen log₂-µs histogram.
    pub rtt: HistSnapshot,
}

impl LinkSnapshot {
    /// Mean RTT over clean samples, if any were taken.
    pub fn rtt_mean(&self) -> Option<Duration> {
        self.rtt.mean()
    }

    fn add(&mut self, other: &LinkSnapshot) {
        self.frames_sent += other.frames_sent;
        self.frames_retried += other.frames_retried;
        self.bytes_on_wire += other.bytes_on_wire;
        self.reconnects += other.reconnects;
        self.acks_sent += other.acks_sent;
        self.dup_frames_rx += other.dup_frames_rx;
        self.frames_rejected += other.frames_rejected;
        self.faults_injected += other.faults_injected;
        self.rtt.add(&other.rtt);
    }
}

/// All transport metrics of one run: per-link and aggregated.
#[derive(Clone, Debug, Default)]
pub struct NetSnapshot {
    /// Link `i` carries messages from process `i` to process `i+1 mod n`.
    pub links: Vec<LinkSnapshot>,
    /// Sum over all links.
    pub total: LinkSnapshot,
}

impl NetSnapshot {
    /// Freezes the live per-link metrics.
    pub fn collect(links: &[std::sync::Arc<LinkMetrics>]) -> NetSnapshot {
        let links: Vec<LinkSnapshot> = links.iter().map(|l| l.snapshot()).collect();
        let mut total = LinkSnapshot::default();
        for l in &links {
            total.add(l);
        }
        NetSnapshot { links, total }
    }

    /// Compact human-readable RTT histogram of the aggregate, listing
    /// only occupied buckets.
    pub fn rtt_histogram_pretty(&self) -> String {
        if self.total.rtt.count == 0 {
            return "    (no clean samples)\n".into();
        }
        self.total.rtt.pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rtt_lands_in_log2_bucket() {
        let m = LinkMetrics::default();
        m.record_rtt(Duration::from_micros(5)); // bucket 2: [4, 8)
        m.record_rtt(Duration::from_micros(1000)); // bucket 9: [512, 1024)
        let s = m.snapshot();
        assert_eq!(s.rtt.buckets[2], 1);
        assert_eq!(s.rtt.buckets[9], 1);
        assert_eq!(s.rtt.count, 2);
        assert_eq!(s.rtt_mean(), Some(Duration::from_micros(502)));
    }

    #[test]
    fn totals_sum_links() {
        let a = Arc::new(LinkMetrics::default());
        let b = Arc::new(LinkMetrics::default());
        a.frames_sent.fetch_add(3, Ordering::Relaxed);
        b.frames_sent.fetch_add(4, Ordering::Relaxed);
        b.reconnects.fetch_add(1, Ordering::Relaxed);
        a.record_rtt(Duration::from_micros(10));
        b.record_rtt(Duration::from_micros(20));
        let snap = NetSnapshot::collect(&[a, b]);
        assert_eq!(snap.total.frames_sent, 7);
        assert_eq!(snap.total.reconnects, 1);
        assert_eq!(snap.links[0].frames_sent, 3);
        assert_eq!(snap.total.rtt.count, 2);
        assert!(snap.rtt_histogram_pretty().contains("µs"));
    }
}
