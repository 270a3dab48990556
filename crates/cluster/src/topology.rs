//! The router's swappable view of its backend set.
//!
//! Until PR 6 the backend list was fixed at startup: the hash ring, the
//! connection pools, the breakers, and the per-backend metrics were all
//! parallel vectors indexed by configuration order, immutable for the
//! router's lifetime. The control plane changes that — the elected
//! coordinator pushes a new backend list whenever membership changes —
//! so everything index-addressed now lives inside one immutable
//! [`Topology`] snapshot behind an `RwLock<Arc<..>>`.
//!
//! The request path grabs **one** `Arc` clone up front and uses it for
//! the whole request: candidate selection, attempt spawning, breaker
//! bookkeeping, and latency recording all see the same consistent
//! generation, even if a config push swaps the topology mid-request.
//! In-flight attempts against a removed backend finish against the old
//! snapshot and are dropped with it.
//!
//! Slots are **reused by address** across swaps: a backend present in
//! both the old and new topology keeps its [`Breaker`] state, its warm
//! idle streams, and its cumulative counters — a reconfiguration must
//! not amnesty a tripped breaker or cold-start every pool. A removed
//! backend's idle streams are dropped so its keep-alive sockets close
//! promptly.
//!
//! Each topology carries the control-plane **epoch** that produced it;
//! [`crate::Shared::update_backends`] refuses pushes whose epoch is below
//! the current one, or that name other backends at the current one,
//! which is how a deposed coordinator's stale configuration is fenced
//! off.

use crate::hash::HashRing;
use crate::health::Breaker;
use crate::metrics::BackendMetrics;
use crate::router::ClusterConfig;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Idle keep-alive streams retained per backend. More than the worker
/// count of a default `hre-svc` backend buys nothing.
pub const DEFAULT_POOL_CAP: usize = 8;

/// Everything the router tracks for one backend: the dial target, its
/// idle keep-alive streams, its circuit breaker, and its counters.
/// Shared (via `Arc`) between consecutive topology generations that
/// both contain the backend.
pub struct BackendSlot {
    addr: String,
    /// Idle keep-alive streams to this backend, at most `pool_cap`. The
    /// reactor takes a stream for an attempt and returns it after a
    /// clean exchange; the control plane and the prober clear the pool,
    /// which closes the sockets.
    idle: Mutex<Vec<TcpStream>>,
    pool_cap: usize,
    /// The backend's circuit breaker (state survives reconfiguration).
    pub breaker: Breaker,
    /// Cumulative per-backend counters and attempt latency.
    pub metrics: BackendMetrics,
}

impl BackendSlot {
    /// A fresh slot for `addr` with the router's pool/breaker knobs.
    pub fn new(addr: &str, cfg: &ClusterConfig) -> BackendSlot {
        BackendSlot {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
            pool_cap: cfg.pool_cap.max(1),
            breaker: Breaker::new(cfg.failure_threshold, cfg.probe_start, cfg.probe_cap),
            metrics: BackendMetrics::default(),
        }
    }

    /// The backend address this slot dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The idle pool. Every update leaves the `Vec` valid, so a panic
    /// elsewhere while it was held poisons nothing worth refusing.
    fn idle(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An idle keep-alive stream, if one is pooled.
    pub fn take_idle(&self) -> Option<TcpStream> {
        self.idle().pop()
    }

    /// Pools a stream after a clean request/response exchange (a stream
    /// that saw any transport error must be dropped instead). Over the
    /// cap the stream is dropped, which closes it.
    pub fn put_idle(&self, stream: TcpStream) {
        let mut idle = self.idle();
        if idle.len() < self.pool_cap {
            idle.push(stream);
        }
    }

    /// Drops every idle stream, closing it: after a transport failure, a
    /// breaker trip, or the backend's removal, so nothing reuses a
    /// stream to a dead or departed member.
    pub fn clear_idle(&self) {
        self.idle().clear();
    }

    /// Number of idle streams currently pooled.
    pub fn idle_len(&self) -> usize {
        self.idle().len()
    }

    /// When to hedge a request sitting on this backend: twice its
    /// observed p95 (interpolated within the covering log₂ bucket),
    /// floored at `hedge_min` so a cold or very fast backend is not
    /// hedged on noise.
    pub fn hedge_threshold(&self, hedge_min: std::time::Duration) -> std::time::Duration {
        let snap = self.metrics.latency.snapshot();
        let p95_us = snap.quantile_us(0.95);
        hedge_min.max(std::time::Duration::from_micros(p95_us.saturating_mul(2)))
    }
}

/// One immutable generation of the router's backend set: the hash ring
/// and the slots it indexes, stamped with the epoch that produced it.
pub struct Topology {
    /// Control-plane epoch of the config push that built this topology
    /// (0 for a static configuration).
    pub epoch: u64,
    /// Consistent-hash ring over `slots` (same indices).
    pub ring: HashRing,
    /// Backend slots in ring-index order.
    pub slots: Vec<Arc<BackendSlot>>,
}

impl Topology {
    /// The initial topology from a static backend list.
    pub fn initial(cfg: &ClusterConfig) -> Topology {
        Topology {
            epoch: 0,
            ring: HashRing::new(&cfg.backends, cfg.vnodes),
            slots: cfg.backends.iter().map(|b| Arc::new(BackendSlot::new(b, cfg))).collect(),
        }
    }

    /// The successor topology for a new backend list: slots for
    /// addresses already present are carried over (breaker state, warm
    /// pool, counters intact), new addresses get fresh slots, and the
    /// idle streams of dropped addresses are closed.
    pub fn successor(&self, epoch: u64, backends: &[String], cfg: &ClusterConfig) -> Topology {
        let slots: Vec<Arc<BackendSlot>> = backends
            .iter()
            .map(|addr| {
                self.slots
                    .iter()
                    .find(|s| s.addr() == addr)
                    .cloned()
                    .unwrap_or_else(|| Arc::new(BackendSlot::new(addr, cfg)))
            })
            .collect();
        for old in &self.slots {
            if !backends.iter().any(|a| a == old.addr()) {
                old.clear_idle();
            }
        }
        Topology { epoch, ring: HashRing::new(backends, cfg.vnodes), slots }
    }

    /// Number of backends in this generation.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether this generation has no backends at all (a dynamic router
    /// waiting for its first config push).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot that owns `addr`, if present in this generation.
    pub fn slot_for(&self, addr: &str) -> Option<&Arc<BackendSlot>> {
        self.slots.iter().find(|s| s.addr() == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(backends: &[&str]) -> ClusterConfig {
        ClusterConfig {
            backends: backends.iter().map(|s| s.to_string()).collect(),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn successor_reuses_slots_by_address() {
        let c = cfg(&["127.0.0.1:1001", "127.0.0.1:1002"]);
        let t0 = Topology::initial(&c);
        // Trip 1001's breaker so carried-over state is observable.
        for _ in 0..3 {
            t0.slots[0].breaker.record_failure();
        }
        assert_eq!(t0.slots[0].breaker.opened_total(), 1);

        let next =
            vec!["127.0.0.1:1002".to_string(), "127.0.0.1:1001".into(), "127.0.0.1:1003".into()];
        let t1 = t0.successor(7, &next, &c);
        assert_eq!(t1.epoch, 7);
        assert_eq!(t1.len(), 3);
        // 1001 moved position but kept its identity — breaker state and
        // all — while 1003 is a fresh slot.
        assert!(Arc::ptr_eq(t1.slot_for("127.0.0.1:1001").unwrap(), &t0.slots[0]));
        assert!(Arc::ptr_eq(t1.slot_for("127.0.0.1:1002").unwrap(), &t0.slots[1]));
        assert_eq!(t1.slot_for("127.0.0.1:1001").unwrap().breaker.opened_total(), 1);
        assert_eq!(t1.slot_for("127.0.0.1:1003").unwrap().breaker.opened_total(), 0);
    }

    /// `n` connected client streams to a throwaway listener.
    fn streams(n: usize) -> (std::net::TcpListener, Vec<TcpStream>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let streams = (0..n).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        (listener, streams)
    }

    #[test]
    fn idle_pool_respects_the_cap() {
        let slot = BackendSlot::new("127.0.0.1:1001", &ClusterConfig { pool_cap: 2, ..cfg(&[]) });
        let (_listener, streams) = streams(3);
        for s in streams {
            slot.put_idle(s);
        }
        assert_eq!(slot.idle_len(), 2, "the stream over the cap is dropped");
        assert!(slot.take_idle().is_some());
        assert_eq!(slot.idle_len(), 1);
        slot.clear_idle();
        assert_eq!((slot.idle_len(), slot.take_idle().is_none()), (0, true));
    }

    #[test]
    fn successor_clears_dropped_pools() {
        let c = cfg(&["127.0.0.1:1001", "127.0.0.1:1002"]);
        let t0 = Topology::initial(&c);
        let (_listener, streams) = streams(2);
        for (slot, s) in t0.slots.iter().zip(streams) {
            slot.put_idle(s);
        }
        let keep = vec!["127.0.0.1:1002".to_string()];
        let t1 = t0.successor(1, &keep, &c);
        assert!(t1.slot_for("127.0.0.1:1001").is_none());
        assert_eq!(t0.slots[0].idle_len(), 0, "dropped pool emptied");
        assert_eq!(t1.slots[0].idle_len(), 1, "kept pool stays warm");
    }
}
