//! Shared helpers for exercising a live control plane — used by the
//! crate's integration tests, experiment E23, the churn bench, and the
//! CI rolling-restart smoke. Nothing here is test-only in the `cfg`
//! sense: chaos harnesses in other crates link it directly.

use crate::machine::ClusterTopology;
use crate::node::CtrlHandle;
use std::time::{Duration, Instant};

/// Polls `f` every `poll` until it returns `Some` or `timeout` passes.
pub fn wait_until<T>(
    timeout: Duration,
    poll: Duration,
    mut f: impl FnMut() -> Option<T>,
) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = f() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(poll);
    }
}

/// The config every handle agrees on, if they all have one and they are
/// identical (same epoch, same coordinator, same backend list).
pub fn agreed_config(handles: &[&CtrlHandle]) -> Option<ClusterTopology> {
    let mut configs = handles.iter().map(|h| h.config());
    let first = configs.next()??;
    for c in configs {
        if c.as_ref() != Some(&first) {
            return None;
        }
    }
    Some(first)
}

/// Blocks until every handle holds the same config with exactly
/// `want_backends` backends; returns it, or an error naming what state
/// the cluster was stuck in.
pub fn wait_for_agreement(
    handles: &[&CtrlHandle],
    want_backends: usize,
    timeout: Duration,
) -> Result<ClusterTopology, String> {
    wait_until(timeout, Duration::from_millis(20), || {
        agreed_config(handles).filter(|c| c.backends.len() == want_backends)
    })
    .ok_or_else(|| {
        let states: Vec<String> = handles
            .iter()
            .map(|h| {
                format!(
                    "id={} epoch={} config={:?}",
                    h.member_id(),
                    h.epoch(),
                    h.config().map(|c| (c.epoch, c.coordinator, c.backends.len()))
                )
            })
            .collect();
        format!("no agreement on a {want_backends}-backend config within {timeout:?}: {states:?}")
    })
}
