//! E23 — the self-hosting control plane: kill the coordinator under
//! E20-style load.
//!
//! Three `hre-svc` backends each run a control-plane node; a dynamic
//! router (started with **zero** static backends) runs an observer
//! node whose config callback is its only topology source. The
//! backends gossip a membership view, order it into a labeled
//! unidirectional ring, and elect a coordinator with the unmodified
//! `Ak` engine over real `hre-net` TCP links; the coordinator pushes
//! the epoch-stamped backend list to every member, which is what makes
//! the router routable at all.
//!
//! The chaos phase kills the *coordinator* — data plane and control
//! plane together, the worst single-node loss — mid-load, and gates on:
//!
//! 1. the survivors re-elect (real `Ak`, real TCP, higher epoch)
//!    within the latency budget;
//! 2. **zero client-visible request failures** across the kill;
//! 3. a config push stamped with the dead coordinator's epoch is
//!    rejected (`409`) by the members — fencing, not trust.

use hre_analysis::Table;
use hre_cluster::{start as start_router, ClusterConfig, RouterSummary};
use hre_ctrl::testbed::{agreed_config, wait_for_agreement, wait_until};
use hre_ctrl::{start as start_ctrl, ClusterTopology, CtrlConfig, CtrlHandle, Role};
use hre_svc::{
    run_load, salted_rings, start as start_svc, Client, LoadOptions, LoadReport, ServerHandle,
    SvcConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency budget for a full failover: detect the dead coordinator
/// (missed heartbeats), re-run `Ak` over TCP, and converge every
/// survivor on the new epoch's config. Debug builds on a loaded single
/// core stay well inside this.
pub const REELECTION_BUDGET: Duration = Duration::from_secs(10);

/// What the coordinator-kill run produced.
#[derive(Debug)]
pub struct ChurnOutcome {
    /// The client-side view of the load run across the kill.
    pub load: LoadReport,
    /// The router's drain-time counters.
    pub summary: RouterSummary,
    /// The epoch of the config the coordinator owned before dying.
    pub old_epoch: u64,
    /// The epoch the survivors re-elected at.
    pub new_epoch: u64,
    /// Kill-to-agreement latency: coordinator down to every survivor
    /// (and the router) holding the new config.
    pub reelection: Duration,
    /// HTTP status a stale-epoch config push received after failover.
    pub stale_status: u16,
}

/// One backend: a data-plane daemon plus its control-plane node.
struct Member {
    svc: ServerHandle,
    ctrl: CtrlHandle,
}

fn start_member(seeds: Vec<String>) -> Member {
    let svc = start_svc(SvcConfig {
        workers: 2,
        cache_cap: 64,
        deadline: Duration::from_secs(60),
        ..SvcConfig::default()
    })
    .expect("backend daemon");
    let ctrl = start_ctrl(CtrlConfig {
        role: Role::Backend,
        serve_addr: svc.addr.to_string(),
        seeds,
        ..CtrlConfig::default()
    })
    .expect("backend ctrl node");
    Member { svc, ctrl }
}

/// The full scenario: bootstrap a self-configuring cluster, load it,
/// kill the coordinator (svc + ctrl together), and measure the
/// re-election the survivors run.
pub fn coordinator_kill(w: usize, n: u64, requests: u64) -> ChurnOutcome {
    // --- three backends; the first seeds the other two.
    let first = start_member(Vec::new());
    let seeds = vec![first.ctrl.addr.to_string()];
    let mut members = vec![first, start_member(seeds.clone()), start_member(seeds.clone())];

    // --- a dynamic router: no static backends, config pushes only.
    let router = start_router(ClusterConfig {
        backends: Vec::new(),
        dynamic: true,
        hedge_min: Duration::from_secs(10),
        health_interval: Duration::from_millis(100),
        timeout: Duration::from_secs(60),
        deadline: Duration::from_secs(60),
        ..Default::default()
    })
    .expect("router");
    let ctl = router.controller();
    let on_config = {
        let ctl = ctl.clone();
        Arc::new(move |topo: &ClusterTopology| {
            let _ = ctl.update_backends(topo.epoch, &topo.backends);
        }) as hre_ctrl::ConfigCallback
    };
    let on_death = Arc::new(move |addr: &str| {
        ctl.trip_backend(addr);
    }) as hre_ctrl::DeathCallback;
    let router_ctrl = start_ctrl(CtrlConfig {
        role: Role::Router,
        serve_addr: router.addr.to_string(),
        seeds,
        recorder: Some(router.recorder()),
        on_config: Some(on_config),
        on_death: Some(on_death),
        ..CtrlConfig::default()
    })
    .expect("router ctrl node");

    // --- bootstrap: all four nodes agree, and the router has applied
    // the push (it had no other way to learn its backends).
    let handles: Vec<&CtrlHandle> = members.iter().map(|m| &m.ctrl).chain([&router_ctrl]).collect();
    let config =
        wait_for_agreement(&handles, 3, Duration::from_secs(20)).expect("bootstrap agreement");
    wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
        (router.backends().len() == 3).then_some(())
    })
    .expect("config push reached the router");
    let old_epoch = config.epoch;

    // --- load across the kill.
    let addr = router.addr.to_string();
    let bases = salted_rings(w, n).expect("valid rings");
    let opts =
        LoadOptions { connections: 4, requests, bases, rotate: true, ..LoadOptions::default() };
    let load = std::thread::spawn(move || run_load(&addr, &opts).expect("load run"));
    let armed = Instant::now();
    while router.requests_seen() < requests / 8 && armed.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_micros(200));
    }

    // --- kill the coordinator: data plane and control plane at once.
    let victim_idx = members
        .iter()
        .position(|m| m.ctrl.member_id() == config.coordinator)
        .expect("coordinator is one of ours");
    let victim = members.remove(victim_idx);
    let killed_at = Instant::now();
    victim.svc.shutdown();
    victim.ctrl.shutdown();

    // --- survivors re-elect at a higher epoch; the router applies it.
    let survivors: Vec<&CtrlHandle> =
        members.iter().map(|m| &m.ctrl).chain([&router_ctrl]).collect();
    let reconfig = wait_until(REELECTION_BUDGET, Duration::from_millis(10), || {
        let c = agreed_config(&survivors)?;
        (c.epoch > old_epoch && c.backends.len() == 2).then_some(c)
    })
    .expect("survivors re-elected within the budget");
    wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
        (router.epoch() == reconfig.epoch).then_some(())
    })
    .expect("re-elected config reached the router");
    let reelection = killed_at.elapsed();

    // --- fencing: replay the dead coordinator's config at its epoch.
    let stale = format!(
        "{{\"epoch\":{},\"coordinator\":{},\"backends\":[\"127.0.0.1:9\"]}}",
        old_epoch, config.coordinator
    );
    let stale_status = Client::connect(&members[0].ctrl.addr.to_string(), Duration::from_secs(2))
        .and_then(|mut c| c.post_json("/ctrl/config", &stale))
        .map(|r| r.status)
        .expect("stale push reaches a survivor");

    let load = load.join().expect("load thread");
    for m in members {
        m.ctrl.shutdown();
        m.svc.shutdown();
    }
    router_ctrl.shutdown();
    let summary = router.shutdown();
    ChurnOutcome { load, summary, old_epoch, new_epoch: reconfig.epoch, reelection, stale_status }
}

/// Runs the experiment and renders its report.
pub fn report() -> String {
    report_sized(24, 128, 320)
}

/// CI-sized variant: a smaller workload through the same scenario and
/// the same three gates.
pub fn report_quick() -> String {
    report_sized(8, 64, 160)
}

fn report_sized(w: usize, n: u64, requests: u64) -> String {
    let mut out = String::new();
    out.push_str(
        "### Coordinator kill under load: the cluster re-elects itself\n\n\
         Three backends + a dynamic router bootstrap through gossip; the\n\
         live backends form a labeled unidirectional ring and the real `Ak`\n\
         engine elects the coordinator over `hre-net` TCP links. The router\n\
         starts with zero static backends — every byte it routes is proof\n\
         the control plane configured it. Mid-load the coordinator is killed\n\
         (daemon and control node together); the survivors detect the death\n\
         by missed heartbeats, re-elect at a higher epoch, and re-push the\n\
         config. Clients must see nothing.\n\n",
    );

    let o = coordinator_kill(w, n, requests);
    let mut t = Table::new([
        "requests",
        "ok",
        "failed",
        "old epoch",
        "new epoch",
        "re-election ms",
        "stale push",
    ]);
    t.row([
        (o.load.ok + o.load.failed).to_string(),
        o.load.ok.to_string(),
        o.load.failed.to_string(),
        o.old_epoch.to_string(),
        o.new_epoch.to_string(),
        o.reelection.as_millis().to_string(),
        format!("HTTP {}", o.stale_status),
    ]);
    out.push_str(&t.render());

    assert_eq!(o.load.failed, 0, "the coordinator kill leaked to a client");
    assert!(o.new_epoch > o.old_epoch, "re-election must advance the epoch");
    assert!(
        o.reelection <= REELECTION_BUDGET,
        "re-election took {:?}, budget {:?}",
        o.reelection,
        REELECTION_BUDGET
    );
    assert_eq!(o.stale_status, 409, "a deposed coordinator's push must be fenced");
    out.push_str(&format!(
        "\nclient-visible failures: {} (threshold 0) | re-election: {} ms \
         (budget {} ms) | stale-epoch push: HTTP {} (must be 409)\n",
        o.load.failed,
        o.reelection.as_millis(),
        REELECTION_BUDGET.as_millis(),
        o.stale_status,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized coordinator kill: all three gates hold.
    #[test]
    fn coordinator_kill_reelects_within_budget_and_fences() {
        let o = coordinator_kill(8, 64, 192);
        assert_eq!(o.load.failed, 0, "{}", o.load.pretty());
        assert!(o.new_epoch > o.old_epoch, "epoch must advance: {o:?}");
        assert!(o.reelection <= REELECTION_BUDGET, "re-election {:?}", o.reelection);
        assert_eq!(o.stale_status, 409, "stale push must be rejected");
    }
}
