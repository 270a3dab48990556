//! A control-plane round runs on the node's endpoint reactor: ten `Ak`
//! rounds between three live nodes add no thread at any moment. Its own
//! test binary, so no test running in parallel can move this process's
//! thread count.

use hre_ctrl::testbed::{agreed_config, wait_for_agreement, wait_until};
use hre_ctrl::{CtrlConfig, CtrlHandle};
use hre_svc::json::Json;
use hre_svc::Client;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(2);

/// This process's thread count, from procfs.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

fn post(to: &CtrlHandle, path: &str, body: &str) -> Json {
    let resp = Client::connect(&to.addr.to_string(), TIMEOUT)
        .and_then(|mut c| c.post_json(path, body))
        .expect("the node answers");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body_text());
    Json::parse(&resp.body_text()).expect("a JSON answer")
}

#[test]
fn ten_rounds_add_no_threads() {
    let start = |seeds: Vec<String>, port: u16| {
        let cfg =
            CtrlConfig { serve_addr: format!("127.0.0.1:{port}"), seeds, ..Default::default() };
        hre_ctrl::start(cfg).expect("start")
    };
    let a = start(Vec::new(), 1);
    let seed = vec![a.addr.to_string()];
    let nodes = [a, start(seed.clone(), 2), start(seed, 3)];
    let all: Vec<&CtrlHandle> = nodes.iter().collect();
    wait_for_agreement(&all, 3, Duration::from_secs(20)).expect("the cluster settles");
    let before = threads();
    let mut most = before;

    // Each round is the one an initiator runs: every member prepares at
    // a fresh epoch, binding its election listener, then every member
    // commits and runs its `Ak` member; the elected coordinator pushes
    // the round's config to all.
    for _ in 0..10 {
        let plan = nodes[0].view().ring_plan().expect("three live backends");
        let epoch = nodes.iter().map(CtrlHandle::epoch).max().unwrap() + 1;
        let member = |id| nodes.iter().find(|n| n.member_id() == id).expect("a plan member");
        let prepare = format!("{{\"epoch\":{epoch},\"plan\":{}}}", plan.to_json());
        let addrs: Vec<String> = plan
            .order
            .iter()
            .map(|id| {
                let answer = post(member(*id), "/ctrl/prepare", &prepare);
                format!("{:?}", answer.get("election_addr").and_then(Json::as_str).unwrap())
            })
            .collect();
        let commit = format!("{{\"epoch\":{epoch},\"addrs\":[{}]}}", addrs.join(","));
        for id in &plan.order {
            post(member(*id), "/ctrl/commit", &commit);
        }
        let elected = wait_until(Duration::from_secs(20), Duration::from_millis(1), || {
            most = most.max(threads());
            agreed_config(&all).filter(|c| c.epoch == epoch)
        })
        .expect("the round's config reaches every member");
        assert_eq!(elected.coordinator, plan.expected_coordinator());
    }
    assert_eq!(most, before, "a round added threads");
    assert_eq!(threads(), before);
    nodes.into_iter().for_each(CtrlHandle::shutdown);
}
