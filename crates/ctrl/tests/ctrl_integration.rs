//! Live control-plane integration: real processes' worth of ctrl nodes
//! (threads with real TCP listeners) bootstrap through a seed, gossip a
//! shared view, elect a coordinator with the unmodified `Ak` over TCP
//! links between their ring members, survive coordinator death with a
//! fenced re-election, and answer stale config pushes `409`.

use hre_ctrl::testbed::{wait_for_agreement, wait_until};
use hre_ctrl::{start, CtrlConfig, CtrlHandle, Role};
use hre_svc::Client;
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

fn node(role: Role, serve_port: u16, seeds: Vec<String>) -> CtrlHandle {
    start(CtrlConfig {
        role,
        serve_addr: format!("127.0.0.1:{serve_port}"),
        seeds,
        ..CtrlConfig::default()
    })
    .expect("start ctrl node")
}

#[test]
fn cluster_elects_survives_coordinator_death_and_fences_stale_pushes() {
    // --- bootstrap: one seed backend, two joiners, one router observer.
    let b1 = node(Role::Backend, 18101, Vec::new());
    let seed = vec![b1.addr.to_string()];
    let b2 = node(Role::Backend, 18102, seed.clone());
    let b3 = node(Role::Backend, 18103, seed.clone());
    let router = node(Role::Router, 18100, seed.clone());

    let config = wait_for_agreement(&[&b1, &b2, &b3, &router], 3, Duration::from_secs(20)).unwrap();

    // The elected coordinator is exactly the ring plan's Lyndon owner —
    // the real Ak run over TCP agreed with the local oracle.
    let plan = b1.view().ring_plan().expect("live backends form a ring plan");
    assert_eq!(config.coordinator, plan.expected_coordinator());
    assert!(plan.order.contains(&config.coordinator));

    // Exactly one backend believes it is the coordinator; the router is
    // an observer and never electable.
    let mut backends = vec![b1, b2, b3];
    let winners = backends.iter().filter(|h| h.is_coordinator()).count();
    assert_eq!(winners, 1, "exactly one self-declared coordinator");
    assert!(!router.is_coordinator(), "routers observe, never coordinate");
    assert_eq!(config.backends.len(), 3);
    for port in [18101u16, 18102, 18103] {
        assert!(config.backends.contains(&format!("127.0.0.1:{port}")));
    }

    // --- epoch fencing: a push at a long-dead epoch must be rejected.
    let follower = backends.iter().find(|h| !h.is_coordinator()).unwrap();
    let stale = format!(
        "{{\"epoch\":0,\"coordinator\":{},\"backends\":[\"127.0.0.1:9\"]}}",
        config.coordinator
    );
    let resp = Client::connect(&follower.addr.to_string(), CLIENT_TIMEOUT)
        .and_then(|mut c| c.post_json("/ctrl/config", &stale))
        .expect("stale push reaches the follower");
    assert_eq!(resp.status, 409, "stale epoch must be fenced: {}", resp.body_text());
    assert_eq!(
        follower.config().expect("config still present").epoch,
        config.epoch,
        "a fenced push must not disturb the accepted config"
    );

    // --- coordinator death: survivors re-elect at a strictly higher
    // epoch, and the new coordinator is one of them.
    let victim_idx = backends.iter().position(|h| h.is_coordinator()).unwrap();
    let victim = backends.remove(victim_idx);
    let victim_id = victim.member_id();
    victim.shutdown();

    let survivors: Vec<&CtrlHandle> = backends.iter().collect();
    let reconfig = wait_until(Duration::from_secs(25), Duration::from_millis(50), || {
        let c = hre_ctrl::testbed::agreed_config(&survivors)?;
        (c.epoch > config.epoch && c.backends.len() == 2).then_some(c)
    })
    .expect("survivors agree on a post-death config at a higher epoch");

    assert_ne!(reconfig.coordinator, victim_id, "the dead coordinator stays deposed");
    assert!(
        backends.iter().any(|h| h.member_id() == reconfig.coordinator),
        "the new coordinator is a survivor"
    );
    assert_eq!(reconfig.backends.len(), 2);

    // The router (still only an observer) converges to the same config.
    let router_sees = wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
        router.config().filter(|c| c == &reconfig)
    });
    assert!(router_sees.is_some(), "router converges to the re-elected config");

    for h in backends {
        h.shutdown();
    }
    router.shutdown();
}
