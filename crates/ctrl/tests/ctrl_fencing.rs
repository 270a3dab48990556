//! Live checks of three control-plane rules: one epoch names one
//! config, a member that never answers gets no healthy member declared
//! dead, and it does not slow the node's exchanges with the others.

use hre_ctrl::testbed::{wait_for_agreement, wait_until};
use hre_ctrl::{start, CtrlConfig, CtrlHandle, MemberInfo, Role, Status};
use hre_runtime::Reactor;
use hre_svc::front::{self, Dispatch, Front, Service};
use hre_svc::http::{Request, Response, DEFAULT_MAX_BODY};
use hre_svc::Client;
use std::convert::Infallible;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

fn node(serve_port: u16, seeds: Vec<String>) -> CtrlHandle {
    start(CtrlConfig {
        serve_addr: format!("127.0.0.1:{serve_port}"),
        seeds,
        ..CtrlConfig::default()
    })
    .expect("start ctrl node")
}

fn post(h: &CtrlHandle, path: &str, body: &str) -> u16 {
    Client::connect(&h.addr.to_string(), CLIENT_TIMEOUT)
        .and_then(|mut c| c.post_json(path, body))
        .expect("the node answers")
        .status
}

#[test]
fn a_second_config_at_the_accepted_epoch_is_refused() {
    // Alone on the ring, the node elects itself without a round.
    let solo = node(18301, Vec::new());
    let config = wait_for_agreement(&[&solo], 1, Duration::from_secs(10)).unwrap();
    let push = |backends: &str| {
        format!(
            "{{\"epoch\":{},\"coordinator\":{},\"backends\":[{backends}]}}",
            config.epoch, config.coordinator
        )
    };
    assert_eq!(post(&solo, "/ctrl/config", &push("\"127.0.0.1:18301\"")), 200, "a refresh");
    assert_eq!(post(&solo, "/ctrl/config", &push("\"127.0.0.1:9\"")), 409, "a rival config");
    assert_eq!(solo.config(), Some(config), "the refused push changed nothing");
    solo.shutdown();
}

#[test]
fn a_member_that_never_answers_gets_no_healthy_member_declared_dead() {
    let first = node(18311, Vec::new());
    let seeds = vec![first.addr.to_string()];
    let nodes = [first, node(18312, seeds.clone()), node(18313, seeds)];
    let handles: Vec<&CtrlHandle> = nodes.iter().collect();
    wait_for_agreement(&handles, 3, Duration::from_secs(20)).unwrap();
    let healthy: Vec<MemberInfo> = {
        let view = nodes[0].view();
        nodes.iter().map(|h| view.member(h.member_id()).expect("converged").clone()).collect()
    };

    // Connections to the pit complete, and requests on them go unanswered:
    // every exchange with the silent member runs into its timeout.
    let pit = TcpListener::bind("127.0.0.1:0").unwrap();
    let silent = MemberInfo {
        id: u64::MAX,
        role: Role::Backend,
        ctrl_addr: pit.local_addr().unwrap().to_string(),
        serve_addr: "127.0.0.1:18319".into(),
        incarnation: 1,
        status: Status::Alive,
    };
    assert_eq!(post(&nodes[0], "/ctrl/join", &silent.to_json().to_string()), 200);

    let end = Instant::now() + Duration::from_secs(3);
    while Instant::now() < end {
        for h in &nodes {
            let view = h.view();
            for m in &healthy {
                assert_eq!(
                    view.member(m.id),
                    Some(m),
                    "member {} saw healthy member {} declared dead or refuting",
                    h.member_id(),
                    m.id
                );
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // The detector still works: the silent member itself is declared dead.
    let dead = wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
        nodes[0].view().member(u64::MAX).filter(|m| m.status == Status::Dead).cloned()
    });
    assert!(dead.is_some(), "the silent member must be declared dead");
    drop(pit);
    for h in nodes {
        h.shutdown();
    }
}

/// A stand-in peer that answers every control request with 200 and
/// counts the gossips it gets.
struct Stub(Arc<AtomicUsize>);

impl Service for Stub {
    type Parked = Infallible;

    fn dispatch(
        &mut self,
        _: &mut Front<Infallible>,
        _: u64,
        req: &Request,
    ) -> Dispatch<Infallible> {
        if req.path == "/ctrl/gossip" {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        Dispatch::Answer(Response::json(200, "{}".into()))
    }
}

#[test]
fn a_member_that_never_answers_does_not_slow_gossip_to_the_others() {
    let solo = node(18321, Vec::new());
    let gossips = Arc::new(AtomicUsize::new(0));
    let stub = TcpListener::bind("127.0.0.1:0").unwrap();
    stub.set_nonblocking(true).unwrap();
    let stub_addr = stub.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let served = {
        let (mut svc, flag) = (Stub(Arc::clone(&gossips)), Arc::clone(&shutdown));
        let reactor = Reactor::new().unwrap();
        std::thread::spawn(move || front::serve(&mut svc, reactor, stub, DEFAULT_MAX_BODY, flag))
    };
    let pit = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = |id, ctrl_addr: String| MemberInfo {
        id,
        role: Role::Router,
        ctrl_addr,
        serve_addr: format!("127.0.0.1:{}", 18320 + id),
        incarnation: 1,
        status: Status::Alive,
    };
    for record in [router(1, stub_addr), router(2, pit.local_addr().unwrap().to_string())] {
        assert_eq!(post(&solo, "/ctrl/join", &record.to_json().to_string()), 200);
    }

    // One gossip per 75 ms heartbeat is about 13 a second; exchanges run
    // one at a time, each tick would wait out the pit's 500 ms timeout.
    let before = gossips.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_secs(1));
    let heard = gossips.load(Ordering::Relaxed) - before;
    assert!(heard >= 8, "the stub heard {heard} gossips in 1 s");

    solo.shutdown();
    shutdown.store(true, Ordering::SeqCst);
    served.join().unwrap();
}
