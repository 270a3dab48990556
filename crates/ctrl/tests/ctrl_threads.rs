//! A control-plane node serves every connection from its one reactor
//! thread: idle connections cost it no threads. Its own test binary, so
//! no test running in parallel can move this process's thread count.

use hre_ctrl::CtrlConfig;
use hre_svc::Client;
use std::net::TcpStream;
use std::time::Duration;

/// This process's thread count, from procfs.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn idle_connections_to_a_ctrl_listener_add_no_threads() {
    let node =
        hre_ctrl::start(CtrlConfig { serve_addr: "127.0.0.1:1".into(), ..Default::default() })
            .expect("start");
    let addr = node.addr.to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    let before = threads();

    let idle: Vec<TcpStream> =
        (0..64).map(|_| TcpStream::connect(&addr).expect("idle connection")).collect();
    // Every connection is accepted and served: a request on the last
    // one opened is answered after all 64 are held open.
    let mut last = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(last.get("/ctrl").expect("status").status, 200);
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(threads(), before, "64 idle connections changed the thread count");

    drop((idle, client, last));
    node.shutdown();
}
