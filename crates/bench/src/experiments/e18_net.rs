//! E18 — the socket-substrate substitution check: the same process code
//! on the **discrete-event simulator**, on **threads + channels**, and on
//! **real TCP sockets** produces identical elections and identical
//! logical message counts — and the TCP substrate keeps doing so when
//! the wire drops, duplicates, reorders, delays, and resets, because the
//! transport recovers the model's reliable FIFO exactly-once links in
//! software.
//!
//! Leader and total message count are schedule-invariant for `Ak`/`Bk`,
//! so all three substrates must match bit-for-bit; the transport columns
//! show what the recovery cost on the wire.

use hre_analysis::Table;
use hre_core::{Ak, Bk};
use hre_net::{run_tcp, FaultPolicy, NetOptions};
use hre_ring::generate::random_exact_multiplicity;
use hre_runtime::{run_threaded, ThreadedOptions};
use hre_sim::{run, RoundRobinSched, RunOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 18_181;

/// Runs one algorithm on all three substrates; returns whether leader
/// and message count agree bit-for-bit, plus the rendered table row.
fn three_substrates<A>(
    algo: &A,
    ring: &hre_ring::RingLabeling,
    name: &str,
    n: usize,
    k: usize,
) -> (bool, [String; 10])
where
    A: hre_sim::Algorithm,
    A::Proc: Send + 'static,
    <A::Proc as hre_sim::ProcessBehavior>::Msg: hre_net::WireMessage + Clone + std::fmt::Debug,
{
    let sim = run(algo, ring, &mut RoundRobinSched::default(), RunOptions::default());
    let thr = run_threaded(algo, ring, ThreadedOptions::default());
    let tcp = run_tcp(algo, ring, NetOptions::default());
    assert!(sim.clean() && thr.clean() && tcp.clean());
    let agree = sim.leader == thr.leader()
        && sim.leader == tcp.leader()
        && sim.metrics.messages == thr.messages
        && sim.metrics.messages == tcp.messages;
    let w = &tcp.net.total;
    let row = [
        name.to_string(),
        n.to_string(),
        k.to_string(),
        format!("p{}", tcp.leader().unwrap()),
        tcp.messages.to_string(),
        format!("{:.1?}", thr.wall),
        format!("{:.1?}", tcp.wall),
        format!("{}(+{})", w.frames_sent, w.frames_retried),
        w.bytes_on_wire.to_string(),
        w.rtt_mean().map_or("—".into(), |m| format!("{m:.0?}")),
    ];
    (agree, row)
}

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut out = String::new();
    out.push_str(&format!("seed = {SEED}\n\n### Clean wire: three substrates, one outcome\n\n"));
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut t = Table::new([
        "algo",
        "n",
        "k",
        "leader",
        "msgs",
        "thr wall",
        "tcp wall",
        "frames(+retry)",
        "bytes",
        "rtt mean",
    ]);
    let mut all_agree = true;

    for &(n, k) in &[(8usize, 2usize), (12, 3), (16, 4)] {
        let ring = random_exact_multiplicity(n, k, &mut rng);
        for bk in [false, true] {
            let (agree, row) = if bk {
                three_substrates(&Bk::new(k), &ring, "Bk", n, k)
            } else {
                three_substrates(&Ak::new(k), &ring, "Ak", n, k)
            };
            all_agree &= agree;
            t.row(row);
        }
    }
    out.push_str(&t.render());

    out.push_str("\n### Hostile wire: the stress fault mix changes nothing but the cost\n\n");
    let mut t = Table::new([
        "algo",
        "leader",
        "msgs",
        "retries",
        "reconnects",
        "dups dropped",
        "faults injected",
        "clean",
    ]);
    let mut recovered = true;
    let ring = random_exact_multiplicity(10, 2, &mut rng);
    let sim = run(&Ak::new(2), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    let sim_bk = run(&Bk::new(2), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    for bk in [false, true] {
        let opts =
            NetOptions { faults: FaultPolicy::stress(), fault_seed: SEED, ..NetOptions::default() };
        let (tcp, ref_leader, ref_msgs) = if bk {
            (run_tcp(&Bk::new(2), &ring, opts), sim_bk.leader, sim_bk.metrics.messages)
        } else {
            (run_tcp(&Ak::new(2), &ring, opts), sim.leader, sim.metrics.messages)
        };
        let ok = tcp.clean() && tcp.leader() == ref_leader && tcp.messages == ref_msgs;
        recovered &= ok;
        let w = &tcp.net.total;
        t.row([
            if bk { "Bk".into() } else { "Ak".to_string() },
            format!("p{}", tcp.leader().unwrap()),
            tcp.messages.to_string(),
            w.frames_retried.to_string(),
            w.reconnects.to_string(),
            w.dup_frames_rx.to_string(),
            w.faults_injected.to_string(),
            if ok { "✓".into() } else { "✗".to_string() },
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&format!(
        "\nSimulator, channel runtime, and TCP runtime agree on every ring: {}\n\
         Recovery over the faulty wire preserved outcome and message count: {}\n",
        if all_agree { "YES" } else { "NO" },
        if recovered { "YES" } else { "NO" }
    ));
    assert!(all_agree && recovered, "E18 gate failed:\n{out}");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn substrates_agree_and_recovery_holds() {
        let r = super::report();
        assert!(r.contains("agree on every ring: YES"), "{r}");
        assert!(r.contains("preserved outcome and message count: YES"), "{r}");
    }
}
