//! The `hre` command-line interface, as a library — the `hre` binary is a
//! thin wrapper so every code path here is unit-tested.
//!
//! Commands return their output as a `String` (the binary prints it), and
//! errors as `Err(message)`.

use crate::analysis::render::render_ring;
use crate::analysis::spacetime::render_activity_grid;
use crate::prelude::*;
use crate::ring::generate;
use crate::sim::Scheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Usage text shown on errors and `hre help`.
pub const USAGE: &str = "\
hre — leader election in asymmetric labeled unidirectional rings

USAGE:
  hre classify --ring L0,L1,...            classify a labeling (A, Kk, U*, true leader)
  hre elect --ring L0,L1,... --algo A      run an election
        --algo ak|ak-ref|bk|cr|peterson|oracle-n|max-uid|content-oblivious
               (--algo list prints the registry: every engine with its
                assumptions, termination kind, and winner rule)
        [--k K]              multiplicity bound (default: the ring's actual; bk needs >= 2)
        [--transport T]      sim | threads | tcp  (default sim)
        [--sched S]          sync | rr | random:SEED | starve:PID  (sim only, default rr)
        [--faults F]         none | stress — transport-fault mix (tcp only, default none)
        [--fault-seed S]     seed for the fault schedules (tcp only, default 0)
        [--phases]           print Bk's phase table (bk + sim only)
        [--diagram]          print the virtual-time activity grid of the run (sim only)
        [--json]             emit the run as JSON, byte-identical to POST /elect (sim + rr only)
        [--batch-file F]     run a JSON array of {ring, k?, algo?} entries in one
                             pass; prints the array POST /elect/batch returns,
                             byte-identical (replaces --ring/--algo/--k)
  hre generate --n N [--k K] [--class C] [--seed S]   print a random ring
        --class a-kk|k1|ustar|exact        (default a-kk)
  hre impossibility --n N [--k0 K] [--seed S]         run the Theorem 1 adversary
  hre verify --ring L0,L1,... [--k K]                 model-check every interleaving
  hre serve [--addr A] [--workers W] [--cache-cap C]  run the election daemon
        [--queue-cap Q] [--deadline-ms D]  (defaults: 127.0.0.1:8080, 4 workers,
                                            cache 1024, queue 256, deadline 2000 ms;
                                            drains gracefully on SIGTERM/ctrl-c)
        (Linux only: one epoll reactor thread holds every connection; the
         workers only run elections)
        [--max-body B]       largest accepted request body in bytes (default 1 MiB)
        [--trace-cap T]      flight-recorder span capacity; 0 = off (default 4096)
        [--slow-ms S]        log span trees of requests slower than S ms;
                             0 disables the slow-request log (default 1000)
        [--ctrl]             run a control-plane node: gossip membership, elect
                             the cluster coordinator with Ak over TCP
        [--join S1,S2,...]   control-plane seed addresses to join through
                             (implies --ctrl; empty bootstraps a new cluster)
        [--ctrl-addr A]      control-plane listen address (default 127.0.0.1:0)
        [--node-id I]        stable node id (default: derived from the serve address)
  hre bench-svc [--addr A] [--requests N] [--connections C]   load-test a daemon
        [--ring L0,L1,...] [--algo A] [--k K] [--no-rotate]
        [--workers W] [--cache-cap C]      (no --addr: spins up an in-process daemon)
        [--batch B]          pack B elections per request via POST /elect/batch
        [--pipeline P]       keep P requests in flight per connection (HTTP/1.1
                             pipelining); both default to 1 (classic closed loop)
        [--open-loop RATE]   open-loop mode: requests arrive on a fixed RATE req/s
                             schedule and latency is measured from the scheduled
                             send (no coordinated omission); reports each
                             connection's own p99 alongside the aggregate
  hre cluster-route --backends A1,A2,...   front a set of daemons with the router
        [--addr A] [--vnodes V] [--hedge-min-ms H] [--failure-threshold F]
        [--max-body B] [--trace-cap T] [--slow-ms S]   (as for hre serve)
        [--ctrl] [--join S1,S2,...] [--ctrl-addr A]    join the control plane as an
                             observer: the elected coordinator pushes the backend
                             list, so --backends becomes optional (dynamic topology)
        (defaults: 127.0.0.1:8090, 128 vnodes, hedge floor 30 ms, threshold 3;
         rotation-affinity placement, breaker failover, drains on SIGTERM/ctrl-c;
         Linux only: one epoll reactor thread multiplexes clients and backend
         attempts, and hedges are timers)
  hre ctrl-status --addr A                 control-plane status of a live node
        (any /ctrl endpoint: a daemon, a router, or a bare control address)
  hre ctrl-ring --addr A                   render the election ring a node sees
        (who is in the labeled unidirectional ring, labels, coordinator)
  hre trace --addr A [--id HEX]            fetch traces from a live daemon
        (no --id: list recent root spans; --id: render that trace's span
         tree — on a router, merged with the backends' spans)
  hre bench-cluster [--addr A] [--requests N] [--connections C]   load-test a cluster
        [--rings W] [--n SIZE] [--no-rotate]
        [--nodes B] [--cache-cap C]        (no --addr: spins up B in-process
                                            backends behind an in-process router)
        [--churn] [--kills K]              self-hosting churn mode (in-process only):
                             the cluster elects its own coordinator, K times the
                             current coordinator is killed mid-load and a fresh
                             member rejoins; reports re-election latency p50/p95
                             alongside request latency (default 2 kills)
        [--json]             (churn only) machine-readable re-election/rejoin
                             percentiles instead of the prose report
  hre dst run [--seed S] [--scenario K]    one whole-stack simulation in virtual time
        --scenario backend-kill|partition|slow-links|flap-storm|coordinator-churn|mixed|algo-mix
                             (default mixed; the plan is a pure function of
                              scenario + seed, so runs replay byte-identically)
        [--regression]       arm the planted breaker-attribution regression
        [--transcript]       print the full virtual-time transcript
        [--spans]            print the flight-recorder span trees of the run
        [--json]             machine-readable outcome (hash, stats, violations)
  hre dst sweep [--scenarios K1,K2,...] [--count N] [--threads T] [--seed S]
        seeded fault sweep over generated plans (defaults: every scenario,
        200 instances, all cores, seed 0); the summary hash is identical for
        any --threads value
        [--regression] [--json]
        [--artifact PATH]    write the first failing instance, minimized, as a
                             JSON replay artifact
  hre dst replay --artifact PATH           re-run a sweep failure byte-for-byte
        [--transcript] [--spans] [--json]  (fails if the transcript hash drifts)
  hre bench-core [--sizes N1,N2,...] [--k K] [--threads T] [--seed S] [--json]
        in-process engine throughput: full Ak/Bk elections per second,
        messages per second, and a peak-memory proxy, per ring size
        (defaults: sizes 8,32,128,512, k 3, seed 9000, threads = all cores)
        [--algo A]           bench one registry engine instead of the ak/bk
                             pair (rings are drawn to fit its assumptions)
";

/// Parsed arguments: `--key value` pairs plus bare flags.
pub type Opts = BTreeMap<String, String>;

/// Splits `args` into a command name and its options. Returns `None` on
/// malformed input (missing value, key without `--`, no command).
pub fn parse(args: &[String]) -> Option<(String, Opts)> {
    let mut it = args.iter();
    let mut cmd = it.next()?.clone();
    let mut opts = Opts::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    // `dst` takes a bare subcommand word: `hre dst run --seed 7`.
    if cmd == "dst" {
        let sub = rest.first()?;
        if sub.starts_with("--") {
            return None;
        }
        cmd = format!("dst {sub}");
        i = 1;
    }
    while i < rest.len() {
        let key = rest[i].strip_prefix("--")?.to_string();
        if matches!(
            key.as_str(),
            "phases"
                | "diagram"
                | "json"
                | "no-rotate"
                | "ctrl"
                | "churn"
                | "regression"
                | "transcript"
                | "spans"
        ) {
            opts.insert(key, "true".into());
            i += 1;
            continue;
        }
        let value = rest.get(i + 1)?.to_string();
        opts.insert(key, value);
        i += 2;
    }
    Some((cmd, opts))
}

/// Dispatches a parsed command; returns the text to print.
pub fn dispatch(cmd: &str, opts: &Opts) -> Result<String, String> {
    match cmd {
        "classify" => classify_cmd(opts),
        "elect" => elect_cmd(opts),
        "generate" => generate_cmd(opts),
        "impossibility" => impossibility_cmd(opts),
        "verify" => verify_cmd(opts),
        "serve" => serve_cmd(opts),
        "bench-svc" => bench_svc_cmd(opts),
        "cluster-route" => cluster_route_cmd(opts),
        "bench-cluster" => bench_cluster_cmd(opts),
        "bench-core" => bench_core_cmd(opts),
        "trace" => trace_cmd(opts),
        "ctrl-status" => ctrl_status_cmd(opts),
        "ctrl-ring" => ctrl_ring_cmd(opts),
        "dst run" => dst_run_cmd(opts),
        "dst sweep" => dst_sweep_cmd(opts),
        "dst replay" => dst_replay_cmd(opts),
        cmd if cmd.starts_with("dst ") => {
            Err(format!("unknown dst subcommand '{}' (run | sweep | replay)", &cmd[4..]))
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn ring_from(opts: &Opts) -> Result<RingLabeling, String> {
    let spec = opts.get("ring").ok_or("--ring is required")?;
    let raw: Result<Vec<u64>, _> = spec.split(',').map(|s| s.trim().parse::<u64>()).collect();
    let raw = raw.map_err(|e| format!("bad --ring: {e}"))?;
    if raw.len() < 2 {
        return Err("--ring needs at least two labels".into());
    }
    Ok(RingLabeling::from_raw(&raw))
}

fn sched_from(opts: &Opts) -> Result<Box<dyn Scheduler>, String> {
    match opts.get("sched").map(String::as_str).unwrap_or("rr") {
        "sync" => Ok(Box::new(SyncSched)),
        "rr" => Ok(Box::new(RoundRobinSched::default())),
        s if s.starts_with("random:") => {
            let seed: u64 = s[7..].parse().map_err(|e| format!("bad seed: {e}"))?;
            Ok(Box::new(RandomSched::new(seed)))
        }
        s if s.starts_with("starve:") => {
            let pid: usize = s[7..].parse().map_err(|e| format!("bad pid: {e}"))?;
            Ok(Box::new(AdversarialSched { strategy: Adversary::Starve(pid) }))
        }
        other => Err(format!("unknown scheduler '{other}'")),
    }
}

fn u64_opt(opts: &Opts, key: &str, default: u64) -> Result<u64, String> {
    match opts.get(key) {
        Some(s) => s.parse().map_err(|e| format!("bad --{key}: {e}")),
        None => Ok(default),
    }
}

fn classify_cmd(opts: &Opts) -> Result<String, String> {
    let ring = ring_from(opts)?;
    let c = classify(&ring);
    let mut out = String::new();
    let _ = writeln!(out, "{}", render_ring(&ring, c.true_leader));
    let _ = writeln!(out, "{c}");
    let _ = writeln!(
        out,
        "classes: A={} | smallest k with R ∈ Kk: {} | U*={} | K1={}",
        c.asymmetric,
        c.minimal_k(),
        c.has_unique_label,
        c.fully_identified()
    );
    Ok(out)
}

/// `hre elect --algo list`: the engine registry, one line per engine.
fn algo_list() -> String {
    let mut table = Table::new(["name", "termination", "winner", "assumes", "summary"]);
    for e in crate::algos::engines() {
        let a = e.assumptions();
        let mut assumes = Vec::new();
        if a.distinct_labels {
            assumes.push("distinct labels".to_string());
        } else if a.labeled {
            assumes.push("labeled".to_string());
        }
        if a.unique_max {
            assumes.push("unique max".to_string());
        }
        if a.asymmetric {
            assumes.push("asymmetric".to_string());
        }
        if a.content_oblivious {
            assumes.push("content-oblivious".to_string());
        }
        if let Some(cap) = a.max_label {
            assumes.push(format!("labels <= {cap}"));
        }
        assumes.push(
            match a.knowledge {
                crate::algos::Knowledge::Nothing => "knows nothing",
                crate::algos::Knowledge::MultiplicityBound => "knows k (multiplicity bound)",
                crate::algos::Knowledge::ExactN => "knows n",
            }
            .to_string(),
        );
        table.row([
            e.name().to_string(),
            format!("{:?}", e.termination()).to_lowercase(),
            format!("{:?}", e.winner()),
            assumes.join(", "),
            e.summary().to_string(),
        ]);
    }
    table.render()
}

fn elect_cmd(opts: &Opts) -> Result<String, String> {
    if opts.get("algo").map(String::as_str) == Some("list") {
        return Ok(algo_list());
    }
    if let Some(path) = opts.get("batch-file") {
        return elect_batch_cmd(opts, path);
    }
    let ring = ring_from(opts)?;
    let algo = opts.get("algo").map(String::as_str).unwrap_or(AlgoId::Ak.name());
    let k = u64_opt(opts, "k", ring.max_multiplicity() as u64)? as usize;
    if opts.contains_key("json") {
        return elect_json_cmd(opts, &ring, algo, k);
    }
    match opts.get("transport").map(String::as_str).unwrap_or("sim") {
        "sim" => reject_tcp_only_flags(opts, "sim")?,
        "threads" => {
            reject_tcp_only_flags(opts, "threads")?;
            return elect_threads_cmd(opts, &ring, algo, k);
        }
        "tcp" => return elect_tcp_cmd(opts, &ring, algo, k),
        other => return Err(format!("unknown transport '{other}'")),
    }
    let mut sched = sched_from(opts)?;
    let id = algo_id(algo)?;
    let engine = id.engine();
    engine.admit(&ring, k)?;
    let run = engine.run(&ring, k, &mut *sched, opts.contains_key("diagram"));

    let mut out = render_outcome(&ring, run.accepted, run.leader);
    let _ = writeln!(out, "{}", run.metrics);
    // An accepted stabilizing run carries the violation kinds its
    // discipline tolerates (nobody halts, transient claims): not defects.
    if !run.accepted {
        for v in &run.violations {
            let _ = writeln!(out, "violation: {v}");
        }
    }
    if let Some(trace) = &run.trace {
        let _ = writeln!(out, "\nactivity grid (● receive, ◐ initial action, · idle):");
        out.push_str(&render_activity_grid(trace, run.metrics.n));
    }
    if opts.contains_key("phases") {
        if id != AlgoId::Bk {
            return Err("--phases applies to --algo bk".into());
        }
        // The table replays a clean run; an unclean one has none.
        if run.accepted {
            let table = reconstruct_phases(&ring, engine.effective_k(k));
            let _ = writeln!(out, "\nphases (● active at start, ○ passive):");
            for phase in 1..=table.phases() {
                let guests: Vec<_> = (0..ring.n()).map(|p| table.guest(phase, p)).collect();
                let _ = writeln!(
                    out,
                    "  {:>3}: {}",
                    phase,
                    crate::analysis::render::render_phase(&guests, &table.active_set(phase))
                );
            }
        }
    }
    if !run.accepted {
        return Err(format!("{out}election did not satisfy the specification"));
    }
    Ok(out)
}

/// The registry id of a wire name, or the CLI's unknown-algorithm error.
fn algo_id(name: &str) -> Result<AlgoId, String> {
    AlgoId::parse(name).ok_or_else(|| format!("unknown algorithm '{name}'"))
}

/// `hre elect --json`: the run as the service's response document.
///
/// The output is **byte-identical** to the body a daemon returns for
/// `POST /elect` on the same ring/algorithm/k (both sides build it via
/// `hre_svc::response_json`), so served results can be diffed against
/// in-process runs directly. That contract pins the execution model, so
/// the flag only combines with the defaults the daemon uses: `sim`
/// transport and the round-robin scheduler.
fn elect_json_cmd(
    opts: &Opts,
    ring: &RingLabeling,
    algo: &str,
    k: usize,
) -> Result<String, String> {
    for key in ["phases", "diagram", "faults", "fault-seed"] {
        if opts.contains_key(key) {
            return Err(format!("--{key} cannot be combined with --json"));
        }
    }
    if opts.get("transport").is_some_and(|t| t != "sim") {
        return Err("--json requires --transport sim (the daemon's execution model)".into());
    }
    if opts.get("sched").is_some_and(|s| s != "rr") {
        return Err("--json requires the default rr scheduler (matches the daemon)".into());
    }
    let labels: Vec<u64> = ring.labels().iter().map(|l| l.raw()).collect();
    let req = ElectRequest::new(labels, algo_id(algo)?, Some(k))?;
    let out = crate::svc::run_election(&req)?;
    Ok(crate::svc::response_json(&req, &out))
}

/// `hre elect --batch-file FILE`: run a whole `POST /elect/batch` body
/// in process, no daemon required.
///
/// The file holds the same JSON array of `{ring, k?, algo?}` entries
/// the endpoint accepts, and the printed array is **byte-identical** to
/// the response a daemon returns for it — element `i` answers entry `i`,
/// invalid entries become `{"error": ...}` documents in place (the whole
/// batch still succeeds). Entries carry their own ring/algorithm/k, so
/// the single-election flags cannot be combined with this mode.
fn elect_batch_cmd(opts: &Opts, path: &str) -> Result<String, String> {
    for key in
        ["ring", "algo", "k", "transport", "sched", "phases", "diagram", "faults", "fault-seed"]
    {
        if opts.contains_key(key) {
            return Err(format!(
                "--{key} cannot be combined with --batch-file (each entry names its own ring/algo/k)"
            ));
        }
    }
    let body = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = crate::svc::batch_from_json(&body)?;
    let parts: Vec<String> = entries
        .iter()
        .map(|entry| match entry {
            Ok(req) => match crate::svc::run_election(req) {
                Ok(out) => crate::svc::response_json(req, &out),
                Err(why) => crate::svc::error_json(&why),
            },
            Err(why) => crate::svc::error_json(why),
        })
        .collect();
    Ok(crate::svc::batch_response_body(&parts))
}

fn reject_sim_only_flags(opts: &Opts) -> Result<(), String> {
    for key in ["sched", "phases", "diagram"] {
        if opts.contains_key(key) {
            return Err(format!("--{key} applies only to --transport sim"));
        }
    }
    Ok(())
}

fn reject_tcp_only_flags(opts: &Opts, transport: &str) -> Result<(), String> {
    for key in ["faults", "fault-seed"] {
        if opts.contains_key(key) {
            return Err(format!("--{key} applies only to --transport tcp, not {transport}"));
        }
    }
    Ok(())
}

fn render_outcome(ring: &RingLabeling, clean: bool, leader: Option<usize>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", render_ring(ring, leader));
    match leader {
        Some(l) => {
            let _ = writeln!(
                out,
                "elected p{l} (label {}) — spec {}",
                ring.label(l),
                if clean { "satisfied" } else { "VIOLATED" }
            );
        }
        None => {
            let _ = writeln!(out, "no unique leader — spec VIOLATED");
        }
    }
    out
}

fn elect_threads_cmd(
    opts: &Opts,
    ring: &RingLabeling,
    algo: &str,
    k: usize,
) -> Result<String, String> {
    reject_sim_only_flags(opts)?;
    let rep = algo_id(algo)?.engine().run_threaded(ring, k, ThreadedOptions::default())?;
    let mut out = render_outcome(ring, rep.clean(), rep.leader());
    let _ = writeln!(
        out,
        "threads transport: {} messages | wall {:.3} ms",
        rep.messages,
        rep.wall.as_secs_f64() * 1e3
    );
    if !rep.clean() {
        return Err(format!("{out}election did not satisfy the specification"));
    }
    Ok(out)
}

fn elect_tcp_cmd(opts: &Opts, ring: &RingLabeling, algo: &str, k: usize) -> Result<String, String> {
    reject_sim_only_flags(opts)?;
    let faults = match opts.get("faults").map(String::as_str).unwrap_or("none") {
        "none" => FaultPolicy::NONE,
        "stress" => FaultPolicy::stress(),
        other => return Err(format!("unknown fault mix '{other}' (none | stress)")),
    };
    let nopts =
        NetOptions { faults, fault_seed: u64_opt(opts, "fault-seed", 0)?, ..Default::default() };
    let rep = algo_id(algo)?.engine().run_tcp(ring, k, nopts)?;
    let mut out = render_outcome(ring, rep.clean(), rep.leader());
    let t = &rep.net.total;
    let _ = writeln!(
        out,
        "tcp transport: {} logical messages | wall {:.3} ms",
        rep.messages,
        rep.wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "  wire: {} frames (+{} retries), {} acks, {} bytes, {} reconnects",
        t.frames_sent, t.frames_retried, t.acks_sent, t.bytes_on_wire, t.reconnects
    );
    let _ = writeln!(
        out,
        "  recovery: {} duplicate frames suppressed, {} frames rejected, {} faults injected",
        t.dup_frames_rx, t.frames_rejected, t.faults_injected
    );
    match t.rtt_mean() {
        Some(mean) => {
            let _ = writeln!(
                out,
                "  rtt: {} clean samples, mean {:.0} µs",
                t.rtt.count,
                mean.as_secs_f64() * 1e6
            );
            out.push_str(&rep.net.rtt_histogram_pretty());
        }
        None => {
            let _ = writeln!(out, "  rtt: no clean samples (every frame was retransmitted)");
        }
    }
    if !rep.clean() {
        return Err(format!("{out}election did not satisfy the specification"));
    }
    Ok(out)
}

fn generate_cmd(opts: &Opts) -> Result<String, String> {
    let n = u64_opt(opts, "n", 0)? as usize;
    if n < 2 {
        return Err("--n (>= 2) is required".into());
    }
    let k = u64_opt(opts, "k", 2)? as usize;
    let seed = u64_opt(opts, "seed", 0)?;
    let class = opts.get("class").map(String::as_str).unwrap_or("a-kk");
    let mut rng = StdRng::seed_from_u64(seed);
    let ring = match class {
        "k1" => generate::random_k1(n, &mut rng),
        "ustar" => generate::random_ustar_inter_kk(n, k, &mut rng),
        "exact" => generate::random_exact_multiplicity(n, k, &mut rng),
        "a-kk" => generate::random_a_inter_kk(n, k, (n.div_ceil(k) as u64 + 2).max(3), &mut rng),
        other => return Err(format!("unknown class '{other}'")),
    };
    let c = classify(&ring);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        ring.labels().iter().map(|l| l.to_string()).collect::<Vec<_>>().join(",")
    );
    let _ = writeln!(out, "{}", render_ring(&ring, c.true_leader));
    let _ = writeln!(out, "{c}");
    Ok(out)
}

fn impossibility_cmd(opts: &Opts) -> Result<String, String> {
    let n = u64_opt(opts, "n", 0)? as usize;
    if n < 2 {
        return Err("--n (>= 2) is required".into());
    }
    let k0 = u64_opt(opts, "k0", 2)? as usize;
    let seed = u64_opt(opts, "seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generate::random_k1(n, &mut rng);
    let mut out = String::new();
    let _ = writeln!(out, "base K1 ring : {}", render_ring(&base, None));
    let cert = demonstrate_impossibility(&Ak::new(AlgoId::Ak.effective_k(k0)), &base);
    let _ = writeln!(
        out,
        "candidate    : Ak(k0={k0}) — terminates on the base in T = {} sync steps",
        cert.t_steps
    );
    let _ = writeln!(
        out,
        "construction : replicate x{} + fresh label → {} processes in U* ∩ K{}",
        cert.k,
        cert.big.n(),
        cert.k
    );
    match cert.two_leaders_step {
        Some(step) => {
            let names: Vec<String> = cert.leaders.iter().map(|l| format!("q{l}")).collect();
            let _ = writeln!(
                out,
                "verdict      : at sync step {step}, processes {} ALL claim leadership — \
                 spec violated, Theorem 1 confirmed",
                names.join(", ")
            );
        }
        None => {
            let _ = writeln!(out, "verdict      : violations {:?}", cert.violations);
        }
    }
    Ok(out)
}

fn verify_cmd(opts: &Opts) -> Result<String, String> {
    let ring = ring_from(opts)?;
    let k = u64_opt(opts, "k", ring.max_multiplicity() as u64)? as usize;
    let (ak_k, bk_k) = (AlgoId::Ak.effective_k(k), AlgoId::Bk.effective_k(k));
    let mut out = String::new();
    let ak = explore(&Ak::new(ak_k), &ring, 5_000_000);
    let _ = writeln!(
        out,
        "Ak(k={ak_k}): {} configurations, verified={}",
        ak.configurations,
        ak.verified()
    );
    let bk = explore(&Bk::new(bk_k), &ring, 5_000_000);
    let _ = writeln!(
        out,
        "Bk(k={bk_k}): {} configurations, verified={}",
        bk.configurations,
        bk.verified()
    );
    if !(ak.verified() && bk.verified()) {
        return Err(format!("{out}model checking FAILED"));
    }
    Ok(out)
}

fn svc_config_from(opts: &Opts, default_addr: &str) -> Result<SvcConfig, String> {
    let slow_ms = u64_opt(opts, "slow-ms", 1000)?;
    Ok(SvcConfig {
        addr: opts.get("addr").cloned().unwrap_or_else(|| default_addr.into()),
        workers: u64_opt(opts, "workers", 4)? as usize,
        cache_cap: u64_opt(opts, "cache-cap", 1024)? as usize,
        cache_shards: u64_opt(opts, "cache-shards", 8)? as usize,
        queue_cap: u64_opt(opts, "queue-cap", 256)? as usize,
        deadline: std::time::Duration::from_millis(u64_opt(opts, "deadline-ms", 2000)?),
        max_body: u64_opt(opts, "max-body", crate::svc::DEFAULT_MAX_BODY as u64)? as usize,
        trace_cap: u64_opt(opts, "trace-cap", hre_runtime::trace::DEFAULT_TRACE_CAP as u64)?
            as usize,
        slow_threshold: (slow_ms > 0).then(|| std::time::Duration::from_millis(slow_ms)),
        ctrl_status: None,
        clock: hre_runtime::ClockHandle::default(),
    })
}

/// Whether this invocation asked for a control-plane node: `--ctrl`
/// explicitly, or `--join` (joining seeds implies running one).
fn wants_ctrl(opts: &Opts) -> bool {
    opts.contains_key("ctrl") || opts.contains_key("join")
}

/// Control-plane node config from the shared `--join`/`--ctrl-addr`/
/// `--node-id` options; `serve_addr` is the data-plane address this
/// member advertises (known only after the daemon binds).
fn ctrl_cfg_from(
    opts: &Opts,
    role: crate::ctrl::Role,
    serve_addr: String,
    recorder: std::sync::Arc<hre_runtime::trace::FlightRecorder>,
) -> Result<crate::ctrl::CtrlConfig, String> {
    let seeds: Vec<String> = opts
        .get("join")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect())
        .unwrap_or_default();
    let node_id = match opts.get("node-id") {
        Some(s) => Some(s.parse::<u64>().map_err(|e| format!("bad --node-id: {e}"))?),
        None => None,
    };
    Ok(crate::ctrl::CtrlConfig {
        node_id,
        role,
        ctrl_addr: opts.get("ctrl-addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into()),
        serve_addr,
        seeds,
        recorder: Some(recorder),
        ..Default::default()
    })
}

/// `hre serve`: run the daemon until SIGTERM/SIGINT, then drain.
///
/// With `--ctrl` (or `--join`), the daemon also runs a control-plane
/// node: it gossips membership, takes part in the `Ak` coordinator
/// election over TCP, and serves the control document on the daemon's
/// own `GET /ctrl`.
///
/// The listening banner is printed eagerly (the command only returns
/// after the drain), so orchestration scripts can wait for readiness on
/// stdout or just poll `GET /healthz`.
fn serve_cmd(opts: &Opts) -> Result<String, String> {
    let mut cfg = svc_config_from(opts, "127.0.0.1:8080")?;
    // The control node needs the daemon's bound address, which exists
    // only after the daemon starts — so `GET /ctrl` gets a late-bound
    // provider that delegates once the node is up.
    let late: std::sync::Arc<std::sync::Mutex<Option<crate::svc::StatusProvider>>> =
        std::sync::Arc::new(std::sync::Mutex::new(None));
    if wants_ctrl(opts) {
        let late = std::sync::Arc::clone(&late);
        cfg.ctrl_status = Some(crate::svc::StatusProvider::new(move || {
            late.lock()
                .unwrap()
                .as_ref()
                .map(|p| p.get())
                .unwrap_or_else(|| "{\"error\":\"control plane still starting\"}".to_string())
        }));
    }
    let handle = crate::svc::start(cfg.clone()).map_err(|e| format!("cannot start daemon: {e}"))?;
    let ctrl = if wants_ctrl(opts) {
        let ccfg = ctrl_cfg_from(
            opts,
            crate::ctrl::Role::Backend,
            handle.addr.to_string(),
            handle.recorder(),
        )?;
        let seeds = ccfg.seeds.clone();
        let node =
            crate::ctrl::start(ccfg).map_err(|e| format!("cannot start control node: {e}"))?;
        *late.lock().unwrap() = Some(node.status_provider());
        println!(
            "control plane on http://{} — node {}, {}",
            node.addr,
            node.member_id(),
            if seeds.is_empty() {
                "bootstrapping a new cluster".to_string()
            } else {
                format!("joining via {}", seeds.join(", "))
            }
        );
        Some(node)
    } else {
        None
    };
    let flag = handle.shutdown_flag();
    for sig in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        signal_hook::flag::register(sig, std::sync::Arc::clone(&flag))
            .map_err(|e| format!("cannot install signal handler: {e}"))?;
    }
    println!(
        "hre-svc listening on http://{} — {} workers, cache {} entries, queue {}, \
         deadline {} ms",
        handle.addr,
        cfg.workers,
        cfg.cache_cap,
        cfg.queue_cap,
        cfg.deadline.as_millis()
    );
    println!(
        "POST /elect | GET /healthz | GET /metrics | GET /ctrl | GET /trace/recent — \
         SIGTERM or ctrl-c drains and exits"
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let summary = handle.run_until(&flag);
    if let Some(node) = ctrl {
        node.shutdown();
    }
    Ok(format!("drained cleanly\n{summary}"))
}

/// `hre bench-svc`: closed-loop load against a daemon — an external one
/// (`--addr`) or an in-process one spun up for the measurement.
fn bench_svc_cmd(opts: &Opts) -> Result<String, String> {
    let labels: Vec<u64> = match opts.get("ring") {
        Some(_) => ring_from(opts)?.labels().iter().map(|l| l.raw()).collect(),
        None => vec![1, 3, 1, 3, 2, 2, 1, 2], // the paper's Figure 1 ring
    };
    let algo = algo_id(opts.get("algo").map(String::as_str).unwrap_or(AlgoId::Ak.name()))?;
    let k = match opts.get("k") {
        Some(s) => Some(s.parse::<usize>().map_err(|e| format!("bad --k: {e}"))?),
        None => None,
    };
    let base = ElectRequest::new(labels, algo, k)?;
    let open_loop = match opts.get("open-loop") {
        Some(s) => {
            let rate = s.parse::<f64>().map_err(|e| format!("bad --open-loop: {e}"))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err("bad --open-loop: rate must be > 0".into());
            }
            Some(rate)
        }
        None => None,
    };
    let load = crate::svc::LoadOptions {
        connections: u64_opt(opts, "connections", 8)? as usize,
        requests: u64_opt(opts, "requests", 2000)?,
        base,
        rotate: !opts.contains_key("no-rotate"),
        batch: u64_opt(opts, "batch", 0)? as usize,
        pipeline: u64_opt(opts, "pipeline", 0)? as usize,
        open_loop,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} elections over {} connections (ring n={}, algo {}, {})",
        load.requests,
        load.connections,
        load.base.labels.len(),
        load.base.algo.name(),
        if load.rotate { "rotating" } else { "verbatim" }
    );
    if load.batch > 1 {
        let _ = writeln!(out, "batched: {} entries per POST /elect/batch", load.batch);
    }
    if load.pipeline > 1 {
        if load.open_loop.is_some() {
            return Err("--open-loop drives its own schedule; drop --pipeline".into());
        }
        let _ = writeln!(out, "pipelined: {} requests in flight per connection", load.pipeline);
    }
    if let Some(rate) = load.open_loop {
        let _ = writeln!(out, "open loop: {rate} req/s target arrival rate");
    }
    let report = match opts.get("addr") {
        Some(addr) => {
            let _ = writeln!(out, "target: {addr}");
            crate::svc::run_load(addr, &load)
        }
        None => {
            let cfg = svc_config_from(opts, "127.0.0.1:0")?;
            let handle =
                crate::svc::start(cfg.clone()).map_err(|e| format!("cannot start daemon: {e}"))?;
            let _ = writeln!(
                out,
                "target: in-process daemon on {} ({} workers, cache {})",
                handle.addr, cfg.workers, cfg.cache_cap
            );
            let r = crate::svc::run_load(&handle.addr.to_string(), &load);
            let summary = handle.shutdown();
            let _ = writeln!(
                out,
                "server cache: {} hits / {} misses",
                summary.cache.hits, summary.cache.misses
            );
            r
        }
    }
    .map_err(|e| format!("load generation failed: {e}"))?;
    out.push_str(&report.pretty());
    Ok(out)
}

/// `hre cluster-route`: run the front-door router over a set of backend
/// daemons until SIGTERM/SIGINT, then drain.
///
/// With `--ctrl` (or `--join`), the router also joins the control plane
/// as a non-electable **observer**: the elected coordinator's config
/// pushes become the router's topology source (so `--backends` is
/// optional and serves only as a static warm start), and a member the
/// control plane declares dead has its breaker tripped immediately.
fn cluster_route_cmd(opts: &Opts) -> Result<String, String> {
    let with_ctrl = wants_ctrl(opts);
    let backends: Vec<String> = match opts.get("backends") {
        Some(s) => s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect(),
        None if with_ctrl => Vec::new(),
        None => {
            return Err("--backends is required (comma-separated daemon addresses); \
                        only --ctrl routers may start without it"
                .into())
        }
    };
    let slow_ms = u64_opt(opts, "slow-ms", 1000)?;
    let cfg = crate::cluster::ClusterConfig {
        addr: opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:8090".into()),
        backends,
        dynamic: with_ctrl,
        vnodes: u64_opt(opts, "vnodes", 128)? as usize,
        hedge_min: std::time::Duration::from_millis(u64_opt(opts, "hedge-min-ms", 30)?),
        failure_threshold: u64_opt(opts, "failure-threshold", 3)? as u32,
        max_body: u64_opt(opts, "max-body", crate::svc::DEFAULT_MAX_BODY as u64)? as usize,
        trace_cap: u64_opt(opts, "trace-cap", hre_runtime::trace::DEFAULT_TRACE_CAP as u64)?
            as usize,
        slow_threshold: (slow_ms > 0).then(|| std::time::Duration::from_millis(slow_ms)),
        ..Default::default()
    };
    let router =
        crate::cluster::start(cfg.clone()).map_err(|e| format!("cannot start router: {e}"))?;
    let ctrl = if with_ctrl {
        let ctl = router.controller();
        let on_config = {
            let ctl = ctl.clone();
            std::sync::Arc::new(move |topo: &crate::ctrl::ClusterTopology| {
                if let Err(e) = ctl.update_backends(topo.epoch, &topo.backends) {
                    eprintln!("config push not applied: {e}");
                }
            }) as crate::ctrl::ConfigCallback
        };
        let on_death = std::sync::Arc::new(move |addr: &str| {
            ctl.trip_backend(addr);
        }) as crate::ctrl::DeathCallback;
        let ccfg = crate::ctrl::CtrlConfig {
            on_config: Some(on_config),
            on_death: Some(on_death),
            ..ctrl_cfg_from(
                opts,
                crate::ctrl::Role::Router,
                router.addr.to_string(),
                router.recorder(),
            )?
        };
        let seeds = ccfg.seeds.clone();
        let node =
            crate::ctrl::start(ccfg).map_err(|e| format!("cannot start control node: {e}"))?;
        println!(
            "control plane on http://{} — observer node {}, {}",
            node.addr,
            node.member_id(),
            if seeds.is_empty() {
                "bootstrapping a new cluster".to_string()
            } else {
                format!("joining via {}", seeds.join(", "))
            }
        );
        Some(node)
    } else {
        None
    };
    let flag = router.shutdown_flag();
    for sig in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        signal_hook::flag::register(sig, std::sync::Arc::clone(&flag))
            .map_err(|e| format!("cannot install signal handler: {e}"))?;
    }
    println!(
        "hre-cluster routing on http://{} over {} — {} vnodes, hedge floor {} ms",
        router.addr,
        if with_ctrl {
            "control-plane-managed backends".to_string()
        } else {
            format!("{} backends", cfg.backends.len())
        },
        cfg.vnodes,
        cfg.hedge_min.as_millis(),
    );
    println!(
        "POST /elect | GET /healthz | GET /metrics | GET /cluster | GET /trace/recent — \
         SIGTERM or ctrl-c drains"
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let summary = router.run_until(&flag);
    if let Some(node) = ctrl {
        node.shutdown();
    }
    Ok(format!("drained cleanly\n{summary}"))
}

/// `hre trace`: fetch traces from a live daemon and render them.
///
/// Without `--id`, lists the most recent root spans (newest first) so
/// an id can be picked; with `--id`, renders that trace's span tree.
/// Pointing at a cluster router returns the merged view: the router's
/// own spans joined with every reachable backend's, `src`-tagged.
fn trace_cmd(opts: &Opts) -> Result<String, String> {
    use hre_runtime::trace::{fmt_dur_us, render_tree, TraceId};
    let addr = opts.get("addr").ok_or("--addr is required (a daemon or router address)")?;
    let mut c = crate::svc::Client::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match opts.get("id") {
        Some(id) => {
            let trace = TraceId::from_hex(id)
                .ok_or_else(|| format!("bad --id '{id}' (want 16 hex digits, nonzero)"))?;
            let resp = c
                .get(&format!("/trace/{}", trace.to_hex()))
                .map_err(|e| format!("trace fetch failed: {e}"))?;
            if resp.status == 404 {
                return Err(format!(
                    "trace {} not found on {addr} (evicted from the flight recorder, \
                     or never recorded there)",
                    trace.to_hex()
                ));
            }
            if resp.status != 200 {
                return Err(format!(
                    "trace fetch failed: HTTP {}: {}",
                    resp.status,
                    resp.body_text()
                ));
            }
            let spans = crate::svc::tracewire::spans_from_doc(&resp.body_text())?;
            Ok(format!("trace {} — {} spans\n{}", trace.to_hex(), spans.len(), render_tree(&spans)))
        }
        None => {
            let resp = c.get("/trace/recent").map_err(|e| format!("trace fetch failed: {e}"))?;
            if resp.status != 200 {
                return Err(format!(
                    "trace fetch failed: HTTP {}: {}",
                    resp.status,
                    resp.body_text()
                ));
            }
            let roots = crate::svc::tracewire::recent_from_doc(&resp.body_text())?;
            if roots.is_empty() {
                return Ok(format!(
                    "no recent traces on {addr} (tracing off, or no requests yet)\n"
                ));
            }
            let mut out = format!("{} recent trace(s) on {addr}, newest first:\n", roots.len());
            for r in &roots {
                let _ = writeln!(
                    out,
                    "  {}  {:>9}  {}{}",
                    r.trace.to_hex(),
                    fmt_dur_us(r.dur_us),
                    r.stage.as_str(),
                    if r.err { "  ERR" } else { "" }
                );
            }
            out.push_str("render one with: hre trace --addr ");
            let _ = writeln!(out, "{addr} --id <trace>");
            Ok(out)
        }
    }
}

/// Fetches and parses the `/ctrl` status document from a live node.
fn fetch_ctrl_doc(opts: &Opts) -> Result<crate::svc::Json, String> {
    let addr = opts
        .get("addr")
        .ok_or("--addr is required (a daemon, router, or control-plane address)")?;
    let mut c = crate::svc::Client::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let resp = c.get("/ctrl").map_err(|e| format!("status fetch failed: {e}"))?;
    if resp.status == 404 {
        return Err(format!("{addr} runs no control plane (start it with --ctrl/--join)"));
    }
    if resp.status != 200 {
        return Err(format!("status fetch failed: HTTP {}: {}", resp.status, resp.body_text()));
    }
    crate::svc::Json::parse(&resp.body_text()).map_err(|e| format!("malformed /ctrl document: {e}"))
}

/// `hre ctrl-status`: the control-plane view of a live node — identity,
/// epoch, coordinator, active config, and the full membership table.
fn ctrl_status_cmd(opts: &Opts) -> Result<String, String> {
    let doc = fetch_ctrl_doc(opts)?;
    let id = doc.get("id").and_then(crate::svc::Json::as_u64).ok_or("missing id")?;
    let role = doc.get("role").and_then(crate::svc::Json::as_str).unwrap_or("?");
    let epoch = doc.get("epoch").and_then(crate::svc::Json::as_u64).unwrap_or(0);
    let mut out = format!("node {id} ({role}) — epoch {epoch}\n");
    match doc.get("coordinator").and_then(crate::svc::Json::as_u64) {
        Some(c) => {
            let config_epoch =
                doc.get("config_epoch").and_then(crate::svc::Json::as_u64).unwrap_or(0);
            let me = if c == id { " (this node)" } else { "" };
            let _ = writeln!(out, "coordinator: {c}{me} — config epoch {config_epoch}");
            if let Some(backends) = doc.get("backends").and_then(crate::svc::Json::as_arr) {
                let list: Vec<&str> =
                    backends.iter().filter_map(crate::svc::Json::as_str).collect();
                let _ = writeln!(out, "backends ({}): {}", list.len(), list.join(", "));
            }
        }
        None => out.push_str("coordinator: none yet (no config accepted)\n"),
    }
    let members = doc.get("members").and_then(crate::svc::Json::as_arr).ok_or("missing members")?;
    let mut t = crate::analysis::Table::new(["member", "role", "status", "serve", "ctrl", "inc"]);
    for m in members {
        t.row([
            m.get("id").and_then(crate::svc::Json::as_u64).map_or("?".into(), |v| v.to_string()),
            m.get("role").and_then(crate::svc::Json::as_str).unwrap_or("?").to_string(),
            m.get("status").and_then(crate::svc::Json::as_str).unwrap_or("?").to_string(),
            m.get("serve_addr").and_then(crate::svc::Json::as_str).unwrap_or("?").to_string(),
            m.get("ctrl_addr").and_then(crate::svc::Json::as_str).unwrap_or("?").to_string(),
            m.get("incarnation")
                .and_then(crate::svc::Json::as_u64)
                .map_or("?".into(), |v| v.to_string()),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// `hre ctrl-ring`: the labeled unidirectional election ring a node
/// sees — live backends in ring order with their derived labels, the
/// successor arrows, and the coordinator marked.
fn ctrl_ring_cmd(opts: &Opts) -> Result<String, String> {
    let doc = fetch_ctrl_doc(opts)?;
    let order: Vec<u64> = doc
        .get("ring")
        .and_then(crate::svc::Json::as_arr)
        .map(|a| a.iter().filter_map(crate::svc::Json::as_u64).collect())
        .unwrap_or_default();
    let labels: Vec<u64> = doc
        .get("ring_labels")
        .and_then(crate::svc::Json::as_arr)
        .map(|a| a.iter().filter_map(crate::svc::Json::as_u64).collect())
        .unwrap_or_default();
    if order.is_empty() {
        return Ok("no election ring: no live backends in the view\n".to_string());
    }
    let coordinator = doc.get("coordinator").and_then(crate::svc::Json::as_u64);
    let mut out = format!(
        "labeled unidirectional ring — {} live backend(s), messages flow p0 -> p1 -> ... -> p0\n",
        order.len()
    );
    for (i, id) in order.iter().enumerate() {
        let label = labels.get(i).copied().unwrap_or(0);
        let mark = if Some(*id) == coordinator { "  <- coordinator" } else { "" };
        let _ = writeln!(out, "  p{i}: node {id}  [label {label:#018x}]{mark}");
    }
    if coordinator.is_none() {
        out.push_str("coordinator: none yet (election pending)\n");
    }
    Ok(out)
}

/// `hre bench-cluster`: closed-loop load against a router — an external
/// one (`--addr`) or an in-process cluster spun up for the measurement.
/// The workload cycles `--rings` distinct canonical rings of size `--n`,
/// rotating each request so the bytes differ but the cache entry does
/// not — the placement-sensitive access pattern E20 measures.
fn bench_cluster_cmd(opts: &Opts) -> Result<String, String> {
    let w = u64_opt(opts, "rings", 24)? as usize;
    let n = u64_opt(opts, "n", 64)?;
    if w == 0 || n < 2 {
        return Err("--rings must be >= 1 and --n >= 2".into());
    }
    let bases: Result<Vec<ElectRequest>, String> = (0..w)
        .map(|j| {
            let mut labels: Vec<u64> = (0..n).map(|i| i % 11).collect();
            labels[0] = 100 + j as u64;
            ElectRequest::new(labels, AlgoId::Ak, None)
        })
        .collect();
    let load = crate::cluster::ClusterLoadOptions {
        connections: u64_opt(opts, "connections", 8)? as usize,
        requests: u64_opt(opts, "requests", 2000)?,
        bases: bases?,
        rotate: !opts.contains_key("no-rotate"),
    };
    if opts.contains_key("churn") {
        if opts.contains_key("addr") {
            return Err("--churn runs in-process only (it must own the members it kills); \
                        drop --addr"
                .into());
        }
        return bench_cluster_churn_cmd(opts, load, w, n);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} requests over {} connections ({} rings of n={}, algo ak, {})",
        load.requests,
        load.connections,
        w,
        n,
        if load.rotate { "rotating" } else { "verbatim" }
    );
    let report = match opts.get("addr") {
        Some(addr) => {
            let _ = writeln!(out, "target: {addr}");
            crate::cluster::run_cluster_load(addr, &load)
        }
        None => {
            let nodes = u64_opt(opts, "nodes", 3)? as usize;
            let cfg = SvcConfig {
                cache_cap: u64_opt(opts, "cache-cap", 1024)? as usize,
                ..SvcConfig::default()
            };
            let backends: Vec<ServerHandle> = (0..nodes.max(1))
                .map(|_| crate::svc::start(cfg.clone()))
                .collect::<std::io::Result<_>>()
                .map_err(|e| format!("cannot start backends: {e}"))?;
            let router = crate::cluster::start(crate::cluster::ClusterConfig {
                backends: backends.iter().map(|b| b.addr.to_string()).collect(),
                ..Default::default()
            })
            .map_err(|e| format!("cannot start router: {e}"))?;
            let _ = writeln!(
                out,
                "target: in-process router on {} over {} backends (cache {} each)",
                router.addr,
                backends.len(),
                cfg.cache_cap
            );
            let r = crate::cluster::run_cluster_load(&router.addr.to_string(), &load);
            let summary = router.shutdown();
            for b in backends {
                b.shutdown();
            }
            let _ = write!(out, "{summary}");
            r
        }
    }
    .map_err(|e| format!("load generation failed: {e}"))?;
    out.push_str(&report.pretty());
    Ok(out)
}

/// Nearest-rank percentile over a sorted latency sample, in ms.
fn percentile_ms(sorted: &[std::time::Duration], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx].as_secs_f64() * 1000.0
}

/// `hre bench-cluster --churn`: the self-hosting churn bench. Spins up
/// an in-process cluster that elects its own coordinator (backends +
/// control nodes + a dynamic router fed only by config pushes), then —
/// while the load runs — repeatedly kills the current coordinator and
/// rejoins a fresh member, measuring the kill-to-reconfigured latency
/// of each re-election alongside the client-side request latency.
fn bench_cluster_churn_cmd(
    opts: &Opts,
    load: crate::cluster::ClusterLoadOptions,
    w: usize,
    n: u64,
) -> Result<String, String> {
    use crate::ctrl::testbed::{agreed_config, wait_until};
    use std::time::{Duration, Instant};

    let nodes = u64_opt(opts, "nodes", 3)? as usize;
    if nodes < 2 {
        return Err("--churn needs --nodes >= 2 (a kill must leave members to re-elect)".into());
    }
    let kills = u64_opt(opts, "kills", 2)? as usize;
    if kills == 0 {
        return Err("--kills must be >= 1 in --churn mode".into());
    }
    let cache_cap = u64_opt(opts, "cache-cap", 1024)? as usize;

    struct Member {
        svc: ServerHandle,
        ctrl: crate::ctrl::CtrlHandle,
    }
    let start_member = |seeds: Vec<String>| -> Result<Member, String> {
        let svc = crate::svc::start(SvcConfig { cache_cap, ..SvcConfig::default() })
            .map_err(|e| format!("cannot start backend: {e}"))?;
        let ctrl = crate::ctrl::start(crate::ctrl::CtrlConfig {
            serve_addr: svc.addr.to_string(),
            seeds,
            ..Default::default()
        })
        .map_err(|e| format!("cannot start control node: {e}"))?;
        Ok(Member { svc, ctrl })
    };

    let first = start_member(Vec::new())?;
    let seeds = vec![first.ctrl.addr.to_string()];
    let mut members = vec![first];
    for _ in 1..nodes {
        members.push(start_member(seeds.clone())?);
    }

    let router = crate::cluster::start(crate::cluster::ClusterConfig {
        dynamic: true,
        ..Default::default()
    })
    .map_err(|e| format!("cannot start router: {e}"))?;
    let ctl = router.controller();
    let on_config = {
        let ctl = ctl.clone();
        std::sync::Arc::new(move |topo: &crate::ctrl::ClusterTopology| {
            let _ = ctl.update_backends(topo.epoch, &topo.backends);
        }) as crate::ctrl::ConfigCallback
    };
    let on_death = std::sync::Arc::new(move |addr: &str| {
        ctl.trip_backend(addr);
    }) as crate::ctrl::DeathCallback;
    let router_ctrl = crate::ctrl::start(crate::ctrl::CtrlConfig {
        role: crate::ctrl::Role::Router,
        serve_addr: router.addr.to_string(),
        seeds,
        recorder: Some(router.recorder()),
        on_config: Some(on_config),
        on_death: Some(on_death),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start router control node: {e}"))?;

    let boot = wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        let handles: Vec<&crate::ctrl::CtrlHandle> =
            members.iter().map(|m| &m.ctrl).chain([&router_ctrl]).collect();
        let c = agreed_config(&handles)?;
        (c.backends.len() == nodes && router.backends().len() == nodes).then_some(c)
    })
    .ok_or("the cluster did not elect a coordinator within 20 s")?;

    let requests = load.requests;
    let addr = router.addr.to_string();
    let loader = std::thread::spawn(move || crate::cluster::run_cluster_load(&addr, &load));

    let mut reelections: Vec<Duration> = Vec::new();
    let mut rejoins: Vec<Duration> = Vec::new();
    let mut epoch = boot.epoch;
    for i in 0..kills {
        // Trigger each kill on observed load progress, spaced across
        // the run, so every re-election happens under live traffic.
        let target = requests * (i as u64 + 1) / (kills as u64 + 1);
        let armed = Instant::now();
        while router.requests_seen() < target && armed.elapsed() < Duration::from_secs(60) {
            std::thread::sleep(Duration::from_micros(500));
        }
        let before = wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
            let handles: Vec<&crate::ctrl::CtrlHandle> =
                members.iter().map(|m| &m.ctrl).chain([&router_ctrl]).collect();
            agreed_config(&handles)
        })
        .ok_or_else(|| format!("no agreed coordinator before kill {}", i + 1))?;
        let vi = members
            .iter()
            .position(|m| m.ctrl.member_id() == before.coordinator)
            .ok_or("the coordinator is not one of our members")?;
        let victim = members.remove(vi);
        let t0 = Instant::now();
        victim.svc.shutdown();
        victim.ctrl.shutdown();
        let re = wait_until(Duration::from_secs(30), Duration::from_millis(5), || {
            let handles: Vec<&crate::ctrl::CtrlHandle> =
                members.iter().map(|m| &m.ctrl).chain([&router_ctrl]).collect();
            let c = agreed_config(&handles)?;
            (c.epoch > before.epoch
                && c.backends.len() == members.len()
                && router.epoch() == c.epoch)
                .then_some(c)
        })
        .ok_or_else(|| format!("re-election {} did not complete within 30 s", i + 1))?;
        reelections.push(t0.elapsed());
        epoch = re.epoch;

        // Rejoin a fresh member through a survivor, and wait for the
        // coordinator to fold it into the next config.
        let t1 = Instant::now();
        members.push(start_member(vec![members[0].ctrl.addr.to_string()])?);
        let rj = wait_until(Duration::from_secs(30), Duration::from_millis(5), || {
            let handles: Vec<&crate::ctrl::CtrlHandle> =
                members.iter().map(|m| &m.ctrl).chain([&router_ctrl]).collect();
            let c = agreed_config(&handles)?;
            (c.epoch > epoch && c.backends.len() == members.len() && router.epoch() == c.epoch)
                .then_some(c)
        })
        .ok_or_else(|| format!("rejoin {} did not converge within 30 s", i + 1))?;
        rejoins.push(t1.elapsed());
        epoch = rj.epoch;
    }

    let report = loader
        .join()
        .map_err(|_| "load thread panicked".to_string())?
        .map_err(|e| format!("load generation failed: {e}"))?;
    router_ctrl.shutdown();
    for m in members {
        m.ctrl.shutdown();
        m.svc.shutdown();
    }
    let summary = router.shutdown();

    reelections.sort();
    rejoins.sort();
    if opts.contains_key("json") {
        let num = |v: f64| crate::svc::Json::Str(format!("{v:.1}"));
        let n_ = |v: u64| crate::svc::Json::Num(v as i128);
        return Ok(crate::svc::json::obj(vec![
            ("command", crate::svc::Json::Str("bench-cluster-churn".into())),
            ("nodes", n_(nodes as u64)),
            ("kills", n_(kills as u64)),
            ("requests", n_(requests)),
            ("bootstrap_epoch", n_(boot.epoch)),
            ("final_epoch", n_(epoch)),
            ("reelection_p50_ms", num(percentile_ms(&reelections, 0.50))),
            ("reelection_p95_ms", num(percentile_ms(&reelections, 0.95))),
            ("rejoin_p50_ms", num(percentile_ms(&rejoins, 0.50))),
            ("rejoin_p95_ms", num(percentile_ms(&rejoins, 0.95))),
            ("client_failures", n_(report.failed)),
        ])
        .to_string());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "self-hosting churn: {nodes} nodes, {kills} coordinator kill(s) + rejoin(s) \
         under {requests} requests ({w} rings of n={n})",
    );
    let _ = writeln!(out, "epochs: bootstrap {} -> final {}", boot.epoch, epoch);
    let _ = writeln!(
        out,
        "re-election latency (kill -> every member and the router on the new epoch): \
         p50 {:.0} ms, p95 {:.0} ms",
        percentile_ms(&reelections, 0.50),
        percentile_ms(&reelections, 0.95),
    );
    let _ = writeln!(
        out,
        "rejoin convergence (join -> folded into the pushed config): \
         p50 {:.0} ms, p95 {:.0} ms",
        percentile_ms(&rejoins, 0.50),
        percentile_ms(&rejoins, 0.95),
    );
    let _ = write!(out, "{summary}");
    out.push_str(&report.pretty());
    let _ = writeln!(out, "client-visible failures across all kills: {}", report.failed);
    Ok(out)
}

/// Renders a byte count for humans (binary units).
fn fmt_bytes(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{bytes} B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

/// `hre bench-core`: raw simulation-engine throughput, no sockets involved.
///
/// For each ring size the command builds one seeded exact-multiplicity-`k`
/// ring, then times a batch of complete elections (Ak and Bk under the
/// round-robin scheduler) fanned over the parallel sweep runner, and
/// reports elections per second, messages per second, and a peak-memory
/// proxy: `n·⌈space/8⌉` bytes of process state plus `16 B` per pooled
/// in-flight message slot bounded by `n` links at the peak single-link
/// backlog. `--threads` sets the sweep fan-out (default: all cores);
/// `--json` emits the table machine-readably instead.
fn bench_core_cmd(opts: &Opts) -> Result<String, String> {
    let sizes: Vec<usize> = match opts.get("sizes") {
        Some(s) => s
            .split(',')
            .map(|x| x.trim().parse::<usize>().map_err(|e| format!("bad --sizes: {e}")))
            .collect::<Result<_, _>>()?,
        None => vec![8, 32, 128, 512],
    };
    let k = u64_opt(opts, "k", 3)? as usize;
    if k < 2 {
        return Err("--k must be >= 2 (Bk requires it)".into());
    }
    if sizes.is_empty() || sizes.iter().any(|&n| n <= k) {
        return Err(format!("--sizes entries must all exceed --k ({k})"));
    }
    let threads = u64_opt(
        opts,
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
    )? as usize;
    if threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    let seed = u64_opt(opts, "seed", 9000)?;
    let mut rng = StdRng::seed_from_u64(seed);

    // `--algo` benches one registry engine; the default stays the ak/bk
    // pair. Rings are drawn to fit the engine's assumptions: engines in
    // the fully identified class get distinct-label rings, the rest the
    // exact-multiplicity-k homonym rings ak/bk are built for.
    let ids: Vec<AlgoId> = match opts.get("algo") {
        Some(name) => vec![AlgoId::parse(name).ok_or_else(|| {
            format!("unknown algorithm '{name}' (hre elect --algo list shows the registry)")
        })?],
        None => vec![AlgoId::Ak, AlgoId::Bk],
    };
    let rings: Vec<(usize, RingLabeling)> = sizes
        .iter()
        .map(|&n| {
            let needs_distinct = ids.iter().any(|id| {
                let a = id.engine().assumptions();
                a.distinct_labels || a.unique_max
            });
            let ring = if needs_distinct {
                generate::random_k1(n, &mut rng)
            } else {
                generate::random_exact_multiplicity(n, k, &mut rng)
            };
            (n, ring)
        })
        .collect();

    let mut table =
        Table::new(["n", "algo", "runs", "wall ms", "runs/s", "msgs/s", "peak mem (proxy)"]);
    let mut json_rows = Vec::new();
    for (n, ring) in &rings {
        for &id in &ids {
            let (engine, algo) = (id.engine(), id.name());
            engine
                .supports(ring)
                .and_then(|()| engine.admit(ring, k))
                .map_err(|e| format!("bench-core --algo {algo}: {e}"))?;
            // Bk's message count grows as k²n², so its batches shrink faster.
            let runs =
                if id == AlgoId::Bk { (1 << 18) / (k * k * n * n) } else { (1 << 20) / (n * n) };
            let runs = runs.clamp(1, 64);
            let batch: Vec<usize> = (0..runs).collect();
            let t0 = std::time::Instant::now();
            let reps = crate::sim::sweep_map(&batch, threads, |_, _| {
                let o = engine.run(ring, k, &mut RoundRobinSched::default(), false);
                (o.accepted, o.leader, o.metrics)
            });
            let wall = t0.elapsed().as_secs_f64();
            if reps.iter().any(|(clean, leader, _)| !clean || leader.is_none()) {
                return Err(format!("bench-core: {algo} run unclean on n={n} (engine bug)"));
            }
            let m = &reps[0].2;
            let total_msgs: u64 = reps.iter().map(|(_, _, m)| m.messages).sum();
            let runs_per_s = runs as f64 / wall;
            let msgs_per_s = total_msgs as f64 / wall;
            let rss = *n as u64 * m.peak_space_bits.div_ceil(8)
                + *n as u64 * m.peak_link_occupancy as u64 * 16;
            table.row([
                n.to_string(),
                algo.into(),
                runs.to_string(),
                format!("{:.2}", wall * 1e3),
                format!("{runs_per_s:.0}"),
                format!("{msgs_per_s:.0}"),
                fmt_bytes(rss),
            ]);
            json_rows.push(format!(
                "{{\"n\": {n}, \"algo\": \"{algo}\", \"runs\": {runs}, \
                 \"wall_ms\": {:.3}, \"runs_per_s\": {runs_per_s:.1}, \
                 \"msgs_per_s\": {msgs_per_s:.0}, \"rss_proxy_bytes\": {rss}}}",
                wall * 1e3
            ));
        }
    }
    if opts.contains_key("json") {
        return Ok(format!(
            "{{\n  \"command\": \"bench-core\",\n  \"k\": {k},\n  \"seed\": {seed},\n  \
             \"threads\": {threads},\n  \"rows\": [\n    {}\n  ]\n}}\n",
            json_rows.join(",\n    ")
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "engine throughput — complete elections, sim transport, round-robin \
         scheduler (k={k}, seed={seed}, threads={threads})"
    );
    out.push_str(&table.render());
    out.push_str(
        "peak mem (proxy) = n·⌈space/8⌉ process state + 16 B per pooled \
         in-flight message slot (n links × peak backlog)\n",
    );
    Ok(out)
}

// ---- dst: whole-stack deterministic simulation ----------------------

fn dst_world_opts(opts: &Opts) -> crate::dst::WorldOptions {
    crate::dst::WorldOptions {
        planted_regression: opts.contains_key("regression"),
        collect_transcript: opts.contains_key("transcript"),
        record_spans: opts.contains_key("spans"),
    }
}

fn dst_scenario_kinds(opts: &Opts) -> Result<Vec<crate::dst::ScenarioKind>, String> {
    match opts.get("scenarios") {
        None => Ok(crate::dst::ScenarioKind::ALL.to_vec()),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                let s = s.trim();
                crate::dst::ScenarioKind::parse(s)
                    .ok_or_else(|| format!("unknown scenario '{s}' (backend-kill | partition | slow-links | flap-storm | coordinator-churn | mixed | algo-mix)"))
            })
            .collect(),
    }
}

/// Renders one run's outcome: plan header, counters, verdict, and the
/// optional transcript / span-tree dumps.
fn dst_render_outcome(
    plan: &crate::dst::ScenarioPlan,
    out: &crate::dst::RunOutcome,
    regression: bool,
) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "scenario {} seed {}: {} backends, {} requests, {} fault(s), {:.1} virtual seconds{}",
        plan.kind.as_str(),
        plan.seed,
        plan.backends,
        out.stats.requests,
        plan.faults.len(),
        plan.duration_us as f64 / 1e6,
        if regression { " [planted regression armed]" } else { "" },
    );
    let s = &out.stats;
    let _ = writeln!(
        text,
        "served: {} ok, {} invalid, {} busy, {} failed  \
         (hedges {}, failovers {}, timeouts {}, cache {}/{} hit/miss)",
        s.ok,
        s.invalid,
        s.busy,
        s.failed,
        s.hedges,
        s.failovers,
        s.timeouts,
        s.cache_hits,
        s.cache_misses,
    );
    let _ = writeln!(
        text,
        "cluster: {} elections, {} config accepts ({} rejects), \
         {} suspects, {} breaker opens",
        s.elections, s.config_accepts, s.config_rejects, s.suspects, s.breaker_opens,
    );
    let _ = writeln!(text, "transcript hash: {:016x}", out.hash);
    if out.violations.is_empty() {
        let _ = writeln!(text, "invariants: all hold");
    } else {
        let _ = writeln!(text, "invariants: {} violation(s)", out.violations.len());
        for v in &out.violations {
            let _ = writeln!(text, "  {v}");
        }
    }
    if let Some(lines) = &out.transcript {
        let _ = writeln!(text, "--- transcript ({} events) ---", lines.len());
        for l in lines {
            let _ = writeln!(text, "{l}");
        }
    }
    if let Some(spans) = &out.spans {
        let _ = writeln!(text, "--- spans ---");
        text.push_str(spans);
    }
    text
}

fn dst_outcome_json(plan: &crate::dst::ScenarioPlan, out: &crate::dst::RunOutcome) -> String {
    crate::svc::json::obj(vec![
        ("plan", plan.to_json()),
        ("transcript_hash", crate::svc::Json::Str(format!("{:016x}", out.hash))),
        (
            "violations",
            crate::svc::Json::Arr(
                out.violations.iter().map(|v| crate::svc::Json::Str(v.clone())).collect(),
            ),
        ),
        ("stats", out.stats.to_json()),
    ])
    .to_string()
}

/// `hre dst run`: one deterministic whole-stack simulation. The same
/// scenario + seed always prints the same transcript hash.
fn dst_run_cmd(opts: &Opts) -> Result<String, String> {
    let seed = u64_opt(opts, "seed", 0)?;
    let kind = match opts.get("scenario") {
        Some(s) => {
            crate::dst::ScenarioKind::parse(s).ok_or_else(|| format!("unknown scenario '{s}'"))?
        }
        None => crate::dst::ScenarioKind::Mixed,
    };
    let plan = crate::dst::ScenarioPlan::generate(kind, seed);
    let out = crate::dst::run_plan(&plan, &dst_world_opts(opts));
    if opts.contains_key("json") {
        return Ok(dst_outcome_json(&plan, &out));
    }
    Ok(dst_render_outcome(&plan, &out, opts.contains_key("regression")))
}

/// `hre dst sweep`: fan seeded scenario instances over the parallel
/// sweep runner. The summary hash folds every instance's transcript
/// hash in index order, so it is invariant under `--threads`.
fn dst_sweep_cmd(opts: &Opts) -> Result<String, String> {
    let kinds = dst_scenario_kinds(opts)?;
    let count = u64_opt(opts, "count", 200)? as usize;
    if count == 0 {
        return Err("--count must be >= 1".into());
    }
    let threads = u64_opt(
        opts,
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
    )? as usize;
    if threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    let seed = u64_opt(opts, "seed", 0)?;
    let wopts = crate::dst::WorldOptions {
        planted_regression: opts.contains_key("regression"),
        ..Default::default()
    };
    let summary = crate::dst::sweep(&kinds, count, threads, seed, &wopts);
    let mut artifact_note = String::new();
    if let Some(path) = opts.get("artifact") {
        if let Some(failure) = summary.failures.first() {
            // Ship the minimized reproducer, not the raw instance: the
            // artifact is for humans bisecting a regression.
            let (minimal, violations) = crate::dst::minimize(&failure.plan, &wopts);
            let minimal_hash = crate::dst::run_plan(&minimal, &wopts).hash;
            let minimized = crate::dst::Failure {
                idx: failure.idx,
                plan: minimal,
                violations,
                hash: minimal_hash,
            };
            let text = crate::dst::artifact_json(&minimized, wopts.planted_regression);
            std::fs::write(path, &text)
                .map_err(|e| format!("cannot write artifact to {path}: {e}"))?;
            artifact_note = format!("replay artifact (minimized) written to {path}\n");
        } else {
            artifact_note = format!("no failures; nothing written to {path}\n");
        }
    }
    if opts.contains_key("json") {
        let n = |v: u64| crate::svc::Json::Num(v as i128);
        return Ok(crate::svc::json::obj(vec![
            ("instances", n(summary.instances as u64)),
            ("summary_hash", crate::svc::Json::Str(format!("{:016x}", summary.hash))),
            ("failures", n(summary.failures.len() as u64)),
            (
                "scenarios",
                crate::svc::Json::Arr(
                    kinds.iter().map(|k| crate::svc::Json::Str(k.as_str().into())).collect(),
                ),
            ),
            ("seed", n(seed)),
            ("regression", crate::svc::Json::Bool(wopts.planted_regression)),
            ("totals", summary.totals.to_json()),
        ])
        .to_string());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "swept {} instance(s) over {} scenario kind(s) on {} thread(s), base seed {}",
        summary.instances,
        kinds.len(),
        threads,
        seed,
    );
    let _ = writeln!(out, "summary hash: {:016x} (thread-count invariant)", summary.hash);
    let t = &summary.totals;
    let _ = writeln!(
        out,
        "totals: {} requests ({} ok / {} invalid / {} busy / {} failed), \
         {} elections, {} breaker opens",
        t.requests, t.ok, t.invalid, t.busy, t.failed, t.elections, t.breaker_opens,
    );
    if summary.failures.is_empty() {
        let _ = writeln!(out, "invariants: all hold on every instance");
    } else {
        let _ = writeln!(out, "invariants: {} failing instance(s)", summary.failures.len());
        for f in summary.failures.iter().take(5) {
            let _ = writeln!(
                out,
                "  instance {} (scenario {}, seed {}): {}",
                f.idx,
                f.plan.kind.as_str(),
                f.plan.seed,
                f.violations.first().map(String::as_str).unwrap_or("?"),
            );
        }
        if summary.failures.len() > 5 {
            let _ = writeln!(out, "  ... and {} more", summary.failures.len() - 5);
        }
    }
    out.push_str(&artifact_note);
    Ok(out)
}

/// `hre dst replay`: re-run a sweep failure from its artifact and fail
/// loudly if the transcript hash drifts from the recorded one.
fn dst_replay_cmd(opts: &Opts) -> Result<String, String> {
    let path = opts.get("artifact").ok_or("--artifact is required")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read artifact {path}: {e}"))?;
    let (plan, regression, expected) = crate::dst::parse_artifact(&text)?;
    let wopts = crate::dst::WorldOptions {
        planted_regression: regression,
        collect_transcript: opts.contains_key("transcript"),
        record_spans: opts.contains_key("spans"),
    };
    let out = crate::dst::run_plan(&plan, &wopts);
    if out.hash != expected {
        return Err(format!(
            "replay diverged: artifact recorded transcript hash {expected:016x}, \
             this run produced {:016x} (the simulation is no longer deterministic \
             or the world model changed)",
            out.hash
        ));
    }
    if opts.contains_key("json") {
        return Ok(dst_outcome_json(&plan, &out));
    }
    let mut s = format!("replayed {path}: transcript hash {expected:016x} reproduced\n");
    s.push_str(&dst_render_outcome(&plan, &out, regression));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run_cli(list: &[&str]) -> Result<String, String> {
        let a = args(list);
        let (cmd, opts) = parse(&a).ok_or("parse error")?;
        dispatch(&cmd, &opts)
    }

    #[test]
    fn parse_splits_command_and_options() {
        let (cmd, opts) =
            parse(&args(&["elect", "--ring", "1,2,2", "--k", "2", "--phases"])).expect("parses");
        assert_eq!(cmd, "elect");
        assert_eq!(opts.get("ring").unwrap(), "1,2,2");
        assert_eq!(opts.get("k").unwrap(), "2");
        assert_eq!(opts.get("phases").unwrap(), "true");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse(&args(&[])).is_none());
        assert!(parse(&args(&["elect", "ring", "1,2"])).is_none()); // missing --
        assert!(parse(&args(&["elect", "--ring"])).is_none()); // missing value
    }

    #[test]
    fn classify_figure1() {
        let out = run_cli(&["classify", "--ring", "1,3,1,3,2,2,1,2"]).unwrap();
        assert!(out.contains("p0[1]*"), "{out}");
        assert!(out.contains("mlty=3"), "{out}");
        assert!(out.contains("U*=false"), "{out}");
    }

    #[test]
    fn elect_all_algorithms_on_suitable_rings() {
        for algo in ["ak", "ak-ref", "bk"] {
            let out = run_cli(&["elect", "--ring", "1,2,2", "--algo", algo, "--k", "2"]).unwrap();
            assert!(out.contains("elected p0"), "{algo}: {out}");
            assert!(out.contains("spec satisfied"), "{algo}: {out}");
        }
        for algo in ["cr", "peterson", "oracle-n", "max-uid"] {
            let out = run_cli(&["elect", "--ring", "4,1,3,2", "--algo", algo]).unwrap();
            assert!(out.contains("spec satisfied"), "{algo}: {out}");
        }
        // Stabilizing engine: accepted under its own discipline, with the
        // tolerated never-halts violations suppressed from the report.
        let out = run_cli(&["elect", "--ring", "2,1,3,1", "--algo", "content-oblivious"]).unwrap();
        assert!(out.contains("elected p2"), "{out}");
        assert!(out.contains("spec satisfied"), "{out}");
        assert!(!out.contains("violation:"), "{out}");
    }

    #[test]
    fn algo_list_prints_the_registry() {
        let out = run_cli(&["elect", "--algo", "list"]).unwrap();
        for id in AlgoId::ALL {
            assert!(out.contains(id.name()), "missing {id:?}: {out}");
        }
        assert!(out.contains("stabilizing"), "{out}");
        assert!(out.contains("unique max"), "{out}");
    }

    #[test]
    fn new_engines_reject_unsupported_transports_and_rings() {
        let err = run_cli(&[
            "elect",
            "--ring",
            "2,1,3,1",
            "--algo",
            "content-oblivious",
            "--transport",
            "threads",
        ])
        .unwrap_err();
        assert!(err.contains("never halts"), "{err}");
        let err =
            run_cli(&["elect", "--ring", "4,1,3,2", "--algo", "max-uid", "--transport", "tcp"])
                .unwrap_err();
        assert!(err.contains("no wire codec"), "{err}");
        // The label cap guards the n*M pulse budget.
        let err =
            run_cli(&["elect", "--ring", "1,5000", "--algo", "content-oblivious"]).unwrap_err();
        assert!(err.contains("labels <= 4096"), "{err}");
        // Duplicated max label: the spec monitor reports the failure.
        let err = run_cli(&["elect", "--ring", "7,1,7,2", "--algo", "max-uid"]).unwrap_err();
        assert!(err.contains("did not satisfy"), "{err}");
    }

    #[test]
    fn bench_core_single_algo() {
        let out = run_cli(&[
            "bench-core",
            "--sizes",
            "8",
            "--algo",
            "content-oblivious",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(out.contains("content-oblivious"), "{out}");
        let err = run_cli(&["bench-core", "--sizes", "8", "--algo", "quantum"]).unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn elect_over_threads_transport() {
        let out = run_cli(&[
            "elect",
            "--ring",
            "1,2,2",
            "--algo",
            "ak",
            "--k",
            "2",
            "--transport",
            "threads",
        ])
        .unwrap();
        assert!(out.contains("elected p0"), "{out}");
        assert!(out.contains("threads transport"), "{out}");
    }

    #[test]
    fn elect_over_tcp_transport() {
        let out = run_cli(&[
            "elect",
            "--ring",
            "1,2,2",
            "--algo",
            "ak",
            "--k",
            "2",
            "--transport",
            "tcp",
        ])
        .unwrap();
        assert!(out.contains("elected p0"), "{out}");
        assert!(out.contains("tcp transport"), "{out}");
        assert!(out.contains("wire:"), "{out}");
        assert!(out.contains("rtt:"), "{out}");
    }

    #[test]
    fn elect_over_tcp_with_stress_faults() {
        let out = run_cli(&[
            "elect",
            "--ring",
            "1,3,1,3,2,2,1,2",
            "--algo",
            "bk",
            "--k",
            "3",
            "--transport",
            "tcp",
            "--faults",
            "stress",
            "--fault-seed",
            "42",
        ])
        .unwrap();
        assert!(out.contains("elected p0"), "{out}");
        assert!(out.contains("faults injected"), "{out}");
        // The wire was hostile yet the spec held.
        assert!(out.contains("spec satisfied"), "{out}");
    }

    #[test]
    fn transport_rejects_sim_only_flags_and_unknowns() {
        let err = run_cli(&["elect", "--ring", "1,2,2", "--transport", "tcp", "--sched", "sync"])
            .unwrap_err();
        assert!(err.contains("--sched"), "{err}");
        let err =
            run_cli(&["elect", "--ring", "1,2,2", "--transport", "carrier-pigeon"]).unwrap_err();
        assert!(err.contains("unknown transport"), "{err}");
        let err = run_cli(&["elect", "--ring", "1,2,2", "--transport", "tcp", "--faults", "wat"])
            .unwrap_err();
        assert!(err.contains("unknown fault mix"), "{err}");
        let err = run_cli(&["elect", "--ring", "1,2,2", "--faults", "stress"]).unwrap_err();
        assert!(err.contains("--faults applies only to --transport tcp"), "{err}");
        let err =
            run_cli(&["elect", "--ring", "1,2,2", "--transport", "threads", "--fault-seed", "7"])
                .unwrap_err();
        assert!(err.contains("--fault-seed applies only to --transport tcp"), "{err}");
    }

    #[test]
    fn elect_reports_failures_as_errors() {
        // Chang-Roberts on homonyms: double election -> Err.
        let err = run_cli(&["elect", "--ring", "5,1,5,2", "--algo", "cr"]).unwrap_err();
        assert!(err.contains("did not satisfy"), "{err}");
    }

    #[test]
    fn elect_with_phases_and_diagram() {
        let out = run_cli(&[
            "elect",
            "--ring",
            "1,3,1,3,2,2,1,2",
            "--algo",
            "bk",
            "--k",
            "3",
            "--phases",
            "--diagram",
        ])
        .unwrap();
        assert!(out.contains("activity grid"), "{out}");
        assert!(out.contains("phases"), "{out}");
        assert!(out.contains("●p0(g=1)"), "{out}");
    }

    #[test]
    fn phases_rejected_for_non_bk() {
        let err = run_cli(&["elect", "--ring", "1,2,2", "--algo", "ak", "--phases"]).unwrap_err();
        assert!(err.contains("--phases applies"), "{err}");
    }

    #[test]
    fn phases_of_an_unclean_bk_run_are_a_spec_error() {
        // A symmetric ring, and k below the ring's multiplicity (3): no
        // clean run, so no phase table to rebuild.
        for flags in [&["--ring", "1,2,1,2"][..], &["--ring", "1,1,1,2,2,3", "--k", "2"]] {
            let mut cmd = vec!["elect", "--algo", "bk", "--phases"];
            cmd.extend_from_slice(flags);
            let err = run_cli(&cmd).unwrap_err();
            assert!(err.ends_with("election did not satisfy the specification"), "{err}");
            assert!(!err.contains("phases ("), "{err}");
        }
    }

    #[test]
    fn sim_elections_pass_the_daemons_cost_caps() {
        // Refused before a run, with the bytes `--json` (and the daemon)
        // answer.
        let json_error = |flags: &[&str]| {
            let mut cmd = vec!["elect", "--json"];
            cmd.extend_from_slice(flags);
            run_cli(&cmd).unwrap_err()
        };
        let ak = ["--ring", "1,2,3", "--algo", "ak", "--k", "1000000000"];
        let t0 = std::time::Instant::now();
        let err = run_cli(&[&["elect"][..], &ak].concat()).unwrap_err();
        assert!(t0.elapsed() < std::time::Duration::from_millis(100), "{:?}", t0.elapsed());
        assert!(err.contains("needs at least 18000000009 actions"), "{err}");
        assert_eq!(err, json_error(&ak));

        let ak_ref = ["--ring", "1,2", "--algo", "ak-ref", "--k", "128"];
        let err = run_cli(&[&["elect"][..], &ak_ref].concat()).unwrap_err();
        assert!(err.contains("(2k+1)*n <= 512 (got 514)"), "{err}");
        assert_eq!(err, json_error(&ak_ref));

        let co = ["--ring", "1,5000,6000", "--algo", "content-oblivious"];
        let err = run_cli(&[&["elect"][..], &co].concat()).unwrap_err();
        assert!(err.contains("(got 5000)"), "{err}");
        assert_eq!(err, json_error(&co));
    }

    #[test]
    fn generate_each_class() {
        for class in ["k1", "ustar", "exact", "a-kk"] {
            let out =
                run_cli(&["generate", "--n", "8", "--k", "3", "--class", class, "--seed", "5"])
                    .unwrap();
            assert!(out.contains("n=8"), "{class}: {out}");
        }
        assert!(run_cli(&["generate", "--n", "8", "--class", "bogus"]).is_err());
        assert!(run_cli(&["generate"]).is_err());
    }

    #[test]
    fn impossibility_produces_a_certificate() {
        let out = run_cli(&["impossibility", "--n", "3", "--k0", "1", "--seed", "5"]).unwrap();
        assert!(out.contains("Theorem 1 confirmed"), "{out}");
    }

    #[test]
    fn verify_model_checks_both_algorithms() {
        let out = run_cli(&["verify", "--ring", "1,2,2"]).unwrap();
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("Ak(k=2)"), "{out}");
    }

    #[test]
    fn unknown_command_and_scheduler_errors() {
        assert!(run_cli(&["frobnicate"]).is_err());
        assert!(run_cli(&["elect", "--ring", "1,2,2", "--sched", "wat"]).is_err());
        let out = run_cli(&["elect", "--ring", "1,2,2", "--sched", "random:9"]).unwrap();
        assert!(out.contains("spec satisfied"), "{out}");
        let out = run_cli(&["elect", "--ring", "1,2,2", "--sched", "starve:0"]).unwrap();
        assert!(out.contains("spec satisfied"), "{out}");
        let out = run_cli(&["elect", "--ring", "1,2,2", "--sched", "sync"]).unwrap();
        assert!(out.contains("spec satisfied"), "{out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli(&["help"]).unwrap();
        assert!(out.contains("USAGE"), "{out}");
        assert!(out.contains("hre serve"), "{out}");
        assert!(out.contains("bench-svc"), "{out}");
        assert!(out.contains("cluster-route"), "{out}");
        assert!(out.contains("bench-cluster"), "{out}");
        assert!(out.contains("bench-core"), "{out}");
    }

    #[test]
    fn elect_json_emits_the_service_document() {
        let out =
            run_cli(&["elect", "--ring", "1,2,2", "--algo", "ak", "--k", "2", "--json"]).unwrap();
        assert!(out.starts_with(r#"{"algo":"ak","ring":[1,2,2],"n":3,"k":2,"leader":0"#), "{out}");
        assert!(!out.ends_with('\n'), "body must be the exact response bytes");
        // The explicit flags above are the defaults: same bytes without them.
        let out2 = run_cli(&["elect", "--ring", "1,2,2", "--json"]).unwrap();
        assert_eq!(out, out2);
        // sched rr is the daemon's scheduler, so it is accepted explicitly.
        let out3 = run_cli(&["elect", "--ring", "1,2,2", "--json", "--sched", "rr"]).unwrap();
        assert_eq!(out, out3);
    }

    #[test]
    fn elect_json_rejects_incompatible_flags() {
        for extra in
            [&["--transport", "tcp"][..], &["--sched", "sync"], &["--diagram"], &["--phases"]]
        {
            let mut cmd = vec!["elect", "--ring", "1,2,2", "--json"];
            cmd.extend_from_slice(extra);
            let err = run_cli(&cmd).unwrap_err();
            assert!(err.contains("--json") || err.contains("json"), "{extra:?}: {err}");
        }
        // Spec violations surface as errors, same as the plain path.
        let err = run_cli(&["elect", "--ring", "5,1,5,2", "--algo", "cr", "--json"]).unwrap_err();
        assert!(err.contains("did not satisfy"), "{err}");
    }

    #[test]
    fn bench_svc_runs_against_an_in_process_daemon() {
        let out = run_cli(&[
            "bench-svc",
            "--ring",
            "1,2,2",
            "--requests",
            "20",
            "--connections",
            "2",
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(out.contains("in-process daemon"), "{out}");
        assert!(out.contains("20 ok"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("req/s"), "{out}");
    }

    #[test]
    fn elect_batch_file_matches_per_entry_json() {
        let path = std::env::temp_dir().join(format!("hre_batch_cli_{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"[{"ring":[1,2,2],"algo":"ak","k":2},{"ring":[1]},{"ring":[5,1,5,2],"algo":"cr"}]"#,
        )
        .unwrap();
        let out = run_cli(&["elect", "--batch-file", path.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&path).ok();
        // Element 0 is byte-identical to the single-election JSON mode.
        let single =
            run_cli(&["elect", "--ring", "1,2,2", "--algo", "ak", "--k", "2", "--json"]).unwrap();
        assert!(out.starts_with(&format!("[{single},")), "{out}");
        // Element 1 is invalid and answers in place; element 2 is a
        // spec failure (CR on a non-U* ring) — also an error document.
        assert!(out.contains(r#"{"error":"ring needs at least two labels"}"#), "{out}");
        assert!(out.ends_with(']') && out.matches("\"error\"").count() == 2, "{out}");
    }

    #[test]
    fn elect_batch_file_rejects_single_election_flags() {
        for extra in [&["--ring", "1,2,2"][..], &["--algo", "ak"], &["--transport", "tcp"]] {
            let mut cmd = vec!["elect", "--batch-file", "/nonexistent.json"];
            cmd.extend_from_slice(extra);
            let err = run_cli(&cmd).unwrap_err();
            assert!(err.contains("--batch-file"), "{extra:?}: {err}");
        }
        let err = run_cli(&["elect", "--batch-file", "/nonexistent.json"]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn bench_svc_batched_and_pipelined_modes() {
        let out = run_cli(&[
            "bench-svc",
            "--ring",
            "1,2,2",
            "--requests",
            "24",
            "--connections",
            "2",
            "--workers",
            "2",
            "--batch",
            "4",
            "--pipeline",
            "2",
        ])
        .unwrap();
        assert!(out.contains("batched: 4 entries"), "{out}");
        assert!(out.contains("pipelined: 2 requests"), "{out}");
        assert!(out.contains("24 ok"), "{out}");
    }

    #[test]
    fn serve_rejects_unbindable_address() {
        let err = run_cli(&["serve", "--addr", "definitely-not-an-address"]).unwrap_err();
        assert!(err.contains("cannot start daemon"), "{err}");
    }

    #[test]
    fn bench_cluster_runs_against_an_in_process_cluster() {
        let out = run_cli(&[
            "bench-cluster",
            "--rings",
            "3",
            "--n",
            "16",
            "--requests",
            "18",
            "--connections",
            "2",
            "--nodes",
            "2",
        ])
        .unwrap();
        assert!(out.contains("in-process router"), "{out}");
        assert!(out.contains("over 2 backends"), "{out}");
        assert!(out.contains("18 ok"), "{out}");
        assert!(out.contains("by backend:"), "{out}");
    }

    #[test]
    fn bench_core_reports_throughput() {
        let out =
            run_cli(&["bench-core", "--sizes", "8,12", "--threads", "2", "--seed", "7"]).unwrap();
        assert!(out.contains("runs/s"), "{out}");
        assert!(out.contains("msgs/s"), "{out}");
        assert!(out.contains("bk"), "{out}");
        assert!(out.contains("threads=2"), "{out}");
        assert!(out.contains("peak mem (proxy)"), "{out}");
    }

    #[test]
    fn bench_core_json_and_bad_flags() {
        let out = run_cli(&["bench-core", "--sizes", "8", "--json"]).unwrap();
        assert!(out.contains("\"command\": \"bench-core\""), "{out}");
        assert!(out.contains("\"algo\": \"ak\""), "{out}");
        assert!(out.contains("\"algo\": \"bk\""), "{out}");
        assert!(out.contains("\"msgs_per_s\""), "{out}");
        assert!(out.contains("\"rss_proxy_bytes\""), "{out}");
        assert!(run_cli(&["bench-core", "--sizes", "2"]).is_err()); // n <= k
        assert!(run_cli(&["bench-core", "--k", "1"]).is_err());
        assert!(run_cli(&["bench-core", "--threads", "0"]).is_err());
        assert!(run_cli(&["bench-core", "--sizes", "wat"]).is_err());
    }

    #[test]
    fn cluster_route_requires_backends() {
        let err = run_cli(&["cluster-route"]).unwrap_err();
        assert!(err.contains("--backends is required"), "{err}");
    }

    #[test]
    fn trace_lists_recent_and_renders_one_tree() {
        let handle = crate::svc::start(SvcConfig::default()).expect("daemon");
        let addr = handle.addr.to_string();
        let mut c =
            crate::svc::Client::connect(&addr, std::time::Duration::from_secs(5)).expect("connect");
        let resp = c.post_json("/elect", r#"{"ring":[1,3,1,3,2,2,1,2],"algo":"ak"}"#).expect("ok");
        assert_eq!(resp.status, 200);
        let id = resp.header("x-trace-id").expect("trace id").to_string();

        let listing = run_cli(&["trace", "--addr", &addr]).unwrap();
        assert!(listing.contains(&id), "{listing}");
        assert!(listing.contains("request"), "{listing}");

        let tree = run_cli(&["trace", "--addr", &addr, "--id", &id]).unwrap();
        assert!(tree.contains(&format!("trace {id}")), "{tree}");
        assert!(tree.contains("execute"), "{tree}");
        assert!(tree.contains("election"), "{tree}");
        handle.shutdown();
    }

    #[test]
    fn trace_rejects_bad_ids_and_requires_addr() {
        assert!(run_cli(&["trace"]).unwrap_err().contains("--addr is required"));
        let handle = crate::svc::start(SvcConfig::default()).expect("daemon");
        let addr = handle.addr.to_string();
        let err = run_cli(&["trace", "--addr", &addr, "--id", "wat"]).unwrap_err();
        assert!(err.contains("bad --id"), "{err}");
        let err = run_cli(&["trace", "--addr", &addr, "--id", "00000000000000aa"]).unwrap_err();
        assert!(err.contains("not found"), "{err}");
        handle.shutdown();
    }

    #[test]
    fn parse_accepts_ctrl_and_churn_bare_flags() {
        let (cmd, opts) = parse(&args(&["serve", "--ctrl", "--join", "127.0.0.1:9"])).unwrap();
        assert_eq!(cmd, "serve");
        assert_eq!(opts.get("ctrl").unwrap(), "true");
        assert_eq!(opts.get("join").unwrap(), "127.0.0.1:9");
        let (cmd, opts) = parse(&args(&["bench-cluster", "--churn", "--kills", "1"])).unwrap();
        assert_eq!(cmd, "bench-cluster");
        assert_eq!(opts.get("churn").unwrap(), "true");
        assert_eq!(opts.get("kills").unwrap(), "1");
    }

    #[test]
    fn ctrl_status_and_ring_render_a_live_node() {
        let node = crate::ctrl::start(crate::ctrl::CtrlConfig {
            serve_addr: "127.0.0.1:1".into(),
            ..Default::default()
        })
        .expect("ctrl node");
        // A single-member cluster self-coordinates; wait for it.
        crate::ctrl::testbed::wait_until(
            std::time::Duration::from_secs(10),
            std::time::Duration::from_millis(20),
            || node.config(),
        )
        .expect("self-coordination");
        let addr = node.addr.to_string();

        let status = run_cli(&["ctrl-status", "--addr", &addr]).unwrap();
        assert!(status.contains("(backend)"), "{status}");
        assert!(status.contains("(this node)"), "{status}");
        assert!(status.contains("alive"), "{status}");
        assert!(status.contains("127.0.0.1:1"), "{status}");

        let ring = run_cli(&["ctrl-ring", "--addr", &addr]).unwrap();
        assert!(ring.contains("p0: node"), "{ring}");
        assert!(ring.contains("<- coordinator"), "{ring}");
        node.shutdown();

        assert!(run_cli(&["ctrl-status"]).unwrap_err().contains("--addr is required"));
        let plain = crate::svc::start(SvcConfig::default()).expect("daemon");
        let err = run_cli(&["ctrl-status", "--addr", &plain.addr.to_string()]).unwrap_err();
        assert!(err.contains("runs no control plane"), "{err}");
        plain.shutdown();
    }

    #[test]
    fn bench_cluster_churn_measures_reelection_under_load() {
        let out = run_cli(&[
            "bench-cluster",
            "--churn",
            "--kills",
            "1",
            "--requests",
            "150",
            "--rings",
            "6",
            "--n",
            "32",
            "--connections",
            "4",
        ])
        .unwrap();
        assert!(out.contains("re-election latency"), "{out}");
        assert!(out.contains("rejoin convergence"), "{out}");
        assert!(out.contains("client-visible failures across all kills: 0"), "{out}");
        // One kill and one rejoin each advance the epoch past bootstrap.
        assert!(out.contains("epochs: bootstrap"), "{out}");
    }

    #[test]
    fn bench_cluster_churn_rejects_bad_combinations() {
        let err = run_cli(&["bench-cluster", "--churn", "--addr", "127.0.0.1:9"]).unwrap_err();
        assert!(err.contains("in-process only"), "{err}");
        let err = run_cli(&["bench-cluster", "--churn", "--nodes", "1"]).unwrap_err();
        assert!(err.contains("--nodes >= 2"), "{err}");
        let err = run_cli(&["bench-cluster", "--churn", "--kills", "0"]).unwrap_err();
        assert!(err.contains("--kills"), "{err}");
    }

    #[test]
    fn bench_cluster_churn_json_reports_percentiles() {
        let out = run_cli(&[
            "bench-cluster",
            "--churn",
            "--kills",
            "1",
            "--requests",
            "150",
            "--rings",
            "6",
            "--n",
            "32",
            "--connections",
            "4",
            "--json",
        ])
        .unwrap();
        let doc = crate::svc::Json::parse(&out).expect("valid JSON");
        assert_eq!(
            doc.get("command").and_then(crate::svc::Json::as_str),
            Some("bench-cluster-churn")
        );
        assert_eq!(doc.get("kills").and_then(crate::svc::Json::as_u64), Some(1));
        assert!(doc.get("client_failures").and_then(crate::svc::Json::as_u64).is_some());
        for key in ["reelection_p50_ms", "reelection_p95_ms", "rejoin_p50_ms", "rejoin_p95_ms"] {
            let v = doc.get(key).and_then(crate::svc::Json::as_str).expect(key);
            assert!(v.parse::<f64>().unwrap() > 0.0, "{key}={v}");
        }
        let boot = doc.get("bootstrap_epoch").and_then(crate::svc::Json::as_u64).unwrap();
        let fin = doc.get("final_epoch").and_then(crate::svc::Json::as_u64).unwrap();
        assert!(fin > boot, "kill + rejoin must advance the epoch ({boot} -> {fin})");
    }

    #[test]
    fn dst_parse_takes_a_subcommand_word() {
        let (cmd, opts) = parse(&args(&["dst", "run", "--seed", "7", "--regression"])).unwrap();
        assert_eq!(cmd, "dst run");
        assert_eq!(opts.get("seed").unwrap(), "7");
        assert_eq!(opts.get("regression").unwrap(), "true");
        assert!(parse(&args(&["dst"])).is_none());
        assert!(parse(&args(&["dst", "--seed", "7"])).is_none());
        let err = run_cli(&["dst", "wat"]).unwrap_err();
        assert!(err.contains("unknown dst subcommand"), "{err}");
    }

    #[test]
    fn dst_run_is_deterministic_and_renders_both_forms() {
        let a = run_cli(&["dst", "run", "--seed", "11", "--scenario", "backend-kill"]).unwrap();
        let b = run_cli(&["dst", "run", "--seed", "11", "--scenario", "backend-kill"]).unwrap();
        assert_eq!(a, b, "same seed must render identically");
        assert!(a.contains("transcript hash:"), "{a}");
        assert!(a.contains("invariants: all hold"), "{a}");
        let j = run_cli(&["dst", "run", "--seed", "11", "--scenario", "backend-kill", "--json"])
            .unwrap();
        let doc = crate::svc::Json::parse(&j).expect("valid JSON");
        let hash = doc.get("transcript_hash").and_then(crate::svc::Json::as_str).unwrap();
        assert!(a.contains(hash), "text and JSON agree on the hash");
        assert!(run_cli(&["dst", "run", "--scenario", "wat"]).is_err());
    }

    #[test]
    fn dst_run_reports_the_requests_it_injected() {
        let run = ["dst", "run", "--seed", "3", "--scenario", "backend-kill"];
        let text = run_cli(&run).unwrap();
        let doc = crate::svc::Json::parse(&run_cli(&[&run[..], &["--json"]].concat()).unwrap())
            .expect("valid JSON");
        let count = |section: &str| {
            doc.get(section).and_then(|s| s.get("requests")).and_then(crate::svc::Json::as_u64)
        };
        let injected = count("stats").expect("stats.requests");
        assert!(count("plan").expect("plan.requests") > injected, "late arrivals are dropped");
        assert!(text.contains(&format!(" {injected} requests,")), "{text}");
    }

    #[test]
    fn dst_run_dumps_transcript_and_spans_on_request() {
        let out = run_cli(&[
            "dst",
            "run",
            "--seed",
            "3",
            "--scenario",
            "backend-kill",
            "--transcript",
            "--spans",
        ])
        .unwrap();
        assert!(out.contains("--- transcript ("), "{out}");
        assert!(out.contains("--- spans ---"), "{out}");
        assert!(out.contains("fault kill"), "{out}");
    }

    #[test]
    fn dst_sweep_artifact_round_trips_through_replay() {
        let dir = std::env::temp_dir().join(format!("hre-dst-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let path_s = path.to_str().unwrap();
        let out = run_cli(&[
            "dst",
            "sweep",
            "--scenarios",
            "backend-kill",
            "--count",
            "60",
            "--threads",
            "2",
            "--seed",
            "99",
            "--regression",
            "--artifact",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("failing instance"), "{out}");
        assert!(out.contains("replay artifact (minimized) written"), "{out}");
        let replay = run_cli(&["dst", "replay", "--artifact", path_s]).unwrap();
        assert!(replay.contains("reproduced"), "{replay}");
        assert!(replay.contains("I2 unattributed"), "{replay}");
        // A corrupted hash must make the replay fail loudly.
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, _, hash) = crate::dst::parse_artifact(&text).unwrap();
        let broken = text.replace(&format!("{hash:016x}"), &format!("{:016x}", hash ^ 1));
        assert_ne!(broken, text);
        std::fs::write(&path, broken).unwrap();
        let err = run_cli(&["dst", "replay", "--artifact", path_s]).unwrap_err();
        assert!(err.contains("replay diverged"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dst_sweep_healthy_is_thread_invariant_via_json() {
        let run = |threads: &str| {
            let out = run_cli(&[
                "dst",
                "sweep",
                "--scenarios",
                "slow-links",
                "--count",
                "8",
                "--threads",
                threads,
                "--seed",
                "5",
                "--json",
            ])
            .unwrap();
            let doc = crate::svc::Json::parse(&out).expect("valid JSON");
            assert_eq!(doc.get("failures").and_then(crate::svc::Json::as_u64), Some(0));
            doc.get("summary_hash").and_then(crate::svc::Json::as_str).unwrap().to_string()
        };
        assert_eq!(run("1"), run("3"), "summary hash must not depend on --threads");
        assert!(run_cli(&["dst", "sweep", "--count", "0"]).is_err());
        assert!(run_cli(&["dst", "sweep", "--scenarios", "nope"]).is_err());
        assert!(run_cli(&["dst", "replay"]).is_err());
    }

    #[test]
    fn serve_flags_reach_the_service_config() {
        let mut opts = Opts::new();
        opts.insert("max-body".into(), "2048".into());
        opts.insert("trace-cap".into(), "128".into());
        opts.insert("slow-ms".into(), "0".into());
        let cfg = svc_config_from(&opts, "127.0.0.1:0").unwrap();
        assert_eq!(cfg.max_body, 2048);
        assert_eq!(cfg.trace_cap, 128);
        assert_eq!(cfg.slow_threshold, None);
        let cfg = svc_config_from(&Opts::new(), "127.0.0.1:0").unwrap();
        assert_eq!(cfg.max_body, crate::svc::DEFAULT_MAX_BODY);
        assert_eq!(cfg.trace_cap, hre_runtime::trace::DEFAULT_TRACE_CAP);
        assert_eq!(cfg.slow_threshold, Some(std::time::Duration::from_secs(1)));
    }
}
