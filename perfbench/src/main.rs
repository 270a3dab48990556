//! perfbench — the served-election benchmark.
//!
//! Starts the release `hre` daemons as child processes with default
//! settings (addresses only), drives one workload from a seeded generator
//! over two keep-alive connections, checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; a wrong
//! answer makes the command exit 1.
//!
//! Workloads: `hot-rotations` (every request a cache hit), `cold-distinct`
//! (every request an engine run) and `routed-batch` (16-entry batches
//! through `hre cluster-route` to three backends).
//!
//! The daemons, the generator and the benchmark's own threads share one
//! CPU ([`pin`]), and while it runs every CPU it may use is kept from
//! idling by a `SCHED_IDLE` spinner ([`pin::KeepAwake`]). Between phases
//! it times a fixed probe on that CPU ([`speed`]), and reports every time metric of a phase scaled
//! by how much slower than the reference the host ran it, so a host slowed
//! by other tenants does not read as slower code. It prints, for every
//! round, the host's steal share, its slowdown and the daemons' CPU per
//! election, and the unscaled summaries.
//!
//! Usage, from the repository root: `bash perfbench/run.sh --workload
//! hot-rotations --seed 1 --seconds 36 --trace 0` builds `hre` and this
//! program in release and runs it; the program itself also takes
//! `--hre <path to a release hre>`.

mod check;
mod daemons;
mod load;
mod pin;
mod rng;
mod speed;
mod stats;
mod trace;
mod wire;
mod workload;

use check::Verdict;
use daemons::{delta, delta_series, Launcher, Scrape, Topology};
use load::{Pace, Phase};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wire::Conn;
use workload::{Exchange, Pool, Spec, Stream, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Shares of `--seconds` given to the closed-loop, light and heavy phases
/// of an end-to-end run. The traced run gives them half as much.
const PHASE_SHARES: [f64; 3] = [0.4, 0.3, 0.3];
/// An end-to-end run cycles through its three phases this many times, so a
/// slow drift of the host touches every phase alike, and reports medians
/// over the rounds, so a burst of interference that slows a few rounds
/// moves no metric. The host's speed is read before and after every
/// phase, and it changes within seconds, so short phases follow it more
/// closely. The traced run makes one round.
const ROUNDS: usize = 16;
/// Rounds in which the hypervisor took more than this share of the host's
/// CPU are left out of an end-to-end run's summaries, as long as half the
/// rounds remain. In such rounds the generator itself wakes milliseconds
/// late: one `hot-rotations` run with 11–23% steal in half its rounds had
/// a heavy-rate p50 of 4–38 ms there and 43–52 µs in the others.
const STEAL_LIMIT: f64 = 0.05;
/// Bare and traced replays per traced run, alternating.
const REPLAY_ROUNDS: usize = 2;
/// Exchanges in the traced run's router-overhead pass.
const OVERHEAD_EXCHANGES: usize = 2_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    hre: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload hot-rotations|cold-distinct|routed-batch \
                     --seed N --seconds S --trace 0|1 --hre PATH-TO-RELEASE-hre";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut opts = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected {flag:?}\n{USAGE}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value\n{USAGE}"))?;
        opts.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| opts.get(name).ok_or_else(|| format!("missing --{name}\n{USAGE}"));
    let workload =
        Workload::parse(get("workload")?).ok_or_else(|| format!("unknown workload\n{USAGE}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let hre = PathBuf::from(get("hre")?);
    if !hre.is_file() {
        return Err(format!("no hre binary at {}", hre.display()));
    }
    if hre.parent().and_then(Path::file_name).is_none_or(|d| d != "release") {
        return Err(format!("{} is not a release build of hre", hre.display()));
    }
    Ok(Args { workload, seed, seconds, trace, hre })
}

/// Reads the probe now and returns how much slower than the reference the
/// host ran since the reading `last`, which it replaces: the mean of the
/// two.
fn slow_since(last: &mut f64) -> f64 {
    let now = speed::slowdown();
    let slow = (*last + now) / 2.0;
    *last = now;
    slow
}

/// One reported metric; `None` when a series it needs is missing.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// Every exchange sent, how many did not come back correct, and the
/// timer slack the generator ran with.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    examples: Vec<String>,
    slack_ns: Option<u64>,
}

impl Tally {
    fn phase(&mut self, p: &Phase) {
        self.attempted += p.exchanges;
        self.failed += p.errors();
        self.wrong += p.wrong;
        self.examples.extend(p.wrong_examples.iter().cloned());
        self.slack_ns = self.slack_ns.or(p.slack_ns);
    }

    fn verdict(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Correct => return,
            Verdict::Wrong(why) => {
                self.wrong += 1;
                self.examples.push(why);
            }
            Verdict::Refused | Verdict::Failed(_) => {}
        }
        self.failed += 1;
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build it with --release");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(wrong) if wrong => 1,
        Ok(_) => 0,
        Err(why) => {
            eprintln!("perfbench: {why}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs and reports; `Ok(true)` when some answer was wrong.
fn run(argv: &[String]) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_at_start = host_cpu_ticks();
    let load_at_start = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    let args = parse_args(argv)?;
    let spec = args.workload.spec();
    let cpus = pin::allowed();
    let cpu = cpus.first().copied();
    let _awake = pin::KeepAwake::start(&cpus)
        .map_err(|e| format!("cannot start the idle-CPU spinners: {e}"))?;
    let launcher = Launcher { hre: args.hre.clone(), cpu: cpu.map(|c| pin::CpuSet::of(&[c])) };
    // This thread, the probe it runs and the threads it creates from here
    // on, the generator's included, keep to the CPU; the daemons get it at
    // spawn.
    if let Some(set) = launcher.cpu {
        set.apply().map_err(|e| format!("cannot set CPU affinity: {e}"))?;
    }
    let mut tally = Tally::default();
    println!(
        "perfbench {} --seed {} --seconds {} --trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        traced(&args, &launcher, &spec, &mut tally)?
    } else {
        end_to_end(&args, &launcher, &spec, &mut tally)?
    };
    println!(
        "provenance: git_sha {} | build release | nproc {} | loadavg at start {} | host steal {} | generator timer slack {} ns | cpus: daemons and generator on {}, kept from idling by SCHED_IDLE spinners on {:?} | daemons: {} with default settings",
        git_sha(),
        nproc,
        load_at_start,
        steal_share(cpu_at_start, host_cpu_ticks())
            .map_or("unknown".into(), |s| format!("{:.2}%", s * 100.0)),
        tally.slack_ns.map_or("unknown".into(), |s| s.to_string()),
        cpu.map_or("any CPU".into(), |c| format!("CPU {c}")),
        cpus,
        args.hre.display()
    );
    for why in tally.examples.iter().take(3) {
        println!("WRONG ANSWER: {why}");
    }
    let mut json = String::new();
    for m in &metrics {
        match m.value {
            Some(v) if v.is_finite() => {
                println!("metric {:<28} {:>16.4} {}", m.name, v, m.unit);
                if !json.is_empty() {
                    json.push(',');
                }
                json.push_str(&format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, v, m.unit
                ));
            }
            _ => println!("metric {:<28} {:>16} {}", m.name, "missing", m.unit),
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        json
    );
    Ok(tally.wrong > 0)
}

/// The host's CPU time so far, in ticks: (steal, all states).
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of the host's CPU time a hypervisor took away between two
/// readings: runs made while it is high are slow and ragged.
fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The exchanges one phase of `seconds` may take from the stream: a
/// closed loop when `rate` is `None`, else an open loop's schedule.
fn budget(spec: &Spec, rate: Option<f64>, seconds: f64) -> usize {
    match (spec.pool, rate) {
        (Pool::Cyclic(_), _) => usize::MAX,
        (Pool::Distinct { closed_rate }, None) => (closed_rate * seconds).ceil() as usize,
        (Pool::Distinct { .. }, Some(rate)) => {
            (rate * seconds * 1.05).ceil() as usize + 2 * load::CONNECTIONS
        }
    }
}

/// Exchanges a stream holds for `rounds` rounds of the three phases,
/// given their total lengths in seconds.
fn stream_len(spec: &Spec, shares: [f64; 3], rounds: usize) -> usize {
    match spec.pool {
        Pool::Cyclic(n) => n,
        Pool::Distinct { .. } => {
            let [closed, light, heavy] = shares.map(|s| s / rounds as f64);
            rounds
                * (budget(spec, None, closed)
                    + budget(spec, Some(spec.light_rate), light)
                    + budget(spec, Some(spec.heavy_rate), heavy))
        }
    }
}

/// Sends the stream's warm-up set over one connection.
fn warm(front: &str, stream: &Stream, tally: &mut Tally) -> Result<(), String> {
    if stream.warmup.is_empty() {
        return Ok(());
    }
    let mut conn = Conn::connect(front).map_err(|e| format!("warm-up connect: {e}"))?;
    for ex in &stream.warmup {
        let reply = conn.exchange(&ex.wire).map_err(|e| format!("warm-up: {e}"))?;
        tally.verdict(check::check(ex, &reply));
    }
    Ok(())
}

/// One round of the three end-to-end phases, and the daemons' counters
/// around them.
struct Round {
    closed: Phase,
    light: Phase,
    heavy: Phase,
    /// Daemon CPU seconds during the closed loop.
    cpu_s: f64,
    /// The host's steal share over the round.
    steal: Option<f64>,
    /// The host's slowdown in the closed, light and heavy phases.
    slow: [f64; 3],
    /// Backend counters before closed, after closed, after light, after heavy.
    svc: [Scrape; 4],
    router: [Option<Scrape>; 4],
}

fn measure(
    topo: &Topology,
    stream: &Stream,
    spec: &Spec,
    [closed_s, light_s, heavy_s]: [f64; 3],
    rounds: usize,
    record_actions: bool,
    tally: &mut Tally,
) -> Result<Vec<Round>, String> {
    let front = topo.front.as_str();
    let per = |s: f64| s / rounds as f64;
    // Where the next phase's slice of the stream starts. A distinct pool
    // gives every phase a fixed slice, used up or not; a cyclic one goes
    // on where the last phase stopped.
    let mut next = 0usize;
    let mut phase = |rate: Option<f64>, seconds: f64| -> Result<Phase, String> {
        let n = budget(spec, rate, seconds);
        let slice = next..next.saturating_add(n);
        let pace = rate.map_or(Pace::Closed, |rate| Pace::Open { rate, limit: spec.limit });
        let p = load::run(front, stream, slice, pace, seconds, record_actions);
        if p.exhausted && rate.is_some() {
            return Err(format!("an open-loop schedule ran past its {n} requests"));
        }
        next += if n == usize::MAX { p.exchanges as usize } else { n };
        Ok(p)
    };
    let mut out = Vec::with_capacity(rounds);
    let mut probe = speed::slowdown();
    for r in 0..rounds {
        let ticks0 = host_cpu_ticks();
        let (s0, r0) = topo.scrape()?;
        let cpu0 = topo.cpu_seconds()?;
        let closed = phase(None, per(closed_s))?;
        let cpu_s = topo.cpu_seconds()? - cpu0;
        let (s1, r1) = topo.scrape()?;
        let slow_closed = slow_since(&mut probe);
        let light = phase(Some(spec.light_rate), per(light_s))?;
        let (s2, r2) = topo.scrape()?;
        let slow_light = slow_since(&mut probe);
        let heavy = phase(Some(spec.heavy_rate), per(heavy_s))?;
        let (s3, r3) = topo.scrape()?;
        let slow_heavy = slow_since(&mut probe);
        let steal = steal_share(ticks0, host_cpu_ticks());
        println!(
            "round {r}: host steal {}, host slowdown {slow_closed:.3} / {slow_light:.3} / {slow_heavy:.3}, daemon CPU {:.1} us per election in the closed loop",
            steal.map_or("unknown".into(), |s| format!("{:.2}%", s * 100.0)),
            cpu_s * 1e6 / closed.elections_ok.max(1) as f64
        );
        for (name, p) in
            [("closed loop", &closed), ("open loop, light", &light), ("open loop, heavy", &heavy)]
        {
            tally.phase(p);
            let show =
                |v: &[f64], q| stats::percentile(v, q).map_or("-".into(), |v| format!("{v:.1}"));
            let latency = &p.latency_us;
            println!(
                "round {r} {name}: {:.2} s, {} exchanges, {} elections answered, {} refused, {} failed, {} wrong, latency p50 {} p90 {} p99 {} us, generator late p50 {} us p99 {} us{}",
                p.elapsed_s,
                p.exchanges,
                p.elections_ok,
                p.refused,
                p.failed,
                p.wrong,
                show(latency, 0.5),
                show(latency, 0.9),
                show(latency, 0.99),
                show(&p.late_us, 0.5),
                show(&p.late_us, 0.99),
                if p.exhausted { " (its slice of distinct requests used up: ended early)" } else { "" }
            );
        }
        out.push(Round {
            closed,
            light,
            heavy,
            cpu_s,
            steal,
            slow: [slow_closed, slow_light, slow_heavy],
            svc: [s0, s1, s2, s3],
            router: [r0, r1, r2, r3],
        });
    }
    Ok(out)
}

fn end_to_end(
    args: &Args,
    launcher: &Launcher,
    spec: &Spec,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let shares = PHASE_SHARES.map(|f| f * args.seconds);
    let stream = args.workload.stream(args.seed, stream_len(spec, shares, ROUNDS));
    // Every set-up is timed and scaled by the host's slowdown around it,
    // like the phases' times.
    let (mut setups, mut scaled_setups) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut topo = None;
    let mut probe = speed::slowdown();
    for _ in 0..SETUPS {
        drop(topo.take());
        let t0 = Instant::now();
        let t = Topology::start(launcher, spec.routed)?;
        warm(&t.front, &stream, tally)?;
        let s = t0.elapsed().as_secs_f64();
        setups.push(s);
        scaled_setups.push(s / slow_since(&mut probe));
        topo = Some(t);
    }
    let topo = topo.expect("at least one set-up");
    println!(
        "set-ups (s, unscaled): {}",
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    );
    let all = measure(&topo, &stream, spec, shares, ROUNDS, false, tally)?;
    let rss = topo.peak_rss_mb()?;
    drop(topo);
    let calm = stats::calm_rounds(&all.iter().map(|r| r.steal).collect::<Vec<_>>(), STEAL_LIMIT);
    println!(
        "summaries over rounds {calm:?} (host steal at most {}%, or the least-stolen half)",
        STEAL_LIMIT * 100.0
    );
    let rounds: Vec<&Round> = calm.iter().map(|&i| &all[i]).collect();
    // Medians over those rounds, so interference that slows some rounds
    // and not others moves no metric: of every closed-loop window's rate,
    // of each round's open-loop p50, SLO share and closed-loop CPU per
    // election. Each time is first scaled to the reference host speed by
    // its phase's slowdown (a rate multiplied, a duration divided); the
    // unscaled summaries are printed beside them.
    let over_rounds = |f: &dyn Fn(&Round) -> Option<f64>| {
        stats::median(&rounds.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
    };
    let summaries = |scaled: bool| {
        let slow = |s: f64| if scaled { s } else { 1.0 };
        let windows: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.closed.window_rates().into_iter().map(|w| w * slow(r.slow[0])))
            .collect();
        [
            stats::median(&windows),
            over_rounds(&|r| Some(stats::median(&r.light.latency_us)? / slow(r.slow[1]))),
            over_rounds(&|r| Some(stats::median(&r.heavy.latency_us)? / slow(r.slow[2]))),
            over_rounds(&|r| {
                let cpu_us = r.cpu_s * 1e6 / r.closed.elections_ok.max(1) as f64;
                Some(cpu_us / slow(r.slow[0]))
            }),
        ]
    };
    let [throughput, p50, p50_loaded, cpu_us] = summaries(true);
    let show = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.1}"));
    let [raw_throughput, raw_p50, raw_p50_loaded, raw_cpu_us] = summaries(false).map(show);
    let slowdowns: Vec<f64> = rounds.iter().flat_map(|r| r.slow).collect();
    println!(
        "host slowdown over those rounds: median {} (min {}, max {}); unscaled: throughput_eps {raw_throughput} 1/s, p50_us {raw_p50} us, p50_loaded_us {raw_p50_loaded} us, cpu_us_per_elect {raw_cpu_us} us, setup_s {:.4} s",
        stats::median(&slowdowns).map_or("-".into(), |s| format!("{s:.3}")),
        stats::percentile(&slowdowns, 0.0).map_or("-".into(), |s| format!("{s:.3}")),
        stats::percentile(&slowdowns, 1.0).map_or("-".into(), |s| format!("{s:.3}")),
        stats::median(&setups).unwrap_or(0.0),
    );
    let light: Vec<f64> = rounds.iter().flat_map(|r| r.light.latency_us.iter().copied()).collect();
    let heavy: Vec<f64> = rounds.iter().flat_map(|r| r.heavy.latency_us.iter().copied()).collect();
    // Reported for reading, not bounded: their run-to-run spread on a
    // shared 2-CPU host is far wider than any bound a regression check
    // could use.
    println!(
        "unbounded: p99_us {} us, p99_loaded_us {} us, error_share {:.6}",
        show(stats::percentile(&light, 0.99)),
        show(stats::percentile(&heavy, 0.99)),
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    Ok(vec![
        metric("throughput_eps", "1/s", throughput),
        metric("p50_us", "us", p50),
        metric("p50_loaded_us", "us", p50_loaded),
        metric(
            "slo_share",
            "share",
            over_rounds(&|r| Some(r.heavy.within_limit as f64 / r.heavy.exchanges.max(1) as f64)),
        ),
        metric("cpu_us_per_elect", "us", cpu_us),
        metric("rss_mb", "MiB", Some(rss)),
        metric(
            "ok_share",
            "share",
            Some(1.0 - tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        metric("setup_s", "s", stats::median(&scaled_setups)),
    ])
}

/// The direct sub-batches of a routed batch: what the router sends each
/// owning backend, with the leaders its answer must carry.
fn sub_requests(ex: &Exchange, ring: &hre_cluster::HashRing) -> Vec<(usize, Exchange)> {
    let entries = hre_svc::batch_from_json(ex.body()).expect("generated batches are valid");
    let mut groups: BTreeMap<usize, (Vec<String>, Vec<u16>)> = BTreeMap::new();
    for (entry, &leader) in entries.into_iter().zip(&ex.leaders) {
        let req = entry.expect("generated entries are valid");
        let owner = ring.primary(hre_cluster::shard_key(&req.labels)).expect("three backends");
        let group = groups.entry(owner).or_default();
        group.0.push(req.to_json().to_string());
        group.1.push(leader);
    }
    groups
        .into_iter()
        .map(|(owner, (docs, leaders))| {
            let body = hre_svc::batch_response_body(&docs);
            (
                owner,
                Exchange {
                    wire: workload::wire("/elect/batch", body.as_bytes()),
                    leaders,
                    exact: None,
                },
            )
        })
        .collect()
}

/// Router overhead with every cache warm: each of the first `n` routed
/// batches through the router, against the slowest of its sub-batches
/// sent straight to their owners. Returns the per-exchange overheads in
/// nanoseconds.
fn router_overhead(
    topo: &daemons::Topology,
    stream: &Stream,
    ring: &hre_cluster::HashRing,
    n: usize,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut front = Conn::connect(&topo.front).map_err(|e| format!("connect: {e}"))?;
    let mut direct = topo
        .backends
        .iter()
        .map(|b| Conn::connect(&b.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut overhead_ns = Vec::with_capacity(n);
    for i in 0..n {
        let ex = stream.get(i).expect("routed streams are cyclic");
        let subs = sub_requests(ex, ring);
        let mut send_subs = |tally: &mut Tally| -> Result<f64, String> {
            let mut slowest: f64 = 0.0;
            for (owner, sub) in &subs {
                let t0 = Instant::now();
                let reply =
                    direct[*owner].exchange(&sub.wire).map_err(|e| format!("direct: {e}"))?;
                slowest = slowest.max(t0.elapsed().as_nanos() as f64);
                tally.verdict(check::check(sub, &reply));
            }
            Ok(slowest)
        };
        // The first pass warms every owner's cache with the batch's keys.
        send_subs(tally)?;
        let t0 = Instant::now();
        let reply = front.exchange(&ex.wire).map_err(|e| format!("routed: {e}"))?;
        let routed_ns = t0.elapsed().as_nanos() as f64;
        tally.verdict(check::check(ex, &reply));
        overhead_ns.push(routed_ns - send_subs(tally)?);
    }
    Ok(overhead_ns)
}

fn traced(
    args: &Args,
    launcher: &Launcher,
    spec: &Spec,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let shares = PHASE_SHARES.map(|f| f * args.seconds * 0.5);
    let stream = args.workload.stream(args.seed, stream_len(spec, shares, 1).max(spec.replay));
    let backends: Vec<String> = daemons::BACKENDS.iter().map(|s| s.to_string()).collect();
    let ring = hre_cluster::HashRing::new(&backends, hre_cluster::hash::DEFAULT_VNODES);

    // 1. Daemon counters under the end-to-end phases (no spans).
    let topo = Topology::start(launcher, spec.routed)?;
    warm(&topo.front, &stream, tally)?;
    let m = measure(&topo, &stream, spec, shares, 1, true, tally)?.remove(0);
    drop(topo);

    // 2. In-process replays of the warm-up and the stream's first
    // exchanges: bare and with spans, alternating, on the daemons' CPU
    // (idle now), so layer costs and wire times come from the same core.
    let n = spec.replay;
    let replayed: Vec<&Exchange> = (0..n)
        .map(|i| stream.get(i).ok_or("the stream is shorter than the replay"))
        .collect::<Result<_, _>>()?;
    let wires: Vec<&[u8]> =
        stream.warmup.iter().chain(replayed.iter().copied()).map(|e| e.wire.as_slice()).collect();
    let model = || trace::Model::new(spec.routed.then_some(backends.as_slice()));
    let (mut bare, mut spanned, mut spans) = (Vec::new(), Vec::new(), trace::Spans::default());
    for _ in 0..REPLAY_ROUNDS {
        let mut md = model();
        let t0 = Instant::now();
        for w in &wires {
            std::hint::black_box(md.serve(w, &mut trace::Off));
        }
        bare.push(t0.elapsed().as_secs_f64());
        let (mut md, mut rec) = (model(), trace::Spans::default());
        let t0 = Instant::now();
        for w in &wires {
            std::hint::black_box(md.serve(w, &mut rec));
        }
        spanned.push(t0.elapsed().as_secs_f64());
        spans = rec;
    }
    let (own, costs) = trace::self_times(&spans.spans);
    let measured = &costs[stream.warmup.len()..];
    let per_request = |layer: trace::Layer, per_entry: bool| {
        let v: Vec<f64> = measured
            .iter()
            .map(|c| c.ns(layer) as f64 / if per_entry { c.entries().max(1) as f64 } else { 1.0 })
            .collect();
        stats::median(&v)
    };
    let per_call = |layer: trace::Layer, q: f64| {
        let v: Vec<f64> = spans
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &ns)| ns as f64)
            .collect();
        stats::percentile(&v, q)
    };

    // Hash placement of every replayed entry over the fixed backends.
    let mut route_ns = Vec::new();
    let mut owners = [0u64; 3];
    for ex in &replayed {
        let requests: Vec<hre_svc::ElectRequest> = if spec.routed {
            hre_svc::batch_from_json(ex.body())
                .expect("valid")
                .into_iter()
                .map(|e| e.expect("valid"))
                .collect()
        } else {
            vec![hre_svc::ElectRequest::from_json(ex.body()).expect("valid")]
        };
        for req in &requests {
            let t0 = Instant::now();
            let owner =
                std::hint::black_box(ring.preference_order(hre_cluster::shard_key(&req.labels)))[0];
            route_ns.push(t0.elapsed().as_nanos() as f64);
            owners[owner] += 1;
        }
    }
    let max_share = *owners.iter().max().expect("three backends") as f64
        / owners.iter().sum::<u64>().max(1) as f64;

    // 3. The same exchanges over one connection to fresh daemons, whose
    // caches see the same history as the replay's.
    let topo = Topology::start(launcher, spec.routed)?;
    warm(&topo.front, &stream, tally)?;
    let mut conn = Conn::connect(&topo.front).map_err(|e| format!("connect: {e}"))?;
    let (mut residual_ns, mut wire_ns_sum, mut engine_ns_sum, mut bytes) =
        (Vec::new(), 0.0, 0.0, 0u64);
    for (ex, cost) in replayed.iter().zip(measured) {
        let t0 = Instant::now();
        let reply = conn.exchange(&ex.wire).map_err(|e| format!("wire pass: {e}"))?;
        let ns = t0.elapsed().as_nanos() as f64;
        tally.verdict(check::check(ex, &reply));
        residual_ns.push(ns - cost.layers_ns() as f64);
        wire_ns_sum += ns;
        engine_ns_sum += cost.ns(trace::Layer::Engine) as f64;
        bytes += (ex.wire.len() + reply.wire_len) as u64;
    }
    drop(conn);

    // 4. Router overhead, on the routed workload only: the others have
    // no router, and report its metrics as 0.
    let overhead_ns = if spec.routed {
        router_overhead(&topo, &stream, &ring, n.min(OVERHEAD_EXCHANGES), tally)?
    } else {
        println!("router.*: 0, {} has no router", spec.name);
        vec![0.0]
    };
    drop(topo);

    let ratio = |num: Option<f64>, den: Option<f64>| Some(num? / den?);
    let router_ratio = |num: &str, den: &str| match (&m.router[0], &m.router[3]) {
        (Some(a), Some(b)) => ratio(delta(a, b, num), delta(a, b, den)),
        _ => Some(0.0),
    };
    let [s0, s1, _, s3] = &m.svc;
    let elections =
        (m.closed.elections_ok + m.light.elections_ok + m.heavy.elections_ok).max(1) as f64;
    let hits = delta(s0, s3, "hre_svc_cache_hits_total");
    let misses = delta(s0, s3, "hre_svc_cache_misses_total");
    let hit_ratio = ratio(hits, hits.zip(misses).map(|(h, m)| (h + m).max(1.0)));
    let workers = s1.total("hre_svc_workers");
    let busy = ratio(
        delta(s0, s1, "hre_svc_worker_busy_seconds_total"),
        workers.map(|w| w * m.closed.elapsed_s),
    );
    let stage = |name: &str| delta_series(s0, s3, name, "stage=\"queue-wait\"");
    let queue_wait = match (stage("hre_stage_seconds_sum"), stage("hre_stage_seconds_count")) {
        (Some(sum), Some(count)) if count > 0.0 => Some(sum * 1e6 / count),
        (Some(_), Some(_)) => {
            println!(
                "server.queue_wait_us: 0, no request of {} waited in the job queue",
                spec.name
            );
            Some(0.0)
        }
        _ => None,
    };
    let late: Vec<f64> = m.light.late_us.iter().chain(&m.heavy.late_us).copied().collect();
    println!("engine self time / one-connection wire time: {:.4}", engine_ns_sum / wire_ns_sum);
    println!(
        "replay: {} exchanges, bare {:.4} s, traced {:.4} s (medians of {REPLAY_ROUNDS})",
        wires.len(),
        stats::median(&bare).unwrap_or(0.0),
        stats::median(&spanned).unwrap_or(0.0)
    );
    let us = |v: Option<f64>| v.map(|ns| ns / 1000.0);
    Ok(vec![
        metric("http.parse_ns", "ns", per_request(trace::Layer::Parse, false)),
        metric("http.frame_ns", "ns", per_request(trace::Layer::Frame, false)),
        metric(
            "http.bytes_per_elect",
            "bytes",
            Some(bytes as f64 / (measured.len() * spec.per_exchange) as f64),
        ),
        metric("api.decode_ns", "ns", per_request(trace::Layer::Decode, true)),
        metric("api.encode_ns", "ns", per_request(trace::Layer::Encode, true)),
        metric("words.canon_ns", "ns", per_request(trace::Layer::Canon, true)),
        metric("cache.get_ns", "ns", per_request(trace::Layer::CacheGet, true)),
        metric("cache.insert_ns", "ns", per_call(trace::Layer::CacheInsert, 0.5)),
        metric("cache.hit_ratio", "share", hit_ratio),
        metric(
            "cache.evictions_per_kelect",
            "count",
            delta(s0, s3, "hre_svc_cache_evictions_total").map(|e| e * 1000.0 / elections),
        ),
        metric("engine.run_us.p50", "us", us(per_call(trace::Layer::Engine, 0.5))),
        metric("engine.run_us.p99", "us", us(per_call(trace::Layer::Engine, 0.99))),
        metric(
            "engine.actions_per_run",
            "count",
            Some((m.closed.actions + m.light.actions + m.heavy.actions) as f64 / elections),
        ),
        metric(
            "engine.runs_per_elect",
            "count",
            delta(s0, s3, "hre_election_run_seconds_count").map(|r| r / elections),
        ),
        metric("server.queue_wait_us", "us", queue_wait),
        metric("server.worker_busy_share", "share", busy),
        metric("server.residual_us", "us", us(stats::median(&residual_ns))),
        metric("hash.route_ns", "ns", stats::median(&route_ns)),
        metric("hash.max_share", "share", Some(max_share)),
        metric("router.overhead_us", "us", us(stats::median(&overhead_ns))),
        metric(
            "router.attempts_per_req",
            "count",
            router_ratio("hre_cluster_backend_requests_total", "hre_cluster_requests_total"),
        ),
        metric(
            "router.fanout_per_batch",
            "count",
            router_ratio("hre_cluster_batch_fanout_total", "hre_cluster_batch_requests_total"),
        ),
        metric("gen.late_us.p50", "us", stats::percentile(&late, 0.5)),
        metric("gen.late_us.p99", "us", stats::percentile(&late, 0.99)),
        metric(
            "trace.overhead_share",
            "share",
            ratio(stats::median(&spanned), stats::median(&bare)).map(|r| r - 1.0),
        ),
    ])
}
