//! The daemons under test, run as child processes of the release `hre`
//! binary with deployment settings only (addresses and the backend
//! list), and read from outside: `/healthz`, `/metrics` and `/proc`.

use crate::pin::CpuSet;
use crate::wire::Conn;
use std::collections::HashMap;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The single daemon of the unrouted workloads.
const SVC_ADDR: &str = "127.0.13.1:7701";
/// The router of `routed-batch`.
const ROUTER_ADDR: &str = "127.0.13.1:7702";
/// The three backends of `routed-batch`. Fixed addresses make the
/// consistent-hash placement of every key the same on every run and
/// every commit; the port is below the ephemeral range.
pub const BACKENDS: [&str; 3] = ["127.0.13.2:7701", "127.0.13.3:7701", "127.0.13.4:7701"];

/// USER_HZ: `/proc/<pid>/stat` counts CPU time in 1/100 s on Linux.
const TICKS_PER_SEC: f64 = 100.0;

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// How daemons are started: the release `hre` binary, and the CPU they
/// share with the load generator.
pub struct Launcher {
    pub hre: PathBuf,
    pub cpu: Option<CpuSet>,
}

/// A running daemon; dropping it kills the process and reaps it.
pub struct Daemon {
    pub addr: String,
    child: Child,
}

impl Daemon {
    pub fn spawn(launcher: &Launcher, args: &[&str], addr: &str) -> Result<Daemon, String> {
        if Conn::connect(addr).is_ok() {
            return Err(format!("{addr} is already taken by another process"));
        }
        let mut cmd = Command::new(&launcher.hre);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
        let cpus = launcher.cpu;
        // SAFETY: the hook runs in the forked child before `exec`. It makes
        // two system calls, on plain integers and on a mask built before
        // the fork, and allocates nothing. The first makes the kernel kill
        // the daemon if the benchmark dies without reaping it.
        unsafe {
            cmd.pre_exec(move || {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                cpus.map_or(Ok(()), |c| c.apply())
            });
        }
        let child =
            cmd.spawn().map_err(|e| format!("cannot spawn {}: {e}", launcher.hre.display()))?;
        Ok(Daemon { addr: addr.to_string(), child })
    }

    /// Polls `GET /healthz` until it answers 200.
    pub fn wait_healthy(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon on {} exited early ({status})", self.addr));
            }
            if let Ok(reply) = Conn::connect(&self.addr).and_then(|mut c| c.get("/healthz")) {
                if reply.status == 200 {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon on {} not healthy after {timeout:?}", self.addr));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// User plus system CPU seconds so far, threads that exited included.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = read_proc(self.child.id(), "stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).ok_or("bad stat");
        Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_SEC)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = read_proc(self.child.id(), "status")?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM")?;
        Ok(kb / 1024.0)
    }

    pub fn scrape(&self) -> Result<Scrape, String> {
        let reply = Conn::connect(&self.addr)
            .and_then(|mut c| c.get("/metrics"))
            .map_err(|e| format!("scrape of {}: {e}", self.addr))?;
        Ok(Scrape::parse(&String::from_utf8_lossy(&reply.body)))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}"))
        .map_err(|e| format!("/proc/{pid}/{file}: {e}"))
}

/// The daemons of one workload: the front address the load goes to, and
/// the svc backends behind it (the front itself when unrouted).
pub struct Topology {
    pub front: String,
    pub backends: Vec<Daemon>,
    pub router: Option<Daemon>,
}

impl Topology {
    /// Spawns the daemons and waits until each answers `/healthz`.
    pub fn start(launcher: &Launcher, routed: bool) -> Result<Topology, String> {
        let health = Duration::from_secs(20);
        if !routed {
            let mut svc = Daemon::spawn(launcher, &["serve", "--addr", SVC_ADDR], SVC_ADDR)?;
            svc.wait_healthy(health)?;
            return Ok(Topology { front: SVC_ADDR.into(), backends: vec![svc], router: None });
        }
        let mut backends = BACKENDS
            .iter()
            .map(|addr| Daemon::spawn(launcher, &["serve", "--addr", addr], addr))
            .collect::<Result<Vec<_>, _>>()?;
        for b in &mut backends {
            b.wait_healthy(health)?;
        }
        let list = BACKENDS.join(",");
        let mut router = Daemon::spawn(
            launcher,
            &["cluster-route", "--addr", ROUTER_ADDR, "--backends", &list],
            ROUTER_ADDR,
        )?;
        router.wait_healthy(health)?;
        Ok(Topology { front: ROUTER_ADDR.into(), backends, router: Some(router) })
    }

    pub fn all(&self) -> impl Iterator<Item = &Daemon> {
        self.backends.iter().chain(self.router.iter())
    }

    pub fn cpu_seconds(&self) -> Result<f64, String> {
        self.all().map(Daemon::cpu_seconds).sum()
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.all().map(Daemon::peak_rss_mb).sum()
    }

    /// The backends' counters summed, and the router's.
    pub fn scrape(&self) -> Result<(Scrape, Option<Scrape>), String> {
        let mut svc = Scrape::default();
        for b in &self.backends {
            svc.add(&b.scrape()?);
        }
        Ok((svc, self.router.as_ref().map(Daemon::scrape).transpose()?))
    }
}

/// A parsed Prometheus text exposition: series (name plus labels) to value.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    series: HashMap<String, f64>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape { series }
    }

    fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.series {
            *self.series.entry(k.clone()).or_default() += v;
        }
    }

    /// The sum over every label set of metric `name`; `None` when the
    /// daemon does not export it.
    pub fn total(&self, name: &str) -> Option<f64> {
        let mut found = None;
        for (series, v) in &self.series {
            let base = series.split('{').next().unwrap_or(series);
            if base == name {
                *found.get_or_insert(0.0) += v;
            }
        }
        found
    }

    /// One exact series, labels included.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.series.get(series).copied()
    }
}

/// Counter growth between two scrapes; `None` when the later scrape
/// lacks the metric. Labeled series appear on first use, so one absent
/// from the earlier scrape counts from 0.
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> Option<f64> {
    Some(after.total(name)? - before.total(name).unwrap_or(0.0))
}

/// Growth of one labeled series of metric `name`; `None` when the later
/// scrape lacks the whole metric, 0 when only this label set is unused.
pub fn delta_series(before: &Scrape, after: &Scrape, name: &str, labels: &str) -> Option<f64> {
    after.total(name)?;
    let series = format!("{name}{{{labels}}}");
    Some(after.get(&series).unwrap_or(0.0) - before.get(&series).unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_label_sets_and_reports_missing_series() {
        let s = Scrape::parse(
            "# TYPE x counter\nx{algo=\"ak\"} 2\nx{algo=\"bk\"} 3.5\ny 1\nh_sum{stage=\"queue-wait\"} 0.25\n",
        );
        assert_eq!(s.total("x"), Some(5.5));
        assert_eq!(s.total("y"), Some(1.0));
        assert_eq!(s.total("z"), None);
        assert_eq!(s.get("h_sum{stage=\"queue-wait\"}"), Some(0.25));
        let later = Scrape::parse("x{algo=\"ak\"} 4\nx{algo=\"bk\"} 3.5\n");
        assert_eq!(delta(&s, &later, "x"), Some(2.0));
        assert_eq!(delta(&s, &later, "y"), None);
        assert_eq!(delta(&Scrape::default(), &later, "x"), Some(7.5));
        assert_eq!(delta_series(&s, &later, "x", "algo=\"cr\""), Some(0.0));
        assert_eq!(delta_series(&s, &later, "x", "algo=\"ak\""), Some(2.0));
        assert_eq!(delta_series(&later, &s, "h_sum", "stage=\"queue-wait\""), Some(0.25));
        assert_eq!(delta_series(&s, &later, "h_sum", "stage=\"queue-wait\""), None);
    }
}
