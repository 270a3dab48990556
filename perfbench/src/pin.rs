//! CPU placement. The daemons and the load generator all run on the first
//! CPU this process may use, so the scheduler's placement, which otherwise
//! swings closed-loop throughput by more than 2×, is the same on every
//! run, and every handoff between the generator and a daemon is a context
//! switch on that CPU. Handing work to another virtual CPU takes an
//! interrupt through the hypervisor, whose cost follows the load of the
//! whole host rather than the speed of the CPU: when the host slowed down,
//! a socket round trip between two threads on the two vCPUs of one 2-vCPU
//! VM went from 7.6 µs to 12–39 µs, and closed-loop `hot-rotations`
//! throughput with the generator on the other vCPU fell 1.35 times as far
//! (in log terms) as the CPU's speed, which [`crate::speed`] reads. The
//! price is that the generator's own work shares the CPU, so closed-loop
//! throughput counts it too. While it measures, the benchmark also keeps
//! every CPU it may use from going idle (see [`KeepAwake`]).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// A `cpu_set_t` (1024 CPUs, as glibc defines it).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct CpuSet {
    bits: [u64; 16],
}

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    priority: i32,
}

const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

impl CpuSet {
    pub fn of(cpus: &[usize]) -> CpuSet {
        let mut set = CpuSet { bits: [0; 16] };
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            set.bits[c / 64] |= 1 << (c % 64);
        }
        set
    }

    /// Restricts the calling thread (and the threads it creates later,
    /// and a program it then executes) to this set. Makes one system
    /// call and allocates nothing, so it may run between `fork` and
    /// `exec`.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self` is a live, fully initialised buffer of exactly
        // `size_of::<CpuSet>()` bytes for the duration of the call, which
        // only reads it; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// One spinning thread per CPU at the lowest scheduling priority
/// (`SCHED_IDLE`), so none of those CPUs ever idles while the benchmark
/// measures. On a virtual machine an idle CPU halts, and waking a halted
/// virtual CPU for each arriving request goes through the hypervisor,
/// whose delay follows the load of the whole host: with the CPUs left to
/// halt, one shared 2-vCPU host served the same `hot-rotations` run at
/// 8k to 35k requests/s and a p50 of 50 µs to 1.4 ms, depending on the
/// minute. A spinner takes no CPU from the daemons or the generator: any
/// thread of normal priority that wakes on its CPU preempts it at once,
/// and while one runs the spinner's share is that of `SCHED_IDLE` (weight
/// 3 against 1024). Its CPU time is its own, outside the daemons'
/// `/proc` counters. Dropping it stops the threads and waits for them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner on each of `cpus`. A spinner that cannot make
    /// itself `SCHED_IDLE` on its CPU never spins, and the error is
    /// returned.
    pub fn start(cpus: &[usize]) -> io::Result<KeepAwake> {
        let mut awake = KeepAwake { stop: Arc::new(AtomicBool::new(false)), threads: Vec::new() };
        for &cpu in cpus {
            let (ready, started) = mpsc::channel();
            let stop = Arc::clone(&awake.stop);
            awake.threads.push(std::thread::spawn(move || {
                let idle = CpuSet::of(&[cpu]).apply().and_then(|()| {
                    // SAFETY: `param` is a live, initialised `sched_param`
                    // for the duration of the call, which only reads it;
                    // pid 0 names the calling thread.
                    let rc =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
                    if rc == 0 {
                        Ok(())
                    } else {
                        Err(io::Error::last_os_error())
                    }
                });
                let spin = idle.is_ok();
                let _ = ready.send(idle);
                while spin && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
            started.recv().map_err(|_| io::Error::other("spinner thread died"))??;
        }
        Ok(awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-3,6`).
pub fn allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
    parse_list(list.trim())
}

fn parse_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_list("0-1"), vec![0, 1]);
        assert_eq!(parse_list("0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_list(""), Vec::<usize>::new());
        assert_eq!(CpuSet::of(&[0, 65]).bits[..2], [1, 2]);
    }

    #[test]
    fn spinners_start_idle_and_stop_on_drop() {
        let cpus = allowed();
        let awake = KeepAwake::start(&cpus).expect("SCHED_IDLE needs no privilege");
        assert_eq!(awake.threads.len(), cpus.len());
        drop(awake);
        assert!(KeepAwake::start(&[usize::MAX]).is_err(), "an unknown CPU is refused");
    }
}
