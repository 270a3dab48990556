//! The host's speed, read from a fixed piece of work this benchmark owns.
//!
//! On a shared virtual machine the speed of a virtual CPU follows the load
//! of the whole host: the same daemons, on the same 2-vCPU VM, used 14.5 µs
//! of CPU per `hot-rotations` election in one hour and 27 µs in another,
//! with no steal in either, and every time metric moved with them. A probe
//! — a fixed mix of parsing, allocator and system-call work that no
//! repository code takes part in — is timed on the benchmark's CPU before
//! and after every phase, and the phase's time metrics are scaled by the
//! ratio of its time to [`REFERENCE_NS`]. That ratio, the *slowdown*, is
//! the same for both sides of a comparison only if the host is; the code
//! under test cannot move it.
//!
//! The mix was chosen by how well it follows the served work. Over eight
//! minutes in which the host's speed swung by up to 2.2×, the log of
//! twelve in-process `run_election` calls (the engine behind
//! `cold-distinct`) had a standard deviation of 0.156; less this probe's
//! log, 0.058. Random reads and writes over a 1 MiB table swung twice as
//! far as the engine, so the probe makes none.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Wall time of one [`Probe::unit`] on the host the benchmark was written
/// on (2-vCPU x86-64 VM, Xeon, at a quiet hour). Only ratios to it are
/// used, so its exact value scales every reported time alike.
pub const REFERENCE_NS: f64 = 450_000.0;
/// Timed units per reading; their median counts, so a unit slowed by an
/// interrupt or a preemption moves nothing.
const REPS: usize = 9;
/// Bytes of the probe's text.
const TEXT: usize = 1 << 14;
/// Bytes of each message the probe sends itself through a socket pair.
const MESSAGE: usize = 256;

/// The probe's text and socket pair, made before any timing.
pub struct Probe {
    text: Vec<u8>,
    socket: (UnixStream, UnixStream),
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // A JSON-like array of small numbers, as in an election request.
        let mut text = b"[".to_vec();
        while text.len() < TEXT - 8 {
            text.extend_from_slice((next() % 300).to_string().as_bytes());
            text.push(b',');
        }
        text.push(b']');
        let socket = UnixStream::pair().expect("a socket pair");
        Probe { text, socket }
    }

    /// One fixed unit of work, in three parts that load a core the way
    /// serving code does: parsing and hashing the text (byte-wise
    /// branches), building, sorting and dropping small vectors (the
    /// allocator and data-dependent branches), and messages through a
    /// socket pair (the kernel's system-call and socket paths). Returns a
    /// checksum, the same on every call.
    pub fn unit(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        for _ in 0..12 {
            let mut number = 0u64;
            for &b in &self.text {
                if b.is_ascii_digit() {
                    number = number * 10 + u64::from(b - b'0');
                } else if b == b',' {
                    acc = (acc ^ number).wrapping_mul(0x0100_0000_01B3);
                    number = 0;
                }
            }
        }
        let mut kept: Vec<Vec<u64>> = Vec::with_capacity(64);
        for round in 0..1_500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut v: Vec<u64> =
                (0..8 + (x % 33)).map(|j| (x >> (j % 48)) ^ (j * round)).collect();
            v.sort_unstable();
            acc = acc.wrapping_add(v[v.len() / 2]);
            kept.push(v);
            if kept.len() == 64 {
                kept.clear();
            }
        }
        let mut buf = [0u8; MESSAGE];
        for _ in 0..150 {
            let (a, b) = &mut self.socket;
            a.write_all(&self.text[..MESSAGE]).expect("socket pair write");
            b.read_exact(&mut buf).expect("socket pair read");
            acc = acc.wrapping_add(u64::from(buf[MESSAGE / 2]));
        }
        acc
    }

    /// Median nanoseconds of one unit, after two untimed ones.
    fn time(&mut self) -> f64 {
        for _ in 0..2 {
            std::hint::black_box(self.unit());
        }
        let mut ns: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(self.unit());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[REPS / 2]
    }
}

/// The slowdown of the calling thread's CPU now: the probe's median time
/// there over [`REFERENCE_NS`]. Read while the benchmark has no other work
/// on that CPU.
pub fn slowdown() -> f64 {
    Probe::new().time() / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_repeats_its_work_exactly() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        let first = a.unit();
        assert_eq!(first, b.unit());
        assert_eq!(a.unit(), first);
        let text = String::from_utf8(a.text.clone()).unwrap();
        assert!(text.starts_with('[') && text.ends_with(",]"), "{}", &text[..20]);
    }

    #[test]
    fn a_slowdown_is_a_positive_ratio() {
        let s = slowdown();
        assert!(s > 0.0 && s.is_finite(), "{s}");
    }
}
