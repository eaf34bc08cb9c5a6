//! Host-speed scaling.
//!
//! On the shared 2-vCPU virtual machine this benchmark was tuned on,
//! CPU speed drifts by up to ×1.8 over seconds to minutes (a fixed CPU
//! loop, timed in 2-second buckets over a minute, ranged 1.00–1.77× its
//! fastest), and identical runs of the served workloads differed by
//! 30–60%. No run length averages that away, so every time this
//! benchmark reports is scaled to one host speed:
//!
//! * the benchmark pins itself to one CPU before it starts `fdi serve`,
//!   which inherits the pinning, so client, server and in-process
//!   replay all run on the CPU the probe measures (the closed loop
//!   keeps at most one of them busy at a time);
//! * between requests (never inside a transaction) and around every
//!   server start, the client times a fixed hashing-and-sorting
//!   [`burst`] that contains no `fdi` code, at most every [`EVERY`];
//! * a time measured at `t` is multiplied by [`NOMINAL_S`] over the
//!   median of the five bursts nearest `t`.
//!
//! A reported time is therefore "seconds on a host where the burst
//! takes exactly 1 ms". A change to the program cannot move the burst,
//! so a real speed-up shows in full; the unscaled figures and the
//! median burst are printed on standard error.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// The burst time every measurement is scaled to (about the burst's
/// time when the host runs at its fastest).
pub const NOMINAL_S: f64 = 0.001;
/// Minimum spacing of bursts.
pub const EVERY: Duration = Duration::from_millis(20);

/// Burst samples of one timed phase.
#[derive(Debug)]
pub struct Probe {
    origin: Instant,
    last: Instant,
    /// (seconds since `origin`, burst seconds), in time order.
    samples: Vec<(f64, f64)>,
}

impl Probe {
    /// Starts a probe and takes its first sample.
    pub fn start() -> Probe {
        let origin = Instant::now();
        let mut probe = Probe {
            origin,
            last: origin,
            samples: Vec::new(),
        };
        probe.sample();
        probe
    }

    /// Seconds from the probe's start to `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Times one burst now.
    pub fn sample(&mut self) {
        let at = self.at(Instant::now());
        self.samples.push((at, burst()));
        self.last = Instant::now();
    }

    /// Whether the last burst is at least [`EVERY`] old.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= EVERY
    }

    /// Times one burst if one is [`due`](Probe::due).
    pub fn maybe_sample(&mut self) {
        if self.due() {
            self.sample();
        }
    }

    /// The scale factor for a time measured `t` seconds into the probe.
    pub fn factor(&self, t: f64) -> f64 {
        let n = self.samples.len();
        let next = self.samples.partition_point(|&(at, _)| at < t);
        let lo = next.saturating_sub(3).min(n.saturating_sub(5));
        let mut near: Vec<f64> = self.samples[lo..(lo + 5).min(n)]
            .iter()
            .map(|&(_, s)| s)
            .collect();
        near.sort_by(f64::total_cmp);
        NOMINAL_S / near[near.len() / 2]
    }

    /// `secs` measured starting at `at`, scaled.
    pub fn scale(&self, at: Instant, secs: f64) -> f64 {
        secs * self.factor(self.at(at))
    }

    /// Median burst time, seconds.
    pub fn median_burst(&self) -> f64 {
        let mut all: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        all.sort_by(f64::total_cmp);
        all[all.len() / 2]
    }
}

/// The fixed burst: 20 000 inserts of pseudo-random keys into a hash
/// map with a fixed hasher, a sort of the keys, and a lookup of each
/// (about 1 ms). Returns its duration in seconds. Sampled next to
/// library work for a minute in which that work's cost ranged ×1.6–
/// ×1.9, the work/burst ratio's 2-second medians spread 2.7–3.9%
/// (interquartile range over median) for an enforced insert, a
/// display-position render and a `semantics::compare`; a 200 000-key
/// burst did no better (3.3–7.3%).
pub fn burst() -> f64 {
    let started = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 15, Default::default());
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 20, i);
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    let sum = keys.iter().fold(0u64, |acc, k| acc.wrapping_add(map[k]));
    std::hint::black_box(sum);
    started.elapsed().as_secs_f64()
}

/// A Linux `cpu_set_t`: 1024 CPU bits.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread (and every process it spawns afterwards) to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// if the affinity calls failed (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set.bits[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t`-sized mask naming a CPU the
    // thread is already allowed on; the size passed is its size.
    let set_ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set_ok == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(bursts: &[(f64, f64)]) -> Probe {
        let origin = Instant::now();
        Probe {
            origin,
            last: origin,
            samples: bursts.iter().map(|&(at, x)| (at, x * NOMINAL_S)).collect(),
        }
    }

    #[test]
    fn the_factor_uses_the_median_of_the_nearest_bursts() {
        let p = probe(&[
            (0.0, 2.0),
            (1.0, 2.0),
            (2.0, 0.5), // an outlier among its five neighbours
            (3.0, 2.0),
            (4.0, 2.0),
            (5.0, 1.0),
            (6.0, 1.0),
            (7.0, 1.0),
            (8.0, 1.0),
        ]);
        assert_eq!(p.factor(2.0), 0.5);
        assert_eq!(p.factor(7.5), 1.0);
        assert_eq!(p.factor(100.0), 1.0);
    }

    #[test]
    fn a_single_sample_scales_everything() {
        assert_eq!(probe(&[(0.0, 0.5)]).factor(3.0), 2.0);
        assert!(burst() > 0.0);
    }
}
