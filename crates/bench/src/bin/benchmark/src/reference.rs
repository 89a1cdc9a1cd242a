//! A host-speed reference timed between a workload's operations.
//!
//! On a shared host, other tenants' load slows this machine by up to half
//! for stretches of seconds to minutes, and a whole run can fall inside
//! one. The slowdown barely touches a chain of multiplies but hits
//! branch-heavy code working in the core's own caches — the simulator and
//! the scheduler alike. Sorting 65 536 keys with the standard library's
//! `sort_unstable` is such code: over five minutes of fixed-input
//! operations its time tracked theirs with correlation 0.94–0.95. It is
//! fixed by the toolchain and shares no code with the repository, so no
//! change to the repository can move it.
//!
//! Each timing is scaled by `NOMINAL_S / r`, where `r` is the mean of the
//! two reference samples around it: a time measured while the host ran the
//! reference at its nominal speed is reported unchanged, one measured while
//! the host was slower is scaled down by the same factor.

use std::time::{Duration, Instant};

/// Keys sorted per sample: 256 KiB, inside the core's own L2 cache.
const KEYS: usize = 1 << 16;

/// Minimum time between samples, which keeps the overhead (a warm-up sort
/// and a timed one) near 3 %.
const EVERY: Duration = Duration::from_millis(100);

/// A typical sample time on the 2-vCPU 2.1 GHz Xeon host the benchmark's
/// bounds were set on, which swings between about 1.0 and 1.7 ms.
pub const NOMINAL_S: f64 = 1.5e-3;

pub struct Reference {
    keys: Vec<u32>,
    /// One scratch buffer per thread, allocated once so a sample faults
    /// no pages in.
    scratch: Vec<Vec<u32>>,
    last: Instant,
    samples: Vec<f64>,
}

impl Reference {
    /// A reference sorting on `threads` threads at once, one per simulator
    /// thread of the workload, so contention on either core shows. Takes
    /// its first sample at once, so every later timing has one before it.
    pub fn new(threads: usize) -> Self {
        // A fixed xorshift stream: the keys never depend on `--seed`.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let mut r = Reference {
            keys,
            scratch: vec![vec![0; KEYS]; threads.max(1)],
            last: Instant::now(),
            samples: Vec::new(),
        };
        r.sample();
        r
    }

    /// Takes a sample when [`EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// Sorts once untimed, to bring keys and buffers into the cache, then
    /// times a second sort on every thread.
    pub fn sample(&mut self) {
        let keys = &self.keys;
        let sort = |buf: &mut Vec<u32>| {
            buf.copy_from_slice(keys);
            buf.sort_unstable();
            std::hint::black_box(&buf);
        };
        for buf in &mut self.scratch {
            sort(buf);
        }
        let started = Instant::now();
        match &mut self.scratch[..] {
            [one] => sort(one),
            many => std::thread::scope(|s| {
                for buf in many {
                    s.spawn(move || sort(buf));
                }
            }),
        }
        self.samples.push(started.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Index of the latest sample: a timing taken now lies between it and
    /// the next one.
    pub fn latest(&self) -> usize {
        self.samples.len() - 1
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Scales each `(seconds, after)` timing, taken between reference samples
/// `after` and `after + 1`, by `NOMINAL_S` over the mean of those two.
pub fn normalize(timings: &[(f64, usize)], samples: &[f64]) -> Vec<f64> {
    timings
        .iter()
        .map(|&(s, after)| {
            let around = &samples[after..(after + 2).min(samples.len())];
            s * NOMINAL_S * around.len() as f64 / around.iter().sum::<f64>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_spaced() {
        let mut r = Reference::new(2);
        assert_eq!(r.latest(), 0, "the first sample is taken at once");
        r.tick();
        assert_eq!(r.samples().len(), 1, "a tick within EVERY is skipped");
        r.sample();
        assert_eq!(r.latest(), 1);
        assert!(r.samples().iter().all(|&s| s > 0.0));
    }

    /// Each timing is scaled by the two samples around it alone.
    #[test]
    fn timings_scale_by_the_samples_around_them() {
        let n = NOMINAL_S;
        let samples = [n, 2.0 * n, 3.0 * n, n];
        let got = normalize(&[(3.0, 0), (5.0, 1), (4.0, 2), (7.0, 3)], &samples);
        let want = [2.0, 2.0, 2.0, 7.0];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?}");
        }
    }
}
