//! Order statistics used by the result files and by `compare`.

/// Samples that must lie beyond a reported tail percentile: a tail is the
/// highest percentile with at least ten samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile in `50..=99` whose nearest-rank value
/// leaves at least [`TAIL_BEYOND`] of `n` samples strictly above it, or
/// `None` when no such percentile exists (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        n >= rank + TAIL_BEYOND
    })
}

/// Nearest-rank percentile `p` (0–100) of `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match ones computed from the result files in
/// Python. A single sample is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let data = sorted(samples);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, exactly ten beyond; p96 leaves 8.
        assert_eq!(tail_percentile(200), Some(95));
        // 1000 samples: p99 is rank 990 — ten beyond.
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        // 20 samples: only the median leaves ten beyond.
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let beyond = |p: u32| n - (p as usize * n).div_ceil(100);
            assert!(beyond(p) >= TAIL_BEYOND, "n = {n}");
            assert!(p == 99 || beyond(p + 1) < TAIL_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), [1.0, 3.0, 4.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
