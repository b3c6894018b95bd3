//! Order statistics: the nearest-rank percentile rule the end-to-end
//! metrics use, and the quartile spread the steadiness report uses.

/// Samples that must lie strictly beyond a percentile before it is
/// reported; below that the tail is an accident of a few samples.
pub const MIN_BEYOND: usize = 10;

/// One-based nearest rank of percentile `p` (0 < p <= 100) in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank `p`-th percentile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (beyond(sorted.len(), p) >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// The tail a sample supports: the highest of p99, p90 and p50 with at
/// least [`MIN_BEYOND`] samples beyond it, else the maximum (a run of a
/// few long jobs). Returns the value and the label of what it is.
pub fn tail(sorted: &[f64]) -> (f64, &'static str) {
    for (p, label) in [(99.0, "p99"), (90.0, "p90"), (50.0, "p50")] {
        if let Some(v) = percentile(sorted, p) {
            return (v, label);
        }
    }
    (sorted.last().copied().unwrap_or(0.0), "max")
}

/// The p99 of each `window_ns`-long window of `(time_ns, value)` points,
/// median over the windows whose p99 is reportable; `None` when fewer
/// than three are. A tail that holds across the run is kept; a few
/// seconds of interference from outside the program move it only if they
/// cover half the windows. Returns the value and the window count.
pub fn windowed_p99(points: &[(u64, f64)], window_ns: u64) -> Option<(f64, usize)> {
    let start = points.iter().map(|p| p.0).min()?;
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in points {
        let w = ((t - start) / window_ns) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    let p99s: Vec<f64> = windows
        .iter_mut()
        .filter_map(|w| {
            w.sort_by(f64::total_cmp);
            percentile(w, 99.0)
        })
        .collect();
    (p99s.len() >= 3).then(|| (median(&p99s), p99s.len()))
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is the rule the benchmark's steadiness is judged by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *out = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond — reportable.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank ceil(989.01) = 990, only 9 beyond — withheld.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_picks_a_sample_not_an_interpolation() {
        let s = ramp(40);
        assert_eq!(percentile(&s, 50.0), Some(20.0));
        assert_eq!(percentile(&s, 75.0), Some(30.0));
    }

    #[test]
    fn tail_falls_back_down_the_ladder() {
        assert_eq!(tail(&ramp(2000)), (1980.0, "p99"));
        assert_eq!(tail(&ramp(200)), (180.0, "p90"));
        assert_eq!(tail(&ramp(30)), (15.0, "p50"));
        assert_eq!(tail(&[4.0, 5.0, 6.0]), (6.0, "max"));
    }

    #[test]
    fn windowed_p99_ignores_a_minority_of_noisy_windows() {
        const S: u64 = 1_000_000_000;
        // Five 1-s windows of 2000 samples each: p99 of a quiet window is
        // 98.0; one window carries a burst of 200 slow samples.
        let mut points = Vec::new();
        for w in 0..5u64 {
            for i in 0..2000u64 {
                let slow = w == 2 && i >= 1800;
                let v = if slow { 5000.0 } else { (i % 100) as f64 };
                points.push((w * S + i * 1000, v));
            }
        }
        assert_eq!(windowed_p99(&points, S), Some((98.0, 5)));
        // The burst alone sets the whole-run p99 (200 of 10000 samples).
        let mut all: Vec<f64> = points.iter().map(|p| p.1).collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(percentile(&all, 99.0), Some(5000.0));
        // Too few samples per window for a p99: no windowed figure.
        assert_eq!(windowed_p99(&points[..500], S), None);
        assert_eq!(windowed_p99(&[], S), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), [1.25, 3.0, 7.0]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert!((spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0; 10]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
