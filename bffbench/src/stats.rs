//! Order statistics over samples: percentiles for latencies inside one
//! run, quartiles for the spread between runs.

/// The `p`-th percentile (`0.0..=100.0`) by the nearest-rank rule: the
/// smallest sample such that at least `p` percent of the samples are less
/// than or equal to it. Nearest rank never invents a value between two
/// samples, so a reported p99 is a latency some operation really had.
/// Returns 0 for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    v
}

/// Median by linear interpolation (the mean of the two middle samples
/// for an even count). Returns 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of `values` without their lowest and their highest (the plain
/// mean below three values): how per-slice results of one run are
/// combined. Returns 0 for no values.
pub fn steady(values: &[f64]) -> f64 {
    let v = sorted(values);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread this tool
/// prints is the spread the acceptance check computes. `None` below two
/// samples, where quartiles are undefined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k * (n + 1) / 4 on a 1-based scale, clamped into the
        // sample, interpolated linearly between neighbours.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; `None` when undefined.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // Ten samples beyond p99 need a thousand samples: the rank moves
        // with the count, not with the values.
        let v: Vec<u64> = (0..1000).map(|i| i * i).collect();
        assert_eq!(percentile(&v, 99.0), 989 * 989);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn steady_drops_one_extreme_on_each_side() {
        // One stalled slice and one lucky one do not move the result.
        assert_eq!(steady(&[10.0, 11.0, 9.0, 500.0, 0.1]), 10.0);
        assert_eq!(steady(&[4.0, 2.0]), 3.0);
        assert_eq!(steady(&[7.0]), 7.0);
        assert_eq!(steady(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
