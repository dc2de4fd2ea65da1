//! Percentiles, quartiles across runs, and the `compare` verdicts.

/// Samples that must lie beyond a percentile for it to be trusted
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `true` when at least [`MIN_BEYOND`] of `n` samples lie beyond the
/// `p` percentile — the "≥ 10 samples beyond" rule. The harness prints
/// an unsupported percentile anyway (the benchmark contract wants
/// every metric on every workload) but marks it in result files.
pub fn supported(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() as usize >= MIN_BEYOND
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How side B of a comparison reads against side A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better by more than A's own spread (or every run
    /// of B beats every run of A).
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound and within A's spread.
    Same,
    /// The run-to-run spread is wider than the bound: no claim.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the runs of one `(workload, metric)` on two sides by the
/// rules of choosing-metrics §6.5 and §8.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Fold "higher is better" onto "lower is better".
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let fold = |v: &[f64]| v.iter().map(|x| x * sign).collect::<Vec<f64>>();
    let (a, b) = (fold(a), fold(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if max(&b) < min(&a) {
        return Verdict::Better;
    }
    if spread(&a).max(spread(&b)) > bound {
        return Verdict::Unresolved;
    }
    let (q1, med_a, q3) = quartiles(&a);
    let med_b = median(&b);
    let scale = med_a.abs().max(f64::MIN_POSITIVE);
    if (med_b - med_a) / scale > bound {
        Verdict::Worse
    } else if med_a - med_b > q3 - q1 && med_b < med_a {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(supported(1_000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(200, 0.95));
        assert!(!supported(150, 0.95));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let near = [100.2, 100.9, 99.1, 100.4, 99.7];
        let slow = [115.0, 116.0, 114.0, 115.5, 114.5];
        let fast = [80.0, 81.0, 79.0, 80.5, 79.5];
        let wide = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(verdict(&base, &near, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &fast, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&base, &wide, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Direction flips for throughput-like metrics.
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &fast, Better::Higher, 0.1), Verdict::Worse);
        // A wide spread is still a win when every run beats every run.
        assert_eq!(
            verdict(&wide, &[10.0, 20.0, 30.0], Better::Lower, 0.1),
            Verdict::Better
        );
        // A small median gain inside the parent's own spread is no gain.
        assert_eq!(
            verdict(
                &[100.0, 104.0, 96.0, 102.0, 98.0],
                &[99.0, 103.0, 95.5, 101.0, 97.5],
                Better::Lower,
                0.1
            ),
            Verdict::Same
        );
    }
}
