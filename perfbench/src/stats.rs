//! The benchmark's metric arithmetic: order statistics of repeated timings,
//! relative bound gaps of solves, and failure fractions.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spreads this benchmark prints match the acceptance check.
/// A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // j is clamped to [1, n - 1] exactly as the Python implementation
        // does for small samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the spread measure the
/// benchmark's bounds are checked against. Zero for a zero median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Relative bound gap `(upper - lower) / upper` of one solve. Exact solves,
/// and solves whose upper bound is zero (a disconnected or empty instance,
/// where both bounds are zero), have gap 0.
pub fn relative_gap(lower: f64, upper: f64, exact: bool) -> f64 {
    if exact || upper <= 0.0 {
        0.0
    } else {
        (upper - lower) / upper
    }
}

/// Largest and mean gap over a set of solve gaps (`(0, 0)` when empty).
pub fn gap_summary(gaps: &[f64]) -> (f64, f64) {
    if gaps.is_empty() {
        return (0.0, 0.0);
    }
    let max = gaps.iter().copied().fold(0.0, f64::max);
    (max, gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Failed share of attempted items (0 when nothing was attempted).
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}
