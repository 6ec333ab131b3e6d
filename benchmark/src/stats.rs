//! Order statistics for the benchmark's timings.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `NaN`
/// when there are no values.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let s = sorted(&values.into_iter().collect::<Vec<_>>());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// The highest percentile of `TAIL_LADDER` that leaves at least
/// `TAIL_MIN_BEYOND` of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p).min(n) >= TAIL_MIN_BEYOND)
}

/// First, second and third quartile with Python's
/// `statistics.quantiles(values, n=4)` (method `exclusive`), so numbers
/// printed here match the acceptance check. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(50_000), Some(99.0));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_and_percentiles_use_the_documented_ranks() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(v.clone()), 5.5);
        assert_eq!(median(v[..9].iter().copied()), 6.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
