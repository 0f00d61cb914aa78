//! Summary statistics the benchmark reports.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`: the middle sample, or the mean of the two middle
/// samples for an even count. NaN when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least a share `p`
/// of all samples at or below it. NaN when `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples that lie beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `p` percentile as a tail statistic: `None` when fewer than ten
/// samples lie beyond it, because fewer cannot describe a tail.
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    (beyond(xs.len(), p) >= 10).then(|| percentile(xs, p))
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of
/// `y ≈ c·xᵏ`. NaN with fewer than two distinct `x`, or a non-positive
/// coordinate.
pub fn power_law_exponent(points: &[(f64, f64)]) -> f64 {
    if points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return f64::NAN;
    }
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return f64::NAN;
    }
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.9), 5.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail(&hundred, 0.9), Some(90.0));
        // 99 samples leave only 9 beyond the p90 rank.
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail(&hundred[..99], 0.9), None);
        // A p99 needs a thousand.
        assert_eq!(tail(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn exponent_recovers_synthetic_power_laws() {
        for k in [1.0, 2.0, 4.0, 0.5] {
            let pts: Vec<(f64, f64)> = [149.0, 223.0, 298.0]
                .iter()
                .map(|&n: &f64| (n, 3e-9 * n.powf(k)))
                .collect();
            let got = power_law_exponent(&pts);
            assert!((got - k).abs() < 1e-9, "k={k}: got {got}");
        }
        // Noisy points still land near the true exponent.
        let pts = [
            (100.0, 1.05e-4 * 1.0),
            (200.0, 16.0e-4 * 0.97),
            (400.0, 256.0e-4),
        ];
        assert!((power_law_exponent(&pts) - 4.0).abs() < 0.05);
    }

    #[test]
    fn exponent_is_nan_without_a_slope() {
        assert!(power_law_exponent(&[(2.0, 1.0), (2.0, 3.0)]).is_nan());
        assert!(power_law_exponent(&[(1.0, 0.0), (2.0, 3.0)]).is_nan());
        assert!(power_law_exponent(&[]).is_nan());
    }
}
