//! Order statistics over small sample sets.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `values`; `NaN`
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Samples that must lie beyond a percentile for it to repeat from run
/// to run.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest percentile with at least [`SAMPLES_BEYOND`] samples
/// strictly beyond it, as `(value, percentile)`. `None` with too few
/// samples to have a percentile above the median under that rule — the
/// caller then has only the median to report.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 * SAMPLES_BEYOND + 1 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = n - 1 - SAMPLES_BEYOND;
    Some((sorted[idx], 100.0 * idx as f64 / (n - 1) as f64))
}

/// First quartile, median and third quartile by the "exclusive" method
/// Python's `statistics.quantiles(values, n=4)` uses, so the noise study
/// computes the spread exactly as the acceptance rule does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        if n == 1 {
            return sorted[0];
        }
        // Position k·(n+1)/4 on a 1-based scale, clamped to the samples.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(max(&v), 4.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 20 samples: a percentile above the median would leave fewer
        // than ten beyond it.
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&few), None);
        // 21 samples: exactly the median qualifies.
        let edge: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&edge), Some((10.0, 50.0)));
        // 101 samples 0..=100: value 90 has exactly ten beyond it.
        let many: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&many), Some((90.0, 90.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
    }
}
