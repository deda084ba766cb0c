//! Batch and streaming summaries plus paired error metrics.
//!
//! The paper's headline utility metric is the **mean absolute error** (MAE,
//! the L1 distance between aggregates before and after perturbation, §5.1);
//! [`mae`] implements it. [`Summary`] and [`RunningStats`] provide the
//! descriptive statistics the experiment harness reports alongside.

use crate::StatsError;

/// Descriptive statistics of a batch of samples.
///
/// # Example
///
/// ```
/// use dptd_stats::summary::Summary;
///
/// # fn main() -> Result<(), dptd_stats::StatsError> {
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased (n-1) sample variance; `0` when `count == 1`.
    pub variance: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50% quantile, linear interpolation).
    pub median: f64,
}

impl Summary {
    /// Summarise a slice of samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] on an empty slice.
    pub fn of(xs: &[f64]) -> Result<Self, StatsError> {
        if xs.is_empty() {
            return Err(StatsError::NotEnoughData {
                required: 1,
                actual: 0,
            });
        }
        let mut running = RunningStats::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            running.push(x);
            min = min.min(x);
            max = max.max(x);
        }
        Ok(Self {
            count: xs.len(),
            mean: running.mean(),
            variance: running.sample_variance(),
            min,
            max,
            median: quantile(xs, 0.5)?,
        })
    }

    /// Standard deviation (square root of the sample variance).
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Numerically stable streaming mean/variance (Welford's algorithm).
///
/// Used by the experiment harness to accumulate per-trial metrics without
/// storing every replicate.
///
/// # Example
///
/// ```
/// use dptd_stats::summary::RunningStats;
///
/// let mut r = RunningStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     r.push(x);
/// }
/// assert_eq!(r.mean(), 4.0);
/// assert_eq!(r.sample_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations so far; `0` if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0` with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard deviation from the sample variance.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut r = Self::new();
        r.extend(iter);
        r
    }
}

/// Mean absolute error between two paired slices — the paper's utility
/// metric (`1/N Σ_n |x*_n − x̂*_n|`, Eq. 6 / §5.1).
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] if the slices differ in length and
/// [`StatsError::NotEnoughData`] if they are empty.
///
/// ```
/// let m = dptd_stats::summary::mae(&[1.0, 2.0], &[1.5, 1.0]).unwrap();
/// assert!((m - 0.75).abs() < 1e-15);
/// ```
pub fn mae(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    paired(a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64)
}

/// Root mean squared error between two paired slices.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] if the slices differ in length and
/// [`StatsError::NotEnoughData`] if they are empty.
pub fn rmse(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    paired(a, b)?;
    let mse = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64;
    Ok(mse.sqrt())
}

/// Largest absolute elementwise difference between two paired slices.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] if the slices differ in length and
/// [`StatsError::NotEnoughData`] if they are empty.
pub fn max_abs_error(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    paired(a, b)?;
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max))
}

fn paired(a: &[f64], b: &[f64]) -> Result<(), StatsError> {
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(StatsError::NotEnoughData {
            required: 1,
            actual: 0,
        });
    }
    Ok(())
}

/// The `p`-quantile of a slice using linear interpolation between order
/// statistics (type-7, the numpy default).
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] on an empty slice or
/// [`StatsError::InvalidProbability`] if `p ∉ [0, 1]`.
///
/// ```
/// let q = dptd_stats::summary::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
/// assert_eq!(q, 2.5);
/// ```
pub fn quantile(xs: &[f64], p: f64) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData {
            required: 1,
            actual: 0,
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability {
            name: "p",
            value: p,
        });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median convenience wrapper over [`quantile`] at `p = 0.5`.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] on an empty slice.
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    quantile(xs, 0.5)
}

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] on an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData {
            required: 1,
            actual: 0,
        });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.variance, 1.0);
    }

    #[test]
    fn summary_rejects_empty() {
        assert!(matches!(
            Summary::of(&[]),
            Err(StatsError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let r: RunningStats = xs.iter().copied().collect();
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive_var =
            xs.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((r.mean() - naive_mean).abs() < 1e-12);
        assert!((r.sample_variance() - naive_var).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.7 - 3.0).collect();
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        let mut merged = a;
        merged.merge(&b);
        let seq: RunningStats = xs.iter().copied().collect();
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-12);
        assert!((merged.sample_variance() - seq.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn mae_rmse_reference() {
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [1.0, -1.0, 1.0, -1.0];
        assert_eq!(mae(&a, &b).unwrap(), 1.0);
        assert_eq!(rmse(&a, &b).unwrap(), 1.0);
        assert_eq!(max_abs_error(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn paired_metrics_reject_mismatch() {
        assert!(matches!(
            mae(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        ));
        assert!(rmse(&[], &[]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 50.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 30.0);
        assert_eq!(quantile(&xs, 0.25).unwrap(), 20.0);
        assert_eq!(quantile(&xs, 0.1).unwrap(), 14.0);
    }

    #[test]
    fn quantile_rejects_bad_p() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }
}
