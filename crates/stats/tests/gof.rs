//! Goodness-of-fit tests — one- and two-sample Kolmogorov–Smirnov and
//! chi-square — and the checks that use them: the hand-rolled samplers
//! in `dptd_stats::dist` against their analytic CDFs, and each test
//! against inputs it must accept or reject.

use dptd_stats::dist::{Continuous, Exponential, Normal, Uniform};
use dptd_stats::StatsError;

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KsTest {
    /// The KS statistic: the sup-distance between the two CDFs.
    statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution approximation).
    p_value: f64,
}

impl KsTest {
    /// Whether the test rejects equality at significance level `alpha`.
    fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// One-sample KS test of `xs` against the analytic CDF of `dist`.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] if `xs` has fewer than 8 points
/// (the asymptotic p-value is meaningless below that).
fn ks_one_sample<D: Continuous>(xs: &[f64], dist: &D) -> Result<KsTest, StatsError> {
    if xs.len() < 8 {
        return Err(StatsError::NotEnoughData {
            required: 8,
            actual: xs.len(),
        });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KS input"));
    let n = sorted.len() as f64;
    let mut d_stat = 0.0_f64;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = dist.cdf(x);
        let ecdf_hi = (i + 1) as f64 / n;
        let ecdf_lo = i as f64 / n;
        d_stat = d_stat.max((ecdf_hi - cdf).abs()).max((cdf - ecdf_lo).abs());
    }
    Ok(KsTest {
        statistic: d_stat,
        p_value: kolmogorov_sf((n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d_stat),
    })
}

/// Two-sample KS test between `xs` and `ys`.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] if either sample has fewer than 8
/// points.
fn ks_two_sample(xs: &[f64], ys: &[f64]) -> Result<KsTest, StatsError> {
    if xs.len() < 8 || ys.len() < 8 {
        return Err(StatsError::NotEnoughData {
            required: 8,
            actual: xs.len().min(ys.len()),
        });
    }
    let mut a = xs.to_vec();
    let mut b = ys.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));

    let (mut i, mut j) = (0usize, 0usize);
    let (n1, n2) = (a.len() as f64, b.len() as f64);
    let mut d_stat = 0.0_f64;
    while i < a.len() && j < b.len() {
        let d1 = a[i];
        let d2 = b[j];
        if d1 <= d2 {
            i += 1;
        }
        if d2 <= d1 {
            j += 1;
        }
        d_stat = d_stat.max((i as f64 / n1 - j as f64 / n2).abs());
    }
    let ne = (n1 * n2 / (n1 + n2)).sqrt();
    Ok(KsTest {
        statistic: d_stat,
        p_value: kolmogorov_sf((ne + 0.12 + 0.11 / ne) * d_stat),
    })
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{j≥1} (-1)^{j-1} e^{-2 j² λ²}`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda < 1e-8 {
        return 1.0;
    }
    let mut sum = 0.0_f64;
    let mut sign = 1.0_f64;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Result of a chi-square test.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChiSquareTest {
    /// The χ² statistic.
    statistic: f64,
    /// Degrees of freedom used for the p-value.
    dof: usize,
    /// Upper-tail p-value `Q(dof/2, χ²/2)`.
    p_value: f64,
}

impl ChiSquareTest {
    /// Whether the test rejects the null at significance level `alpha`.
    fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Pearson chi-square test of observed counts against expected counts.
///
/// `ddof` is the number of *extra* degrees of freedom to subtract beyond the
/// usual `k - 1` (e.g. the number of parameters estimated from the data).
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] if the slices differ in length,
/// [`StatsError::NotEnoughData`] if there are fewer than 2 bins or the
/// degrees of freedom underflow, and [`StatsError::InvalidParameter`] if any
/// expected count is non-positive.
fn chi_square(
    observed: &[f64],
    expected: &[f64],
    ddof: usize,
) -> Result<ChiSquareTest, StatsError> {
    if observed.len() != expected.len() {
        return Err(StatsError::LengthMismatch {
            left: observed.len(),
            right: expected.len(),
        });
    }
    if observed.len() < 2 {
        return Err(StatsError::NotEnoughData {
            required: 2,
            actual: observed.len(),
        });
    }
    if observed.len() < 2 + ddof {
        return Err(StatsError::NotEnoughData {
            required: 2 + ddof,
            actual: observed.len(),
        });
    }
    let mut stat = 0.0;
    for (&o, &e) in observed.iter().zip(expected) {
        if e <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "expected",
                value: e,
                constraint: "all expected counts must be > 0",
            });
        }
        stat += (o - e) * (o - e) / e;
    }
    let dof = observed.len() - 1 - ddof;
    Ok(ChiSquareTest {
        statistic: stat,
        dof,
        p_value: dptd_stats::special::gamma_q(dof as f64 / 2.0, stat / 2.0),
    })
}

#[test]
fn ks_accepts_a_standard_normal_sample() {
    let d = Normal::standard();
    let xs = d.sample_n(&mut dptd_stats::seeded_rng(3), 5000);
    let t = ks_one_sample(&xs, &d).unwrap();
    assert!(!t.rejects_at(0.001), "stat {} p {}", t.statistic, t.p_value);
}

#[test]
fn ks_accepts_correct_distribution() {
    let d = Exponential::new(2.0).unwrap();
    let xs = d.sample_n(&mut dptd_stats::seeded_rng(23), 20_000);
    let t = ks_one_sample(&xs, &d).unwrap();
    assert!(!t.rejects_at(0.001), "stat {} p {}", t.statistic, t.p_value);
}

#[test]
fn ks_rejects_wrong_distribution() {
    let d = Normal::new(0.0, 1.0).unwrap();
    let xs = d.sample_n(&mut dptd_stats::seeded_rng(29), 20_000);
    let wrong = Normal::new(0.5, 1.0).unwrap();
    let t = ks_one_sample(&xs, &wrong).unwrap();
    assert!(t.rejects_at(0.001), "stat {} p {}", t.statistic, t.p_value);
}

#[test]
fn ks_two_sample_same_source_accepts() {
    let d = Uniform::new(0.0, 1.0).unwrap();
    let xs = d.sample_n(&mut dptd_stats::seeded_rng(31), 10_000);
    let ys = d.sample_n(&mut dptd_stats::seeded_rng(37), 10_000);
    let t = ks_two_sample(&xs, &ys).unwrap();
    assert!(!t.rejects_at(0.001));
}

#[test]
fn ks_two_sample_shifted_rejects() {
    let d = Normal::new(0.0, 1.0).unwrap();
    let xs = d.sample_n(&mut dptd_stats::seeded_rng(41), 10_000);
    let ys: Vec<f64> = d
        .sample_n(&mut dptd_stats::seeded_rng(43), 10_000)
        .into_iter()
        .map(|x| x + 0.3)
        .collect();
    let t = ks_two_sample(&xs, &ys).unwrap();
    assert!(t.rejects_at(0.001));
}

#[test]
fn ks_needs_enough_data() {
    let d = Normal::standard();
    assert!(ks_one_sample(&[1.0, 2.0], &d).is_err());
}

#[test]
fn chi_square_uniform_counts_accept() {
    // Perfectly uniform observed counts must not reject.
    let observed = [100.0; 10];
    let expected = [100.0; 10];
    let t = chi_square(&observed, &expected, 0).unwrap();
    assert_eq!(t.statistic, 0.0);
    assert_eq!(t.dof, 9);
    assert!((t.p_value - 1.0).abs() < 1e-12);
}

#[test]
fn chi_square_skewed_counts_reject() {
    let observed = [200.0, 50.0, 50.0, 100.0];
    let expected = [100.0, 100.0, 100.0, 100.0];
    let t = chi_square(&observed, &expected, 0).unwrap();
    assert!(t.rejects_at(0.001));
}

#[test]
fn chi_square_validates_input() {
    assert!(chi_square(&[1.0], &[1.0], 0).is_err());
    assert!(chi_square(&[1.0, 2.0], &[1.0], 0).is_err());
    assert!(chi_square(&[1.0, 2.0], &[1.0, 0.0], 0).is_err());
    assert!(chi_square(&[1.0, 2.0], &[1.0, 2.0], 1).is_err());
}
