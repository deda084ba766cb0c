//! Continuous probability distributions.
//!
//! The offline dependency set contains [`rand`] but not `rand_distr` or
//! `statrs`, so the distributions the paper's mechanism and experiments
//! need are implemented here: sampling, densities, CDFs and quantiles for
//! the normal, exponential, gamma, Laplace and uniform families, all
//! validated against the analytic CDFs by the KS tests in the crate's
//! `tests/gof.rs`.
//!
//! Every sampler draws from a caller-supplied [`Rng`], so a fixed seed
//! reproduces an experiment exactly.

use rand::Rng;

use crate::special::{gamma_p, ln_gamma, std_normal_cdf, std_normal_quantile};
use crate::StatsError;

/// A continuous univariate distribution: sampling plus the analytic
/// density/CDF/quantile functions.
pub trait Continuous {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Natural log of the density at `x` (overridden where it can be
    /// computed without under/overflow).
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)` (the open interval; the endpoints
    /// are ±∞ or the support boundary depending on the family).
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance.
    fn variance(&self) -> f64;
}

fn check_probability(p: f64) {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile probability {p} must be in (0, 1)"
    );
}

fn validate(name: &'static str, value: f64, ok: bool) -> Result<(), StatsError> {
    if ok {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name,
            value,
            constraint: "must be finite and > 0",
        })
    }
}

/// Normal (Gaussian) distribution `N(μ, σ²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create from mean `μ` and standard deviation `σ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `μ` is not finite or
    /// `σ` is not finite and strictly positive.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mu",
                value: mu,
                constraint: "must be finite",
            });
        }
        validate("sigma", sigma, sigma.is_finite() && sigma > 0.0)?;
        Ok(Self { mu, sigma })
    }

    /// Create from mean `μ` and **variance** `σ² > 0` (the paper's noise
    /// model hands around variances, not standard deviations).
    ///
    /// # Errors
    ///
    /// Same domain errors as [`Normal::new`].
    pub fn from_variance(mu: f64, variance: f64) -> Result<Self, StatsError> {
        validate("variance", variance, variance.is_finite() && variance > 0.0)?;
        Self::new(mu, variance.sqrt())
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Mean `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draw one standard-normal variate via Box–Muller.
    fn standard_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // u ∈ (0, 1]: avoids ln(0). One pair of uniforms per variate keeps
        // the trait object-free and the stream layout simple.
        let u: f64 = 1.0 - rng.gen::<f64>();
        let v: f64 = rng.gen();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

impl Continuous for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }

    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (std::f64::consts::TAU).sqrt())
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - 0.5 * std::f64::consts::TAU.ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        check_probability(p);
        self.mu + self.sigma * std_normal_quantile(p)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

/// Exponential distribution with **rate** `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create from rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `λ` is not finite and
    /// strictly positive.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        validate("rate", rate, rate.is_finite() && rate > 0.0)?;
        Ok(Self { rate })
    }

    /// The rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Continuous for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF on u ∈ (0, 1].
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        check_probability(p);
        -(-p).ln_1p() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Gamma distribution with shape `k` and **scale** `θ` (mean `kθ`); the
/// χ²(k) distribution is `Gamma(k/2, 2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create from shape `k > 0` and scale `θ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either parameter is not
    /// finite and strictly positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        validate("shape", shape, shape.is_finite() && shape > 0.0)?;
        validate("scale", scale, scale.is_finite() && scale > 0.0)?;
        Ok(Self { shape, scale })
    }

    /// The shape `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Marsaglia–Tsang squeeze sampler for shape ≥ 1.
    fn sample_shape_ge_one<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard_sample(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Continuous for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let unit = if self.shape >= 1.0 {
            Self::sample_shape_ge_one(self.shape, rng)
        } else {
            // Boost: G(k) = G(k+1) · U^{1/k}.
            let g = Self::sample_shape_ge_one(self.shape + 1.0, rng);
            let u: f64 = 1.0 - rng.gen::<f64>();
            g * u.powf(1.0 / self.shape)
        };
        // A shape < 1 boost can underflow to exactly 0, which is outside
        // the support; nudge to the smallest positive normal.
        (unit * self.scale).max(f64::MIN_POSITIVE)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = x / self.scale;
        ((self.shape - 1.0) * z.ln() - z - ln_gamma(self.shape)).exp() / self.scale
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        check_probability(p);
        // Wilson–Hilferty starting point, then bisection on the monotone
        // regularised incomplete gamma (robust for all shapes; the χ²
        // factors CATD needs land here with shapes from 0.5 upwards).
        let k = self.shape;
        let z = std_normal_quantile(p);
        let wh = k * (1.0 - 1.0 / (9.0 * k) + z / (3.0 * k.sqrt())).powi(3);
        let mut hi = if wh.is_finite() && wh > 0.0 { wh } else { k };
        while gamma_p(k, hi) < p {
            hi *= 2.0;
            if hi > 1e300 {
                break;
            }
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if gamma_p(k, mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) <= 1e-14 * hi.max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi) * self.scale
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// Laplace (double-exponential) distribution with location `μ` and scale
/// `b` — the classic ε-LDP noise distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    loc: f64,
    scale: f64,
}

impl Laplace {
    /// Create from location `μ` (finite) and scale `b > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] on a non-finite location
    /// or a scale that is not finite and strictly positive.
    pub fn new(loc: f64, scale: f64) -> Result<Self, StatsError> {
        if !loc.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "loc",
                value: loc,
                constraint: "must be finite",
            });
        }
        validate("scale", scale, scale.is_finite() && scale > 0.0)?;
        Ok(Self { loc, scale })
    }

    /// The location `μ`.
    pub fn loc(&self) -> f64 {
        self.loc
    }

    /// The scale `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Continuous for Laplace {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF on u ∈ (-1/2, 1/2].
        let u: f64 = rng.gen::<f64>() - 0.5;
        self.loc - self.scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
    }

    fn pdf(&self, x: f64) -> f64 {
        (-(x - self.loc).abs() / self.scale).exp() / (2.0 * self.scale)
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.loc) / self.scale;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        check_probability(p);
        if p < 0.5 {
            self.loc + self.scale * (2.0 * p).ln()
        } else {
            self.loc - self.scale * (2.0 - 2.0 * p).ln()
        }
    }

    fn mean(&self) -> f64 {
        self.loc
    }

    fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }
}

/// Uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Create on `[low, high)` with `low < high`, both finite.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if the bounds are not
    /// finite or not strictly ordered.
    pub fn new(low: f64, high: f64) -> Result<Self, StatsError> {
        if !(low.is_finite() && high.is_finite() && low < high) {
            return Err(StatsError::InvalidParameter {
                name: "high",
                value: high,
                constraint: "bounds must be finite with low < high",
            });
        }
        Ok(Self { low, high })
    }

    /// The inclusive lower bound.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// The exclusive upper bound.
    pub fn high(&self) -> f64 {
        self.high
    }
}

impl Continuous for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.low + rng.gen::<f64>() * (self.high - self.low)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x >= self.low && x < self.high {
            1.0 / (self.high - self.low)
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.low {
            0.0
        } else if x >= self.high {
            1.0
        } else {
            (x - self.low) / (self.high - self.low)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        check_probability(p);
        self.low + p * (self.high - self.low)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::from_variance(0.0, -1.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Gamma::new(1.0, f64::INFINITY).is_err());
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Uniform::new(1.0, 1.0).is_err());
    }

    #[test]
    fn normal_moments_match_samples() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut rng = crate::seeded_rng(101);
        let xs = d.sample_n(&mut rng, 50_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - d.mean()).abs() < 0.05, "mean {mean}");
        assert!((var - d.variance()).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_moments_match_samples() {
        let d = Exponential::new(2.5).unwrap();
        let mut rng = crate::seeded_rng(103);
        let xs = d.sample_n(&mut rng, 50_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - d.mean()).abs() < 0.01, "mean {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_moments_match_samples() {
        for (shape, scale) in [(0.5, 2.0), (1.0, 1.0), (3.0, 0.5), (9.5, 2.0)] {
            let d = Gamma::new(shape, scale).unwrap();
            let mut rng = crate::seeded_rng(107);
            let xs = d.sample_n(&mut rng, 50_000);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            assert!(
                (mean - d.mean()).abs() < 0.05 * d.mean().max(1.0),
                "shape {shape}: mean {mean} vs {}",
                d.mean()
            );
            assert!(xs.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn cdf_quantile_round_trips() {
        let n = Normal::new(-1.0, 3.0).unwrap();
        let e = Exponential::new(0.7).unwrap();
        let g = Gamma::new(2.5, 1.5).unwrap();
        let l = Laplace::new(0.5, 2.0).unwrap();
        let u = Uniform::new(-2.0, 5.0).unwrap();
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            assert!((n.cdf(n.quantile(p)) - p).abs() < 1e-8);
            assert!((e.cdf(e.quantile(p)) - p).abs() < 1e-12);
            assert!((g.cdf(g.quantile(p)) - p).abs() < 1e-8, "gamma at {p}");
            assert!((l.cdf(l.quantile(p)) - p).abs() < 1e-12);
            assert!((u.cdf(u.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn chi_square_quantiles_match_tables() {
        // χ²(k) = Gamma(k/2, 2); spot-check textbook values.
        let cases = [
            (1.0, 0.95, 3.8415),
            (2.0, 0.95, 5.9915),
            (5.0, 0.95, 11.0705),
            (10.0, 0.05, 3.9403),
        ];
        for (k, p, want) in cases {
            let d = Gamma::new(k / 2.0, 2.0).unwrap();
            let got = d.quantile(p);
            assert!(
                (got - want).abs() < 1e-3,
                "chi2({k}) at {p}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn laplace_sampler_is_symmetric() {
        let d = Laplace::new(0.0, 1.0).unwrap();
        let mut rng = crate::seeded_rng(109);
        let xs = d.sample_n(&mut rng, 50_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_stays_in_support() {
        let d = Uniform::new(2.0, 3.0).unwrap();
        let mut rng = crate::seeded_rng(113);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..3.0).contains(&x));
        }
    }
}
