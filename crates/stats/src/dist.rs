//! Parametric continuous distributions.
//!
//! The paper fits an Exponentiated Weibull to driver reaction times
//! (Fig. 11) and Exponentials to accident speeds (Fig. 12). This module
//! provides those distributions (plus the plain Weibull), each with PDF,
//! CDF, quantile function and mean.

use crate::special::gamma;
use crate::{Result, StatsError};

/// A continuous probability distribution over (a subset of) the real line.
///
/// This trait is object-safe so heterogeneous collections of fitted
/// distributions can be stored together (e.g. one fit per manufacturer).
pub trait Continuous: std::fmt::Debug {
    /// Probability density at `x` (0 outside the support).
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `0 < p < 1`.
    fn quantile(&self, p: f64) -> Result<f64>;

    /// Mean of the distribution, if finite.
    fn mean(&self) -> f64;

    /// Natural log of the density at `x` (`-inf` outside the support).
    fn ln_pdf(&self, x: f64) -> f64;
}

fn check_p(p: f64) -> Result<()> {
    if p > 0.0 && p < 1.0 {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name: "p",
            value: p,
        })
    }
}

fn check_positive(name: &'static str, v: f64) -> Result<()> {
    if v > 0.0 && v.is_finite() {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter { name, value: v })
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`), support `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an Exponential with rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `rate <= 0`.
    pub fn new(rate: f64) -> Result<Exponential> {
        check_positive("rate", rate)?;
        Ok(Exponential { rate })
    }

    /// Creates an Exponential with the given mean (`1/λ`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `mean <= 0`.
    pub fn with_mean(mean: f64) -> Result<Exponential> {
        check_positive("mean", mean)?;
        Exponential::new(1.0 / mean)
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Continuous for Exponential {
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
            1.0 - (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_p(p)?;
        Ok(-(1.0 - p).ln() / self.rate)
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }
}

/// Weibull distribution with shape `k` and scale `λ`, support `[0, ∞)`.
///
/// `F(x) = 1 − exp(−(x/λ)^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull with shape `k > 0` and scale `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Result<Weibull> {
        check_positive("shape", shape)?;
        check_positive("scale", scale)?;
        Ok(Weibull { shape, scale })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Continuous for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Density at 0 is finite only for k >= 1.
            return if self.shape > 1.0 {
                0.0
            } else if self.shape == 1.0 {
                1.0 / self.scale
            } else {
                f64::INFINITY
            };
        }
        let z = x / self.scale;
        (self.shape / self.scale) * z.powf(self.shape - 1.0) * (-z.powf(self.shape)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_p(p)?;
        Ok(self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape))
    }

    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = x / self.scale;
        (self.shape / self.scale).ln() + (self.shape - 1.0) * z.ln() - z.powf(self.shape)
    }
}

/// Exponentiated Weibull distribution — the three-parameter family the
/// paper fits to reaction times (Fig. 11).
///
/// `F(x) = [1 − exp(−(x/λ)^k)]^α` with shape `k`, scale `λ`, and
/// exponentiation parameter `α`. `α = 1` recovers the plain Weibull.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentiatedWeibull {
    shape: f64,
    scale: f64,
    alpha: f64,
}

impl ExponentiatedWeibull {
    /// Creates an Exponentiated Weibull.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for non-positive parameters.
    pub fn new(shape: f64, scale: f64, alpha: f64) -> Result<ExponentiatedWeibull> {
        check_positive("shape", shape)?;
        check_positive("scale", scale)?;
        check_positive("alpha", alpha)?;
        Ok(ExponentiatedWeibull {
            shape,
            scale,
            alpha,
        })
    }

    /// The Weibull shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The Weibull scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The exponentiation parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `ln α + ln(k/λ)`, the term of the log-density that does not
    /// depend on `x`.
    fn ln_norm(&self) -> f64 {
        self.alpha.ln() + (self.shape / self.scale).ln()
    }

    /// The log-density at `x`, given [`Self::ln_norm`]. The expression
    /// adds left to right, so taking its first sum as an argument leaves
    /// every rounding, and so every bit, unchanged.
    fn ln_pdf_with(&self, ln_norm: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = x / self.scale;
        let zk = z.powf(self.shape);
        let base = 1.0 - (-zk).exp();
        if base <= 0.0 {
            return f64::NEG_INFINITY;
        }
        ln_norm + (self.shape - 1.0) * z.ln() + (self.alpha - 1.0) * base.ln() - zk
    }

    /// Replaces `out` with the log-density at each of `xs`, computing
    /// [`Self::ln_norm`] once for the batch.
    pub(crate) fn ln_pdf_into(&self, xs: &[f64], out: &mut Vec<f64>) {
        let ln_norm = self.ln_norm();
        out.clear();
        out.extend(xs.iter().map(|&x| self.ln_pdf_with(ln_norm, x)));
    }
}

impl Continuous for ExponentiatedWeibull {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = x / self.scale;
        let zk = z.powf(self.shape);
        let base = 1.0 - (-zk).exp();
        self.alpha
            * (self.shape / self.scale)
            * z.powf(self.shape - 1.0)
            * base.powf(self.alpha - 1.0)
            * (-zk).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            let z = (x / self.scale).powf(self.shape);
            (1.0 - (-z).exp()).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        check_p(p)?;
        let inner = 1.0 - p.powf(1.0 / self.alpha);
        Ok(self.scale * (-inner.ln()).powf(1.0 / self.shape))
    }

    fn mean(&self) -> f64 {
        // No closed form; integrate numerically via the quantile function.
        // E[X] = ∫₀¹ Q(p) dp  (midpoint rule over 4096 panels).
        const N: usize = 4096;
        let mut acc = 0.0;
        for i in 0..N {
            let p = (i as f64 + 0.5) / N as f64;
            acc += self.quantile(p).expect("p in (0,1)");
        }
        acc / N as f64
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        self.ln_pdf_with(self.ln_norm(), x)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::Rng;

    /// Draws `n` samples of `d` by inverse-transform sampling.
    pub(crate) fn sample_n<R: Rng + ?Sized>(
        d: &impl Continuous,
        rng: &mut R,
        n: usize,
    ) -> Vec<f64> {
        (0..n)
            .map(|_| {
                d.quantile(rng.gen_range(f64::EPSILON..1.0))
                    .expect("u is in (0, 1)")
            })
            .collect()
    }
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_quantile_roundtrip<D: Continuous>(d: &D, tol: f64) {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = d.quantile(p).unwrap();
            assert!(
                (d.cdf(x) - p).abs() < tol,
                "cdf(quantile({p})) = {} for {d:?}",
                d.cdf(x)
            );
        }
    }

    fn check_pdf_integrates_cdf<D: Continuous>(d: &D, lo: f64, hi: f64, tol: f64) {
        // Trapezoid integral of pdf over [lo, hi] should equal
        // cdf(hi) - cdf(lo).
        const N: usize = 20_000;
        let h = (hi - lo) / N as f64;
        let mut acc = 0.0;
        for i in 0..N {
            let a = lo + i as f64 * h;
            acc += (d.pdf(a) + d.pdf(a + h)) / 2.0 * h;
        }
        let expected = d.cdf(hi) - d.cdf(lo);
        assert!(
            (acc - expected).abs() < tol,
            "∫pdf = {acc} vs ΔCDF = {expected} for {d:?}"
        );
    }

    #[test]
    fn exponential_basics() {
        let e = Exponential::new(2.0).unwrap();
        assert_eq!(e.mean(), 0.5);
        assert!((e.cdf(e.mean()) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        check_quantile_roundtrip(&e, 1e-10);
        check_pdf_integrates_cdf(&e, 0.0, 5.0, 1e-6);
    }

    #[test]
    fn exponential_with_mean() {
        let e = Exponential::with_mean(4.0).unwrap();
        assert_eq!(e.rate(), 0.25);
        assert_eq!(e.mean(), 4.0);
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        let e = Exponential::new(0.5).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0] {
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-12);
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn weibull_mean_gamma_identity() {
        // k=2, λ=1: mean = Γ(1.5) = sqrt(π)/2
        let w = Weibull::new(2.0, 1.0).unwrap();
        let expected = std::f64::consts::PI.sqrt() / 2.0;
        assert!((w.mean() - expected).abs() < 1e-9);
    }

    #[test]
    fn weibull_quantile_roundtrip() {
        for &(k, l) in &[(0.5, 1.0), (1.5, 2.0), (3.0, 0.8)] {
            let w = Weibull::new(k, l).unwrap();
            check_quantile_roundtrip(&w, 1e-10);
        }
    }

    #[test]
    fn weibull_pdf_integrates() {
        let w = Weibull::new(1.5, 2.0).unwrap();
        check_pdf_integrates_cdf(&w, 0.0, 10.0, 1e-5);
    }

    #[test]
    fn exp_weibull_alpha_one_is_weibull() {
        let ew = ExponentiatedWeibull::new(1.5, 2.0, 1.0).unwrap();
        let w = Weibull::new(1.5, 2.0).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0, 6.0] {
            assert!((ew.pdf(x) - w.pdf(x)).abs() < 1e-12, "x={x}");
            assert!((ew.cdf(x) - w.cdf(x)).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn exp_weibull_quantile_roundtrip() {
        let ew = ExponentiatedWeibull::new(1.2, 0.8, 2.5).unwrap();
        check_quantile_roundtrip(&ew, 1e-9);
    }

    #[test]
    fn exp_weibull_pdf_integrates() {
        let ew = ExponentiatedWeibull::new(2.0, 1.0, 0.5).unwrap();
        check_pdf_integrates_cdf(&ew, 0.0, 8.0, 1e-3);
    }

    #[test]
    fn exp_weibull_batch_ln_pdf_is_pointwise_ln_pdf() {
        let ew = ExponentiatedWeibull::new(0.6, 0.47, 1.6).unwrap();
        let xs = [-1.0, 0.0, 1e-300, 0.01, 0.47, 3.0, 60.0];
        let mut out = vec![f64::NAN; 2];
        ew.ln_pdf_into(&xs, &mut out);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(out), bits(xs.iter().map(|&x| ew.ln_pdf(x)).collect()));
    }

    #[test]
    fn exp_weibull_mean_near_weibull_for_alpha_one() {
        let ew = ExponentiatedWeibull::new(2.0, 1.0, 1.0).unwrap();
        let w = Weibull::new(2.0, 1.0).unwrap();
        assert!((ew.mean() - w.mean()).abs() < 1e-3);
    }

    #[test]
    fn sampling_mean_converges() {
        let mut rng = StdRng::seed_from_u64(42);
        let e = Exponential::new(0.5).unwrap();
        let xs = sample_n(&e, &mut rng, 20_000);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m - 2.0).abs() < 0.1, "sample mean {m}");
    }

    #[test]
    fn sampling_within_support() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Weibull::new(0.7, 1.3).unwrap();
        for x in sample_n(&w, &mut rng, 1000) {
            assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn cdf_monotone() {
        let ew = ExponentiatedWeibull::new(1.1, 1.0, 3.0).unwrap();
        let mut prev = -1.0;
        for i in 0..100 {
            let x = i as f64 * 0.1;
            let c = ew.cdf(x);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn quantile_rejects_bounds() {
        let e = Exponential::new(1.0).unwrap();
        assert!(e.quantile(0.0).is_err());
        assert!(e.quantile(1.0).is_err());
    }
}
