//! The one-sample Kolmogorov–Smirnov goodness-of-fit test.
//!
//! Used to validate the distribution fits of Figs. 11 and 12 (does the
//! Exponentiated Weibull actually describe the reaction times?).

use crate::dist::Continuous;
use crate::Result;

/// Result of a one-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D = sup |F_n(x) − F(x)|`.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution).
    pub p_value: f64,
    /// Number of observations.
    pub n: usize,
}

/// One-sample KS test of `xs` against a fitted continuous distribution.
///
/// Uses the asymptotic Kolmogorov distribution for the p-value with the
/// standard `√n + 0.12 + 0.11/√n` effective-sample-size correction.
///
/// # Errors
///
/// Returns [`crate::StatsError::EmptyInput`] for an empty sample and
/// [`crate::StatsError::NonFinite`] for NaN observations.
///
/// # Examples
///
/// ```
/// # use disengage_stats::{ks::ks_test, dist::Exponential};
/// let d = Exponential::new(1.0).unwrap();
/// // CDF-spaced quantiles of the true distribution fit it well.
/// let xs: Vec<f64> = (1..100).map(|i| {
///     use disengage_stats::dist::Continuous;
///     d.quantile(i as f64 / 100.0).unwrap()
/// }).collect();
/// let t = ks_test(&xs, &d).unwrap();
/// assert!(t.p_value >= 0.05);
/// ```
pub fn ks_test<D: Continuous + ?Sized>(xs: &[f64], dist: &D) -> Result<KsTest> {
    crate::error::ensure_nonempty_finite(xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
    let n = sorted.len() as f64;
    let mut d_stat: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let d_plus = (i as f64 + 1.0) / n - f;
        let d_minus = f - i as f64 / n;
        d_stat = d_stat.max(d_plus).max(d_minus);
    }
    let en = n.sqrt();
    let lambda = (en + 0.12 + 0.11 / en) * d_stat;
    Ok(KsTest {
        statistic: d_stat,
        p_value: kolmogorov_sf(lambda),
        n: sorted.len(),
    })
}

/// Kolmogorov survival function `Q(λ) = 2 Σ (−1)^{k−1} exp(−2k²λ²)`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = sign * (-2.0 * (k as f64 * lambda).powi(2)).exp();
        sum += term;
        if term.abs() < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::tests::sample_n;
    use crate::dist::{Exponential, Weibull};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_model_not_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = Weibull::new(1.4, 2.0).unwrap();
        let xs = sample_n(&d, &mut rng, 1_000);
        let t = ks_test(&xs, &d).unwrap();
        assert!(t.p_value >= 0.01, "p = {}", t.p_value);
        assert!(t.statistic < 0.06);
    }

    #[test]
    fn wrong_model_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let truth = Weibull::new(0.5, 1.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 1_000);
        let wrong = Exponential::new(1.0).unwrap();
        let t = ks_test(&xs, &wrong).unwrap();
        assert!(t.p_value < 0.01, "p = {}", t.p_value);
    }

    #[test]
    fn statistic_bounded() {
        let d = Exponential::new(1.0).unwrap();
        let t = ks_test(&[100.0, 200.0], &d).unwrap();
        assert!(t.statistic <= 1.0 && t.statistic > 0.8);
        assert!(t.p_value < 0.2);
    }

    #[test]
    fn empty_rejected() {
        let d = Exponential::new(1.0).unwrap();
        assert!(ks_test(&[], &d).is_err());
    }

    #[test]
    fn kolmogorov_sf_limits() {
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
        // Known value: Q(1.0) ≈ 0.2700
        assert!((kolmogorov_sf(1.0) - 0.27).abs() < 0.001);
    }
}
