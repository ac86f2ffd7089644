//! The Kalra–Paddock "Driving to Safety" reliability-demonstration model.
//!
//! The paper cites Kalra & Paddock (RAND, 2016) — reference \[36\] — to test
//! the statistical significance of observed accident rates given the small
//! number of accidents. The model treats accidents as a Poisson/binomial
//! process over miles driven and asks three questions:
//!
//! 1. How many failure-free miles demonstrate, with confidence `C`, that
//!    the true failure rate is below `r`?
//! 2. Given `k` failures in `m` miles, what is the exact confidence
//!    interval on the failure rate?
//! 3. Is an observed rate significantly different from a benchmark rate
//!    (e.g. the human-driver APM of 2×10⁻⁶)?

use crate::special::reg_inc_gamma_p;
use crate::{Result, StatsError};

fn check_prob(name: &'static str, p: f64) -> Result<()> {
    if p > 0.0 && p < 1.0 {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter { name, value: p })
    }
}

/// Miles that must be driven **without failure** to demonstrate, with
/// confidence `confidence`, that the true failure rate is below
/// `rate_per_mile`.
///
/// From the zero-failure Poisson bound: `m = −ln(1 − C) / r`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] unless `0 < confidence < 1`
/// and `rate_per_mile > 0`.
///
/// # Examples
///
/// ```
/// # use disengage_stats::kalra_paddock::failure_free_miles;
/// // RAND's headline: demonstrating better-than-human fatality rates
/// // takes hundreds of millions of miles.
/// let m = failure_free_miles(1.09e-8, 0.95).unwrap();
/// assert!(m > 2.0e8);
/// ```
pub fn failure_free_miles(rate_per_mile: f64, confidence: f64) -> Result<f64> {
    check_prob("confidence", confidence)?;
    if rate_per_mile <= 0.0 || !rate_per_mile.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "rate_per_mile",
            value: rate_per_mile,
        });
    }
    Ok(-(1.0 - confidence).ln() / rate_per_mile)
}

/// Miles required to demonstrate a rate bound when up to `max_failures`
/// failures are tolerated during the demonstration.
///
/// Solves `P(X <= k; λ = r·m) = 1 − C` for `m`, where `X ~ Poisson(r·m)`.
/// With `k = 0` this reduces to [`failure_free_miles`].
///
/// # Errors
///
/// Same conditions as [`failure_free_miles`].
pub fn demonstration_miles(rate_per_mile: f64, confidence: f64, max_failures: u64) -> Result<f64> {
    check_prob("confidence", confidence)?;
    if rate_per_mile <= 0.0 || !rate_per_mile.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "rate_per_mile",
            value: rate_per_mile,
        });
    }
    // P(X <= k; λ) = Q(k+1, λ) (regularized upper incomplete gamma).
    // We need the λ where Q(k+1, λ) = 1 − C, i.e. P(k+1, λ) = C.
    let a = max_failures as f64 + 1.0;
    let target = confidence;
    // Bracket λ.
    let mut lo = 1e-12;
    let mut hi = a.max(1.0);
    while reg_inc_gamma_p(a, hi)? < target {
        lo = hi;
        hi *= 2.0;
        if hi > 1e12 {
            return Err(StatsError::NoConvergence {
                algorithm: "demonstration miles bracketing",
                iterations: 40,
            });
        }
    }
    let lambda = crate::optimize::bisect(
        |l| reg_inc_gamma_p(a, l).unwrap_or(f64::NAN) - target,
        lo,
        hi,
        1e-10,
        300,
    )?;
    Ok(lambda / rate_per_mile)
}

/// An exact (Garwood) confidence interval on a Poisson failure rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateInterval {
    /// Point estimate, `failures / miles`.
    pub rate: f64,
    /// Lower confidence bound on the rate per mile.
    pub lower: f64,
    /// Upper confidence bound on the rate per mile.
    pub upper: f64,
    /// Confidence level.
    pub confidence: f64,
}

/// Exact two-sided confidence interval on a failure rate given `failures`
/// events over `miles` miles (Garwood / chi-square method, computed via
/// the incomplete gamma inverse).
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for non-positive `miles` or a
/// confidence outside `(0, 1)`.
pub fn rate_confidence_interval(
    failures: u64,
    miles: f64,
    confidence: f64,
) -> Result<RateInterval> {
    check_prob("confidence", confidence)?;
    if miles <= 0.0 || !miles.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "miles",
            value: miles,
        });
    }
    let alpha = 1.0 - confidence;
    let k = failures as f64;
    // Lower bound: the α/2 quantile of Gamma(k) (0 when k = 0); this is
    // the classical χ²_{α/2, 2k} / 2 bound.
    let lower_lambda = if failures == 0 {
        0.0
    } else {
        invert_gamma(k, alpha / 2.0)?
    };
    // Upper bound: λ_hi solves P(k+1, λ) = 1 − α/2.
    let upper_lambda = invert_gamma(k + 1.0, 1.0 - alpha / 2.0)?;
    Ok(RateInterval {
        rate: k / miles,
        lower: lower_lambda / miles,
        upper: upper_lambda / miles,
        confidence,
    })
}

/// Solves `P(a, λ) = p` for λ by bracketing + bisection.
fn invert_gamma(a: f64, p: f64) -> Result<f64> {
    let mut lo = 1e-12;
    let mut hi = a.max(1.0);
    while reg_inc_gamma_p(a, hi)? < p {
        lo = hi;
        hi *= 2.0;
        if hi > 1e12 {
            return Err(StatsError::NoConvergence {
                algorithm: "gamma inverse bracketing",
                iterations: 40,
            });
        }
    }
    crate::optimize::bisect(
        |l| reg_inc_gamma_p(a, l).unwrap_or(f64::NAN) - p,
        lo,
        hi,
        1e-12,
        300,
    )
}

/// Result of a one-sided Poisson rate comparison against a benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateComparison {
    /// Observed rate per mile.
    pub observed_rate: f64,
    /// Benchmark rate per mile.
    pub benchmark_rate: f64,
    /// Observed rate / benchmark rate (e.g. "20.7× worse than humans").
    pub ratio: f64,
    /// One-sided p-value for H0: true rate <= benchmark
    /// (small p ⇒ observed rate significantly exceeds the benchmark).
    pub p_value: f64,
}

/// Tests whether `failures` over `miles` is consistent with a benchmark
/// failure rate (exact Poisson test).
///
/// This is the calculation behind the paper's claim that the Waymo and GM
/// Cruise APM results hold at > 90% significance, and behind Table VII's
/// "Rel. to HAPM" column.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for non-positive `miles` or
/// `benchmark_rate`.
pub fn compare_to_benchmark(
    failures: u64,
    miles: f64,
    benchmark_rate: f64,
) -> Result<RateComparison> {
    if miles <= 0.0 || !miles.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "miles",
            value: miles,
        });
    }
    if benchmark_rate <= 0.0 || !benchmark_rate.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "benchmark_rate",
            value: benchmark_rate,
        });
    }
    let lambda = benchmark_rate * miles;
    // P(X >= k; λ) = P(k, λ) regularized lower incomplete gamma with a=k.
    let k = failures;
    let p_value = if k == 0 {
        1.0
    } else {
        // P(X >= k) = 1 - P(X <= k-1) = 1 - Q(k, λ) = P(k, λ)
        reg_inc_gamma_p(k as f64, lambda)?
    };
    let observed_rate = k as f64 / miles;
    Ok(RateComparison {
        observed_rate,
        benchmark_rate,
        ratio: observed_rate / benchmark_rate,
        p_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_miles_matches_closed_form() {
        // 95% confidence on r = 1e-6: m = -ln(0.05)/1e-6 ≈ 2.996e6
        let m = failure_free_miles(1e-6, 0.95).unwrap();
        assert!((m - 2.9957e6).abs() / 2.9957e6 < 1e-3, "m = {m}");
    }

    #[test]
    fn rand_headline_number() {
        // Kalra-Paddock report: ~275 million failure-free miles to
        // demonstrate the human fatality rate (1.09 per 100M miles) at 95%.
        let m = failure_free_miles(1.09e-8, 0.95).unwrap();
        assert!((m / 1e6 - 275.0).abs() < 5.0, "m = {} million", m / 1e6);
    }

    #[test]
    fn demonstration_with_zero_failures_matches_simple_bound() {
        let a = failure_free_miles(1e-5, 0.9).unwrap();
        let b = demonstration_miles(1e-5, 0.9, 0).unwrap();
        assert!((a - b).abs() / a < 1e-6);
    }

    #[test]
    fn tolerating_failures_requires_more_miles() {
        let m0 = demonstration_miles(1e-5, 0.95, 0).unwrap();
        let m1 = demonstration_miles(1e-5, 0.95, 1).unwrap();
        let m5 = demonstration_miles(1e-5, 0.95, 5).unwrap();
        assert!(m1 > m0);
        assert!(m5 > m1);
    }

    #[test]
    fn rate_interval_contains_point_estimate() {
        let ri = rate_confidence_interval(25, 1_000_000.0, 0.95).unwrap();
        assert!(ri.lower < ri.rate && ri.rate < ri.upper);
        assert!((ri.rate - 2.5e-5).abs() < 1e-12);
    }

    #[test]
    fn rate_interval_zero_failures() {
        let ri = rate_confidence_interval(0, 500_000.0, 0.95).unwrap();
        assert_eq!(ri.lower, 0.0);
        assert_eq!(ri.rate, 0.0);
        // Upper bound is -ln(α/2)/miles ≈ 3.689/5e5
        assert!((ri.upper - 3.689 / 500_000.0).abs() / ri.upper < 1e-3);
    }

    #[test]
    fn garwood_interval_known_value() {
        // For k=10 events, the exact 95% CI on λ is (4.795, 18.39).
        let ri = rate_confidence_interval(10, 1.0, 0.95).unwrap();
        assert!((ri.lower - 4.795).abs() < 0.01, "lower = {}", ri.lower);
        assert!((ri.upper - 18.39).abs() < 0.01, "upper = {}", ri.upper);
    }

    #[test]
    fn waymo_apm_significantly_worse_than_human() {
        // Paper: Waymo 25 accidents over ~604k miles (25/APM=4.14e-5 →
        // miles ≈ 25/4.14e-5). Human APM = 2e-6. The excess is highly
        // significant.
        let miles = 25.0 / 4.14e-5;
        let c = compare_to_benchmark(25, miles, 2e-6).unwrap();
        assert!(c.ratio > 15.0 && c.ratio < 25.0, "ratio = {}", c.ratio);
        assert!(c.p_value < 0.01, "p = {}", c.p_value);
    }

    #[test]
    fn consistent_rate_not_significant() {
        // 2 failures over 1M miles at a benchmark of 2e-6/mile: expected
        // exactly 2 — no significance.
        let c = compare_to_benchmark(2, 1_000_000.0, 2e-6).unwrap();
        assert!(c.p_value >= 0.1, "p = {}", c.p_value);
        assert!((c.ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_failures_p_value_one() {
        let c = compare_to_benchmark(0, 1_000_000.0, 2e-6).unwrap();
        assert_eq!(c.p_value, 1.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(failure_free_miles(0.0, 0.95).is_err());
        assert!(failure_free_miles(1e-6, 1.0).is_err());
        assert!(rate_confidence_interval(1, 0.0, 0.95).is_err());
        assert!(compare_to_benchmark(1, -5.0, 1e-6).is_err());
    }
}
