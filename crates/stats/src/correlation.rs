//! Correlation coefficients with significance tests.
//!
//! The paper reports Pearson correlations with p-values in several places:
//! log(DPM) vs. log(cumulative miles) with r = −0.87 at p = 7×10⁻⁵⁶ (Fig. 8),
//! reaction time vs. cumulative miles (r = 0.19 / 0.11, §V-A4), and APM vs.
//! miles (r = 0.98, §V-B1).

use crate::error::ensure_finite;
use crate::special::student_t_two_sided_p;
use crate::{Result, StatsError};

/// A correlation estimate together with its significance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correlation {
    /// The correlation coefficient in `[-1, 1]`.
    pub r: f64,
    /// Two-sided p-value for H0: ρ = 0 (via the t transform; `NaN` when
    /// `n <= 2`).
    pub p_value: f64,
    /// Number of paired observations.
    pub n: usize,
}

fn validate_pairs(xs: &[f64], ys: &[f64]) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(StatsError::InsufficientData {
            required: 2,
            actual: xs.len(),
        });
    }
    ensure_finite(xs)?;
    ensure_finite(ys)?;
    Ok(())
}

fn t_p_value(r: f64, n: usize) -> Result<f64> {
    if n <= 2 {
        return Ok(f64::NAN);
    }
    if r.abs() >= 1.0 {
        return Ok(0.0);
    }
    let df = (n - 2) as f64;
    let t = r * (df / (1.0 - r * r)).sqrt();
    student_t_two_sided_p(t, df)
}

/// Pearson product-moment correlation with a two-sided p-value.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] for unequal sample lengths.
/// * [`StatsError::InsufficientData`] for fewer than 2 pairs.
/// * [`StatsError::DegenerateSample`] if either sample has zero variance.
/// * [`StatsError::NonFinite`] for NaN/infinite inputs.
///
/// # Examples
///
/// ```
/// # use disengage_stats::correlation::pearson;
/// let x = [1.0, 2.0, 3.0];
/// let y = [6.0, 4.0, 2.0];
/// let c = pearson(&x, &y).unwrap();
/// assert!((c.r + 1.0).abs() < 1e-12); // perfect negative correlation
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<Correlation> {
    validate_pairs(xs, ys)?;
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::DegenerateSample(
            "zero variance in one of the samples",
        ));
    }
    let r = (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0);
    Ok(Correlation {
        r,
        p_value: t_p_value(r, xs.len())?,
        n: xs.len(),
    })
}

/// Pearson correlation of the element-wise natural logs of two positive
/// samples — the statistic behind Fig. 8 of the paper.
///
/// # Errors
///
/// In addition to [`pearson`]'s conditions, returns
/// [`StatsError::OutOfDomain`] if any value is non-positive.
pub fn log_log_pearson(xs: &[f64], ys: &[f64]) -> Result<Correlation> {
    for &v in xs.iter().chain(ys) {
        if v <= 0.0 {
            return Err(StatsError::OutOfDomain {
                expected: "strictly positive values for log-log correlation",
                value: v,
            });
        }
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    pearson(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let c = pearson(&x, &y).unwrap();
        assert!((c.r - 1.0).abs() < 1e-12);
        assert!(c.p_value < 1e-10);
    }

    #[test]
    fn perfect_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [8.0, 6.0, 4.0, 2.0];
        let c = pearson(&x, &y).unwrap();
        assert!((c.r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_is_weak() {
        // Alternating pattern orthogonal to a linear trend.
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let c = pearson(&x, &y).unwrap();
        assert!(c.r.abs() < 0.1);
        assert!(c.p_value >= 0.05);
    }

    #[test]
    fn p_value_decreases_with_n() {
        // Same moderate correlation, more data => smaller p.
        fn noisy(n: usize) -> (Vec<f64>, Vec<f64>) {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let ys: Vec<f64> = (0..n)
                .map(|i| i as f64 + if i % 3 == 0 { 10.0 } else { -5.0 })
                .collect();
            (xs, ys)
        }
        let (x1, y1) = noisy(10);
        let (x2, y2) = noisy(100);
        let p_small = pearson(&x1, &y1).unwrap().p_value;
        let p_big = pearson(&x2, &y2).unwrap().p_value;
        assert!(p_big < p_small);
    }

    #[test]
    fn zero_variance_rejected() {
        assert!(matches!(
            pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::DegenerateSample(_))
        ));
    }

    #[test]
    fn two_points_no_p_value() {
        let c = pearson(&[1.0, 2.0], &[3.0, 5.0]).unwrap();
        assert!((c.r - 1.0).abs() < 1e-12);
        assert!(c.p_value.is_nan());
    }

    #[test]
    fn log_log_matches_manual() {
        let x = [1.0, 10.0, 100.0];
        let y = [2.0, 20.0, 200.0];
        let c = log_log_pearson(&x, &y).unwrap();
        assert!((c.r - 1.0).abs() < 1e-12);
        assert!(log_log_pearson(&[0.0, 1.0], &[1.0, 2.0]).is_err());
    }
}
