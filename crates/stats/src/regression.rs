//! Ordinary least-squares simple linear regression with inference.
//!
//! Figures 5 and 9 of the paper fit straight lines to (log-)mileage vs.
//! (log-)disengagement series; this module provides the fits together with
//! standard errors, t statistics, p-values, and R².

use crate::error::ensure_finite;
use crate::special::student_t_two_sided_p;
use crate::{Result, StatsError};

/// Result of a simple linear regression `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Estimated slope.
    pub slope: f64,
    /// Estimated intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Standard error of the slope.
    pub slope_std_err: f64,
    /// Standard error of the intercept.
    pub intercept_std_err: f64,
    /// Two-sided p-value for H0: slope = 0 (`NaN` when `n == 2`).
    pub slope_p_value: f64,
    /// Number of observations.
    pub n: usize,
    /// Residual standard error, `sqrt(SSE / (n − 2))` (`NaN` when `n == 2`).
    pub residual_std_err: f64,
}

/// Fits `y = a + b·x` by ordinary least squares.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if `xs` and `ys` differ in length.
/// * [`StatsError::InsufficientData`] for fewer than 2 points.
/// * [`StatsError::DegenerateSample`] if all `x`s are identical.
/// * [`StatsError::NonFinite`] for NaN/infinite inputs.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> Result<LinearFit> {
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
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return Err(StatsError::DegenerateSample("all x values identical"));
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    // Sum of squared residuals via the identity SSE = Syy − b·Sxy.
    let sse = (syy - slope * sxy).max(0.0);
    let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - sse / syy };
    let df = n - 2.0;
    let (residual_std_err, slope_std_err, intercept_std_err, slope_p_value) = if df > 0.0 {
        let s2 = sse / df;
        let se_b = (s2 / sxx).sqrt();
        let se_a = (s2 * (1.0 / n + mean_x * mean_x / sxx)).sqrt();
        let p = if se_b == 0.0 {
            0.0
        } else {
            student_t_two_sided_p(slope / se_b, df)?
        };
        (s2.sqrt(), se_b, se_a, p)
    } else {
        (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
        slope_std_err,
        intercept_std_err,
        slope_p_value,
        n: xs.len(),
        residual_std_err,
    })
}

/// Result of a power-law fit `y = c · x^m`, obtained by linear regression
/// in log-log space.
///
/// The paper's Figs. 5 and 9 present exactly these fits (straight lines on
/// log-log axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Exponent `m` (the slope of the log-log line).
    pub exponent: f64,
    /// Prefactor `c`.
    pub prefactor: f64,
    /// The underlying log-log linear fit (for inference).
    pub log_fit: LinearFit,
}

impl PowerLawFit {
    /// Predicted value at `x > 0`.
    pub fn predict(&self, x: f64) -> f64 {
        self.prefactor * x.powf(self.exponent)
    }
}

/// Fits `y = c · x^m` by OLS on `(ln x, ln y)`.
///
/// # Errors
///
/// In addition to the conditions of [`fit_linear`], returns
/// [`StatsError::OutOfDomain`] if any `x` or `y` is non-positive.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> Result<PowerLawFit> {
    for &x in xs {
        if x <= 0.0 {
            return Err(StatsError::OutOfDomain {
                expected: "strictly positive x for log-log fit",
                value: x,
            });
        }
    }
    for &y in ys {
        if y <= 0.0 {
            return Err(StatsError::OutOfDomain {
                expected: "strictly positive y for log-log fit",
                value: y,
            });
        }
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let log_fit = fit_linear(&lx, &ly)?;
    Ok(PowerLawFit {
        exponent: log_fit.slope,
        prefactor: log_fit.intercept.exp(),
        log_fit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept - 2.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!(f.residual_std_err.abs() < 1e-9);
    }

    #[test]
    fn noisy_line_r_squared_below_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!((f.slope - 0.5).abs() < 0.01);
        assert!(f.r_squared > 0.95 && f.r_squared < 1.0);
        assert!(f.slope_p_value < 1e-10);
    }

    #[test]
    fn two_points_exact_no_inference() {
        let f = fit_linear(&[0.0, 1.0], &[1.0, 2.0]).unwrap();
        assert!((f.slope - 1.0).abs() < 1e-12);
        assert!(f.slope_p_value.is_nan());
        assert!(f.residual_std_err.is_nan());
    }

    #[test]
    fn flat_line_zero_slope_insignificant() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, _)| 5.0 + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!(f.slope.abs() < 0.05);
        assert!(f.slope_p_value > 0.1, "p = {}", f.slope_p_value);
    }

    #[test]
    fn degenerate_x_rejected() {
        assert!(matches!(
            fit_linear(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::DegenerateSample(_))
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            fit_linear(&[1.0, 2.0], &[1.0]),
            Err(StatsError::LengthMismatch { left: 2, right: 1 })
        ));
    }

    #[test]
    fn power_law_recovers_exponent() {
        // y = 2 x^1.5
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.powf(1.5)).collect();
        let f = fit_power_law(&xs, &ys).unwrap();
        assert!((f.exponent - 1.5).abs() < 1e-9);
        assert!((f.prefactor - 2.0).abs() < 1e-9);
        assert!((f.predict(25.0) - 2.0 * 25f64.powf(1.5)).abs() < 1e-6);
    }

    #[test]
    fn power_law_rejects_nonpositive() {
        assert!(matches!(
            fit_power_law(&[0.0, 1.0], &[1.0, 2.0]),
            Err(StatsError::OutOfDomain { .. })
        ));
        assert!(fit_power_law(&[1.0, 2.0], &[-1.0, 2.0]).is_err());
    }
}
