//! Special mathematical functions.
//!
//! Implements the transcendental functions needed for statistical inference:
//! the log-gamma function, the regularized incomplete gamma and beta
//! functions, and Student's t p-value. All implementations are
//! self-contained (no external math crates) and accurate to roughly 1e-10
//! over the parameter ranges used by this toolkit.

use crate::StatsError;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9 coefficients), which is
/// accurate to better than 1e-13 for `x > 0`.
///
/// # Examples
///
/// ```
/// use disengage_stats::special::ln_gamma;
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `x <= 0` (the real-axis poles of Γ are not supported).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
///
/// # Examples
///
/// ```
/// use disengage_stats::special::gamma;
/// assert!((gamma(6.0) - 120.0).abs() < 1e-9);
/// ```
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Uses the power-series expansion for `x < a + 1` and the continued
/// fraction for `x >= a + 1` (Numerical Recipes style).
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] if `a <= 0` or `x < 0`, and
/// [`StatsError::NoConvergence`] if the expansion fails to converge.
pub fn reg_inc_gamma_p(a: f64, x: f64) -> crate::Result<f64> {
    validate_gamma_args(a, x)?;
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        Ok(1.0 - gamma_cf(a, x)?)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// # Errors
///
/// Same conditions as [`reg_inc_gamma_p`].
pub fn reg_inc_gamma_q(a: f64, x: f64) -> crate::Result<f64> {
    validate_gamma_args(a, x)?;
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_series(a, x)?)
    } else {
        gamma_cf(a, x)
    }
}

fn validate_gamma_args(a: f64, x: f64) -> crate::Result<()> {
    if a <= 0.0 || !a.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
        });
    }
    if x < 0.0 || !x.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
        });
    }
    Ok(())
}

/// Series representation of P(a, x), converges quickly for x < a + 1.
fn gamma_series(a: f64, x: f64) -> crate::Result<f64> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            let ln_term = -x + a * x.ln() - ln_gamma(a);
            return Ok(sum * ln_term.exp());
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "incomplete gamma series",
        iterations: MAX_ITER,
    })
}

/// Continued-fraction representation of Q(a, x), for x >= a + 1.
fn gamma_cf(a: f64, x: f64) -> crate::Result<f64> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            let ln_term = -x + a * x.ln() - ln_gamma(a);
            return Ok(ln_term.exp() * h);
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "incomplete gamma continued fraction",
        iterations: MAX_ITER,
    })
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// This is the CDF of the Beta(a, b) distribution at `x`, used here to turn
/// t-statistics into p-values for correlation and regression inference.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] if `a <= 0`, `b <= 0`, or `x`
/// is outside `[0, 1]`; [`StatsError::NoConvergence`] if the continued
/// fraction fails.
///
/// # Examples
///
/// ```
/// use disengage_stats::special::reg_inc_beta;
/// // I_0.5(2, 2) = 0.5 by symmetry
/// assert!((reg_inc_beta(2.0, 2.0, 0.5).unwrap() - 0.5).abs() < 1e-12);
/// ```
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> crate::Result<f64> {
    if a <= 0.0 || !a.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
        });
    }
    if b <= 0.0 || !b.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "b",
            value: b,
        });
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry relation to keep the continued fraction in its fast
    // convergence region.
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_cf(a, b, x)? / a)
    } else {
        Ok(1.0 - front * beta_cf(b, a, 1.0 - x)? / b)
    }
}

/// Lentz's continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> crate::Result<f64> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok(h);
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "incomplete beta continued fraction",
        iterations: MAX_ITER,
    })
}

/// Two-sided p-value for a Student's t statistic with `df` degrees of
/// freedom.
///
/// `p = I_{df/(df+t²)}(df/2, 1/2)`.
///
/// # Errors
///
/// Returns an error if `df <= 0`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> crate::Result<f64> {
    if df <= 0.0 || !df.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "df",
            value: df,
        });
    }
    if !t.is_finite() {
        // An infinite t statistic corresponds to a zero p-value.
        return Ok(0.0);
    }
    let x = df / (df + t * t);
    reg_inc_beta(df / 2.0, 0.5, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let x = (n + 1) as f64;
            assert!(
                (ln_gamma(x) - f.ln()).abs() < TOL,
                "ln_gamma({x}) = {} expected {}",
                ln_gamma(x),
                f.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < TOL);
        // Γ(3/2) = sqrt(π)/2
        let expected = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - expected).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn ln_gamma_panics_on_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_p_plus_q_is_one() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 10.0), (10.0, 3.0)] {
            let p = reg_inc_gamma_p(a, x).unwrap();
            let q = reg_inc_gamma_q(a, x).unwrap();
            assert!((p + q - 1.0).abs() < 1e-12, "a={a} x={x}");
        }
    }

    #[test]
    fn incomplete_gamma_exponential_cdf() {
        // P(1, x) = 1 - exp(-x), the Exp(1) CDF.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let p = reg_inc_gamma_p(1.0, x).unwrap();
            assert!((p - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_rejects_bad_args() {
        assert!(reg_inc_gamma_p(-1.0, 1.0).is_err());
        assert!(reg_inc_gamma_p(1.0, -1.0).is_err());
    }

    #[test]
    fn incomplete_beta_symmetry() {
        // I_x(a, b) = 1 − I_{1−x}(b, a)
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.3), (5.0, 1.0, 0.9)] {
            let lhs = reg_inc_beta(a, b, x).unwrap();
            let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
            assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn incomplete_beta_uniform_case() {
        // I_x(1, 1) = x (the Uniform CDF).
        for &x in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((reg_inc_beta(1.0, 1.0, x).unwrap() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn student_t_p_values() {
        // With df = 10, t = 2.228 gives p ≈ 0.05 (two-sided).
        let p = student_t_two_sided_p(2.228, 10.0).unwrap();
        assert!((p - 0.05).abs() < 1e-3, "p = {p}");
        // t = 0 gives p = 1.
        assert!((student_t_two_sided_p(0.0, 5.0).unwrap() - 1.0).abs() < 1e-12);
    }
}
