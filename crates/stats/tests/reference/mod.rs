//! The Weibull and Exponentiated-Weibull fitters the production ones are
//! pinned to.
//!
//! These are the original `fit_weibull`, `fit_exponentiated_weibull`,
//! `log_likelihood` and `fitted`, which evaluate every observation's term
//! in input order, kept as an executable specification. The production
//! fitters evaluate each term once per distinct value and gather it back
//! in observation order; the root `fit_equivalence` suite asserts that
//! they return the identical fits, every `f64` bit included, and the
//! identical errors. It lives in test code because no production path
//! runs it.
//!
//! The Exponentiated-Weibull log-density is this module's own copy of
//! the expression ([`ew_ln_pdf`]), so drift in
//! `ExponentiatedWeibull::ln_pdf` shows up as a mismatch rather than
//! moving both sides at once.

use disengage_stats::dist::{Continuous, ExponentiatedWeibull, Weibull};
use disengage_stats::fit::Fitted;
use disengage_stats::optimize::{bisect, nelder_mead, NelderMeadOptions};
use disengage_stats::{Result, StatsError};

/// The log-density the reference likelihood sums.
pub trait LnPdf {
    /// Natural log of the density at `x`.
    fn ln_density(&self, x: f64) -> f64;
}

/// Weibull's log-density is the production one.
impl LnPdf for Weibull {
    fn ln_density(&self, x: f64) -> f64 {
        self.ln_pdf(x)
    }
}

/// The Exponentiated Weibull's is [`ew_ln_pdf`].
impl LnPdf for ExponentiatedWeibull {
    fn ln_density(&self, x: f64) -> f64 {
        ew_ln_pdf(self, x)
    }
}

/// The Exponentiated-Weibull log-density, as the original
/// `ExponentiatedWeibull::ln_pdf` wrote it.
pub fn ew_ln_pdf(d: &ExponentiatedWeibull, x: f64) -> f64 {
    let (shape, scale, alpha) = (d.shape(), d.scale(), d.alpha());
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let z = x / scale;
    let zk = z.powf(shape);
    let base = 1.0 - (-zk).exp();
    if base <= 0.0 {
        return f64::NEG_INFINITY;
    }
    alpha.ln() + (shape / scale).ln() + (shape - 1.0) * z.ln() + (alpha - 1.0) * base.ln() - zk
}

fn validate_positive_sample(xs: &[f64], min_n: usize) -> Result<()> {
    if xs.len() < min_n {
        return Err(StatsError::InsufficientData {
            required: min_n,
            actual: xs.len(),
        });
    }
    for &x in xs {
        if !x.is_finite() {
            return Err(StatsError::NonFinite);
        }
        if x <= 0.0 {
            return Err(StatsError::OutOfDomain {
                expected: "strictly positive observations",
                value: x,
            });
        }
    }
    Ok(())
}

fn log_likelihood<D: LnPdf>(d: &D, xs: &[f64]) -> f64 {
    xs.iter().map(|&x| d.ln_density(x)).sum()
}

fn fitted<D: LnPdf>(d: D, xs: &[f64], k_params: usize) -> Fitted<D> {
    let ll = log_likelihood(&d, xs);
    Fitted {
        log_likelihood: ll,
        n: xs.len(),
        aic: 2.0 * k_params as f64 - 2.0 * ll,
        dist: d,
    }
}

/// The original profile-likelihood Weibull fit.
pub fn fit_weibull(xs: &[f64]) -> Result<Fitted<Weibull>> {
    validate_positive_sample(xs, 2)?;
    if xs.windows(2).all(|w| w[0] == w[1]) {
        return Err(StatsError::DegenerateSample(
            "all observations identical; weibull shape unbounded",
        ));
    }
    let n = xs.len() as f64;
    let mean_ln: f64 = xs.iter().map(|x| x.ln()).sum::<f64>() / n;
    // Normalize by the sample maximum so x^k stays finite for large k.
    let x_max = xs.iter().copied().fold(f64::MIN, f64::max);
    let scaled: Vec<f64> = xs.iter().map(|x| x / x_max).collect();
    let g = |k: f64| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (&s, &x) in scaled.iter().zip(xs) {
            let w = s.powf(k);
            num += w * x.ln();
            den += w;
        }
        num / den - 1.0 / k - mean_ln
    };
    // Bracket the root: g is increasing in k; g(k→0⁺) → −∞.
    let mut lo = 1e-3;
    let mut hi = 1.0;
    let mut iter = 0;
    while g(hi) < 0.0 {
        lo = hi;
        hi *= 2.0;
        iter += 1;
        if iter > 60 {
            return Err(StatsError::NoConvergence {
                algorithm: "weibull shape bracketing",
                iterations: iter,
            });
        }
    }
    let shape = bisect(g, lo, hi, 1e-12, 200)?;
    let scale = {
        let s: f64 = scaled.iter().map(|x| x.powf(shape)).sum::<f64>() / n;
        x_max * s.powf(1.0 / shape)
    };
    let dist = Weibull::new(shape, scale)?;
    Ok(fitted(dist, xs, 2))
}

/// The original Nelder–Mead Exponentiated-Weibull fit, seeded from
/// [`fit_weibull`].
pub fn fit_exponentiated_weibull(xs: &[f64]) -> Result<Fitted<ExponentiatedWeibull>> {
    validate_positive_sample(xs, 3)?;
    let seed = fit_weibull(xs)?;
    let x0 = [
        seed.dist.shape().ln(),
        seed.dist.scale().ln(),
        0.0, // ln α = 0  →  α = 1
    ];
    let objective = |theta: &[f64]| -> f64 {
        let (k, l, a) = (theta[0].exp(), theta[1].exp(), theta[2].exp());
        // Guard against overflow in extreme corners of the search space.
        if !(1e-6..1e6).contains(&k) || !(1e-9..1e9).contains(&l) || !(1e-6..1e6).contains(&a) {
            return f64::INFINITY;
        }
        match ExponentiatedWeibull::new(k, l, a) {
            Ok(d) => -log_likelihood(&d, xs),
            Err(_) => f64::INFINITY,
        }
    };
    let min = nelder_mead(
        objective,
        &x0,
        NelderMeadOptions {
            max_iter: 4000,
            ..Default::default()
        },
    )?;
    let dist = ExponentiatedWeibull::new(min.x[0].exp(), min.x[1].exp(), min.x[2].exp())?;
    Ok(fitted(dist, xs, 3))
}
