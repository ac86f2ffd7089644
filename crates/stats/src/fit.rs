//! Maximum-likelihood fitting of the distributions in [`crate::dist`].
//!
//! Fig. 11 of the paper overlays an Exponentiated-Weibull fit on reaction
//! times; Fig. 12 overlays Exponential fits on accident speeds. The fitters
//! here reproduce those steps:
//!
//! * [`fit_exponential`] — closed-form MLE (`λ = 1 / x̄`).
//! * [`fit_weibull`] — profile likelihood: solve the one-dimensional shape
//!   equation by bisection, then the scale in closed form.
//! * [`fit_exponentiated_weibull`] — three-parameter MLE via Nelder–Mead in
//!   log-parameter space, seeded from the Weibull fit.
//!
//! Reaction times are recorded to 0.01 s, so a sample repeats few values
//! many times (Mercedes-Benz: 1,328 observations, 336 distinct). Each
//! fitter therefore evaluates every per-observation term once per
//! distinct value and gathers the results back in observation order
//! before summing: the same addends in the same order, so the same bits
//! as summing over the observations directly.

use crate::dist::{Continuous, Exponential, ExponentiatedWeibull, Weibull};
use crate::optimize::{bisect, nelder_mead, NelderMeadOptions};
use crate::{Result, StatsError};

/// A fitted distribution with its goodness-of-fit summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Fitted<D> {
    /// The fitted distribution.
    pub dist: D,
    /// Maximized log-likelihood.
    pub log_likelihood: f64,
    /// Number of observations used in the fit.
    pub n: usize,
    /// Akaike information criterion, `2k − 2·lnL`.
    pub aic: f64,
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

/// A sample as its ascending distinct values plus, for each observation
/// in input order, the index of its value.
struct Sample {
    values: Vec<f64>,
    index: Vec<usize>,
}

impl Sample {
    /// Splits a sample that passed [`validate_positive_sample`]. Its
    /// values are finite and positive, so equal values have equal bits.
    fn new(xs: &[f64]) -> Sample {
        let mut values = xs.to_vec();
        values.sort_unstable_by(f64::total_cmp);
        values.dedup();
        let index = xs
            .iter()
            .map(|x| {
                values
                    .binary_search_by(|v| v.total_cmp(x))
                    .expect("every observation is a value")
            })
            .collect();
        Sample { values, index }
    }

    /// Number of observations.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// `Σ term(xᵢ)` in observation order, given `per_value[u] =
    /// term(values[u])`: the addends and the fold of summing the
    /// observations' terms directly, so the same bits.
    fn sum(&self, per_value: &[f64]) -> f64 {
        self.index.iter().map(|&u| per_value[u]).sum()
    }
}

fn fitted<D: Continuous>(d: D, sample: &Sample, k_params: usize) -> Fitted<D> {
    let ln_pdfs: Vec<f64> = sample.values.iter().map(|&x| d.ln_pdf(x)).collect();
    let ll = sample.sum(&ln_pdfs);
    Fitted {
        log_likelihood: ll,
        n: sample.len(),
        aic: 2.0 * k_params as f64 - 2.0 * ll,
        dist: d,
    }
}

/// MLE fit of an [`Exponential`]: `λ̂ = 1 / x̄`.
///
/// # Errors
///
/// Returns an error for an empty or non-positive sample.
///
/// # Examples
///
/// ```
/// # use disengage_stats::fit::fit_exponential;
/// # use disengage_stats::dist::Continuous;
/// let f = fit_exponential(&[1.0, 2.0, 3.0]).unwrap();
/// assert!((f.dist.mean() - 2.0).abs() < 1e-12);
/// ```
pub fn fit_exponential(xs: &[f64]) -> Result<Fitted<Exponential>> {
    validate_positive_sample(xs, 1)?;
    let sample = Sample::new(xs);
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let dist = Exponential::with_mean(mean)?;
    Ok(fitted(dist, &sample, 1))
}

/// MLE fit of a [`Weibull`] via the profile-likelihood shape equation.
///
/// The shape `k` solves
/// `Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ − 1/k − (1/n) Σ ln xᵢ = 0`,
/// which is monotone in `k`; we bracket and bisect. The scale follows as
/// `λ̂ = (Σ xᵢᵏ / n)^{1/k}`.
///
/// # Errors
///
/// Returns an error for fewer than 2 observations, non-positive values, or
/// a degenerate (all-equal) sample.
pub fn fit_weibull(xs: &[f64]) -> Result<Fitted<Weibull>> {
    validate_positive_sample(xs, 2)?;
    weibull(&Sample::new(xs))
}

/// [`fit_weibull`] on a validated sample.
fn weibull(sample: &Sample) -> Result<Fitted<Weibull>> {
    let values = &sample.values;
    if values.len() == 1 {
        return Err(StatsError::DegenerateSample(
            "all observations identical; weibull shape unbounded",
        ));
    }
    let n = sample.len() as f64;
    let ln_values: Vec<f64> = values.iter().map(|x| x.ln()).collect();
    let mean_ln = sample.sum(&ln_values) / n;
    // Normalize by the sample maximum so x^k stays finite for large k.
    let x_max = values[values.len() - 1];
    let scaled: Vec<f64> = values.iter().map(|x| x / x_max).collect();
    // Per distinct value: (sᵏ, sᵏ·ln x).
    let mut terms: Vec<(f64, f64)> = Vec::with_capacity(values.len());
    let mut g = |k: f64| -> f64 {
        terms.clear();
        terms.extend(scaled.iter().zip(&ln_values).map(|(&s, &ln_x)| {
            let w = s.powf(k);
            (w, w * ln_x)
        }));
        let mut num = 0.0;
        let mut den = 0.0;
        for &u in &sample.index {
            let (w, w_ln_x) = terms[u];
            num += w_ln_x;
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
        let powers: Vec<f64> = scaled.iter().map(|x| x.powf(shape)).collect();
        let s = sample.sum(&powers) / n;
        x_max * s.powf(1.0 / shape)
    };
    let dist = Weibull::new(shape, scale)?;
    Ok(fitted(dist, sample, 2))
}

/// MLE fit of an [`ExponentiatedWeibull`] via Nelder–Mead, seeded from the
/// plain Weibull fit (`α = 1`).
///
/// The optimization runs over `(ln k, ln λ, ln α)` so the positivity
/// constraints are built into the parameterization.
///
/// # Errors
///
/// Returns an error for fewer than 3 observations, non-positive values, or
/// optimizer failure.
pub fn fit_exponentiated_weibull(xs: &[f64]) -> Result<Fitted<ExponentiatedWeibull>> {
    validate_positive_sample(xs, 3)?;
    let sample = Sample::new(xs);
    let seed = weibull(&sample)?;
    let x0 = [
        seed.dist.shape().ln(),
        seed.dist.scale().ln(),
        0.0, // ln α = 0  →  α = 1
    ];
    let mut ln_pdfs = Vec::with_capacity(sample.values.len());
    let objective = |theta: &[f64]| -> f64 {
        let (k, l, a) = (theta[0].exp(), theta[1].exp(), theta[2].exp());
        // Guard against overflow in extreme corners of the search space.
        if !(1e-6..1e6).contains(&k) || !(1e-9..1e9).contains(&l) || !(1e-6..1e6).contains(&a) {
            return f64::INFINITY;
        }
        match ExponentiatedWeibull::new(k, l, a) {
            Ok(d) => {
                d.ln_pdf_into(&sample.values, &mut ln_pdfs);
                -sample.sum(&ln_pdfs)
            }
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
    Ok(fitted(dist, &sample, 3))
}

/// Compares two fitted models by AIC; returns `true` when `a` is the
/// better (lower-AIC) model.
pub fn prefer_by_aic<A, B>(a: &Fitted<A>, b: &Fitted<B>) -> bool {
    a.aic <= b.aic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::tests::sample_n;
    use crate::dist::Continuous;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_recovers_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth = Exponential::new(0.4).unwrap();
        let xs = sample_n(&truth, &mut rng, 10_000);
        let f = fit_exponential(&xs).unwrap();
        assert!((f.dist.rate() - 0.4).abs() < 0.02, "rate {}", f.dist.rate());
        assert_eq!(f.n, 10_000);
    }

    #[test]
    fn exponential_rejects_negatives() {
        assert!(matches!(
            fit_exponential(&[1.0, -2.0]),
            Err(StatsError::OutOfDomain { .. })
        ));
        assert!(fit_exponential(&[]).is_err());
    }

    #[test]
    fn weibull_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        let truth = Weibull::new(1.8, 3.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 10_000);
        let f = fit_weibull(&xs).unwrap();
        assert!(
            (f.dist.shape() - 1.8).abs() < 0.1,
            "shape {}",
            f.dist.shape()
        );
        assert!(
            (f.dist.scale() - 3.0).abs() < 0.1,
            "scale {}",
            f.dist.scale()
        );
    }

    #[test]
    fn weibull_shape_below_one() {
        // Long-tailed regime (like the reaction-time data).
        let mut rng = StdRng::seed_from_u64(3);
        let truth = Weibull::new(0.6, 1.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 8_000);
        let f = fit_weibull(&xs).unwrap();
        assert!(
            (f.dist.shape() - 0.6).abs() < 0.05,
            "shape {}",
            f.dist.shape()
        );
    }

    #[test]
    fn weibull_degenerate_sample_rejected() {
        assert!(matches!(
            fit_weibull(&[2.0, 2.0, 2.0]),
            Err(StatsError::DegenerateSample(_))
        ));
    }

    #[test]
    fn weibull_exponential_data_gives_shape_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let truth = Exponential::new(1.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 10_000);
        let f = fit_weibull(&xs).unwrap();
        assert!(
            (f.dist.shape() - 1.0).abs() < 0.05,
            "shape {}",
            f.dist.shape()
        );
    }

    #[test]
    fn exp_weibull_recovers_weibull_subfamily() {
        let mut rng = StdRng::seed_from_u64(5);
        let truth = Weibull::new(1.5, 2.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 4_000);
        let f = fit_exponentiated_weibull(&xs).unwrap();
        // The fitted EW should reproduce the CDF of the truth closely
        // (parameters themselves are weakly identified when α ≈ 1).
        for &x in &[0.5, 1.0, 2.0, 4.0] {
            assert!(
                (f.dist.cdf(x) - truth.cdf(x)).abs() < 0.03,
                "cdf mismatch at {x}: {} vs {}",
                f.dist.cdf(x),
                truth.cdf(x)
            );
        }
    }

    #[test]
    fn exp_weibull_likelihood_at_least_weibull() {
        // The EW family nests Weibull, so its maximized likelihood can't be
        // (materially) lower.
        let mut rng = StdRng::seed_from_u64(6);
        let truth = Weibull::new(0.9, 1.2).unwrap();
        let xs = sample_n(&truth, &mut rng, 2_000);
        let w = fit_weibull(&xs).unwrap();
        let ew = fit_exponentiated_weibull(&xs).unwrap();
        assert!(
            ew.log_likelihood >= w.log_likelihood - 1e-3,
            "EW ll {} < W ll {}",
            ew.log_likelihood,
            w.log_likelihood
        );
    }

    #[test]
    fn aic_selects_correct_family() {
        // On strongly non-exponential (Weibull k=2) data, the Weibull fit
        // must win by AIC despite its extra parameter.
        let mut rng = StdRng::seed_from_u64(7);
        let truth = Weibull::new(2.0, 1.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 3_000);
        let e = fit_exponential(&xs).unwrap();
        let w = fit_weibull(&xs).unwrap();
        assert!(prefer_by_aic(&w, &e), "AIC w={} e={}", w.aic, e.aic);
        // And on exponential data the two AICs stay within the 2-point
        // parameter penalty plus sampling noise of each other.
        let truth = Exponential::new(1.0).unwrap();
        let xs = sample_n(&truth, &mut rng, 3_000);
        let e = fit_exponential(&xs).unwrap();
        let w = fit_weibull(&xs).unwrap();
        assert!((e.aic - w.aic).abs() < 6.0, "AIC e={} w={}", e.aic, w.aic);
    }

    #[test]
    fn fit_requires_min_n() {
        assert!(fit_weibull(&[1.0]).is_err());
        assert!(fit_exponentiated_weibull(&[1.0, 2.0]).is_err());
    }
}
