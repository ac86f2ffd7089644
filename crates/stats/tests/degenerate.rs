//! Degenerate-input contract: every fitter, test, and constructor in
//! the crate rejects pathological samples with a typed [`StatsError`] —
//! never a panic, never a silently wrong number. These are the shapes
//! the chaos campaign feeds Stage IV.

use disengage_stats::dist::{Exponential, ExponentiatedWeibull, Weibull};
use disengage_stats::fit::{fit_exponential, fit_exponentiated_weibull, fit_weibull};
use disengage_stats::ks::ks_test;
use disengage_stats::StatsError;

/// The degenerate shapes, hand-rolled so this crate needs no test deps.
fn shapes() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("empty", vec![]),
        ("single", vec![2.5]),
        ("constant", vec![3.0; 8]),
        ("nan_laced", vec![1.0, 2.0, f64::NAN, 4.0]),
        ("inf_laced", vec![1.0, 2.0, f64::INFINITY, 4.0]),
        ("neg_inf", vec![1.0, f64::NEG_INFINITY, 4.0]),
        ("negative", vec![-1.0, -2.0, -3.0, -4.0]),
        ("zeros", vec![0.0; 8]),
    ]
}

#[test]
fn fitters_reject_every_degenerate_shape() {
    for (name, xs) in shapes() {
        // A single or constant positive sample is a legitimate
        // exponential input (the MLE needs only a positive mean);
        // everything else must be refused.
        if name != "single" && name != "constant" {
            assert!(
                fit_exponential(&xs).is_err(),
                "fit_exponential accepted {name}"
            );
        }
        assert!(fit_weibull(&xs).is_err(), "fit_weibull accepted {name}");
        assert!(
            fit_exponentiated_weibull(&xs).is_err(),
            "fit_exponentiated_weibull accepted {name}"
        );
    }
}

#[test]
fn fit_errors_are_specific() {
    assert!(matches!(
        fit_exponential(&[]).unwrap_err(),
        StatsError::EmptyInput | StatsError::InsufficientData { .. }
    ));
    assert!(matches!(
        fit_weibull(&[5.0; 6]).unwrap_err(),
        StatsError::DegenerateSample(_)
    ));
    assert!(matches!(
        fit_exponential(&[1.0, f64::NAN]).unwrap_err(),
        StatsError::NonFinite | StatsError::OutOfDomain { .. }
    ));
    assert!(matches!(
        fit_exponential(&[-1.0, 2.0]).unwrap_err(),
        StatsError::OutOfDomain { .. }
    ));
}

#[test]
fn ks_rejects_degenerate_samples() {
    let dist = Exponential::new(1.0).unwrap();
    for (name, xs) in shapes() {
        // Constant/negative/zero samples are legitimate KS inputs; only
        // empty and non-finite ones must be refused.
        let must_reject = xs.is_empty() || xs.iter().any(|x| !x.is_finite());
        if must_reject {
            assert!(ks_test(&xs, &dist).is_err(), "ks_test accepted {name}");
        } else {
            assert!(ks_test(&xs, &dist).is_ok(), "ks_test refused {name}");
        }
    }
}

#[test]
fn distribution_constructors_reject_bad_parameters() {
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(Exponential::new(bad).is_err(), "Exponential rate {bad}");
        assert!(Weibull::new(bad, 1.0).is_err(), "Weibull shape {bad}");
        assert!(Weibull::new(1.0, bad).is_err(), "Weibull scale {bad}");
        assert!(
            ExponentiatedWeibull::new(1.0, 1.0, bad).is_err(),
            "ExponentiatedWeibull alpha {bad}"
        );
    }
    assert!(Exponential::with_mean(0.0).is_err());
}

#[test]
fn sane_inputs_still_accepted() {
    // The guards must not over-reject: a plain positive sample fits.
    let xs = [0.8, 1.1, 2.9, 0.4, 1.7, 3.3, 0.2, 2.2];
    assert!(fit_exponential(&xs).is_ok());
    assert!(fit_weibull(&xs).is_ok());
    assert!(fit_exponentiated_weibull(&xs).is_ok());
    let d = Exponential::new(0.7).unwrap();
    assert!(ks_test(&xs, &d).is_ok());
}
