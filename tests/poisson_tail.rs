//! Cross-checks Table VII's significance test with a second answer.
//!
//! Table VII's comparison with human drivers, and the paper's claim
//! that the Waymo and GM Cruise accident rates exceed the human rate at
//! over 90% significance, rest on `compare_to_benchmark`: the one-sided
//! exact Poisson p-value `P(X ≥ k)` of `k` accidents over `m` miles
//! when `X ~ Poisson(λ)`, `λ = h·m`, and `h = 2×10⁻⁶` per mile is the
//! human rate. It computes the tail as the regularized incomplete gamma
//! function `P(k, λ)`. This suite sums the same tail term by term in log
//! space instead, `ln pⱼ = −λ + j·ln λ − ln j!` for `j ≥ k`, with `ln j!`
//! a plain sum of logarithms (no gamma function), and requires the two
//! p-values to agree for every manufacturer with accidents at full
//! scale (seed `0x5EED`, the recovered database Table VII reads).
//!
//! It also checks the test's duality with the exact (Garwood) interval:
//! for α ∈ {0.05, 0.10}, `p < α` exactly when the lower bound of the
//! two-sided (1 − 2α) `rate_confidence_interval` exceeds `h`. Both say
//! that `λ` lies below the α quantile of Gamma(k). EXPERIMENTS.md
//! (Table VII) records the p-values.

use disengage::core::constants::HUMAN_APM;
use disengage::core::{RunConfig, RunSession};
use disengage::reports::Manufacturer;
use disengage::stats::kalra_paddock::{compare_to_benchmark, rate_confidence_interval};

/// How far the two natural-log p-values may sit apart: both methods
/// carry about 15 significant digits, so 10⁻⁹ (a relative difference
/// of 10⁻⁹ in the p-value) leaves six digits of room and still catches
/// any real disagreement.
const LN_TOLERANCE: f64 = 1e-9;

/// `ln P(X ≥ k)` for `X ~ Poisson(λ)` and `k ≥ 1`, summed term by term
/// from `j = k` in log space. Past `j = 2λ` each term is at most half
/// the one before, so once a term is below e⁻⁴⁰ of the largest the rest
/// of the tail is too.
fn ln_upper_tail(k: u64, lambda: f64) -> f64 {
    let ln_lambda = lambda.ln();
    let mut ln_factorial: f64 = (2..=k).map(|i| (i as f64).ln()).sum();
    let mut terms = Vec::new();
    let mut largest = f64::NEG_INFINITY;
    let mut j = k;
    loop {
        let term = -lambda + j as f64 * ln_lambda - ln_factorial;
        terms.push(term);
        largest = largest.max(term);
        if j as f64 >= 2.0 * lambda && term < largest - 40.0 {
            break;
        }
        j += 1;
        ln_factorial += (j as f64).ln();
    }
    largest + terms.iter().map(|t| (t - largest).exp()).sum::<f64>().ln()
}

#[test]
fn log_space_tail_matches_compare_to_benchmark() {
    let outcome = RunSession::new(RunConfig::new())
        .run()
        .expect("run completes");
    let db = &outcome.database;
    let mut checked = Vec::new();
    for m in Manufacturer::ALL {
        let accidents = db.accidents_for(m).len() as u64;
        let miles = db.miles_for(m);
        if accidents == 0 || miles <= 0.0 {
            continue;
        }
        let p = compare_to_benchmark(accidents, miles, HUMAN_APM)
            .expect("a valid comparison")
            .p_value;
        let ln_direct = ln_upper_tail(accidents, HUMAN_APM * miles);
        println!(
            "{m}: {accidents} accidents over {miles:.1} mi, p = {p:.6e}, \
             log-space sum = {:.6e}, |Δ ln p| = {:.1e}",
            ln_direct.exp(),
            (p.ln() - ln_direct).abs()
        );
        assert!(
            (p.ln() - ln_direct).abs() <= LN_TOLERANCE,
            "{m}: compare_to_benchmark p = {p:e}, log-space tail = {:e}",
            ln_direct.exp()
        );
        for alpha in [0.05, 0.10] {
            let interval = rate_confidence_interval(accidents, miles, 1.0 - 2.0 * alpha)
                .expect("a valid interval");
            println!("  α = {alpha}: lower bound {:.4e} per mile", interval.lower);
            assert_eq!(
                p < alpha,
                interval.lower > HUMAN_APM,
                "{m}: p = {p:e} at α = {alpha}, but the {}% interval's lower bound is {:e}",
                100.0 * (1.0 - 2.0 * alpha),
                interval.lower
            );
        }
        checked.push(m);
    }
    assert!(
        checked.contains(&Manufacturer::Waymo) && checked.contains(&Manufacturer::GmCruise),
        "the paper's two significant manufacturers have accidents: {checked:?}"
    );
}

/// The tail sum itself, on cases with a closed form:
/// `P(X ≥ 1) = 1 − e^−λ` and `P(X ≥ 2) = 1 − e^−λ(1 + λ)`.
#[test]
fn log_space_tail_has_the_closed_forms() {
    for lambda in [0.5f64, 1.27, 4.0, 30.0] {
        let e = (-lambda).exp();
        assert!(
            (ln_upper_tail(1, lambda).exp() - (1.0 - e)).abs() < 1e-14,
            "k = 1, λ = {lambda}"
        );
        assert!(
            (ln_upper_tail(2, lambda).exp() - (1.0 - e * (1.0 + lambda))).abs() < 1e-14,
            "k = 2, λ = {lambda}"
        );
    }
}
