//! Pins the distinct-value fitters to the reference fitters.
//!
//! [`fit_weibull`] and [`fit_exponentiated_weibull`] evaluate each
//! per-observation term once per distinct value and gather the results
//! back in observation order; they must be a pure speedup. On every
//! sample here both must return exactly what the original fitters (kept
//! in the test-support module [`reference`]) return: the same `n` and
//! the same bits of shape, scale, α, log-likelihood and AIC, or the same
//! error. The samples are every analyzed manufacturer's Fig. 11 reaction
//! times, synthetic Weibull samples (continuous, and rounded to 0.1 s and
//! 0.01 s as a DMV filing records them), a sample of one repeated value
//! plus one other, and the degenerate shapes. `ln_pdf` is checked against
//! the reference's own copy of the Exponentiated-Weibull log-density.
//! Any divergence would move Fig. 11 and everything `repro` prints
//! after it.
//!
//! The default run covers full scale and scale 0.05 at the default seed;
//! the full grid (seeds 1–20, scales 0.25 and 0.5, a chaos-recovered
//! database and simulated OCR) is `#[ignore]`d and runs in release from
//! `scripts/verify.sh`.

#[path = "../crates/stats/tests/reference/mod.rs"]
mod reference;

use disengage::chaos::FaultPlan;
use disengage::core::constants::REACTION_OUTLIER_CUTOFF_S;
use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::ocr::NoiseModel;
use disengage::reports::{FailureDatabase, Manufacturer};
use disengage::stats::dist::{Continuous, ExponentiatedWeibull, Weibull};
use disengage::stats::fit::{fit_exponentiated_weibull, fit_weibull, Fitted};
use disengage::stats::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fit's `n` and the bits of `params`, its log-likelihood and its AIC.
fn bits<D>(fit: Result<Fitted<D>>, params: fn(&D) -> Vec<f64>) -> Result<(usize, Vec<u64>)> {
    fit.map(|f| {
        let mut v = params(&f.dist);
        v.extend([f.log_likelihood, f.aic]);
        (f.n, v.into_iter().map(f64::to_bits).collect())
    })
}

/// Asserts both fitters agree with the reference on `xs`; returns how
/// many of the two fitted rather than erred.
fn assert_agrees(xs: &[f64], what: &str) -> usize {
    let weibull: fn(&Weibull) -> Vec<f64> = |d| vec![d.shape(), d.scale()];
    let w = bits(fit_weibull(xs), weibull);
    assert_eq!(
        w,
        bits(reference::fit_weibull(xs), weibull),
        "Weibull fit diverged on {what}"
    );
    let ew: fn(&ExponentiatedWeibull) -> Vec<f64> = |d| vec![d.shape(), d.scale(), d.alpha()];
    let e = bits(fit_exponentiated_weibull(xs), ew);
    assert_eq!(
        e,
        bits(reference::fit_exponentiated_weibull(xs), ew),
        "Exponentiated-Weibull fit diverged on {what}"
    );
    usize::from(w.is_ok()) + usize::from(e.is_ok())
}

/// `m`'s reaction times, trimmed as `figures::fig11` trims them.
fn fig11_sample(db: &FailureDatabase, m: Manufacturer) -> Vec<f64> {
    db.reaction_times(m)
        .into_iter()
        .filter(|&t| t > 0.0 && t <= REACTION_OUTLIER_CUTOFF_S)
        .collect()
}

/// Runs `config` and checks every analyzed manufacturer's Fig. 11
/// sample; returns the database.
fn check_run(config: RunConfig, label: &str) -> FailureDatabase {
    let db = RunSession::new(config)
        .run()
        .expect("pipeline runs")
        .database;
    let mut fits = 0;
    for m in Manufacturer::ANALYZED {
        let what = format!("{} reaction times, {label}", m.name());
        fits += assert_agrees(&fig11_sample(&db, m), &what);
    }
    assert!(fits > 0, "{label}: no manufacturer's sample fitted");
    db
}

fn corpus(seed: u64, scale: f64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig { seed, scale })
}

#[test]
fn every_manufacturers_reaction_times_agree() {
    check_run(corpus(0x5EED, 1.0), "full scale");
    check_run(corpus(0x5EED, 0.05), "scale 0.05");
}

/// `x` as a filing records it, to `digits` decimals, read back.
fn recorded(x: f64, digits: usize) -> f64 {
    format!("{x:.digits$}")
        .parse()
        .expect("a formatted f64 parses")
}

#[test]
fn synthetic_weibull_samples_agree_continuous_and_rounded() {
    let mut rng = StdRng::seed_from_u64(0xF11);
    for (k, l, n) in [
        (0.6, 0.47, 1328),
        (1.47, 0.94, 464),
        (3.0, 2.0, 200),
        (0.9, 1.2, 40),
    ] {
        // Inverse-transform draws from Weibull(k, l).
        let w = Weibull::new(k, l).expect("valid");
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                w.quantile(rng.gen_range(f64::EPSILON..1.0))
                    .expect("u in (0, 1)")
            })
            .collect();
        let label = format!("Weibull({k}, {l}) × {n}");
        assert_eq!(assert_agrees(&xs, &format!("{label}, continuous")), 2);
        for digits in [1, 2] {
            let rounded: Vec<f64> = xs
                .iter()
                .map(|&x| recorded(x, digits))
                .filter(|&x| x > 0.0)
                .collect();
            assert_agrees(&rounded, &format!("{label} to {digits} decimals"));
        }
    }
}

#[test]
fn one_repeated_value_plus_one_other_agrees() {
    for other in [0.01, 2.4, 59.0] {
        for at in [0, 17, 49] {
            let mut xs = vec![0.85; 49];
            xs.insert(at, other);
            assert_agrees(&xs, &format!("0.85 × 49 plus {other} at {at}"));
        }
    }
}

#[test]
fn degenerate_shapes_fail_alike() {
    // The shapes of crates/stats/tests/degenerate.rs, plus a sample at
    // each fitter's minimum size.
    let shapes: [(&str, Vec<f64>); 10] = [
        ("empty", vec![]),
        ("single", vec![2.5]),
        ("constant", vec![3.0; 8]),
        ("nan_laced", vec![1.0, 2.0, f64::NAN, 4.0]),
        ("inf_laced", vec![1.0, 2.0, f64::INFINITY, 4.0]),
        ("neg_inf", vec![1.0, f64::NEG_INFINITY, 4.0]),
        ("negative", vec![-1.0, -2.0, -3.0, -4.0]),
        ("zeros", vec![0.0; 8]),
        ("two", vec![0.5, 1.5]),
        ("three", vec![0.5, 1.5, 0.9]),
    ];
    for (name, xs) in &shapes {
        assert_agrees(xs, name);
    }
}

#[test]
fn ln_pdf_matches_the_reference_expression() {
    let mut corner = 0;
    for k in [0.3, 0.6, 1.0, 1.47, 3.0, 8.0] {
        for l in [0.05, 0.47, 1.0, 20.0] {
            for a in [0.2, 1.0, 1.6, 5.0] {
                let d = ExponentiatedWeibull::new(k, l, a).expect("valid");
                for x in [
                    -1.0, 0.0, 1e-300, 1e-12, 0.01, 0.3, 1.0, 2.5, 10.0, 100.0, 1e4,
                ] {
                    let want = reference::ew_ln_pdf(&d, x);
                    assert_eq!(
                        d.ln_pdf(x).to_bits(),
                        want.to_bits(),
                        "ln_pdf diverged at k {k}, λ {l}, α {a}, x {x}"
                    );
                    if x > 0.0 && want == f64::NEG_INFINITY {
                        corner += 1;
                    }
                }
            }
        }
    }
    assert!(corner > 0, "the grid never reached 1 − e^(−zᵏ) ≤ 0");
}

#[test]
#[ignore = "full grid: run in release by scripts/verify.sh"]
fn every_fig11_sample_agrees_on_the_full_grid() {
    for seed in 1..=20 {
        check_run(corpus(seed, 1.0), &format!("seed {seed}"));
    }
    for scale in [0.25, 0.5] {
        check_run(corpus(0x5EED, scale), &format!("scale {scale}"));
    }
    check_run(
        corpus(0x5EED, 1.0).with_chaos(FaultPlan::new(0.05, 7)),
        "chaos 0.05,7",
    );
    // Recognition errors land in the reaction digits, so the samples
    // differ from the clean run's.
    let ocr = OcrMode::Simulated {
        noise: NoiseModel::light(),
        correct: true,
    };
    let scanned = check_run(
        corpus(0x5EED, 0.25).with_ocr(ocr),
        "light OCR at scale 0.25",
    );
    let clean = RunSession::new(corpus(0x5EED, 0.25))
        .run()
        .expect("pipeline runs")
        .database;
    assert!(
        Manufacturer::ANALYZED
            .iter()
            .any(|&m| fig11_sample(&scanned, m) != fig11_sample(&clean, m)),
        "simulated OCR left every reaction-time sample unchanged"
    );
}
