//! Cross-checks Fig. 5's trends with a second estimator.
//!
//! Hong et al. (arXiv:2102.01740) model an AV program's disengagements
//! as recurrent events of a power-law non-homogeneous Poisson process
//! (Crow–AMSAA): with cumulative autonomous miles `t` as time, the
//! expected number of disengagements by `t` is `λ·t^β`. Fig. 5 plots
//! the same curve, cumulative disengagements against cumulative miles,
//! and fits its log-log slope by least squares; that slope estimates the
//! same `β`. The maximum-likelihood estimate, observed up to the
//! program's total miles `T`, is `β̂ = n / Σ ln(T/tᵢ)` over the `n`
//! events. Monthly filings do not time a disengagement within its month,
//! so event `i` is placed at the middle of its month's miles: `tᵢ` is the
//! cumulative miles before the month plus half of the month's.
//!
//! The estimator reads `FailureDatabase::monthly_miles` and
//! `monthly_disengagements`, as Fig. 5 does, and counts the same events:
//! those in a month with a mileage row. EXPERIMENTS.md ("Figures")
//! records the comparison.

use disengage::core::figures::fig5;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::reports::{FailureDatabase, Manufacturer};

/// The Crow–AMSAA shape `β̂` of `m`'s disengagements and the number of
/// events it counts, or `None` without events or miles.
fn crow_amsaa_beta(db: &FailureDatabase, m: Manufacturer) -> Option<(f64, usize)> {
    let dis = db.monthly_disengagements(m);
    // (tᵢ, events at tᵢ) per month with events.
    let mut events = Vec::new();
    let mut before = 0.0;
    for &(month, miles) in db.monthly_miles(m) {
        if let Ok(i) = dis.binary_search_by_key(&month, |&(d, _)| d) {
            events.push((before + miles / 2.0, dis[i].1));
        }
        before += miles;
    }
    let total = before;
    let n: usize = events.iter().map(|&(_, count)| count).sum();
    if n == 0 || total <= 0.0 {
        return None;
    }
    let sum: f64 = events
        .iter()
        .map(|&(t, count)| count as f64 * (total / t).ln())
        .sum();
    Some((n as f64 / sum, n))
}

/// How far `β̂` may sit from Fig. 5's slope: Fig. 5 prints slopes to
/// two decimals, and agreeing to within 0.1 reads as the same trend.
const TOLERANCE: f64 = 0.1;

/// The manufacturers whose `β̂` sits farther than [`TOLERANCE`] from
/// their Fig. 5 slope at seed `0x5EED`, full scale, and the sign of
/// `β̂ − slope`: the finding EXPERIMENTS.md records. Bosch's and
/// Delphi's events come later in their miles than a straight log-log
/// line puts them, and Nissan's earlier.
const DIVERGENT: [(Manufacturer, f64); 3] = [
    (Manufacturer::Bosch, 1.0),
    (Manufacturer::Delphi, 1.0),
    (Manufacturer::Nissan, -1.0),
];

#[test]
fn crow_amsaa_beta_agrees_with_the_fig5_slope_except_the_recorded_divergences() {
    let db = RunSession::new(RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    }))
    .run()
    .expect("pipeline runs")
    .database;
    let series = fig5(&db);
    assert_eq!(series.len(), Manufacturer::ANALYZED.len());
    for s in &series {
        let m = s.manufacturer;
        let slope = s.fit.as_ref().expect("every analyzed series fits").exponent;
        let (beta, n) = crow_amsaa_beta(&db, m).expect("a fitted series has events");
        assert_eq!(
            n as f64,
            s.points.last().expect("a fitted series has points").1,
            "{m}: β̂ counts Fig. 5's events"
        );
        let gap = beta - slope;
        let what = format!("{m}: β̂ {beta:.3}, Fig. 5 slope {slope:.3}");
        match DIVERGENT.iter().find(|(d, _)| *d == m) {
            Some(&(_, sign)) => assert!(
                gap * sign > TOLERANCE,
                "{what}: the recorded divergence is gone; update EXPERIMENTS.md"
            ),
            None => assert!(gap.abs() <= TOLERANCE, "{what}: a new divergence"),
        }
        // Both read reliability growth (β < 1), except Bosch, whose
        // disengagements per mile rise: β̂ says so, the slope does not.
        if m == Manufacturer::Bosch {
            assert!(beta > 1.0 && slope < 1.0, "{what}");
        } else {
            assert!(beta < 1.0 && slope < 1.0, "{what}");
        }
    }
}
