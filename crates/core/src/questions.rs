//! The paper's five research questions (Section V) as typed analyses.

use crate::constants::{
    AIRLINE_APM, HUMAN_APM, HUMAN_REACTION_OWNED_S, MEDIAN_TRIP_MILES, REACTION_OUTLIER_CUTOFF_S,
    SURGICAL_ROBOT_APM,
};
use crate::metrics::{monthly_dpm_series, per_car_dpm};
use crate::tagging::{
    category_shares, category_shares_by_manufacturer, CategoryShares, TaggedDisengagement,
};
use crate::{CoreError, Result};
use disengage_reports::{Date, FailureDatabase, Manufacturer};
use disengage_stats::correlation::{log_log_pearson, pearson, Correlation};
use disengage_stats::kalra_paddock::compare_to_benchmark;
use disengage_stats::quantile::quantile;
use std::collections::BTreeMap;

/// Q1 — "How do we assess the stability/maturity of the AV technology?"
#[derive(Debug, Clone, PartialEq)]
pub struct Q1Assessment {
    /// Per-manufacturer (median per-car DPM, 99th-percentile per-car DPM).
    pub dpm_by_manufacturer: BTreeMap<Manufacturer, (f64, f64)>,
    /// Ratio of the worst median DPM to the best — the paper's ~100×
    /// disparity.
    pub median_spread: f64,
    /// Ratio of the best non-Waymo median DPM to Waymo's — the paper's
    /// "Waymo does ~100× better".
    pub waymo_advantage: Option<f64>,
}

/// Answers Q1 over the analyzed manufacturers present in the database.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] if no manufacturer has per-car DPM data.
pub fn q1_assessment(db: &FailureDatabase) -> Result<Q1Assessment> {
    let mut dpm_by_manufacturer = BTreeMap::new();
    for &m in &Manufacturer::ANALYZED {
        let dpms = per_car_dpm(db, m);
        if dpms.is_empty() {
            continue;
        }
        let median = quantile(&dpms, 0.5)?;
        let p99 = quantile(&dpms, 0.99)?;
        dpm_by_manufacturer.insert(m, (median, p99));
    }
    if dpm_by_manufacturer.is_empty() {
        return Err(CoreError::NoData("per-car DPM"));
    }
    let positive_medians: Vec<f64> = dpm_by_manufacturer
        .values()
        .map(|&(median, _)| median)
        .filter(|&x| x > 0.0)
        .collect();
    let max = positive_medians.iter().copied().fold(f64::MIN, f64::max);
    let min = positive_medians.iter().copied().fold(f64::MAX, f64::min);
    let waymo_advantage = dpm_by_manufacturer
        .get(&Manufacturer::Waymo)
        .map(|&(w, _)| {
            let best_other = dpm_by_manufacturer
                .iter()
                .filter(|(&m, _)| m != Manufacturer::Waymo)
                .map(|(_, &(median, _))| median)
                .filter(|&x| x > 0.0)
                .fold(f64::MAX, f64::min);
            best_other / w
        });
    Ok(Q1Assessment {
        dpm_by_manufacturer,
        median_spread: max / min,
        waymo_advantage,
    })
}

/// Q2 — "What is the primary cause of disengagements?"
#[derive(Debug, Clone, PartialEq)]
pub struct Q2Causes {
    /// Global category shares over all tagged disengagements.
    pub global: CategoryShares,
    /// Per-manufacturer shares (Table IV).
    pub by_manufacturer: BTreeMap<Manufacturer, CategoryShares>,
    /// Same as `global`, excluding Tesla (whose labels are almost all
    /// Unknown-C; the paper excludes them from the causal reading).
    pub global_excluding_tesla: CategoryShares,
}

/// Answers Q2 from the Stage III verdicts.
pub fn q2_causes(tagged: &[TaggedDisengagement]) -> Q2Causes {
    let non_tesla = tagged
        .iter()
        .filter(|t| t.record.manufacturer != Manufacturer::Tesla);
    Q2Causes {
        global: category_shares(tagged),
        by_manufacturer: category_shares_by_manufacturer(tagged),
        global_excluding_tesla: category_shares(non_tesla),
    }
}

/// Q3 — "Are manufacturers building more reliable AVs over time?"
#[derive(Debug, Clone, PartialEq)]
pub struct Q3Dynamics {
    /// Per-manufacturer median per-car DPM by calendar year (Fig. 7).
    pub yearly_median_dpm: BTreeMap<Manufacturer, Vec<(u16, f64)>>,
    /// Per-manufacturer improvement: first-year median / last-year
    /// median (the paper reports up to ~10×, Waymo ~8×).
    pub improvement: BTreeMap<Manufacturer, f64>,
    /// Pooled Pearson correlation of log(monthly DPM) vs log(cumulative
    /// miles) — Fig. 8's r = −0.87.
    pub log_log_correlation: Correlation,
}

/// Answers Q3 from the database.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] if there are not enough monthly points
/// for the pooled correlation.
pub fn q3_dynamics(db: &FailureDatabase) -> Result<Q3Dynamics> {
    let mut yearly_median_dpm = BTreeMap::new();
    let mut improvement = BTreeMap::new();
    for &m in &Manufacturer::ANALYZED {
        let mut series = Vec::new();
        for year in [2014u16, 2015, 2016] {
            let dpms = crate::metrics::per_car_dpm_in_year(db, m, year);
            if dpms.is_empty() {
                continue;
            }
            let median = quantile(&dpms, 0.5)?;
            series.push((year, median));
        }
        if let (Some(&(_, first)), Some(&(_, last))) = (series.first(), series.last()) {
            if series.len() >= 2 && last > 0.0 {
                improvement.insert(m, first / last);
            }
        }
        if !series.is_empty() {
            yearly_median_dpm.insert(m, series);
        }
    }
    // Pooled monthly points across manufacturers.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        for (_, cum_miles, dpm) in monthly_dpm_series(db, m) {
            if dpm > 0.0 && cum_miles > 0.0 {
                xs.push(cum_miles);
                ys.push(dpm);
            }
        }
    }
    if xs.len() < 3 {
        return Err(CoreError::NoData("monthly DPM points for correlation"));
    }
    let log_log_correlation = log_log_pearson(&xs, &ys)?;
    Ok(Q3Dynamics {
        yearly_median_dpm,
        improvement,
        log_log_correlation,
    })
}

/// Q4 — "What level of driver alertness guarantees safety?"
#[derive(Debug, Clone, PartialEq)]
pub struct Q4Alertness {
    /// Mean reaction time over all reporting manufacturers, excluding
    /// recording-error outliers (the paper's 0.85 s).
    pub mean_reaction_s: f64,
    /// The untrimmed mean (dominated by the ~4 h Volkswagen entry).
    pub untrimmed_mean_s: f64,
    /// The human non-AV baseline (1.09 s).
    pub human_baseline_s: f64,
    /// Per-manufacturer trimmed means.
    pub by_manufacturer: BTreeMap<Manufacturer, f64>,
    /// Per-manufacturer correlation of reaction time with cumulative
    /// miles (positive: alertness decays as the system improves).
    pub miles_correlation: BTreeMap<Manufacturer, Correlation>,
    /// Number of reaction-time samples used (trimmed).
    pub n: usize,
}

/// Answers Q4 from the database.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] if no manufacturer reported reaction
/// times.
pub fn q4_alertness(db: &FailureDatabase) -> Result<Q4Alertness> {
    let mut all_trimmed: Vec<f64> = Vec::new();
    let mut all: Vec<f64> = Vec::new();
    let mut by_manufacturer = BTreeMap::new();
    let mut miles_correlation = BTreeMap::new();
    for &m in &Manufacturer::ANALYZED {
        let times = db.reaction_times(m);
        if times.is_empty() {
            continue;
        }
        all.extend(&times);
        let trimmed: Vec<f64> = times
            .iter()
            .copied()
            .filter(|&t| t <= REACTION_OUTLIER_CUTOFF_S)
            .collect();
        if !trimmed.is_empty() {
            by_manufacturer.insert(m, trimmed.iter().sum::<f64>() / trimmed.len() as f64);
            all_trimmed.extend(&trimmed);
        }
        // Pair each reaction time with cumulative miles at its month.
        let cum_by_month: BTreeMap<Date, f64> = {
            let mut acc = 0.0;
            db.monthly_miles(m)
                .iter()
                .map(|&(month, miles)| {
                    acc += miles;
                    (month, acc)
                })
                .collect()
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for r in db.disengagements_for(m) {
            let Some(rt) = r.reaction_time_s else {
                continue;
            };
            if rt > REACTION_OUTLIER_CUTOFF_S {
                continue;
            }
            let month = Date::month_start(r.date.year(), r.date.month()).expect("valid");
            if let Some(&cum) = cum_by_month.get(&month) {
                xs.push(cum);
                ys.push(rt);
            }
        }
        if xs.len() >= 10 {
            if let Ok(c) = pearson(&xs, &ys) {
                miles_correlation.insert(m, c);
            }
        }
    }
    if all_trimmed.is_empty() {
        return Err(CoreError::NoData("reaction times"));
    }
    Ok(Q4Alertness {
        mean_reaction_s: all_trimmed.iter().sum::<f64>() / all_trimmed.len() as f64,
        untrimmed_mean_s: all.iter().sum::<f64>() / all.len() as f64,
        human_baseline_s: HUMAN_REACTION_OWNED_S,
        by_manufacturer,
        miles_correlation,
        n: all_trimmed.len(),
    })
}

/// One manufacturer's row in the Q5 human-comparison analysis
/// (Table VII / Table VIII material).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Q5Row {
    /// The manufacturer.
    pub manufacturer: Manufacturer,
    /// Median per-car DPM.
    pub median_dpm: f64,
    /// Accidents per mile (`DPM/DPA`), when accidents were reported.
    pub apm: Option<f64>,
    /// APM relative to the human baseline (the "15–4000× worse" column).
    pub vs_human: Option<f64>,
    /// Accidents per mission (`APM × 10 mi`).
    pub apmi: Option<f64>,
    /// APMi relative to airlines.
    pub vs_airline: Option<f64>,
    /// APMi relative to surgical robots.
    pub vs_surgical: Option<f64>,
    /// One-sided p-value that the accident rate exceeds the human
    /// baseline (exact Poisson; the paper's >90% significance check).
    pub significance_p: Option<f64>,
}

/// Q5 — "How well do AVs compare with human drivers?"
#[derive(Debug, Clone, PartialEq)]
pub struct Q5Comparison {
    /// Per-manufacturer rows (only manufacturers with data).
    pub rows: Vec<Q5Row>,
    /// Range of the `vs_human` ratios — the paper's "15–4000×".
    pub human_ratio_range: Option<(f64, f64)>,
}

/// Answers Q5 from the database.
///
/// # Errors
///
/// Propagates statistics errors from the significance tests.
pub fn q5_comparison(db: &FailureDatabase) -> Result<Q5Comparison> {
    let mut rows = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        let dpms = per_car_dpm(db, m);
        if dpms.is_empty() {
            continue;
        }
        let median_dpm = quantile(&dpms, 0.5)?;
        // APM via the paper's identity: median DPM / DPA.
        let apm = db.dpa(m).map(|dpa| median_dpm / dpa);
        let accidents = db.accidents_for(m).len() as u64;
        let miles = db.miles_for(m);
        let significance_p = if accidents > 0 && miles > 0.0 {
            Some(compare_to_benchmark(accidents, miles, HUMAN_APM)?.p_value)
        } else {
            None
        };
        let apmi = apm.map(|a| a * MEDIAN_TRIP_MILES);
        rows.push(Q5Row {
            manufacturer: m,
            median_dpm,
            apm,
            vs_human: apm.map(|a| a / HUMAN_APM),
            apmi,
            vs_airline: apmi.map(|a| a / AIRLINE_APM),
            vs_surgical: apmi.map(|a| a / SURGICAL_ROBOT_APM),
            significance_p,
        });
    }
    let ratios: Vec<f64> = rows.iter().filter_map(|r| r.vs_human).collect();
    let human_ratio_range = if ratios.is_empty() {
        None
    } else {
        Some((
            ratios.iter().copied().fold(f64::MAX, f64::min),
            ratios.iter().copied().fold(f64::MIN, f64::max),
        ))
    };
    Ok(Q5Comparison {
        rows,
        human_ratio_range,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> crate::PipelineOutcome {
        crate::RunSession::test_outcome(3, 0.12)
    }

    #[test]
    fn q1_waymo_best_by_far() {
        let o = outcome();
        let q1 = q1_assessment(&o.database).unwrap();
        assert!(q1.dpm_by_manufacturer.len() >= 6);
        let (waymo_median, _) = q1.dpm_by_manufacturer[&Manufacturer::Waymo];
        for (&m, &(median, p99)) in &q1.dpm_by_manufacturer {
            assert!(median <= p99, "{m}: median > p99");
            if m != Manufacturer::Waymo && median > 0.0 {
                assert!(waymo_median < median, "{m} beats Waymo");
            }
        }
        // The paper reports ~100× disparity and ~100× Waymo advantage;
        // shapes, not exact values.
        assert!(q1.median_spread > 20.0, "spread = {}", q1.median_spread);
        assert!(q1.waymo_advantage.unwrap() > 5.0);
    }

    #[test]
    fn q2_ml_dominates() {
        let o = outcome();
        let q2 = q2_causes(&o.tagged);
        // Paper: 64% ML overall; perception the largest single bucket.
        assert!(
            (0.50..=0.75).contains(&q2.global_excluding_tesla.ml_total()),
            "ml = {}",
            q2.global_excluding_tesla.ml_total()
        );
        assert!(q2.global_excluding_tesla.perception > q2.global_excluding_tesla.planner);
        // Tesla's own shares are almost all unknown.
        let tesla = &q2.by_manufacturer[&Manufacturer::Tesla];
        assert!(tesla.unknown > 0.9);
    }

    #[test]
    fn q3_negative_log_log_correlation() {
        let o = outcome();
        let q3 = q3_dynamics(&o.database).unwrap();
        assert!(
            q3.log_log_correlation.r < -0.5,
            "r = {}",
            q3.log_log_correlation.r
        );
        assert!(q3.log_log_correlation.p_value < 0.01);
        // Improvement factors are predominantly > 1 (DPM falls).
        let improving = q3.improvement.values().filter(|&&f| f > 1.0).count();
        assert!(
            improving * 2 >= q3.improvement.len(),
            "improvement: {:?}",
            q3.improvement
        );
    }

    #[test]
    fn q4_reaction_times_near_human() {
        let o = outcome();
        let q4 = q4_alertness(&o.database).unwrap();
        assert!(
            (0.6..=1.3).contains(&q4.mean_reaction_s),
            "mean = {}",
            q4.mean_reaction_s
        );
        assert!(q4.mean_reaction_s < q4.human_baseline_s + 0.3);
        assert!(q4.n > 100);
        // Planned-test filers report no reaction times.
        assert!(!q4.by_manufacturer.contains_key(&Manufacturer::Bosch));
        // Alertness decays with miles for the big reporters.
        if let Some(c) = q4.miles_correlation.get(&Manufacturer::Waymo) {
            assert!(c.r > 0.0, "waymo r = {}", c.r);
        }
    }

    #[test]
    fn q5_avs_worse_than_humans() {
        let o = outcome();
        let q5 = q5_comparison(&o.database).unwrap();
        let (lo, hi) = q5.human_ratio_range.unwrap();
        // Paper: 15–4000×. Shape: well above 1, spanning orders of
        // magnitude.
        assert!(lo > 1.0, "lo = {lo}");
        assert!(hi / lo > 10.0, "range {lo}..{hi}");
        // GM Cruise is the extreme.
        let gm = q5
            .rows
            .iter()
            .find(|r| r.manufacturer == Manufacturer::GmCruise)
            .unwrap();
        assert!(gm.vs_human.unwrap() > 100.0);
        // Waymo/GM significance vs humans.
        let waymo = q5
            .rows
            .iter()
            .find(|r| r.manufacturer == Manufacturer::Waymo)
            .unwrap();
        assert!(waymo.significance_p.unwrap() < 0.1);
    }
}
