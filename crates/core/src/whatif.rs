//! Projection analyses: the paper's §V-C1 fleet-scale thought experiment
//! and its closing call for model-driven study, made executable.
//!
//! Three questions the paper raises but can only gesture at:
//!
//! 1. If the DPM-vs-miles power law continues, how many more test miles
//!    until a manufacturer reaches a target DPM? ([`miles_to_target_dpm`])
//! 2. If all U.S. car trips were made by AVs at today's accident rates,
//!    how many accidents per year — and how does that compare with
//!    aviation? ([`fleet_scale_projection`])
//! 3. How many demonstration miles would validate human-level safety,
//!    and how many years of testing is that at the current pace?
//!    ([`demonstration_gap`])

use crate::constants::{
    AIRLINE_APM, ANNUAL_AIRLINE_DEPARTURES, ANNUAL_AV_TRIPS, HUMAN_APM, MEDIAN_TRIP_MILES,
};
use crate::metrics::monthly_dpm_series;
use crate::{CoreError, Result};
use disengage_reports::{FailureDatabase, Manufacturer};
use disengage_stats::kalra_paddock::failure_free_miles;
use disengage_stats::regression::{fit_power_law, PowerLawFit};

/// Projection of a manufacturer's DPM trend.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmProjection {
    /// The manufacturer.
    pub manufacturer: Manufacturer,
    /// The fitted power law `DPM = c · miles^m` behind the projection.
    pub fit: PowerLawFit,
    /// Cumulative miles driven so far.
    pub current_miles: f64,
    /// DPM the fit predicts at the current mileage.
    pub current_dpm: f64,
    /// Target DPM requested.
    pub target_dpm: f64,
    /// Cumulative miles at which the fit reaches the target (`None` when
    /// the trend is flat or worsening — the target is never reached).
    pub miles_at_target: Option<f64>,
}

impl DpmProjection {
    /// Additional miles needed beyond the current total (`None` if the
    /// target is unreachable on this trend, `Some(0)` if already met).
    pub fn additional_miles(&self) -> Option<f64> {
        self.miles_at_target
            .map(|m| (m - self.current_miles).max(0.0))
    }
}

/// Projects when a manufacturer's DPM trend reaches `target_dpm`, by
/// extrapolating the Fig. 9 power-law fit.
///
/// # Errors
///
/// * [`CoreError::NoData`] with fewer than 3 positive monthly points.
/// * [`CoreError::Stats`] if the fit fails.
pub fn miles_to_target_dpm(
    db: &FailureDatabase,
    manufacturer: Manufacturer,
    target_dpm: f64,
) -> Result<DpmProjection> {
    if target_dpm <= 0.0 || !target_dpm.is_finite() {
        return Err(CoreError::Stats(
            disengage_stats::StatsError::InvalidParameter {
                name: "target_dpm",
                value: target_dpm,
            },
        ));
    }
    let points: Vec<(f64, f64)> = monthly_dpm_series(db, manufacturer)
        .into_iter()
        .filter(|(_, cum, dpm)| *cum > 0.0 && *dpm > 0.0)
        .map(|(_, cum, dpm)| (cum, dpm))
        .collect();
    if points.len() < 3 {
        return Err(CoreError::NoData("monthly DPM points for projection"));
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let fit = fit_power_law(&xs, &ys)?;
    let current_miles = *xs.last().expect("non-empty");
    let current_dpm = fit.predict(current_miles);
    // Solve c · m^e = target  =>  m = (target / c)^(1/e); only a falling
    // trend (e < 0) ever reaches a lower target.
    let miles_at_target = if current_dpm <= target_dpm {
        Some(current_miles)
    } else if fit.exponent < 0.0 {
        Some((target_dpm / fit.prefactor).powf(1.0 / fit.exponent))
    } else {
        None
    };
    Ok(DpmProjection {
        manufacturer,
        fit,
        current_miles,
        current_dpm,
        target_dpm,
        miles_at_target,
    })
}

/// The paper's §V-C1 projection: all U.S. trips made by AVs at a given
/// per-mile accident rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScaleProjection {
    /// The per-mile accident rate assumed.
    pub apm: f64,
    /// Accidents per mission (APM × median trip).
    pub apmi: f64,
    /// Projected AV accidents per year at 96B trips.
    pub annual_av_accidents: f64,
    /// Annual airline accidents at the NTSB rate for comparison.
    pub annual_airline_accidents: f64,
    /// The ratio — how many times more accident events per year the AV
    /// fleet would produce than aviation does.
    pub ratio_to_aviation: f64,
}

/// Projects annual accident volume if every U.S. car trip were an AV
/// trip at rate `apm`.
///
/// # Errors
///
/// Returns [`CoreError::Stats`] for a non-positive rate.
pub fn fleet_scale_projection(apm: f64) -> Result<FleetScaleProjection> {
    if apm <= 0.0 || !apm.is_finite() {
        return Err(CoreError::Stats(
            disengage_stats::StatsError::InvalidParameter {
                name: "apm",
                value: apm,
            },
        ));
    }
    let apmi = apm * MEDIAN_TRIP_MILES;
    let annual_av_accidents = apmi * ANNUAL_AV_TRIPS;
    let annual_airline_accidents = AIRLINE_APM * ANNUAL_AIRLINE_DEPARTURES;
    Ok(FleetScaleProjection {
        apm,
        apmi,
        annual_av_accidents,
        annual_airline_accidents,
        ratio_to_aviation: annual_av_accidents / annual_airline_accidents,
    })
}

/// The demonstration gap: miles needed to *statistically demonstrate*
/// human-level safety vs. miles actually driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemonstrationGap {
    /// Confidence level used.
    pub confidence: f64,
    /// Failure-free miles required (Kalra–Paddock zero-failure bound at
    /// the human APM).
    pub required_miles: f64,
    /// Miles the dataset's fleet actually drove.
    pub driven_miles: f64,
    /// `required / driven` — how many complete programs of this size the
    /// demonstration needs.
    pub programs_needed: f64,
    /// Years of testing at the dataset's average pace (driven miles per
    /// 27-month program, annualized).
    pub years_at_current_pace: f64,
}

/// Computes the demonstration gap for the whole dataset at a confidence
/// level.
///
/// # Errors
///
/// Propagates [`CoreError::Stats`] for an invalid confidence, and
/// returns [`CoreError::NoData`] for an empty database.
pub fn demonstration_gap(db: &FailureDatabase, confidence: f64) -> Result<DemonstrationGap> {
    let driven_miles = db.total_miles();
    if driven_miles <= 0.0 {
        return Err(CoreError::NoData("driven miles"));
    }
    let required_miles = failure_free_miles(HUMAN_APM, confidence)?;
    // The dataset spans 27 months.
    let annual_pace = driven_miles / (27.0 / 12.0);
    Ok(DemonstrationGap {
        confidence,
        required_miles,
        driven_miles,
        programs_needed: required_miles / driven_miles,
        years_at_current_pace: required_miles / annual_pace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> FailureDatabase {
        crate::RunSession::test_outcome(4, 0.1).database
    }

    #[test]
    fn waymo_projection_reaches_lower_target() {
        let db = db();
        let p = miles_to_target_dpm(&db, Manufacturer::Waymo, 1e-4).unwrap();
        assert!(p.fit.exponent < 0.0, "exponent {}", p.fit.exponent);
        let at = p.miles_at_target.expect("falling trend reaches target");
        assert!(at > p.current_miles, "needs more miles");
        assert!(p.additional_miles().unwrap() > 0.0);
    }

    #[test]
    fn already_met_target_needs_zero_miles() {
        let db = db();
        let p = miles_to_target_dpm(&db, Manufacturer::Waymo, 10.0).unwrap();
        assert_eq!(p.miles_at_target, Some(p.current_miles));
        assert_eq!(p.additional_miles(), Some(0.0));
    }

    #[test]
    fn flat_trend_never_reaches() {
        // Bosch's DPM trend is flat-to-worsening in the calibration.
        let db = db();
        let p = miles_to_target_dpm(&db, Manufacturer::Bosch, 1e-6).unwrap();
        if p.fit.exponent >= 0.0 {
            assert_eq!(p.miles_at_target, None);
            assert_eq!(p.additional_miles(), None);
        }
    }

    #[test]
    fn invalid_target_rejected() {
        let db = db();
        assert!(miles_to_target_dpm(&db, Manufacturer::Waymo, 0.0).is_err());
        assert!(miles_to_target_dpm(&db, Manufacturer::Waymo, -1.0).is_err());
    }

    #[test]
    fn fleet_scale_matches_paper_arithmetic() {
        // At the human rate the AV fleet would have ~1.9M accidents/year
        // (2e-6 × 10 mi × 96e9 trips) vs ~941 airline accidents — the
        // "10,000x more trips" consequence the paper describes.
        let p = fleet_scale_projection(HUMAN_APM).unwrap();
        assert!((p.annual_av_accidents - 1.92e6).abs() / 1.92e6 < 1e-9);
        assert!((p.annual_airline_accidents - 940.8).abs() < 1.0);
        assert!(p.ratio_to_aviation > 1000.0);
        assert!(fleet_scale_projection(0.0).is_err());
    }

    #[test]
    fn demonstration_gap_is_enormous() {
        let db = db();
        let g = demonstration_gap(&db, 0.95).unwrap();
        // ~1.5M failure-free miles to demonstrate 2e-6/mi at 95%...
        assert!((g.required_miles - 1.498e6).abs() / 1.498e6 < 0.01);
        // ...which at a 10% corpus scale is >10 programs of testing.
        assert!(g.programs_needed > 5.0);
        assert!(g.years_at_current_pace > 1.0);
        assert!(demonstration_gap(&db, 1.5).is_err());
    }
}
