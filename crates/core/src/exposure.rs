//! Exposure and context analysis: road types, weather, and the
//! association tests behind the paper's "not all miles are equivalent"
//! threat-to-validity discussion (§VI) and the road-type mix of §III-C.

use crate::tagging::TaggedDisengagement;
use crate::{CoreError, Result};
use disengage_nlp::FailureCategory;
use disengage_reports::{FailureDatabase, Manufacturer, Modality, RoadType, Weather};
use disengage_stats::chi_square::{chi_square_independence, ChiSquare};
use std::collections::BTreeMap;

/// Distribution of disengagements over road types (where reported).
///
/// The paper reports the *mileage* mix (31.7% city streets, 29.26%
/// highways, …); disengagement filings carry the road type of the event,
/// which is the observable proxy this function aggregates.
pub fn road_type_mix(db: &FailureDatabase) -> BTreeMap<RoadType, f64> {
    let mut counts: BTreeMap<RoadType, usize> = BTreeMap::new();
    let mut total = 0usize;
    for r in db.disengagements() {
        if let Some(rt) = r.road_type {
            *counts.entry(rt).or_insert(0) += 1;
            total += 1;
        }
    }
    counts
        .into_iter()
        .map(|(rt, c)| (rt, c as f64 / total.max(1) as f64))
        .collect()
}

/// Distribution of disengagements over weather conditions (where
/// reported).
pub fn weather_mix(db: &FailureDatabase) -> BTreeMap<Weather, f64> {
    let mut counts: BTreeMap<Weather, usize> = BTreeMap::new();
    let mut total = 0usize;
    for r in db.disengagements() {
        if let Some(w) = r.weather {
            *counts.entry(w).or_insert(0) += 1;
            total += 1;
        }
    }
    counts
        .into_iter()
        .map(|(w, c)| (w, c as f64 / total.max(1) as f64))
        .collect()
}

/// Fraction of disengagement records carrying each optional field — the
/// paper's data-completeness complaint quantified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldCoverage {
    /// Share of records with a road type.
    pub road_type: f64,
    /// Share with weather.
    pub weather: f64,
    /// Share with a reaction time.
    pub reaction_time: f64,
    /// Records considered.
    pub n: usize,
}

/// Computes optional-field coverage over the database.
pub fn field_coverage(db: &FailureDatabase) -> FieldCoverage {
    let records = db.disengagements();
    let n = records.len();
    if n == 0 {
        return FieldCoverage {
            road_type: 0.0,
            weather: 0.0,
            reaction_time: 0.0,
            n: 0,
        };
    }
    let frac = |count: usize| count as f64 / n as f64;
    FieldCoverage {
        road_type: frac(records.iter().filter(|r| r.road_type.is_some()).count()),
        weather: frac(records.iter().filter(|r| r.weather.is_some()).count()),
        reaction_time: frac(
            records
                .iter()
                .filter(|r| r.reaction_time_s.is_some())
                .count(),
        ),
        n,
    }
}

/// Chi-square test: is disengagement modality independent of
/// manufacturer? (Table V's structure says decisively not — Bosch/GM file
/// everything as planned, VW everything as automatic.)
///
/// # Errors
///
/// Returns [`CoreError::NoData`] with fewer than two manufacturers, and
/// propagates statistics errors for degenerate tables.
pub fn modality_association(db: &FailureDatabase) -> Result<ChiSquare> {
    let manufacturers: Vec<Manufacturer> = db
        .manufacturers()
        .iter()
        .copied()
        .filter(|&m| db.disengagements_for(m).len() > 0)
        .collect();
    if manufacturers.len() < 2 {
        return Err(CoreError::NoData("manufacturers for modality test"));
    }
    let mut table = Vec::new();
    for m in &manufacturers {
        let records = db.disengagements_for(*m);
        let row: Vec<u64> = Modality::ALL
            .iter()
            .map(|&mo| records.clone().filter(|r| r.modality == mo).count() as u64)
            .collect();
        table.push(row);
    }
    // Drop all-zero columns (a modality no one used).
    let used: Vec<usize> = (0..Modality::ALL.len())
        .filter(|&j| table.iter().any(|r| r[j] > 0))
        .collect();
    let table: Vec<Vec<u64>> = table
        .into_iter()
        .map(|row| used.iter().map(|&j| row[j]).collect())
        .collect();
    Ok(chi_square_independence(&table)?)
}

/// Chi-square test: is the root failure category independent of
/// manufacturer? (Table IV's structure — e.g. VW is system-dominated,
/// Delphi perception-dominated.)
///
/// # Errors
///
/// Returns [`CoreError::NoData`] with fewer than two manufacturers with
/// tagged records, and propagates statistics errors.
pub fn category_association(tagged: &[TaggedDisengagement]) -> Result<ChiSquare> {
    let mut per_m: BTreeMap<Manufacturer, [u64; 3]> = BTreeMap::new();
    for t in tagged {
        let row = per_m.entry(t.record.manufacturer).or_insert([0; 3]);
        match t.assignment.category {
            FailureCategory::MlDesign => row[0] += 1,
            FailureCategory::System => row[1] += 1,
            FailureCategory::UnknownC => row[2] += 1,
        }
    }
    if per_m.len() < 2 {
        return Err(CoreError::NoData("manufacturers for category test"));
    }
    let rows: Vec<Vec<u64>> = per_m.values().map(|r| r.to_vec()).collect();
    let used: Vec<usize> = (0..3).filter(|&j| rows.iter().any(|r| r[j] > 0)).collect();
    let table: Vec<Vec<u64>> = rows
        .into_iter()
        .map(|row| used.iter().map(|&j| row[j]).collect())
        .collect();
    Ok(chi_square_independence(&table)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> crate::PipelineOutcome {
        crate::RunSession::test_outcome(23, 0.1)
    }

    #[test]
    fn road_mix_matches_generation_profile() {
        let o = outcome();
        let mix = road_type_mix(&o.database);
        let total: f64 = mix.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // §III-C: streets ~31.7%, highways ~29.3% of the reported mix.
        let street = mix.get(&RoadType::Street).copied().unwrap_or(0.0);
        let highway = mix.get(&RoadType::Highway).copied().unwrap_or(0.0);
        assert!((street - 0.317).abs() < 0.08, "street = {street}");
        assert!((highway - 0.2926).abs() < 0.06, "highway = {highway}");
        assert!(street > highway);
    }

    #[test]
    fn weather_mix_clear_dominates() {
        let o = outcome();
        let mix = weather_mix(&o.database);
        let clear = mix.get(&Weather::Clear).copied().unwrap_or(0.0);
        assert!(clear > 0.5, "clear = {clear}");
        let total: f64 = mix.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn field_coverage_partial() {
        let o = outcome();
        let c = field_coverage(&o.database);
        assert!(c.n > 300);
        // Road is reported ~2/3 of the time in the corpus; some formats
        // drop it entirely, so recovered coverage is lower but nonzero.
        assert!(
            c.road_type > 0.2 && c.road_type < 0.9,
            "road = {}",
            c.road_type
        );
        assert!(c.weather > 0.1 && c.weather < 0.9);
        assert!(c.reaction_time > 0.2 && c.reaction_time < 0.9);
    }

    #[test]
    fn field_coverage_empty_db() {
        let c = field_coverage(&FailureDatabase::new());
        assert_eq!(c.n, 0);
        assert_eq!(c.road_type, 0.0);
    }

    #[test]
    fn modality_strongly_associated_with_manufacturer() {
        let o = outcome();
        let t = modality_association(&o.database).expect("test runs");
        assert!(t.p_value < 1e-10, "p = {}", t.p_value);
    }

    #[test]
    fn category_strongly_associated_with_manufacturer() {
        let o = outcome();
        let t = category_association(&o.tagged).expect("test runs");
        assert!(t.p_value < 1e-10, "p = {}", t.p_value);
    }

    #[test]
    fn association_tests_need_data() {
        assert!(modality_association(&FailureDatabase::new()).is_err());
        assert!(category_association(&[]).is_err());
    }
}
