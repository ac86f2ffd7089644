//! The per-manufacturer queries the indexed `FailureDatabase` is pinned
//! to.
//!
//! These are the original scan-based bodies of `FailureDatabase`'s
//! per-manufacturer queries, kept as an executable specification: each
//! call scans a whole table and keeps one manufacturer's rows.
//! [`mileage_for`] is the filter `core::tables::table1` and
//! `core::metrics::per_car_dpm_in_year` applied to `mileage()` before
//! the index gave them `FailureDatabase::mileage_for`. The production
//! queries read the positions and series the first query indexes; the
//! root `index_equivalence` suite asserts that they return the same rows
//! in the same order and the same bits. It lives in test code because
//! no production path runs it.

use disengage_reports::record::CarId;
use disengage_reports::{
    AccidentRecord, Date, DisengagementRecord, FailureDatabase, Manufacturer, MonthlyMileage,
    ReportYear,
};
use std::collections::BTreeMap;

/// Manufacturers present anywhere in the database, sorted.
pub fn manufacturers(db: &FailureDatabase) -> Vec<Manufacturer> {
    let mut set: Vec<Manufacturer> = Vec::new();
    for m in db
        .disengagements()
        .iter()
        .map(|r| r.manufacturer)
        .chain(db.accidents().iter().map(|r| r.manufacturer))
        .chain(db.mileage().iter().map(|r| r.manufacturer))
    {
        if !set.contains(&m) {
            set.push(m);
        }
    }
    set.sort();
    set
}

/// Total autonomous miles for one manufacturer.
pub fn miles_for(db: &FailureDatabase, m: Manufacturer) -> f64 {
    db.mileage()
        .iter()
        .filter(|r| r.manufacturer == m)
        .map(|r| r.miles)
        .sum()
}

/// Miles for one manufacturer within one report year.
pub fn miles_for_year(db: &FailureDatabase, m: Manufacturer, year: ReportYear) -> f64 {
    db.mileage()
        .iter()
        .filter(|r| r.manufacturer == m && r.report_year() == year)
        .map(|r| r.miles)
        .sum()
}

/// Disengagements for one manufacturer.
pub fn disengagements_for(db: &FailureDatabase, m: Manufacturer) -> Vec<&DisengagementRecord> {
    db.disengagements()
        .iter()
        .filter(|r| r.manufacturer == m)
        .collect()
}

/// Accidents for one manufacturer.
pub fn accidents_for(db: &FailureDatabase, m: Manufacturer) -> Vec<&AccidentRecord> {
    db.accidents()
        .iter()
        .filter(|r| r.manufacturer == m)
        .collect()
}

/// Monthly mileage rows for one manufacturer.
pub fn mileage_for(db: &FailureDatabase, m: Manufacturer) -> Vec<&MonthlyMileage> {
    db.mileage()
        .iter()
        .filter(|r| r.manufacturer == m)
        .collect()
}

/// Per-car cumulative miles for a manufacturer, keyed by fleet index.
pub fn miles_per_car(db: &FailureDatabase, m: Manufacturer) -> BTreeMap<u32, f64> {
    let mut map = BTreeMap::new();
    for r in db.mileage().iter().filter(|r| r.manufacturer == m) {
        if let CarId::Known(i) = r.car {
            *map.entry(i).or_insert(0.0) += r.miles;
        }
    }
    map
}

/// Monthly (month-start date, miles) series for a manufacturer,
/// summed over cars, sorted by month.
pub fn monthly_miles(db: &FailureDatabase, m: Manufacturer) -> Vec<(Date, f64)> {
    let mut map: BTreeMap<Date, f64> = BTreeMap::new();
    for r in db.mileage().iter().filter(|r| r.manufacturer == m) {
        *map.entry(r.month).or_insert(0.0) += r.miles;
    }
    map.into_iter().collect()
}

/// Monthly disengagement counts for a manufacturer (keyed by month
/// start), sorted by month.
pub fn monthly_disengagements(db: &FailureDatabase, m: Manufacturer) -> Vec<(Date, usize)> {
    let mut map: BTreeMap<Date, usize> = BTreeMap::new();
    for r in db.disengagements().iter().filter(|r| r.manufacturer == m) {
        let month = Date::month_start(r.date.year(), r.date.month())
            .expect("valid record date implies valid month");
        *map.entry(month).or_insert(0) += 1;
    }
    map.into_iter().collect()
}

/// Driver reaction times for one manufacturer (where reported).
pub fn reaction_times(db: &FailureDatabase, m: Manufacturer) -> Vec<f64> {
    db.disengagements()
        .iter()
        .filter(|r| r.manufacturer == m)
        .filter_map(|r| r.reaction_time_s)
        .collect()
}

/// Overall disengagements-per-accident ratio for a manufacturer
/// (`None` when no accidents).
pub fn dpa(db: &FailureDatabase, m: Manufacturer) -> Option<f64> {
    let accidents = accidents_for(db, m).len();
    if accidents == 0 {
        None
    } else {
        Some(disengagements_for(db, m).len() as f64 / accidents as f64)
    }
}
