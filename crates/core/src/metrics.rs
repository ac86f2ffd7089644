//! Disengagements per mile (DPM): aggregate, per car (with redacted
//! records attributed by mileage), per year, and the monthly and
//! cumulative series behind Figs. 5 and 9.

use crate::{CoreError, Result};
use disengage_reports::record::CarId;
use disengage_reports::{Date, FailureDatabase, Manufacturer};
use std::collections::BTreeMap;

/// Disengagements per autonomous mile for one manufacturer (aggregate).
///
/// # Errors
///
/// Returns [`CoreError::NoData`] when the manufacturer drove no miles.
pub fn dpm(db: &FailureDatabase, m: Manufacturer) -> Result<f64> {
    let miles = db.miles_for(m);
    if miles <= 0.0 {
        return Err(CoreError::NoData("miles for manufacturer"));
    }
    Ok(db.disengagements_for(m).len() as f64 / miles)
}

/// Per-car disengagement counts for a manufacturer.
///
/// Disengagements carrying a fleet index are attributed directly; the
/// remainder (formats like Waymo's do not identify the vehicle) are
/// spread across the fleet proportionally to per-car miles using the
/// largest-remainder method — deterministic, and consistent with how the
/// paper treats redacted attributions.
pub fn per_car_disengagements(db: &FailureDatabase, m: Manufacturer) -> BTreeMap<u32, u64> {
    let miles = db.miles_per_car(m);
    let mut counts: BTreeMap<u32, u64> = miles.keys().map(|&c| (c, 0)).collect();
    let mut unattributed = 0u64;
    for r in db.disengagements_for(m) {
        match r.car {
            CarId::Known(i) if counts.contains_key(&i) => *counts.get_mut(&i).expect("key") += 1,
            _ => unattributed += 1,
        }
    }
    if unattributed > 0 && !miles.is_empty() {
        let cars: Vec<u32> = miles.keys().copied().collect();
        let weights: Vec<f64> = cars.iter().map(|c| miles[c]).collect();
        let spread = largest_remainder(unattributed, &weights);
        for (c, extra) in cars.iter().zip(spread) {
            *counts.get_mut(c).expect("key") += extra;
        }
    }
    counts
}

/// Per-car DPM samples for one manufacturer (the Fig. 4 / Fig. 7 boxes).
/// Cars with zero recorded miles are skipped.
pub fn per_car_dpm(db: &FailureDatabase, m: Manufacturer) -> Vec<f64> {
    let miles = db.miles_per_car(m);
    let counts = per_car_disengagements(db, m);
    miles
        .iter()
        .filter(|(_, &mi)| mi > 0.0)
        .map(|(c, &mi)| counts.get(c).copied().unwrap_or(0) as f64 / mi)
        .collect()
}

/// Per-car DPM restricted to a calendar year (Fig. 7's panels).
pub fn per_car_dpm_in_year(db: &FailureDatabase, m: Manufacturer, year: u16) -> Vec<f64> {
    // Miles per car within the year.
    let mut miles: BTreeMap<u32, f64> = BTreeMap::new();
    for row in db.mileage_for(m).filter(|r| r.month.year() == year) {
        if let CarId::Known(i) = row.car {
            *miles.entry(i).or_insert(0.0) += row.miles;
        }
    }
    if miles.is_empty() {
        return Vec::new();
    }
    // Disengagements per car within the year (attributed + spread).
    let mut counts: BTreeMap<u32, u64> = miles.keys().map(|&c| (c, 0)).collect();
    let mut unattributed = 0u64;
    for r in db.disengagements_for(m).filter(|r| r.date.year() == year) {
        match r.car {
            CarId::Known(i) if counts.contains_key(&i) => *counts.get_mut(&i).expect("key") += 1,
            _ => unattributed += 1,
        }
    }
    if unattributed > 0 {
        let cars: Vec<u32> = miles.keys().copied().collect();
        let weights: Vec<f64> = cars.iter().map(|c| miles[c]).collect();
        for (c, extra) in cars.iter().zip(largest_remainder(unattributed, &weights)) {
            *counts.get_mut(c).expect("key") += extra;
        }
    }
    miles
        .iter()
        .filter(|(_, &mi)| mi > 0.0)
        .map(|(c, &mi)| counts[c] as f64 / mi)
        .collect()
}

/// Monthly (cumulative-miles, monthly-DPM) points for one manufacturer —
/// the series behind Figs. 8 and 9. Months with zero miles are skipped.
pub fn monthly_dpm_series(db: &FailureDatabase, m: Manufacturer) -> Vec<(Date, f64, f64)> {
    let dis = db.monthly_disengagements(m);
    let mut out = Vec::new();
    let mut cum = 0.0;
    for &(month, mi) in db.monthly_miles(m) {
        cum += mi;
        if mi <= 0.0 {
            continue;
        }
        let d = count_in(dis, month) as f64;
        out.push((month, cum, d / mi));
    }
    out
}

/// Cumulative (miles, disengagements) trajectory for one manufacturer —
/// Fig. 5's series.
pub fn cumulative_trajectory(db: &FailureDatabase, m: Manufacturer) -> Vec<(f64, f64)> {
    let dis = db.monthly_disengagements(m);
    let mut out = Vec::new();
    let mut cum_miles = 0.0;
    let mut cum_dis = 0.0;
    for &(month, mi) in db.monthly_miles(m) {
        cum_miles += mi;
        cum_dis += count_in(dis, month) as f64;
        out.push((cum_miles, cum_dis));
    }
    out
}

/// The count `monthly` (sorted by month) holds for `month`, or 0.
fn count_in(monthly: &[(Date, usize)], month: Date) -> usize {
    monthly
        .binary_search_by_key(&month, |&(d, _)| d)
        .map_or(0, |i| monthly[i].1)
}

fn largest_remainder(total: u64, weights: &[f64]) -> Vec<u64> {
    if weights.is_empty() || total == 0 {
        return vec![0; weights.len()];
    }
    let sum: f64 = weights.iter().sum();
    let norm: Vec<f64> = if sum <= 0.0 {
        vec![1.0 / weights.len() as f64; weights.len()]
    } else {
        weights.iter().map(|w| w / sum).collect()
    };
    let ideal: Vec<f64> = norm.iter().map(|w| w * total as f64).collect();
    let mut counts: Vec<u64> = ideal.iter().map(|x| x.floor() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    let mut rem: Vec<(usize, f64)> = ideal
        .iter()
        .enumerate()
        .map(|(i, x)| (i, x - x.floor()))
        .collect();
    rem.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    for (i, _) in rem.iter().take((total - assigned) as usize) {
        counts[*i] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_reports::record::{CarId, CollisionKind, Severity};
    use disengage_reports::{AccidentRecord, DisengagementRecord, Modality, MonthlyMileage};

    fn dis(m: Manufacturer, car: Option<u32>, y: u16, mo: u8) -> DisengagementRecord {
        DisengagementRecord {
            manufacturer: m,
            car: car.map_or(CarId::Redacted, CarId::Known),
            date: Date::new(y, mo, 5).unwrap(),
            modality: Modality::Manual,
            road_type: None,
            weather: None,
            reaction_time_s: None,
            description: "watchdog error".to_owned(),
        }
    }

    fn mil(m: Manufacturer, car: u32, y: u16, mo: u8, miles: f64) -> MonthlyMileage {
        MonthlyMileage {
            manufacturer: m,
            car: CarId::Known(car),
            month: Date::month_start(y, mo).unwrap(),
            miles,
        }
    }

    fn acc(m: Manufacturer) -> AccidentRecord {
        AccidentRecord {
            manufacturer: m,
            car: CarId::Redacted,
            date: Date::new(2016, 5, 1).unwrap(),
            location: "x".to_owned(),
            av_speed_mph: Some(5.0),
            other_speed_mph: Some(8.0),
            autonomous_at_impact: true,
            kind: CollisionKind::RearEnd,
            severity: Severity::Minor,
            description: "bump".to_owned(),
        }
    }

    fn db() -> FailureDatabase {
        FailureDatabase::from_records(
            vec![
                dis(Manufacturer::Waymo, Some(0), 2016, 1),
                dis(Manufacturer::Waymo, Some(0), 2016, 2),
                dis(Manufacturer::Waymo, None, 2016, 2), // redacted
                dis(Manufacturer::Waymo, Some(1), 2016, 3),
            ],
            vec![acc(Manufacturer::Waymo), acc(Manufacturer::Waymo)],
            vec![
                mil(Manufacturer::Waymo, 0, 2016, 1, 100.0),
                mil(Manufacturer::Waymo, 0, 2016, 2, 100.0),
                mil(Manufacturer::Waymo, 1, 2016, 2, 300.0),
                mil(Manufacturer::Waymo, 1, 2016, 3, 300.0),
            ],
        )
    }

    #[test]
    fn dpm_aggregate() {
        let d = db();
        assert!((dpm(&d, Manufacturer::Waymo).unwrap() - 4.0 / 800.0).abs() < 1e-12);
        assert!(dpm(&d, Manufacturer::Bosch).is_err());
    }

    #[test]
    fn per_car_attribution_spreads_redacted() {
        let d = db();
        let counts = per_car_disengagements(&d, Manufacturer::Waymo);
        // Car 0: 2 attributed; car 1: 1 attributed; 1 redacted goes to
        // the higher-mileage car (car 1 has 600 of 800 miles).
        assert_eq!(counts[&0], 2);
        assert_eq!(counts[&1], 2);
        let total: u64 = counts.values().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn per_car_dpm_values() {
        let d = db();
        let dpms = per_car_dpm(&d, Manufacturer::Waymo);
        assert_eq!(dpms.len(), 2);
        assert!((dpms[0] - 2.0 / 200.0).abs() < 1e-12);
        assert!((dpms[1] - 2.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn per_car_dpm_by_year_filters() {
        let d = db();
        let y2016 = per_car_dpm_in_year(&d, Manufacturer::Waymo, 2016);
        assert_eq!(y2016.len(), 2);
        let y2015 = per_car_dpm_in_year(&d, Manufacturer::Waymo, 2015);
        assert!(y2015.is_empty());
    }

    #[test]
    fn monthly_series_cumulative() {
        let d = db();
        let s = monthly_dpm_series(&d, Manufacturer::Waymo);
        assert_eq!(s.len(), 3);
        assert!((s[0].1 - 100.0).abs() < 1e-12);
        assert!((s[1].1 - 500.0).abs() < 1e-12);
        assert!((s[2].1 - 800.0).abs() < 1e-12);
        // Month 2 had 2 disengagements over 400 miles.
        assert!((s[1].2 - 2.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_monotone() {
        let d = db();
        let t = cumulative_trajectory(&d, Manufacturer::Waymo);
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[1].0 >= w[0].0 && w[1].1 >= w[0].1));
        assert_eq!(t.last().unwrap().1, 4.0);
    }
}
