//! The consolidated failure database (the pipeline's step 4 artifact).

use crate::date::Date;
use crate::record::{AccidentRecord, CarId, DisengagementRecord, MonthlyMileage};
use crate::types::{Manufacturer, ReportYear};
use std::collections::BTreeMap;

/// The consolidated AV failure database: every disengagement, accident,
/// and mileage row, queryable by manufacturer, car, and time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureDatabase {
    disengagements: Vec<DisengagementRecord>,
    accidents: Vec<AccidentRecord>,
    mileage: Vec<MonthlyMileage>,
}

impl FailureDatabase {
    /// Creates an empty database.
    pub fn new() -> FailureDatabase {
        FailureDatabase::default()
    }

    /// Creates a database from record collections.
    pub fn from_records(
        disengagements: Vec<DisengagementRecord>,
        accidents: Vec<AccidentRecord>,
        mileage: Vec<MonthlyMileage>,
    ) -> FailureDatabase {
        FailureDatabase {
            disengagements,
            accidents,
            mileage,
        }
    }

    /// All disengagement records.
    pub fn disengagements(&self) -> &[DisengagementRecord] {
        &self.disengagements
    }

    /// All accident records.
    pub fn accidents(&self) -> &[AccidentRecord] {
        &self.accidents
    }

    /// All monthly mileage rows.
    pub fn mileage(&self) -> &[MonthlyMileage] {
        &self.mileage
    }

    /// Adds a disengagement.
    pub fn push_disengagement(&mut self, r: DisengagementRecord) {
        self.disengagements.push(r);
    }

    /// Adds an accident.
    pub fn push_accident(&mut self, r: AccidentRecord) {
        self.accidents.push(r);
    }

    /// Adds a mileage row.
    pub fn push_mileage(&mut self, r: MonthlyMileage) {
        self.mileage.push(r);
    }

    /// Manufacturers present anywhere in the database, sorted.
    pub fn manufacturers(&self) -> Vec<Manufacturer> {
        let mut set: Vec<Manufacturer> = Vec::new();
        for m in self
            .disengagements
            .iter()
            .map(|r| r.manufacturer)
            .chain(self.accidents.iter().map(|r| r.manufacturer))
            .chain(self.mileage.iter().map(|r| r.manufacturer))
        {
            if !set.contains(&m) {
                set.push(m);
            }
        }
        set.sort();
        set
    }

    /// Total autonomous miles across the whole database.
    pub fn total_miles(&self) -> f64 {
        self.mileage.iter().map(|r| r.miles).sum()
    }

    /// Total autonomous miles for one manufacturer.
    pub fn miles_for(&self, m: Manufacturer) -> f64 {
        self.mileage
            .iter()
            .filter(|r| r.manufacturer == m)
            .map(|r| r.miles)
            .sum()
    }

    /// Miles for one manufacturer within one report year.
    pub fn miles_for_year(&self, m: Manufacturer, year: ReportYear) -> f64 {
        self.mileage
            .iter()
            .filter(|r| r.manufacturer == m && r.report_year() == year)
            .map(|r| r.miles)
            .sum()
    }

    /// Disengagements for one manufacturer.
    pub fn disengagements_for(&self, m: Manufacturer) -> Vec<&DisengagementRecord> {
        self.disengagements
            .iter()
            .filter(|r| r.manufacturer == m)
            .collect()
    }

    /// Accidents for one manufacturer.
    pub fn accidents_for(&self, m: Manufacturer) -> Vec<&AccidentRecord> {
        self.accidents
            .iter()
            .filter(|r| r.manufacturer == m)
            .collect()
    }

    /// Per-car cumulative miles for a manufacturer, keyed by fleet index.
    pub fn miles_per_car(&self, m: Manufacturer) -> BTreeMap<u32, f64> {
        let mut map = BTreeMap::new();
        for r in self.mileage.iter().filter(|r| r.manufacturer == m) {
            if let CarId::Known(i) = r.car {
                *map.entry(i).or_insert(0.0) += r.miles;
            }
        }
        map
    }

    /// Monthly (month-start date, miles) series for a manufacturer,
    /// summed over cars, sorted by month.
    pub fn monthly_miles(&self, m: Manufacturer) -> Vec<(Date, f64)> {
        let mut map: BTreeMap<Date, f64> = BTreeMap::new();
        for r in self.mileage.iter().filter(|r| r.manufacturer == m) {
            *map.entry(r.month).or_insert(0.0) += r.miles;
        }
        map.into_iter().collect()
    }

    /// Monthly disengagement counts for a manufacturer (keyed by month
    /// start), sorted by month.
    pub fn monthly_disengagements(&self, m: Manufacturer) -> Vec<(Date, usize)> {
        let mut map: BTreeMap<Date, usize> = BTreeMap::new();
        for r in self.disengagements.iter().filter(|r| r.manufacturer == m) {
            let month = Date::month_start(r.date.year(), r.date.month())
                .expect("valid record date implies valid month");
            *map.entry(month).or_insert(0) += 1;
        }
        map.into_iter().collect()
    }

    /// Driver reaction times for one manufacturer (where reported).
    pub fn reaction_times(&self, m: Manufacturer) -> Vec<f64> {
        self.disengagements
            .iter()
            .filter(|r| r.manufacturer == m)
            .filter_map(|r| r.reaction_time_s)
            .collect()
    }

    /// Overall disengagements-per-accident ratio for a manufacturer
    /// (`None` when no accidents).
    pub fn dpa(&self, m: Manufacturer) -> Option<f64> {
        let accidents = self.accidents_for(m).len();
        if accidents == 0 {
            None
        } else {
            Some(self.disengagements_for(m).len() as f64 / accidents as f64)
        }
    }

    /// Merges another database into this one.
    pub fn merge(&mut self, other: FailureDatabase) {
        self.disengagements.extend(other.disengagements);
        self.accidents.extend(other.accidents);
        self.mileage.extend(other.mileage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Modality, RoadType, Weather};

    fn dis(m: Manufacturer, y: u16, mo: u8, rt: Option<f64>) -> DisengagementRecord {
        DisengagementRecord {
            manufacturer: m,
            car: CarId::Known(0),
            date: Date::new(y, mo, 10).unwrap(),
            modality: Modality::Manual,
            road_type: Some(RoadType::Street),
            weather: Some(Weather::Clear),
            reaction_time_s: rt,
            description: "perception failure".to_owned(),
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
            kind: crate::record::CollisionKind::RearEnd,
            severity: crate::record::Severity::Minor,
            description: "bump".to_owned(),
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

    fn db() -> FailureDatabase {
        FailureDatabase::from_records(
            vec![
                dis(Manufacturer::Waymo, 2015, 6, Some(0.7)),
                dis(Manufacturer::Waymo, 2016, 2, Some(0.9)),
                dis(Manufacturer::Waymo, 2016, 2, None),
                dis(Manufacturer::Bosch, 2016, 3, None),
            ],
            vec![acc(Manufacturer::Waymo)],
            vec![
                mil(Manufacturer::Waymo, 0, 2015, 6, 100.0),
                mil(Manufacturer::Waymo, 1, 2016, 2, 250.0),
                mil(Manufacturer::Waymo, 0, 2016, 2, 50.0),
                mil(Manufacturer::Bosch, 0, 2016, 3, 30.0),
            ],
        )
    }

    #[test]
    fn totals() {
        let d = db();
        assert_eq!(d.total_miles(), 430.0);
        assert_eq!(d.miles_for(Manufacturer::Waymo), 400.0);
        assert_eq!(d.miles_for(Manufacturer::Bosch), 30.0);
        assert_eq!(d.miles_for(Manufacturer::Tesla), 0.0);
    }

    #[test]
    fn miles_by_report_year() {
        let d = db();
        assert_eq!(
            d.miles_for_year(Manufacturer::Waymo, ReportYear::R2015),
            100.0
        );
        assert_eq!(
            d.miles_for_year(Manufacturer::Waymo, ReportYear::R2016),
            300.0
        );
    }

    #[test]
    fn per_car_and_monthly_series() {
        let d = db();
        let per_car = d.miles_per_car(Manufacturer::Waymo);
        assert_eq!(per_car[&0], 150.0);
        assert_eq!(per_car[&1], 250.0);
        let monthly = d.monthly_miles(Manufacturer::Waymo);
        assert_eq!(monthly.len(), 2);
        assert_eq!(monthly[0].1, 100.0);
        assert_eq!(monthly[1].1, 300.0);
        let md = d.monthly_disengagements(Manufacturer::Waymo);
        assert_eq!(md.len(), 2);
        assert_eq!(md[1].1, 2);
    }

    #[test]
    fn reaction_times_filter_nones() {
        let d = db();
        assert_eq!(d.reaction_times(Manufacturer::Waymo), vec![0.7, 0.9]);
        assert!(d.reaction_times(Manufacturer::Bosch).is_empty());
    }

    #[test]
    fn dpa_ratio() {
        let d = db();
        assert_eq!(d.dpa(Manufacturer::Waymo), Some(3.0));
        assert_eq!(d.dpa(Manufacturer::Bosch), None);
    }

    #[test]
    fn manufacturers_sorted_unique() {
        let d = db();
        assert_eq!(
            d.manufacturers(),
            vec![Manufacturer::Bosch, Manufacturer::Waymo]
        );
    }

    #[test]
    fn merge_combines() {
        let mut a = db();
        let b = db();
        a.merge(b);
        assert_eq!(a.disengagements().len(), 8);
        assert_eq!(a.accidents().len(), 2);
        assert_eq!(a.total_miles(), 860.0);
    }
}
