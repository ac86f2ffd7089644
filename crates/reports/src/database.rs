//! The consolidated failure database (the pipeline's step 4 artifact).
//!
//! Stage IV slices the database by manufacturer in most tables, figures
//! and questions. The first per-manufacturer query builds an index: each
//! manufacturer's row positions in every table, in table order, the
//! sorted manufacturer list, and its monthly and per-car series. Every
//! query after it reads the index instead of scanning the tables. The
//! index visits the same rows in the same order a scan would, so every
//! sum keeps its addends and its fold order. Any mutation drops it.

use crate::date::Date;
use crate::record::{AccidentRecord, CarId, DisengagementRecord, MonthlyMileage};
use crate::types::{Manufacturer, ReportYear};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// The consolidated AV failure database: every disengagement, accident,
/// and mileage row, queryable by manufacturer, car, and time.
///
/// Equality, [`Clone`] and [`Debug`] see the three tables only, never the
/// index: a clone starts without one.
#[derive(Default)]
pub struct FailureDatabase {
    disengagements: Vec<DisengagementRecord>,
    accidents: Vec<AccidentRecord>,
    mileage: Vec<MonthlyMileage>,
    /// Built by the first per-manufacturer query, dropped by every
    /// mutation. Boxed, so a database that is never queried stays small.
    index: OnceLock<Box<Index>>,
}

/// Every manufacturer's slice of the database.
struct Index {
    /// Manufacturers with a row in any table, in slot order, which is
    /// sorted order.
    manufacturers: Vec<Manufacturer>,
    /// One slot per manufacturer, at [`slot`].
    slots: [Slot; Manufacturer::ALL.len()],
}

/// One manufacturer's rows and the series folded from them.
#[derive(Default)]
struct Slot {
    // Positions of its rows in each table, in table order.
    disengagements: Vec<usize>,
    accidents: Vec<usize>,
    mileage: Vec<usize>,
    miles_per_car: BTreeMap<u32, f64>,
    monthly_miles: Vec<(Date, f64)>,
    monthly_disengagements: Vec<(Date, usize)>,
}

/// `m`'s slot in the index: its declaration order, which is also its
/// position in [`Manufacturer::ALL`] and its rank in `Ord`.
fn slot(m: Manufacturer) -> usize {
    m as usize
}

impl Index {
    fn build(db: &FailureDatabase) -> Index {
        let mut slots: [Slot; Manufacturer::ALL.len()] = std::array::from_fn(|_| Slot::default());
        for (i, r) in db.disengagements.iter().enumerate() {
            slots[slot(r.manufacturer)].disengagements.push(i);
        }
        for (i, r) in db.accidents.iter().enumerate() {
            slots[slot(r.manufacturer)].accidents.push(i);
        }
        for (i, r) in db.mileage.iter().enumerate() {
            slots[slot(r.manufacturer)].mileage.push(i);
        }
        let mut manufacturers = Vec::new();
        for (m, s) in Manufacturer::ALL.into_iter().zip(&mut slots) {
            if s.disengagements.is_empty() && s.accidents.is_empty() && s.mileage.is_empty() {
                continue;
            }
            manufacturers.push(m);
            // Each series adds its rows in table order, as a scan would.
            let mut monthly: BTreeMap<Date, f64> = BTreeMap::new();
            for r in s.mileage.iter().map(|&i| &db.mileage[i]) {
                if let CarId::Known(c) = r.car {
                    *s.miles_per_car.entry(c).or_insert(0.0) += r.miles;
                }
                *monthly.entry(r.month).or_insert(0.0) += r.miles;
            }
            s.monthly_miles = monthly.into_iter().collect();
            let mut monthly: BTreeMap<Date, usize> = BTreeMap::new();
            for r in s.disengagements.iter().map(|&i| &db.disengagements[i]) {
                let month = Date::month_start(r.date.year(), r.date.month())
                    .expect("valid record date implies valid month");
                *monthly.entry(month).or_insert(0) += 1;
            }
            s.monthly_disengagements = monthly.into_iter().collect();
        }
        Index {
            manufacturers,
            slots,
        }
    }
}

/// One manufacturer's rows of one table, in table order: an iterator
/// over the table through the index's positions. It knows its length
/// ([`ExactSizeIterator::len`]), and a clone iterates the rows again.
pub struct Rows<'a, T> {
    table: &'a [T],
    positions: std::slice::Iter<'a, usize>,
}

impl<'a, T> Iterator for Rows<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.positions.next().map(|&i| &self.table[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

impl<T> ExactSizeIterator for Rows<'_, T> {}

impl<T> Clone for Rows<'_, T> {
    fn clone(&self) -> Self {
        Rows {
            table: self.table,
            positions: self.positions.clone(),
        }
    }
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
            index: OnceLock::new(),
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

    fn index(&self) -> &Index {
        self.index.get_or_init(|| Box::new(Index::build(self)))
    }

    fn slot(&self, m: Manufacturer) -> &Slot {
        &self.index().slots[slot(m)]
    }

    /// Manufacturers present anywhere in the database, sorted.
    pub fn manufacturers(&self) -> &[Manufacturer] {
        &self.index().manufacturers
    }

    /// Total autonomous miles across the whole database.
    pub fn total_miles(&self) -> f64 {
        self.mileage.iter().map(|r| r.miles).sum()
    }

    /// Total autonomous miles for one manufacturer.
    pub fn miles_for(&self, m: Manufacturer) -> f64 {
        self.mileage_for(m).map(|r| r.miles).sum()
    }

    /// Miles for one manufacturer within one report year.
    pub fn miles_for_year(&self, m: Manufacturer, year: ReportYear) -> f64 {
        self.mileage_for(m)
            .filter(|r| r.report_year() == year)
            .map(|r| r.miles)
            .sum()
    }

    /// Disengagements for one manufacturer, in table order.
    pub fn disengagements_for(&self, m: Manufacturer) -> Rows<'_, DisengagementRecord> {
        Rows {
            table: &self.disengagements,
            positions: self.slot(m).disengagements.iter(),
        }
    }

    /// Accidents for one manufacturer, in table order.
    pub fn accidents_for(&self, m: Manufacturer) -> Rows<'_, AccidentRecord> {
        Rows {
            table: &self.accidents,
            positions: self.slot(m).accidents.iter(),
        }
    }

    /// Monthly mileage rows for one manufacturer, in table order.
    pub fn mileage_for(&self, m: Manufacturer) -> Rows<'_, MonthlyMileage> {
        Rows {
            table: &self.mileage,
            positions: self.slot(m).mileage.iter(),
        }
    }

    /// Per-car cumulative miles for a manufacturer, keyed by fleet index.
    pub fn miles_per_car(&self, m: Manufacturer) -> &BTreeMap<u32, f64> {
        &self.slot(m).miles_per_car
    }

    /// Monthly (month-start date, miles) series for a manufacturer,
    /// summed over cars, sorted by month.
    pub fn monthly_miles(&self, m: Manufacturer) -> &[(Date, f64)] {
        &self.slot(m).monthly_miles
    }

    /// Monthly disengagement counts for a manufacturer (keyed by month
    /// start), sorted by month.
    pub fn monthly_disengagements(&self, m: Manufacturer) -> &[(Date, usize)] {
        &self.slot(m).monthly_disengagements
    }

    /// Driver reaction times for one manufacturer (where reported).
    pub fn reaction_times(&self, m: Manufacturer) -> Vec<f64> {
        self.disengagements_for(m)
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
        self.index.take();
        self.disengagements.extend(other.disengagements);
        self.accidents.extend(other.accidents);
        self.mileage.extend(other.mileage);
    }
}

impl Clone for FailureDatabase {
    fn clone(&self) -> FailureDatabase {
        FailureDatabase::from_records(
            self.disengagements.clone(),
            self.accidents.clone(),
            self.mileage.clone(),
        )
    }
}

impl PartialEq for FailureDatabase {
    fn eq(&self, other: &FailureDatabase) -> bool {
        self.disengagements == other.disengagements
            && self.accidents == other.accidents
            && self.mileage == other.mileage
    }
}

impl fmt::Debug for FailureDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailureDatabase")
            .field("disengagements", &self.disengagements)
            .field("accidents", &self.accidents)
            .field("mileage", &self.mileage)
            .finish()
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
