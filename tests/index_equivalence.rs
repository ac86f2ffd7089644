//! Pins `FailureDatabase`'s per-manufacturer index to the scans it
//! replaced.
//!
//! The first per-manufacturer query indexes the database: each
//! manufacturer's row positions in every table, the sorted manufacturer
//! list, and its monthly and per-car series. The index must be a pure
//! speedup. For every manufacturer in `Manufacturer::ALL`, each query
//! must return what the original scans (kept in the test-support module
//! [`reference`]) return: the same rows, compared by address so both
//! identity and table order count, and the same bits of every `f64`.
//! The databases are full scale, scale 0.05, chaos-recovered
//! (`--chaos=0.05,7`) and a hand-built one whose manufacturers
//! interleave row by row, with miles whose sums round differently in
//! another order. A merge after a query must drop the index, and
//! equality, `Clone` and `Debug` must not see it.
//!
//! The full grid (seeds 1–20 at full scale, scales 0.25 and 0.5, and
//! light simulated OCR at scale 0.25) is `#[ignore]`d and runs in release
//! from `scripts/verify.sh`.

#[path = "../crates/reports/tests/reference/mod.rs"]
mod reference;

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::ocr::NoiseModel;
use disengage::reports::record::{CarId, CollisionKind, Severity};
use disengage::reports::{
    AccidentRecord, Date, DisengagementRecord, FailureDatabase, Manufacturer, Modality,
    MonthlyMileage, ReportYear,
};

/// The address of every row, in order.
fn addresses<'a, T: 'a>(rows: impl IntoIterator<Item = &'a T>) -> Vec<*const T> {
    rows.into_iter().map(std::ptr::from_ref).collect()
}

/// `(key, bits)` for every entry of a series.
fn bits<K: Copy>(series: impl IntoIterator<Item = (K, f64)>) -> Vec<(K, u64)> {
    series.into_iter().map(|(k, x)| (k, x.to_bits())).collect()
}

/// Asserts that every indexed query on `db` returns what the reference
/// scan returns, for every manufacturer.
fn assert_agrees(db: &FailureDatabase, what: &str) {
    assert_eq!(
        db.manufacturers(),
        reference::manufacturers(db),
        "{what}: manufacturers"
    );
    for m in Manufacturer::ALL {
        let at = format!("{what}, {m}");
        assert_eq!(
            addresses(db.disengagements_for(m)),
            addresses(reference::disengagements_for(db, m)),
            "{at}: disengagements_for"
        );
        assert_eq!(
            addresses(db.accidents_for(m)),
            addresses(reference::accidents_for(db, m)),
            "{at}: accidents_for"
        );
        assert_eq!(
            addresses(db.mileage_for(m)),
            addresses(reference::mileage_for(db, m)),
            "{at}: mileage_for"
        );
        assert_eq!(
            db.miles_for(m).to_bits(),
            reference::miles_for(db, m).to_bits(),
            "{at}: miles_for"
        );
        for year in ReportYear::ALL {
            assert_eq!(
                db.miles_for_year(m, year).to_bits(),
                reference::miles_for_year(db, m, year).to_bits(),
                "{at}: miles_for_year {year:?}"
            );
        }
        assert_eq!(
            bits(db.miles_per_car(m).iter().map(|(&c, &x)| (c, x))),
            bits(reference::miles_per_car(db, m)),
            "{at}: miles_per_car"
        );
        assert_eq!(
            bits(db.monthly_miles(m).iter().copied()),
            bits(reference::monthly_miles(db, m)),
            "{at}: monthly_miles"
        );
        assert_eq!(
            db.monthly_disengagements(m),
            reference::monthly_disengagements(db, m),
            "{at}: monthly_disengagements"
        );
        assert_eq!(
            bits(db.reaction_times(m).into_iter().map(|x| ((), x))),
            bits(
                reference::reaction_times(db, m)
                    .into_iter()
                    .map(|x| ((), x))
            ),
            "{at}: reaction_times"
        );
        assert_eq!(
            db.dpa(m).map(f64::to_bits),
            reference::dpa(db, m).map(f64::to_bits),
            "{at}: dpa"
        );
    }
}

fn corpus(seed: u64, scale: f64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig { seed, scale })
}

/// Runs `config` and checks its database.
fn check_run(config: RunConfig, label: &str) {
    let db = RunSession::new(config)
        .run()
        .expect("pipeline runs")
        .database;
    assert!(
        db.manufacturers().len() >= 8,
        "{label}: only {:?}",
        db.manufacturers()
    );
    assert_agrees(&db, label);
}

fn disengagement(m: Manufacturer, car: CarId, month: u8, rt: Option<f64>) -> DisengagementRecord {
    DisengagementRecord {
        manufacturer: m,
        car,
        date: Date::new(2016, month, 9).expect("valid date"),
        modality: Modality::Manual,
        road_type: None,
        weather: None,
        reaction_time_s: rt,
        description: "watchdog error".to_owned(),
    }
}

fn accident(m: Manufacturer) -> AccidentRecord {
    AccidentRecord {
        manufacturer: m,
        car: CarId::Redacted,
        date: Date::new(2016, 5, 1).expect("valid date"),
        location: "x".to_owned(),
        av_speed_mph: Some(5.0),
        other_speed_mph: Some(8.0),
        autonomous_at_impact: true,
        kind: CollisionKind::RearEnd,
        severity: Severity::Minor,
        description: "bump".to_owned(),
    }
}

fn mileage(m: Manufacturer, car: u32, year: u16, month: u8, miles: f64) -> MonthlyMileage {
    MonthlyMileage {
        manufacturer: m,
        car: CarId::Known(car),
        month: Date::month_start(year, month).expect("valid month"),
        miles,
    }
}

/// A database whose manufacturers interleave row by row. Manufacturer
/// `ALL[i]` has `i + 1` disengagements and `i % 3` accidents, except
/// Bmw (the last), which has mileage only. Every manufacturer's miles
/// repeat months and cars, and their sums round differently when added
/// in another order.
fn interleaved() -> FailureDatabase {
    let all = Manufacturer::ALL;
    let mut dis = Vec::new();
    for k in 0..all.len() {
        for (i, &m) in all.iter().enumerate().skip(k) {
            if m != Manufacturer::Bmw {
                let car = if (i + k) % 4 == 0 {
                    CarId::Redacted
                } else {
                    CarId::Known((k % 3) as u32)
                };
                let rt = (k % 2 == 0).then_some(0.1 * (i + k + 1) as f64);
                dis.push(disengagement(m, car, 1 + (k % 5) as u8, rt));
            }
        }
    }
    let mut acc = Vec::new();
    for round in 0..2 {
        for (i, &m) in all.iter().enumerate() {
            if m != Manufacturer::Bmw && i % 3 > round {
                acc.push(accident(m));
            }
        }
    }
    let mut miles = Vec::new();
    for (k, x) in [0.1, 0.2, 0.3, 0.4].into_iter().enumerate() {
        for &m in all.iter().rev() {
            // Car 0's June 2016 adds every value, in this order.
            miles.push(mileage(m, 0, 2016, 6, x));
            miles.push(mileage(m, 1 + (k % 2) as u32, 2015, 1 + (k % 3) as u8, x));
        }
    }
    FailureDatabase::from_records(dis, acc, miles)
}

#[test]
fn every_query_agrees_at_full_scale_and_scale_005() {
    check_run(corpus(0x5EED, 1.0), "full scale");
    check_run(corpus(0x5EED, 0.05), "scale 0.05");
}

#[test]
fn every_query_agrees_on_a_chaos_recovered_database() {
    check_run(
        corpus(0x5EED, 1.0).with_chaos(FaultPlan::new(0.05, 7)),
        "chaos 0.05,7",
    );
}

#[test]
fn every_query_agrees_on_interleaved_manufacturers() {
    let db = interleaved();
    assert_agrees(&db, "interleaved");
    // The fixture makes fold order visible: car 0's June 2016 miles,
    // added in reverse, give other bits.
    let june: Vec<f64> = reference::mileage_for(&db, Manufacturer::Waymo)
        .iter()
        .filter(|r| r.car == CarId::Known(0))
        .map(|r| r.miles)
        .collect();
    let forward = june.iter().fold(0.0, |sum, x| sum + x);
    let backward = june.iter().rev().fold(0.0, |sum, x| sum + x);
    assert_ne!(forward.to_bits(), backward.to_bits());
}

#[test]
fn manufacturer_all_maps_to_index_slots_in_order() {
    // The index keeps manufacturer `m` at slot `m as usize` and names
    // slot `i` `ALL[i]`, so `ALL[i]` must be slot `i`. Its manufacturer
    // list is in slot order, so slot order must be sorted order.
    for (i, m) in Manufacturer::ALL.into_iter().enumerate() {
        assert_eq!(m as usize, i, "{m}");
    }
    assert!(Manufacturer::ALL.windows(2).all(|w| w[0] < w[1]));
    let db = interleaved();
    for (i, m) in Manufacturer::ALL.into_iter().enumerate() {
        let (dis, acc) = if m == Manufacturer::Bmw {
            (0, 0)
        } else {
            (i + 1, i % 3)
        };
        assert_eq!(db.disengagements_for(m).len(), dis, "{m}");
        assert_eq!(db.accidents_for(m).len(), acc, "{m}");
        assert_eq!(db.mileage_for(m).len(), 8, "{m}");
    }
    assert_eq!(db.manufacturers(), Manufacturer::ALL);
}

#[test]
fn pushes_and_merges_after_a_query_drop_the_index() {
    let mut db = interleaved();
    assert_agrees(&db, "before");
    // One row at a time, into each table in turn.
    db.merge(FailureDatabase::from_records(
        vec![disengagement(
            Manufacturer::Bmw,
            CarId::Known(2),
            3,
            Some(0.4),
        )],
        Vec::new(),
        Vec::new(),
    ));
    assert_agrees(&db, "after a disengagement");
    assert_eq!(db.disengagements_for(Manufacturer::Bmw).len(), 1);
    db.merge(FailureDatabase::from_records(
        Vec::new(),
        vec![accident(Manufacturer::Bmw)],
        Vec::new(),
    ));
    assert_agrees(&db, "after an accident");
    assert_eq!(db.dpa(Manufacturer::Bmw), Some(1.0));
    db.merge(FailureDatabase::from_records(
        Vec::new(),
        Vec::new(),
        vec![mileage(Manufacturer::Waymo, 9, 2016, 6, 0.7)],
    ));
    assert_agrees(&db, "after a mileage row");
    assert!(db.miles_per_car(Manufacturer::Waymo).contains_key(&9));

    let mut a = FailureDatabase::from_records(
        vec![disengagement(Manufacturer::Tesla, CarId::Redacted, 2, None)],
        Vec::new(),
        vec![mileage(Manufacturer::Tesla, 0, 2016, 2, 0.3)],
    );
    assert_agrees(&a, "before merge");
    let b = interleaved();
    assert_agrees(&b, "merged-in database");
    a.merge(b);
    assert_agrees(&a, "after merge");
    assert_eq!(a.manufacturers(), Manufacturer::ALL);
}

#[test]
fn equality_clone_and_debug_ignore_the_index() {
    let queried = interleaved();
    let fresh = interleaved();
    assert_agrees(&queried, "queried");
    assert_eq!(queried, fresh);
    assert_eq!(format!("{queried:?}"), format!("{fresh:?}"));
    assert!(format!("{fresh:?}").starts_with("FailureDatabase { disengagements: ["));
    let clone = queried.clone();
    assert_eq!(clone, fresh);
    assert_agrees(&clone, "clone of a queried database");
    let mut grown = queried.clone();
    grown.merge(FailureDatabase::from_records(
        Vec::new(),
        vec![accident(Manufacturer::Waymo)],
        Vec::new(),
    ));
    assert_ne!(grown, queried);
    assert_agrees(&queried, "queried, after its clone grew");
}

#[test]
#[ignore = "full grid: run in release by scripts/verify.sh"]
fn every_query_agrees_on_the_full_grid() {
    for seed in 1..=20 {
        check_run(corpus(seed, 1.0), &format!("seed {seed}"));
    }
    for scale in [0.25, 0.5] {
        check_run(corpus(0x5EED, scale), &format!("scale {scale}"));
    }
    let ocr = OcrMode::Simulated {
        noise: NoiseModel::light(),
        correct: true,
    };
    check_run(
        corpus(0x5EED, 0.25).with_ocr(ocr),
        "light OCR at scale 0.25",
    );
}
