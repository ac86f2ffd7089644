//! Tables I–VIII of the paper, regenerated as dataframes.

use crate::constants::{AIRLINE_APM, HUMAN_APM, MEDIAN_TRIP_MILES, SURGICAL_ROBOT_APM};
use crate::metrics::per_car_dpm;
use crate::tagging::{category_shares_by_manufacturer, TaggedDisengagement};
use crate::Result;
use disengage_dataframe::{Column, DataFrame, Value};
use disengage_nlp::Classifier;
use disengage_reports::{FailureDatabase, Manufacturer, Modality, ReportYear};
use disengage_stats::quantile::quantile;

fn opt_f64(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// Table I — fleet size, miles, disengagements, and accidents per
/// manufacturer and release.
///
/// Columns: `manufacturer, cars_2015, miles_2015, disengagements_2015,
/// accidents_2015, cars_2016, miles_2016, disengagements_2016,
/// accidents_2016`. Fleet sizes count distinct non-redacted cars seen in
/// the mileage tables; absent activity renders as nulls (the paper's
/// dashes).
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn table1(db: &FailureDatabase) -> Result<DataFrame> {
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        ("cars_2015", Column::empty(disengage_dataframe::DType::Int)),
        (
            "miles_2015",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "disengagements_2015",
            Column::empty(disengage_dataframe::DType::Int),
        ),
        (
            "accidents_2015",
            Column::empty(disengage_dataframe::DType::Int),
        ),
        ("cars_2016", Column::empty(disengage_dataframe::DType::Int)),
        (
            "miles_2016",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "disengagements_2016",
            Column::empty(disengage_dataframe::DType::Int),
        ),
        (
            "accidents_2016",
            Column::empty(disengage_dataframe::DType::Int),
        ),
    ])?;
    for &m in db.manufacturers() {
        let mut row: Vec<Value> = vec![Value::from(m.name())];
        for year in ReportYear::ALL {
            let miles = db.miles_for_year(m, year);
            let dis = db
                .disengagements_for(m)
                .filter(|r| r.report_year() == year)
                .count() as i64;
            let acc = db
                .accidents_for(m)
                .filter(|r| r.report_year() == year)
                .count() as i64;
            let cars = {
                let mut set: Vec<u32> = Vec::new();
                for r in db
                    .mileage_for(m)
                    .filter(|r| r.report_year() == year && r.miles > 0.0)
                {
                    if let Some(i) = r.car.index() {
                        if !set.contains(&i) {
                            set.push(i);
                        }
                    }
                }
                set.len() as i64
            };
            if miles <= 0.0 && dis == 0 && acc == 0 {
                // No activity in this window — the paper's dash cells.
                row.extend([Value::Null, Value::Null, Value::Null, Value::Null]);
            } else {
                row.extend([
                    Value::Int(cars),
                    // Round to 0.1 mi and normalize -0.0 for display.
                    Value::Float((miles * 10.0).round() / 10.0 + 0.0),
                    Value::Int(dis),
                    Value::Int(acc),
                ]);
            }
        }
        df.push_row(row)?;
    }
    Ok(df)
}

/// Table II — the canonical sample log lines with their recovered tags
/// and categories.
///
/// Columns: `manufacturer, raw_log, tag, category`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn table2(classifier: &Classifier) -> Result<DataFrame> {
    let samples = [
        (
            "Nissan",
            "1/4/16 — 1:25 PM — Software module froze. As a result driver safely disengaged and resumed manual control. — City and highway — Sunny/Dry",
            "Software module froze. As a result driver safely disengaged and resumed manual control.",
        ),
        (
            "Nissan",
            "5/25/16 — 11:20 AM — Leaf #1 (Alfa) — The AV didn't see the lead vehicle, driver safely disengaged and resumed manual control.",
            "The AV didn't see the lead vehicle, driver safely disengaged and resumed manual control.",
        ),
        (
            "Waymo",
            "May-16 — Highway — Safe Operation — Disengage for a recklessly behaving road user",
            "Disengage for a recklessly behaving road user",
        ),
        (
            "Volkswagen",
            "11/12/14 — 18:24:03 — Takeover-Request — watchdog error",
            "watchdog error",
        ),
    ];
    let mut manufacturer = Vec::new();
    let mut raw = Vec::new();
    let mut tag = Vec::new();
    let mut category = Vec::new();
    for (m, line, cause) in samples {
        let a = classifier.classify(cause);
        manufacturer.push(m.to_owned());
        raw.push(line.to_owned());
        tag.push(a.tag.to_string());
        category.push(a.category.to_string());
    }
    Ok(DataFrame::new(vec![
        ("manufacturer", Column::from_strings(manufacturer)),
        ("raw_log", Column::from_strings(raw)),
        ("tag", Column::from_strings(tag)),
        ("category", Column::from_strings(category)),
    ])?)
}

/// Table III — the fault-tag / category ontology.
///
/// Columns: `tag, category, definition`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn table3() -> Result<DataFrame> {
    use disengage_nlp::FaultTag;
    let definition = |t: FaultTag| -> &'static str {
        match t {
            FaultTag::Environment => "sudden change in external factors",
            FaultTag::ComputerSystem => "computer-system-related problem",
            FaultTag::RecognitionSystem => "failure to recognize outside environment correctly",
            FaultTag::Planner => "planner failed to anticipate the other driver's behavior",
            FaultTag::IncorrectBehaviorPrediction => "incorrect prediction of road-user behavior",
            FaultTag::Sensor => "sensor failed to localize in time",
            FaultTag::Network => "data rate too high to be handled by the network",
            FaultTag::DesignBug => "AV was not designed to handle an unforeseen situation",
            FaultTag::Software => "software-related problems such as hang or crash",
            FaultTag::AvControllerUnresponsive => "AV controller does not respond to commands",
            FaultTag::AvControllerDecision => "AV controller makes wrong decisions/predictions",
            FaultTag::HangCrash => "watchdog timer error",
            FaultTag::UnknownT => "no tag could be associated",
        }
    };
    let mut tags = Vec::new();
    let mut cats = Vec::new();
    let mut defs = Vec::new();
    for t in FaultTag::ALL {
        tags.push(t.to_string());
        cats.push(t.category().to_string());
        defs.push(definition(t).to_owned());
    }
    Ok(DataFrame::new(vec![
        ("tag", Column::from_strings(tags)),
        ("category", Column::from_strings(cats)),
        ("definition", Column::from_strings(defs)),
    ])?)
}

/// Table IV — disengagements by root failure category per manufacturer
/// (percentages).
///
/// Columns: `manufacturer, planner_pct, perception_pct, system_pct,
/// unknown_pct, n`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn table4(tagged: &[TaggedDisengagement]) -> Result<DataFrame> {
    let shares = category_shares_by_manufacturer(tagged);
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        (
            "planner_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "perception_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "system_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "unknown_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        ("n", Column::empty(disengage_dataframe::DType::Int)),
    ])?;
    for (m, s) in shares {
        df.push_row(vec![
            Value::from(m.name()),
            Value::Float(s.planner * 100.0),
            Value::Float(s.perception * 100.0),
            Value::Float(s.system * 100.0),
            Value::Float(s.unknown * 100.0),
            Value::Int(s.n as i64),
        ])?;
    }
    Ok(df)
}

/// Table V — disengagements by modality per manufacturer (percentages).
///
/// Columns: `manufacturer, automatic_pct, manual_pct, planned_pct, n`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn table5(db: &FailureDatabase) -> Result<DataFrame> {
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        (
            "automatic_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "manual_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "planned_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        ("n", Column::empty(disengage_dataframe::DType::Int)),
    ])?;
    for &m in db.manufacturers() {
        let records = db.disengagements_for(m);
        if records.len() == 0 {
            continue;
        }
        let n = records.len() as f64;
        let count =
            |mo: Modality| records.clone().filter(|r| r.modality == mo).count() as f64 / n * 100.0;
        df.push_row(vec![
            Value::from(m.name()),
            Value::Float(count(Modality::Automatic)),
            Value::Float(count(Modality::Manual)),
            Value::Float(count(Modality::Planned)),
            Value::Int(records.len() as i64),
        ])?;
    }
    Ok(df)
}

/// Table VI — accidents, fraction of total, and DPA per manufacturer.
///
/// Columns: `manufacturer, accidents, fraction_pct, dpa`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn table6(db: &FailureDatabase) -> Result<DataFrame> {
    let total: usize = db.accidents().len();
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        ("accidents", Column::empty(disengage_dataframe::DType::Int)),
        (
            "fraction_pct",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        ("dpa", Column::empty(disengage_dataframe::DType::Float)),
    ])?;
    for &m in db.manufacturers() {
        let acc = db.accidents_for(m).len();
        if acc == 0 {
            continue;
        }
        // The paper dashes DPA for filers with accidents but no
        // disengagement data (Uber ATC).
        let dpa = db.dpa(m).filter(|&d| d > 0.0);
        df.push_row(vec![
            Value::from(m.name()),
            Value::Int(acc as i64),
            Value::Float(acc as f64 / total.max(1) as f64 * 100.0),
            opt_f64(dpa),
        ])?;
    }
    Ok(df)
}

/// Table VII — median DPM, APM, and the ratio to the human baseline.
///
/// Columns: `manufacturer, median_dpm, median_apm, vs_human`.
///
/// # Errors
///
/// Propagates quantile errors for degenerate inputs.
pub fn table7(db: &FailureDatabase) -> Result<DataFrame> {
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        (
            "median_dpm",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "median_apm",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        ("vs_human", Column::empty(disengage_dataframe::DType::Float)),
    ])?;
    for &m in &Manufacturer::ANALYZED {
        let dpms = per_car_dpm(db, m);
        if dpms.is_empty() {
            continue;
        }
        let median_dpm = quantile(&dpms, 0.5)?;
        let apm = db.dpa(m).map(|dpa| median_dpm / dpa);
        df.push_row(vec![
            Value::from(m.name()),
            Value::Float(median_dpm),
            opt_f64(apm),
            opt_f64(apm.map(|a| a / HUMAN_APM)),
        ])?;
    }
    Ok(df)
}

/// Table VIII — APMi compared to airlines and surgical robots.
///
/// Columns: `manufacturer, apmi, vs_airline, vs_surgical_robot`.
///
/// # Errors
///
/// Propagates quantile errors for degenerate inputs.
pub fn table8(db: &FailureDatabase) -> Result<DataFrame> {
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        ("apmi", Column::empty(disengage_dataframe::DType::Float)),
        (
            "vs_airline",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "vs_surgical_robot",
            Column::empty(disengage_dataframe::DType::Float),
        ),
    ])?;
    for &m in &Manufacturer::ANALYZED {
        let dpms = per_car_dpm(db, m);
        if dpms.is_empty() {
            continue;
        }
        let Some(dpa) = db.dpa(m) else { continue };
        let median_dpm = quantile(&dpms, 0.5)?;
        let apmi = median_dpm / dpa * MEDIAN_TRIP_MILES;
        df.push_row(vec![
            Value::from(m.name()),
            Value::Float(apmi),
            Value::Float(apmi / AIRLINE_APM),
            Value::Float(apmi / SURGICAL_ROBOT_APM),
        ])?;
    }
    Ok(df)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> crate::PipelineOutcome {
        crate::RunSession::test_outcome(5, 0.1)
    }

    /// The cell of `t` at `row` in the column named `col`.
    fn cell(t: &DataFrame, row: usize, col: &str) -> Value {
        let c = t.names().iter().position(|n| n == col).unwrap();
        t.row(row).unwrap().swap_remove(c)
    }

    /// A numeric cell as `f64`.
    fn num(t: &DataFrame, row: usize, col: &str) -> f64 {
        match cell(t, row, col) {
            Value::Float(x) => x,
            Value::Int(x) => x as f64,
            other => panic!("{col}[{row}] is not numeric: {other:?}"),
        }
    }

    /// The index of the one row whose `manufacturer` is `name`.
    fn row_of(t: &DataFrame, name: &str) -> usize {
        let rows: Vec<usize> = (0..t.rows().count())
            .filter(|&r| cell(t, r, "manufacturer") == Value::from(name))
            .collect();
        assert_eq!(rows.len(), 1, "{name} rows: {rows:?}");
        rows[0]
    }

    #[test]
    fn table1_shape_and_dashes() {
        let o = outcome();
        let t = table1(&o.database).unwrap();
        assert_eq!(t.names().len(), 9);
        assert!(t.rows().count() >= 8);
        // Volkswagen reported only in the first window: 2016 columns null.
        let vw = row_of(&t, "Volkswagen");
        assert!(cell(&t, vw, "miles_2016") == Value::Null);
        assert!(cell(&t, vw, "miles_2015") != Value::Null);
        // Tesla is the opposite.
        let tesla = row_of(&t, "Tesla");
        assert!(cell(&t, tesla, "miles_2015") == Value::Null);
    }

    #[test]
    fn table2_recovers_paper_tags() {
        let t = table2(&Classifier::with_default_dictionary()).unwrap();
        assert_eq!(t.rows().count(), 4);
        assert_eq!(cell(&t, 0, "tag"), Value::from("Software"));
        assert_eq!(cell(&t, 1, "tag"), Value::from("Recognition System"));
        assert_eq!(cell(&t, 2, "tag"), Value::from("Environment"));
        assert_eq!(cell(&t, 3, "tag"), Value::from("Hang/Crash"));
        assert_eq!(cell(&t, 2, "category"), Value::from("ML/Design"));
        assert_eq!(cell(&t, 3, "category"), Value::from("System"));
    }

    #[test]
    fn table3_lists_ontology() {
        let t = table3().unwrap();
        assert_eq!(t.rows().count(), 13);
        assert_eq!(t.names(), &["tag", "category", "definition"]);
    }

    #[test]
    fn table4_percentages_sum_to_100() {
        let o = outcome();
        let t = table4(&o.tagged).unwrap();
        for row in 0..t.rows().count() {
            let total: f64 = ["planner_pct", "perception_pct", "system_pct", "unknown_pct"]
                .iter()
                .map(|c| num(&t, row, c))
                .sum();
            assert!((total - 100.0).abs() < 1e-6, "row {row} sums to {total}");
        }
        // Tesla's unknown share dominates.
        let tesla = row_of(&t, "Tesla");
        assert!(num(&t, tesla, "unknown_pct") > 90.0);
    }

    #[test]
    fn table5_matches_calibration() {
        let o = outcome();
        let t = table5(&o.database).unwrap();
        let pct = |name: &str, column: &str| num(&t, row_of(&t, name), column);
        assert!((pct("Bosch", "planned_pct") - 100.0).abs() < 1e-9);
        assert!((pct("Volkswagen", "automatic_pct") - 100.0).abs() < 1e-9);
        let auto = pct("Waymo", "automatic_pct");
        assert!((35.0..=65.0).contains(&auto), "waymo auto = {auto}");
    }

    #[test]
    fn table6_fractions_sum_to_100() {
        let o = outcome();
        let t = table6(&o.database).unwrap();
        let total: f64 = (0..t.rows().count())
            .map(|r| num(&t, r, "fraction_pct"))
            .sum();
        assert!((total - 100.0).abs() < 1e-6);
        // Waymo holds the majority of accidents.
        let waymo = row_of(&t, "Waymo");
        assert!(num(&t, waymo, "fraction_pct") > 40.0);
    }

    #[test]
    fn table7_ratios_above_one() {
        let o = outcome();
        let t = table7(&o.database).unwrap();
        assert!(t.rows().count() >= 6);
        for row in 0..t.rows().count() {
            if let Value::Float(v) = cell(&t, row, "vs_human") {
                assert!(v > 1.0, "row {row} ratio {v}");
            }
        }
    }

    #[test]
    fn table8_airline_and_surgical_columns() {
        let o = outcome();
        let t = table8(&o.database).unwrap();
        assert!(t.rows().count() >= 2);
        for row in 0..t.rows().count() {
            let airline = num(&t, row, "vs_airline");
            let surgical = num(&t, row, "vs_surgical_robot");
            // Airlines are safer per mission than surgical robots, so the
            // airline ratio is always the larger.
            assert!(airline > surgical);
        }
    }
}
