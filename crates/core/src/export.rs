//! Record-level export: the consolidated database as dataframes, ready
//! for CSV interchange or ad-hoc analysis with the dataframe API.
//!
//! This is the pipeline's "consolidated failure data" artifact (step 4 of
//! Fig. 1) in tabular form.

use crate::tagging::TaggedDisengagement;
use crate::Result;
use disengage_dataframe::{Column, DataFrame, Value};
use disengage_reports::FailureDatabase;

fn opt_str(v: Option<String>) -> Value {
    v.map_or(Value::Null, Value::Str)
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// The disengagement table: one row per event, with the Stage III tag
/// and category when `tagged` is supplied (aligned with the database).
///
/// Columns: `manufacturer, car, date, modality, road_type, weather,
/// reaction_time_s, description[, tag, category]`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn disengagements_frame(
    db: &FailureDatabase,
    tagged: Option<&[TaggedDisengagement]>,
) -> Result<DataFrame> {
    let records = db.disengagements();
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        ("car", Column::empty(disengage_dataframe::DType::Str)),
        ("date", Column::empty(disengage_dataframe::DType::Str)),
        ("modality", Column::empty(disengage_dataframe::DType::Str)),
        ("road_type", Column::empty(disengage_dataframe::DType::Str)),
        ("weather", Column::empty(disengage_dataframe::DType::Str)),
        (
            "reaction_time_s",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "description",
            Column::empty(disengage_dataframe::DType::Str),
        ),
    ])?;
    for r in records {
        df.push_row(vec![
            Value::from(r.manufacturer.name()),
            Value::from(r.car.to_string()),
            Value::from(r.date.to_string()),
            Value::from(r.modality.name()),
            opt_str(r.road_type.map(|x| x.to_string())),
            opt_str(r.weather.map(|x| x.to_string())),
            opt_f64(r.reaction_time_s),
            Value::from(r.description.as_str()),
        ])?;
    }
    if let Some(tagged) = tagged {
        let tags: Vec<Option<String>> = records
            .iter()
            .enumerate()
            .map(|(i, _)| tagged.get(i).map(|t| t.assignment.tag.to_string()))
            .collect();
        let categories: Vec<Option<String>> = records
            .iter()
            .enumerate()
            .map(|(i, _)| tagged.get(i).map(|t| t.assignment.category.to_string()))
            .collect();
        df.add_column("tag", Column::from_opt_strings(tags))?;
        df.add_column("category", Column::from_opt_strings(categories))?;
    }
    Ok(df)
}

/// The accident table: one row per OL 316 filing.
///
/// Columns: `manufacturer, car, date, location, av_speed_mph,
/// other_speed_mph, relative_speed_mph, autonomous_at_impact, kind,
/// severity, description`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn accidents_frame(db: &FailureDatabase) -> Result<DataFrame> {
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        ("car", Column::empty(disengage_dataframe::DType::Str)),
        ("date", Column::empty(disengage_dataframe::DType::Str)),
        ("location", Column::empty(disengage_dataframe::DType::Str)),
        (
            "av_speed_mph",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "other_speed_mph",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "relative_speed_mph",
            Column::empty(disengage_dataframe::DType::Float),
        ),
        (
            "autonomous_at_impact",
            Column::empty(disengage_dataframe::DType::Bool),
        ),
        ("kind", Column::empty(disengage_dataframe::DType::Str)),
        ("severity", Column::empty(disengage_dataframe::DType::Str)),
        (
            "description",
            Column::empty(disengage_dataframe::DType::Str),
        ),
    ])?;
    for a in db.accidents() {
        df.push_row(vec![
            Value::from(a.manufacturer.name()),
            Value::from(a.car.to_string()),
            Value::from(a.date.to_string()),
            Value::from(a.location.as_str()),
            opt_f64(a.av_speed_mph),
            opt_f64(a.other_speed_mph),
            opt_f64(a.relative_speed_mph()),
            Value::Bool(a.autonomous_at_impact),
            Value::from(a.kind.name()),
            Value::from(a.severity.name()),
            Value::from(a.description.as_str()),
        ])?;
    }
    Ok(df)
}

/// The mileage table: one row per (car, month).
///
/// Columns: `manufacturer, car, month, miles`.
///
/// # Errors
///
/// Returns a dataframe error only on internal schema violations.
pub fn mileage_frame(db: &FailureDatabase) -> Result<DataFrame> {
    let mut df = DataFrame::new(vec![
        (
            "manufacturer",
            Column::empty(disengage_dataframe::DType::Str),
        ),
        ("car", Column::empty(disengage_dataframe::DType::Str)),
        ("month", Column::empty(disengage_dataframe::DType::Str)),
        ("miles", Column::empty(disengage_dataframe::DType::Float)),
    ])?;
    for m in db.mileage() {
        df.push_row(vec![
            Value::from(m.manufacturer.name()),
            Value::from(m.car.to_string()),
            Value::from(m.month.to_string()),
            Value::Float(m.miles),
        ])?;
    }
    Ok(df)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_dataframe::csv;
    use std::collections::BTreeMap;

    fn outcome() -> crate::PipelineOutcome {
        crate::RunSession::test_outcome(33, 0.05)
    }

    fn header(df: &DataFrame) -> String {
        csv::write_str(df)
            .lines()
            .next()
            .unwrap_or_default()
            .to_owned()
    }

    #[test]
    fn disengagement_frame_aligns_with_db() {
        let o = outcome();
        let df = disengagements_frame(&o.database, Some(&o.tagged)).unwrap();
        assert_eq!(df.rows().count(), o.database.disengagements().len());
        assert_eq!(
            header(&df),
            "manufacturer,car,date,modality,road_type,weather,reaction_time_s,description,tag,category"
        );
        assert_eq!(
            df.row(0).unwrap()[0],
            Value::from(o.database.disengagements()[0].manufacturer.name())
        );
        // Without tagging, no tag columns.
        let plain = disengagements_frame(&o.database, None).unwrap();
        assert_eq!(
            header(&plain),
            "manufacturer,car,date,modality,road_type,weather,reaction_time_s,description"
        );
    }

    #[test]
    fn frames_group_consistently_with_db() {
        let o = outcome();
        let df = disengagements_frame(&o.database, None).unwrap();
        let mut counts = BTreeMap::new();
        for row in df.rows() {
            let Value::Str(name) = &row[0] else {
                panic!("manufacturer cell {:?}", row[0])
            };
            *counts.entry(name.clone()).or_insert(0) += 1;
        }
        for (name, n) in counts {
            let m = disengage_reports::Manufacturer::parse(&name).unwrap();
            assert_eq!(n, o.database.disengagements_for(m).len(), "{m}");
        }
    }

    #[test]
    fn accident_frame_contents() {
        let o = outcome();
        let df = accidents_frame(&o.database).unwrap();
        assert_eq!(df.rows().count(), o.database.accidents().len());
        assert!(df.has_column("relative_speed_mph"));
    }

    #[test]
    fn mileage_frame_total_matches() {
        let o = outcome();
        let df = mileage_frame(&o.database).unwrap();
        assert_eq!(header(&df), "manufacturer,car,month,miles");
        let total: f64 = df
            .rows()
            .map(|row| match row[3] {
                Value::Float(miles) => miles,
                ref other => panic!("miles cell {other:?}"),
            })
            .sum();
        assert!((total - o.database.total_miles()).abs() < 1e-6);
    }
}
