//! Record-level export: the consolidated database as dataframes, ready
//! for CSV interchange or ad-hoc analysis with the dataframe API.
//!
//! This is the pipeline's "consolidated failure data" artifact (step 4 of
//! Fig. 1) in tabular form.

use crate::tagging::TaggedDisengagement;
use crate::{CoreError, Result};
use disengage_dataframe::{Column, DataFrame, Value};
use disengage_reports::record::{AccidentRecord, CarId, CollisionKind, Severity};
use disengage_reports::{
    Date, DisengagementRecord, FailureDatabase, Manufacturer, Modality, MonthlyMileage,
    ReportError, RoadType, Weather,
};

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
        ("manufacturer", Column::empty(disengage_dataframe::DType::Str)),
        ("car", Column::empty(disengage_dataframe::DType::Str)),
        ("date", Column::empty(disengage_dataframe::DType::Str)),
        ("modality", Column::empty(disengage_dataframe::DType::Str)),
        ("road_type", Column::empty(disengage_dataframe::DType::Str)),
        ("weather", Column::empty(disengage_dataframe::DType::Str)),
        ("reaction_time_s", Column::empty(disengage_dataframe::DType::Float)),
        ("description", Column::empty(disengage_dataframe::DType::Str)),
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
        ("manufacturer", Column::empty(disengage_dataframe::DType::Str)),
        ("car", Column::empty(disengage_dataframe::DType::Str)),
        ("date", Column::empty(disengage_dataframe::DType::Str)),
        ("location", Column::empty(disengage_dataframe::DType::Str)),
        ("av_speed_mph", Column::empty(disengage_dataframe::DType::Float)),
        ("other_speed_mph", Column::empty(disengage_dataframe::DType::Float)),
        ("relative_speed_mph", Column::empty(disengage_dataframe::DType::Float)),
        ("autonomous_at_impact", Column::empty(disengage_dataframe::DType::Bool)),
        ("kind", Column::empty(disengage_dataframe::DType::Str)),
        ("severity", Column::empty(disengage_dataframe::DType::Str)),
        ("description", Column::empty(disengage_dataframe::DType::Str)),
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
        ("manufacturer", Column::empty(disengage_dataframe::DType::Str)),
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

fn cell_str(df: &DataFrame, row: usize, col: &str) -> Result<String> {
    let v = df.get(row, col)?;
    v.as_str().map(str::to_owned).ok_or_else(|| {
        CoreError::Report(ReportError::InvalidField {
            field: "string cell",
            value: v.to_string(),
        })
    })
}

fn cell_opt_f64(df: &DataFrame, row: usize, col: &str) -> Result<Option<f64>> {
    Ok(df.get(row, col)?.as_f64())
}

/// Rebuilds a [`FailureDatabase`] from the frames produced by
/// [`disengagements_frame`], [`accidents_frame`], and [`mileage_frame`]
/// (e.g. after a CSV round trip) — the persistence path for the
/// consolidated database.
///
/// Tag/category columns, if present, are ignored (they are derived).
///
/// # Errors
///
/// Returns [`CoreError::Report`] / [`CoreError::Frame`] for cells that do
/// not parse back into the schema.
pub fn database_from_frames(
    disengagements: &DataFrame,
    accidents: &DataFrame,
    mileage: &DataFrame,
) -> Result<FailureDatabase> {
    let mut db = FailureDatabase::new();
    for row in 0..disengagements.n_rows() {
        let record = DisengagementRecord {
            manufacturer: Manufacturer::parse(&cell_str(disengagements, row, "manufacturer")?)?,
            car: CarId::parse(&cell_str(disengagements, row, "car")?)?,
            date: Date::parse(&cell_str(disengagements, row, "date")?)?,
            modality: Modality::parse(&cell_str(disengagements, row, "modality")?)?,
            road_type: match disengagements.get(row, "road_type")? {
                Value::Null => None,
                v => Some(RoadType::parse(v.as_str().unwrap_or_default())?),
            },
            weather: match disengagements.get(row, "weather")? {
                Value::Null => None,
                v => Some(Weather::parse(v.as_str().unwrap_or_default())?),
            },
            reaction_time_s: cell_opt_f64(disengagements, row, "reaction_time_s")?,
            description: cell_str(disengagements, row, "description")?,
        };
        record.validate()?;
        db.push_disengagement(record);
    }
    for row in 0..accidents.n_rows() {
        let record = AccidentRecord {
            manufacturer: Manufacturer::parse(&cell_str(accidents, row, "manufacturer")?)?,
            car: CarId::parse(&cell_str(accidents, row, "car")?)?,
            date: Date::parse(&cell_str(accidents, row, "date")?)?,
            location: cell_str(accidents, row, "location")?,
            av_speed_mph: cell_opt_f64(accidents, row, "av_speed_mph")?,
            other_speed_mph: cell_opt_f64(accidents, row, "other_speed_mph")?,
            autonomous_at_impact: accidents
                .get(row, "autonomous_at_impact")?
                .as_bool()
                .unwrap_or(false),
            kind: CollisionKind::parse(&cell_str(accidents, row, "kind")?)?,
            severity: Severity::parse(&cell_str(accidents, row, "severity")?)?,
            description: cell_str(accidents, row, "description")?,
        };
        record.validate()?;
        db.push_accident(record);
    }
    for row in 0..mileage.n_rows() {
        let record = MonthlyMileage {
            manufacturer: Manufacturer::parse(&cell_str(mileage, row, "manufacturer")?)?,
            car: CarId::parse(&cell_str(mileage, row, "car")?)?,
            month: Date::parse(&cell_str(mileage, row, "month")?)?,
            miles: mileage.get(row, "miles")?.as_f64().unwrap_or(0.0),
        };
        record.validate()?;
        db.push_mileage(record);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_dataframe::csv;
    use std::collections::BTreeMap;

    fn outcome() -> crate::PipelineOutcome {
        crate::RunSession::test_outcome(33, 0.05)
    }

    #[test]
    fn disengagement_frame_aligns_with_db() {
        let o = outcome();
        let df = disengagements_frame(&o.database, Some(&o.tagged)).unwrap();
        assert_eq!(df.n_rows(), o.database.disengagements().len());
        assert!(df.has_column("tag"));
        assert_eq!(
            df.get(0, "manufacturer").unwrap().as_str().unwrap(),
            o.database.disengagements()[0].manufacturer.name()
        );
        // Without tagging, no tag columns.
        let plain = disengagements_frame(&o.database, None).unwrap();
        assert!(!plain.has_column("tag"));
        assert_eq!(plain.n_cols(), 8);
    }

    #[test]
    fn frames_group_consistently_with_db() {
        let o = outcome();
        let df = disengagements_frame(&o.database, None).unwrap();
        let mut counts = BTreeMap::new();
        for row in 0..df.n_rows() {
            let name = df.get(row, "manufacturer").unwrap();
            *counts.entry(name.as_str().unwrap().to_owned()).or_insert(0) += 1;
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
        assert_eq!(df.n_rows(), o.database.accidents().len());
        assert!(df.has_column("relative_speed_mph"));
    }

    #[test]
    fn mileage_frame_total_matches() {
        let o = outcome();
        let df = mileage_frame(&o.database).unwrap();
        let total: f64 = df.column("miles").unwrap().to_f64s().unwrap().iter().sum();
        assert!((total - o.database.total_miles()).abs() < 1e-6);
    }

    #[test]
    fn database_round_trips_through_frames_and_csv() {
        let o = outcome();
        let dis = disengagements_frame(&o.database, Some(&o.tagged)).unwrap();
        let acc = accidents_frame(&o.database).unwrap();
        let mil = mileage_frame(&o.database).unwrap();
        // Through CSV text and back.
        let dis = csv::read_str(&csv::write_str(&dis)).unwrap();
        let acc = csv::read_str(&csv::write_str(&acc)).unwrap();
        let mil = csv::read_str(&csv::write_str(&mil)).unwrap();
        let rebuilt = database_from_frames(&dis, &acc, &mil).unwrap();
        assert_eq!(
            rebuilt.disengagements().len(),
            o.database.disengagements().len()
        );
        assert_eq!(rebuilt.accidents(), o.database.accidents());
        assert_eq!(rebuilt.mileage().len(), o.database.mileage().len());
        // Records match exactly (reaction times round to 0.01 in the
        // generator, so floats survive CSV).
        assert_eq!(rebuilt.disengagements(), o.database.disengagements());
        assert!((rebuilt.total_miles() - o.database.total_miles()).abs() < 1e-6);
    }

    #[test]
    fn frames_round_trip_csv() {
        let o = outcome();
        for df in [
            disengagements_frame(&o.database, Some(&o.tagged)).unwrap(),
            accidents_frame(&o.database).unwrap(),
            mileage_frame(&o.database).unwrap(),
        ] {
            let text = csv::write_str(&df);
            let back = csv::read_str(&text).unwrap();
            assert_eq!(back.n_rows(), df.n_rows());
            assert_eq!(back.n_cols(), df.n_cols());
        }
    }
}
