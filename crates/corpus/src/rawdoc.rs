//! Rendering ground-truth records into raw filings: each filing is one
//! `String` that every line and table row is appended to.

use disengage_reports::formats::disengagement::format_for;
use disengage_reports::formats::document::{DocumentKind, RawDocument};
use disengage_reports::formats::{render_accident_form, render_mileage_table};
use disengage_reports::record::AccidentRecord;
use disengage_reports::{DisengagementRecord, Manufacturer, MonthlyMileage, ReportYear};

/// Renders one (manufacturer, year) batch into a disengagement filing:
/// the manufacturer-format log lines followed by the mileage table.
pub fn render_disengagement_document(
    manufacturer: Manufacturer,
    year: ReportYear,
    records: &[DisengagementRecord],
    mileage: &[MonthlyMileage],
) -> RawDocument {
    let format = format_for(manufacturer);
    let mut text = String::new();
    for r in records {
        format.render(r, &mut text);
        text.push('\n');
    }
    if !mileage.is_empty() {
        render_mileage_table(mileage, &mut text);
    }
    // The filing outlives the run's other text: keep no growth slack.
    text.shrink_to_fit();
    RawDocument::new(manufacturer, year, DocumentKind::Disengagements, text)
}

/// Renders one accident record as an OL 316-style filing.
pub fn render_accident_document(record: &AccidentRecord) -> RawDocument {
    let mut text = String::new();
    render_accident_form(record, &mut text);
    text.shrink_to_fit();
    RawDocument::new(
        record.manufacturer,
        record.report_year(),
        DocumentKind::Accident,
        text,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_reports::normalize::normalize_document;
    use disengage_reports::record::{CarId, CollisionKind, Severity};
    use disengage_reports::{Date, Modality, RoadType, Weather};

    fn record() -> DisengagementRecord {
        DisengagementRecord {
            manufacturer: Manufacturer::Nissan,
            car: CarId::Known(0),
            date: Date::new(2016, 1, 4).unwrap(),
            modality: Modality::Manual,
            road_type: Some(RoadType::Street),
            weather: Some(Weather::Clear),
            reaction_time_s: Some(0.8),
            description: "software module froze, driver safely disengaged".to_owned(),
        }
    }

    fn mileage() -> MonthlyMileage {
        MonthlyMileage {
            manufacturer: Manufacturer::Nissan,
            car: CarId::Known(0),
            month: Date::month_start(2016, 1).unwrap(),
            miles: 120.0,
        }
    }

    #[test]
    fn disengagement_document_round_trips() {
        let doc = render_disengagement_document(
            Manufacturer::Nissan,
            ReportYear::R2016,
            &[record(), record()],
            &[mileage()],
        );
        let n = normalize_document(&doc);
        assert_eq!(n.disengagements.len(), 2);
        assert_eq!(n.mileage.len(), 1);
        assert!(n.failures.is_empty(), "failures: {:?}", n.failures);
        assert_eq!(n.disengagements[0].description, record().description);
    }

    #[test]
    fn accident_document_round_trips() {
        let acc = AccidentRecord {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Redacted,
            date: Date::new(2016, 5, 10).unwrap(),
            location: "Mountain View CA".to_owned(),
            av_speed_mph: Some(4.0),
            other_speed_mph: Some(10.0),
            autonomous_at_impact: true,
            kind: CollisionKind::RearEnd,
            severity: Severity::Minor,
            description: "rear collision while yielding".to_owned(),
        };
        let doc = render_accident_document(&acc);
        assert_eq!(doc.kind, DocumentKind::Accident);
        let n = normalize_document(&doc);
        assert_eq!(n.accidents.len(), 1);
        assert_eq!(n.accidents[0], acc);
    }
}
