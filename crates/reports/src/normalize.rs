//! Normalization: raw documents → uniform records (step 2 of the
//! paper's pipeline).
//!
//! Parsing is *tolerant*: a scanned report in which OCR mangled some
//! lines should still yield every parseable record. Failures are
//! collected, not fatal — mirroring the paper's manual-fallback step for
//! lines Tesseract could not recover.

use crate::formats::disengagement::format_for;
use crate::formats::document::{DocumentKind, RawDocument};
use crate::formats::{parse_accident_form, parse_mileage_table};
use crate::record::{AccidentRecord, CarId, DisengagementRecord, MonthlyMileage};
use crate::ReportError;
use std::collections::BTreeMap;

/// Outcome of normalizing one document: the records recovered plus any
/// per-line failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Normalized {
    /// Disengagement events recovered.
    pub disengagements: Vec<DisengagementRecord>,
    /// Accident reports recovered.
    pub accidents: Vec<AccidentRecord>,
    /// Monthly mileage rows recovered.
    pub mileage: Vec<MonthlyMileage>,
    /// Lines/documents that failed to parse (for the manual-review queue).
    pub failures: Vec<ReportError>,
}

impl Normalized {
    /// Total records recovered across all three kinds.
    pub fn record_count(&self) -> usize {
        self.disengagements.len() + self.accidents.len() + self.mileage.len()
    }

    /// Merges another normalization outcome into this one.
    pub fn merge(&mut self, other: Normalized) {
        self.disengagements.extend(other.disengagements);
        self.accidents.extend(other.accidents);
        self.mileage.extend(other.mileage);
        self.failures.extend(other.failures);
    }
}

/// Normalizes one raw document into uniform records.
///
/// Disengagement filings are parsed line-by-line with the filer's
/// manufacturer-specific format; the trailing mileage table (if present)
/// is parsed with the shared table format. Accident filings are parsed
/// as OL 316 forms.
pub fn normalize_document(doc: &RawDocument) -> Normalized {
    normalize_document_traced(doc, 0, None).0
}

/// [`normalize_document`] with Stage II telemetry and lineage.
///
/// With `obs` set it records attempted/parsed/failed line counters,
/// total and per-manufacturer (the within-stage identity
/// `parse.dis.lines == parse.dis.parsed + parse.dis.failed` holds by
/// construction — each attempted line lands in exactly one bucket).
/// Attempted and parsed lines are tallied locally and recorded in one
/// batch per document; each failed line records as it happens, since
/// `parse.dis.failed*` deltas are flight-recorder events.
/// When `obs` records lineage, it also assigns every recovered
/// disengagement a stable [`disengage_obs::RecordId`] (manufacturer
/// key segment, filing year, car segment, per-car ordinal within this
/// document) and records `normalized`/`quarantined` events —
/// `normalized` on the record's subject (carrying `doc_index` and the
/// 1-based source line so a record's lineage joins to its line's
/// OCR/chaos events), `quarantined` on the offending line (or the
/// document, for whole-document accident/mileage failures).
///
/// The returned ids are aligned index-for-index with
/// `Normalized::disengagements` under lineage, and empty otherwise:
/// lineage is their only reader, so an untraced run builds none.
/// Records, failures and counters do not depend on lineage.
pub fn normalize_document_traced(
    doc: &RawDocument,
    doc_index: usize,
    obs: Option<&disengage_obs::Collector>,
) -> (Normalized, Vec<disengage_obs::RecordId>) {
    use disengage_obs::{ProvenanceEvent, RecordId, Subject};
    let lineage = obs.filter(|o| o.lineage_enabled());
    let count = |name: &str| {
        if let Some(obs) = obs {
            obs.incr(name);
        }
    };
    let quarantine = |subject: Subject, reason: &dyn std::fmt::Display| {
        if let Some(obs) = lineage {
            obs.lineage(
                subject,
                ProvenanceEvent::Quarantined {
                    stage: "stage_ii_parse".to_owned(),
                    reason: reason.to_string(),
                },
            );
        }
    };
    let mut out = Normalized::default();
    let mut ids = Vec::new();
    match doc.kind {
        DocumentKind::Accident => {
            count("parse.acc.docs");
            match parse_accident_form(&doc.text) {
                Ok(mut record) => {
                    // The form is standardized, but a mangled manufacturer
                    // line could mis-attribute the filing; trust provenance.
                    record.manufacturer = doc.manufacturer;
                    out.accidents.push(record);
                    count("parse.acc.parsed");
                }
                Err(e) => {
                    quarantine(Subject::Document(doc_index), &e);
                    out.failures.push(e);
                    count("parse.acc.failed");
                }
            }
        }
        DocumentKind::Disengagements => {
            let format = format_for(doc.manufacturer);
            let (log_text, mileage_text) = doc.sections();
            // The manufacturer's key segment, once per document: it names
            // the per-manufacturer counters and starts every record id.
            let key = disengage_obs::key_segment(doc.manufacturer.name());
            let year = doc.report_year.filing_year();
            let names = obs.map(|_| {
                [
                    format!("parse.dis.parsed.{key}"),
                    format!("parse.dis.failed.{key}"),
                ]
            });
            let failed = || {
                if let (Some(obs), Some([_, failed_m])) = (obs, &names) {
                    obs.incr("parse.dis.failed");
                    obs.incr(failed_m);
                }
            };
            let (mut lines, mut parsed) = (0u64, 0u64);
            // Per-car ordinal within this document, under lineage: the
            // corpus emits one disengagement document per (manufacturer,
            // filing year), so (manufacturer, year, car, ordinal)
            // identifies the record.
            let mut car_seq: BTreeMap<CarId, u32> = BTreeMap::new();
            for (i, line) in log_text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                lines += 1;
                match format.parse_line(line, i + 1) {
                    Ok(mut record) => {
                        record.manufacturer = doc.manufacturer;
                        match record.validate() {
                            Ok(()) => {
                                if let Some(obs) = lineage {
                                    let seq = car_seq.entry(record.car.clone()).or_insert(0);
                                    let id = RecordId {
                                        manufacturer: key.clone(),
                                        year,
                                        car: car_segment(&record.car),
                                        seq: *seq,
                                    };
                                    *seq += 1;
                                    obs.lineage(
                                        Subject::Record(id.clone()),
                                        ProvenanceEvent::Normalized {
                                            doc: doc_index,
                                            line: i + 1,
                                            summary: format!(
                                                "{} {} {}",
                                                record.car, record.date, record.modality
                                            ),
                                        },
                                    );
                                    ids.push(id);
                                }
                                out.disengagements.push(record);
                                parsed += 1;
                            }
                            Err(e) => {
                                quarantine(
                                    Subject::Line {
                                        doc: doc_index,
                                        line: i + 1,
                                    },
                                    &e,
                                );
                                out.failures.push(e);
                                failed();
                            }
                        }
                    }
                    Err(e) => {
                        quarantine(
                            Subject::Line {
                                doc: doc_index,
                                line: i + 1,
                            },
                            &e,
                        );
                        out.failures.push(e);
                        failed();
                    }
                }
            }
            if let (Some(obs), Some([parsed_m, _])) = (obs, &names) {
                obs.record_batch(
                    [
                        ("parse.dis.lines", lines),
                        ("parse.dis.parsed", parsed),
                        (parsed_m.as_str(), parsed),
                    ],
                    [],
                );
            }
            if !mileage_text.is_empty() {
                match parse_mileage_table(doc.manufacturer, mileage_text) {
                    Ok(rows) => {
                        if let Some(obs) = obs {
                            obs.add("parse.mileage.rows", rows.len() as u64);
                        }
                        out.mileage.extend(rows);
                    }
                    Err(e) => {
                        quarantine(Subject::Document(doc_index), &e);
                        out.failures.push(e);
                        count("parse.mileage.tables_failed");
                    }
                }
            }
        }
    }
    (out, ids)
}

/// A car's record-id segment: its `Display` form kept to `[a-z0-9-]`,
/// so `car-3` stays and `[redacted]` becomes `redacted`.
fn car_segment(car: &CarId) -> String {
    match car {
        CarId::Known(i) => format!("car-{i}"),
        CarId::Redacted => "redacted".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;
    use crate::formats::disengagement::ReportFormat;
    use crate::formats::render_accident_form;
    use crate::record::{CarId, CollisionKind, Severity};
    use crate::types::{Manufacturer, Modality, ReportYear, RoadType, Weather};

    /// One record in Nissan's layout.
    fn nissan_line(r: &DisengagementRecord) -> String {
        let mut line = String::new();
        crate::formats::disengagement::NissanFormat.render(r, &mut line);
        line
    }

    fn sample_record() -> DisengagementRecord {
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

    #[test]
    fn disengagement_document_normalizes() {
        let text = format!(
            "{}\n{}\n",
            nissan_line(&sample_record()),
            nissan_line(&sample_record())
        );
        let doc = RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            text,
        );
        let n = normalize_document(&doc);
        assert_eq!(n.disengagements.len(), 2);
        assert!(n.failures.is_empty());
    }

    #[test]
    fn bad_lines_collected_not_fatal() {
        let text = format!(
            "{}\nOCR GARBAGE @@@@\n{}\n",
            nissan_line(&sample_record()),
            nissan_line(&sample_record())
        );
        let doc = RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            text,
        );
        let n = normalize_document(&doc);
        assert_eq!(n.disengagements.len(), 2);
        assert_eq!(n.failures.len(), 1);
    }

    #[test]
    fn mileage_section_parsed() {
        let text = format!(
            "{}\nMILEAGE\ncar-0 2016-01 120.5\ncar-1 2016-01 98.0\n",
            nissan_line(&sample_record())
        );
        let doc = RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            text,
        );
        let n = normalize_document(&doc);
        assert_eq!(n.disengagements.len(), 1);
        assert_eq!(n.mileage.len(), 2);
        assert_eq!(n.mileage[0].manufacturer, Manufacturer::Nissan);
    }

    #[test]
    fn mileage_inside_a_description_ends_no_section_in_any_layout() {
        use disengage_obs::Collector;
        for m in Manufacturer::ALL {
            let record = DisengagementRecord {
                manufacturer: m,
                description: "trip MILEAGE counter froze".to_owned(),
                ..sample_record()
            };
            let mut text = String::new();
            for _ in 0..2 {
                format_for(m).render(&record, &mut text);
                text.push('\n');
            }
            text.push_str("MILEAGE\ncar-0 2016-01 120.5\ncar-1 2016-01 98.0\n");
            let doc = RawDocument::new(m, ReportYear::R2016, DocumentKind::Disengagements, text);
            let obs = Collector::new();
            let (n, _) = normalize_document_traced(&doc, 0, Some(&obs));
            let lines = obs.state().counters.get("parse.dis.lines").copied();
            assert_eq!(lines, Some(2), "{m}: {:?}", doc.text);
            assert_eq!(n.disengagements.len(), 2, "{m}: {:?}", n.failures);
            assert_eq!(n.mileage.len(), 2, "{m}: {:?}", n.failures);
        }
    }

    #[test]
    fn accident_document_normalizes_and_trusts_provenance() {
        let record = AccidentRecord {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Redacted,
            date: Date::new(2016, 5, 10).unwrap(),
            location: "Mountain View CA".to_owned(),
            av_speed_mph: Some(4.0),
            other_speed_mph: Some(10.0),
            autonomous_at_impact: true,
            kind: CollisionKind::RearEnd,
            severity: Severity::Minor,
            description: "rear collision".to_owned(),
        };
        let mut form = String::new();
        render_accident_form(&record, &mut form);
        let doc = RawDocument::new(
            Manufacturer::GmCruise, // provenance differs from the form body
            ReportYear::R2016,
            DocumentKind::Accident,
            form,
        );
        let n = normalize_document(&doc);
        assert_eq!(n.accidents.len(), 1);
        assert_eq!(n.accidents[0].manufacturer, Manufacturer::GmCruise);
    }

    #[test]
    fn unparseable_accident_collected() {
        let doc = RawDocument::new(
            Manufacturer::Waymo,
            ReportYear::R2016,
            DocumentKind::Accident,
            "completely garbled scan",
        );
        let n = normalize_document(&doc);
        assert!(n.accidents.is_empty());
        assert_eq!(n.failures.len(), 1);
    }

    #[test]
    fn traced_normalize_assigns_stable_ids_and_events() {
        use disengage_obs::{Collector, ProvenanceEvent, Subject};
        let mut second = sample_record();
        second.car = CarId::Known(3);
        let text = format!(
            "{}\nOCR GARBAGE @@@@\n{}\n{}\n",
            nissan_line(&sample_record()),
            nissan_line(&second),
            nissan_line(&sample_record())
        );
        let doc = RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            text,
        );
        let obs = Collector::new().with_lineage(true);
        let (n, ids) = normalize_document_traced(&doc, 5, Some(&obs));
        assert_eq!(n.disengagements.len(), 3);
        assert_eq!(n.failures.len(), 1);
        // Ids align with the disengagements and disambiguate repeat cars
        // by per-car ordinal.
        let rendered: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        assert_eq!(
            rendered,
            [
                "nissan/2016/car-0/0",
                "nissan/2016/car-3/0",
                "nissan/2016/car-0/1"
            ]
        );
        // One normalized event per record (joined to doc 5 and its line),
        // one quarantined event on the garbage line.
        let prov = obs.provenance();
        let entries = prov.entries();
        let normalized: Vec<_> = entries
            .iter()
            .filter(|e| matches!(e.event, ProvenanceEvent::Normalized { .. }))
            .collect();
        assert_eq!(normalized.len(), 3);
        assert!(matches!(
            normalized[0].event,
            ProvenanceEvent::Normalized {
                doc: 5,
                line: 1,
                ..
            }
        ));
        let quarantined: Vec<_> = entries
            .iter()
            .filter(|e| matches!(e.event, ProvenanceEvent::Quarantined { .. }))
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].subject, Subject::Line { doc: 5, line: 2 });
        // Without lineage (or without a collector) no ids are built, and
        // the records, failures and counters are the same.
        let silent = Collector::new();
        let (silent_n, silent_ids) = normalize_document_traced(&doc, 5, Some(&silent));
        assert!(silent_ids.is_empty());
        assert_eq!(silent_n, n);
        assert!(silent.provenance().entries().is_empty());
        assert_eq!(silent.report().counters, obs.report().counters);
        assert_eq!(normalize_document_traced(&doc, 5, None), (n, Vec::new()));
    }

    #[test]
    fn merge_concatenates_documents() {
        let d1 = RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            nissan_line(&sample_record()),
        );
        let d2 = d1.clone();
        let mut n = normalize_document(&d1);
        n.merge(normalize_document(&d2));
        assert_eq!(n.disengagements.len(), 2);
        assert_eq!(n.record_count(), 2);
    }
}
