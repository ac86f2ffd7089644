//! The standardized accident form (the DMV's OL 316 is a fixed form, so a
//! single key-value layout is shared by every manufacturer).

use crate::date::Date;
use crate::record::{AccidentRecord, CarId, CollisionKind, Severity};
use crate::scan::{lines, Sep};
use crate::types::Manufacturer;
use crate::{ReportError, Result};
use std::fmt::Write;

/// Appends an accident record to `out` as a multi-line OL 316-style form.
///
/// # Examples
///
/// ```
/// # use disengage_reports::formats::{render_accident_form, parse_accident_form};
/// # use disengage_reports::record::{AccidentRecord, CarId, CollisionKind, Severity};
/// # use disengage_reports::{Date, Manufacturer};
/// let record = AccidentRecord {
///     manufacturer: Manufacturer::Waymo,
///     car: CarId::Redacted,
///     date: Date::new(2016, 5, 10).unwrap(),
///     location: "El Camino Real & Clark Ave".into(),
///     av_speed_mph: Some(4.0),
///     other_speed_mph: Some(10.0),
///     autonomous_at_impact: true,
///     kind: CollisionKind::RearEnd,
///     severity: Severity::Minor,
///     description: "rear collision while yielding".into(),
/// };
/// let mut form = String::new();
/// render_accident_form(&record, &mut form);
/// assert_eq!(parse_accident_form(&form).unwrap(), record);
/// ```
pub fn render_accident_form(record: &AccidentRecord, out: &mut String) {
    out.push_str("REPORT OF TRAFFIC ACCIDENT INVOLVING AN AUTONOMOUS VEHICLE\n");
    let _ = writeln!(out, "Manufacturer: {}", record.manufacturer.name());
    match record.car {
        CarId::Known(i) => {
            let _ = writeln!(out, "Vehicle: fleet vehicle {i}");
        }
        CarId::Redacted => out.push_str("Vehicle: [REDACTED]\n"),
    }
    let _ = writeln!(out, "Date: {}", record.date);
    let _ = writeln!(out, "Location: {}", record.location);
    push_speed(out, "AV Speed (mph): ", record.av_speed_mph);
    push_speed(out, "Other Vehicle Speed (mph): ", record.other_speed_mph);
    let _ = writeln!(
        out,
        "Autonomous Mode at Impact: {}",
        if record.autonomous_at_impact {
            "yes"
        } else {
            "no"
        }
    );
    let _ = writeln!(out, "Collision Type: {}", record.kind.name());
    let _ = writeln!(out, "Damage Severity: {}", record.severity.name());
    let _ = writeln!(out, "Narrative: {}", record.description);
}

/// Appends a `label` line with a speed to one decimal, or `unknown`.
fn push_speed(out: &mut String, label: &str, speed: Option<f64>) {
    out.push_str(label);
    match speed {
        Some(s) => {
            let _ = writeln!(out, "{s:.1}");
        }
        None => out.push_str("unknown\n"),
    }
}

/// Parses an OL 316-style form back into an [`AccidentRecord`].
///
/// # Errors
///
/// Returns [`ReportError::MalformedLine`] for missing or malformed
/// fields and [`ReportError::InvalidDate`] for bad dates.
pub fn parse_accident_form(text: &str) -> Result<AccidentRecord> {
    let mut manufacturer = None;
    let mut car = None;
    let mut date = None;
    let mut location = None;
    let mut av_speed = None;
    let mut other_speed = None;
    let mut autonomous = None;
    let mut kind = None;
    let mut severity = None;
    let mut description = None;

    const KEY: Sep = Sep::new(": ");
    for (i, line) in lines(text).enumerate() {
        let line_no = i + 1;
        let Some((key, value)) = KEY.split_once(line) else {
            continue; // headers and blank lines
        };
        let value = value.trim();
        match key.trim() {
            "Manufacturer" => manufacturer = Some(Manufacturer::parse(value)?),
            "Vehicle" => {
                car = Some(if value == "[REDACTED]" {
                    CarId::Redacted
                } else if let Some(idx) = value.strip_prefix("fleet vehicle ") {
                    CarId::Known(
                        idx.trim()
                            .parse()
                            .map_err(|_| malformed(line_no, "bad fleet vehicle index"))?,
                    )
                } else {
                    return Err(malformed(line_no, "unrecognized vehicle field"));
                });
            }
            "Date" => date = Some(Date::parse(value)?),
            "Location" => location = Some(value.to_owned()),
            "AV Speed (mph)" => av_speed = Some(parse_speed(value, line_no)?),
            "Other Vehicle Speed (mph)" => other_speed = Some(parse_speed(value, line_no)?),
            "Autonomous Mode at Impact" => {
                autonomous = Some(match value {
                    "yes" => true,
                    "no" => false,
                    _ => return Err(malformed(line_no, "autonomous field must be yes/no")),
                })
            }
            "Collision Type" => {
                kind = Some(match value {
                    "rear-end" => CollisionKind::RearEnd,
                    "side-swipe" => CollisionKind::SideSwipe,
                    "frontal" => CollisionKind::Frontal,
                    "object" => CollisionKind::Object,
                    _ => return Err(malformed(line_no, "unknown collision type")),
                })
            }
            "Damage Severity" => {
                severity = Some(match value {
                    "minor" => Severity::Minor,
                    "moderate" => Severity::Moderate,
                    "major" => Severity::Major,
                    _ => return Err(malformed(line_no, "unknown severity")),
                })
            }
            "Narrative" => description = Some(value.to_owned()),
            _ => {} // tolerate extra fields
        }
    }

    Ok(AccidentRecord {
        manufacturer: manufacturer.ok_or_else(|| missing("Manufacturer"))?,
        car: car.ok_or_else(|| missing("Vehicle"))?,
        date: date.ok_or_else(|| missing("Date"))?,
        location: location.ok_or_else(|| missing("Location"))?,
        av_speed_mph: av_speed.ok_or_else(|| missing("AV Speed"))?,
        other_speed_mph: other_speed.ok_or_else(|| missing("Other Vehicle Speed"))?,
        autonomous_at_impact: autonomous.ok_or_else(|| missing("Autonomous Mode"))?,
        kind: kind.ok_or_else(|| missing("Collision Type"))?,
        severity: severity.ok_or_else(|| missing("Damage Severity"))?,
        description: description.ok_or_else(|| missing("Narrative"))?,
    })
}

fn parse_speed(value: &str, line_no: usize) -> Result<Option<f64>> {
    if value == "unknown" {
        Ok(None)
    } else {
        value
            .parse::<f64>()
            .map(Some)
            .map_err(|_| malformed(line_no, "bad speed value"))
    }
}

fn malformed(line: usize, message: &str) -> ReportError {
    ReportError::MalformedLine {
        manufacturer: "accident form",
        line,
        message: message.to_owned(),
    }
}

fn missing(field: &'static str) -> ReportError {
    ReportError::MissingData(format!("accident form field `{field}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(r: &AccidentRecord) -> String {
        let mut text = String::new();
        render_accident_form(r, &mut text);
        text
    }

    fn record() -> AccidentRecord {
        AccidentRecord {
            manufacturer: Manufacturer::GmCruise,
            car: CarId::Known(4),
            date: Date::new(2016, 9, 23).unwrap(),
            location: "Folsom St & 5th St, San Francisco CA".to_owned(),
            av_speed_mph: Some(12.0),
            other_speed_mph: None,
            autonomous_at_impact: false,
            kind: CollisionKind::SideSwipe,
            severity: Severity::Moderate,
            description: "lane-changing vehicle clipped the AV's mirror".to_owned(),
        }
    }

    #[test]
    fn round_trip() {
        let r = record();
        let form = rendered(&r);
        assert!(form.contains("fleet vehicle 4"));
        assert!(form.contains("Other Vehicle Speed (mph): unknown"));
        assert_eq!(parse_accident_form(&form).unwrap(), r);
    }

    #[test]
    fn lone_carriage_returns_end_the_forms_lines() {
        let r = record();
        let form = rendered(&r).replace('\n', "\r");
        assert_eq!(parse_accident_form(&form).unwrap(), r);
    }

    #[test]
    fn redacted_round_trip() {
        let mut r = record();
        r.car = CarId::Redacted;
        let form = rendered(&r);
        assert!(form.contains("[REDACTED]"));
        assert_eq!(parse_accident_form(&form).unwrap().car, CarId::Redacted);
    }

    #[test]
    fn missing_field_rejected() {
        let r = record();
        let form = rendered(&r);
        let without_date: String = lines(&form)
            .filter(|l| !l.starts_with("Date:"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            parse_accident_form(&without_date),
            Err(ReportError::MissingData(_))
        ));
    }

    #[test]
    fn bad_values_rejected() {
        let form = rendered(&record());
        let bad = form.replace(
            "Autonomous Mode at Impact: no",
            "Autonomous Mode at Impact: maybe",
        );
        assert!(parse_accident_form(&bad).is_err());
        let bad = form.replace("Collision Type: side-swipe", "Collision Type: meteor");
        assert!(parse_accident_form(&bad).is_err());
        let bad = form.replace("AV Speed (mph): 12.0", "AV Speed (mph): fast");
        assert!(parse_accident_form(&bad).is_err());
    }

    #[test]
    fn extra_fields_tolerated() {
        let mut form = rendered(&record());
        form.push_str("Officer: J. Doe\n");
        assert!(parse_accident_form(&form).is_ok());
    }
}
