//! Disengagement-log line formats, one per manufacturer.
//!
//! Layouts are modeled on the verbatim samples in Table II of the paper:
//!
//! * Nissan: `1/4/16 — 1:25 PM — Leaf #1 (Alfa) — <description> — City — Sunny/Dry`
//! * Waymo: `May-16 — Highway — Safe Operation — <description>`
//! * Volkswagen: `11/12/14 — 18:24:03 — Takeover-Request — <description>`
//!
//! The remaining manufacturers use layouts consistent with their real
//! filings (pipe-separated tables for Mercedes-Benz and Tesla, key-value
//! suffixes for Bosch, CSV rows for Delphi, terse prefixed rows for GM
//! Cruise). Every format can round-trip: `parse(render(r))` recovers the
//! fields `r` carries in that format (formats that omit a field — e.g.
//! Waymo reports month precision only — lose exactly that field).
//!
//! Rendering appends to the caller's buffer, so a whole filing is one
//! growing `String`; parsing borrows every field from the line and
//! allocates only the description it keeps.

use crate::date::Date;
use crate::record::{CarId, DisengagementRecord};
use crate::scan::{fields, Sep};
use crate::types::{Manufacturer, Modality, RoadType, Weather};
use crate::{ReportError, Result};
use std::fmt::Write;

/// The em-dash field separator used in several manufacturers' reports.
pub const DASH_SEP: &str = " — ";

const DASH: Sep = Sep::new(DASH_SEP);
const PIPE: Sep = Sep::new(" | ");
const REACTION: Sep = Sep::new(" [reaction: ");

/// A disengagement-log format: renders uniform records into the
/// manufacturer's layout and parses lines of that layout back.
///
/// Implementations are data-format adapters; they do **not** interpret
/// the free-text description (that is Stage III's job).
pub trait ReportFormat {
    /// The manufacturer whose filings use this layout.
    fn manufacturer(&self) -> Manufacturer;

    /// Appends one record to `out` as one log line (no trailing newline).
    fn render(&self, record: &DisengagementRecord, out: &mut String);

    /// Parses one log line back into a uniform record.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::MalformedLine`] when the line does not
    /// match the layout.
    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord>;
}

/// Returns the format adapter for a manufacturer.
pub fn format_for(manufacturer: Manufacturer) -> Box<dyn ReportFormat + Send + Sync> {
    match manufacturer {
        Manufacturer::Nissan => Box::new(NissanFormat),
        Manufacturer::Waymo => Box::new(WaymoFormat),
        Manufacturer::Volkswagen => Box::new(VolkswagenFormat),
        Manufacturer::MercedesBenz => Box::new(BenzFormat),
        Manufacturer::Bosch => Box::new(BoschFormat),
        Manufacturer::Delphi => Box::new(DelphiFormat),
        Manufacturer::GmCruise => Box::new(GmCruiseFormat),
        Manufacturer::Tesla => Box::new(TeslaFormat),
        // The four sparse reporters file in the pipe layout too.
        Manufacturer::Uber | Manufacturer::Honda | Manufacturer::Ford | Manufacturer::Bmw => {
            Box::new(BenzFormat)
        }
    }
}

fn malformed(
    manufacturer: &'static str,
    line_no: usize,
    message: impl Into<String>,
) -> ReportError {
    ReportError::MalformedLine {
        manufacturer,
        line: line_no,
        message: message.into(),
    }
}

/// Appends the ` [reaction: X.XXs]` annotation, when there is a time.
fn push_reaction(out: &mut String, rt: Option<f64>) {
    if let Some(s) = rt {
        let _ = write!(out, " [reaction: {s:.2}s]");
    }
}

/// Splits a trailing ` [reaction: X.XXs]` annotation off a description.
fn split_reaction(desc: &str) -> (&str, Option<f64>) {
    if let Some(start) = REACTION.rfind(desc) {
        if let Some(num) = desc[start + REACTION.len()..].strip_suffix("s]") {
            if let Ok(v) = num.parse::<f64>() {
                return (&desc[..start], Some(v));
            }
        }
    }
    (desc, None)
}

/// Appends `car N`, or `car ?` for a redacted car.
fn push_car(out: &mut String, car: &CarId) {
    match car {
        CarId::Known(i) => {
            let _ = write!(out, "car {i}");
        }
        CarId::Redacted => out.push_str("car ?"),
    }
}

/// Appends a car's fleet index, or `?` for a redacted car.
fn push_index(out: &mut String, car: &CarId) {
    match car.index() {
        Some(i) => {
            let _ = write!(out, "{i}");
        }
        None => out.push('?'),
    }
}

/// Appends a date as `M/D/YY`.
fn push_short_date(out: &mut String, date: Date) {
    let _ = write!(
        out,
        "{}/{}/{:02}",
        date.month(),
        date.day(),
        date.year() % 100
    );
}

fn parse_car(text: &str) -> Option<CarId> {
    let t = text.trim();
    let rest = t.strip_prefix("car ").or_else(|| t.strip_prefix("Car "))?;
    if rest.trim() == "?" {
        return Some(CarId::Redacted);
    }
    rest.trim().parse::<u32>().ok().map(CarId::Known)
}

/// Whether `text`, ASCII-lowercased, contains `needle` (lowercase ASCII).
fn contains_folded(text: &str, needle: &str) -> bool {
    text.as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Nissan: `M/D/YY — H:MM AM/PM — Leaf #N (name) — <desc>[ [reaction: X.XXs]] — <road> — <weather>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NissanFormat;

const NATO: [&str; 8] = [
    "Alfa", "Bravo", "Charlie", "Delta", "Echo", "Foxtrot", "Golf", "Hotel",
];

impl ReportFormat for NissanFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::Nissan
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        let idx = r.car.index().unwrap_or(0);
        let name = NATO[(idx as usize) % NATO.len()];
        // Nissan's logs narrate who initiated the disengagement.
        let initiator = match r.modality {
            Modality::Manual => "driver initiated",
            _ => "system initiated",
        };
        push_short_date(out, r.date);
        let _ = write!(
            out,
            " — 11:20 AM — Leaf #{} ({name}) — {} ({initiator})",
            idx + 1,
            r.description
        );
        push_reaction(out, r.reaction_time_s);
        out.push_str(DASH_SEP);
        out.push_str(r.road_type.map_or("-", RoadType::name));
        out.push_str(DASH_SEP);
        out.push_str(r.weather.map_or("-", Weather::name));
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let ([date, _, vehicle, narrative, road, weather], n) = fields(DASH.split(line));
        if n != 6 {
            return Err(malformed(
                "Nissan",
                line_no,
                format!("expected 6 dash-separated fields, found {n}"),
            ));
        }
        let date = Date::parse(date).map_err(|e| malformed("Nissan", line_no, e.to_string()))?;
        let car = vehicle
            .trim()
            .strip_prefix("Leaf #")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<u32>().ok())
            .map(|n| CarId::Known(n.saturating_sub(1)))
            .ok_or_else(|| malformed("Nissan", line_no, "bad vehicle field"))?;
        let (with_mode, reaction_time_s) = split_reaction(narrative);
        // Strip the initiator clause Nissan appends to the narrative.
        let (description, modality) = if let Some(d) = with_mode.strip_suffix(" (driver initiated)")
        {
            (d, Modality::Manual)
        } else if let Some(d) = with_mode.strip_suffix(" (system initiated)") {
            (d, Modality::Automatic)
        } else if contains_folded(with_mode, "driver safely disengaged") {
            // Legacy narrations (Table II's verbatim samples).
            (with_mode, Modality::Manual)
        } else {
            (with_mode, Modality::Automatic)
        };
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Nissan,
            car,
            date,
            modality,
            road_type: RoadType::parse(road),
            weather: Weather::parse(weather),
            reaction_time_s,
            description: description.to_owned(),
        })
    }
}

/// Waymo: `Mon-YY — <road> — Safe Operation — <desc>[ [reaction: X.XXs]]`.
///
/// Month-precision dates; "Safe Operation" marks driver-initiated
/// (manual) disengagements, "Auto" marks system-initiated ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaymoFormat;

impl ReportFormat for WaymoFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::Waymo
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let _ = write!(
            out,
            "{}-{:02} — ",
            MONTHS[(r.date.month() - 1) as usize],
            r.date.year() % 100
        );
        // The road type, capitalized.
        match r.road_type.map(RoadType::name) {
            Some(road) => {
                let (first, rest) = road.split_at(1);
                out.extend(first.chars().map(|c| c.to_ascii_uppercase()));
                out.push_str(rest);
            }
            None => out.push('-'),
        }
        out.push_str(match r.modality {
            Modality::Manual => " — Safe Operation — ",
            _ => " — Auto — ",
        });
        out.push_str(&r.description);
        push_reaction(out, r.reaction_time_s);
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let ([date, road, mode, narrative], n) = fields(DASH.split(line));
        if n != 4 {
            return Err(malformed(
                "Waymo",
                line_no,
                format!("expected 4 dash-separated fields, found {n}"),
            ));
        }
        let date = Date::parse(date).map_err(|e| malformed("Waymo", line_no, e.to_string()))?;
        let modality = if mode.trim() == "Safe Operation" {
            Modality::Manual
        } else {
            Modality::Automatic
        };
        let (description, reaction_time_s) = split_reaction(narrative);
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Redacted, // Waymo does not identify vehicles per line
            date,
            modality,
            road_type: RoadType::parse(road),
            weather: None,
            reaction_time_s,
            description: description.to_owned(),
        })
    }
}

/// Volkswagen: `MM/DD/YY — HH:MM:SS — Takeover-Request — <desc>[ [reaction: X.XXs]]`.
///
/// All Volkswagen disengagements in the dataset are automatic
/// (Table V: 100% automatic).
#[derive(Debug, Clone, Copy, Default)]
pub struct VolkswagenFormat;

impl ReportFormat for VolkswagenFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::Volkswagen
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        let _ = write!(
            out,
            "{:02}/{:02}/{:02} — 18:24:03 — Takeover-Request — {}",
            r.date.month(),
            r.date.day(),
            r.date.year() % 100,
            r.description
        );
        push_reaction(out, r.reaction_time_s);
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let ([date, _, kind, narrative], n) = fields(DASH.split(line));
        if n != 4 || kind.trim() != "Takeover-Request" {
            return Err(malformed(
                "Volkswagen",
                line_no,
                "not a takeover-request row",
            ));
        }
        let date =
            Date::parse(date).map_err(|e| malformed("Volkswagen", line_no, e.to_string()))?;
        let (description, reaction_time_s) = split_reaction(narrative);
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Volkswagen,
            car: CarId::Redacted,
            date,
            modality: Modality::Automatic,
            road_type: None,
            weather: None,
            reaction_time_s,
            description: description.to_owned(),
        })
    }
}

/// A table cell, trimmed, or `None` for `-`, which marks an absent field.
fn present(cell: &str) -> Option<&str> {
    let t = cell.trim();
    (t != "-").then_some(t)
}

/// Mercedes-Benz (also used by the sparse reporters): a full
/// pipe-separated table row
/// `YYYY-MM-DD | car N | <modality> | <road> | <weather> | <reaction> | <desc>`
/// with `-` for absent fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenzFormat;

impl ReportFormat for BenzFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::MercedesBenz
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        let _ = write!(out, "{} | ", r.date);
        push_car(out, &r.car);
        let _ = write!(
            out,
            " | {} | {} | {} | ",
            r.modality.name(),
            r.road_type.map_or("-", RoadType::name),
            r.weather.map_or("-", Weather::name)
        );
        match r.reaction_time_s {
            Some(x) => {
                let _ = write!(out, "{x:.2}s");
            }
            None => out.push('-'),
        }
        out.push_str(" | ");
        out.push_str(&r.description);
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let ([date, car, modality, road, weather, reaction, description], n) =
            fields(PIPE.split(line));
        if n != 7 {
            return Err(malformed(
                "Mercedes-Benz",
                line_no,
                format!("expected 7 pipe-separated fields, found {n}"),
            ));
        }
        let date =
            Date::parse(date).map_err(|e| malformed("Mercedes-Benz", line_no, e.to_string()))?;
        let car =
            parse_car(car).ok_or_else(|| malformed("Mercedes-Benz", line_no, "bad car field"))?;
        let modality = Modality::parse(modality)
            .map_err(|e| malformed("Mercedes-Benz", line_no, e.to_string()))?;
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::MercedesBenz,
            car,
            date,
            modality,
            road_type: present(road).and_then(RoadType::parse),
            weather: present(weather).and_then(Weather::parse),
            reaction_time_s: present(reaction).and_then(|s| s.trim_end_matches('s').parse().ok()),
            description: description.trim().to_owned(),
        })
    }
}

/// Bosch: `Planned test on M/D/YY (car N): <desc> [road=<road>; weather=<weather>]`.
///
/// Bosch reports every disengagement as part of a planned test campaign
/// (Table V: 100% planned).
#[derive(Debug, Clone, Copy, Default)]
pub struct BoschFormat;

impl ReportFormat for BoschFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::Bosch
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        out.push_str("Planned test on ");
        push_short_date(out, r.date);
        out.push_str(" (");
        push_car(out, &r.car);
        let _ = write!(
            out,
            "): {} [road={}; weather={}]",
            r.description,
            r.road_type.map_or("-", RoadType::name),
            r.weather.map_or("-", Weather::name)
        );
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        const CAR_OPEN: Sep = Sep::new(" (");
        const CAR_CLOSE: Sep = Sep::new("): ");
        const ROAD: Sep = Sep::new(" [road=");
        const WEATHER: Sep = Sep::new("; weather=");
        let rest = line
            .strip_prefix("Planned test on ")
            .ok_or_else(|| malformed("Bosch", line_no, "missing planned-test prefix"))?;
        let (date_text, rest) = CAR_OPEN
            .split_once(rest)
            .ok_or_else(|| malformed("Bosch", line_no, "missing car field"))?;
        let date =
            Date::parse(date_text).map_err(|e| malformed("Bosch", line_no, e.to_string()))?;
        let (car_text, rest) = CAR_CLOSE
            .split_once(rest)
            .ok_or_else(|| malformed("Bosch", line_no, "missing description"))?;
        let car =
            parse_car(car_text).ok_or_else(|| malformed("Bosch", line_no, "bad car field"))?;
        let (description, meta) = ROAD
            .rsplit_once(rest)
            .ok_or_else(|| malformed("Bosch", line_no, "missing metadata suffix"))?;
        let meta = meta
            .strip_suffix(']')
            .ok_or_else(|| malformed("Bosch", line_no, "unterminated metadata"))?;
        let (road_text, weather_text) = WEATHER
            .split_once(meta)
            .ok_or_else(|| malformed("Bosch", line_no, "missing weather"))?;
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Bosch,
            car,
            date,
            modality: Modality::Planned,
            road_type: RoadType::parse(road_text),
            weather: Weather::parse(weather_text),
            reaction_time_s: None,
            description: description.to_owned(),
        })
    }
}

/// Delphi: CSV row `date,car,modality,road,reaction,"<desc>"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelphiFormat;

impl ReportFormat for DelphiFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::Delphi
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        let _ = write!(out, "{},", r.date);
        push_index(out, &r.car);
        let _ = write!(
            out,
            ",{},{},",
            r.modality.name(),
            r.road_type.map_or("", RoadType::name)
        );
        if let Some(x) = r.reaction_time_s {
            let _ = write!(out, "{x:.2}");
        }
        // The description, quoted, with every `"` doubled.
        out.push_str(",\"");
        for (i, piece) in r.description.split('"').enumerate() {
            if i > 0 {
                out.push_str("\"\"");
            }
            out.push_str(piece);
        }
        out.push('"');
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        const QUOTE: Sep = Sep::new(",\"");
        // The description is the final quoted field; split it off first so
        // embedded commas survive.
        let (head, desc) = QUOTE
            .split_once(line)
            .ok_or_else(|| malformed("Delphi", line_no, "missing quoted description"))?;
        let desc = desc
            .strip_suffix('"')
            .ok_or_else(|| malformed("Delphi", line_no, "unterminated description"))?;
        let description = if desc.contains('"') {
            desc.replace("\"\"", "\"")
        } else {
            desc.to_owned()
        };
        let ([date, car, modality, road, reaction], n) = fields(head.split(','));
        if n != 5 {
            return Err(malformed(
                "Delphi",
                line_no,
                format!("expected 5 leading fields, found {n}"),
            ));
        }
        let date = Date::parse(date).map_err(|e| malformed("Delphi", line_no, e.to_string()))?;
        let car = if car.trim() == "?" {
            CarId::Redacted
        } else {
            car.trim()
                .parse::<u32>()
                .map(CarId::Known)
                .map_err(|_| malformed("Delphi", line_no, "bad car index"))?
        };
        let modality =
            Modality::parse(modality).map_err(|e| malformed("Delphi", line_no, e.to_string()))?;
        let reaction_time_s = if reaction.is_empty() {
            None
        } else {
            reaction.parse().ok()
        };
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Delphi,
            car,
            date,
            modality,
            road_type: RoadType::parse(road),
            weather: None,
            reaction_time_s,
            description,
        })
    }
}

/// GM Cruise: `#N YYYY-MM-DD planned — <desc>`.
///
/// Like Bosch, GM Cruise files everything as planned testing.
#[derive(Debug, Clone, Copy, Default)]
pub struct GmCruiseFormat;

impl ReportFormat for GmCruiseFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::GmCruise
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        out.push('#');
        push_index(out, &r.car);
        let _ = write!(out, " {} planned — {}", r.date, r.description);
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let rest = line
            .strip_prefix('#')
            .ok_or_else(|| malformed("GMCruise", line_no, "missing # prefix"))?;
        let (head, description) = DASH
            .split_once(rest)
            .ok_or_else(|| malformed("GMCruise", line_no, "missing description"))?;
        let ([car, date, planned], n) = fields(head.split_whitespace());
        if n != 3 || planned != "planned" {
            return Err(malformed("GMCruise", line_no, "bad header tokens"));
        }
        let car = if car == "?" {
            CarId::Redacted
        } else {
            car.parse::<u32>()
                .map(CarId::Known)
                .map_err(|_| malformed("GMCruise", line_no, "bad car index"))?
        };
        let date = Date::parse(date).map_err(|e| malformed("GMCruise", line_no, e.to_string()))?;
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::GmCruise,
            car,
            date,
            modality: Modality::Planned,
            road_type: None,
            weather: None,
            reaction_time_s: None,
            description: description.to_owned(),
        })
    }
}

/// Tesla: `car N | M/D/YY | auto | <desc>[ [reaction: X.XXs]]`.
///
/// Tesla's descriptions are terse; nearly all end up Unknown-C in the
/// paper's categorization.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeslaFormat;

impl ReportFormat for TeslaFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::Tesla
    }

    fn render(&self, r: &DisengagementRecord, out: &mut String) {
        push_car(out, &r.car);
        out.push_str(" | ");
        push_short_date(out, r.date);
        out.push_str(match r.modality {
            Modality::Manual => " | manual | ",
            _ => " | auto | ",
        });
        out.push_str(&r.description);
        push_reaction(out, r.reaction_time_s);
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let ([car, date, modality, narrative], n) = fields(PIPE.split(line));
        if n != 4 {
            return Err(malformed(
                "Tesla",
                line_no,
                format!("expected 4 pipe-separated fields, found {n}"),
            ));
        }
        let car = parse_car(car).ok_or_else(|| malformed("Tesla", line_no, "bad car field"))?;
        let date = Date::parse(date).map_err(|e| malformed("Tesla", line_no, e.to_string()))?;
        let modality =
            Modality::parse(modality).map_err(|e| malformed("Tesla", line_no, e.to_string()))?;
        let (description, reaction_time_s) = split_reaction(narrative);
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Tesla,
            car,
            date,
            modality,
            road_type: None,
            weather: None,
            reaction_time_s,
            description: description.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record rendered by itself.
    fn render(f: &impl ReportFormat, r: &DisengagementRecord) -> String {
        let mut line = String::new();
        f.render(r, &mut line);
        line
    }

    fn base_record(m: Manufacturer) -> DisengagementRecord {
        DisengagementRecord {
            manufacturer: m,
            car: CarId::Known(1),
            date: Date::new(2016, 5, 25).unwrap(),
            modality: Modality::Manual,
            road_type: Some(RoadType::Highway),
            weather: Some(Weather::Clear),
            reaction_time_s: Some(0.85),
            description: "the AV didn't see the lead vehicle, driver safely disengaged".to_owned(),
        }
    }

    #[test]
    fn nissan_round_trip() {
        let f = NissanFormat;
        let r = base_record(Manufacturer::Nissan);
        let line = render(&f, &r);
        assert!(line.contains("Leaf #2 (Bravo)"), "{line}");
        let parsed = f.parse_line(&line, 1).unwrap();
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.car, r.car);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.reaction_time_s, Some(0.85));
        assert_eq!(parsed.road_type, Some(RoadType::Highway));
        assert_eq!(parsed.weather, Some(Weather::Clear));
        assert_eq!(parsed.modality, Modality::Manual);
    }

    #[test]
    fn nissan_paper_sample_parses() {
        // Verbatim layout from Table II (with our reaction annotation absent).
        let line = "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software module froze. As a result driver safely disengaged and resumed manual control. — City and highway — Sunny/Dry";
        let r = NissanFormat.parse_line(line, 1).unwrap();
        assert_eq!(r.date, Date::new(2016, 1, 4).unwrap());
        assert_eq!(r.car, CarId::Known(0));
        assert_eq!(r.road_type, Some(RoadType::Street));
        assert_eq!(r.weather, Some(Weather::Clear));
        assert!(r.description.contains("Software module froze"));
    }

    #[test]
    fn waymo_round_trip_month_precision() {
        let f = WaymoFormat;
        let r = base_record(Manufacturer::Waymo);
        let line = render(&f, &r);
        assert!(line.starts_with("May-16"), "{line}");
        let parsed = f.parse_line(&line, 1).unwrap();
        // Waymo loses day precision: month start.
        assert_eq!(parsed.date, Date::new(2016, 5, 1).unwrap());
        assert_eq!(parsed.modality, Modality::Manual);
        assert_eq!(parsed.description, r.description);
    }

    #[test]
    fn waymo_paper_sample_parses() {
        let line =
            "May-16 — Highway — Safe Operation — Disengage for a recklessly behaving road user";
        let r = WaymoFormat.parse_line(line, 1).unwrap();
        assert_eq!(r.road_type, Some(RoadType::Highway));
        assert_eq!(r.modality, Modality::Manual);
        assert!(r.description.contains("recklessly behaving road user"));
    }

    #[test]
    fn volkswagen_paper_sample_parses() {
        let line = "11/12/14 — 18:24:03 — Takeover-Request — watchdog error";
        let r = VolkswagenFormat.parse_line(line, 1).unwrap();
        assert_eq!(r.date, Date::new(2014, 11, 12).unwrap());
        assert_eq!(r.modality, Modality::Automatic);
        assert_eq!(r.description, "watchdog error");
    }

    #[test]
    fn benz_round_trip_full_schema() {
        let f = BenzFormat;
        let r = base_record(Manufacturer::MercedesBenz);
        let parsed = f.parse_line(&render(&f, &r), 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn benz_absent_fields_render_as_dash() {
        let f = BenzFormat;
        let mut r = base_record(Manufacturer::MercedesBenz);
        r.road_type = None;
        r.weather = None;
        r.reaction_time_s = None;
        let line = render(&f, &r);
        assert!(line.contains(" | - | - | - | "), "{line}");
        let parsed = f.parse_line(&line, 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn bosch_round_trip_planned() {
        let f = BoschFormat;
        let mut r = base_record(Manufacturer::Bosch);
        r.modality = Modality::Planned;
        r.reaction_time_s = None; // Bosch format carries no reaction field
        let parsed = f.parse_line(&render(&f, &r), 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn delphi_round_trip_with_embedded_quotes() {
        let f = DelphiFormat;
        let mut r = base_record(Manufacturer::Delphi);
        r.weather = None; // Delphi format carries no weather field
        r.description = "driver said \"take over\" and braked, hard".to_owned();
        let parsed = f.parse_line(&render(&f, &r), 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn gmcruise_round_trip() {
        let f = GmCruiseFormat;
        let mut r = base_record(Manufacturer::GmCruise);
        r.modality = Modality::Planned;
        r.road_type = None;
        r.weather = None;
        r.reaction_time_s = None;
        let parsed = f.parse_line(&render(&f, &r), 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn tesla_round_trip() {
        let f = TeslaFormat;
        let mut r = base_record(Manufacturer::Tesla);
        r.modality = Modality::Automatic;
        r.road_type = None;
        r.weather = None;
        let parsed = f.parse_line(&render(&f, &r), 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn malformed_lines_rejected_with_line_numbers() {
        let err = NissanFormat.parse_line("not a log line", 7).unwrap_err();
        match err {
            ReportError::MalformedLine { line, .. } => assert_eq!(line, 7),
            other => panic!("unexpected {other:?}"),
        }
        assert!(WaymoFormat.parse_line("a — b", 1).is_err());
        assert!(BoschFormat.parse_line("unplanned chaos", 1).is_err());
        assert!(DelphiFormat.parse_line("1,2,3", 1).is_err());
        assert!(GmCruiseFormat.parse_line("no hash", 1).is_err());
        assert!(TeslaFormat.parse_line("x | y", 1).is_err());
        assert!(VolkswagenFormat
            .parse_line("1/1/16 — t — NotTakeover — d", 1)
            .is_err());
    }

    #[test]
    fn format_for_covers_every_manufacturer() {
        for m in Manufacturer::ALL {
            let f = format_for(m);
            // Sparse reporters borrow the Benz layout; everyone else
            // identifies as themselves.
            if matches!(
                m,
                Manufacturer::Uber | Manufacturer::Honda | Manufacturer::Ford | Manufacturer::Bmw
            ) {
                assert_eq!(f.manufacturer(), Manufacturer::MercedesBenz);
            } else {
                assert_eq!(f.manufacturer(), m);
            }
        }
    }

    #[test]
    fn redacted_car_round_trips() {
        let f = BenzFormat;
        let mut r = base_record(Manufacturer::MercedesBenz);
        r.car = CarId::Redacted;
        let parsed = f.parse_line(&render(&f, &r), 1).unwrap();
        assert_eq!(parsed.car, CarId::Redacted);
    }
}
