//! The Stage I renderers and Stage II parsers the text-format layer is
//! pinned to.
//!
//! These are the original bodies of `ReportFormat::render` and
//! `parse_line` for every manufacturer layout, the mileage table and the
//! accident form, `Date::parse`, the vocabulary parsers
//! (`Manufacturer`, `RoadType`, `Weather`, `Modality`), the document
//! renderers of `corpus::rawdoc`, and `normalize_document_traced` with
//! the record-id construction of `RecordId::new`, kept as an executable
//! specification. Each renders a field into its own `String` and joins
//! them, and each parser collects its fields into a `Vec<&str>` and
//! copies the ones it keeps. Only names changed when they moved here:
//! `Date::parse(…)` is [`parse_date`], and so on, so the reference never
//! reaches into the code it checks, and the accident form's `malformed`
//! is `form_malformed`, beside the log formats' own. The production
//! layer renders every filing into one buffer and parses each line in
//! place; the root `format_equivalence` suite asserts that both produce
//! the same bytes, records, ids, errors, counters and lineage, and
//! `chaos_props` runs hostile input through both. It lives in test code
//! because no production path runs it.

use disengage_reports::formats::{DocumentKind, RawDocument};
use disengage_reports::normalize::Normalized;
use disengage_reports::record::{AccidentRecord, CarId, CollisionKind, Severity};
use disengage_reports::{
    Date, DisengagementRecord, Manufacturer, Modality, MonthlyMileage, ReportError, ReportYear,
    Result, RoadType, Weather,
};

const MONTH_ABBREV: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

// ---- disengagement-log formats (formats::disengagement) ----

/// The em-dash field separator used in several manufacturers' reports.
pub const DASH_SEP: &str = " — ";

/// A disengagement-log format: renders uniform records into the
/// manufacturer's layout and parses lines of that layout back.
///
/// Implementations are data-format adapters; they do **not** interpret
/// the free-text description (that is Stage III's job).
pub trait ReportFormat {
    /// The manufacturer whose filings use this layout.
    fn manufacturer(&self) -> Manufacturer;

    /// Renders one record as one log line (no trailing newline).
    fn render(&self, record: &DisengagementRecord) -> String;

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

fn render_reaction(rt: Option<f64>) -> String {
    match rt {
        Some(s) => format!(" [reaction: {s:.2}s]"),
        None => String::new(),
    }
}

/// Splits a trailing ` [reaction: X.XXs]` annotation off a description.
fn split_reaction(desc: &str) -> (String, Option<f64>) {
    if let Some(start) = desc.rfind(" [reaction: ") {
        if let Some(rest) = desc[start..].strip_prefix(" [reaction: ") {
            if let Some(num) = rest.strip_suffix("s]") {
                if let Ok(v) = num.parse::<f64>() {
                    return (desc[..start].to_owned(), Some(v));
                }
            }
        }
    }
    (desc.to_owned(), None)
}

fn render_car(car: &CarId) -> String {
    match car {
        CarId::Known(i) => format!("car {i}"),
        CarId::Redacted => "car ?".to_owned(),
    }
}

fn parse_car(text: &str) -> Option<CarId> {
    let t = text.trim();
    let rest = t.strip_prefix("car ").or_else(|| t.strip_prefix("Car "))?;
    if rest.trim() == "?" {
        return Some(CarId::Redacted);
    }
    rest.trim().parse::<u32>().ok().map(CarId::Known)
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

    fn render(&self, r: &DisengagementRecord) -> String {
        let idx = r.car.index().unwrap_or(0);
        let name = NATO[(idx as usize) % NATO.len()];
        let road = r.road_type.map_or("-".to_owned(), |rt| rt.to_string());
        let weather = r.weather.map_or("-".to_owned(), |w| w.to_string());
        let date = format!(
            "{}/{}/{:02}",
            r.date.month(),
            r.date.day(),
            r.date.year() % 100
        );
        let vehicle = format!("Leaf #{} ({})", idx + 1, name);
        // Nissan's logs narrate who initiated the disengagement.
        let initiator = match r.modality {
            Modality::Manual => "driver initiated",
            _ => "system initiated",
        };
        let desc = format!(
            "{} ({initiator}){}",
            r.description,
            render_reaction(r.reaction_time_s)
        );
        [date.as_str(), "11:20 AM", &vehicle, &desc, &road, &weather].join(DASH_SEP)
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let parts: Vec<&str> = line.split(DASH_SEP).collect();
        if parts.len() != 6 {
            return Err(malformed(
                "Nissan",
                line_no,
                format!("expected 6 dash-separated fields, found {}", parts.len()),
            ));
        }
        let date = parse_date(parts[0]).map_err(|e| malformed("Nissan", line_no, e.to_string()))?;
        let car = parts[2]
            .trim()
            .strip_prefix("Leaf #")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<u32>().ok())
            .map(|n| CarId::Known(n.saturating_sub(1)))
            .ok_or_else(|| malformed("Nissan", line_no, "bad vehicle field"))?;
        let (with_mode, reaction_time_s) = split_reaction(parts[3]);
        // Strip the initiator clause Nissan appends to the narrative.
        let (description, modality) = if let Some(d) = with_mode.strip_suffix(" (driver initiated)")
        {
            (d.to_owned(), Modality::Manual)
        } else if let Some(d) = with_mode.strip_suffix(" (system initiated)") {
            (d.to_owned(), Modality::Automatic)
        } else if with_mode
            .to_ascii_lowercase()
            .contains("driver safely disengaged")
        {
            // Legacy narrations (Table II's verbatim samples).
            (with_mode.clone(), Modality::Manual)
        } else {
            (with_mode.clone(), Modality::Automatic)
        };
        let road_type = parse_road_type(parts[4]).ok();
        let weather = parse_weather(parts[5]).ok();
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Nissan,
            car,
            date,
            modality,
            road_type,
            weather,
            reaction_time_s,
            description,
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

    fn render(&self, r: &DisengagementRecord) -> String {
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let road = r.road_type.map_or("-".to_owned(), |rt| {
            let mut s = rt.to_string();
            if let Some(first) = s.get_mut(0..1) {
                first.make_ascii_uppercase();
            }
            s
        });
        let mode = match r.modality {
            Modality::Manual => "Safe Operation",
            _ => "Auto",
        };
        format!(
            "{}-{:02}{}{}{}{}{}{}{}",
            MONTHS[(r.date.month() - 1) as usize],
            r.date.year() % 100,
            DASH_SEP,
            road,
            DASH_SEP,
            mode,
            DASH_SEP,
            r.description,
            render_reaction(r.reaction_time_s)
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let parts: Vec<&str> = line.split(DASH_SEP).collect();
        if parts.len() != 4 {
            return Err(malformed(
                "Waymo",
                line_no,
                format!("expected 4 dash-separated fields, found {}", parts.len()),
            ));
        }
        let date = parse_date(parts[0]).map_err(|e| malformed("Waymo", line_no, e.to_string()))?;
        let road_type = parse_road_type(parts[1]).ok();
        let modality = if parts[2].trim() == "Safe Operation" {
            Modality::Manual
        } else {
            Modality::Automatic
        };
        let (description, reaction_time_s) = split_reaction(parts[3]);
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Redacted, // Waymo does not identify vehicles per line
            date,
            modality,
            road_type,
            weather: None,
            reaction_time_s,
            description,
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

    fn render(&self, r: &DisengagementRecord) -> String {
        format!(
            "{:02}/{:02}/{:02}{}18:24:03{}Takeover-Request{}{}{}",
            r.date.month(),
            r.date.day(),
            r.date.year() % 100,
            DASH_SEP,
            DASH_SEP,
            DASH_SEP,
            r.description,
            render_reaction(r.reaction_time_s)
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let parts: Vec<&str> = line.split(DASH_SEP).collect();
        if parts.len() != 4 || parts[2].trim() != "Takeover-Request" {
            return Err(malformed(
                "Volkswagen",
                line_no,
                "not a takeover-request row",
            ));
        }
        let date =
            parse_date(parts[0]).map_err(|e| malformed("Volkswagen", line_no, e.to_string()))?;
        let (description, reaction_time_s) = split_reaction(parts[3]);
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Volkswagen,
            car: CarId::Redacted,
            date,
            modality: Modality::Automatic,
            road_type: None,
            weather: None,
            reaction_time_s,
            description,
        })
    }
}

/// Mercedes-Benz (also used by the sparse reporters): a full
/// pipe-separated table row
/// `YYYY-MM-DD | car N | <modality> | <road> | <weather> | <reaction> | <desc>`
/// with `-` for absent fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenzFormat;

impl BenzFormat {
    fn parse_as(
        line: &str,
        line_no: usize,
        manufacturer: Manufacturer,
    ) -> Result<DisengagementRecord> {
        let parts: Vec<&str> = line.split(" | ").collect();
        if parts.len() != 7 {
            return Err(malformed(
                "Mercedes-Benz",
                line_no,
                format!("expected 7 pipe-separated fields, found {}", parts.len()),
            ));
        }
        let date =
            parse_date(parts[0]).map_err(|e| malformed("Mercedes-Benz", line_no, e.to_string()))?;
        let car = parse_car(parts[1])
            .ok_or_else(|| malformed("Mercedes-Benz", line_no, "bad car field"))?;
        let modality = parse_modality(parts[2])
            .map_err(|e| malformed("Mercedes-Benz", line_no, e.to_string()))?;
        let opt = |s: &str| {
            let t = s.trim();
            if t == "-" {
                None
            } else {
                Some(t.to_owned())
            }
        };
        let road_type = opt(parts[3]).and_then(|s| parse_road_type(&s).ok());
        let weather = opt(parts[4]).and_then(|s| parse_weather(&s).ok());
        let reaction_time_s = opt(parts[5]).and_then(|s| s.trim_end_matches('s').parse().ok());
        Ok(DisengagementRecord {
            manufacturer,
            car,
            date,
            modality,
            road_type,
            weather,
            reaction_time_s,
            description: parts[6].trim().to_owned(),
        })
    }
}

impl ReportFormat for BenzFormat {
    fn manufacturer(&self) -> Manufacturer {
        Manufacturer::MercedesBenz
    }

    fn render(&self, r: &DisengagementRecord) -> String {
        let road = r.road_type.map_or("-".to_owned(), |x| x.to_string());
        let weather = r.weather.map_or("-".to_owned(), |x| x.to_string());
        let reaction = r
            .reaction_time_s
            .map_or("-".to_owned(), |x| format!("{x:.2}s"));
        format!(
            "{} | {} | {} | {} | {} | {} | {}",
            r.date,
            render_car(&r.car),
            r.modality,
            road,
            weather,
            reaction,
            r.description
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        Self::parse_as(line, line_no, Manufacturer::MercedesBenz)
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

    fn render(&self, r: &DisengagementRecord) -> String {
        let road = r.road_type.map_or("-".to_owned(), |x| x.to_string());
        let weather = r.weather.map_or("-".to_owned(), |x| x.to_string());
        format!(
            "Planned test on {}/{}/{:02} ({}): {} [road={}; weather={}]",
            r.date.month(),
            r.date.day(),
            r.date.year() % 100,
            render_car(&r.car),
            r.description,
            road,
            weather
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let rest = line
            .strip_prefix("Planned test on ")
            .ok_or_else(|| malformed("Bosch", line_no, "missing planned-test prefix"))?;
        let (date_text, rest) = rest
            .split_once(" (")
            .ok_or_else(|| malformed("Bosch", line_no, "missing car field"))?;
        let date = parse_date(date_text).map_err(|e| malformed("Bosch", line_no, e.to_string()))?;
        let (car_text, rest) = rest
            .split_once("): ")
            .ok_or_else(|| malformed("Bosch", line_no, "missing description"))?;
        let car =
            parse_car(car_text).ok_or_else(|| malformed("Bosch", line_no, "bad car field"))?;
        let (description, meta) = rest
            .rsplit_once(" [road=")
            .ok_or_else(|| malformed("Bosch", line_no, "missing metadata suffix"))?;
        let meta = meta
            .strip_suffix(']')
            .ok_or_else(|| malformed("Bosch", line_no, "unterminated metadata"))?;
        let (road_text, weather_text) = meta
            .split_once("; weather=")
            .ok_or_else(|| malformed("Bosch", line_no, "missing weather"))?;
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Bosch,
            car,
            date,
            modality: Modality::Planned,
            road_type: parse_road_type(road_text).ok(),
            weather: parse_weather(weather_text).ok(),
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

    fn render(&self, r: &DisengagementRecord) -> String {
        let road = r.road_type.map_or(String::new(), |x| x.to_string());
        let reaction = r
            .reaction_time_s
            .map_or(String::new(), |x| format!("{x:.2}"));
        format!(
            "{},{},{},{},{},\"{}\"",
            r.date,
            r.car.index().map_or("?".to_owned(), |i| i.to_string()),
            r.modality,
            road,
            reaction,
            r.description.replace('"', "\"\"")
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        // The description is the final quoted field; split it off first so
        // embedded commas survive.
        let (head, desc) = line
            .split_once(",\"")
            .ok_or_else(|| malformed("Delphi", line_no, "missing quoted description"))?;
        let description = desc
            .strip_suffix('"')
            .ok_or_else(|| malformed("Delphi", line_no, "unterminated description"))?
            .replace("\"\"", "\"");
        let fields: Vec<&str> = head.split(',').collect();
        if fields.len() != 5 {
            return Err(malformed(
                "Delphi",
                line_no,
                format!("expected 5 leading fields, found {}", fields.len()),
            ));
        }
        let date =
            parse_date(fields[0]).map_err(|e| malformed("Delphi", line_no, e.to_string()))?;
        let car = if fields[1].trim() == "?" {
            CarId::Redacted
        } else {
            fields[1]
                .trim()
                .parse::<u32>()
                .map(CarId::Known)
                .map_err(|_| malformed("Delphi", line_no, "bad car index"))?
        };
        let modality =
            parse_modality(fields[2]).map_err(|e| malformed("Delphi", line_no, e.to_string()))?;
        let road_type = if fields[3].is_empty() {
            None
        } else {
            parse_road_type(fields[3]).ok()
        };
        let reaction_time_s = if fields[4].is_empty() {
            None
        } else {
            fields[4].parse().ok()
        };
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Delphi,
            car,
            date,
            modality,
            road_type,
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

    fn render(&self, r: &DisengagementRecord) -> String {
        format!(
            "#{} {} planned{}{}",
            r.car.index().map_or("?".to_owned(), |i| i.to_string()),
            r.date,
            DASH_SEP,
            r.description
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let rest = line
            .strip_prefix('#')
            .ok_or_else(|| malformed("GMCruise", line_no, "missing # prefix"))?;
        let (head, description) = rest
            .split_once(DASH_SEP)
            .ok_or_else(|| malformed("GMCruise", line_no, "missing description"))?;
        let tokens: Vec<&str> = head.split_whitespace().collect();
        if tokens.len() != 3 || tokens[2] != "planned" {
            return Err(malformed("GMCruise", line_no, "bad header tokens"));
        }
        let car = if tokens[0] == "?" {
            CarId::Redacted
        } else {
            tokens[0]
                .parse::<u32>()
                .map(CarId::Known)
                .map_err(|_| malformed("GMCruise", line_no, "bad car index"))?
        };
        let date =
            parse_date(tokens[1]).map_err(|e| malformed("GMCruise", line_no, e.to_string()))?;
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

    fn render(&self, r: &DisengagementRecord) -> String {
        let mode = match r.modality {
            Modality::Manual => "manual",
            _ => "auto",
        };
        format!(
            "{} | {}/{}/{:02} | {} | {}{}",
            render_car(&r.car),
            r.date.month(),
            r.date.day(),
            r.date.year() % 100,
            mode,
            r.description,
            render_reaction(r.reaction_time_s)
        )
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<DisengagementRecord> {
        let parts: Vec<&str> = line.split(" | ").collect();
        if parts.len() != 4 {
            return Err(malformed(
                "Tesla",
                line_no,
                format!("expected 4 pipe-separated fields, found {}", parts.len()),
            ));
        }
        let car =
            parse_car(parts[0]).ok_or_else(|| malformed("Tesla", line_no, "bad car field"))?;
        let date = parse_date(parts[1]).map_err(|e| malformed("Tesla", line_no, e.to_string()))?;
        let modality =
            parse_modality(parts[2]).map_err(|e| malformed("Tesla", line_no, e.to_string()))?;
        let (description, reaction_time_s) = split_reaction(parts[3]);
        Ok(DisengagementRecord {
            manufacturer: Manufacturer::Tesla,
            car,
            date,
            modality,
            road_type: None,
            weather: None,
            reaction_time_s,
            description,
        })
    }
}

// ---- the mileage table (formats::mileage) ----

/// Renders a mileage table: one `car-N YYYY-MM miles` row per entry,
/// under a `MILEAGE` header.
pub fn render_mileage_table(rows: &[MonthlyMileage]) -> String {
    let mut out = String::from("MILEAGE\n");
    for r in rows {
        out.push_str(&format!(
            "{} {:04}-{:02} {:.1}\n",
            r.car,
            r.month.year(),
            r.month.month(),
            r.miles
        ));
    }
    out
}

/// Parses a mileage table rendered by [`render_mileage_table`].
///
/// # Errors
///
/// Returns [`ReportError::MalformedLine`] for rows that do not match,
/// and [`ReportError::InvalidField`] for negative mileage.
pub fn parse_mileage_table(manufacturer: Manufacturer, text: &str) -> Result<Vec<MonthlyMileage>> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line == "MILEAGE" {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() != 3 {
            return Err(ReportError::MalformedLine {
                manufacturer: "mileage table",
                line: line_no,
                message: format!("expected 3 tokens, found {}", tokens.len()),
            });
        }
        let car = if tokens[0] == "[redacted]" {
            CarId::Redacted
        } else {
            tokens[0]
                .strip_prefix("car-")
                .and_then(|n| n.parse::<u32>().ok())
                .map(CarId::Known)
                .ok_or_else(|| ReportError::MalformedLine {
                    manufacturer: "mileage table",
                    line: line_no,
                    message: "bad car token".to_owned(),
                })?
        };
        let (y, m) = tokens[1]
            .split_once('-')
            .ok_or_else(|| ReportError::MalformedLine {
                manufacturer: "mileage table",
                line: line_no,
                message: "bad month token".to_owned(),
            })?;
        let year: u16 = y
            .parse()
            .map_err(|_| ReportError::InvalidDate(tokens[1].to_owned()))?;
        let month: u8 = m
            .parse()
            .map_err(|_| ReportError::InvalidDate(tokens[1].to_owned()))?;
        let miles: f64 = tokens[2].parse().map_err(|_| ReportError::InvalidField {
            field: "miles",
            value: tokens[2].to_owned(),
        })?;
        let row = MonthlyMileage {
            manufacturer,
            car,
            month: Date::month_start(year, month)?,
            miles,
        };
        row.validate()?;
        rows.push(row);
    }
    Ok(rows)
}

// ---- the accident form (formats::accident) ----

/// Renders an accident record as a multi-line OL 316-style form.
pub fn render_accident_form(record: &AccidentRecord) -> String {
    let mut out = String::new();
    out.push_str("REPORT OF TRAFFIC ACCIDENT INVOLVING AN AUTONOMOUS VEHICLE\n");
    out.push_str(&format!("Manufacturer: {}\n", record.manufacturer));
    out.push_str(&format!(
        "Vehicle: {}\n",
        match &record.car {
            CarId::Known(i) => format!("fleet vehicle {i}"),
            CarId::Redacted => "[REDACTED]".to_owned(),
        }
    ));
    out.push_str(&format!("Date: {}\n", record.date));
    out.push_str(&format!("Location: {}\n", record.location));
    out.push_str(&format!(
        "AV Speed (mph): {}\n",
        record
            .av_speed_mph
            .map_or("unknown".to_owned(), |s| format!("{s:.1}"))
    ));
    out.push_str(&format!(
        "Other Vehicle Speed (mph): {}\n",
        record
            .other_speed_mph
            .map_or("unknown".to_owned(), |s| format!("{s:.1}"))
    ));
    out.push_str(&format!(
        "Autonomous Mode at Impact: {}\n",
        if record.autonomous_at_impact {
            "yes"
        } else {
            "no"
        }
    ));
    out.push_str(&format!("Collision Type: {}\n", record.kind));
    out.push_str(&format!("Damage Severity: {}\n", record.severity));
    out.push_str(&format!("Narrative: {}\n", record.description));
    out
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

    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let Some((key, value)) = line.split_once(": ") else {
            continue; // headers and blank lines
        };
        let value = value.trim();
        match key.trim() {
            "Manufacturer" => manufacturer = Some(parse_manufacturer(value)?),
            "Vehicle" => {
                car = Some(if value == "[REDACTED]" {
                    CarId::Redacted
                } else if let Some(idx) = value.strip_prefix("fleet vehicle ") {
                    CarId::Known(
                        idx.trim()
                            .parse()
                            .map_err(|_| form_malformed(line_no, "bad fleet vehicle index"))?,
                    )
                } else {
                    return Err(form_malformed(line_no, "unrecognized vehicle field"));
                });
            }
            "Date" => date = Some(parse_date(value)?),
            "Location" => location = Some(value.to_owned()),
            "AV Speed (mph)" => av_speed = Some(parse_speed(value, line_no)?),
            "Other Vehicle Speed (mph)" => other_speed = Some(parse_speed(value, line_no)?),
            "Autonomous Mode at Impact" => {
                autonomous = Some(match value {
                    "yes" => true,
                    "no" => false,
                    _ => return Err(form_malformed(line_no, "autonomous field must be yes/no")),
                })
            }
            "Collision Type" => {
                kind = Some(match value {
                    "rear-end" => CollisionKind::RearEnd,
                    "side-swipe" => CollisionKind::SideSwipe,
                    "frontal" => CollisionKind::Frontal,
                    "object" => CollisionKind::Object,
                    _ => return Err(form_malformed(line_no, "unknown collision type")),
                })
            }
            "Damage Severity" => {
                severity = Some(match value {
                    "minor" => Severity::Minor,
                    "moderate" => Severity::Moderate,
                    "major" => Severity::Major,
                    _ => return Err(form_malformed(line_no, "unknown severity")),
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
            .map_err(|_| form_malformed(line_no, "bad speed value"))
    }
}

fn form_malformed(line: usize, message: &str) -> ReportError {
    ReportError::MalformedLine {
        manufacturer: "accident form",
        line,
        message: message.to_owned(),
    }
}

fn missing(field: &'static str) -> ReportError {
    ReportError::MissingData(format!("accident form field `{field}`"))
}

// ---- dates and vocabulary (date, types) ----

/// Parses the date layouts found in the DMV reports:
///
/// * `M/D/YY` or `MM/DD/YYYY` — e.g. `1/4/16`, `11/12/2014`
/// * `Mon-YY` — e.g. `May-16` (month precision, day = 1)
/// * `YYYY-MM-DD` — ISO, used in our normalized output
///
/// Two-digit years are interpreted as 20YY.
///
/// # Errors
///
/// Returns [`ReportError::InvalidDate`] for unrecognized layouts or
/// invalid component values.
pub fn parse_date(text: &str) -> Result<Date> {
    let t = text.trim();
    if let Some((mon, yy)) = t.split_once('-') {
        // Mon-YY (e.g. May-16) or ISO YYYY-MM-DD.
        if let Some(m) = MONTH_ABBREV
            .iter()
            .position(|&a| a.eq_ignore_ascii_case(mon))
        {
            let year = parse_year(yy)?;
            return Date::month_start(year, (m + 1) as u8);
        }
        let parts: Vec<&str> = t.split('-').collect();
        if parts.len() == 3 {
            let year: u16 = parts[0]
                .parse()
                .map_err(|_| ReportError::InvalidDate(t.to_owned()))?;
            let month: u8 = parts[1]
                .parse()
                .map_err(|_| ReportError::InvalidDate(t.to_owned()))?;
            let day: u8 = parts[2]
                .parse()
                .map_err(|_| ReportError::InvalidDate(t.to_owned()))?;
            return Date::new(year, month, day);
        }
        return Err(ReportError::InvalidDate(t.to_owned()));
    }
    // M/D/YY layouts.
    let parts: Vec<&str> = t.split('/').collect();
    if parts.len() == 3 {
        let month: u8 = parts[0]
            .parse()
            .map_err(|_| ReportError::InvalidDate(t.to_owned()))?;
        let day: u8 = parts[1]
            .parse()
            .map_err(|_| ReportError::InvalidDate(t.to_owned()))?;
        let year = parse_year(parts[2])?;
        return Date::new(year, month, day);
    }
    Err(ReportError::InvalidDate(t.to_owned()))
}

fn parse_year(text: &str) -> Result<u16> {
    let y: u16 = text
        .trim()
        .parse()
        .map_err(|_| ReportError::InvalidDate(text.to_owned()))?;
    Ok(if y < 100 { 2000 + y } else { y })
}

/// Parses a manufacturer from a report header; tolerant of the
/// aliases seen in the dataset (`Google` for Waymo, `Benz`, `GM`).
///
/// # Errors
///
/// Returns [`ReportError::UnknownManufacturer`] for unknown names.
pub fn parse_manufacturer(text: &str) -> Result<Manufacturer> {
    let t = text.trim().to_ascii_lowercase();
    Ok(match t.as_str() {
        "mercedes-benz" | "mercedes benz" | "mercedes" | "benz" | "daimler" => {
            Manufacturer::MercedesBenz
        }
        "bosch" | "robert bosch" => Manufacturer::Bosch,
        "delphi" | "delphi automotive" | "aptiv" => Manufacturer::Delphi,
        "gmcruise" | "gm cruise" | "cruise" | "gm" | "general motors" => Manufacturer::GmCruise,
        "nissan" => Manufacturer::Nissan,
        "tesla" | "tesla motors" => Manufacturer::Tesla,
        "volkswagen" | "vw" => Manufacturer::Volkswagen,
        "waymo" | "google" | "waymo (google)" => Manufacturer::Waymo,
        "uber" | "uber atc" => Manufacturer::Uber,
        "honda" => Manufacturer::Honda,
        "ford" => Manufacturer::Ford,
        "bmw" => Manufacturer::Bmw,
        _ => return Err(ReportError::UnknownManufacturer(text.to_owned())),
    })
}

/// Parses a road-type token (tolerant of the variants in the logs).
///
/// # Errors
///
/// Returns [`ReportError::InvalidField`] for unknown tokens.
pub fn parse_road_type(text: &str) -> Result<RoadType> {
    let t = text.trim().to_ascii_lowercase();
    Ok(match t.as_str() {
        "street" | "city" | "urban" | "city street" | "city and highway" => RoadType::Street,
        "highway" => RoadType::Highway,
        "interstate" => RoadType::Interstate,
        "freeway" => RoadType::Freeway,
        "parking lot" | "parking" => RoadType::ParkingLot,
        "suburban" => RoadType::Suburban,
        "rural" => RoadType::Rural,
        _ => {
            return Err(ReportError::InvalidField {
                field: "road_type",
                value: text.to_owned(),
            })
        }
    })
}

/// Parses a weather token.
///
/// # Errors
///
/// Returns [`ReportError::InvalidField`] for unknown tokens.
pub fn parse_weather(text: &str) -> Result<Weather> {
    let t = text.trim().to_ascii_lowercase();
    Ok(match t.as_str() {
        "clear" | "sunny" | "dry" | "sunny/dry" | "clear/dry" => Weather::Clear,
        "rain" | "raining" | "wet" | "raining/wet" => Weather::Rain,
        "overcast" | "cloudy" => Weather::Overcast,
        "fog" | "foggy" => Weather::Fog,
        _ => {
            return Err(ReportError::InvalidField {
                field: "weather",
                value: text.to_owned(),
            })
        }
    })
}

/// Parses a modality token.
///
/// # Errors
///
/// Returns [`ReportError::InvalidField`] for unknown tokens.
pub fn parse_modality(text: &str) -> Result<Modality> {
    let t = text.trim().to_ascii_lowercase();
    Ok(match t.as_str() {
        "automatic" | "auto" | "av initiated" | "takeover-request" => Modality::Automatic,
        "manual" | "driver" | "driver initiated" | "safe operation" => Modality::Manual,
        "planned" | "planned test" | "test" => Modality::Planned,
        _ => {
            return Err(ReportError::InvalidField {
                field: "modality",
                value: text.to_owned(),
            })
        }
    })
}

// ---- documents (corpus::rawdoc) ----

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
        text.push_str(&format.render(r));
        text.push('\n');
    }
    if !mileage.is_empty() {
        text.push_str(&render_mileage_table(mileage));
    }
    RawDocument::new(manufacturer, year, DocumentKind::Disengagements, text)
}

/// Renders one accident record as an OL 316-style filing.
pub fn render_accident_document(record: &AccidentRecord) -> RawDocument {
    RawDocument::new(
        record.manufacturer,
        record.report_year(),
        DocumentKind::Accident,
        render_accident_form(record),
    )
}

// ---- normalization (normalize) ----

/// [`normalize_document`] with Stage II telemetry and lineage.
///
/// With `obs` set it records attempted/parsed/failed line counters,
/// total and per-manufacturer (the within-stage identity
/// `parse.dis.lines == parse.dis.parsed + parse.dis.failed` holds by
/// construction — each attempted line lands in exactly one bucket).
/// Attempted and parsed lines are tallied locally and recorded in one
/// batch per document; each failed line records as it happens, since
/// `parse.dis.failed*` deltas are flight-recorder events.
/// It also assigns every recovered disengagement a stable
/// [`disengage_obs::RecordId`] (manufacturer, filing year, car, per-car
/// ordinal within this document) and, when `obs` records lineage,
/// records `normalized`/`quarantined` events — `normalized` on the
/// record's subject (carrying `doc_index` and the 1-based source line
/// so a record's lineage joins to its line's OCR/chaos events),
/// `quarantined` on the offending line (or the document, for
/// whole-document accident/mileage failures).
///
/// The returned ids are aligned index-for-index with
/// `Normalized::disengagements` and are computed whether or not
/// lineage is recorded, so callers can thread them to Stage III
/// unconditionally.
pub fn normalize_document_traced(
    doc: &RawDocument,
    doc_index: usize,
    obs: Option<&disengage_obs::Collector>,
) -> (Normalized, Vec<disengage_obs::RecordId>) {
    use disengage_obs::{ProvenanceEvent, Subject};
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
            // Per-manufacturer counter names, built once per document.
            let names = obs.map(|_| {
                let m = disengage_obs::key_segment(doc.manufacturer.name());
                [
                    format!("parse.dis.parsed.{m}"),
                    format!("parse.dis.failed.{m}"),
                ]
            });
            let failed = || {
                if let (Some(obs), Some([_, failed_m])) = (obs, &names) {
                    obs.incr("parse.dis.failed");
                    obs.incr(failed_m);
                }
            };
            let (mut lines, mut parsed) = (0u64, 0u64);
            // Per-car ordinal within this document: the corpus emits one
            // disengagement document per (manufacturer, filing year), so
            // (manufacturer, year, car, ordinal) identifies the record.
            let mut car_seq: std::collections::BTreeMap<String, u32> =
                std::collections::BTreeMap::new();
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
                                let car = record.car.to_string();
                                let seq = car_seq.entry(car.clone()).or_insert(0);
                                let id = record_id(
                                    doc.manufacturer.name(),
                                    doc.report_year.filing_year(),
                                    &car,
                                    *seq,
                                );
                                *seq += 1;
                                if let Some(obs) = lineage {
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
                                }
                                ids.push(id);
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

/// `RecordId::new`: the manufacturer through `key_segment`, the car label
/// kept to `[a-z0-9-]` and lowercased.
fn record_id(manufacturer: &str, year: u16, car: &str, seq: u32) -> disengage_obs::RecordId {
    let car: String = car
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .map(|c| c.to_ascii_lowercase())
        .collect();
    disengage_obs::RecordId {
        manufacturer: disengage_obs::key_segment(manufacturer),
        year,
        car,
        seq,
    }
}
