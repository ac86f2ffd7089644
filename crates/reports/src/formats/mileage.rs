//! The monthly autonomous-mileage table included with each disengagement
//! report ("monthly autonomous miles traveled", Section III-C).

use crate::date::Date;
use crate::record::{CarId, MonthlyMileage};
use crate::scan::{fields, lines};
use crate::types::Manufacturer;
use crate::{ReportError, Result};
use std::fmt::Write;

/// Appends a mileage table to `out`: one `car-N YYYY-MM miles` row per
/// entry, under a `MILEAGE` header.
pub fn render_mileage_table(rows: &[MonthlyMileage], out: &mut String) {
    out.push_str("MILEAGE\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{} {:04}-{:02} {:.1}",
            r.car,
            r.month.year(),
            r.month.month(),
            r.miles
        );
    }
}

/// Parses a mileage table rendered by [`render_mileage_table`].
///
/// # Errors
///
/// Returns [`ReportError::MalformedLine`] for rows that do not match,
/// and [`ReportError::InvalidField`] for negative mileage.
pub fn parse_mileage_table(manufacturer: Manufacturer, text: &str) -> Result<Vec<MonthlyMileage>> {
    let mut rows = Vec::new();
    for (i, line) in lines(text).enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line == "MILEAGE" {
            continue;
        }
        let ([car, month_text, miles_text], n) = fields(line.split_whitespace());
        if n != 3 {
            return Err(ReportError::MalformedLine {
                manufacturer: "mileage table",
                line: line_no,
                message: format!("expected 3 tokens, found {n}"),
            });
        }
        let car = if car == "[redacted]" {
            CarId::Redacted
        } else {
            car.strip_prefix("car-")
                .and_then(|n| n.parse::<u32>().ok())
                .map(CarId::Known)
                .ok_or_else(|| ReportError::MalformedLine {
                    manufacturer: "mileage table",
                    line: line_no,
                    message: "bad car token".to_owned(),
                })?
        };
        let (y, m) = month_text
            .split_once('-')
            .ok_or_else(|| ReportError::MalformedLine {
                manufacturer: "mileage table",
                line: line_no,
                message: "bad month token".to_owned(),
            })?;
        let year: u16 = y
            .parse()
            .map_err(|_| ReportError::InvalidDate(month_text.to_owned()))?;
        let month: u8 = m
            .parse()
            .map_err(|_| ReportError::InvalidDate(month_text.to_owned()))?;
        let miles: f64 = miles_text.parse().map_err(|_| ReportError::InvalidField {
            field: "miles",
            value: miles_text.to_owned(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<MonthlyMileage> {
        vec![
            MonthlyMileage {
                manufacturer: Manufacturer::Waymo,
                car: CarId::Known(0),
                month: Date::month_start(2016, 5).unwrap(),
                miles: 1034.2,
            },
            MonthlyMileage {
                manufacturer: Manufacturer::Waymo,
                car: CarId::Known(1),
                month: Date::month_start(2016, 6).unwrap(),
                miles: 0.0,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let mut text = String::new();
        render_mileage_table(&rows(), &mut text);
        let parsed = parse_mileage_table(Manufacturer::Waymo, &text).unwrap();
        assert_eq!(parsed, rows());
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "MILEAGE\n\ncar-0 2016-05 10.0\n\n";
        let parsed = parse_mileage_table(Manufacturer::Bosch, text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].manufacturer, Manufacturer::Bosch);
    }

    #[test]
    fn malformed_rows_rejected() {
        assert!(parse_mileage_table(Manufacturer::Waymo, "car-0 2016-05").is_err());
        assert!(parse_mileage_table(Manufacturer::Waymo, "bike-0 2016-05 1.0").is_err());
        assert!(parse_mileage_table(Manufacturer::Waymo, "car-0 201605 1.0").is_err());
        assert!(parse_mileage_table(Manufacturer::Waymo, "car-0 2016-13 1.0").is_err());
        assert!(parse_mileage_table(Manufacturer::Waymo, "car-0 2016-05 -3.0").is_err());
    }

    #[test]
    fn redacted_car_parses() {
        let parsed = parse_mileage_table(Manufacturer::Waymo, "[redacted] 2016-05 12.0").unwrap();
        assert_eq!(parsed[0].car, CarId::Redacted);
    }
}
