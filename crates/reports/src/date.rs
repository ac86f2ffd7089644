//! A small validated calendar date with the parsing the DMV reports need.
//!
//! The dataset spans September 2014 – November 2016 and encodes dates in
//! at least three layouts: `M/D/YY` (Nissan), `Mon-YY` (Waymo, month
//! precision), and `MM/DD/YY` (Volkswagen). This module parses all three
//! and provides ordering, day arithmetic, and month indexing for the
//! time-series analyses (Figs. 5, 7, 9).

use crate::scan::fields;
use crate::{ReportError, Result};
use std::fmt;

/// A calendar date (year, month, day) with validation.
///
/// Month-precision report entries (e.g. Waymo's `May-16`) are represented
/// with `day = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: u16,
    month: u8,
    day: u8,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
const MONTH_ABBREV: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

fn is_leap(year: u16) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

fn days_in_month(year: u16, month: u8) -> u8 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

impl Date {
    /// Creates a validated date.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::InvalidDate`] for out-of-range components
    /// (including February 29 in non-leap years).
    ///
    /// # Examples
    ///
    /// ```
    /// # use disengage_reports::Date;
    /// let d = Date::new(2016, 2, 29).unwrap(); // 2016 is a leap year
    /// assert!(Date::new(2015, 2, 29).is_err());
    /// ```
    pub fn new(year: u16, month: u8, day: u8) -> Result<Date> {
        if !(1900..=2100).contains(&year) {
            return Err(ReportError::InvalidDate(format!("year {year}")));
        }
        if !(1..=12).contains(&month) {
            return Err(ReportError::InvalidDate(format!("month {month}")));
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(ReportError::InvalidDate(format!(
                "day {day} in {year}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// The first day of a month (used for month-precision report rows).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Date::new`].
    pub fn month_start(year: u16, month: u8) -> Result<Date> {
        Date::new(year, month, 1)
    }

    /// Year component.
    pub fn year(&self) -> u16 {
        self.year
    }

    /// Month component (1–12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// Day component (1–31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Months since January 2014 — the month index used for the paper's
    /// monthly mileage series.
    pub fn month_index(&self) -> i64 {
        (self.year as i64 - 2014) * 12 + self.month as i64 - 1
    }

    /// The date `months` months later, clamped to the target month's last
    /// day (e.g. Jan 31 + 1 month = Feb 28/29).
    pub fn add_months(&self, months: i64) -> Date {
        let total = self.year as i64 * 12 + (self.month as i64 - 1) + months;
        let year = (total / 12) as u16;
        let month = (total % 12 + 1) as u8;
        let day = self.day.min(days_in_month(year, month));
        Date { year, month, day }
    }

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
    pub fn parse(text: &str) -> Result<Date> {
        let t = text.trim();
        let invalid = || ReportError::InvalidDate(t.to_owned());
        if let Some((mon, yy)) = t.split_once('-') {
            // Mon-YY (e.g. May-16) or ISO YYYY-MM-DD.
            if let Some(m) = MONTH_ABBREV
                .iter()
                .position(|&a| a.eq_ignore_ascii_case(mon))
            {
                let year = parse_year(yy)?;
                return Date::month_start(year, (m + 1) as u8);
            }
            let ([year, month, day], n) = fields(t.split('-'));
            if n == 3 {
                let year: u16 = year.parse().map_err(|_| invalid())?;
                let month: u8 = month.parse().map_err(|_| invalid())?;
                let day: u8 = day.parse().map_err(|_| invalid())?;
                return Date::new(year, month, day);
            }
            return Err(invalid());
        }
        // M/D/YY layouts.
        let ([month, day, year], n) = fields(t.split('/'));
        if n == 3 {
            let month: u8 = month.parse().map_err(|_| invalid())?;
            let day: u8 = day.parse().map_err(|_| invalid())?;
            let year = parse_year(year)?;
            return Date::new(year, month, day);
        }
        Err(invalid())
    }
}

fn parse_year(text: &str) -> Result<u16> {
    let y: u16 = text
        .trim()
        .parse()
        .map_err(|_| ReportError::InvalidDate(text.to_owned()))?;
    Ok(if y < 100 { 2000 + y } else { y })
}

impl fmt::Display for Date {
    /// ISO `YYYY-MM-DD`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Date::new(2016, 1, 31).is_ok());
        assert!(Date::new(2016, 4, 31).is_err());
        assert!(Date::new(2016, 13, 1).is_err());
        assert!(Date::new(2016, 0, 1).is_err());
        assert!(Date::new(1800, 1, 1).is_err());
    }

    #[test]
    fn leap_years() {
        assert!(Date::new(2016, 2, 29).is_ok());
        assert!(Date::new(2015, 2, 29).is_err());
        assert!(Date::new(2000, 2, 29).is_ok()); // divisible by 400
        assert!(Date::new(1900, 2, 29).is_err()); // divisible by 100 only
    }

    #[test]
    fn ordering() {
        let a = Date::new(2015, 12, 31).unwrap();
        let b = Date::new(2016, 1, 1).unwrap();
        assert!(a < b);
    }

    #[test]
    fn month_index_since_2014() {
        assert_eq!(Date::new(2014, 1, 15).unwrap().month_index(), 0);
        assert_eq!(Date::new(2014, 9, 1).unwrap().month_index(), 8);
        assert_eq!(Date::new(2016, 11, 30).unwrap().month_index(), 34);
    }

    #[test]
    fn add_months_clamps_day() {
        let d = Date::new(2016, 1, 31).unwrap();
        assert_eq!(d.add_months(1), Date::new(2016, 2, 29).unwrap());
        assert_eq!(d.add_months(3), Date::new(2016, 4, 30).unwrap());
        assert_eq!(d.add_months(12), Date::new(2017, 1, 31).unwrap());
        assert_eq!(d.add_months(-1), Date::new(2015, 12, 31).unwrap());
    }

    #[test]
    fn parse_slash_formats() {
        assert_eq!(
            Date::parse("1/4/16").unwrap(),
            Date::new(2016, 1, 4).unwrap()
        );
        assert_eq!(
            Date::parse("11/12/14").unwrap(),
            Date::new(2014, 11, 12).unwrap()
        );
        assert_eq!(
            Date::parse("5/25/2016").unwrap(),
            Date::new(2016, 5, 25).unwrap()
        );
    }

    #[test]
    fn parse_month_abbrev() {
        assert_eq!(
            Date::parse("May-16").unwrap(),
            Date::new(2016, 5, 1).unwrap()
        );
        assert_eq!(
            Date::parse("sep-14").unwrap(),
            Date::new(2014, 9, 1).unwrap()
        );
    }

    #[test]
    fn parse_iso() {
        assert_eq!(
            Date::parse("2016-05-25").unwrap(),
            Date::new(2016, 5, 25).unwrap()
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Date::parse("yesterday").is_err());
        assert!(Date::parse("13/40/16").is_err());
        assert!(Date::parse("May16").is_err());
        assert!(Date::parse("").is_err());
    }

    #[test]
    fn display_iso() {
        assert_eq!(Date::new(2016, 5, 3).unwrap().to_string(), "2016-05-03");
    }

    #[test]
    fn display_parse_round_trip() {
        let d = Date::new(2015, 11, 9).unwrap();
        assert_eq!(Date::parse(&d.to_string()).unwrap(), d);
    }
}
