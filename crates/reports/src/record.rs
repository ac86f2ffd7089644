//! The uniform record schema everything is normalized into.

use crate::date::Date;
use crate::types::{Manufacturer, Modality, ReportYear, RoadType, Weather};
use crate::{ReportError, Result};

/// A vehicle identifier within a manufacturer's fleet.
///
/// Accident reports are sometimes redacted by the DMV (VIN removed), which
/// the paper calls out as the reason APM cannot always be computed per
/// vehicle; [`CarId::Redacted`] models that.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CarId {
    /// A known fleet index (0-based within the manufacturer).
    Known(u32),
    /// The DMV redacted the identifier.
    Redacted,
}

impl CarId {
    /// The fleet index, if not redacted.
    pub fn index(&self) -> Option<u32> {
        match self {
            CarId::Known(i) => Some(*i),
            CarId::Redacted => None,
        }
    }
}

impl std::fmt::Display for CarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CarId::Known(i) => write!(f, "car-{i}"),
            CarId::Redacted => f.write_str("[redacted]"),
        }
    }
}

/// One disengagement event in the uniform schema.
#[derive(Debug, Clone, PartialEq)]
pub struct DisengagementRecord {
    /// Reporting manufacturer.
    pub manufacturer: Manufacturer,
    /// Vehicle involved.
    pub car: CarId,
    /// Date of the event (month precision for some manufacturers).
    pub date: Date,
    /// How the disengagement was initiated.
    pub modality: Modality,
    /// Road type, when reported.
    pub road_type: Option<RoadType>,
    /// Weather, when reported.
    pub weather: Option<Weather>,
    /// Driver reaction time in seconds, when reported.
    pub reaction_time_s: Option<f64>,
    /// The free-text cause description (input to the Stage III NLP).
    pub description: String,
}

impl DisengagementRecord {
    /// Validates cross-field invariants (non-negative reaction time,
    /// non-empty description).
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::InvalidField`] on violation.
    pub fn validate(&self) -> Result<()> {
        if let Some(rt) = self.reaction_time_s {
            if !rt.is_finite() || rt < 0.0 {
                return Err(ReportError::InvalidField {
                    field: "reaction_time_s",
                    value: rt.to_string(),
                });
            }
        }
        if self.description.trim().is_empty() {
            return Err(ReportError::InvalidField {
                field: "description",
                value: String::new(),
            });
        }
        Ok(())
    }

    /// The DMV release this record was filed in.
    pub fn report_year(&self) -> ReportYear {
        ReportYear::containing(&self.date)
    }
}

/// Damage severity recorded in accident reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Cosmetic or no damage.
    Minor,
    /// Vehicle damaged but drivable.
    Moderate,
    /// Vehicle disabled or injuries reported.
    Major,
}

impl Severity {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Minor => "minor",
            Severity::Moderate => "moderate",
            Severity::Major => "major",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The collision geometry reported for an accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollisionKind {
    /// Struck from behind (the dominant mode in the dataset).
    RearEnd,
    /// Side-swipe.
    SideSwipe,
    /// Head-on or angled frontal.
    Frontal,
    /// Collision with a fixed object or property.
    Object,
}

impl CollisionKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CollisionKind::RearEnd => "rear-end",
            CollisionKind::SideSwipe => "side-swipe",
            CollisionKind::Frontal => "frontal",
            CollisionKind::Object => "object",
        }
    }
}

impl std::fmt::Display for CollisionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One accident (OL 316) report in the uniform schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AccidentRecord {
    /// Reporting manufacturer.
    pub manufacturer: Manufacturer,
    /// Vehicle involved (often redacted).
    pub car: CarId,
    /// Date of the collision.
    pub date: Date,
    /// Free-text location ("intersection of X and Y, Mountain View CA").
    pub location: String,
    /// Speed of the AV at collision, mph, when reported.
    pub av_speed_mph: Option<f64>,
    /// Speed of the other (manual) vehicle, mph, when reported.
    pub other_speed_mph: Option<f64>,
    /// Whether the AV was in autonomous mode at the moment of collision.
    pub autonomous_at_impact: bool,
    /// Collision geometry.
    pub kind: CollisionKind,
    /// Damage severity.
    pub severity: Severity,
    /// Free-text narrative of the incident.
    pub description: String,
}

impl AccidentRecord {
    /// Relative speed of the colliding vehicles (|AV − other|), when both
    /// are reported — the x-axis of Fig. 12c.
    pub fn relative_speed_mph(&self) -> Option<f64> {
        match (self.av_speed_mph, self.other_speed_mph) {
            (Some(a), Some(b)) => Some((a - b).abs()),
            _ => None,
        }
    }

    /// The DMV release this record was filed in.
    pub fn report_year(&self) -> ReportYear {
        ReportYear::containing(&self.date)
    }
}

/// Autonomous miles driven by one car in one calendar month — the
/// granularity of the DMV mileage tables.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyMileage {
    /// Reporting manufacturer.
    pub manufacturer: Manufacturer,
    /// Vehicle.
    pub car: CarId,
    /// First day of the month covered.
    pub month: Date,
    /// Autonomous miles driven that month.
    pub miles: f64,
}

impl MonthlyMileage {
    /// Validates the mileage value.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::InvalidField`] for negative or non-finite
    /// miles.
    pub fn validate(&self) -> Result<()> {
        if !self.miles.is_finite() || self.miles < 0.0 {
            return Err(ReportError::InvalidField {
                field: "miles",
                value: self.miles.to_string(),
            });
        }
        Ok(())
    }

    /// The DMV release this row was filed in.
    pub fn report_year(&self) -> ReportYear {
        ReportYear::containing(&self.month)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disengagement() -> DisengagementRecord {
        DisengagementRecord {
            manufacturer: Manufacturer::Nissan,
            car: CarId::Known(0),
            date: Date::new(2016, 1, 4).unwrap(),
            modality: Modality::Manual,
            road_type: Some(RoadType::Street),
            weather: Some(Weather::Clear),
            reaction_time_s: Some(0.9),
            description: "software module froze".to_owned(),
        }
    }

    #[test]
    fn disengagement_validates() {
        assert!(disengagement().validate().is_ok());
        let mut bad = disengagement();
        bad.reaction_time_s = Some(-1.0);
        assert!(bad.validate().is_err());
        let mut empty = disengagement();
        empty.description = "  ".to_owned();
        assert!(empty.validate().is_err());
    }

    #[test]
    fn report_year_derived_from_date() {
        assert_eq!(disengagement().report_year(), ReportYear::R2016);
        let mut early = disengagement();
        early.date = Date::new(2015, 3, 1).unwrap();
        assert_eq!(early.report_year(), ReportYear::R2015);
    }

    fn accident() -> AccidentRecord {
        AccidentRecord {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Redacted,
            date: Date::new(2016, 5, 10).unwrap(),
            location: "El Camino Real & Clark Ave, Mountain View CA".to_owned(),
            av_speed_mph: Some(4.0),
            other_speed_mph: Some(10.0),
            autonomous_at_impact: true,
            kind: CollisionKind::RearEnd,
            severity: Severity::Minor,
            description: "rear vehicle collided while AV yielded to pedestrian".to_owned(),
        }
    }

    #[test]
    fn relative_speed() {
        assert_eq!(accident().relative_speed_mph(), Some(6.0));
        let mut a = accident();
        a.other_speed_mph = None;
        assert_eq!(a.relative_speed_mph(), None);
    }

    #[test]
    fn car_id_display_and_index() {
        assert_eq!(CarId::Known(3).to_string(), "car-3");
        assert_eq!(CarId::Redacted.to_string(), "[redacted]");
        assert_eq!(CarId::Known(3).index(), Some(3));
        assert_eq!(CarId::Redacted.index(), None);
    }

    #[test]
    fn mileage_validation() {
        let m = MonthlyMileage {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Known(1),
            month: Date::month_start(2016, 5).unwrap(),
            miles: 1200.0,
        };
        assert!(m.validate().is_ok());
        let mut bad = m.clone();
        bad.miles = -1.0;
        assert!(bad.validate().is_err());
        assert_eq!(m.report_year(), ReportYear::R2016);
    }
}
