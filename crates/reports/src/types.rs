//! Domain vocabulary: manufacturers, road types, weather, disengagement
//! modality, and report years.

use crate::scan::lowercase;
use crate::{ReportError, Result};
use std::fmt;

/// The twelve AV manufacturers in the CA DMV dataset (Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Manufacturer {
    /// Mercedes-Benz.
    MercedesBenz,
    /// Robert Bosch.
    Bosch,
    /// Delphi Automotive.
    Delphi,
    /// GM Cruise.
    GmCruise,
    /// Nissan.
    Nissan,
    /// Tesla Motors.
    Tesla,
    /// Volkswagen.
    Volkswagen,
    /// Waymo (Google).
    Waymo,
    /// Uber ATC.
    Uber,
    /// Honda.
    Honda,
    /// Ford.
    Ford,
    /// BMW.
    Bmw,
}

impl Manufacturer {
    /// All manufacturers in the dataset.
    pub const ALL: [Manufacturer; 12] = [
        Manufacturer::MercedesBenz,
        Manufacturer::Bosch,
        Manufacturer::Delphi,
        Manufacturer::GmCruise,
        Manufacturer::Nissan,
        Manufacturer::Tesla,
        Manufacturer::Volkswagen,
        Manufacturer::Waymo,
        Manufacturer::Uber,
        Manufacturer::Honda,
        Manufacturer::Ford,
        Manufacturer::Bmw,
    ];

    /// The eight manufacturers the paper's statistical analysis keeps
    /// (Uber, BMW, Ford, and Honda reported too few disengagements).
    pub const ANALYZED: [Manufacturer; 8] = [
        Manufacturer::MercedesBenz,
        Manufacturer::Bosch,
        Manufacturer::Delphi,
        Manufacturer::GmCruise,
        Manufacturer::Nissan,
        Manufacturer::Tesla,
        Manufacturer::Volkswagen,
        Manufacturer::Waymo,
    ];

    /// Canonical display name (as used in the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            Manufacturer::MercedesBenz => "Mercedes-Benz",
            Manufacturer::Bosch => "Bosch",
            Manufacturer::Delphi => "Delphi",
            Manufacturer::GmCruise => "GMCruise",
            Manufacturer::Nissan => "Nissan",
            Manufacturer::Tesla => "Tesla",
            Manufacturer::Volkswagen => "Volkswagen",
            Manufacturer::Waymo => "Waymo",
            Manufacturer::Uber => "Uber ATC",
            Manufacturer::Honda => "Honda",
            Manufacturer::Ford => "Ford",
            Manufacturer::Bmw => "BMW",
        }
    }

    /// Parses a manufacturer from a report header; tolerant of the
    /// aliases seen in the dataset (`Google` for Waymo, `Benz`, `GM`).
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::UnknownManufacturer`] for unknown names.
    pub fn parse(text: &str) -> Result<Manufacturer> {
        Ok(match lowercase(text, &mut [0; 24]) {
            Some(b"mercedes-benz" | b"mercedes benz" | b"mercedes" | b"benz" | b"daimler") => {
                Manufacturer::MercedesBenz
            }
            Some(b"bosch" | b"robert bosch") => Manufacturer::Bosch,
            Some(b"delphi" | b"delphi automotive" | b"aptiv") => Manufacturer::Delphi,
            Some(b"gmcruise" | b"gm cruise" | b"cruise" | b"gm" | b"general motors") => {
                Manufacturer::GmCruise
            }
            Some(b"nissan") => Manufacturer::Nissan,
            Some(b"tesla" | b"tesla motors") => Manufacturer::Tesla,
            Some(b"volkswagen" | b"vw") => Manufacturer::Volkswagen,
            Some(b"waymo" | b"google" | b"waymo (google)") => Manufacturer::Waymo,
            Some(b"uber" | b"uber atc") => Manufacturer::Uber,
            Some(b"honda") => Manufacturer::Honda,
            Some(b"ford") => Manufacturer::Ford,
            Some(b"bmw") => Manufacturer::Bmw,
            _ => return Err(ReportError::UnknownManufacturer(text.to_owned())),
        })
    }
}

impl fmt::Display for Manufacturer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The road types reported in the dataset (Section III-C: "9 distinct
/// road types", aggregated here into the categories the paper quotes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RoadType {
    /// Urban / city street.
    Street,
    /// Highway.
    Highway,
    /// Interstate.
    Interstate,
    /// Freeway.
    Freeway,
    /// Parking lot.
    ParkingLot,
    /// Suburban road.
    Suburban,
    /// Rural road.
    Rural,
}

impl RoadType {
    /// All road types.
    pub const ALL: [RoadType; 7] = [
        RoadType::Street,
        RoadType::Highway,
        RoadType::Interstate,
        RoadType::Freeway,
        RoadType::ParkingLot,
        RoadType::Suburban,
        RoadType::Rural,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RoadType::Street => "street",
            RoadType::Highway => "highway",
            RoadType::Interstate => "interstate",
            RoadType::Freeway => "freeway",
            RoadType::ParkingLot => "parking lot",
            RoadType::Suburban => "suburban",
            RoadType::Rural => "rural",
        }
    }

    /// Parses a road-type token (tolerant of the variants in the logs),
    /// or `None` for an unknown one: every layout treats an unreadable
    /// road type as an unreported one.
    pub fn parse(text: &str) -> Option<RoadType> {
        Some(match lowercase(text, &mut [0; 24])? {
            b"street" | b"city" | b"urban" | b"city street" | b"city and highway" => {
                RoadType::Street
            }
            b"highway" => RoadType::Highway,
            b"interstate" => RoadType::Interstate,
            b"freeway" => RoadType::Freeway,
            b"parking lot" | b"parking" => RoadType::ParkingLot,
            b"suburban" => RoadType::Suburban,
            b"rural" => RoadType::Rural,
            _ => return None,
        })
    }
}

impl fmt::Display for RoadType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Weather conditions reported with some disengagements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Weather {
    /// Clear / sunny / dry.
    Clear,
    /// Raining or wet pavement.
    Rain,
    /// Overcast.
    Overcast,
    /// Fog.
    Fog,
}

impl Weather {
    /// All weather conditions.
    pub const ALL: [Weather; 4] = [
        Weather::Clear,
        Weather::Rain,
        Weather::Overcast,
        Weather::Fog,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Weather::Clear => "clear",
            Weather::Rain => "rain",
            Weather::Overcast => "overcast",
            Weather::Fog => "fog",
        }
    }

    /// Parses a weather token, or `None` for an unknown one: every
    /// layout treats unreadable weather as unreported.
    pub fn parse(text: &str) -> Option<Weather> {
        Some(match lowercase(text, &mut [0; 24])? {
            b"clear" | b"sunny" | b"dry" | b"sunny/dry" | b"clear/dry" => Weather::Clear,
            b"rain" | b"raining" | b"wet" | b"raining/wet" => Weather::Rain,
            b"overcast" | b"cloudy" => Weather::Overcast,
            b"fog" | b"foggy" => Weather::Fog,
            _ => return None,
        })
    }
}

impl fmt::Display for Weather {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a disengagement was initiated (Table V of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Modality {
    /// The ADS handed control back automatically.
    Automatic,
    /// The safety driver took control manually.
    Manual,
    /// Part of a planned test / fault-injection campaign (Bosch and GM
    /// Cruise report all disengagements this way).
    Planned,
}

impl Modality {
    /// All modalities.
    pub const ALL: [Modality; 3] = [Modality::Automatic, Modality::Manual, Modality::Planned];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Modality::Automatic => "automatic",
            Modality::Manual => "manual",
            Modality::Planned => "planned",
        }
    }

    /// Parses a modality token.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::InvalidField`] for unknown tokens.
    pub fn parse(text: &str) -> Result<Modality> {
        Ok(match lowercase(text, &mut [0; 24]) {
            Some(b"automatic" | b"auto" | b"av initiated" | b"takeover-request") => {
                Modality::Automatic
            }
            Some(b"manual" | b"driver" | b"driver initiated" | b"safe operation") => {
                Modality::Manual
            }
            Some(b"planned" | b"planned test" | b"test") => Modality::Planned,
            _ => {
                return Err(ReportError::InvalidField {
                    field: "modality",
                    value: text.to_owned(),
                })
            }
        })
    }
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which annual DMV release a report belongs to (Table I's two column
/// groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReportYear {
    /// The 2016 release covering December 2014 – November 2015 testing
    /// (the paper's "2015–2016 Report" columns).
    R2015,
    /// The 2017 release covering December 2015 – November 2016 testing
    /// (the paper's "2016–2017 Report" columns).
    R2016,
}

impl ReportYear {
    /// Both report years.
    pub const ALL: [ReportYear; 2] = [ReportYear::R2015, ReportYear::R2016];

    /// The numeric year the reporting window closes in (the year the
    /// release is named after) — the `year` segment of a provenance
    /// record id.
    pub fn filing_year(self) -> u16 {
        match self {
            ReportYear::R2015 => 2015,
            ReportYear::R2016 => 2016,
        }
    }

    /// The report year containing a given date, by the DMV's December–
    /// November reporting window. Dates before December 2014 fall in the
    /// first window (the program ramped up in September 2014).
    pub fn containing(date: &crate::Date) -> ReportYear {
        // Window boundary: December 1, 2015.
        if date.year() > 2015 || (date.year() == 2015 && date.month() == 12) {
            ReportYear::R2016
        } else {
            ReportYear::R2015
        }
    }
}

/// The label of the paper's Table I headers.
impl fmt::Display for ReportYear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReportYear::R2015 => "2015-2016 Report",
            ReportYear::R2016 => "2016-2017 Report",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Date;

    #[test]
    fn manufacturer_aliases() {
        assert_eq!(Manufacturer::parse("Google").unwrap(), Manufacturer::Waymo);
        assert_eq!(
            Manufacturer::parse("benz").unwrap(),
            Manufacturer::MercedesBenz
        );
        assert_eq!(
            Manufacturer::parse("GM Cruise").unwrap(),
            Manufacturer::GmCruise
        );
        assert!(Manufacturer::parse("toyota").is_err());
    }

    #[test]
    fn manufacturer_name_round_trip() {
        for m in Manufacturer::ALL {
            assert_eq!(Manufacturer::parse(m.name()).unwrap(), m, "{m}");
        }
    }

    #[test]
    fn analyzed_subset() {
        assert_eq!(Manufacturer::ANALYZED.len(), 8);
        assert!(!Manufacturer::ANALYZED.contains(&Manufacturer::Uber));
        assert!(Manufacturer::ANALYZED.contains(&Manufacturer::Waymo));
    }

    #[test]
    fn road_type_parsing() {
        assert_eq!(RoadType::parse("Urban"), Some(RoadType::Street));
        assert_eq!(RoadType::parse("city and highway"), Some(RoadType::Street));
        assert_eq!(RoadType::parse(" FREEWAY "), Some(RoadType::Freeway));
        assert_eq!(RoadType::parse("moon"), None);
        assert_eq!(RoadType::parse("-"), None);
    }

    #[test]
    fn weather_parsing() {
        assert_eq!(Weather::parse("Sunny/Dry"), Some(Weather::Clear));
        assert_eq!(Weather::parse("raining"), Some(Weather::Rain));
        assert_eq!(Weather::parse("hail"), None);
    }

    #[test]
    fn modality_parsing() {
        assert_eq!(
            Modality::parse("Takeover-Request").unwrap(),
            Modality::Automatic
        );
        assert_eq!(Modality::parse("Safe Operation").unwrap(), Modality::Manual);
        assert_eq!(Modality::parse("planned test").unwrap(), Modality::Planned);
        assert!(Modality::parse("psychic").is_err());
    }

    #[test]
    fn report_year_windows() {
        let d = Date::new(2015, 11, 30).unwrap();
        assert_eq!(ReportYear::containing(&d), ReportYear::R2015);
        let d = Date::new(2015, 12, 1).unwrap();
        assert_eq!(ReportYear::containing(&d), ReportYear::R2016);
        let d = Date::new(2014, 9, 15).unwrap();
        assert_eq!(ReportYear::containing(&d), ReportYear::R2015);
        let d = Date::new(2016, 11, 1).unwrap();
        assert_eq!(ReportYear::containing(&d), ReportYear::R2016);
    }

    #[test]
    fn displays() {
        assert_eq!(Manufacturer::Waymo.to_string(), "Waymo");
        assert_eq!(RoadType::ParkingLot.to_string(), "parking lot");
        assert_eq!(Modality::Automatic.to_string(), "automatic");
        assert_eq!(ReportYear::R2015.to_string(), "2015-2016 Report");
    }
}
