//! Domain vocabulary: manufacturers, road types, weather, disengagement
//! modality, and report years.

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
        let t = text.trim().to_ascii_lowercase();
        Ok(match t.as_str() {
            "mercedes-benz" | "mercedes benz" | "mercedes" | "benz" | "daimler" => {
                Manufacturer::MercedesBenz
            }
            "bosch" | "robert bosch" => Manufacturer::Bosch,
            "delphi" | "delphi automotive" | "aptiv" => Manufacturer::Delphi,
            "gmcruise" | "gm cruise" | "cruise" | "gm" | "general motors" => {
                Manufacturer::GmCruise
            }
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

    /// Parses a road-type token (tolerant of the variants in the logs).
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::InvalidField`] for unknown tokens.
    pub fn parse(text: &str) -> Result<RoadType> {
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
    pub const ALL: [Weather; 4] = [Weather::Clear, Weather::Rain, Weather::Overcast, Weather::Fog];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Weather::Clear => "clear",
            Weather::Rain => "rain",
            Weather::Overcast => "overcast",
            Weather::Fog => "fog",
        }
    }

    /// Parses a weather token.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::InvalidField`] for unknown tokens.
    pub fn parse(text: &str) -> Result<Weather> {
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
        assert_eq!(RoadType::parse("Urban").unwrap(), RoadType::Street);
        assert_eq!(
            RoadType::parse("city and highway").unwrap(),
            RoadType::Street
        );
        assert_eq!(RoadType::parse("FREEWAY").unwrap(), RoadType::Freeway);
        assert!(RoadType::parse("moon").is_err());
    }

    #[test]
    fn weather_parsing() {
        assert_eq!(Weather::parse("Sunny/Dry").unwrap(), Weather::Clear);
        assert_eq!(Weather::parse("raining").unwrap(), Weather::Rain);
        assert!(Weather::parse("hail").is_err());
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
