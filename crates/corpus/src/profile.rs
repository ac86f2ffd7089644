//! Calibration profiles: every aggregate the paper publishes, encoded.

use disengage_reports::{Manufacturer, ReportYear};

/// Mix of failure categories for a manufacturer's disengagements
/// (fractions; Table IV, with plausible values for the manufacturers the
/// table omits, chosen to preserve the paper's global 64% ML share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryMix {
    /// Perception/recognition-side ML faults (includes environment
    /// surprises, per the paper's footnote 5).
    pub perception: f64,
    /// Planner/controller-side ML faults.
    pub planner: f64,
    /// Computing-system faults (hardware + software).
    pub system: f64,
    /// Unclassifiable.
    pub unknown: f64,
}

/// Mix of disengagement modalities (fractions; Table V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModalityMix {
    /// System-initiated.
    pub automatic: f64,
    /// Driver-initiated.
    pub manual: f64,
    /// Planned test campaigns.
    pub planned: f64,
}

/// Weibull parameters for a manufacturer's driver reaction times
/// (Figs. 10 and 11), or `None` when the manufacturer reports no
/// reaction times (planned-test filers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactionProfile {
    /// Weibull shape.
    pub shape: f64,
    /// Weibull scale (seconds).
    pub scale: f64,
}

/// One manufacturer's activity within one DMV release window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YearProfile {
    /// Which release.
    pub year: ReportYear,
    /// Fleet size (cars active in the window).
    pub cars: u32,
    /// Total autonomous miles (Table I).
    pub miles: f64,
    /// Total disengagements (Table I).
    pub disengagements: u64,
    /// Total accidents (Table I / Table VI).
    pub accidents: u64,
}

/// Full calibration profile for one manufacturer.
#[derive(Debug, Clone, PartialEq)]
pub struct ManufacturerProfile {
    /// The manufacturer.
    pub manufacturer: Manufacturer,
    /// Per-release activity (0, 1, or 2 entries).
    pub years: Vec<YearProfile>,
    /// Failure-category mix (Table IV).
    pub categories: CategoryMix,
    /// Modality mix (Table V).
    pub modalities: ModalityMix,
    /// Reaction-time distribution, when reported (Figs. 10–11).
    pub reactions: Option<ReactionProfile>,
    /// Per-car mileage skew: 1.0 = mild dispersion; higher values
    /// concentrate miles on a few workhorse cars.
    pub car_skew: f64,
    /// Exponent linking a cell's miles to its disengagement weight
    /// (1.0 = proportional; below 1 = burn-in behavior where low-mileage
    /// cars disengage relatively more).
    pub dis_miles_exponent: f64,
}

/// The complete calibration: one profile per manufacturer, matching
/// Table I cell-for-cell (dashes are zeros, with fleet sizes chosen for
/// the manufacturers whose counts the filings omit).
pub fn standard_profiles() -> Vec<ManufacturerProfile> {
    use Manufacturer::*;
    let y = |year, cars, miles, dis, acc| YearProfile {
        year,
        cars,
        miles,
        disengagements: dis,
        accidents: acc,
    };
    vec![
        ManufacturerProfile {
            manufacturer: MercedesBenz,
            years: vec![
                y(ReportYear::R2015, 2, 1739.08, 1024, 0),
                y(ReportYear::R2016, 2, 673.41, 336, 0),
            ],
            categories: CategoryMix {
                perception: 0.45,
                planner: 0.20,
                system: 0.35,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.4711,
                manual: 0.5289,
                planned: 0.0,
            },
            reactions: Some(ReactionProfile {
                shape: 0.75,
                scale: 0.65,
            }),
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Bosch,
            years: vec![
                y(ReportYear::R2015, 2, 935.1, 625, 0),
                y(ReportYear::R2016, 3, 983.0, 1442, 0),
            ],
            categories: CategoryMix {
                perception: 0.40,
                planner: 0.25,
                system: 0.35,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.0,
                manual: 0.0,
                planned: 1.0,
            },
            reactions: None,
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Delphi,
            years: vec![
                y(ReportYear::R2015, 2, 16661.0, 405, 1),
                y(ReportYear::R2016, 2, 3090.0, 167, 0),
            ],
            categories: CategoryMix {
                perception: 0.5017,
                planner: 0.3759,
                system: 0.1224,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.5,
                manual: 0.5,
                planned: 0.0,
            },
            reactions: Some(ReactionProfile {
                shape: 1.4,
                scale: 0.95,
            }),
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: GmCruise,
            years: vec![
                y(ReportYear::R2015, 8, 285.4, 135, 0),
                y(ReportYear::R2016, 25, 9729.8, 149, 14),
            ],
            categories: CategoryMix {
                perception: 0.45,
                planner: 0.18,
                system: 0.35,
                unknown: 0.02,
            },
            modalities: ModalityMix {
                automatic: 0.0,
                manual: 0.0,
                planned: 1.0,
            },
            reactions: None,
            // GM Cruise's filings show extreme per-car concentration: a
            // few workhorse cars drove most of the 9,730 Y2 miles while
            // shakedown cars logged many disengagements over few miles.
            // This is what pushes its median per-car DPM (0.177 in Table
            // VII) far above its aggregate DPM (~0.015).
            car_skew: 14.0,
            dis_miles_exponent: 0.15,
        },
        ManufacturerProfile {
            manufacturer: Nissan,
            years: vec![
                y(ReportYear::R2015, 4, 1485.4, 106, 0),
                y(ReportYear::R2016, 3, 4099.0, 29, 1),
            ],
            categories: CategoryMix {
                perception: 0.4963,
                planner: 0.363,
                system: 0.1407,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.542,
                manual: 0.458,
                planned: 0.0,
            },
            reactions: Some(ReactionProfile {
                shape: 1.3,
                scale: 0.9,
            }),
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Tesla,
            years: vec![y(ReportYear::R2016, 5, 550.0, 182, 0)],
            categories: CategoryMix {
                perception: 0.0,
                planner: 0.0,
                system: 0.0165,
                unknown: 0.9835,
            },
            modalities: ModalityMix {
                automatic: 0.9835,
                manual: 0.0165,
                planned: 0.0,
            },
            reactions: Some(ReactionProfile {
                shape: 1.2,
                scale: 0.95,
            }),
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Volkswagen,
            years: vec![y(ReportYear::R2015, 2, 14946.11, 260, 0)],
            categories: CategoryMix {
                perception: 0.0308,
                planner: 0.0,
                system: 0.8308,
                unknown: 0.1384,
            },
            modalities: ModalityMix {
                automatic: 1.0,
                manual: 0.0,
                planned: 0.0,
            },
            reactions: Some(ReactionProfile {
                shape: 1.0,
                scale: 0.75,
            }),
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Waymo,
            years: vec![
                y(ReportYear::R2015, 49, 424_332.0, 341, 9),
                y(ReportYear::R2016, 70, 635_868.0, 123, 16),
            ],
            categories: CategoryMix {
                perception: 0.5345,
                planner: 0.1013,
                system: 0.3642,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.5032,
                manual: 0.4968,
                planned: 0.0,
            },
            reactions: Some(ReactionProfile {
                shape: 1.5,
                scale: 0.85,
            }),
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Uber,
            years: vec![y(ReportYear::R2016, 2, 0.0, 0, 1)],
            categories: CategoryMix {
                perception: 0.4,
                planner: 0.2,
                system: 0.4,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.5,
                manual: 0.5,
                planned: 0.0,
            },
            reactions: None,
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Honda,
            years: vec![y(ReportYear::R2016, 0, 0.0, 0, 0)],
            categories: CategoryMix {
                perception: 0.4,
                planner: 0.2,
                system: 0.4,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.5,
                manual: 0.5,
                planned: 0.0,
            },
            reactions: None,
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Ford,
            years: vec![y(ReportYear::R2016, 2, 590.0, 3, 0)],
            categories: CategoryMix {
                perception: 0.4,
                planner: 0.2,
                system: 0.4,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.5,
                manual: 0.5,
                planned: 0.0,
            },
            reactions: None,
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
        ManufacturerProfile {
            manufacturer: Bmw,
            years: vec![y(ReportYear::R2016, 1, 638.0, 1, 0)],
            categories: CategoryMix {
                perception: 0.4,
                planner: 0.2,
                system: 0.4,
                unknown: 0.0,
            },
            modalities: ModalityMix {
                automatic: 0.5,
                manual: 0.5,
                planned: 0.0,
            },
            reactions: None,
            car_skew: 1.0,
            dis_miles_exponent: 1.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_totals() {
        let years: Vec<YearProfile> = standard_profiles()
            .into_iter()
            .flat_map(|p| p.years)
            .collect();
        let miles: f64 = years.iter().map(|y| y.miles).sum();
        // 1,116,605 autonomous miles; 5,328 disengagements; 42 accidents.
        assert!((miles - 1_116_605.0).abs() < 1_000.0, "miles = {miles}");
        assert_eq!(years.iter().map(|y| y.disengagements).sum::<u64>(), 5328);
        assert_eq!(years.iter().map(|y| y.accidents).sum::<u64>(), 42);
    }

    #[test]
    fn table_one_spot_checks() {
        let p = standard_profiles();
        let waymo = p
            .iter()
            .find(|m| m.manufacturer == Manufacturer::Waymo)
            .unwrap();
        assert_eq!(waymo.years[0].disengagements, 341);
        assert_eq!(waymo.years[1].accidents, 16);
        assert_eq!(waymo.years[1].cars, 70);
        let bosch = p
            .iter()
            .find(|m| m.manufacturer == Manufacturer::Bosch)
            .unwrap();
        assert_eq!(bosch.years[1].disengagements, 1442);
    }

    #[test]
    fn all_mixes_normalized() {
        for p in standard_profiles() {
            let c = p.categories;
            let categories = c.perception + c.planner + c.system + c.unknown;
            assert!(
                (categories - 1.0).abs() < 1e-6,
                "{}: category mix not normalized",
                p.manufacturer
            );
            let m = p.modalities;
            assert!(
                (m.automatic + m.manual + m.planned - 1.0).abs() < 1e-6,
                "{}: modality mix not normalized",
                p.manufacturer
            );
        }
    }

    #[test]
    fn planned_filers_have_no_reaction_times() {
        for p in standard_profiles() {
            if p.modalities.planned == 1.0 {
                assert!(p.reactions.is_none(), "{}", p.manufacturer);
            }
        }
    }

    #[test]
    fn accident_attribution_matches_table_six() {
        let p = standard_profiles();
        let acc = |m: Manufacturer| {
            let years = &p.iter().find(|x| x.manufacturer == m).unwrap().years;
            years.iter().map(|y| y.accidents).sum::<u64>()
        };
        assert_eq!(acc(Manufacturer::Waymo), 25);
        assert_eq!(acc(Manufacturer::GmCruise), 14);
        assert_eq!(acc(Manufacturer::Delphi), 1);
        assert_eq!(acc(Manufacturer::Nissan), 1);
        assert_eq!(acc(Manufacturer::Uber), 1);
    }

    #[test]
    fn global_ml_share_near_sixty_four_percent() {
        // Weighted by disengagement counts, ML (perception + planner)
        // should land near the paper's 64% (we accept 58–68%).
        let p = standard_profiles();
        let mut ml = 0.0;
        let mut total = 0.0;
        for m in &p {
            let n = m.years.iter().map(|y| y.disengagements).sum::<u64>() as f64;
            ml += n * (m.categories.perception + m.categories.planner);
            total += n;
        }
        let share = ml / total;
        assert!((0.58..=0.68).contains(&share), "ML share = {share}");
    }

    #[test]
    fn fleet_sizes_sum_near_144() {
        // Table I: 61 cars in Y1 and 83 in Y2 across reporting
        // manufacturers. Our profiles add plausible fleets for the
        // dash-cell manufacturers, so totals come out moderately higher.
        let p = standard_profiles();
        let y1: u32 = p
            .iter()
            .flat_map(|m| &m.years)
            .filter(|y| y.year == ReportYear::R2015)
            .map(|y| y.cars)
            .sum();
        let y2: u32 = p
            .iter()
            .flat_map(|m| &m.years)
            .filter(|y| y.year == ReportYear::R2016)
            .map(|y| y.cars)
            .sum();
        assert!((61..=75).contains(&y1), "y1 fleet = {y1}");
        assert!((83..=120).contains(&y2), "y2 fleet = {y2}");
    }
}
