//! Fleet reliability study: per-manufacturer disengagement rates, their
//! trend with cumulative testing, and a what-if with a custom fleet.
//!
//! ```text
//! cargo run --release --example fleet_reliability
//! ```

use disengage::core::{figures, metrics, RunConfig, RunSession};
use disengage::corpus::profile::{CategoryMix, ModalityMix, YearProfile};
use disengage::corpus::{CorpusConfig, CorpusGenerator, ManufacturerProfile};
use disengage::reports::{Manufacturer, ReportYear};
use disengage::stats::boxplot::box_stats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outcome = RunSession::new(RunConfig::new()).run()?;
    let db = &outcome.database;

    println!("== per-manufacturer disengagement rates ==");
    for &m in db.manufacturers() {
        let Ok(dpm) = metrics::dpm(db, m) else {
            continue;
        };
        let per_car = metrics::per_car_dpm(db, m);
        if per_car.is_empty() {
            continue;
        }
        let b = box_stats(&per_car)?;
        println!(
            "{:<16} fleet DPM {:.5}  per-car median {:.5}  IQR [{:.5}, {:.5}]",
            m.name(),
            dpm,
            b.median,
            b.q1,
            b.q3
        );
    }

    println!("\n== improvement with testing (Fig. 9 fits) ==");
    for series in figures::fig9(db) {
        if let Some(fit) = &series.fit {
            let direction = if fit.exponent < 0.0 {
                "improving"
            } else {
                "regressing"
            };
            println!(
                "{:<16} DPM ~ miles^{:.2}  ({direction} over {} active months)",
                series.manufacturer.name(),
                fit.exponent,
                series.points.len()
            );
        }
    }

    // What-if: a hypothetical entrant that tests 50k miles in one year
    // with a fleet of 10 and a modern (perception-heavy) failure mix.
    println!("\n== what-if: hypothetical entrant, 50k miles, 10 cars ==");
    let entrant = ManufacturerProfile {
        manufacturer: Manufacturer::Ford, // reuse an identity for the demo
        years: vec![YearProfile {
            year: ReportYear::R2016,
            cars: 10,
            miles: 50_000.0,
            disengagements: 400,
            accidents: 2,
        }],
        categories: CategoryMix {
            perception: 0.6,
            planner: 0.25,
            system: 0.15,
            unknown: 0.0,
        },
        modalities: ModalityMix {
            automatic: 0.5,
            manual: 0.5,
            planned: 0.0,
        },
        reactions: Some(disengage::corpus::profile::ReactionProfile {
            shape: 1.4,
            scale: 0.8,
        }),
        car_skew: 1.0,
        dis_miles_exponent: 1.0,
    };
    let corpus = CorpusGenerator::with_profiles(
        CorpusConfig {
            seed: 77,
            scale: 1.0,
        },
        vec![entrant],
    )
    .generate();
    let db = &corpus.truth;
    let per_car = metrics::per_car_dpm(db, Manufacturer::Ford);
    let b = box_stats(&per_car)?;
    println!(
        "entrant fleet DPM {:.5}, per-car median {:.5}; DPA {:?}",
        metrics::dpm(db, Manufacturer::Ford)?,
        b.median,
        db.dpa(Manufacturer::Ford)
    );
    println!(
        "for context, Waymo's calibrated per-car median DPM is ~4.4e-4 — the entrant is ~{:.0}x behind",
        b.median / 4.4e-4
    );

    Ok(())
}
