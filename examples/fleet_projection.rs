//! Fleet-scale projection (§V-C1 and the paper's conclusions, made
//! executable): extrapolate DPM trends, compute the demonstration gap,
//! and project accident volume if AVs replaced every car trip.
//!
//! ```text
//! cargo run --release --example fleet_projection
//! ```

use disengage::core::constants::HUMAN_APM;
use disengage::core::whatif::{demonstration_gap, fleet_scale_projection, miles_to_target_dpm};
use disengage::core::{RunConfig, RunSession};
use disengage::reports::Manufacturer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outcome = RunSession::new(RunConfig::new()).run()?;
    let db = &outcome.database;

    println!("== projecting DPM trends to a 1e-4 disengagements/mile target ==");
    for m in [
        Manufacturer::Waymo,
        Manufacturer::Nissan,
        Manufacturer::GmCruise,
        Manufacturer::Bosch,
    ] {
        match miles_to_target_dpm(db, m, 1e-4) {
            Ok(p) => {
                print!(
                    "{:<16} DPM ~ miles^{:+.2}; now {:.2e} at {:.0} mi -> ",
                    m.name(),
                    p.fit.exponent,
                    p.current_dpm,
                    p.current_miles
                );
                match p.additional_miles() {
                    Some(0.0) => println!("target already met"),
                    Some(extra) if extra.is_finite() => {
                        println!("needs ~{:.1}M more miles", extra / 1e6)
                    }
                    _ => println!("trend never reaches the target"),
                }
            }
            Err(e) => println!("{:<16} {e}", m.name()),
        }
    }

    println!("\n== the demonstration gap (Kalra-Paddock, human APM target) ==");
    for confidence in [0.90, 0.95, 0.99] {
        let g = demonstration_gap(db, confidence)?;
        println!(
            "{:.0}% confidence: need {:>10.2}M failure-free miles = {:>6.1} programs like 2014-2016, ~{:.1} years at that pace",
            confidence * 100.0,
            g.required_miles / 1e6,
            g.programs_needed,
            g.years_at_current_pace
        );
    }

    println!("\n== if every U.S. car trip were an AV trip (96B trips/year) ==");
    for (label, apm) in [
        ("at today's Waymo rate", 2.35e-5),
        ("at today's GM Cruise rate", 1.95e-3),
        ("at the human-driver rate", HUMAN_APM),
    ] {
        let p = fleet_scale_projection(apm)?;
        println!(
            "{label:<28} {:>12.0} accidents/year  ({:.0}x aviation's annual count)",
            p.annual_av_accidents, p.ratio_to_aviation
        );
    }
    println!(
        "\neven at human-level rates the AV fleet would produce thousands of times more \
         accident events per year than aviation — the paper's closing scale argument."
    );

    Ok(())
}
