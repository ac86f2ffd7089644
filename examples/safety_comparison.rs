//! Safety comparison (Question 5 / Tables VII–VIII) plus the
//! Kalra–Paddock "driving to safety" analysis: how many miles would it
//! take to *demonstrate* human-level reliability?
//!
//! ```text
//! cargo run --release --example safety_comparison
//! ```

use disengage::core::constants::{AIRLINE_APM, HUMAN_APM, SURGICAL_ROBOT_APM};
use disengage::core::{questions, report, RunConfig, RunSession};
use disengage::stats::kalra_paddock::{
    demonstration_miles, failure_free_miles, rate_confidence_interval,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outcome = RunSession::new(RunConfig::new()).run()?;
    let db = &outcome.database;

    let q5 = questions::q5_comparison(db)?;
    println!("{}", report::render_q5(&q5));

    println!("== per-mission view (Table VIII baselines) ==");
    println!("airline accidents/departure: {AIRLINE_APM:.1e}");
    println!("surgical-robot adverse events/procedure: {SURGICAL_ROBOT_APM:.1e}");
    for row in &q5.rows {
        if let (Some(apmi), Some(va), Some(vs)) = (row.apmi, row.vs_airline, row.vs_surgical) {
            println!(
                "{:<16} APMi {:.2e}  = {:.1}x airlines, {:.2}x surgical robots",
                row.manufacturer.name(),
                apmi,
                va,
                vs
            );
        }
    }

    println!("\n== exact confidence intervals on accident rates ==");
    for &m in db.manufacturers() {
        let accidents = db.accidents_for(m).len() as u64;
        let miles = db.miles_for(m);
        if accidents == 0 || miles <= 0.0 {
            continue;
        }
        let ci = rate_confidence_interval(accidents, miles, 0.90)?;
        println!(
            "{:<16} {} accidents / {:>9.0} mi: APM {:.2e}  90% CI [{:.2e}, {:.2e}]",
            m.name(),
            accidents,
            miles,
            ci.rate,
            ci.lower,
            ci.upper
        );
    }

    println!("\n== Kalra-Paddock: miles to demonstrate human-level reliability ==");
    for confidence in [0.90, 0.95, 0.99] {
        let m0 = failure_free_miles(HUMAN_APM, confidence)?;
        let m5 = demonstration_miles(HUMAN_APM, confidence, 5)?;
        println!(
            "at {:.0}% confidence: {:>12.0} failure-free miles, or {:>12.0} miles tolerating 5 accidents",
            confidence * 100.0,
            m0,
            m5
        );
    }
    println!(
        "\nthe whole 2014-2016 program drove {:.1}M autonomous miles — demonstration-scale testing \
         requires orders of magnitude more, which is the paper's closing argument",
        db.total_miles() / 1e6
    );

    Ok(())
}
