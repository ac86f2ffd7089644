//! Reaction-time study (Question 4 / Figs. 10–11): how quickly do AV
//! safety drivers take control, how does that compare with ordinary
//! drivers, and which distribution family describes the data?
//!
//! ```text
//! cargo run --release --example reaction_time_study
//! ```

use disengage::core::constants::{HUMAN_REACTION_OWNED_S, REACTION_OUTLIER_CUTOFF_S};
use disengage::core::{questions, RunConfig, RunSession};
use disengage::reports::Manufacturer;
use disengage::stats::fit::{
    fit_exponential, fit_exponentiated_weibull, fit_weibull, prefer_by_aic,
};
use disengage::stats::ks::ks_test;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outcome = RunSession::new(RunConfig::new()).run()?;
    let db = &outcome.database;

    let q4 = questions::q4_alertness(db)?;
    println!(
        "mean reaction time: {:.2} s over {} samples (paper: 0.85 s)",
        q4.mean_reaction_s, q4.n
    );
    println!(
        "untrimmed mean {:.1} s — dominated by one ~4 h entry the paper flags as a recording error",
        q4.untrimmed_mean_s
    );
    println!(
        "human baseline in one's own vehicle: {HUMAN_REACTION_OWNED_S:.2} s — AV supervision demands non-AV alertness\n"
    );

    println!("== does alertness decay as the system improves? ==");
    for (m, c) in &q4.miles_correlation {
        println!(
            "{:<16} reaction vs cumulative miles: r = {:+.3} (p = {:.3}, n = {})",
            m.name(),
            c.r,
            c.p_value,
            c.n
        );
    }

    println!("\n== model selection per manufacturer (Fig. 11) ==");
    for m in [
        Manufacturer::MercedesBenz,
        Manufacturer::Waymo,
        Manufacturer::Nissan,
        Manufacturer::Delphi,
    ] {
        let times: Vec<f64> = db
            .reaction_times(m)
            .into_iter()
            .filter(|&t| t > 0.0 && t <= REACTION_OUTLIER_CUTOFF_S)
            .collect();
        if times.len() < 30 {
            continue;
        }
        let exp = fit_exponential(&times)?;
        let weibull = fit_weibull(&times)?;
        let ew = fit_exponentiated_weibull(&times)?;
        let best = if prefer_by_aic(&ew, &weibull) && prefer_by_aic(&ew, &exp) {
            "exponentiated-weibull"
        } else if prefer_by_aic(&weibull, &exp) {
            "weibull"
        } else {
            "exponential"
        };
        let ks = ks_test(&times, &ew.dist)?;
        println!(
            "{:<16} n={:<5} AIC exp {:>8.1} | weibull {:>8.1} | exp-weibull {:>8.1}  -> {best}",
            m.name(),
            times.len(),
            exp.aic,
            weibull.aic,
            ew.aic,
        );
        println!(
            "{:<16} exp-weibull params: k={:.2} λ={:.2} α={:.2}; KS D={:.3} (p={:.3})",
            "",
            ew.dist.shape(),
            ew.dist.scale(),
            ew.dist.alpha(),
            ks.statistic,
            ks.p_value
        );
    }

    Ok(())
}
