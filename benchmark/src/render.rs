//! Stage IV as `repro` runs it: every artifact computed from a pipeline
//! outcome and rendered to the exact bytes `repro` prints (each `print`
//! is one `println!`), in `repro`'s order. Kept in step with
//! `crates/bench/src/bin/repro.rs`; the benchmark compares these bytes
//! across iterations, worker counts, cache temperatures and the traced
//! pass, so any drift fails the run rather than skewing it.

use disengage_core::tagging::{tagging_accuracy, TaggedDisengagement};
use disengage_core::{degrade, exposure, figures, questions, report, tables, whatif};
use disengage_nlp::{Classifier, FaultTag};
use disengage_reports::{FailureDatabase, Manufacturer};

/// Every artifact `repro` prints with no selection, in print order.
pub const ARTIFACTS: [&str; 25] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig4", "fig5",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "q1", "q2", "q3", "q4", "q5",
    "exposure", "whatif", "accuracy",
];

/// What Stage IV reads from a run.
pub struct Inputs<'a> {
    pub database: &'a FailureDatabase,
    pub tagged: &'a [TaggedDisengagement],
    pub intended_tags: &'a [FaultTag],
    /// The default-dictionary classifier Table II renders with.
    pub classifier: &'a Classifier,
}

fn emit(out: &mut String, artifact: &'static str, result: disengage_core::Result<String>) {
    match degrade(artifact, result) {
        Ok(text) => out.push_str(&text),
        Err(e) => out.push_str(&format!("== {artifact}: DEGRADED ==\n{e}")),
    }
    out.push('\n');
}

fn print(out: &mut String, text: &str) {
    out.push_str(text);
    out.push('\n');
}

/// Computes and renders one artifact of [`ARTIFACTS`].
///
/// # Panics
///
/// Panics on a name outside [`ARTIFACTS`].
#[allow(clippy::too_many_lines)]
pub fn render(name: &str, x: &Inputs) -> String {
    let db = x.database;
    let mut out = String::new();
    let o = &mut out;
    match name {
        "table1" => emit(
            o,
            "table1",
            tables::table1(db).map(|t| {
                report::render_table("Table I: fleet, miles, disengagements, accidents", &t)
            }),
        ),
        "table2" => emit(
            o,
            "table2",
            tables::table2(x.classifier)
                .map(|t| report::render_table("Table II: sample raw logs with recovered tags", &t)),
        ),
        "table3" => emit(
            o,
            "table3",
            tables::table3()
                .map(|t| report::render_table("Table III: fault tags and categories", &t)),
        ),
        "table4" => emit(
            o,
            "table4",
            tables::table4(x.tagged).map(|t| {
                report::render_table("Table IV: disengagements by failure category (%)", &t)
            }),
        ),
        "table5" => emit(
            o,
            "table5",
            tables::table5(db)
                .map(|t| report::render_table("Table V: disengagements by modality (%)", &t)),
        ),
        "table6" => emit(
            o,
            "table6",
            tables::table6(db).map(|t| report::render_table("Table VI: accidents and DPA", &t)),
        ),
        "table7" => emit(
            o,
            "table7",
            tables::table7(db)
                .map(|t| report::render_table("Table VII: reliability vs human drivers", &t)),
        ),
        "table8" => emit(
            o,
            "table8",
            tables::table8(db).map(|t| {
                report::render_table(
                    "Table VIII: reliability vs other safety-critical systems",
                    &t,
                )
            }),
        ),
        "fig4" => emit(
            o,
            "fig4",
            figures::fig4(db).map(|f| report::render_fig4(&f)),
        ),
        "fig5" => {
            let mut text = String::from("== Figure 5: cumulative disengagements vs miles ==\n");
            for s in &figures::fig5(db) {
                if let Some(fit) = &s.fit {
                    text.push_str(&format!(
                        "{:<16} final ({:>10.0} mi, {:>5.0} dis)  log-log slope {:.2}\n",
                        s.manufacturer.name(),
                        s.points.last().map_or(0.0, |p| p.0),
                        s.points.last().map_or(0.0, |p| p.1),
                        fit.exponent
                    ));
                }
            }
            print(o, &text);
        }
        "fig6" => {
            let f = figures::fig6(x.tagged);
            let mut text = String::from("== Figure 6: fault-tag fractions per manufacturer ==\n");
            for (m, stack) in &f.stacks {
                text.push_str(&format!("{}:\n", m.name()));
                let mut sorted = stack.clone();
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (tag, frac) in sorted.iter().take(5) {
                    text.push_str(&format!(
                        "    {:<32} {:>5.1}%\n",
                        tag.to_string(),
                        frac * 100.0
                    ));
                }
            }
            print(o, &text);
        }
        "fig7" => emit(
            o,
            "fig7",
            figures::fig7(db).map(|f| {
                let mut text =
                    String::from("== Figure 7: per-car DPM by manufacturer and year ==\n");
                for (m, year, b) in &f.panels {
                    text.push_str(&format!(
                        "{:<16} {}  median {:.6}  iqr {:.6}\n",
                        m.name(),
                        year,
                        b.median,
                        b.iqr()
                    ));
                }
                text
            }),
        ),
        "fig8" => emit(
            o,
            "fig8",
            figures::fig8(db).map(|f| report::render_fig8(&f)),
        ),
        "fig9" => {
            let mut text = String::from("== Figure 9: DPM vs cumulative miles (fits) ==\n");
            for s in &figures::fig9(db) {
                if let Some(fit) = &s.fit {
                    text.push_str(&format!(
                        "{:<16} log-log slope {:.2} over {} months\n",
                        s.manufacturer.name(),
                        fit.exponent,
                        s.points.len()
                    ));
                }
            }
            print(o, &text);
        }
        "fig10" => emit(
            o,
            "fig10",
            figures::fig10(db).map(|f| report::render_fig10(&f)),
        ),
        "fig11" => {
            for m in [Manufacturer::MercedesBenz, Manufacturer::Waymo] {
                emit(
                    o,
                    "fig11",
                    figures::fig11(db, m).map(|p| report::render_fig11(&p)),
                );
            }
        }
        "fig12" => {
            for kind in [
                figures::SpeedKind::Av,
                figures::SpeedKind::Manual,
                figures::SpeedKind::Relative,
            ] {
                emit(
                    o,
                    "fig12",
                    figures::fig12(db, kind).map(|f| report::render_fig12(&f)),
                );
            }
        }
        "q1" => emit(
            o,
            "q1",
            questions::q1_assessment(db).map(|q| report::render_q1(&q)),
        ),
        "q2" => print(o, &report::render_q2(&questions::q2_causes(x.tagged))),
        "q3" => emit(
            o,
            "q3",
            questions::q3_dynamics(db).map(|q| report::render_q3(&q)),
        ),
        "q4" => emit(
            o,
            "q4",
            questions::q4_alertness(db).map(|q| report::render_q4(&q)),
        ),
        "q5" => emit(
            o,
            "q5",
            questions::q5_comparison(db).map(|q| report::render_q5(&q)),
        ),
        "exposure" => print(o, &exposure_text(db, x.tagged)),
        "whatif" => print(o, &whatif_text(db)),
        "accuracy" => {
            let acc = tagging_accuracy(x.tagged, x.intended_tags);
            print(
                o,
                &format!(
                    "== Stage III evaluation against generator ground truth ==\n\
                     tag accuracy: {:.1}%  category accuracy: {:.1}%  (n = {})\n",
                    acc.tag_accuracy * 100.0,
                    acc.category_accuracy * 100.0,
                    acc.n
                ),
            );
        }
        other => panic!("unknown artifact {other}"),
    }
    out
}

fn exposure_text(db: &FailureDatabase, tagged: &[TaggedDisengagement]) -> String {
    let road = exposure::road_type_mix(db);
    let weather = exposure::weather_mix(db);
    let coverage = exposure::field_coverage(db);
    let mut out = String::from("== Exposure: road/weather context (SIII-C, SVI) ==\n");
    for (rt, frac) in &road {
        out.push_str(&format!(
            "road {:<14} {:>5.1}%\n",
            rt.to_string(),
            frac * 100.0
        ));
    }
    for (w, frac) in &weather {
        out.push_str(&format!(
            "weather {:<11} {:>5.1}%\n",
            w.to_string(),
            frac * 100.0
        ));
    }
    out.push_str(&format!(
        "field coverage: road {:.0}%, weather {:.0}%, reaction {:.0}% of {} records\n",
        coverage.road_type * 100.0,
        coverage.weather * 100.0,
        coverage.reaction_time * 100.0,
        coverage.n
    ));
    match exposure::modality_association(db) {
        Ok(t) => out.push_str(&format!(
            "modality x manufacturer chi-square = {:.0} (df {}, p = {:.2e})\n",
            t.statistic, t.df, t.p_value
        )),
        Err(e) => out.push_str(&format!("modality association DEGRADED: {e}\n")),
    }
    match exposure::category_association(tagged) {
        Ok(t) => out.push_str(&format!(
            "category x manufacturer chi-square = {:.0} (df {}, p = {:.2e})\n",
            t.statistic, t.df, t.p_value
        )),
        Err(e) => out.push_str(&format!("category association DEGRADED: {e}\n")),
    }
    out
}

fn whatif_text(db: &FailureDatabase) -> String {
    let mut out = String::from("== What-if projections (SV-C1) ==\n");
    for m in [
        Manufacturer::Waymo,
        Manufacturer::Nissan,
        Manufacturer::GmCruise,
    ] {
        match whatif::miles_to_target_dpm(db, m, 1e-4) {
            Ok(p) => out.push_str(&format!(
                "{:<14} DPM ~ miles^{:+.2}; extra miles to 1e-4: {}\n",
                m.name(),
                p.fit.exponent,
                p.additional_miles()
                    .map_or("never".to_owned(), |x| format!("{x:.0}"))
            )),
            Err(e) => out.push_str(&format!("{:<14} DEGRADED: {e}\n", m.name())),
        }
    }
    if let Ok(g) = whatif::demonstration_gap(db, 0.95) {
        out.push_str(&format!(
            "demonstrating human-level safety at 95%: {:.2}M failure-free miles ({:.1}x this program)\n",
            g.required_miles / 1e6,
            g.programs_needed
        ));
    }
    if let Ok(p) = whatif::fleet_scale_projection(2.35e-5) {
        out.push_str(&format!(
            "fleet-scale at today's best APM: {:.1}M accidents/year ({:.0}x aviation)\n",
            p.annual_av_accidents / 1e6,
            p.ratio_to_aviation
        ));
    }
    out
}
