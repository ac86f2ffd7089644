//! Stage IV: the paper's §V analysis as one list of artifacts.
//!
//! Every table (I–VIII), figure summary (4–12) and research question
//! (Q1–Q5), the exposure and what-if sections and the Stage III
//! accuracy check is one named artifact of [`ARTIFACTS`]. [`render`]
//! computes one and formats it exactly as `repro` prints it, and [`run`]
//! renders a selection in list order, each inside its own
//! `stage_iv_<name>` span. `repro`, `disengage summary` and
//! `disengage export` all go through this module.
//!
//! An artifact that cannot be produced at full fidelity degrades
//! instead of failing the run (see [`crate::degrade`]). A whole panel
//! prints a `== <artifact>: DEGRADED ==` block in its place; a single
//! line of the exposure or what-if section prints an inline `DEGRADED`
//! note. Either way [`render`] returns the error, and [`run`] reports
//! each one and lists the artifact once.

use crate::figures::{self, SpeedKind};
use crate::tagging::{tagging_accuracy, TaggedDisengagement};
use crate::telemetry::timed;
use crate::{
    degrade, exposure, questions, report, tables, whatif, CoreError, PipelineOutcome, Result,
};
use disengage_dataframe::DataFrame;
use disengage_nlp::{Classifier, FaultTag};
use disengage_obs::{Collector, ProvenanceEvent, Subject};
use disengage_reports::{FailureDatabase, Manufacturer};
use disengage_stats::chi_square::ChiSquare;

/// Every artifact, in print order.
pub const ARTIFACTS: [&str; 25] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig4", "fig5",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "q1", "q2", "q3", "q4", "q5",
    "exposure", "whatif", "accuracy",
];

/// Each table's artifact name and printed title, Tables I–VIII in order.
pub const TABLES: [(&str, &str); 8] = [
    ("table1", "Table I: fleet, miles, disengagements, accidents"),
    ("table2", "Table II: sample raw logs with recovered tags"),
    ("table3", "Table III: fault tags and categories"),
    ("table4", "Table IV: disengagements by failure category (%)"),
    ("table5", "Table V: disengagements by modality (%)"),
    ("table6", "Table VI: accidents and DPA"),
    ("table7", "Table VII: reliability vs human drivers"),
    (
        "table8",
        "Table VIII: reliability vs other safety-critical systems",
    ),
];

/// What Stage IV reads from a run.
pub struct Inputs<'a> {
    /// The consolidated failure database.
    pub database: &'a FailureDatabase,
    /// Stage III's verdict per disengagement.
    pub tagged: &'a [TaggedDisengagement],
    /// The generator's intended tag per disengagement (the accuracy
    /// check's ground truth).
    pub intended_tags: &'a [FaultTag],
    /// The default-dictionary classifier Table II renders with.
    pub classifier: &'a Classifier,
}

impl<'a> Inputs<'a> {
    /// The inputs `outcome` provides, with `classifier` for Table II.
    pub fn of(outcome: &'a PipelineOutcome, classifier: &'a Classifier) -> Inputs<'a> {
        Inputs {
            database: &outcome.database,
            tagged: &outcome.tagged,
            intended_tags: &outcome.corpus.intended_tags,
            classifier,
        }
    }
}

/// Computes one table of [`TABLES`] as a dataframe.
///
/// # Errors
///
/// The table's own error; [`render`] prints it as a DEGRADED block.
///
/// # Panics
///
/// Panics on a name outside [`TABLES`].
pub fn table(name: &str, x: &Inputs) -> Result<DataFrame> {
    let db = x.database;
    match name {
        "table1" => tables::table1(db),
        "table2" => tables::table2(x.classifier),
        "table3" => tables::table3(),
        "table4" => tables::table4(x.tagged),
        "table5" => tables::table5(db),
        "table6" => tables::table6(db),
        "table7" => tables::table7(db),
        "table8" => tables::table8(db),
        other => panic!("unknown Stage IV table `{other}`"),
    }
}

/// One artifact's text as it is being rendered, and the errors that
/// degraded parts of it.
struct Page {
    artifact: &'static str,
    text: String,
    degraded: Vec<CoreError>,
}

impl Page {
    /// Appends a line-terminated block: a panel, or its DEGRADED block
    /// when the panel failed.
    fn panel(&mut self, panel: Result<String>) {
        match degrade(self.artifact, panel) {
            Ok(text) => self.text.push_str(&text),
            Err(e) => {
                self.text
                    .push_str(&format!("== {}: DEGRADED ==\n{e}", self.artifact));
                self.degraded.push(e);
            }
        }
        self.text.push('\n');
    }

    /// Appends one line of a section: `line`'s text, or
    /// `"{label} DEGRADED: {error}"` when it failed.
    fn line<T>(&mut self, label: &str, line: Result<T>, text: impl FnOnce(T) -> String) {
        match line {
            Ok(v) => self.text.push_str(&text(v)),
            Err(e) => {
                self.text.push_str(&format!("{label} DEGRADED: {e}\n"));
                self.degraded
                    .extend(degrade(self.artifact, Err::<T, _>(e)).err());
            }
        }
    }
}

/// Computes and renders one artifact of [`ARTIFACTS`].
///
/// Returns the artifact's text, byte for byte what `repro` prints for
/// it, and every error that degraded a part of it (empty when it
/// rendered at full fidelity). A degraded part prints in place of the
/// part; the rest of the artifact still renders.
///
/// # Panics
///
/// Panics on a name outside [`ARTIFACTS`].
#[allow(clippy::too_many_lines)]
pub fn render(name: &str, x: &Inputs) -> (String, Vec<CoreError>) {
    let artifact = ARTIFACTS
        .into_iter()
        .find(|a| *a == name)
        .unwrap_or_else(|| panic!("unknown Stage IV artifact `{name}`"));
    let db = x.database;
    let mut page = Page {
        artifact,
        text: String::new(),
        degraded: Vec::new(),
    };
    if let Some((_, title)) = TABLES.iter().find(|(t, _)| *t == artifact) {
        page.panel(table(artifact, x).map(|t| report::render_table(title, &t)));
        return (page.text, page.degraded);
    }
    match artifact {
        "fig4" => page.panel(figures::fig4(db).map(|f| report::render_fig4(&f))),
        "fig5" => {
            let mut out = String::from("== Figure 5: cumulative disengagements vs miles ==\n");
            for s in &figures::fig5(db) {
                if let Some(fit) = &s.fit {
                    out.push_str(&format!(
                        "{:<16} final ({:>10.0} mi, {:>5.0} dis)  log-log slope {:.2}\n",
                        s.manufacturer.name(),
                        s.points.last().map_or(0.0, |p| p.0),
                        s.points.last().map_or(0.0, |p| p.1),
                        fit.exponent
                    ));
                }
            }
            page.panel(Ok(out));
        }
        "fig6" => {
            let f = figures::fig6(x.tagged);
            let mut out = String::from("== Figure 6: fault-tag fractions per manufacturer ==\n");
            for (m, stack) in &f.stacks {
                out.push_str(&format!("{}:\n", m.name()));
                let mut sorted = stack.clone();
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (tag, frac) in sorted.iter().take(5) {
                    out.push_str(&format!(
                        "    {:<32} {:>5.1}%\n",
                        tag.to_string(),
                        frac * 100.0
                    ));
                }
            }
            page.panel(Ok(out));
        }
        "fig7" => page.panel(figures::fig7(db).map(|f| {
            let mut out = String::from("== Figure 7: per-car DPM by manufacturer and year ==\n");
            for (m, year, b) in &f.panels {
                out.push_str(&format!(
                    "{:<16} {}  median {:.6}  iqr {:.6}\n",
                    m.name(),
                    year,
                    b.median,
                    b.iqr()
                ));
            }
            out
        })),
        "fig8" => page.panel(figures::fig8(db).map(|f| report::render_fig8(&f))),
        "fig9" => {
            let mut out = String::from("== Figure 9: DPM vs cumulative miles (fits) ==\n");
            for s in &figures::fig9(db) {
                if let Some(fit) = &s.fit {
                    out.push_str(&format!(
                        "{:<16} log-log slope {:.2} over {} months\n",
                        s.manufacturer.name(),
                        fit.exponent,
                        s.points.len()
                    ));
                }
            }
            page.panel(Ok(out));
        }
        "fig10" => page.panel(figures::fig10(db).map(|f| report::render_fig10(&f))),
        "fig11" => {
            for m in [Manufacturer::MercedesBenz, Manufacturer::Waymo] {
                page.panel(figures::fig11(db, m).map(|f| report::render_fig11(&f)));
            }
        }
        "fig12" => {
            for kind in [SpeedKind::Av, SpeedKind::Manual, SpeedKind::Relative] {
                page.panel(figures::fig12(db, kind).map(|f| report::render_fig12(&f)));
            }
        }
        "q1" => page.panel(questions::q1_assessment(db).map(|q| report::render_q1(&q))),
        "q2" => page.panel(Ok(report::render_q2(&questions::q2_causes(x.tagged)))),
        "q3" => page.panel(questions::q3_dynamics(db).map(|q| report::render_q3(&q))),
        "q4" => page.panel(questions::q4_alertness(db).map(|q| report::render_q4(&q))),
        "q5" => page.panel(questions::q5_comparison(db).map(|q| report::render_q5(&q))),
        "exposure" => exposure_section(&mut page, x),
        "whatif" => whatif_section(&mut page, db),
        "accuracy" => {
            let acc = tagging_accuracy(x.tagged, x.intended_tags);
            page.panel(Ok(format!(
                "== Stage III evaluation against generator ground truth ==\n\
                 tag accuracy: {:.1}%  category accuracy: {:.1}%  (n = {})\n",
                acc.tag_accuracy * 100.0,
                acc.category_accuracy * 100.0,
                acc.n
            )));
        }
        _ => unreachable!("every artifact has a renderer"),
    }
    (page.text, page.degraded)
}

/// The road/weather context of §III-C and §VI; each association test
/// degrades on its own line.
fn exposure_section(page: &mut Page, x: &Inputs) {
    let db = x.database;
    let coverage = exposure::field_coverage(db);
    page.text
        .push_str("== Exposure: road/weather context (SIII-C, SVI) ==\n");
    for (rt, frac) in &exposure::road_type_mix(db) {
        page.text.push_str(&format!(
            "road {:<14} {:>5.1}%\n",
            rt.to_string(),
            frac * 100.0
        ));
    }
    for (w, frac) in &exposure::weather_mix(db) {
        page.text.push_str(&format!(
            "weather {:<11} {:>5.1}%\n",
            w.to_string(),
            frac * 100.0
        ));
    }
    page.text.push_str(&format!(
        "field coverage: road {:.0}%, weather {:.0}%, reaction {:.0}% of {} records\n",
        coverage.road_type * 100.0,
        coverage.weather * 100.0,
        coverage.reaction_time * 100.0,
        coverage.n
    ));
    let chi_square = |what: &str, t: ChiSquare| {
        format!(
            "{what} x manufacturer chi-square = {:.0} (df {}, p = {:.2e})\n",
            t.statistic, t.df, t.p_value
        )
    };
    page.line(
        "modality association",
        exposure::modality_association(db),
        |t| chi_square("modality", t),
    );
    page.line(
        "category association",
        exposure::category_association(x.tagged),
        |t| chi_square("category", t),
    );
    page.text.push('\n');
}

/// The §V-C1 projections; each manufacturer's trend degrades on its own
/// line.
fn whatif_section(page: &mut Page, db: &FailureDatabase) {
    page.text.push_str("== What-if projections (SV-C1) ==\n");
    for m in [
        Manufacturer::Waymo,
        Manufacturer::Nissan,
        Manufacturer::GmCruise,
    ] {
        page.line(
            &format!("{:<14}", m.name()),
            whatif::miles_to_target_dpm(db, m, 1e-4),
            |proj| {
                format!(
                    "{:<14} DPM ~ miles^{:+.2}; extra miles to 1e-4: {}\n",
                    m.name(),
                    proj.fit.exponent,
                    proj.additional_miles()
                        .map_or("never".to_owned(), |x| format!("{x:.0}"))
                )
            },
        );
    }
    if let Ok(g) = whatif::demonstration_gap(db, 0.95) {
        page.text.push_str(&format!(
            "demonstrating human-level safety at 95%: {:.2}M failure-free miles ({:.1}x this program)\n",
            g.required_miles / 1e6,
            g.programs_needed
        ));
    }
    if let Ok(f) = whatif::fleet_scale_projection(2.35e-5) {
        page.text.push_str(&format!(
            "fleet-scale at today's best APM: {:.1}M accidents/year ({:.0}x aviation)\n",
            f.annual_av_accidents / 1e6,
            f.ratio_to_aviation
        ));
    }
    page.text.push('\n');
}

/// Renders `selection` in [`ARTIFACTS`] order, each artifact inside a
/// `stage_iv_<name>` span of `obs`; names outside [`ARTIFACTS`] select
/// nothing. Returns the text and the artifacts that degraded, each
/// listed once.
///
/// Every degraded part is reported to `obs`: a warning, a `degrade`
/// flight event and, when `obs` records lineage, a [`Subject::Run`]
/// [`ProvenanceEvent::Degraded`] event.
pub fn run(selection: &[&str], x: &Inputs, obs: &Collector) -> (String, Vec<&'static str>) {
    let mut text = String::new();
    let mut degraded = Vec::new();
    for artifact in ARTIFACTS.into_iter().filter(|a| selection.contains(a)) {
        let (page, errors) = timed(obs, &format!("stage_iv_{artifact}"), || render(artifact, x));
        for e in &errors {
            obs.warn(&format!("artifact {artifact} degraded: {e}"));
            obs.event("degrade", artifact);
            obs.lineage(
                Subject::Run,
                ProvenanceEvent::Degraded {
                    artifact: artifact.to_owned(),
                    reason: e.to_string(),
                },
            );
        }
        if !errors.is_empty() {
            degraded.push(artifact);
        }
        text.push_str(&page);
    }
    (text, degraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunConfig, RunSession};
    use disengage_corpus::CorpusConfig;
    use disengage_obs::{FlightKind, LogLevel};

    /// A full-scale run over the Nissan 2016 filing alone (29
    /// disengagements): one manufacturer, and no Mercedes-Benz or Waymo
    /// data.
    fn nissan_only(obs: &Collector) -> PipelineOutcome {
        let config = RunConfig::new()
            .with_corpus(CorpusConfig {
                seed: 0x5EED,
                scale: 1.0,
            })
            .with_shards(vec!["nissan_2016".into()]);
        RunSession::new(config)
            .run_with(obs)
            .expect("one-shard run")
    }

    #[test]
    fn artifacts_are_unique_and_start_with_the_tables() {
        let mut names = ARTIFACTS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len());
        let tables: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        assert_eq!(tables, ARTIFACTS[..TABLES.len()]);
    }

    #[test]
    fn each_missing_fig11_panel_degrades_on_its_own() {
        let o = nissan_only(&Collector::new());
        let classifier = Classifier::with_default_dictionary();
        let (text, errors) = render("fig11", &Inputs::of(&o, &classifier));
        assert_eq!(text.matches("== fig11: DEGRADED ==\n").count(), 2, "{text}");
        assert_eq!(errors.len(), 2);
        for e in &errors {
            assert!(
                matches!(
                    e,
                    CoreError::Degraded {
                        artifact: "fig11",
                        ..
                    }
                ),
                "{e:?}"
            );
        }
    }

    #[test]
    fn run_lists_each_degraded_artifact_once_and_reports_every_part() {
        let obs = Collector::new().with_lineage(true);
        let o = nissan_only(&obs);
        let classifier = Classifier::with_default_dictionary();
        let x = Inputs::of(&o, &classifier);
        let (text, degraded) = run(&["whatif", "fig11", "exposure"], &x, &obs);
        // List order, whatever the selection's order.
        assert_eq!(degraded, ["fig11", "exposure", "whatif"]);
        let pages: Vec<(String, Vec<CoreError>)> = degraded.iter().map(|a| render(a, &x)).collect();
        assert_eq!(
            text,
            pages.iter().map(|(t, _)| t.as_str()).collect::<String>()
        );
        // Two Fig. 11 panels, two association tests and two projections.
        let parts: Vec<String> = pages
            .iter()
            .flat_map(|(_, errors)| errors.iter().map(ToString::to_string))
            .collect();
        assert_eq!(parts.len(), 6);
        assert_eq!(text.matches("DEGRADED").count(), parts.len());

        let reasons: Vec<String> = obs
            .provenance()
            .entries()
            .iter()
            .filter_map(|entry| match &entry.event {
                ProvenanceEvent::Degraded { reason, .. } => Some(reason.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, parts);
        let warnings = obs
            .report()
            .logs
            .iter()
            .filter(|l| l.level == LogLevel::Warn && l.message.starts_with("artifact "))
            .count();
        assert_eq!(warnings, parts.len());
        let events = obs
            .flight_snapshot()
            .events
            .iter()
            .filter(|e| matches!(&e.kind, FlightKind::Event { name, .. } if name == "degrade"))
            .count();
        assert_eq!(events, parts.len());
    }

    #[test]
    fn a_non_finite_fig12_speed_degrades_its_panels() {
        use disengage_reports::record::{CarId, CollisionKind, Severity};
        use disengage_reports::{AccidentRecord, Date};
        let accident = |av: f64, other: f64| AccidentRecord {
            manufacturer: Manufacturer::Waymo,
            car: CarId::Redacted,
            date: Date::new(2016, 5, 1).expect("valid date"),
            location: "x".to_owned(),
            av_speed_mph: Some(av),
            other_speed_mph: Some(other),
            autonomous_at_impact: true,
            kind: CollisionKind::RearEnd,
            severity: Severity::Minor,
            description: "bump".to_owned(),
        };
        let database = FailureDatabase::from_records(
            Vec::new(),
            vec![
                accident(4.0, 9.0),
                accident(f64::INFINITY, 12.0),
                accident(6.0, 15.0),
            ],
            Vec::new(),
        );
        let classifier = Classifier::with_default_dictionary();
        let x = Inputs {
            database: &database,
            tagged: &[],
            intended_tags: &[],
            classifier: &classifier,
        };
        // The AV and relative samples hold +∞; the manual one is finite.
        let (text, errors) = render("fig12", &x);
        assert_eq!(
            text,
            "== fig12: DEGRADED ==\n\
             degraded fig12: statistics error: input contains NaN or infinite values\n\
             == Figure 12 (Manual speed) ==\n\
             exponential fit: mean = 12.00 mph (rate 0.0833)\n\
             share below 10 mph: 33.3%\n\n\
             == fig12: DEGRADED ==\n\
             degraded fig12: statistics error: input contains NaN or infinite values\n"
        );
        assert_eq!(errors.len(), 2);
    }
}
