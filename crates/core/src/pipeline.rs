//! The end-to-end pipeline of Fig. 1: its outcome and the Stage I
//! digitize driver. [`crate::RunSession`] runs the stages, recording
//! everything — telemetry, flight events, lineage — into one
//! [`Collector`] per task, and every pool task once on the run's
//! [`TaskTimeline`].
//!
//! Stage I — generate the calibrated corpus and (optionally) digitize
//! its raw documents through the simulated scanner + OCR engine.
//! Stage II — parse, filter, and normalize every document into the
//! uniform schema, collecting per-line failures (the manual-review
//! queue). Stage III — tag every disengagement description with the
//! keyword-voting classifier. Stage IV — hand the consolidated database
//! to the analyses in [`crate::questions`], [`crate::tables`], and
//! [`crate::figures`].

use crate::error::Quarantined;
use crate::tagging::TaggedDisengagement;
use disengage_chaos::ChaosAudit;
use disengage_nlp::FaultTag;
use disengage_obs::profile;
use disengage_obs::{Collector, ProvenanceEvent, Subject, TelemetryReport};
use disengage_ocr::correct::Corrector;
use disengage_ocr::engine::OcrEngine;
use disengage_ocr::metrics::cer;
use disengage_ocr::stream::{digitize_streamed, StreamScratch, StreamTimings};
use disengage_ocr::NoiseModel;
use disengage_par as par;
use disengage_par::TaskTimeline;
use disengage_reports::formats::RawDocument;
use disengage_reports::{FailureDatabase, ReportError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How Stage I digitizes the raw documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OcrMode {
    /// Use document text directly (a perfect scan). Fast; the default.
    Passthrough,
    /// Rasterize each document, degrade it with scanner noise, recognize
    /// it with the template-matching engine, and optionally post-correct
    /// against the failure-dictionary vocabulary.
    Simulated {
        /// The scanner-noise profile.
        noise: NoiseModel,
        /// Whether to run dictionary post-correction.
        correct: bool,
    },
}

/// Aggregate OCR quality over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcrStats {
    /// Documents digitized.
    pub documents: usize,
    /// Mean character error rate against the pristine text.
    pub mean_cer: f64,
    /// Mean per-character recognition confidence.
    pub mean_confidence: f64,
}

/// The generator's ground truth, kept for evaluating what the
/// pipeline recovered. The raw documents are not part of it: Stage II
/// is their last reader, and the session drops them there.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// The generated records (disengagements, accidents, mileage).
    pub truth: FailureDatabase,
    /// The fault tag the generator drew for each disengagement, aligned
    /// with `truth.disengagements()`.
    pub intended_tags: Vec<FaultTag>,
}

/// Everything the pipeline produces. Record ids are not part of it:
/// lineage is their only reader, so a run builds them only when its
/// collector records lineage, and a caller reads them from that log
/// ([`disengage_obs::ProvenanceLog::record_ids`]).
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The generated ground truth (for evaluation).
    pub corpus: GroundTruth,
    /// The consolidated failure database recovered by Stages I–II.
    pub database: FailureDatabase,
    /// Stage III verdicts, aligned with `database.disengagements()`.
    pub tagged: Vec<TaggedDisengagement>,
    /// Per-line parse failures (the manual-review queue).
    pub parse_failures: Vec<ReportError>,
    /// The structured quarantine lane: every record a stage rejected,
    /// tagged with the stage and reason (same events as
    /// `parse_failures`, in review-queue form).
    pub quarantined: Vec<Quarantined>,
    /// Fault-injection audit (`None` unless the run had an active
    /// chaos plan; see [`crate::RunConfig::with_chaos`]).
    pub chaos: Option<ChaosAudit>,
    /// OCR statistics (`None` under [`OcrMode::Passthrough`]).
    pub ocr: Option<OcrStats>,
    /// Telemetry snapshot for the run: per-stage spans, counters,
    /// gauges, and histograms (see [`crate::telemetry::reconcile`]).
    pub telemetry: TelemetryReport,
}

impl PipelineOutcome {
    /// Fraction of ground-truth disengagements recovered by the pipeline.
    pub fn recovery_rate(&self) -> f64 {
        let truth = self.corpus.truth.disengagements().len();
        if truth == 0 {
            1.0
        } else {
            self.database.disengagements().len() as f64 / truth as f64
        }
    }
}

/// Stage I digitization parameters for [`digitize_simulated_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitizeConfig {
    /// The scanner-noise profile.
    pub noise: NoiseModel,
    /// Whether to run dictionary post-correction.
    pub correct: bool,
    /// Root seed of the OCR noise process.
    pub ocr_seed: u64,
    /// Corpus index of `docs[0]`: document `i` of the slice seeds from
    /// `(ocr_seed, base_index + i)`, so a slice digitizes exactly as it
    /// would at the same positions inside the full corpus.
    pub base_index: usize,
    /// Bound on the dictionary-repair ladder (1 = single pass; chaos
    /// plans buy more). Ignored unless `correct` is set.
    pub repair_attempts: u32,
    /// Worker-pool size (0 = all available cores).
    pub jobs: usize,
}

/// Digitizes `docs` — rasterize, degrade with scanner noise, recognize,
/// optionally dictionary-correct — across a worker pool, recording
/// per-document telemetry into `obs`.
///
/// Each document's noise stream seeds from `derive_seed(ocr_seed,
/// base_index + i)` (SplitMix64), never from a shared RNG advanced
/// across the batch: document `i`'s digitization is invariant to the
/// presence, content, and byte lengths of every other document. That
/// order-decoupling is what lets the worker pool run documents in any
/// schedule and still produce output byte-identical to the sequential
/// run; per-document collector shards are absorbed into `obs` in index
/// order so the telemetry (including order-sensitive f64 histogram
/// sums) matches bit for bit too.
pub fn digitize_simulated_with(
    config: DigitizeConfig,
    docs: &[RawDocument],
    obs: &Collector,
) -> (Vec<RawDocument>, OcrStats) {
    digitize_simulated_parts(config, docs, obs, obs, &TaskTimeline::disabled())
}

/// [`digitize_simulated_with`] on the run's timeline: each pool task
/// lands on `timeline` under `stage_i_ocr`, and when `obs` records
/// lineage every dictionary repair is logged as an `OcrRepair` event
/// against its source line (document index = `base_index + i`,
/// matching Stage II's subjects). The per-document `digitize;…`
/// profile phases go to `phases`, absorbed in document order. The
/// session driver aims `obs` at the stage shard, whose state the
/// digitize artifact persists, and `phases` at the shard's worker
/// collector, which is never persisted, so a warm replay records no
/// OCR time it did not spend; the timeline stays run-global.
pub(crate) fn digitize_simulated_parts(
    config: DigitizeConfig,
    docs: &[RawDocument],
    obs: &Collector,
    phases: &Collector,
    timeline: &TaskTimeline,
) -> (Vec<RawDocument>, OcrStats) {
    // The engine is immutable and a pure function of the built-in
    // font, so it is built once per process and shared by every
    // shard, as the corrector is.
    static ENGINE: std::sync::OnceLock<OcrEngine> = std::sync::OnceLock::new();
    let engine = ENGINE.get_or_init(OcrEngine::new);
    let corrector = config.correct.then(default_corrector);
    // Each pool worker keeps one strip-streaming scratch alive across
    // every document it processes, so the hot loop stops paying an
    // alloc/free cycle per page. Reuse cannot leak between documents:
    // the streamed digitizer resets its strip and row buffers per line,
    // so output is byte-identical at any --jobs value. Streaming is
    // also the digitizer's peak-memory contract: only one CELL_H-row
    // strip of a page ever exists, so memory scales with page *width*
    // while the sharded session holds the largest *document* — see
    // `disengage_ocr::stream`.
    thread_local! {
        static OCR_SCRATCH: std::cell::RefCell<StreamScratch> =
            std::cell::RefCell::new(StreamScratch::default());
    }
    let per_doc = par::par_map_indexed(
        config.jobs,
        docs,
        |i, doc| {
            let shard = obs.shard();
            let phase_shard = phases.shard();
            // Each document times its own steps and records them at
            // fixed `digitize;…` paths, so the phase tree is the same at
            // every --jobs value.
            let doc_start = Instant::now();
            let mut rng = StdRng::seed_from_u64(rand::derive_seed(
                config.ocr_seed,
                (config.base_index + i) as u64,
            ));
            // The streamed digitizer interleaves rasterize → degrade →
            // correlate per strip and adds up each step's wall-clock.
            let mut timings = StreamTimings::default();
            let recognized = OCR_SCRATCH.with(|cell| {
                digitize_streamed(
                    &doc.text,
                    &config.noise,
                    engine,
                    &mut cell.borrow_mut(),
                    &mut rng,
                    &mut timings,
                )
            });
            let confidence = recognized.mean_confidence();
            let (text, repair_wall) = match corrector {
                Some(c) => {
                    let start = Instant::now();
                    let mut attempts = Duration::ZERO;
                    let text = repair_text(
                        c,
                        &recognized.text,
                        config.repair_attempts,
                        config.base_index + i,
                        &shard,
                        &mut |attempt, elapsed| {
                            attempts += elapsed;
                            let path = format!("digitize;repair;attempt_{attempt}");
                            profile::record_phase(&phase_shard, &path, elapsed, elapsed);
                        },
                    );
                    let wall = start.elapsed();
                    let self_time = wall.saturating_sub(attempts);
                    profile::record_phase(&phase_shard, "digitize;repair", wall, self_time);
                    (text, wall)
                }
                // Move rather than clone: the recognizer output is not
                // needed once its confidence has been read.
                None => (recognized.text, Duration::ZERO),
            };
            let cer_start = Instant::now();
            let doc_cer = cer(doc.text.trim_end(), &text);
            let cer_wall = cer_start.elapsed();
            let mut children = repair_wall;
            for (path, t) in [
                ("digitize;rasterize", timings.rasterize),
                ("digitize;degrade", timings.degrade),
                ("digitize;correlate", timings.correlate),
                ("digitize;cer", cer_wall),
            ] {
                profile::record_phase(&phase_shard, path, t, t);
                children += t;
            }
            let wall = doc_start.elapsed();
            profile::record_phase(
                &phase_shard,
                "digitize",
                wall,
                wall.saturating_sub(children),
            );
            shard.incr("ocr.documents");
            shard.record("ocr.cer", doc_cer);
            shard.record("ocr.confidence", confidence);
            (
                RawDocument::new(doc.manufacturer, doc.report_year, doc.kind, text),
                doc_cer,
                confidence,
                shard,
                phase_shard,
            )
        },
        timeline,
        "stage_i_ocr",
    );
    let mut out = Vec::with_capacity(docs.len());
    let (mut cer_sum, mut conf_sum) = (0.0f64, 0.0f64);
    for (doc, doc_cer, confidence, shard, phase_shard) in per_doc {
        obs.absorb(shard);
        phases.absorb(phase_shard);
        cer_sum += doc_cer;
        conf_sum += confidence;
        out.push(doc);
    }
    // An empty batch reports 0.0 means, not 0/0 = NaN (NaN would
    // poison the gauge and fail every downstream comparison).
    let stats = if docs.is_empty() {
        OcrStats {
            documents: 0,
            mean_cer: 0.0,
            mean_confidence: 0.0,
        }
    } else {
        let n = docs.len() as f64;
        OcrStats {
            documents: docs.len(),
            mean_cer: cer_sum / n,
            mean_confidence: conf_sum / n,
        }
    };
    obs.gauge("ocr.mean_cer", stats.mean_cer);
    (out, stats)
}

/// Runs `corrector`'s bounded repair ladder over the text of document
/// `doc` (its corpus-wide index, as Stage II's subjects use) and
/// returns the repaired text. Records each rung's hits into `obs`
/// (`ocr.correct.attempt<k>`, `ocr.corrections` in total) and, under
/// lineage, one `OcrRepair` event per repaired token.
pub(crate) fn repair_text(
    corrector: &Corrector,
    text: &str,
    max_attempts: u32,
    doc: usize,
    obs: &Collector,
    on_attempt: &mut dyn FnMut(u32, std::time::Duration),
) -> String {
    let (fixed, per_attempt, repairs) =
        corrector.correct_text_observed(text, max_attempts, on_attempt);
    for (k, &hits) in per_attempt.iter().enumerate() {
        obs.add(&format!("ocr.correct.attempt{}", k + 1), hits);
    }
    obs.add("ocr.corrections", per_attempt.iter().sum());
    if obs.lineage_enabled() {
        for r in repairs {
            obs.lineage(
                Subject::Line { doc, line: r.line },
                ProvenanceEvent::OcrRepair {
                    line: r.line,
                    before: r.before,
                    after: r.after,
                    attempt: r.attempt,
                },
            );
        }
    }
    fixed
}

/// The post-correction vocabulary: every word of the failure dictionary
/// plus the structural tokens of the report formats. A pure function of
/// the built-in dictionary and templates, so it is built once per
/// process and shared by every shard.
pub fn default_corrector() -> &'static Corrector {
    static CORRECTOR: std::sync::OnceLock<Corrector> = std::sync::OnceLock::new();
    CORRECTOR.get_or_init(|| Corrector::new(default_vocabulary()))
}

/// The words of [`default_corrector`]'s vocabulary, in insertion order
/// (repeats included; the corrector keeps the first).
pub fn default_vocabulary() -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    let push_text = |text: &str, words: &mut Vec<String>| {
        for w in text.split_whitespace() {
            let core: String = w.chars().filter(|c| c.is_ascii_alphanumeric()).collect();
            if core.chars().any(|c| c.is_ascii_alphabetic()) {
                words.push(core);
            }
        }
    };
    // The failure dictionary.
    let dict = disengage_nlp::FailureDictionary::default_bank();
    for tag in disengage_nlp::FaultTag::ALL {
        for phrase in dict.phrases(tag) {
            push_text(phrase, &mut words);
        }
    }
    // The full narrative vocabulary of the corpus (the paper builds its
    // dictionary from passes over the corpus; we do the same).
    for tag in disengage_nlp::FaultTag::ALL {
        if tag == disengage_nlp::FaultTag::UnknownT {
            continue;
        }
        for t in disengage_corpus::templates::templates_for(tag) {
            push_text(t, &mut words);
        }
    }
    for t in disengage_corpus::templates::vague_templates() {
        push_text(t, &mut words);
    }
    for t in disengage_corpus::templates::accident_narratives() {
        push_text(t, &mut words);
    }
    // Structural tokens of the report formats, both cases.
    for w in [
        "MILEAGE",
        "Planned",
        "planned",
        "test",
        "on",
        "car",
        "Car",
        "Leaf",
        "Safe",
        "Operation",
        "operation",
        "Takeover-Request",
        "Highway",
        "highway",
        "Street",
        "street",
        "Freeway",
        "freeway",
        "Interstate",
        "interstate",
        "Parking",
        "parking",
        "lot",
        "Suburban",
        "suburban",
        "Rural",
        "rural",
        "driver",
        "safely",
        "disengaged",
        "resumed",
        "manual",
        "automatic",
        "auto",
        "reaction",
        "road",
        "weather",
        "clear",
        "rain",
        "overcast",
        "fog",
        "Disengage",
        "for",
        "recklessly",
        "behaving",
        "user",
        "took",
        "over",
        "intervened",
        "returned",
        "vehicle",
        "Auto",
        "AM",
        "PM",
        "REPORT",
        "OF",
        "TRAFFIC",
        "ACCIDENT",
        "INVOLVING",
        "AN",
        "AUTONOMOUS",
        "VEHICLE",
        "Manufacturer",
        "Vehicle",
        "Date",
        "Location",
        "AV",
        "Speed",
        "mph",
        "Other",
        "Autonomous",
        "Mode",
        "at",
        "Impact",
        "Collision",
        "Type",
        "Damage",
        "Severity",
        "Narrative",
        "yes",
        "no",
        "unknown",
        "fleet",
        "REDACTED",
        "minor",
        "moderate",
        "major",
        "rear-end",
        "side-swipe",
        "frontal",
        "object",
        "Jan",
        "Feb",
        "Mar",
        "Apr",
        "May",
        "Jun",
        "Jul",
        "Aug",
        "Sep",
        "Oct",
        "Nov",
        "Dec",
        "Alfa",
        "Bravo",
        "Charlie",
        "Delta",
        "Echo",
        "Foxtrot",
        "Golf",
        "Hotel",
    ] {
        words.push(w.to_owned());
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunConfig, RunSession};
    use disengage_chaos::FaultPlan;
    use disengage_corpus::CorpusConfig;
    use disengage_reports::DisengagementRecord;

    fn small(scale: f64) -> RunConfig {
        RunConfig::new()
            .with_corpus(CorpusConfig { seed: 11, scale })
            .with_ocr_seed(1)
    }

    fn simulated(noise: NoiseModel, correct: bool) -> RunConfig {
        small(0.01).with_ocr(OcrMode::Simulated { noise, correct })
    }

    #[test]
    fn passthrough_recovers_everything() {
        let outcome = RunSession::new(small(0.05)).run().unwrap();
        assert!(
            outcome.parse_failures.is_empty(),
            "{:?}",
            outcome.parse_failures
        );
        assert_eq!(
            outcome.database.disengagements().len(),
            outcome.corpus.truth.disengagements().len()
        );
        assert_eq!(
            outcome.database.accidents().len(),
            outcome.corpus.truth.accidents().len()
        );
        assert!((outcome.recovery_rate() - 1.0).abs() < 1e-12);
        assert!(outcome.ocr.is_none());
    }

    #[test]
    fn tagged_aligned_with_database() {
        let outcome = RunSession::new(small(0.05)).run().unwrap();
        assert_eq!(
            outcome.tagged.len(),
            outcome.database.disengagements().len()
        );
        for (t, r) in outcome.tagged.iter().zip(outcome.database.disengagements()) {
            assert_eq!(&t.record, r);
        }
    }

    #[test]
    fn clean_simulated_ocr_lossless() {
        let outcome = RunSession::new(simulated(NoiseModel::clean(), false))
            .run()
            .unwrap();
        let stats = outcome.ocr.unwrap();
        assert!(stats.mean_cer < 1e-6, "cer = {}", stats.mean_cer);
        assert!(outcome.parse_failures.is_empty());
        assert_eq!(
            outcome.database.disengagements().len(),
            outcome.corpus.truth.disengagements().len()
        );
    }

    #[test]
    fn noisy_ocr_degrades_recovery() {
        let outcome = RunSession::new(simulated(NoiseModel::heavy(), false))
            .run()
            .unwrap();
        let stats = outcome.ocr.unwrap();
        assert!(stats.mean_cer > 0.001);
        // Heavy noise must push at least some lines to the manual queue
        // or corrupt records relative to truth.
        let lossless = outcome.parse_failures.is_empty()
            && outcome.database.disengagements() == outcome.corpus.truth.disengagements();
        assert!(!lossless, "heavy noise unexpectedly lossless");
    }

    #[test]
    fn correction_improves_cer() {
        let without = RunSession::new(simulated(NoiseModel::heavy(), false))
            .run()
            .unwrap();
        let with = RunSession::new(simulated(NoiseModel::heavy(), true))
            .run()
            .unwrap();
        assert!(
            with.ocr.unwrap().mean_cer <= without.ocr.unwrap().mean_cer,
            "correction made CER worse"
        );
        assert!(
            with.recovery_rate() >= without.recovery_rate(),
            "correction reduced recovery: {} vs {}",
            with.recovery_rate(),
            without.recovery_rate()
        );
    }

    #[test]
    fn chaos_rate_zero_is_byte_identical() {
        let clean = RunSession::new(small(0.05)).run().unwrap();
        let zero = RunSession::new(small(0.05).with_chaos(FaultPlan::new(0.0, 42)))
            .run()
            .unwrap();
        assert_eq!(
            format!("{:?}", clean.database),
            format!("{:?}", zero.database)
        );
        assert_eq!(clean.tagged, zero.tagged);
        assert!(zero.chaos.is_none(), "inert plan must not audit");
        assert_eq!(zero.telemetry.counter("chaos.injected.total"), 0);
    }

    #[test]
    fn chaos_run_audits_and_reconciles() {
        let outcome = RunSession::new(small(0.05).with_chaos(FaultPlan::new(0.05, 7)))
            .run()
            .unwrap();
        let audit = outcome.chaos.as_ref().expect("active plan must audit");
        assert!(audit.totals.injected > 0, "rate 0.05 injected nothing");
        assert!(audit.totals.reconciles(), "{audit:?}");
        assert_eq!(
            outcome.telemetry.counter("chaos.injected.total"),
            audit.totals.injected
        );
        let violations = crate::telemetry::reconcile(&outcome.telemetry);
        assert!(violations.is_empty(), "{violations:?}");
        // The quarantine lane mirrors the parse-failure queue.
        assert_eq!(outcome.quarantined.len(), outcome.parse_failures.len());
        for q in &outcome.quarantined {
            assert_eq!(q.stage, "stage_ii_parse");
        }
    }

    /// Asserts that `ids` names `records` one for one: same count, and
    /// each id's manufacturer segment is its record's.
    fn assert_ids_name(ids: &[disengage_obs::RecordId], records: &[DisengagementRecord]) {
        assert_eq!(ids.len(), records.len(), "record ids missing or repeated");
        for (id, r) in ids.iter().zip(records) {
            assert_eq!(
                id.manufacturer,
                disengage_obs::key_segment(r.manufacturer.name())
            );
        }
    }

    #[test]
    fn record_ids_align_with_database_and_are_unique() {
        let obs = Collector::new().with_lineage(true);
        let outcome = RunSession::new(small(0.05)).run_with(&obs).unwrap();
        let prov = obs.provenance();
        // Every recovered record logs one `normalized` event, and
        // `record_ids` lists each distinct id once in first-appearance
        // order, so equal counts make the ids aligned and unique.
        let normalized = prov
            .entries()
            .iter()
            .filter(|e| e.event.kind() == "normalized")
            .count();
        assert_eq!(normalized, outcome.database.disengagements().len());
        // Ids are content-derived: the manufacturer matches the aligned
        // record.
        assert_ids_name(&prov.record_ids(), outcome.database.disengagements());
    }

    #[test]
    fn traced_chaos_run_logs_full_lineage() {
        let obs = Collector::new().with_lineage(true);
        let timeline = TaskTimeline::with_epoch(obs.epoch());
        let outcome = RunSession::new(small(0.05).with_chaos(FaultPlan::new(0.05, 7)))
            .run_traced(&obs, &timeline)
            .unwrap();
        let prov = obs.provenance();
        assert!(!prov.entries().is_empty());
        // Every injected fault appears twice: once at injection, once
        // with its audited fate.
        let audit = outcome.chaos.as_ref().unwrap();
        let injected = prov
            .entries()
            .iter()
            .filter(|e| e.event.kind() == "fault_injected")
            .count();
        let outcomes = prov
            .entries()
            .iter()
            .filter(|e| e.event.kind() == "fault_outcome")
            .count();
        assert_eq!(injected as u64, audit.totals.injected);
        assert_eq!(outcomes as u64, audit.totals.injected);
        // Every recovered record got a Normalized event and a Tagged
        // verdict on its id.
        let normalized = prov
            .entries()
            .iter()
            .filter(|e| e.event.kind() == "normalized")
            .count();
        let tagged = prov
            .entries()
            .iter()
            .filter(|e| e.event.kind() == "tagged")
            .count();
        assert_eq!(normalized, outcome.database.disengagements().len());
        assert_eq!(tagged, outcome.database.disengagements().len());
        // The three exemplar classes the `explain` command surfaces all
        // exist at this rate, and each explains to a non-empty chain.
        let exemplars = prov.exemplars();
        assert_eq!(exemplars.len(), 3, "{exemplars:?}");
        for (_, subject) in &exemplars {
            let chain = prov.explain(subject).expect(subject);
            assert!(chain.contains("stage"), "{chain}");
        }
        // Pool tasks cover all three parallel stages.
        let labels: std::collections::BTreeSet<String> =
            timeline.tasks().iter().map(|t| t.label.clone()).collect();
        assert!(labels.contains("chaos_repair"), "{labels:?}");
        assert!(labels.contains("stage_ii_parse"), "{labels:?}");
        assert!(labels.contains("stage_iii_tag"), "{labels:?}");
        // And the export round-trips through the trace validator.
        let json = crate::telemetry::execution_trace_json(&outcome.telemetry, &timeline);
        let n = disengage_obs::validate_chrome_trace(&json).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn tracing_changes_no_output() {
        let plain = RunSession::new(small(0.05)).run().unwrap();
        let obs = Collector::new().with_lineage(true);
        let timeline = TaskTimeline::with_epoch(obs.epoch());
        let traced = RunSession::new(small(0.05))
            .run_traced(&obs, &timeline)
            .unwrap();
        assert_eq!(
            format!("{:?}", plain.database),
            format!("{:?}", traced.database)
        );
        assert_eq!(plain.tagged, traced.tagged);
        // Record ids exist only in the traced run's lineage, and they
        // name the untraced run's records.
        assert_ids_name(
            &obs.provenance().record_ids(),
            plain.database.disengagements(),
        );
        assert_eq!(
            plain.telemetry.canonical().to_json(),
            traced.telemetry.canonical().to_json()
        );
    }

    #[test]
    fn corrector_vocabulary_covers_report_words() {
        let c = default_corrector();
        assert!(c.knows("watchdog"));
        assert!(c.knows("MILEAGE"));
    }
}
