//! Run sessions: the explicit stage graph behind the pipeline.
//!
//! [`RunSession`] decomposes the Fig. 1 pipeline into typed stages —
//! `corpus → digitize → normalize → tag`, after which Stage IV
//! ([`crate::analyze`]) runs on the session's outcome — each with
//! declared inputs and a stable config fingerprint. [`RunConfig`] is the single builder for the
//! corpus / OCR / chaos / jobs / cache knobs, and [`RunSession`] is the
//! one way to run the pipeline.
//!
//! # Sharded streaming execution
//!
//! The session never materializes the corpus at once. Stage I
//! enumerates one shard per (manufacturer, filing-year) cell — each
//! with a content-derived seed ([`disengage_corpus::ShardSpec`]) — and
//! Stages I–III run *per shard*, at most `jobs` shards in flight, so
//! peak memory is bounded by the largest shard times the worker count
//! rather than by the corpus. An explicit merge stage then folds the
//! per-shard outputs (collector shards — telemetry and lineage
//! together — chaos audits, records) in enumeration order, which is
//! what keeps sharded output byte-identical to a monolithic fold at
//! every `--jobs`.
//! `--shards` restricts a run to named cells (or, `-`-prefixed,
//! excludes them) without moving any surviving shard's bytes.
//!
//! # Artifact cache
//!
//! With a cache directory configured, every *shard's* stage output
//! (plus its telemetry shard and lineage entries — see
//! [`crate::artifact`]) persists content-addressed under
//! `<cache-dir>/<stage>/<fingerprint>`. The fingerprint folds the
//! stage's own config, the shard's identity (manufacturer, filing
//! year, derived seed, document offset), the same shard's upstream
//! stage fingerprint, and a code-version salt
//! ([`crate::artifact::FORMAT_VERSION`]), so a warm re-run that adds
//! or reconfigures one cell recomputes only that cell's shards and
//! replays every other from disk. `jobs` never enters a key: output
//! is byte-identical at every worker count, so artifacts are shared
//! across them. The `--shards` filter never enters a key either — a
//! filtered run warms the same artifacts a full run replays.
//!
//! Replayed artifacts restore the recording run's stage spans,
//! counters, histograms (bit-for-bit float sums), and lineage, which
//! keeps warm output byte-identical to cold — the only telemetry
//! difference is the `cache.hit.*` / `cache.miss.*` counters, which
//! `TelemetryReport::canonical` excludes as environment facts. A
//! corrupted or truncated artifact is detected (framed length and
//! payload checksum, strict decode) and silently recomputed — never a
//! panic, never wrong output. Startup recovery removes artifacts whose
//! frame header is torn; one that fails only its checksum is counted
//! as `cache.corrupt` when its stage probes it.

use crate::artifact::{self, NormalizeArtifact, FORMAT_VERSION};
use crate::error::{CoreError, Quarantined};
use crate::pipeline::{
    default_corrector, digitize_simulated_parts, repair_text, DigitizeConfig, GroundTruth, OcrMode,
    OcrStats, PipelineOutcome,
};
use crate::tagging::{tag_records, TaggedDisengagement};
use crate::telemetry::task_stamps;
use crate::Result;
use disengage_cache::{ArtifactStore, Dec, Enc, Fingerprint, Fp, Lookup};
use disengage_chaos::{
    audit, inject_documents, poison_dictionary, ChaosAudit, FaultFate, FaultKind, FaultPlan,
    IoFaultPlan, SeededIoFaults,
};
use disengage_corpus::{Corpus, CorpusConfig, CorpusGenerator, ShardSpec};
use disengage_nlp::{Classifier, FaultTag, TagAssignment};
use disengage_obs::profile;
use disengage_obs::{flight, Collector, ProvenanceEvent, RecordId, Subject, TelemetryReport};
use disengage_par as par;
use disengage_par::TaskTimeline;
use disengage_reports::formats::RawDocument;
use disengage_reports::normalize::{normalize_document_traced, Normalized};
use disengage_reports::{
    AccidentRecord, DisengagementRecord, FailureDatabase, MonthlyMileage, ReportError,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stage of the pipeline graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Stage I (part 1): generate the calibrated ground-truth corpus.
    Corpus,
    /// Stage I (part 2): digitize raw documents (passthrough or
    /// simulated scanner + OCR).
    Digitize,
    /// Stage II: chaos interlude (if armed) + parse/filter/normalize.
    Normalize,
    /// Stage III: keyword-vote tagging.
    Tag,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 4] = [Stage::Corpus, Stage::Digitize, Stage::Normalize, Stage::Tag];

    /// The stage's stable name — its cache subdirectory.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Corpus => "corpus",
            Stage::Digitize => "digitize",
            Stage::Normalize => "normalize",
            Stage::Tag => "tag",
        }
    }
}

/// The complete configuration of one pipeline run: corpus + OCR +
/// chaos + execution knobs, in one builder.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Corpus generation parameters (seed + scale).
    pub corpus: CorpusConfig,
    /// Digitization mode.
    pub ocr: OcrMode,
    /// Seed for the OCR noise process (independent of the corpus seed).
    pub ocr_seed: u64,
    /// Stage I–III worker-pool size (0 = all available cores). Never
    /// part of a cache key: output is byte-identical at every setting.
    pub jobs: usize,
    /// Optional fault-injection plan (a rate-0 plan is inert).
    pub chaos: Option<FaultPlan>,
    /// Artifact-cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Per-stage cached-artifact cap override (`None` = four
    /// generations of the full shard enumeration, `Some(0)` =
    /// unbounded). Never part of a cache key: the cap governs
    /// eviction, not content.
    pub cache_cap: Option<usize>,
    /// Shard filter: labels (see [`disengage_corpus::shard_label`]) to
    /// run, or — when every entry carries a `-` prefix — to exclude
    /// from the full enumeration. `None` runs everything. Never part
    /// of a cache key: a filtered run computes the same per-shard
    /// artifacts a full run would.
    pub shards: Option<Vec<String>>,
    /// Optional seeded I/O fault plan for the artifact store (a rate-0
    /// plan is inert). Never part of a cache key: faults perturb the
    /// store's filesystem, never the computed bytes.
    pub io_faults: Option<IoFaultPlan>,
    /// Simulated crash point: abort with [`CoreError::Interrupted`]
    /// immediately after this stage's artifact commits. Used by the
    /// `repro --crash-campaign` runner; never part of a cache key, so
    /// the resumed run replays the committed stages verbatim.
    pub abort_after: Option<Stage>,
    /// Where an interrupted run dumps its flight recorder (the full,
    /// wall-clock postmortem form `disengage doctor` reads). `None`
    /// disables the crash dump. Never part of a cache key: the dump
    /// records execution, never content.
    pub flight_path: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            corpus: CorpusConfig::default(),
            ocr: OcrMode::Passthrough,
            ocr_seed: 0xD0C5,
            jobs: 0,
            chaos: None,
            cache_dir: None,
            cache_cap: None,
            shards: None,
            io_faults: None,
            abort_after: None,
            flight_path: Some(PathBuf::from(flight::DEFAULT_DUMP_PATH)),
        }
    }
}

impl RunConfig {
    /// The default configuration: paper-calibrated corpus, passthrough
    /// digitization, no chaos, no cache.
    pub fn new() -> RunConfig {
        RunConfig::default()
    }

    /// Sets the corpus parameters.
    #[must_use]
    pub fn with_corpus(mut self, corpus: CorpusConfig) -> RunConfig {
        self.corpus = corpus;
        self
    }

    /// Sets the digitization mode.
    #[must_use]
    pub fn with_ocr(mut self, ocr: OcrMode) -> RunConfig {
        self.ocr = ocr;
        self
    }

    /// Sets the OCR noise seed.
    #[must_use]
    pub fn with_ocr_seed(mut self, seed: u64) -> RunConfig {
        self.ocr_seed = seed;
        self
    }

    /// Sets the worker-pool size (0 = all cores).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> RunConfig {
        self.jobs = jobs;
        self
    }

    /// Arms a fault-injection plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> RunConfig {
        self.chaos = Some(plan);
        self
    }

    /// Enables the artifact cache rooted at `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> RunConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the artifact cache.
    #[must_use]
    pub fn without_cache(mut self) -> RunConfig {
        self.cache_dir = None;
        self
    }

    /// Sets the per-stage cached-artifact cap (0 = unbounded).
    #[must_use]
    pub fn with_cache_cap(mut self, cap: usize) -> RunConfig {
        self.cache_cap = Some(cap);
        self
    }

    /// Restricts the run to the named shards (labels like
    /// `waymo_2016`; `-`-prefix every label to exclude instead).
    #[must_use]
    pub fn with_shards(mut self, shards: Vec<String>) -> RunConfig {
        self.shards = Some(shards);
        self
    }

    /// Arms seeded I/O fault injection on the artifact store.
    #[must_use]
    pub fn with_io_faults(mut self, plan: IoFaultPlan) -> RunConfig {
        self.io_faults = Some(plan);
        self
    }

    /// Simulates a crash right after `stage`'s artifact commits.
    #[must_use]
    pub fn with_abort_after(mut self, stage: Stage) -> RunConfig {
        self.abort_after = Some(stage);
        self
    }

    /// Sets where an interrupted run dumps its flight recorder.
    #[must_use]
    pub fn with_flight_path(mut self, path: impl Into<PathBuf>) -> RunConfig {
        self.flight_path = Some(path.into());
        self
    }

    /// Disables the crash-time flight dump (unit tests that simulate
    /// crashes in parallel and don't want scratch files).
    #[must_use]
    pub fn without_flight_dump(mut self) -> RunConfig {
        self.flight_path = None;
        self
    }

    /// The active fault plan, if any (a rate-0 plan is inert and
    /// reports `None`, keeping such runs byte- and key-identical to
    /// unarmed ones).
    pub fn active_chaos(&self) -> Option<FaultPlan> {
        self.chaos.filter(FaultPlan::active)
    }

    /// The active I/O fault plan, if any (rate 0 is inert).
    pub fn active_io_faults(&self) -> Option<IoFaultPlan> {
        self.io_faults.filter(IoFaultPlan::active)
    }

    /// The effective OCR repair-attempt bound (chaos plans buy extra
    /// rungs on the dictionary-repair ladder).
    fn repair_attempts(&self) -> u32 {
        self.active_chaos().map_or(1, |p| p.repair_attempts.max(1))
    }
}

/// The config fingerprint of every cacheable stage, for the whole run
/// ([`RunSession::stage_keys`]) or for one shard
/// ([`StageKeys::for_shard`]). Each key folds the stage's own
/// parameters, its upstream keys, the artifact format version, and
/// whether lineage is recorded (an untraced artifact lacks the
/// provenance a traced run must replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageKeys {
    /// `corpus` stage key.
    pub corpus: Fingerprint,
    /// `digitize` stage key (always derived, even under passthrough,
    /// so downstream keys chain through the OCR configuration).
    pub digitize: Fingerprint,
    /// `normalize` stage key.
    pub normalize: Fingerprint,
    /// `tag` stage key.
    pub tag: Fingerprint,
}

impl StageKeys {
    /// The key for `stage`.
    pub fn for_stage(&self, stage: Stage) -> Fingerprint {
        match stage {
            Stage::Corpus => self.corpus,
            Stage::Digitize => self.digitize,
            Stage::Normalize => self.normalize,
            Stage::Tag => self.tag,
        }
    }

    /// The keys the session files `spec`'s artifacts under. Each chains
    /// this run-level key with the shard's content identity and the
    /// *same shard's* upstream key, so a config change touching one
    /// (manufacturer, filing-year) cell invalidates exactly that cell's
    /// chain and nothing else. The `--shards` filter is deliberately
    /// absent: a filtered run warms the very artifacts the full run
    /// replays.
    pub fn for_shard(&self, spec: &ShardSpec) -> StageKeys {
        let chain = |stage_key: Fingerprint, upstream: Option<Fingerprint>| {
            let mut f = Fp::new();
            f.write_fp(stage_key)
                .write_str("shard")
                .write_str(spec.manufacturer.name())
                .write_u64(u64::from(spec.year.filing_year()))
                .write_u64(spec.seed)
                .write_u64(spec.doc_base as u64);
            if let Some(up) = upstream {
                f.write_fp(up);
            }
            f.finish()
        };
        let corpus = chain(self.corpus, None);
        let digitize = chain(self.digitize, Some(corpus));
        let normalize = chain(self.normalize, Some(digitize));
        let tag = chain(self.tag, Some(normalize));
        StageKeys {
            corpus,
            digitize,
            normalize,
            tag,
        }
    }
}

/// The session driver: executes the stage graph for one [`RunConfig`],
/// consulting the artifact cache stage by stage.
#[derive(Debug, Clone)]
pub struct RunSession {
    config: RunConfig,
    classifier: Classifier,
}

impl RunSession {
    /// A session with the default (paper-derived) classifier.
    pub fn new(config: RunConfig) -> RunSession {
        RunSession {
            config,
            classifier: Classifier::with_default_dictionary(),
        }
    }

    /// A session with a custom classifier (dictionary ablations).
    pub fn with_classifier(config: RunConfig, classifier: Classifier) -> RunSession {
        RunSession { config, classifier }
    }

    /// The Stage IV unit tests' fixture: a default-configured run over a
    /// `scale`-sized corpus drawn from `seed`.
    #[cfg(test)]
    pub(crate) fn test_outcome(seed: u64, scale: f64) -> PipelineOutcome {
        RunSession::new(RunConfig::new().with_corpus(CorpusConfig { seed, scale }))
            .run()
            .expect("test pipeline runs")
    }

    /// The shards this run executes, in enumeration order: the
    /// corpus's shard enumeration under the `--shards` filter.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownShard`] when the filter names no real shard.
    pub fn planned_shards(&self) -> Result<Vec<ShardSpec>> {
        let all = CorpusGenerator::new(self.config.corpus).shards();
        filter_shards(all, self.config.shards.as_deref())
    }

    /// Derives every stage's cache key for this configuration.
    /// `lineage` is whether the run records provenance.
    pub fn stage_keys(&self, lineage: bool) -> StageKeys {
        let config = &self.config;
        let base = |stage: Stage| {
            let mut f = Fp::new();
            f.write_str("disengage")
                .write_u32(FORMAT_VERSION)
                .write_bool(lineage)
                .write_str(stage.name());
            f
        };
        let corpus = {
            let mut f = base(Stage::Corpus);
            f.write_u64(config.corpus.seed)
                .write_f64(config.corpus.scale);
            f.finish()
        };
        let digitize = {
            let mut f = base(Stage::Digitize);
            f.write_fp(corpus);
            match config.ocr {
                OcrMode::Passthrough => {
                    f.write_u8(0);
                }
                OcrMode::Simulated { noise, correct } => {
                    f.write_u8(1)
                        .write_f64(noise.salt)
                        .write_f64(noise.erosion)
                        .write_f64(noise.smear)
                        .write_bool(correct)
                        .write_u64(config.ocr_seed)
                        .write_u32(config.repair_attempts());
                }
            }
            f.finish()
        };
        let chaos_key = |f: &mut Fp| match config.active_chaos() {
            None => {
                f.write_u8(0);
            }
            Some(p) => {
                f.write_u8(1)
                    .write_f64(p.rate)
                    .write_u64(p.seed)
                    .write_u32(p.repair_attempts);
            }
        };
        let normalize = {
            let mut f = base(Stage::Normalize);
            f.write_fp(digitize);
            chaos_key(&mut f);
            f.finish()
        };
        let tag = {
            let mut f = base(Stage::Tag);
            f.write_fp(normalize);
            let dict = self.classifier.dictionary();
            for t in FaultTag::ALL {
                f.write_str(t.name());
                let phrases = dict.phrases(t);
                f.write_u64(phrases.len() as u64);
                for phrase in phrases {
                    f.write_str(phrase);
                }
            }
            chaos_key(&mut f);
            f.finish()
        };
        StageKeys {
            corpus,
            digitize,
            normalize,
            tag,
        }
    }

    /// Runs the stage graph with throwaway telemetry, no lineage, and
    /// no execution timeline.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownShard`] when the `shards` filter names a
    /// shard the enumeration lacks, before any stage runs;
    /// [`CoreError::Interrupted`] when `abort_after` stopped the run
    /// after that stage committed. Parse failures are collected in the
    /// outcome, not raised.
    pub fn run(&self) -> Result<PipelineOutcome> {
        self.run_with(&Collector::new())
    }

    /// Runs the stage graph, recording spans, metrics, and (when `obs`
    /// records lineage) lineage into `obs`, on a disabled timeline.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownShard`] or [`CoreError::Interrupted`], as
    /// for [`RunSession::run`].
    pub fn run_with(&self, obs: &Collector) -> Result<PipelineOutcome> {
        self.run_traced(obs, &TaskTimeline::disabled())
    }

    /// Runs the stage graph on the caller's execution timeline: every
    /// worker-pool task lands on `timeline` once (an enabled timeline
    /// shares `obs`'s epoch — see [`TaskTimeline::with_epoch`] — so
    /// span and task timestamps line up in the Chrome-trace export).
    /// When `obs` records lineage ([`Collector::with_lineage`]), every
    /// stage also records its per-record decisions there (OCR repairs,
    /// injected faults and their audited fates, Stage II acceptances
    /// and quarantines, Stage III ballots and verdicts), read back with
    /// [`Collector::provenance`]. An interrupted run's crash dump
    /// appends the timeline's task tail.
    ///
    /// The run is wrapped in a `pipeline` span with one child span per
    /// shard and stage; [`PipelineOutcome::telemetry`] is a snapshot
    /// taken after the root span closes, so durations are complete even
    /// if the caller keeps using `obs` afterwards. Cached stages replay
    /// their recorded telemetry and lineage, so a warm run's exports
    /// are byte-identical to a cold run's.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownShard`] or [`CoreError::Interrupted`], as
    /// for [`RunSession::run`].
    pub fn run_traced(&self, obs: &Collector, timeline: &TaskTimeline) -> Result<PipelineOutcome> {
        let config = &self.config;
        let (generator, specs, store) = self.plan_shards(obs)?;
        let run_start = Instant::now();
        let outcome = {
            let mut root = obs.span("pipeline");
            root.field("seed", config.corpus.seed);
            root.field("scale", config.corpus.scale);
            root.field("shards", specs.len() as u64);
            obs.gauge(
                "pipeline.passthrough",
                if config.ocr == OcrMode::Passthrough {
                    1.0
                } else {
                    0.0
                },
            );
            let yields =
                self.map_shards(&generator, &specs, &store, obs, timeline, |yielded| yielded)?;

            // The reduce stage: fold the per-shard outputs in
            // enumeration order into the corpus-wide outcome.
            let mut fold = MergeFold::default();
            {
                let mut span = obs.span("merge");
                span.field("shards", yields.len() as u64);
                for yielded in yields {
                    fold.absorb(yielded);
                }
            }
            let MergeFold {
                corpus,
                disengagements,
                accidents,
                mileage,
                failures,
                panicked,
                chaos: chaos_audit,
                assignments,
                ocr,
                documents,
                corpus_bytes,
                digitized_bytes,
            } = fold;

            // Corpus-level gauges that per-shard absorption cannot sum
            // (gauges overwrite — the last shard wins), recomputed over
            // the merged outputs.
            obs.gauge("corpus.total_miles", corpus.truth.total_miles());
            let ocr_stats = ocr.finish();
            if let Some(stats) = &ocr_stats {
                obs.gauge("ocr.mean_cer", stats.mean_cer);
            }
            if !assignments.is_empty() {
                let unknown = assignments
                    .iter()
                    .filter(|a| a.tag == FaultTag::UnknownT)
                    .count();
                obs.gauge(
                    "nlp.unknown_t_rate",
                    unknown as f64 / assignments.len() as f64,
                );
            }
            // Each stage's run-wide volume; the profile divides it by
            // the stage's `stage_<name>` phase wall. Recorded outside
            // the stage shards, so a cached artifact replays none.
            for (name, volume) in [
                ("corpus.records", documents),
                ("corpus.bytes", corpus_bytes),
                ("digitize.records", documents),
                ("digitize.bytes", digitized_bytes),
                ("normalize.records", disengagements.len() as u64),
                ("tag.records", assignments.len() as u64),
            ] {
                obs.gauge(&format!("{}{name}", profile::VOLUME_PREFIX), volume as f64);
            }
            record_stage_memory(obs, "merge");

            let database = FailureDatabase::from_records(disengagements, accidents, mileage);
            let tagged: Vec<TaggedDisengagement> = database
                .disengagements()
                .iter()
                .cloned()
                .zip(assignments)
                .map(|(record, assignment)| TaggedDisengagement { record, assignment })
                .collect();

            // The structured quarantine lane: one entry per rejected
            // record, attributed to the stage that refused it. Parser
            // panics quarantine alongside ordinary parse failures.
            let mut quarantined: Vec<Quarantined> = failures
                .iter()
                .map(|e| Quarantined {
                    stage: "stage_ii_parse",
                    record_id: match e {
                        ReportError::MalformedLine {
                            manufacturer, line, ..
                        } => format!("{manufacturer}:{line}"),
                        _ => "unattributed".to_owned(),
                    },
                    reason: e.to_string(),
                })
                .collect();
            quarantined.extend(panicked);
            obs.add("quarantine.records", quarantined.len() as u64);
            if !quarantined.is_empty() {
                obs.warn(&format!(
                    "{} record(s) quarantined to the manual-review queue",
                    quarantined.len()
                ));
                // A bounded sample of record ids for the postmortem ring
                // (deterministic: the lane is in stable queue order).
                for q in quarantined.iter().take(8) {
                    obs.event("quarantine.record", &q.record_id);
                }
            }

            PipelineOutcome {
                corpus,
                database,
                tagged,
                parse_failures: failures,
                quarantined,
                chaos: chaos_audit,
                ocr: ocr_stats,
                telemetry: TelemetryReport::default(),
            }
        };
        // Snapshot after the root span guard has dropped so the
        // `pipeline` span (and all children) carry final durations.
        drain_store(&store, obs);
        // Recorder self-accounting: the time spent inside recording
        // calls (every call that takes a collector lock to record,
        // summed over the absorbed shards, so at `--jobs` > 1 it can
        // count parallel time twice) over the run's wall clock.
        // Wall-clock by nature, so `canonical()` strips it; the
        // benchmark reports it as the per-layer `obs.overhead_frac`,
        // which nothing gates.
        let wall = run_start.elapsed().as_secs_f64();
        if wall > 0.0 {
            obs.gauge("obs.overhead.frac", obs.overhead_seconds() / wall);
        }
        Ok(PipelineOutcome {
            telemetry: obs.report(),
            ..outcome
        })
    }

    /// Runs the stage graph shard-at-a-time but *reduces* instead of
    /// merging: each shard folds into a [`RunDigest`] inside its
    /// worker and the bulk records drop immediately, so peak memory is
    /// the largest `jobs` shards — never the corpus. Same stages, same
    /// per-shard artifacts, same cache keys as
    /// [`RunSession::run_traced`]; only the fold differs. This is what
    /// `parbench` drives to prove peak RSS stays flat while scale
    /// grows.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownShard`] for a filter naming a shard the
    /// enumeration lacks; [`CoreError::Interrupted`] when `abort_after`
    /// is set.
    pub fn run_reduced(&self, obs: &Collector) -> Result<RunDigest> {
        let (generator, specs, store) = self.plan_shards(obs)?;
        let digests = self.map_shards(
            &generator,
            &specs,
            &store,
            obs,
            &TaskTimeline::disabled(),
            |yielded| RunDigest {
                shards: 1,
                documents: yielded.documents as usize,
                disengagements: yielded.normalize.disengagements.len(),
                tagged: yielded.assignments.len(),
                total_miles: yielded.corpus.truth.total_miles(),
            },
        )?;
        let mut out = RunDigest::default();
        for digest in digests {
            out.shards += digest.shards;
            out.documents += digest.documents;
            out.disengagements += digest.disengagements;
            out.tagged += digest.tagged;
            out.total_miles += digest.total_miles;
        }
        drain_store(&store, obs);
        Ok(out)
    }

    /// The run's shard plan: the corpus generator, the shards the
    /// `--shards` filter keeps (erroring on an unknown label before any
    /// stage runs), and the artifact store, opened and reclaimed.
    fn plan_shards(
        &self,
        obs: &Collector,
    ) -> Result<(CorpusGenerator, Vec<ShardSpec>, ArtifactStore)> {
        let generator = CorpusGenerator::new(self.config.corpus);
        let all_shards = generator.shards();
        let total_shards = all_shards.len();
        let specs = filter_shards(all_shards, self.config.shards.as_deref())?;
        let store = self.open_store(total_shards, obs);
        Ok((generator, specs, store))
    }

    /// The shard loop behind [`RunSession::run_traced`] and
    /// [`RunSession::run_reduced`]. Runs Stages I–III for every shard of
    /// `specs` and hands each shard's yield to `fold` inside its worker,
    /// so a reducing caller drops the bulk records before the next shard
    /// starts. Returns the folded values in enumeration order.
    ///
    /// # Errors
    ///
    /// [`CoreError::Interrupted`] when `abort_after` stopped the shards.
    fn map_shards<Y: Send>(
        &self,
        generator: &CorpusGenerator,
        specs: &[ShardSpec],
        store: &ArtifactStore,
        obs: &Collector,
        timeline: &TaskTimeline,
        fold: impl Fn(ShardYield) -> Y + Sync,
    ) -> Result<Vec<Y>> {
        let config = &self.config;
        let keys = self.stage_keys(obs.lineage_enabled());

        // Under chaos the dictionary is poisoned once, up front, on the
        // main thread — every shard then tags through the same degraded
        // classifier, exactly as a monolithic run would.
        let (classifier, dict_dropped) = match config.active_chaos() {
            Some(plan) => {
                let (dict, dropped) = poison_dictionary(&plan, self.classifier.dictionary());
                obs.add("chaos.dict.dropped", dropped);
                (Classifier::new(dict), Some(dropped))
            }
            None => (self.classifier.clone(), None),
        };

        // Stages I–III, shard at a time: the coarse map keeps at most
        // `jobs` shards in flight, which is what bounds peak memory to
        // the largest shards times the worker count. With more than one
        // shard the shard is the unit of parallelism and the in-shard
        // stage maps run inline; a single-shard run hands `jobs` down to
        // the inner maps instead.
        let inner_jobs = if specs.len() <= 1 { config.jobs } else { 1 };
        let results = par::par_map_coarse_catch(
            config.jobs,
            specs,
            |i, spec| {
                let wobs = obs.shard();
                let keys = keys.for_shard(spec);
                let yielded = run_shard(
                    config,
                    &classifier,
                    dict_dropped,
                    generator,
                    spec,
                    &keys,
                    inner_jobs,
                    i + 1 == specs.len(),
                    store,
                    &wobs,
                    timeline,
                );
                (yielded.map(&fold), wobs)
            },
            timeline,
            "shard",
        );
        // Absorb every shard's collector (telemetry and lineage) in
        // enumeration order — the fold that keeps sharded output
        // byte-identical at any worker count. A shard-level panic is a
        // programming error (parser panics are already quarantined
        // in-shard), so it re-raises.
        let folded: Vec<Option<Y>> = specs
            .iter()
            .zip(results)
            .map(|(spec, result)| match result {
                Ok((folded, wobs)) => {
                    obs.absorb(wobs);
                    folded
                }
                Err(p) => panic!("shard {} panicked: {}", spec.label(), p.message),
            })
            .collect();

        // The crash campaign's simulated kill point: every shard
        // stopped right after `stage`'s artifact committed, so stop the
        // run cold. The flight dump is written *here*, before the error
        // unwinds past the caller's root span guard — that is what lets
        // the postmortem show `pipeline` genuinely open at death.
        if let Some(stage) = config.abort_after {
            obs.event("interrupt", stage.name());
            drain_store(store, obs);
            if let Some(path) = &config.flight_path {
                let reason = format!("interrupted after stage {}", stage.name());
                let suspects = flight::suspects(&obs.provenance(), 8);
                // Best-effort: a failing dump must never mask the
                // interrupt itself.
                let _ = flight::write_dump(
                    path,
                    obs,
                    Some(&task_stamps(timeline)),
                    &reason,
                    &suspects,
                    false,
                );
            }
            return Err(CoreError::Interrupted {
                after: stage.name(),
            });
        }
        Ok(folded.into_iter().flatten().collect())
    }

    /// Opens the configured artifact store. The default per-stage cap
    /// must hold one full generation of per-shard artifacts (plus
    /// headroom for a few config variants), or a single cold run would
    /// evict its own artifacts while writing them. With a cache
    /// directory, the open and its startup recovery are timed as the
    /// `store_open` profile phase: serial work before any shard starts.
    fn open_store(&self, total_shards: usize, obs: &Collector) -> ArtifactStore {
        let start = Instant::now();
        let mut store = match &self.config.cache_dir {
            Some(dir) => ArtifactStore::at(dir.clone(), FORMAT_VERSION),
            None => ArtifactStore::disabled(),
        };
        store = store.with_cap(self.config.cache_cap.unwrap_or(4 * total_shards.max(1)));
        if let Some(plan) = self.config.active_io_faults() {
            store = store.with_faults(Arc::new(SeededIoFaults::new(plan)));
        }
        // Startup recovery: clear any crashed peer's tmp litter and
        // torn frames before the first probe, so even a fully-warm run
        // (which never saves) leaves a clean directory.
        store.reclaim();
        if store.is_enabled() {
            let wall = start.elapsed();
            profile::record_phase(obs, "store_open", wall, wall);
        }
        store
    }
}

/// The bounded-memory reduction of a run: corpus-level counts only.
/// See [`RunSession::run_reduced`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunDigest {
    /// Shards executed.
    pub shards: usize,
    /// Raw documents generated across all shards.
    pub documents: usize,
    /// Disengagement records recovered by Stage II.
    pub disengagements: usize,
    /// Stage III tag assignments produced.
    pub tagged: usize,
    /// Ground-truth corpus miles.
    pub total_miles: f64,
}

/// Applies a `--shards` filter to the enumeration. A list where every
/// label carries a `-` prefix excludes those cells from the full run;
/// any other list selects exactly the named cells. Either way every
/// label must name a real shard — a typo errors out before any stage
/// runs instead of silently shrinking the corpus.
fn filter_shards(all: Vec<ShardSpec>, filter: Option<&[String]>) -> Result<Vec<ShardSpec>> {
    let Some(filter) = filter else {
        return Ok(all);
    };
    let exclude = !filter.is_empty() && filter.iter().all(|l| l.starts_with('-'));
    let mut named: Vec<&str> = Vec::with_capacity(filter.len());
    for item in filter {
        let label = if exclude {
            item.strip_prefix('-')
                .expect("exclude lists are all-prefixed")
        } else {
            item.as_str()
        };
        if !all.iter().any(|s| s.label() == label) {
            return Err(CoreError::UnknownShard {
                label: label.to_owned(),
            });
        }
        named.push(label);
    }
    Ok(all
        .into_iter()
        .filter(|s| {
            let hit = named.iter().any(|n| *n == s.label());
            if exclude {
                !hit
            } else {
                hit
            }
        })
        .collect())
}

/// One shard's yield from Stages I–III, with the shard's document
/// count and its text bytes before and after Stage I digitizes it
/// (counted before Stage II takes the documents).
struct ShardYield {
    corpus: GroundTruth,
    ocr: Option<OcrStats>,
    normalize: NormalizeArtifact,
    assignments: Vec<TagAssignment>,
    documents: u64,
    corpus_bytes: u64,
    digitized_bytes: u64,
}

/// Weighted fold of per-shard [`OcrStats`] — document-count-weighted
/// means, so empty shards contribute nothing and the merged CER equals
/// the corpus-wide per-document mean.
#[derive(Default)]
struct OcrFold {
    any: bool,
    documents: usize,
    cer_sum: f64,
    conf_sum: f64,
}

impl OcrFold {
    fn absorb(&mut self, stats: &OcrStats) {
        self.any = true;
        self.documents += stats.documents;
        self.cer_sum += stats.mean_cer * stats.documents as f64;
        self.conf_sum += stats.mean_confidence * stats.documents as f64;
    }

    fn finish(self) -> Option<OcrStats> {
        if !self.any {
            return None;
        }
        // An empty batch reports 0.0 means, not 0/0 = NaN.
        if self.documents == 0 {
            return Some(OcrStats {
                documents: 0,
                mean_cer: 0.0,
                mean_confidence: 0.0,
            });
        }
        let n = self.documents as f64;
        Some(OcrStats {
            documents: self.documents,
            mean_cer: self.cer_sum / n,
            mean_confidence: self.conf_sum / n,
        })
    }
}

/// The reduce-stage accumulator: folds [`ShardYield`]s in enumeration
/// order. Record order is preserved exactly — each shard's documents
/// are contiguous in the global corpus, so concatenation reproduces
/// the monolithic order byte for byte.
#[derive(Default)]
struct MergeFold {
    corpus: GroundTruth,
    disengagements: Vec<DisengagementRecord>,
    accidents: Vec<AccidentRecord>,
    mileage: Vec<MonthlyMileage>,
    failures: Vec<ReportError>,
    panicked: Vec<Quarantined>,
    chaos: Option<ChaosAudit>,
    assignments: Vec<TagAssignment>,
    ocr: OcrFold,
    documents: u64,
    corpus_bytes: u64,
    digitized_bytes: u64,
}

impl MergeFold {
    fn absorb(&mut self, yielded: ShardYield) {
        self.corpus.truth.merge(yielded.corpus.truth);
        self.corpus
            .intended_tags
            .extend(yielded.corpus.intended_tags);
        if let Some(stats) = &yielded.ocr {
            self.ocr.absorb(stats);
        }
        let n = yielded.normalize;
        self.disengagements.extend(n.disengagements);
        self.accidents.extend(n.accidents);
        self.mileage.extend(n.mileage);
        self.failures.extend(n.failures);
        self.panicked.extend(n.panicked);
        if let Some(audit) = &n.chaos {
            self.chaos
                .get_or_insert_with(ChaosAudit::default)
                .absorb(audit);
        }
        self.assignments.extend(yielded.assignments);
        self.documents += yielded.documents;
        self.corpus_bytes += yielded.corpus_bytes;
        self.digitized_bytes += yielded.digitized_bytes;
    }
}

/// Records the process's memory profile under one stage's gauges
/// (`profile.mem.stage_<name>.*`): kernel-reported peak RSS plus the
/// counting allocator's live and peak-live bytes. Environment facts —
/// `profile.`-stripped from the canonical report — and recorded
/// outside the stage shards so cached artifacts never replay a cold
/// run's footprint.
fn record_stage_memory(obs: &Collector, name: &str) {
    if let Some(rss) = profile::peak_rss_bytes() {
        obs.gauge(
            &format!("profile.mem.stage_{name}.peak_rss_bytes"),
            rss as f64,
        );
    }
    let stats = profile::alloc_stats();
    if stats.calls > 0 {
        obs.gauge(
            &format!("profile.mem.stage_{name}.live_bytes"),
            stats.live_bytes as f64,
        );
        obs.gauge(
            &format!("profile.mem.stage_{name}.peak_live_bytes"),
            stats.peak_live_bytes as f64,
        );
    }
}

/// Runs Stages I–III for one shard, each stage through the artifact
/// cache under the shard's own fingerprints; `None` when `abort_after`
/// stops it before Stage III. Runs entirely inside one coarse-map
/// worker: `obs` is that worker's collector shard, absorbed by the main
/// thread in enumeration order after the map joins.
///
/// Only the `last` planned shard reads the `profile.mem.stage_*`
/// gauges. Gauges overwrite on absorb, and the in-order absorb keeps
/// the last shard's readings, so reading them in every shard would
/// cost a `/proc/self/status` read per stage and shard for values
/// that are then overwritten.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    config: &RunConfig,
    classifier: &Classifier,
    dict_dropped: Option<u64>,
    generator: &CorpusGenerator,
    spec: &ShardSpec,
    keys: &StageKeys,
    inner_jobs: usize,
    last: bool,
    store: &ArtifactStore,
    obs: &Collector,
    timeline: &TaskTimeline,
) -> Option<ShardYield> {
    let stage_memory = |stage: Stage| {
        if last {
            record_stage_memory(obs, stage.name());
        }
    };
    let mut shard_span = obs.span("shard");
    shard_span.field("label", spec.label());
    shard_span.field("docs", spec.doc_count as u64);

    // Stage `corpus`: generate this cell's slice of the ground truth and
    // its documents. The documents go on to Stage II, their last reader.
    let Corpus {
        truth,
        intended_tags,
        documents,
    } = cached_stage(
        store,
        Stage::Corpus,
        keys.corpus,
        true,
        obs,
        artifact::enc_corpus,
        artifact::dec_corpus,
        |sobs| {
            let mut span = sobs.span("stage_i_corpus");
            let corpus = generator.generate_shard(spec);
            // The shard's slice of the Stage I counters, which sum
            // across shards to the corpus-wide values. Every record of
            // a shard is its manufacturer's. The `corpus.total_miles`
            // gauge is the merge's: gauges overwrite on absorb.
            let records = corpus.truth.disengagements().len() as u64;
            sobs.add("corpus.disengagements", records);
            sobs.add("corpus.accidents", corpus.truth.accidents().len() as u64);
            sobs.add("corpus.documents", corpus.documents.len() as u64);
            let per_manufacturer = format!(
                "corpus.dis.{}",
                disengage_obs::key_segment(spec.manufacturer.name())
            );
            sobs.record_batch([(per_manufacturer.as_str(), records)], []);
            span.field("records", records);
            corpus
        },
    );
    let corpus = GroundTruth {
        truth,
        intended_tags,
    };
    let text_bytes = |docs: &[RawDocument]| docs.iter().map(|d| d.text.len() as u64).sum::<u64>();
    let document_count = documents.len() as u64;
    let corpus_bytes = text_bytes(&documents);
    stage_memory(Stage::Corpus);
    if config.abort_after == Some(Stage::Corpus) {
        return None;
    }

    // Stage `digitize`. Passthrough hands the documents on as they are
    // — cheaper than any cache round-trip — so only simulated OCR
    // persists; its key is still always derived so downstream keys
    // chain through the OCR configuration either way.
    let digitize_cacheable = config.ocr != OcrMode::Passthrough;
    let (documents, ocr_stats) = cached_stage(
        store,
        Stage::Digitize,
        keys.digitize,
        digitize_cacheable,
        obs,
        artifact::enc_digitized,
        artifact::dec_digitized,
        move |sobs| {
            let mut span = sobs.span("stage_i_ocr");
            match config.ocr {
                OcrMode::Passthrough => {
                    span.field("mode", "passthrough");
                    sobs.add("ocr.documents", documents.len() as u64);
                    sobs.gauge("ocr.mean_cer", 0.0);
                    (documents, None)
                }
                OcrMode::Simulated { noise, correct } => {
                    span.field("mode", "simulated");
                    let digitize = DigitizeConfig {
                        noise,
                        correct,
                        ocr_seed: config.ocr_seed,
                        // Global document indices: the per-document OCR
                        // noise stream derives from the document's
                        // corpus-wide index, so a shard digitizes
                        // byte-identically to its slice of a monolithic
                        // run.
                        base_index: spec.doc_base,
                        repair_attempts: config.repair_attempts(),
                        jobs: inner_jobs,
                    };
                    // The per-document phases go to the worker
                    // collector, as `cached_stage`'s own do: the stage
                    // shard's state is what the artifact persists.
                    let (out, stats) =
                        digitize_simulated_parts(digitize, &documents, sobs, obs, timeline);
                    (out, Some(stats))
                }
            }
        },
    );
    let digitized_bytes = text_bytes(&documents);
    stage_memory(Stage::Digitize);
    if config.abort_after == Some(Stage::Digitize) {
        return None;
    }

    // Stage `normalize`: chaos interlude (if armed) + Stage II
    // parse/filter/normalize, one task per document.
    let doc_base = spec.doc_base;
    let normalize = cached_stage(
        store,
        Stage::Normalize,
        keys.normalize,
        true,
        obs,
        artifact::enc_normalized,
        artifact::dec_normalized,
        move |sobs| normalize_stage(config, documents, doc_base, inner_jobs, sobs, timeline),
    );
    stage_memory(Stage::Normalize);
    if config.abort_after == Some(Stage::Normalize) {
        return None;
    }

    // Stage `tag`: NLP tagging over this shard's records, through the
    // run-wide (possibly chaos-poisoned) classifier.
    let assignments = cached_stage(
        store,
        Stage::Tag,
        keys.tag,
        true,
        obs,
        artifact::enc_assignments,
        artifact::dec_assignments,
        |sobs| {
            let mut span = sobs.span("stage_iii_tag");
            for name in ["nlp.tagged", "nlp.unknown_t"] {
                sobs.add(name, 0);
            }
            if let Some(dropped) = dict_dropped {
                span.field("dict_dropped", dropped);
            }
            let tagged = tag_records(
                classifier,
                &normalize.disengagements,
                &normalize.record_ids,
                inner_jobs,
                sobs,
                timeline,
            );
            span.field("tagged", tagged.len() as u64);
            tagged
        },
    );
    stage_memory(Stage::Tag);
    Some(ShardYield {
        corpus,
        ocr: ocr_stats,
        normalize,
        assignments,
        documents: document_count,
        corpus_bytes,
        digitized_bytes,
    })
}

/// Feeds the store's internal degraded-path ledgers (`cache.io.*`,
/// `cache.tmp.*`, `cache.torn.*` — all stripped from `canonical()`) into the
/// run collector so `telemetry::reconcile` can check the fault
/// accounting identity, and its named reclaim/evict events into the
/// flight ring (environment facts, stripped from canonical dumps).
fn drain_store(store: &ArtifactStore, obs: &Collector) {
    for (name, value) in store.take_counters() {
        if value > 0 {
            obs.add(name, value);
        }
    }
    for (name, detail) in store.take_events() {
        obs.event(name, &detail);
    }
}

/// The `normalize` stage body: chaos inject + bounded repair + audit
/// (when a plan is armed), then Stage II parse/filter/normalize.
/// Records exclusively into the stage's `sobs` shard so the whole
/// stage can be snapshotted into a cache artifact. `doc_base` is the
/// batch's global corpus offset: chaos seeds and lineage subjects use
/// corpus-wide document indices, which is what keeps a shard's
/// artifact byte-identical to its slice of a monolithic run.
fn normalize_stage(
    config: &RunConfig,
    documents: Vec<RawDocument>,
    doc_base: usize,
    jobs: usize,
    sobs: &Collector,
    timeline: &TaskTimeline,
) -> NormalizeArtifact {
    // Chaos: perturb the digitized batch between Stage I and Stage II
    // (where real corruption enters), run the bounded dictionary-repair
    // ladder over it, and audit every fault against its outcome.
    let (documents, chaos_audit) = match config.active_chaos() {
        None => (documents, None),
        Some(plan) => {
            let mut span = sobs.span("chaos_inject");
            span.field("rate_pct", (plan.rate * 100.0) as u64);
            span.field("seed", plan.seed);
            sobs.gauge("chaos.rate", plan.rate);
            let (faulted, log) = inject_documents(&plan, &documents, doc_base);
            sobs.add("chaos.injected.total", log.total());
            for kind in FaultKind::ALL {
                sobs.add(&format!("chaos.injected.{}", kind.name()), log.count(kind));
            }
            if sobs.lineage_enabled() {
                for f in &log.faults {
                    sobs.lineage(
                        Subject::Line {
                            doc: f.doc,
                            line: f.line,
                        },
                        ProvenanceEvent::FaultInjected {
                            kind: f.kind.name().to_owned(),
                            line: f.line,
                        },
                    );
                }
            }
            let corrector = default_corrector();
            let per_doc = par::par_map_indexed(
                jobs,
                &faulted,
                |i, doc| {
                    let shard = sobs.shard();
                    let fixed = repair_text(
                        corrector,
                        &doc.text,
                        plan.repair_attempts,
                        doc_base + i,
                        &shard,
                        &mut |_, _| {},
                    );
                    (
                        RawDocument::new(doc.manufacturer, doc.report_year, doc.kind, fixed),
                        shard,
                    )
                },
                timeline,
                "chaos_repair",
            );
            let repaired: Vec<RawDocument> = per_doc
                .into_iter()
                .map(|(doc, shard)| {
                    sobs.absorb(shard);
                    doc
                })
                .collect();
            sobs.event("chaos.inject", &format!("{} faults injected", log.total()));
            let audited = audit(&plan, &log, &documents, &repaired, doc_base);
            sobs.add("chaos.outcome.corrected", audited.totals.corrected);
            sobs.add("chaos.outcome.quarantined", audited.totals.quarantined);
            sobs.add("chaos.outcome.absorbed", audited.totals.absorbed);
            // A bounded, deterministic sample of the faults the repair
            // ladder could not fix — the postmortem's first suspects.
            for af in audited
                .faults
                .iter()
                .filter(|af| af.outcome == FaultFate::Quarantined)
                .take(8)
            {
                sobs.event("chaos.quarantined", &af.fault.describe());
            }
            if sobs.lineage_enabled() {
                for af in &audited.faults {
                    sobs.lineage(
                        Subject::Line {
                            doc: af.fault.doc,
                            line: af.fault.line,
                        },
                        ProvenanceEvent::FaultOutcome {
                            kind: af.fault.kind.name().to_owned(),
                            line: af.fault.line,
                            outcome: af.outcome.name().to_owned(),
                        },
                    );
                }
            }
            span.field("faults", log.total());
            (repaired, Some(audited))
        }
    };

    // Stage II: parse + filter + normalize, one task per document. A
    // panicking parser quarantines that document alone; the rest of
    // the batch parses normally.
    let mut span = sobs.span("stage_ii_parse");
    // Pre-register the headline counters so a clean run still exports
    // them (at zero) for machine consumers.
    for name in ["parse.dis.lines", "parse.dis.parsed", "parse.dis.failed"] {
        sobs.add(name, 0);
    }
    let per_doc = par::par_map_catch(
        jobs,
        &documents,
        |i, doc| {
            let shard = sobs.shard();
            let (normalized, ids) = normalize_document_traced(doc, doc_base + i, Some(&shard));
            (normalized, ids, shard)
        },
        timeline,
        "stage_ii_parse",
    );
    let mut normalized = Normalized::default();
    let mut record_ids: Vec<RecordId> = Vec::new();
    let mut panicked: Vec<Quarantined> = Vec::new();
    for outcome in per_doc {
        match outcome {
            Ok((n, ids, shard)) => {
                sobs.absorb(shard);
                record_ids.extend(ids);
                normalized.merge(n);
            }
            Err(p) => {
                sobs.incr("parse.docs.panicked");
                if sobs.lineage_enabled() {
                    sobs.lineage(
                        Subject::Document(doc_base + p.index),
                        ProvenanceEvent::Quarantined {
                            stage: "stage_ii_parse".to_owned(),
                            reason: format!("parser panicked: {}", p.message),
                        },
                    );
                }
                panicked.push(Quarantined {
                    stage: "stage_ii_parse",
                    record_id: format!("doc:{}", doc_base + p.index),
                    reason: format!("parser panicked: {}", p.message),
                });
            }
        }
    }
    span.field("parsed", normalized.record_count() as u64);
    span.field("failed", normalized.failures.len() as u64);
    NormalizeArtifact {
        disengagements: normalized.disengagements,
        accidents: normalized.accidents,
        mileage: normalized.mileage,
        failures: normalized.failures,
        panicked,
        record_ids,
        chaos: chaos_audit,
    }
}

/// Runs one stage through the cache: probe, replay on hit, otherwise
/// compute into a fresh collector shard, persist the envelope (the
/// shard's telemetry state and lineage beside the value), and absorb
/// the shard. Every path is deterministic and byte-identical to every
/// other; only the `cache.*` counters differ.
///
/// The self-profiler sees each run as phases on the run-global
/// collector: `stage_<name>` covering the whole call (self time
/// excludes the probe and the save), `stage_<name>;cache_lookup`
/// covering the probe + decode, and, on a miss,
/// `stage_<name>;cache_save` covering the commit and its evictions.
/// The phases land outside the stage shard, so cache artifacts carry
/// no profiler wall time and warm replays re-measure their own.
///
/// A miss computes and commits with no coordination: a concurrent
/// session (thread or process) missing the same key computes it too
/// and commits the identical frame, so a race costs duplicated work,
/// never different bytes.
#[allow(clippy::too_many_arguments)]
fn cached_stage<T>(
    store: &ArtifactStore,
    stage: Stage,
    key: Fingerprint,
    cacheable: bool,
    obs: &Collector,
    encode: impl FnOnce(&mut Enc, &T),
    decode: impl FnOnce(&mut Dec) -> Option<T>,
    compute: impl FnOnce(&Collector) -> T,
) -> T {
    let stage_start = Instant::now();
    let phase_root = format!("stage_{}", stage.name());
    let (mut lookup, mut save) = (Duration::ZERO, Duration::ZERO);
    let caching = cacheable && store.is_enabled();
    let mut replayed: Option<T> = None;
    if caching {
        let lookup_start = Instant::now();
        let decoded = match store.load(stage.name(), key) {
            Lookup::Hit(bytes) => match artifact::decode_stage(&bytes, decode) {
                Some(hit) => Some(hit),
                // Framed and checksummed but structurally wrong — an
                // artifact from a buggy or foreign writer. Recompute.
                None => {
                    obs.add("cache.corrupt", 1);
                    None
                }
            },
            Lookup::Corrupt => {
                obs.add("cache.corrupt", 1);
                None
            }
            Lookup::Miss => None,
        };
        lookup = lookup_start.elapsed();
        profile::record_phase(obs, &format!("{phase_root};cache_lookup"), lookup, lookup);
        match decoded {
            Some((state, entries, value)) => {
                obs.add("cache.hit", 1);
                obs.add(&format!("cache.hit.{}", stage.name()), 1);
                obs.debug(&format!("cache hit: replaying stage {}", stage.name()));
                obs.absorb_state(state);
                obs.absorb_lineage(entries);
                replayed = Some(value);
            }
            None => {
                obs.add("cache.miss", 1);
                obs.add(&format!("cache.miss.{}", stage.name()), 1);
                obs.debug(&format!("cache miss: computing stage {}", stage.name()));
            }
        }
    }
    let value = match replayed {
        Some(value) => value,
        None => {
            let sobs = obs.shard();
            let value = compute(&sobs);
            if caching {
                let bytes = artifact::encode_stage(
                    &sobs.state(),
                    sobs.provenance().entries(),
                    &value,
                    encode,
                );
                let save_start = Instant::now();
                let evicted = store.save(stage.name(), key, &bytes);
                save = save_start.elapsed();
                profile::record_phase(obs, &format!("{phase_root};cache_save"), save, save);
                if evicted > 0 {
                    obs.add("cache.evict", evicted as u64);
                }
            }
            obs.absorb(sobs);
            value
        }
    };
    let wall = stage_start.elapsed();
    profile::record_phase(obs, &phase_root, wall, wall.saturating_sub(lookup + save));
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RunConfig {
        RunConfig::new().with_corpus(CorpusConfig {
            seed: 11,
            scale: 0.05,
        })
    }

    #[test]
    fn stage_names_are_unique() {
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len(), "stage names must be unique");
    }

    #[test]
    fn stage_keys_chain_upstream_changes_downstream() {
        let base = RunSession::new(small());
        let k1 = base.stage_keys(false);
        // Same config, same keys.
        assert_eq!(k1, RunSession::new(small()).stage_keys(false));
        // A corpus change ripples through every downstream key.
        let k2 = RunSession::new(small().with_corpus(CorpusConfig {
            seed: 12,
            scale: 0.05,
        }))
        .stage_keys(false);
        assert_ne!(k1.corpus, k2.corpus);
        assert_ne!(k1.digitize, k2.digitize);
        assert_ne!(k1.normalize, k2.normalize);
        assert_ne!(k1.tag, k2.tag);
        // Lineage recording is part of every key.
        let traced = base.stage_keys(true);
        assert_ne!(k1.corpus, traced.corpus);
        // A chaos change leaves Stage I keys alone but moves the rest.
        let k3 = RunSession::new(small().with_chaos(FaultPlan::new(0.05, 7))).stage_keys(false);
        assert_eq!(k1.corpus, k3.corpus);
        assert_eq!(k1.digitize, k3.digitize);
        assert_ne!(k1.normalize, k3.normalize);
        assert_ne!(k1.tag, k3.tag);
        // An inert (rate-0) plan keys identically to no plan at all.
        let k4 = RunSession::new(small().with_chaos(FaultPlan::new(0.0, 7))).stage_keys(false);
        assert_eq!(k1, k4);
    }

    #[test]
    fn for_stage_covers_the_cached_graph() {
        let keys = RunSession::new(small()).stage_keys(false);
        assert_eq!(keys.for_stage(Stage::Corpus), keys.corpus);
        assert_eq!(keys.for_stage(Stage::Digitize), keys.digitize);
        assert_eq!(keys.for_stage(Stage::Normalize), keys.normalize);
        assert_eq!(keys.for_stage(Stage::Tag), keys.tag);
    }
}
