//! The four workloads, their set-up, and one end-to-end iteration each.
//!
//! An iteration is what one `repro` invocation does: run the stage
//! graph through [`RunSession`], then compute and render every Stage IV
//! artifact (without printing it). Each workload exercises a different
//! layer mix — see `README.md` for why each was chosen.

use crate::render::{self, Inputs, ARTIFACTS};
use disengage_core::pipeline::{OcrMode, PipelineOutcome};
use disengage_core::tagging::tagging_accuracy;
use disengage_core::telemetry::{reconcile, timed};
use disengage_core::{RunConfig, RunSession};
use disengage_corpus::CorpusConfig;
use disengage_nlp::{Classifier, FailureDictionary, FaultTag};
use disengage_obs::{Collector, TelemetryReport};
use disengage_ocr::NoiseModel;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default corpus seed (`repro`'s full-scale corpus).
pub const CORPUS_SEED: u64 = 0x5EED;
/// Default OCR noise seed (`RunConfig`'s default).
pub const OCR_SEED: u64 = 0xD0C5;
/// `scan_ocr` corpus scale: small enough that simulated OCR — which
/// grows faster than the corpus — still completes 100 iterations in a
/// ten-second run on two cores.
const SCAN_OCR_SCALE: f64 = 0.05;
/// Corpus scale of every workload under `--smoke`.
pub const SMOKE_SCALE: f64 = 0.05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default `repro`: full scale, passthrough OCR, no cache.
    PaperCold,
    /// Stage I at work: simulated OCR with correction, no cache.
    ScanOcr,
    /// Dictionary tuning: Stages I–II replayed from a warm cache, a
    /// new dictionary (and so new tag artifacts) every iteration.
    DictSweep,
    /// A rerun with `--cache-dir`: every stage replayed read-only.
    WarmReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCold,
        Workload::ScanOcr,
        Workload::DictSweep,
        Workload::WarmReplay,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::ScanOcr => "scan_ocr",
            Workload::DictSweep => "dict_sweep",
            Workload::WarmReplay => "warm_replay",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self) -> f64 {
        match self {
            Workload::ScanOcr => SCAN_OCR_SCALE,
            _ => 1.0,
        }
    }

    /// Whether Stage I runs the simulated scanner + OCR engine.
    pub fn simulated_ocr(self) -> bool {
        matches!(self, Workload::ScanOcr | Workload::DictSweep)
    }

    /// Whether the run goes through the artifact cache.
    pub fn cached(self) -> bool {
        matches!(self, Workload::DictSweep | Workload::WarmReplay)
    }

    /// Whether every run tags with a fresh dictionary.
    pub fn sweeps_dictionary(self) -> bool {
        self == Workload::DictSweep
    }
}

/// What the command line fixes for a run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Corpus generator seed.
    pub corpus_seed: u64,
    /// OCR noise seed.
    pub ocr_seed: u64,
    /// Seed of the dictionary sweep's never-matching phrases.
    pub sweep_seed: u64,
    /// Worker-pool size of the end-to-end iterations.
    pub jobs: usize,
    /// Scale override (`--smoke`).
    pub scale: Option<f64>,
}

impl Params {
    /// Defaults, or every seed derived from `seed`.
    pub fn new(seed: Option<u64>, jobs: usize, scale: Option<f64>) -> Params {
        let (corpus_seed, ocr_seed, sweep_seed) = match seed {
            None => (CORPUS_SEED, OCR_SEED, 0),
            Some(s) => (s, splitmix(s ^ OCR_SEED), splitmix(s)),
        };
        Params {
            corpus_seed,
            ocr_seed,
            sweep_seed,
            jobs,
            scale,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A phrase no generated description contains: `zq` plus sixteen
/// letters drawn from `(seed, n)`. Adding it to the dictionary changes
/// every tag-stage cache key but no verdict.
pub fn never_matching_phrase(seed: u64, n: u64) -> String {
    let x = splitmix(seed ^ splitmix(n));
    let mut phrase = String::from("zq");
    phrase.extend((0..16).map(|i| char::from(b'a' + ((x >> (4 * i)) & 15) as u8)));
    phrase
}

/// `default_bank` plus one never-matching phrase.
pub fn sweep_classifier(seed: u64, n: u64) -> Classifier {
    let mut dict = FailureDictionary::default_bank();
    dict.add_phrase(FaultTag::Software, &never_matching_phrase(seed, n));
    Classifier::new(dict)
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes once its last run directory has.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One end-to-end run's output.
pub struct Run {
    /// Which of the workload's inputs the run processed.
    pub input: usize,
    /// Every artifact, rendered as `repro` prints it.
    pub text: String,
    /// Disengagement records the run recovered.
    pub records: usize,
    /// The run's telemetry (Stages I–IV).
    pub telemetry: TelemetryReport,
}

/// One input of a workload: its configuration, its session, and the
/// bytes every run of it must render.
pub struct Input {
    pub config: RunConfig,
    session: RunSession,
    pub reference: String,
}

/// A workload ready to iterate: its inputs, its (warm, if cached)
/// cache directory, and the reference output of each input.
pub struct Setup {
    pub workload: Workload,
    pub params: Params,
    /// Runs cycle through these.
    pub inputs: Vec<Input>,
    /// The default-dictionary classifier Table II renders with.
    pub table2: Classifier,
    /// Shards the corpus enumerates.
    pub shards: usize,
    runs: Cell<u64>,
    _dir: Option<WorkDir>,
}

/// What the next run processes.
pub struct Next {
    /// Index into [`Setup::inputs`].
    pub input: usize,
    /// The sweep dictionary's classifier (`dict_sweep` only).
    pub classifier: Option<Classifier>,
}

/// OCR noise seeds `scan_ocr` cycles through. OCR cost follows the
/// noise each scan draws (recognition errors lengthen correction and
/// the edit-distance check), so a run spreads its iterations over
/// several draws rather than riding on one.
const SCAN_OCR_INPUTS: u64 = 8;

/// Builds the workload's sessions and runs each input once: the cold
/// cache fill for the cached workloads, a first run for the others.
/// Returns the ready workload, the set-up wall time in seconds, and the
/// set-up runs' outcomes (for [`validate_reference`]).
///
/// # Errors
///
/// A failing run or an unwritable scratch directory.
pub fn setup(
    workload: Workload,
    params: Params,
    scratch: &Path,
) -> Result<(Setup, f64, Vec<PipelineOutcome>), String> {
    let start = Instant::now();
    let scale = params.scale.unwrap_or_else(|| workload.scale());
    let mut base = RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: params.corpus_seed,
            scale,
        })
        .with_jobs(params.jobs)
        .without_flight_dump();
    if workload.simulated_ocr() {
        base = base.with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        });
    }
    let dir = if workload.cached() {
        let dir =
            WorkDir::create(scratch.join(format!("{}-{}", workload.name(), std::process::id())))?;
        base = base.with_cache_dir(&dir.0);
        Some(dir)
    } else {
        None
    };
    let ocr_seeds: Vec<u64> = match workload {
        Workload::ScanOcr => (0..SCAN_OCR_INPUTS)
            .map(|k| {
                if k == 0 {
                    params.ocr_seed
                } else {
                    splitmix(params.ocr_seed ^ k)
                }
            })
            .collect(),
        _ => vec![params.ocr_seed],
    };
    let table2 = Classifier::with_default_dictionary();
    let mut inputs = Vec::with_capacity(ocr_seeds.len());
    let mut outcomes = Vec::with_capacity(ocr_seeds.len());
    for seed in ocr_seeds {
        let config = base.clone().with_ocr_seed(seed);
        let session = RunSession::new(config.clone());
        let obs = Collector::new();
        let outcome = session.run_with(&obs).map_err(|e| e.to_string())?;
        let reference = render_all(&outcome, &table2, &obs);
        inputs.push(Input {
            config,
            session,
            reference,
        });
        outcomes.push(outcome);
    }
    let secs = start.elapsed().as_secs_f64();
    let shards = disengage_corpus::CorpusGenerator::new(base.corpus)
        .shards()
        .len();
    let ready = Setup {
        workload,
        params,
        inputs,
        table2,
        shards,
        runs: Cell::new(0),
        _dir: dir,
    };
    Ok((ready, secs, outcomes))
}

/// Renders every artifact of a run, each inside a `stage_iv_<name>`
/// span as `repro` records it.
pub fn render_all(o: &PipelineOutcome, table2: &Classifier, obs: &Collector) -> String {
    let inputs = Inputs {
        database: &o.database,
        tagged: &o.tagged,
        intended_tags: &o.corpus.intended_tags,
        classifier: table2,
    };
    let mut out = String::new();
    for artifact in ARTIFACTS {
        out.push_str(&timed(obs, &format!("stage_iv_{artifact}"), || {
            render::render(artifact, &inputs)
        }));
    }
    out
}

/// Checks the set-up run against properties that hold independently
/// of the code under test: counters reconcile across stages, every
/// recovered record has a verdict, a pristine scan recovers every
/// generated record and tags each with its intended tag, and a light
/// noisy scan still recovers nearly all of them.
///
/// # Errors
///
/// The first property that fails.
pub fn validate_reference(o: &PipelineOutcome, simulated_ocr: bool) -> Result<(), String> {
    let violations = reconcile(&o.telemetry);
    if !violations.is_empty() {
        return Err(format!(
            "telemetry does not reconcile: {}",
            violations.join("; ")
        ));
    }
    if o.tagged.len() != o.database.disengagements().len() {
        return Err("tag verdicts do not align with records".to_owned());
    }
    if simulated_ocr {
        let cer = o.ocr.map_or(1.0, |s| s.mean_cer);
        if o.recovery_rate() < 0.9 || cer >= 0.05 {
            return Err(format!(
                "light-noise OCR recovered {:.3} of the records at CER {cer:.4}",
                o.recovery_rate()
            ));
        }
        return Ok(());
    }
    let truth = &o.corpus.truth;
    let accuracy = tagging_accuracy(&o.tagged, &o.corpus.intended_tags).tag_accuracy;
    if !o.parse_failures.is_empty()
        || o.database.disengagements().len() != truth.disengagements().len()
        || o.database.accidents().len() != truth.accidents().len()
        || o.database.mileage().len() != truth.mileage().len()
        || accuracy != 1.0
    {
        return Err(format!(
            "a pristine scan lost records or verdicts ({} parse failures, tag accuracy {accuracy})",
            o.parse_failures.len()
        ));
    }
    Ok(())
}

impl Setup {
    /// The references of every input, in order.
    pub fn references(&self) -> Vec<&str> {
        self.inputs.iter().map(|i| i.reference.as_str()).collect()
    }

    /// The next run's input (runs cycle through them) and, for
    /// `dict_sweep`, its fresh dictionary.
    pub fn next(&self) -> Next {
        let n = self.runs.get();
        self.again((n % self.inputs.len() as u64) as usize)
    }

    /// Another run of `input`, with a fresh dictionary for `dict_sweep`.
    pub fn again(&self, input: usize) -> Next {
        let n = self.runs.get();
        self.runs.set(n + 1);
        Next {
            input,
            classifier: self
                .workload
                .sweeps_dictionary()
                .then(|| sweep_classifier(self.params.sweep_seed, n)),
        }
    }

    /// One user-visible run of the next input at `jobs` workers.
    ///
    /// # Errors
    ///
    /// The session's error.
    pub fn run(&self, jobs: usize) -> Result<Run, String> {
        self.run_next(self.next(), jobs)
    }

    /// One user-visible run of `next` at `jobs` workers: the stage
    /// graph, then every artifact rendered.
    ///
    /// # Errors
    ///
    /// The session's error.
    pub fn run_next(&self, next: Next, jobs: usize) -> Result<Run, String> {
        let input = &self.inputs[next.input];
        let built;
        let session = match next.classifier {
            Some(classifier) => {
                built =
                    RunSession::with_classifier(input.config.clone().with_jobs(jobs), classifier);
                &built
            }
            None if jobs == input.config.jobs => &input.session,
            None => {
                built = RunSession::new(input.config.clone().with_jobs(jobs));
                &built
            }
        };
        let obs = Collector::new();
        let outcome = session.run_with(&obs).map_err(|e| e.to_string())?;
        let text = render_all(&outcome, &self.table2, &obs);
        Ok(Run {
            input: next.input,
            text,
            records: outcome.database.disengagements().len(),
            telemetry: outcome.telemetry,
        })
    }

    /// Checks one run: byte-identical output, reconciling counters, and
    /// the cache traffic the workload is defined by.
    ///
    /// # Errors
    ///
    /// What differs.
    pub fn check(&self, run: &Run) -> Result<(), String> {
        let reference = &self.inputs[run.input].reference;
        if run.text != *reference {
            let at = run
                .text
                .bytes()
                .zip(reference.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(run.text.len().min(reference.len()));
            return Err(format!("output differs from the reference at byte {at}"));
        }
        let violations = reconcile(&run.telemetry);
        if !violations.is_empty() {
            return Err(format!(
                "telemetry does not reconcile: {}",
                violations.join("; ")
            ));
        }
        let t = &run.telemetry;
        let (hits, misses) = (t.counter("cache.hit"), t.counter("cache.miss"));
        let shards = self.shards as u64;
        let expected = match self.workload {
            Workload::PaperCold | Workload::ScanOcr => hits == 0 && misses == 0,
            // corpus, digitize and normalize replay; tag recomputes.
            Workload::DictSweep => {
                hits == 3 * shards && misses == shards && t.counter("cache.miss.tag") == shards
            }
            // Passthrough digitize is never cached.
            Workload::WarmReplay => hits == 3 * shards && misses == 0,
        };
        if !expected {
            return Err(format!(
                "unexpected cache traffic for {}: {hits} hits, {misses} misses",
                self.workload.name()
            ));
        }
        Ok(())
    }
}
