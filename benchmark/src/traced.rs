//! The traced pass: the pipeline composed from each layer's public
//! function at one worker, every layer call timed from outside.
//!
//! Per shard it generates the corpus slice (`generate_shard`),
//! digitizes it (`digitize_simulated_with`, or the passthrough copy),
//! normalizes every document (`normalize_document`) and classifies
//! every record (`Classifier::classify`) — or, where the workload has
//! a cache, loads and decodes the stage artifact `RunSession` would
//! replay (`ArtifactStore::load`, `artifact::decode_stage`), and for a
//! swept dictionary encodes and saves the new tag artifact. Then the
//! merge (`FailureDatabase::from_records` and the tag zip) and every
//! Stage IV artifact. The rendered bytes must equal `RunSession`'s.

use crate::alloc;
use crate::render::{self, Inputs, ARTIFACTS};
use crate::workload::{Next, Setup};
use disengage_cache::{ArtifactStore, Dec, Fingerprint, Fp, Lookup};
use disengage_core::artifact::{self, FORMAT_VERSION};
use disengage_core::pipeline::{digitize_simulated_with, DigitizeConfig, OcrMode};
use disengage_core::tagging::TaggedDisengagement;
use disengage_core::{RunSession, StageKeys};
use disengage_corpus::{CorpusGenerator, ShardSpec};
use disengage_nlp::TagAssignment;
use disengage_obs::json::Value;
use disengage_obs::Collector;
use disengage_reports::formats::RawDocument;
use disengage_reports::normalize::{normalize_document, Normalized};
use disengage_reports::FailureDatabase;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call (or a grouping span: `iteration`, `shard`,
/// `stage_iv`, `session_jobs<N>`).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Shard label, for `shard` spans.
    pub label: Option<String>,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// Allocation calls inside the span (counted passes only).
    pub allocs: u64,
    pub iteration: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Grouping spans; every other span is one layer call.
const GROUPS: [&str; 3] = ["iteration", "shard", "stage_iv"];

/// Whether `name` is a layer call (a leaf of the span tree).
pub fn is_layer(name: &str) -> bool {
    !GROUPS.contains(&name) && !name.starts_with("session_")
}

/// An in-memory span recorder on one clock.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub iteration: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    fn open(&mut self, name: &str, label: Option<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            label,
            parent: self.stack.last().copied(),
            start_s: 0.0,
            end_s: 0.0,
            allocs: alloc::calls(),
            iteration: self.iteration,
        });
        self.stack.push(id);
        // Read the clock last, so the bookkeeping above stays outside.
        self.spans[id].start_s = self.epoch.elapsed().as_secs_f64();
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.epoch.elapsed().as_secs_f64();
        let allocs = alloc::calls();
        let span = &mut self.spans[id];
        span.end_s = end;
        span.allocs = allocs - span.allocs;
        self.stack.pop();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None);
        let out = f();
        self.close(id);
        out
    }
}

/// Work counts of one traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub corpus_bytes: u64,
    pub ocr_bytes: u64,
    pub ocr_documents: u64,
    /// Σ per-shard mean CER × documents.
    pub ocr_cer_weighted: f64,
    pub report_lines: u64,
    pub report_failures: u64,
    pub records_classified: u64,
    pub probes: u64,
    pub hits: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub evictions: u64,
}

/// The per-shard stage keys `RunSession` files artifacts under: each
/// chains the run-level key with the shard's identity and the same
/// shard's upstream key.
struct ShardKeys {
    corpus: Fingerprint,
    digitize: Fingerprint,
    normalize: Fingerprint,
    tag: Fingerprint,
}

fn shard_keys(keys: &StageKeys, spec: &ShardSpec) -> ShardKeys {
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
    let corpus = chain(keys.corpus, None);
    let digitize = chain(keys.digitize, Some(corpus));
    let normalize = chain(keys.normalize, Some(digitize));
    let tag = chain(keys.tag, Some(normalize));
    ShardKeys {
        corpus,
        digitize,
        normalize,
        tag,
    }
}

/// Loads and decodes one stage artifact; `None` on a miss, which the
/// caller then computes.
fn replay<T>(
    store: &ArtifactStore,
    stage: &str,
    key: Fingerprint,
    dec: fn(&mut Dec) -> Option<T>,
    t: &mut Tracer,
    c: &mut Counts,
) -> Option<T> {
    if !store.is_enabled() {
        return None;
    }
    c.probes += 1;
    let Lookup::Hit(bytes) = t.span("cache.load", || store.load(stage, key)) else {
        return None;
    };
    c.bytes_read += bytes.len() as u64;
    let value = t.span("cache.decode", || {
        artifact::decode_stage(&bytes, dec).map(|(_, _, v)| v)
    })?;
    c.hits += 1;
    Some(value)
}

/// Runs the composed pipeline once over `next`'s input, inside one
/// `iteration` span. Returns the rendered output and the pass's work
/// counts.
pub fn composed(setup: &Setup, next: &Next, t: &mut Tracer) -> (String, Counts) {
    let config = &setup.inputs[next.input].config;
    let classifier = next.classifier.as_ref().unwrap_or(&setup.table2);
    let keys = RunSession::with_classifier(config.clone(), classifier.clone()).stage_keys(false);
    let generator = CorpusGenerator::new(config.corpus);
    let specs = generator.shards();
    let store = match &config.cache_dir {
        // RunSession's default cap: four generations of every shard.
        Some(dir) => ArtifactStore::at(dir.clone(), FORMAT_VERSION).with_cap(4 * specs.len()),
        None => ArtifactStore::disabled(),
    };
    let mut c = Counts::default();
    let root = t.open("iteration", None);

    let mut shards = Vec::with_capacity(specs.len());
    for spec in &specs {
        let shard = t.open("shard", Some(spec.label()));
        let k = shard_keys(&keys, spec);
        let corpus = match replay(&store, "corpus", k.corpus, artifact::dec_corpus, t, &mut c) {
            Some(corpus) => corpus,
            None => {
                let corpus = t.span("corpus.generate_shard", || generator.generate_shard(spec));
                c.corpus_bytes += corpus
                    .documents
                    .iter()
                    .map(|d| d.text.len() as u64)
                    .sum::<u64>();
                corpus
            }
        };
        let digitized = match config.ocr {
            // Passthrough is a copy and never cached, as in RunSession.
            OcrMode::Passthrough => None,
            OcrMode::Simulated { .. } => replay(
                &store,
                "digitize",
                k.digitize,
                artifact::dec_digitized,
                t,
                &mut c,
            ),
        };
        let docs = match digitized {
            Some((docs, _)) => docs,
            None => {
                c.ocr_bytes += corpus
                    .documents
                    .iter()
                    .map(|d| d.text.len() as u64)
                    .sum::<u64>();
                match config.ocr {
                    OcrMode::Passthrough => t.span("ocr.digitize", || corpus.documents.clone()),
                    OcrMode::Simulated { noise, correct } => {
                        let dc = DigitizeConfig {
                            noise,
                            correct,
                            ocr_seed: config.ocr_seed,
                            base_index: spec.doc_base,
                            repair_attempts: 1,
                            jobs: 1,
                        };
                        let (docs, stats) = t.span("ocr.digitize", || {
                            digitize_simulated_with(dc, &corpus.documents, &Collector::new())
                        });
                        c.ocr_documents += stats.documents as u64;
                        c.ocr_cer_weighted += stats.mean_cer * stats.documents as f64;
                        docs
                    }
                }
            }
        };
        let normalized = match replay(
            &store,
            "normalize",
            k.normalize,
            artifact::dec_normalized,
            t,
            &mut c,
        ) {
            Some(n) => Normalized {
                disengagements: n.disengagements,
                accidents: n.accidents,
                mileage: n.mileage,
                failures: n.failures,
            },
            None => {
                let n = t.span("reports.normalize_document", || {
                    let mut n = Normalized::default();
                    for doc in &docs {
                        n.merge(normalize_document(doc));
                    }
                    n
                });
                c.report_lines += docs
                    .iter()
                    .map(|d| d.text.lines().count() as u64)
                    .sum::<u64>();
                c.report_failures += n.failures.len() as u64;
                n
            }
        };
        let tags = match replay(&store, "tag", k.tag, artifact::dec_assignments, t, &mut c) {
            Some(tags) => tags,
            None => {
                let tags: Vec<TagAssignment> = t.span("nlp.classify", || {
                    normalized
                        .disengagements
                        .iter()
                        .map(|r| classifier.classify(&r.description))
                        .collect()
                });
                c.records_classified += tags.len() as u64;
                if store.is_enabled() && next.classifier.is_some() {
                    // Written with empty telemetry: the sweep phrase of
                    // this pass is one no session run uses, so no
                    // session ever replays the artifact.
                    let state = Collector::new().state();
                    let bytes = t.span("cache.encode", || {
                        artifact::encode_stage(&state, &[], &tags, artifact::enc_assignments)
                    });
                    c.bytes_written += bytes.len() as u64;
                    c.evictions += t.span("cache.save", || store.save("tag", k.tag, &bytes)) as u64;
                }
                tags
            }
        };
        t.close(shard);
        shards.push((corpus, normalized, tags));
    }

    // The session's merge: fold every shard in enumeration order (the
    // ground truth and documents too, as `RunSession` does), then build
    // the database and zip the verdicts onto its records.
    let (database, tagged, intended_tags, _truth, _documents) = t.span("merge.build", || {
        let mut truth = FailureDatabase::default();
        let mut intended_tags = Vec::new();
        let mut documents: Vec<RawDocument> = Vec::new();
        let mut fold = Normalized::default();
        let mut assignments: Vec<TagAssignment> = Vec::new();
        for (corpus, normalized, tags) in shards {
            truth.merge(corpus.truth);
            intended_tags.extend(corpus.intended_tags);
            documents.extend(corpus.documents);
            fold.merge(normalized);
            assignments.extend(tags);
        }
        let database =
            FailureDatabase::from_records(fold.disengagements, fold.accidents, fold.mileage);
        let tagged: Vec<TaggedDisengagement> = database
            .disengagements()
            .iter()
            .cloned()
            .zip(assignments)
            .map(|(record, assignment)| TaggedDisengagement { record, assignment })
            .collect();
        (database, tagged, intended_tags, truth, documents)
    });

    let inputs = Inputs {
        database: &database,
        tagged: &tagged,
        intended_tags: &intended_tags,
        classifier: &setup.table2,
    };
    let mut text = String::new();
    let stage_iv = t.open("stage_iv", None);
    for a in ARTIFACTS {
        text.push_str(&t.span(&format!("stage_iv.{a}"), || render::render(a, &inputs)));
    }
    t.close(stage_iv);
    t.close(root);
    (text, c)
}

/// Layer totals of one traced iteration.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Σ duration per layer-call name.
    pub layer_s: BTreeMap<String, f64>,
    /// Σ allocation calls per layer-call name.
    pub layer_allocs: BTreeMap<String, u64>,
    /// Σ layer time per shard.
    pub shard_s: Vec<f64>,
    /// Longest single-shard digitize call.
    pub ocr_max_shard_s: f64,
    /// The `iteration` span's duration.
    pub wall_s: f64,
    pub counts: Counts,
}

impl Sample {
    /// Sums the spans of iteration `iteration`.
    pub fn from_spans(spans: &[Span], iteration: usize, counts: Counts) -> Sample {
        let mut s = Sample {
            counts,
            ..Sample::default()
        };
        let mut shard_index: BTreeMap<usize, usize> = BTreeMap::new();
        for (id, span) in spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.iteration == iteration)
        {
            match span.name.as_str() {
                "iteration" => s.wall_s = span.duration(),
                "shard" => {
                    shard_index.insert(id, s.shard_s.len());
                    s.shard_s.push(0.0);
                }
                name if is_layer(name) => {
                    *s.layer_s.entry(span.name.clone()).or_default() += span.duration();
                    *s.layer_allocs.entry(span.name.clone()).or_default() += span.allocs;
                    if let Some(&k) = span.parent.and_then(|p| shard_index.get(&p)) {
                        s.shard_s[k] += span.duration();
                    }
                    if name == "ocr.digitize" {
                        s.ocr_max_shard_s = s.ocr_max_shard_s.max(span.duration());
                    }
                }
                _ => {}
            }
        }
        s
    }

    /// Time of the layer call named exactly `name`.
    pub fn exact(&self, name: &str) -> f64 {
        self.layer_s.get(name).copied().unwrap_or(0.0)
    }

    /// Σ time of layers whose name starts with `prefix`.
    pub fn time(&self, prefix: &str) -> f64 {
        self.layer_s
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Σ allocation calls of layers whose name starts with `prefix`.
    pub fn allocs(&self, prefix: &str) -> u64 {
        self.layer_allocs
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Share of the iteration wall the layer calls account for.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.time("") / self.wall_s
        } else {
            0.0
        }
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration();
        }
    }
    own
}

/// The spans as Chrome trace events (`ph:"X"`, one thread), each with
/// its parent, workload, iteration and self time under `args`, in
/// start order as `disengage check-trace` requires.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let own = self_times(spans);
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .start_s
            .total_cmp(&spans[b].start_s)
            .then(a.cmp(&b))
    });
    let micros = |s: f64| Value::Num((s * 1e6 * 1000.0).round() / 1000.0);
    let events = order
        .into_iter()
        .map(|i| {
            let span = &spans[i];
            let mut name = span.name.clone();
            if let Some(label) = &span.label {
                name = format!("{name} {label}");
            }
            let parent = span
                .parent
                .map_or(Value::Null, |p| Value::Str(spans[p].name.clone()));
            Value::Obj(vec![
                ("name".to_owned(), Value::Str(name)),
                ("ph".to_owned(), Value::Str("X".to_owned())),
                ("ts".to_owned(), micros(span.start_s)),
                ("dur".to_owned(), micros(span.duration())),
                ("pid".to_owned(), Value::Num(1.0)),
                ("tid".to_owned(), Value::Num(0.0)),
                (
                    "args".to_owned(),
                    Value::Obj(vec![
                        ("parent".to_owned(), parent),
                        ("workload".to_owned(), Value::Str(workload.to_owned())),
                        ("iteration".to_owned(), Value::Num(span.iteration as f64)),
                        ("self_us".to_owned(), micros(own[i].max(0.0))),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Arr(events).render()
}

/// Mean self time per iteration of every span name, largest first.
pub fn self_time_table(spans: &[Span], iterations: usize) -> Vec<(String, f64)> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, s) in spans.iter().zip(own) {
        *by_name.entry(span.name.as_str()).or_default() += s;
    }
    let mut rows: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v / iterations.max(1) as f64))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}
