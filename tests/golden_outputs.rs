//! Cross-commit output pins: FNV-1a digests of what a lineage-recording
//! run produces — every Stage III verdict, every recovered description,
//! the canonical telemetry, and the lineage log — at scale 0.1, clean,
//! under a seeded fault plan, and through simulated OCR at light and
//! heavy noise (which pins the `ocr.cer` histogram, `ocr.mean_cer` and
//! every `OcrRepair` lineage event) — plus the bits of both Fig. 11
//! reaction-time fits at full scale, as `repro` prints them, and every
//! byte of the rendered corpus (Stage I's filings, before OCR) at full
//! scale and at scale 0.1.
//!
//! The other byte-identity suites compare two runs of the *same* build
//! (`--jobs`, warm/cold, sharded/monolithic), so a rewrite that changes
//! output consistently everywhere would pass them all. These constants
//! were recorded once and must only move with a deliberate, documented
//! output change.

use disengage::cache::Fp;
use disengage::chaos::{poison_dictionary, FaultPlan};
use disengage::core::figures::fig11;
use disengage::core::pipeline::{OcrMode, PipelineOutcome};
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::{Classifier, FailureDictionary};
use disengage::obs::Collector;
use disengage::ocr::NoiseModel;
use disengage::reports::formats::DocumentKind;
use disengage::reports::Manufacturer;

/// The four digests of one run, as 16-digit hex.
#[derive(Debug, PartialEq)]
struct Digests {
    records: usize,
    assignments: String,
    descriptions: String,
    telemetry: String,
    lineage: String,
}

fn digests(ocr: OcrMode, chaos: Option<FaultPlan>) -> Digests {
    // Verdicts name their keywords by stem id; hash the stems, resolved
    // through the classifier the session tagged with (under chaos, the
    // default bank poisoned by the plan).
    let bank = FailureDictionary::default_bank();
    let classifier = match &chaos {
        Some(plan) => Classifier::new(poison_dictionary(plan, &bank).0),
        None => Classifier::new(bank),
    };
    let mut config = RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: 42,
            scale: 0.1,
        })
        .with_ocr(ocr);
    config.chaos = chaos;
    let obs = Collector::new().with_lineage(true);
    let outcome: PipelineOutcome = RunSession::new(config)
        .run_with(&obs)
        .expect("pipeline runs");
    let mut fp = Fp::new();
    let mut descriptions = Fp::new();
    for t in &outcome.tagged {
        descriptions.write_str(&t.record.description);
        let a = &t.assignment;
        fp.write_str(a.tag.name())
            .write_str(a.category.name())
            .write_f64(a.score)
            .write_f64(a.margin)
            .write_bool(a.ambiguous)
            .write_u64(a.matched_keywords.len() as u64);
        for &id in &a.matched_keywords {
            fp.write_str(classifier.stem(id));
        }
    }
    let text = |s: &str| Fp::new().write_str(s).finish().to_hex();
    Digests {
        records: outcome.tagged.len(),
        assignments: fp.finish().to_hex(),
        descriptions: descriptions.finish().to_hex(),
        telemetry: text(&outcome.telemetry.clone().canonical().to_json()),
        lineage: text(&obs.provenance().to_jsonl()),
    }
}

fn pinned(
    records: usize,
    assignments: &str,
    descriptions: &str,
    telemetry: &str,
    lineage: &str,
) -> Digests {
    Digests {
        records,
        assignments: assignments.to_owned(),
        descriptions: descriptions.to_owned(),
        telemetry: telemetry.to_owned(),
        lineage: lineage.to_owned(),
    }
}

/// Simulated OCR with dictionary correction on, at `noise`.
fn simulated(noise: NoiseModel) -> OcrMode {
    OcrMode::Simulated {
        noise,
        correct: true,
    }
}

#[test]
fn clean_run_output_is_pinned() {
    assert_eq!(
        digests(OcrMode::Passthrough, None),
        pinned(
            536,
            "d8b0cbbe98639fa1",
            "831580e94bfad28f",
            "9a8549d7c7d2d366",
            "2b1a4a967c245399"
        )
    );
}

#[test]
fn chaos_run_output_is_pinned() {
    assert_eq!(
        digests(OcrMode::Passthrough, Some(FaultPlan::new(0.05, 7))),
        pinned(
            530,
            "255a78be9fadc40b",
            "8fb494d9283885d9",
            "28dff58ba3e4af09",
            "4605cf40fdf9979e"
        )
    );
}

#[test]
fn simulated_light_ocr_output_is_pinned() {
    assert_eq!(
        digests(simulated(NoiseModel::light()), None),
        pinned(
            511,
            "d927901ba4f6fccb",
            "92274683c8ccf534",
            "7fbc7475ef675c78",
            "2e948679042fae34"
        )
    );
}

#[test]
fn simulated_heavy_ocr_output_is_pinned() {
    assert_eq!(
        digests(simulated(NoiseModel::heavy()), None),
        pinned(
            360,
            "8990fd196a2a2a86",
            "b5dfedf6a247a39c",
            "a82bcb51d0b54413",
            "1183e03330ff713b"
        )
    );
}

/// One Fig. 11 panel's Exponentiated-Weibull fit: `n`, then the bits of
/// k, λ, α, the log-likelihood and the AIC.
type FitBits = (usize, [u64; 5]);

#[test]
fn fig11_fits_are_pinned() {
    let config = RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    });
    let outcome = RunSession::new(config).run().expect("pipeline runs");
    let bits = |m: Manufacturer| -> FitBits {
        let fit = fig11(&outcome.database, m).expect("panel fits").fit;
        let d = &fit.dist;
        let params = [d.shape(), d.scale(), d.alpha(), fit.log_likelihood, fit.aic];
        (fit.n, params.map(f64::to_bits))
    };
    let got = [bits(Manufacturer::MercedesBenz), bits(Manufacturer::Waymo)];
    let want: [FitBits; 2] = [
        // Mercedes-Benz: k 0.6034, λ 0.4740, α 1.6031, lnL −1255.29.
        (
            1328,
            [
                0x3fe34eff145eb6bd,
                0x3fde55bf4c4c1301,
                0x3ff9a63d1c677263,
                0xc0939d29a1445e97,
                0x40a3a929a1445e97,
            ],
        ),
        // Waymo: k 1.4691, λ 0.9438, α 1.0776, lnL −352.09.
        (
            464,
            [
                0x3ff7816fc00fb8dd,
                0x3fee335e31f506ec,
                0x3ff13dd4359be2ce,
                0xc076018512dc5cab,
                0x4086318512dc5cab,
            ],
        ),
    ];
    assert_eq!(got, want, "Fig. 11 fits moved: {got:#x?}");
}

/// `(documents, total text bytes, digest)` of every filing the generator
/// renders at `seed` and `scale`, in enumeration order: each document's
/// manufacturer, filing year, kind and text.
fn corpus_digest(seed: u64, scale: f64) -> (usize, usize, String) {
    let corpus = CorpusGenerator::new(CorpusConfig { seed, scale }).generate();
    let mut fp = Fp::new();
    let mut bytes = 0;
    for doc in &corpus.documents {
        let kind = match doc.kind {
            DocumentKind::Disengagements => "disengagements",
            DocumentKind::Accident => "accident",
        };
        fp.write_str(doc.manufacturer.name())
            .write_u32(u32::from(doc.report_year.filing_year()))
            .write_str(kind)
            .write_str(&doc.text);
        bytes += doc.text.len();
    }
    (corpus.documents.len(), bytes, fp.finish().to_hex())
}

/// The rendered filings themselves. The run pins above see only what
/// parsing recovers, so a field no parser reads (Nissan's `11:20 AM`,
/// Volkswagen's `18:24:03`) could change under them unseen.
#[test]
fn rendered_corpus_is_pinned() {
    assert_eq!(
        corpus_digest(0x5EED, 1.0),
        (58, 715_535, "3e910980b26d4e3f".to_owned()),
        "full-scale corpus moved"
    );
    assert_eq!(
        corpus_digest(42, 0.1),
        (23, 75_085, "f8a1af8ce6fae0eb".to_owned()),
        "scale-0.1 corpus moved"
    );
}
