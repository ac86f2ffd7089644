//! Cross-commit output pins: FNV-1a digests of what a lineage-recording
//! run produces — every Stage III verdict, every recovered description,
//! the canonical telemetry, and the lineage log — at scale 0.1, clean,
//! under a seeded fault plan, and through simulated OCR at light and
//! heavy noise (which pins the `ocr.cer` histogram, `ocr.mean_cer` and
//! every `OcrRepair` lineage event).
//!
//! The other byte-identity suites compare two runs of the *same* build
//! (`--jobs`, warm/cold, sharded/monolithic), so a rewrite that changes
//! output consistently everywhere would pass them all. These constants
//! were recorded once and must only move with a deliberate, documented
//! output change.

use disengage::cache::Fp;
use disengage::chaos::FaultPlan;
use disengage::core::pipeline::{OcrMode, PipelineOutcome};
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::obs::Collector;
use disengage::ocr::NoiseModel;

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
        for k in &a.matched_keywords {
            fp.write_str(k);
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
