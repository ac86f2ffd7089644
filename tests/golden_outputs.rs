//! Cross-commit output pins: FNV-1a digests of what a lineage-recording
//! run produces — every Stage III verdict, the canonical telemetry, and the
//! lineage log — at scale 0.1, clean and under a seeded fault plan.
//!
//! The other byte-identity suites compare two runs of the *same* build
//! (`--jobs`, warm/cold, sharded/monolithic), so a rewrite that changes
//! output consistently everywhere would pass them all. These constants
//! were recorded once and must only move with a deliberate, documented
//! output change.

use disengage::cache::Fp;
use disengage::chaos::FaultPlan;
use disengage::core::pipeline::PipelineOutcome;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::obs::Collector;

/// The three digests of one run, as 16-digit hex.
#[derive(Debug, PartialEq)]
struct Digests {
    records: usize,
    assignments: String,
    telemetry: String,
    lineage: String,
}

fn digests(chaos: Option<FaultPlan>) -> Digests {
    let mut config = RunConfig::new().with_corpus(CorpusConfig {
        seed: 42,
        scale: 0.1,
    });
    config.chaos = chaos;
    let obs = Collector::new().with_lineage(true);
    let outcome: PipelineOutcome = RunSession::new(config)
        .run_with(&obs)
        .expect("pipeline runs");
    let mut fp = Fp::new();
    for t in &outcome.tagged {
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
        telemetry: text(&outcome.telemetry.clone().canonical().to_json()),
        lineage: text(&obs.provenance().to_jsonl()),
    }
}

fn pinned(records: usize, assignments: &str, telemetry: &str, lineage: &str) -> Digests {
    Digests {
        records,
        assignments: assignments.to_owned(),
        telemetry: telemetry.to_owned(),
        lineage: lineage.to_owned(),
    }
}

#[test]
fn clean_run_output_is_pinned() {
    assert_eq!(
        digests(None),
        pinned(
            536,
            "d8b0cbbe98639fa1",
            "9a8549d7c7d2d366",
            "2b1a4a967c245399"
        )
    );
}

#[test]
fn chaos_run_output_is_pinned() {
    assert_eq!(
        digests(Some(FaultPlan::new(0.05, 7))),
        pinned(
            530,
            "255a78be9fadc40b",
            "28dff58ba3e4af09",
            "4605cf40fdf9979e"
        )
    );
}
