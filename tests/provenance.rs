//! Lineage and execution-trace integration: the provenance log must be
//! byte-identical at any worker count (clean and under chaos), `explain`
//! must produce a full Stage I–IV chain for the three exemplar classes,
//! and the Chrome-trace export must validate and cover every pool task
//! with per-worker tids.
//!
//! Small scales keep the suite fast; determinism at scale 1.0 is
//! enforced by `scripts/verify.sh` diffing full `repro` runs.

use disengage::chaos::FaultPlan;
use disengage::core::telemetry::execution_trace_json;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::obs::json::Value;
use disengage::obs::{validate_chrome_trace, Collector, Subject};
use disengage::par::TaskTimeline;
use std::collections::BTreeSet;

fn config(scale: f64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig { seed: 11, scale })
}

/// A lineage-recording run on a timed timeline: its lineage JSONL,
/// its timeline, and its collector.
fn lineage(scale: f64, chaos: Option<FaultPlan>, jobs: usize) -> (String, TaskTimeline, Collector) {
    let obs = Collector::new().with_lineage(true);
    let timeline = TaskTimeline::with_epoch(obs.epoch());
    let mut config = config(scale).with_jobs(jobs);
    config.chaos = chaos;
    RunSession::new(config)
        .run_traced(&obs, &timeline)
        .expect("pipeline runs");
    let jsonl = obs.provenance().to_jsonl();
    (jsonl, timeline, obs)
}

#[test]
fn clean_lineage_is_byte_identical_across_worker_counts() {
    let (one, _, _) = lineage(0.05, None, 1);
    let (eight, _, _) = lineage(0.05, None, 8);
    assert!(!one.is_empty());
    assert_eq!(one, eight, "clean lineage diverged between jobs=1 and jobs=8");
}

#[test]
fn chaos_lineage_is_byte_identical_across_worker_counts() {
    let plan = FaultPlan::new(0.1, 7);
    let (one, _, _) = lineage(0.05, Some(plan), 1);
    let (eight, _, _) = lineage(0.05, Some(plan), 8);
    assert!(!one.is_empty());
    assert_eq!(one, eight, "chaos lineage diverged between jobs=1 and jobs=8");
}

#[test]
fn lineage_lines_parse_and_carry_stable_fields_without_wall_clock() {
    let (jsonl, _, _) = lineage(0.05, Some(FaultPlan::new(0.1, 7)), 0);
    let mut events = BTreeSet::new();
    for line in jsonl.lines() {
        let v = Value::parse(line).expect(line);
        let Value::Obj(fields) = v else {
            panic!("lineage line is not an object: {line}");
        };
        // Stable leading field order, and no wall-clock keys anywhere.
        assert_eq!(fields[0].0, "subject", "{line}");
        assert_eq!(fields[1].0, "stage", "{line}");
        assert_eq!(fields[2].0, "event", "{line}");
        for (key, _) in &fields {
            assert!(
                !matches!(key.as_str(), "ts" | "time" | "timestamp" | "elapsed"),
                "wall-clock field `{key}` breaks the byte-identity contract: {line}"
            );
        }
        if let Value::Str(kind) = &fields[2].1 {
            events.insert(kind.clone());
        }
    }
    // The chaos run exercises the full event taxonomy up to Stage III.
    for kind in [
        "fault_injected",
        "fault_outcome",
        "normalized",
        "quarantined",
        "dict_vote",
        "tagged",
    ] {
        assert!(events.contains(kind), "missing {kind} in {events:?}");
    }
}

#[test]
fn explain_covers_corrected_quarantined_and_clean_records() {
    let (_, _, obs) = lineage(0.05, Some(FaultPlan::new(0.3, 7)), 0);
    let prov = obs.provenance();
    let exemplars = prov.exemplars();
    let labels: Vec<&str> = exemplars.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels,
        ["corrected", "quarantined", "clean"],
        "rate 0.3 must produce all three exemplar classes"
    );
    for (label, subject) in &exemplars {
        let chain = prov.explain(subject).expect(subject);
        assert!(chain.starts_with(subject.as_str()), "{chain}");
        match *label {
            "corrected" => assert!(
                chain.contains("chaos") || chain.contains("stage_i_ocr"),
                "corrected exemplar shows no Stage I/chaos events:\n{chain}"
            ),
            "quarantined" => {
                assert!(chain.contains("quarantined"), "{chain}")
            }
            _ => assert!(
                chain.contains("stage_ii_parse") && chain.contains("stage_iii_tag"),
                "clean exemplar must span parse and tag stages:\n{chain}"
            ),
        }
    }
    // A record exemplar explains through to its Stage III verdict.
    let (_, record) = exemplars.iter().find(|(l, _)| *l == "clean").unwrap();
    let chain = prov.explain(record).unwrap();
    assert!(chain.contains("tagged"), "{chain}");
    assert!(chain.contains("normalized"), "{chain}");
}

#[test]
fn record_ids_align_with_tagged_output_and_are_unique() {
    let o = RunSession::new(config(0.05)).run().unwrap();
    assert_eq!(o.record_ids.len(), o.database.disengagements().len());
    assert_eq!(o.record_ids.len(), o.tagged.len());
    let unique: BTreeSet<_> = o.record_ids.iter().collect();
    assert_eq!(unique.len(), o.record_ids.len(), "record ids collide");
    // Ids are subjects the provenance layer can round-trip.
    for id in &o.record_ids {
        let rendered = id.to_string();
        assert_eq!(
            Subject::parse(&rendered),
            Some(Subject::Record(id.clone())),
            "{rendered}"
        );
    }
}

#[test]
fn chrome_trace_export_validates_and_covers_every_pool_task() {
    let (_, timeline, obs) = lineage(0.05, Some(FaultPlan::new(0.1, 7)), 3);
    let report = obs.report();
    let json = execution_trace_json(&report, &timeline);
    let events = validate_chrome_trace(&json).expect("trace must validate");
    let tasks = timeline.tasks();
    assert!(!tasks.is_empty());
    // Every pool task appears as an event on its worker's tid
    // (tid = worker + 1; tid 0 is the telemetry span tree).
    let Value::Arr(items) = Value::parse(&json).unwrap() else {
        panic!("trace is not an array");
    };
    assert_eq!(events, items.len());
    let tids: BTreeSet<u64> = items
        .iter()
        .filter_map(|e| match e {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == "tid").and_then(
                |(_, v)| match v {
                    Value::Num(n) => Some(*n as u64),
                    _ => None,
                },
            ),
            _ => None,
        })
        .collect();
    for t in &tasks {
        assert!(
            tids.contains(&(t.worker as u64 + 1)),
            "worker {} has no tid in {tids:?}",
            t.worker
        );
    }
    assert!(tids.contains(&0), "span tree missing from tid 0");
    // Three workers → pool tids stay within 1..=3.
    assert!(tids.iter().all(|&t| t <= 3), "{tids:?}");
}
