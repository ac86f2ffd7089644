//! The reference Stage III tagging loop `core::tagging::tag_records` is
//! pinned to.
//!
//! This is the original loop: every record classified on its own, in
//! record order, its verdict in the string-keyword shape
//! ([`classifier::ReferenceAssignment`]) from the original classifier
//! ([`classifier::ReferenceClassifier`], the test-support module
//! `crates/nlp/tests/reference/`), with the same telemetry tally and
//! the same lineage, recorded on the calling thread. The production
//! loop classifies each distinct description once and copies its
//! verdict to every record that repeats it; the root `tag_equivalence`
//! suite asserts that it returns these verdicts and leaves the same
//! collector state and lineage. The worker pool is left out: it never
//! changed what the loop returns or records. It lives in test code
//! because no production path runs it.

#[path = "../../../nlp/tests/reference/mod.rs"]
pub mod classifier;

use classifier::{ReferenceAssignment, ReferenceClassifier};
use disengage::nlp::FaultTag;
use disengage::obs::{Collector, Histogram, ProvenanceEvent, RecordId, Subject};
use disengage::reports::DisengagementRecord;

/// Reference `disengage::core::tagging::tag_records`: one verdict per
/// record, in order, with Stage III's counters, samples, Unknown-T rate
/// gauge and (when `obs` records lineage) each record's ballot and
/// verdict logged against `ids[i]`.
pub fn tag_records(
    classifier: &ReferenceClassifier,
    records: &[DisengagementRecord],
    ids: &[RecordId],
    obs: &Collector,
) -> Vec<ReferenceAssignment> {
    let lineage = obs.lineage_enabled();
    let tag_counters: Vec<String> = FaultTag::ALL
        .iter()
        .map(|t| format!("nlp.tag.{}", disengage::obs::key_segment(t.name())))
        .collect();
    let mut assignments = Vec::with_capacity(records.len());
    let mut per_tag = [0u64; FaultTag::ALL.len()];
    let (mut unknown, mut ambiguous) = (0u64, 0u64);
    let (mut margins, mut hits) = (Histogram::new(), Histogram::new());
    for (i, r) in records.iter().enumerate() {
        let (assignment, votes) = classifier.classify_detailed(&r.description);
        if let Some(id) = ids.get(i).filter(|_| lineage) {
            let subject = Subject::Record(id.clone());
            for v in votes {
                obs.lineage(
                    subject.clone(),
                    ProvenanceEvent::DictVote {
                        tag: v.tag.name().to_owned(),
                        category: v.tag.category().name().to_owned(),
                        score: v.score,
                        keywords: v.matched_keywords,
                    },
                );
            }
            obs.lineage(
                subject,
                ProvenanceEvent::Tagged {
                    tag: assignment.tag.name().to_owned(),
                    category: assignment.category.name().to_owned(),
                    score: assignment.score,
                    margin: assignment.margin,
                    ambiguous: assignment.ambiguous,
                },
            );
        }
        let tag = FaultTag::ALL
            .iter()
            .position(|&t| t == assignment.tag)
            .expect("FaultTag::ALL lists every tag");
        per_tag[tag] += 1;
        if assignment.tag == FaultTag::UnknownT {
            unknown += 1;
        }
        if assignment.ambiguous {
            ambiguous += 1;
        }
        margins.record(assignment.margin);
        hits.record(assignment.matched_keywords.len() as f64);
        assignments.push(assignment);
    }
    obs.record_batch(
        [
            ("nlp.tagged", assignments.len() as u64),
            ("nlp.unknown_t", unknown),
            ("nlp.ambiguous", ambiguous),
        ]
        .into_iter()
        .chain(tag_counters.iter().map(String::as_str).zip(per_tag)),
        [("nlp.vote_margin", margins), ("nlp.dictionary_hits", hits)],
    );
    if !assignments.is_empty() {
        obs.gauge(
            "nlp.unknown_t_rate",
            unknown as f64 / assignments.len() as f64,
        );
    }
    assignments
}
