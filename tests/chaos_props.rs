//! Seeded chaos properties across the whole pipeline.
//!
//! Same discipline as `tests/properties.rs`: a few hundred cases drawn
//! from fixed seeds, exactly reproducible, zero external dependencies.
//! The contract under fault injection is threefold:
//!
//! 1. a no-fault plan is *inert* — the outcome is identical to a run
//!    with no plan at all;
//! 2. every injected fault is accounted for — corrected, quarantined,
//!    or absorbed, with the ledger reconciling exactly;
//! 3. the pipeline and the stats substrate *never panic*, no matter
//!    what the injectors produce (guarded by `catch_unwind`).
//!
//! Stage II is also fed text no injector writes (see [`hostile`]): it
//! must quarantine every bad line with a typed reason, never panic, and
//! parse exactly as the reference parsers do.

mod degenerate;
mod hostile;

// The parsers and `normalize_document_traced` only: the renderers are
// `format_equivalence`'s.
#[path = "../crates/reports/tests/reference/formats.rs"]
#[allow(dead_code)]
mod reference;

use degenerate::DegenerateKind;
use disengage::chaos::{inject_documents, poison_dictionary, FaultPlan};
use disengage::core::telemetry::reconcile;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::{Classifier, FailureDictionary, FaultTag};
use disengage::obs::{Collector, ProvenanceEvent, Subject};
use disengage::reports::formats::{DocumentKind, RawDocument};
use disengage::reports::normalize::normalize_document_traced;
use disengage::reports::{Manufacturer, ReportError};
use disengage::stats::dist::Exponential;
use disengage::stats::fit::{fit_exponential, fit_exponentiated_weibull, fit_weibull};
use disengage::stats::ks::ks_test;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn config(seed: u64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig { seed, scale: 0.03 })
}

#[test]
fn no_fault_plan_is_inert() {
    for seed in 0..6u64 {
        let clean = RunSession::new(config(seed)).run().expect("clean run");
        let zero = RunSession::new(config(seed).with_chaos(FaultPlan::new(0.0, seed ^ 0xABC)))
            .run()
            .expect("rate-0 run");
        assert_eq!(
            format!("{:?}", clean.database),
            format!("{:?}", zero.database),
            "seed {seed}: rate-0 chaos changed the database"
        );
        assert_eq!(clean.tagged, zero.tagged, "seed {seed}");
        assert_eq!(clean.parse_failures, zero.parse_failures, "seed {seed}");
        assert!(zero.chaos.is_none(), "seed {seed}: inert plan audited");
    }
}

#[test]
fn every_fault_corrected_quarantined_or_absorbed_never_a_panic() {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for case in 0..8u64 {
        let rate = rng.gen_range(0.01..0.3);
        let plan = FaultPlan::new(rate, 0x1000 + case);
        let result = catch_unwind(AssertUnwindSafe(|| {
            RunSession::new(config(case).with_chaos(plan))
                .run()
                .expect("chaos run returns, never panics")
        }));
        let outcome = result.unwrap_or_else(|_| {
            panic!("case {case}: pipeline panicked under chaos rate {rate:.3}")
        });
        let audit = outcome.chaos.expect("active plan audits");
        assert!(
            audit.totals.reconciles(),
            "case {case} rate {rate:.3}: {:?}",
            audit.totals
        );
        for (kind, o) in &audit.per_kind {
            assert!(o.reconciles(), "case {case} kind {kind}: {o:?}");
        }
        let violations = reconcile(&outcome.telemetry);
        assert!(violations.is_empty(), "case {case}: {violations:?}");
        // The quarantine lane mirrors the failure queue one-to-one.
        assert_eq!(outcome.quarantined.len(), outcome.parse_failures.len());
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    let plan = FaultPlan::new(0.12, 0xD5);
    let a = RunSession::new(config(3).with_chaos(plan)).run().unwrap();
    let b = RunSession::new(config(3).with_chaos(plan)).run().unwrap();
    assert_eq!(format!("{:?}", a.database), format!("{:?}", b.database));
    assert_eq!(a.tagged, b.tagged);
    assert_eq!(a.chaos, b.chaos);
}

#[test]
fn injection_only_touches_documents_it_logs() {
    // Documents with no logged fault come through byte-identical.
    for seed in 0..12u64 {
        let corpus =
            disengage::corpus::CorpusGenerator::new(CorpusConfig { seed, scale: 0.02 }).generate();
        let plan = FaultPlan::new(0.1, seed * 31 + 7);
        let (faulted, log) = inject_documents(&plan, &corpus.documents, 0);
        assert_eq!(faulted.len(), corpus.documents.len());
        let touched: std::collections::BTreeSet<usize> = log.faults.iter().map(|f| f.doc).collect();
        for (d, (clean, chaos)) in corpus.documents.iter().zip(&faulted).enumerate() {
            if !touched.contains(&d) {
                assert_eq!(
                    clean.text, chaos.text,
                    "seed {seed} doc {d} silently changed"
                );
            }
        }
    }
}

#[test]
fn stats_substrate_never_panics_on_degenerate_series() {
    for kind in DegenerateKind::ALL {
        for seed in 0..4u64 {
            let xs = kind.series(seed, 24);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = fit_exponential(&xs);
                let _ = fit_weibull(&xs);
                let _ = fit_exponentiated_weibull(&xs);
                if let Ok(d) = Exponential::new(1.0) {
                    let _ = ks_test(&xs, &d);
                }
            }));
            assert!(
                outcome.is_ok(),
                "{kind:?} seed {seed} panicked the stats layer"
            );
        }
    }
}

#[test]
fn poisoned_classifier_always_answers() {
    let dict = FailureDictionary::default_bank();
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    for case in 0..50u64 {
        let rate = rng.gen_range(0.2..=1.0);
        let (poisoned, dropped) = poison_dictionary(&FaultPlan::new(rate, case), &dict);
        let phrases = |d: &FailureDictionary| -> usize {
            FaultTag::ALL.iter().map(|&t| d.phrases(t).len()).sum()
        };
        assert_eq!(phrases(&poisoned) + dropped as usize, phrases(&dict));
        let classifier = Classifier::new(poisoned);
        // Arbitrary junk text, including empty and digit-only lines.
        let text: String = match case % 4 {
            0 => String::new(),
            1 => "#### 999913 ^^^^".to_owned(),
            2 => (0..rng.gen_range(1..20usize))
                .map(|_| {
                    let len = rng.gen_range(1..10usize);
                    (0..len)
                        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
                .join(" "),
            _ => "software module froze watchdog error".to_owned(),
        };
        let verdict = catch_unwind(AssertUnwindSafe(|| classifier.classify(&text)))
            .unwrap_or_else(|_| panic!("case {case}: classifier panicked on {text:?}"));
        assert!(
            FaultTag::ALL.contains(&verdict.tag),
            "case {case}: verdict outside the tag set"
        );
    }
}

/// Normalizes one hostile document and checks Stage II's contract on it;
/// returns how many lines or sections it failed.
fn check_hostile(doc: &RawDocument, index: usize, what: &str) -> usize {
    let obs = Collector::new().with_lineage(true);
    let (normalized, ids) = catch_unwind(AssertUnwindSafe(|| {
        normalize_document_traced(doc, index, Some(&obs))
    }))
    .unwrap_or_else(|_| panic!("{what}: Stage II panicked"));
    assert_eq!(ids.len(), normalized.disengagements.len(), "{what}");

    // Every attempted line is parsed or failed.
    let counters: BTreeMap<String, u64> = obs.state().counters.into_iter().collect();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        count("parse.dis.lines"),
        count("parse.dis.parsed") + count("parse.dis.failed"),
        "{what}: parse.dis.lines != parsed + failed"
    );

    // Every failure is quarantined once, in order, with its own text as
    // the reason: a line's on that line, a mileage table's or an accident
    // form's on the document.
    let provenance = obs.provenance();
    let quarantined: Vec<(&Subject, &str)> = provenance
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            ProvenanceEvent::Quarantined { reason, .. } => Some((&e.subject, reason.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(quarantined.len(), normalized.failures.len(), "{what}");
    // Lines as Stage II reads them: a lone `\r` ends one, as `\n` does.
    let read_as = hostile::lone_cr_as_lf(doc);
    let read_as = read_as.as_ref().unwrap_or(doc);
    let (log, mileage) = read_as.sections();
    let log: Vec<&str> = log.lines().collect();
    let mut line_failures = 0;
    for (failure, &(subject, reason)) in normalized.failures.iter().zip(&quarantined) {
        assert_eq!(reason, failure.to_string(), "{what}");
        match subject {
            Subject::Line { doc: d, line } => {
                assert_eq!(*d, index, "{what}");
                assert!(
                    log.get(line - 1).is_some_and(|l| !l.trim().is_empty()),
                    "{what}: {failure} quarantined on line {line}, not an attempted line"
                );
                match failure {
                    ReportError::MalformedLine { line: at, .. } => assert_eq!(at, line, "{what}"),
                    ReportError::InvalidField { .. } => {}
                    other => panic!("{what}: line {line} failed untyped: {other:?}"),
                }
                line_failures += 1;
            }
            Subject::Document(d) => {
                assert_eq!(*d, index, "{what}");
                assert!(
                    doc.kind == DocumentKind::Accident || !mileage.is_empty(),
                    "{what}: {failure} quarantined on a document with no table or form"
                );
            }
            other => panic!("{what}: {failure} quarantined on {other:?}"),
        }
    }
    assert_eq!(line_failures, count("parse.dis.failed"), "{what}");

    // Exactly what the reference parsers return on those lines.
    let want_obs = Collector::new().with_lineage(true);
    let (want, want_ids) = reference::normalize_document_traced(read_as, index, Some(&want_obs));
    assert_eq!(format!("{normalized:?}"), format!("{want:?}"), "{what}");
    assert_eq!(ids, want_ids, "{what}");
    assert_eq!(obs.state().counters, want_obs.state().counters, "{what}");
    assert_eq!(
        obs.provenance().to_jsonl(),
        want_obs.provenance().to_jsonl(),
        "{what}"
    );
    normalized.failures.len()
}

#[test]
fn hostile_stage_ii_input_is_quarantined_with_its_line_never_a_panic() {
    let documents = CorpusGenerator::new(CorpusConfig {
        seed: 0x5EED,
        scale: 0.05,
    })
    .generate()
    .documents;
    // Every manufacturer that files (Honda reported no testing), so
    // every layout, a mileage table and an accident form.
    let filers: BTreeSet<Manufacturer> = documents.iter().map(|d| d.manufacturer).collect();
    let all: BTreeSet<Manufacturer> = Manufacturer::ALL.into_iter().collect();
    assert_eq!(
        all.difference(&filers).collect::<Vec<_>>(),
        [&Manufacturer::Honda]
    );
    assert!(documents.iter().any(|d| d.kind == DocumentKind::Accident));
    assert!(documents.iter().any(|d| !d.sections().1.is_empty()));
    let mut failed = BTreeMap::new();
    for seed in 0..2 {
        for (index, doc) in documents.iter().enumerate() {
            for (name, mutated) in hostile::mutations(doc, seed) {
                let what = format!(
                    "doc {index} ({} {:?}), {name}, seed {seed}",
                    doc.manufacturer, doc.kind
                );
                *failed.entry(name).or_insert(0) += check_hostile(&mutated, index, &what);
                if name == "mixed line endings" {
                    assert_reads_as(&mutated, doc, index, &what);
                }
            }
        }
    }
    // Each mutation reaches the quarantine lane somewhere, but mixed
    // line endings, which Stage II reads as the untouched filing.
    for (name, n) in &failed {
        if *name == "mixed line endings" {
            assert_eq!(*n, 0, "{name}: a line or section failed");
        } else {
            assert!(*n > 0, "{name}: no line or section failed");
        }
    }
}

/// Asserts `doc` normalizes exactly as `original` does: the same
/// records, failures, counters and lineage. `\r\n` and a lone `\r` each
/// end one line, as `\n` does, so swapping one line end for another
/// moves no line.
fn assert_reads_as(doc: &RawDocument, original: &RawDocument, index: usize, what: &str) {
    let (obs, want_obs) = (
        Collector::new().with_lineage(true),
        Collector::new().with_lineage(true),
    );
    let got = normalize_document_traced(doc, index, Some(&obs));
    let want = normalize_document_traced(original, index, Some(&want_obs));
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
    assert_eq!(obs.state().counters, want_obs.state().counters, "{what}");
    assert_eq!(
        obs.provenance().to_jsonl(),
        want_obs.provenance().to_jsonl(),
        "{what}"
    );
}
