//! Pins the compiled Stage III classifier to the reference classifier.
//!
//! [`Classifier`] interns the dictionary into stem ids and votes over
//! per-thread scratch; it must be a pure speedup. For every description
//! and dictionary here, `classify_detailed` must return exactly what the
//! reference (the original implementation, kept in the test-support
//! module [`reference`]) returns — verdict, category, `ambiguous`,
//! matched keywords (ids that resolve through [`Classifier::stem`] to
//! the reference's strings, in order) and the full ballot — with
//! `score` and `margin` equal bit for bit, and `classify` must equal the
//! detailed verdict.
//! Any divergence would ripple into tables, telemetry, lineage and every
//! tag-artifact consumer.
//!
//! The default run covers every full-scale description under the
//! default bank, plus a sample under every dictionary; the full grid
//! (every text × every dictionary) is `#[ignore]`d and runs in release
//! from `scripts/verify.sh`.

#[path = "../crates/nlp/tests/reference/mod.rs"]
mod reference;

#[path = "../crates/nlp/tests/learn/mod.rs"]
mod learn;

use disengage::chaos::{poison_dictionary, FaultPlan};
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::{Classifier, FailureDictionary, FaultTag};
use learn::{learn_dictionary, phrase_count, LearnOptions};
use reference::{ReferenceAssignment, ReferenceClassifier};
use std::collections::BTreeSet;

/// Asserts the compiled classifier agrees with the reference on `text`.
fn assert_agrees(compiled: &Classifier, reference: &ReferenceClassifier, text: &str, dict: &str) {
    let (want, want_votes) = reference.classify_detailed(text);
    let (got, got_votes) = compiled.classify_detailed(text);
    assert_eq!(
        ReferenceAssignment::resolved(&got, compiled),
        want,
        "verdict diverged ({dict}) on {text:?}"
    );
    assert_eq!(
        got.score.to_bits(),
        want.score.to_bits(),
        "score bits ({dict}) on {text:?}"
    );
    assert_eq!(
        got.margin.to_bits(),
        want.margin.to_bits(),
        "margin bits ({dict}) on {text:?}"
    );
    assert_eq!(
        got_votes, want_votes,
        "ballot diverged ({dict}) on {text:?}"
    );
    for (g, w) in got_votes.iter().zip(&want_votes) {
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "vote bits ({dict}) on {text:?}"
        );
    }
    assert_eq!(
        compiled.classify(text),
        got,
        "classify and classify_detailed disagree ({dict}) on {text:?}"
    );
}

/// Every text under every dictionary; returns the number of pairs.
fn check_grid(dictionaries: &[(String, FailureDictionary)], texts: &BTreeSet<String>) -> usize {
    for (name, dict) in dictionaries {
        let compiled = Classifier::new(dict.clone());
        let reference = ReferenceClassifier::new(dict);
        for text in texts {
            assert_agrees(&compiled, &reference, text, name);
        }
    }
    dictionaries.len() * texts.len()
}

/// Every disengagement description the generator writes at `scale`,
/// with the intended tag of each.
fn generated(scale: f64) -> Vec<(FaultTag, String)> {
    let corpus = CorpusGenerator::new(CorpusConfig {
        scale,
        ..CorpusConfig::default()
    })
    .generate();
    corpus
        .truth
        .disengagements()
        .iter()
        .zip(&corpus.intended_tags)
        .map(|(r, &t)| (t, r.description.clone()))
        .collect()
}

/// The descriptions Stage II recovers at `scale` after a 30%-rate
/// chaos campaign has garbled, truncated and blanked the reports.
fn recovered_under_chaos(scale: f64) -> Vec<String> {
    let mut config = RunConfig::new().with_corpus(CorpusConfig {
        scale,
        ..CorpusConfig::default()
    });
    config.chaos = Some(FaultPlan::new(0.3, 7));
    let outcome = RunSession::new(config).run().expect("chaos run completes");
    outcome
        .database
        .disengagements()
        .iter()
        .map(|r| r.description.clone())
        .collect()
}

/// Case, hyphen, truncation, repetition and word-order variants.
fn variants(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut out = vec![
        text.to_uppercase(),
        words
            .iter()
            .map(|w| {
                let mut c = w.chars();
                c.next()
                    .map(|f| f.to_uppercase().chain(c).collect())
                    .unwrap_or_default()
            })
            .collect::<Vec<String>>()
            .join(" "),
        words.join("-"),
        format!("{text} {text}"),
        words.iter().rev().copied().collect::<Vec<_>>().join(" "),
    ];
    if words.len() > 1 {
        let mut rotated = words[1..].to_vec();
        rotated.push(words[0]);
        out.push(rotated.join(" "));
    }
    let chars: Vec<char> = text.chars().collect();
    for cut in [
        1,
        3,
        chars.len() / 3,
        chars.len() / 2,
        chars.len().saturating_sub(2),
    ] {
        out.push(chars[..cut.min(chars.len())].iter().collect());
    }
    out
}

/// Empty, blank, symbol-only and non-ASCII texts.
fn edge_texts() -> Vec<String> {
    [
        "",
        "   ",
        "@#$%^",
        "—",
        "...!!!---///",
        "a",
        "planner",
        "Planner—failed",
        "naïve planner failed: planners failed",
        "the the the",
        "result resumed safely",
        "watchdog error watchdog error watchdog",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

/// One phrase under two tags, two phrases that stem alike, and a
/// keyword (`result`, from `results`) that is also a stop word.
fn hand_built_bank() -> FailureDictionary {
    let mut d = FailureDictionary::new();
    d.add_phrase(FaultTag::Network, "results dropped");
    d.add_phrase(FaultTag::Planner, "planner failed");
    d.add_phrase(FaultTag::Planner, "planners failed");
    d.add_phrase(FaultTag::Planner, "late braking");
    d.add_phrase(FaultTag::Software, "planner failed");
    d.add_phrase(FaultTag::Software, "software crash");
    d.add_phrase(FaultTag::HangCrash, "watchdog");
    d.add_phrase(
        FaultTag::HangCrash,
        "the system did not respond to the watchdog",
    );
    d
}

/// The default bank with a dictionary learned from `labeled` folded in.
fn learned_extension(labeled: &[(FaultTag, String)]) -> FailureDictionary {
    let mut d = FailureDictionary::default_bank();
    let learned = learn_dictionary(labeled, LearnOptions::default());
    for tag in FaultTag::ALL {
        for phrase in learned.phrases(tag) {
            d.add_phrase(tag, phrase);
        }
    }
    d
}

/// The default bank, the hand-built bank, a learned extension and the
/// default bank poisoned at eight rates (1.0 empties it).
fn dictionaries(labeled: &[(FaultTag, String)]) -> Vec<(String, FailureDictionary)> {
    let bank = FailureDictionary::default_bank();
    let mut out = vec![
        ("default_bank".to_owned(), bank.clone()),
        ("hand_built".to_owned(), hand_built_bank()),
        ("learned_extension".to_owned(), learned_extension(labeled)),
    ];
    for rate in [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let (poisoned, _) = poison_dictionary(&FaultPlan::new(rate, 7), &bank);
        out.push((format!("poisoned_{rate}"), poisoned));
    }
    assert!(
        out.last().is_some_and(|(_, d)| phrase_count(d) == 0),
        "rate 1.0 empties the bank"
    );
    out
}

#[test]
fn default_bank_agrees_on_every_full_scale_description() {
    let texts: BTreeSet<String> = generated(1.0).into_iter().map(|(_, t)| t).collect();
    assert!(
        texts.len() > 100,
        "only {} distinct descriptions",
        texts.len()
    );
    let bank = vec![("default_bank".to_owned(), FailureDictionary::default_bank())];
    check_grid(&bank, &texts);
}

#[test]
fn every_dictionary_agrees_on_sampled_and_edge_texts() {
    let labeled = generated(0.05);
    let mut texts: BTreeSet<String> = edge_texts().into_iter().collect();
    for (_, text) in labeled.iter().step_by(25) {
        texts.extend(variants(text));
        texts.insert(text.clone());
    }
    texts.extend(recovered_under_chaos(0.02));
    check_grid(&dictionaries(&labeled), &texts);
}

#[test]
fn hand_built_edge_cases_vote_as_the_reference_does() {
    let dict = hand_built_bank();
    let compiled = Classifier::new(dict.clone());
    let reference = ReferenceClassifier::new(&dict);
    for text in [
        "the planner failed to brake",
        "result logged",
        "results logged",
    ] {
        assert_agrees(&compiled, &reference, text, "hand_built");
    }
    // `result` is a keyword (the stem of `results`) and a stop word:
    // only the inflected token votes.
    assert_eq!(compiled.classify("result logged").tag, FaultTag::UnknownT);
    assert_eq!(compiled.classify("results logged").tag, FaultTag::Network);
    let (verdict, votes) = compiled.classify_detailed("the planner failed to brake");
    // Planner: keywords `fail` + `plann`, and both two-token phrases.
    assert_eq!(verdict.tag, FaultTag::Planner);
    assert_eq!(verdict.score, 6.0);
    assert_eq!(
        ReferenceAssignment::resolved(&verdict, &compiled).matched_keywords,
        ["fail", "plann"]
    );
    // Software shares `planner failed`: its keywords plus that phrase.
    let software = votes
        .iter()
        .find(|v| v.tag == FaultTag::Software)
        .expect("software votes");
    assert_eq!(software.score, 4.0);
    assert_eq!(verdict.margin, 2.0);
}

/// Every full-scale description, everything a full-scale 30%-rate chaos
/// run recovers, every variant of each, and the edge texts, under every
/// dictionary. Run it in release: `cargo test --release --test
/// classifier_equivalence -- --ignored`.
#[test]
#[ignore = "full grid: run in release (scripts/verify.sh does)"]
fn full_grid_agrees() {
    let labeled = generated(1.0);
    let mut texts: BTreeSet<String> = edge_texts().into_iter().collect();
    let recovered = recovered_under_chaos(1.0);
    for text in labeled.iter().map(|(_, t)| t).chain(&recovered) {
        texts.extend(variants(text));
        texts.insert(text.clone());
    }
    let pairs = check_grid(&dictionaries(&labeled), &texts);
    println!("{pairs} (text, dictionary) pairs agree");
}
