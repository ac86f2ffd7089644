//! Dictionary-learning ablation: reproduce the paper's dictionary-
//! construction workflow on the synthetic corpus and compare the learned
//! dictionary with the shipped (paper-derived) one. This suite produces
//! the EXPERIMENTS.md result, and it also checks the learner and its
//! mining tooling (test support in `crates/nlp/tests/learn/`) on toy
//! corpora.

#[path = "../crates/nlp/tests/learn/mod.rs"]
mod learn;

use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::{Classifier, FaultTag};
use learn::ngram::{count_ngrams, top_ngrams};
use learn::tfidf::TfIdf;
use learn::{learn_dictionary, phrase_count, LearnOptions};

/// Learned-dictionary quality against a labeled evaluation set.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LearnEvaluation {
    /// Fraction of evaluation records tagged correctly.
    tag_accuracy: f64,
    /// Fraction whose root category is correct.
    category_accuracy: f64,
    /// Evaluation records.
    n: usize,
}

/// Trains on `train`, evaluates tag/category accuracy on `eval`.
fn train_and_evaluate(
    train: &[(FaultTag, String)],
    eval: &[(FaultTag, String)],
    options: LearnOptions,
) -> LearnEvaluation {
    let classifier = Classifier::new(learn_dictionary(train, options));
    let mut tag_hits = 0usize;
    let mut cat_hits = 0usize;
    for (want, text) in eval {
        let got = classifier.classify(text);
        if got.tag == *want {
            tag_hits += 1;
        }
        if got.category == want.category() {
            cat_hits += 1;
        }
    }
    let n = eval.len();
    LearnEvaluation {
        tag_accuracy: if n == 0 {
            0.0
        } else {
            tag_hits as f64 / n as f64
        },
        category_accuracy: if n == 0 {
            0.0
        } else {
            cat_hits as f64 / n as f64
        },
        n,
    }
}

fn labeled_corpus(seed: u64) -> Vec<(FaultTag, String)> {
    let corpus = CorpusGenerator::new(CorpusConfig { seed, scale: 0.1 }).generate();
    corpus
        .truth
        .disengagements()
        .iter()
        .zip(&corpus.intended_tags)
        .map(|(r, &t)| (t, r.description.clone()))
        .collect()
}

#[test]
fn learned_dictionary_recovers_most_tags() {
    let data = labeled_corpus(104);
    let (train, eval): (Vec<_>, Vec<_>) = data
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let train: Vec<(FaultTag, String)> = train.into_iter().map(|(_, x)| x).collect();
    let eval: Vec<(FaultTag, String)> = eval.into_iter().map(|(_, x)| x).collect();
    let result = train_and_evaluate(&train, &eval, LearnOptions::default());
    eprintln!(
        "learned dictionary, seed 104: tag accuracy {:.3}, category accuracy {:.3}, n = {}",
        result.tag_accuracy, result.category_accuracy, result.n
    );
    assert!(result.n > 200);
    // The learned dictionary is mined, not hand-curated, so it trails the
    // shipped dictionary — but must still recover the large majority.
    assert!(
        result.tag_accuracy > 0.6,
        "learned tag accuracy {}",
        result.tag_accuracy
    );
    assert!(
        result.category_accuracy > 0.7,
        "learned category accuracy {}",
        result.category_accuracy
    );
}

#[test]
fn shipped_dictionary_beats_learned_on_tags() {
    let data = labeled_corpus(102);
    let (train, eval): (Vec<_>, Vec<_>) = data
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let train: Vec<(FaultTag, String)> = train.into_iter().map(|(_, x)| x).collect();
    let eval: Vec<(FaultTag, String)> = eval.into_iter().map(|(_, x)| x).collect();

    let learned = train_and_evaluate(&train, &eval, LearnOptions::default());

    let shipped = Classifier::with_default_dictionary();
    let mut hits = 0usize;
    for (want, text) in &eval {
        if shipped.classify(text).tag == *want {
            hits += 1;
        }
    }
    let shipped_accuracy = hits as f64 / eval.len() as f64;
    eprintln!(
        "seed 102: learned tag accuracy {:.3}, shipped {shipped_accuracy:.3}",
        learned.tag_accuracy
    );
    assert!(
        shipped_accuracy >= learned.tag_accuracy,
        "shipped {shipped_accuracy} < learned {}",
        learned.tag_accuracy
    );
    assert!(
        shipped_accuracy > 0.95,
        "shipped accuracy {shipped_accuracy}"
    );
}

#[test]
fn richer_learning_options_do_not_hurt() {
    let data = labeled_corpus(103);
    let small = learn_dictionary(
        &data,
        LearnOptions {
            terms_per_tag: 3,
            bigrams_per_tag: 2,
            min_bigram_count: 3,
        },
    );
    let large = learn_dictionary(
        &data,
        LearnOptions {
            terms_per_tag: 12,
            bigrams_per_tag: 8,
            min_bigram_count: 2,
        },
    );
    assert!(phrase_count(&large) > phrase_count(&small));
    // Richer vocabulary classifies at least as many training examples.
    let small_cl = Classifier::new(small);
    let large_cl = Classifier::new(large);
    let acc = |cl: &Classifier| {
        data.iter()
            .filter(|(want, text)| cl.classify(text).tag == *want)
            .count() as f64
            / data.len() as f64
    };
    assert!(acc(&large_cl) + 0.02 >= acc(&small_cl));
}

fn toy_corpus() -> Vec<(FaultTag, String)> {
    let mut out = Vec::new();
    let add = |out: &mut Vec<(FaultTag, String)>, tag, texts: &[&str]| {
        for t in texts {
            out.push((tag, (*t).to_owned()));
        }
    };
    add(
        &mut out,
        FaultTag::Software,
        &[
            "software module froze during operation",
            "software crash took down the stack",
            "software bug corrupted the plan",
        ],
    );
    add(
        &mut out,
        FaultTag::HangCrash,
        &[
            "watchdog error raised",
            "watchdog timer expired and rebooted",
            "system hang with watchdog reset",
        ],
    );
    add(
        &mut out,
        FaultTag::Sensor,
        &[
            "gps signal lost near the tunnel",
            "lidar dropout on the highway",
            "sensor malfunction on the array",
        ],
    );
    add(&mut out, FaultTag::UnknownT, &["event recorded"]);
    out
}

#[test]
fn toy_learned_dictionary_classifies_training_classes() {
    let dict = learn_dictionary(&toy_corpus(), LearnOptions::default());
    assert!(!dict.phrases(FaultTag::Software).is_empty());
    assert!(dict.phrases(FaultTag::UnknownT).is_empty());
    let cl = Classifier::new(dict);
    assert_eq!(
        cl.classify("the software froze again").tag,
        FaultTag::Software
    );
    assert_eq!(cl.classify("watchdog timer error").tag, FaultTag::HangCrash);
    assert_eq!(cl.classify("gps dropout").tag, FaultTag::Sensor);
}

#[test]
fn toy_unseen_tags_have_no_phrases() {
    let dict = learn_dictionary(&toy_corpus(), LearnOptions::default());
    assert!(dict.phrases(FaultTag::Network).is_empty());
    let cl = Classifier::new(dict);
    assert_eq!(
        cl.classify("data rate too high for the onboard network")
            .tag,
        FaultTag::UnknownT
    );
}

#[test]
fn toy_train_evaluate_on_same_distribution() {
    let eval: Vec<(FaultTag, String)> = vec![
        (FaultTag::Software, "software froze".to_owned()),
        (FaultTag::HangCrash, "watchdog reset happened".to_owned()),
        (FaultTag::Sensor, "lidar dropout again".to_owned()),
    ];
    let e = train_and_evaluate(&toy_corpus(), &eval, LearnOptions::default());
    assert_eq!(e.n, 3);
    assert!(e.tag_accuracy >= 2.0 / 3.0, "accuracy {}", e.tag_accuracy);
    assert!(e.category_accuracy >= e.tag_accuracy);
}

#[test]
fn toy_empty_inputs() {
    let dict = learn_dictionary(&[], LearnOptions::default());
    assert_eq!(phrase_count(&dict), 0);
    let e = train_and_evaluate(&[], &[], LearnOptions::default());
    assert_eq!(e.n, 0);
    assert_eq!(e.tag_accuracy, 0.0);
}

#[test]
fn toy_more_terms_capture_more_vocabulary() {
    let small = learn_dictionary(
        &toy_corpus(),
        LearnOptions {
            terms_per_tag: 2,
            bigrams_per_tag: 1,
            min_bigram_count: 2,
        },
    );
    let large = learn_dictionary(
        &toy_corpus(),
        LearnOptions {
            terms_per_tag: 10,
            bigrams_per_tag: 8,
            min_bigram_count: 1,
        },
    );
    assert!(phrase_count(&large) > phrase_count(&small));
}

const NGRAM_DOCS: [&str; 4] = [
    "software module froze during the test",
    "the software module froze again",
    "planner failed to anticipate the cyclist",
    "software bug in the planner",
];

#[test]
fn ngram_unigram_counts() {
    let c = count_ngrams(NGRAM_DOCS, 1);
    assert_eq!(c["software"], 3);
    assert_eq!(c["planner"], 2);
    assert_eq!(c["cyclist"], 1);
    assert!(!c.contains_key("the")); // stop word removed
}

#[test]
fn ngram_bigram_counts() {
    let c = count_ngrams(NGRAM_DOCS, 2);
    assert_eq!(c["software module"], 2);
    assert_eq!(c["module froze"], 2);
}

#[test]
fn ngram_top_k_sorted_and_thresholded() {
    let top = top_ngrams(NGRAM_DOCS, 2, 2, 10);
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].count, 2);
    // Ties sorted alphabetically.
    assert_eq!(top[0].ngram, "module froze");
    assert_eq!(top[1].ngram, "software module");
}

#[test]
fn ngram_top_k_truncates() {
    let top = top_ngrams(NGRAM_DOCS, 1, 1, 3);
    assert_eq!(top.len(), 3);
    assert_eq!(top[0].ngram, "software");
}

#[test]
fn ngram_short_documents_skipped() {
    assert!(count_ngrams(["hi"], 3).is_empty());
}

#[test]
#[should_panic(expected = "n-gram order must be positive")]
fn ngram_zero_order_panics() {
    count_ngrams(NGRAM_DOCS, 0);
}

// Three class-aggregated documents, as used when mining dictionary
// candidates: one per fault class.
const CLASS_DOCS: [&str; 3] = [
    "software froze software crashed software bug driver disengaged",
    "perception missed pedestrian perception failed driver disengaged",
    "watchdog error watchdog timer driver disengaged",
];

#[test]
fn tfidf_discriminative_terms_beat_boilerplate() {
    let m = TfIdf::fit(CLASS_DOCS);
    // "driver"/"disengaged" appear in all docs → low idf.
    assert!(m.idf("software") > m.idf("driver"));
    let top = m.top_terms(0, 2);
    assert_eq!(top[0].term, "software");
    assert_ne!(top[1].term, "driver");
}

#[test]
fn tfidf_idf_monotone_in_rarity() {
    let m = TfIdf::fit(CLASS_DOCS);
    assert!(m.idf("watchdog") > m.idf("driver"));
    // Unseen term has the largest idf.
    assert!(m.idf("unseen") >= m.idf("watchdog"));
}

#[test]
fn tfidf_score_zero_for_absent() {
    let m = TfIdf::fit(CLASS_DOCS);
    assert_eq!(m.score(0, "watchdog"), 0.0);
    assert_eq!(m.score(99, "software"), 0.0);
    assert!(m.score(0, "software") > 0.0);
}

#[test]
fn tfidf_top_terms_bounds() {
    let m = TfIdf::fit(CLASS_DOCS);
    assert!(m.top_terms(0, 100).len() >= 4);
    assert_eq!(m.top_terms(0, 1).len(), 1);
    assert!(m.top_terms(99, 5).is_empty());
    assert!(TfIdf::fit([]).top_terms(0, 5).is_empty());
}
