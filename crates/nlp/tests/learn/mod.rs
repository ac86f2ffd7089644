//! Dictionary learning: build a failure dictionary from a labeled
//! corpus.
//!
//! The paper's authors constructed their dictionary by making "several
//! passes over the dataset" and selecting the phrases that differentiate
//! fault classes. This module mechanizes one such pass: aggregate the
//! descriptions of each fault class into one document, rank terms by
//! TF-IDF (frequent in the class, rare elsewhere), and take the top
//! discriminative terms and bigrams per class as that class's phrases.
//!
//! It is test support, not part of the pipeline: no binary learns a
//! dictionary (they all classify with the shipped one). The root suites
//! include it through `#[path]`: `dictionary_learning` (the EXPERIMENTS.md
//! ablation), `classifier_equivalence` (a learned dictionary is one of
//! its test dictionaries) and, for [`ngram`] and [`tfidf`] alone,
//! `stage_integration`.

pub mod ngram;
pub mod tfidf;

use disengage_nlp::{FailureDictionary, FaultTag};
use ngram::{count_ngrams, top_ngrams};
use std::collections::{BTreeMap, HashMap};
use tfidf::TfIdf;

/// Phrases across every tag of `dictionary`.
pub fn phrase_count(dictionary: &FailureDictionary) -> usize {
    FaultTag::ALL
        .iter()
        .map(|&t| dictionary.phrases(t).len())
        .sum()
}

/// Options for dictionary learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnOptions {
    /// Discriminative unigrams to keep per tag.
    pub terms_per_tag: usize,
    /// Frequent bigrams to keep per tag.
    pub bigrams_per_tag: usize,
    /// Minimum occurrences for a bigram to qualify.
    pub min_bigram_count: usize,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            terms_per_tag: 8,
            bigrams_per_tag: 5,
            min_bigram_count: 2,
        }
    }
}

/// Learns a [`FailureDictionary`] from labeled descriptions.
///
/// Descriptions labeled [`FaultTag::UnknownT`] are ignored (the fallback
/// class has no vocabulary by construction). Tags with no examples end
/// up with no phrases — classification then falls back to `Unknown-T`
/// for them, exactly like an undertrained real dictionary.
pub fn learn_dictionary(
    labeled: &[(FaultTag, String)],
    options: LearnOptions,
) -> FailureDictionary {
    // Aggregate descriptions per tag.
    let mut per_tag: BTreeMap<FaultTag, Vec<&str>> = BTreeMap::new();
    for (tag, text) in labeled {
        if *tag == FaultTag::UnknownT {
            continue;
        }
        per_tag.entry(*tag).or_default().push(text.as_str());
    }
    let tags: Vec<FaultTag> = per_tag.keys().copied().collect();
    let class_docs: Vec<String> = tags.iter().map(|t| per_tag[t].join(" ")).collect();
    let model = TfIdf::fit(class_docs.iter().map(String::as_str));

    // Cross-class document frequency of terms and bigrams, to drop
    // boilerplate ("driver", "manual operation") that occurs in most
    // classes' narratives. Unigrams tokenize exactly as the TF-IDF model
    // does; a bigram holds a space, so the two never share a key.
    let mut class_df: HashMap<String, usize> = HashMap::new();
    for doc in &class_docs {
        for n in [1, 2] {
            for gram in count_ngrams([doc.as_str()], n).into_keys() {
                *class_df.entry(gram).or_insert(0) += 1;
            }
        }
    }
    let df = |gram: &str| class_df.get(gram).copied().unwrap_or(0);

    let mut dict = FailureDictionary::new();
    let n_classes = tags.len().max(1);
    for (i, &tag) in tags.iter().enumerate() {
        // Discriminative unigrams: skip boilerplate that appears in more
        // than half the classes ("driver", "test", ...), which TF-IDF
        // down-weights but does not eliminate with this few documents.
        let mut kept = 0usize;
        for term in model.top_terms(i, options.terms_per_tag * 3) {
            if kept >= options.terms_per_tag {
                break;
            }
            if df(&term.term) * 2 > n_classes {
                continue;
            }
            dict.add_phrase(tag, &term.term);
            kept += 1;
        }
        // Frequent *discriminative* bigrams within the class give the
        // phrase-match bonus its contiguous sequences.
        let mut kept_bigrams = 0usize;
        for ngram in top_ngrams(
            per_tag[&tag].iter().copied(),
            2,
            options.min_bigram_count,
            options.bigrams_per_tag * 3,
        ) {
            if kept_bigrams >= options.bigrams_per_tag {
                break;
            }
            if df(&ngram.ngram) * 2 > n_classes {
                continue;
            }
            dict.add_phrase(tag, &ngram.ngram);
            kept_bigrams += 1;
        }
    }
    dict
}
