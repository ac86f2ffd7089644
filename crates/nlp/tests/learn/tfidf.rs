//! TF-IDF ranking for dictionary construction.
//!
//! When mining dictionary phrases, raw frequency favors boilerplate
//! ("driver resumed manual control" appears in nearly every Nissan line).
//! TF-IDF ranks terms that are frequent in one *class* of documents but
//! rare across classes — exactly the discriminative phrases a failure
//! dictionary needs.

use disengage_nlp::normalize::remove_stop_words;
use disengage_nlp::token::tokenize;
use std::collections::{HashMap, HashSet};

/// A scored term.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredTerm {
    /// The term.
    pub term: String,
    /// Its TF-IDF score.
    pub score: f64,
}

/// A TF-IDF model over a document corpus.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    /// Per-document token counts.
    doc_counts: Vec<HashMap<String, usize>>,
    /// Number of documents containing each term.
    doc_freq: HashMap<String, usize>,
}

impl TfIdf {
    /// Builds the model from a corpus (stop words removed).
    pub fn fit<'a, I>(documents: I) -> TfIdf
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut model = TfIdf::default();
        for doc in documents {
            let tokens = remove_stop_words(&tokenize(doc));
            let mut counts: HashMap<String, usize> = HashMap::new();
            for t in tokens {
                *counts.entry(t).or_insert(0) += 1;
            }
            let distinct: HashSet<&String> = counts.keys().collect();
            for term in distinct {
                *model.doc_freq.entry(term.clone()).or_insert(0) += 1;
            }
            model.doc_counts.push(counts);
        }
        model
    }

    /// Smoothed inverse document frequency of a term:
    /// `ln((1 + N) / (1 + df)) + 1`.
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.doc_counts.len() as f64;
        let df = self.doc_freq.get(term).copied().unwrap_or(0) as f64;
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    /// TF-IDF score of a term within document `doc` (term frequency is
    /// count / doc length).
    ///
    /// Returns 0 for unknown documents or absent terms.
    pub fn score(&self, doc: usize, term: &str) -> f64 {
        let Some(counts) = self.doc_counts.get(doc) else {
            return 0.0;
        };
        let total: usize = counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let tf = counts.get(term).copied().unwrap_or(0) as f64 / total as f64;
        tf * self.idf(term)
    }

    /// The `top_k` highest-scoring terms of document `doc`.
    pub fn top_terms(&self, doc: usize, top_k: usize) -> Vec<ScoredTerm> {
        let Some(counts) = self.doc_counts.get(doc) else {
            return Vec::new();
        };
        let mut scored: Vec<ScoredTerm> = counts
            .keys()
            .map(|t| ScoredTerm {
                term: t.clone(),
                score: self.score(doc, t),
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| a.term.cmp(&b.term))
        });
        scored.truncate(top_k);
        scored
    }
}
