//! N-gram mining for dictionary construction.
//!
//! The paper builds its failure dictionary by making several passes over
//! the raw logs; this module implements the mechanical part of a pass:
//! extract the frequent n-grams of a corpus as candidate phrases.

use disengage_nlp::normalize::remove_stop_words;
use disengage_nlp::token::tokenize;
use std::collections::HashMap;

/// A candidate phrase with its corpus frequency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NgramCount {
    /// The space-joined n-gram.
    pub ngram: String,
    /// Occurrences across the corpus.
    pub count: usize,
}

/// Counts all `n`-grams (over stop-word-filtered tokens) in a corpus of
/// documents.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn count_ngrams<'a, I>(documents: I, n: usize) -> HashMap<String, usize>
where
    I: IntoIterator<Item = &'a str>,
{
    assert!(n > 0, "n-gram order must be positive");
    let mut counts = HashMap::new();
    for doc in documents {
        let tokens = remove_stop_words(&tokenize(doc));
        if tokens.len() < n {
            continue;
        }
        for w in tokens.windows(n) {
            *counts.entry(w.join(" ")).or_insert(0) += 1;
        }
    }
    counts
}

/// The `top_k` most frequent `n`-grams with at least `min_count`
/// occurrences, sorted by descending count (ties alphabetical).
pub fn top_ngrams<'a, I>(documents: I, n: usize, min_count: usize, top_k: usize) -> Vec<NgramCount>
where
    I: IntoIterator<Item = &'a str>,
{
    let counts = count_ngrams(documents, n);
    let mut out: Vec<NgramCount> = counts
        .into_iter()
        .filter(|(_, c)| *c >= min_count)
        .map(|(ngram, count)| NgramCount { ngram, count })
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.ngram.cmp(&b.ngram)));
    out.truncate(top_k);
    out
}
