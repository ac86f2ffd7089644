//! The reference keyword-voting classifier the compiled one is pinned to.
//!
//! This is the original `Classifier::classify_detailed` — a `String` per
//! token, a `BTreeSet` of normalized description tokens, per-tag keyword
//! sets cloned on every hit, and a window scan per phrase — kept as an
//! executable specification, together with the verdict shape it
//! returned, [`ReferenceAssignment`], whose matched keywords are
//! strings. The root `classifier_equivalence` suite asserts that
//! [`disengage_nlp::Classifier`] returns the same verdict, its
//! matched-keyword ids resolving through `Classifier::stem` to the
//! reference's strings in order, and the identical `Vec<TagVote>`,
//! score and margin bits included; `tag_equivalence` runs the reference
//! per-record tagging loop on it. It lives in test code because no
//! production path runs it.

use disengage_nlp::normalize::{normalize, stem};
use disengage_nlp::token::tokenize;
use disengage_nlp::{
    Classifier, FailureCategory, FailureDictionary, FaultTag, TagAssignment, TagVote,
};
use std::collections::BTreeSet;

/// The verdict as the original classifier returned it: the matched
/// keywords as normalized strings, in lexicographic order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceAssignment {
    /// Winning fault tag (`Unknown-T` when nothing matched).
    pub tag: FaultTag,
    /// Root category implied by the tag.
    pub category: FailureCategory,
    /// The winning score.
    pub score: f64,
    /// Winning score minus the best losing score.
    pub margin: f64,
    /// Normalized keywords that matched the winning tag.
    pub matched_keywords: Vec<String>,
    /// Whether another tag tied the winning score.
    pub ambiguous: bool,
}

impl ReferenceAssignment {
    /// `got`, a verdict of `classifier`, in this shape: each
    /// matched-keyword id resolved through `Classifier::stem`.
    pub fn resolved(got: &TagAssignment, classifier: &Classifier) -> ReferenceAssignment {
        ReferenceAssignment {
            tag: got.tag,
            category: got.category,
            score: got.score,
            margin: got.margin,
            matched_keywords: got
                .matched_keywords
                .iter()
                .map(|&id| classifier.stem(id).to_owned())
                .collect(),
            ambiguous: got.ambiguous,
        }
    }
}

/// The pre-compilation classifier: per-tag normalized keyword sets and
/// stemmed phrase token sequences.
#[derive(Debug, Clone)]
pub struct ReferenceClassifier {
    keyword_sets: Vec<(FaultTag, BTreeSet<String>)>,
    phrase_sets: Vec<(FaultTag, Vec<Vec<String>>)>,
}

impl ReferenceClassifier {
    /// Builds the reference classifier from a dictionary.
    pub fn new(dictionary: &FailureDictionary) -> ReferenceClassifier {
        let keyword_sets = FaultTag::ALL
            .iter()
            .filter(|&&t| t != FaultTag::UnknownT)
            .map(|&t| (t, dictionary.keyword_set(t)))
            .collect();
        let phrase_sets = FaultTag::ALL
            .iter()
            .filter(|&&t| t != FaultTag::UnknownT)
            .map(|&t| (t, dictionary.phrase_tokens(t)))
            .collect();
        ReferenceClassifier {
            keyword_sets,
            phrase_sets,
        }
    }

    /// Reference [`disengage_nlp::Classifier::classify_detailed`].
    pub fn classify_detailed(&self, description: &str) -> (ReferenceAssignment, Vec<TagVote>) {
        let raw_tokens = tokenize(description);
        let desc_tokens = normalize(&raw_tokens);
        let desc_set: BTreeSet<&str> = desc_tokens.iter().map(String::as_str).collect();
        // Stemmed-but-unstopped sequence for contiguous phrase matching.
        let stem_seq: Vec<String> = raw_tokens.iter().map(|t| stem(t)).collect();

        let mut best: Option<(FaultTag, f64, Vec<String>)> = None;
        let mut second_score = 0.0f64;
        let mut ambiguous = false;
        let mut votes = Vec::new();
        for ((tag, keywords), (_, phrases)) in self.keyword_sets.iter().zip(&self.phrase_sets) {
            let matched: Vec<String> = keywords
                .iter()
                .filter(|k| desc_set.contains(k.as_str()))
                .cloned()
                .collect();
            let mut score = matched.len() as f64;
            // Contiguous multi-word phrase hits vote double.
            for phrase in phrases {
                if phrase.len() >= 2 && contains_subsequence(&stem_seq, phrase) {
                    score += phrase.len() as f64;
                }
            }
            if score <= 0.0 {
                continue;
            }
            votes.push(TagVote {
                tag: *tag,
                score,
                matched_keywords: matched.clone(),
            });
            match &best {
                Some((_, best_score, _)) if score < *best_score => {
                    second_score = second_score.max(score);
                }
                Some((_, best_score, _)) if (score - best_score).abs() < f64::EPSILON => {
                    ambiguous = true;
                    second_score = *best_score;
                }
                _ => {
                    if let Some((_, prev_best, _)) = &best {
                        second_score = second_score.max(*prev_best);
                    }
                    ambiguous = false;
                    best = Some((*tag, score, matched));
                }
            }
        }

        let assignment = match best {
            Some((tag, score, matched_keywords)) => ReferenceAssignment {
                tag,
                category: tag.category(),
                score,
                margin: score - second_score,
                matched_keywords,
                ambiguous,
            },
            None => ReferenceAssignment {
                tag: FaultTag::UnknownT,
                category: FailureCategory::UnknownC,
                score: 0.0,
                margin: 0.0,
                matched_keywords: Vec::new(),
                ambiguous: false,
            },
        };
        (assignment, votes)
    }
}

/// Whether `needle` appears as a contiguous subsequence of `haystack`.
fn contains_subsequence(haystack: &[String], needle: &[String]) -> bool {
    if needle.is_empty() || haystack.len() < needle.len() {
        return false;
    }
    haystack
        .windows(needle.len())
        .any(|w| w.iter().zip(needle).all(|(a, b)| a == b))
}

#[test]
fn subsequence_helper() {
    let hay: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
    let yes: Vec<String> = ["b", "c"].iter().map(|s| s.to_string()).collect();
    let no: Vec<String> = ["b", "d"].iter().map(|s| s.to_string()).collect();
    assert!(contains_subsequence(&hay, &yes));
    assert!(!contains_subsequence(&hay, &no));
    assert!(!contains_subsequence(&hay, &[]));
}
