//! The reference corrector the char-set prefilter is pinned to.
//!
//! This is the original `correct::Corrector`: a vocabulary set for the
//! known-word check and the vocabulary bucketed by char length, where a
//! repair at distance `d` runs a full Levenshtein DP against every word
//! of the `2d + 1` adjacent buckets. The production corrector skips
//! words whose char sets rule them out before its distance kernel runs.
//! The root `correct_equivalence` suite asserts that
//! [`disengage_ocr::Corrector::correct_text_observed`] returns this
//! corrector's text, per-attempt hits and audited repairs on every
//! digitized filing and on random vocabularies. It lives in test code
//! because no production path runs it.

use disengage_ocr::TokenRepair;
use std::collections::HashSet;

/// The full O(n·m) Levenshtein DP over chars.
fn levenshtein(a: &[char], b: &[char]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// A vocabulary-backed spelling corrector, scanning every word of its
/// length buckets.
#[derive(Debug, Clone)]
pub struct Corrector {
    vocabulary: HashSet<String>,
    /// `by_len[l]` = the words of exactly `l` chars, with their chars,
    /// in insertion order.
    by_len: Vec<Vec<(String, Vec<char>)>>,
}

impl Corrector {
    /// Builds a corrector from a vocabulary of known words.
    pub fn new<I, S>(words: I) -> Corrector
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut vocabulary = HashSet::new();
        let mut by_len: Vec<Vec<(String, Vec<char>)>> = Vec::new();
        for word in words {
            let word: String = word.into();
            if !vocabulary.insert(word.clone()) {
                continue;
            }
            let chars: Vec<char> = word.chars().collect();
            if by_len.len() <= chars.len() {
                by_len.resize(chars.len() + 1, Vec::new());
            }
            by_len[chars.len()].push((word, chars));
        }
        Corrector { vocabulary, by_len }
    }

    /// Whether a word is in the vocabulary.
    pub fn knows(&self, word: &str) -> bool {
        self.vocabulary.contains(word)
    }

    /// The unique vocabulary word exactly `distance` edits from an
    /// unknown `core`, if there is one.
    fn correct_core_within(&self, core: &str, distance: usize) -> Option<&str> {
        if core.is_empty() || self.knows(core) || !core.chars().any(|c| c.is_ascii_alphabetic()) {
            return None;
        }
        if distance > 1 && core.chars().any(|c| c.is_ascii_digit()) {
            return None;
        }
        let core_chars: Vec<char> = core.chars().collect();
        let mut candidate: Option<&str> = None;
        let lo = core_chars.len().saturating_sub(distance);
        let hi = core_chars.len() + distance;
        for bucket in (lo..=hi).filter_map(|l| self.by_len.get(l)) {
            for (word, chars) in bucket {
                if levenshtein(&core_chars, chars) == distance {
                    if candidate.is_some() {
                        return None;
                    }
                    candidate = Some(word);
                }
            }
        }
        candidate
    }

    /// Repairs the alphanumeric core of `word`, keeping the punctuation
    /// around it; `None` when the word is left alone.
    fn correct_word_within(&self, word: &str, distance: usize) -> Option<String> {
        let start = word
            .find(|c: char| c.is_ascii_alphanumeric())
            .unwrap_or(word.len());
        let end = word
            .rfind(|c: char| c.is_ascii_alphanumeric())
            .map_or(start, |i| {
                i + word[i..].chars().next().map_or(1, char::len_utf8)
            });
        let (prefix, rest) = word.split_at(start);
        let (core, suffix) = rest.split_at(end.saturating_sub(start));
        let fixed = self.correct_core_within(core, distance)?;
        Some(format!("{prefix}{fixed}{suffix}"))
    }

    /// The bounded repair ladder: attempt `k` repairs at distance
    /// `min(k, 2)` what attempt `k − 1` left unknown, stopping after a
    /// dry attempt past distance 1. Returns the text, the per-attempt
    /// hits and the repairs in ladder order.
    pub fn correct_text(
        &self,
        text: &str,
        max_attempts: u32,
    ) -> (String, Vec<u64>, Vec<TokenRepair>) {
        let mut current = text.to_owned();
        let mut per_attempt = Vec::new();
        let mut repairs = Vec::new();
        for attempt in 1..=max_attempts.max(1) {
            let distance = (attempt as usize).min(2);
            let mut hits = 0u64;
            let mut out = String::with_capacity(current.len());
            for (line_idx, line) in current.lines().enumerate() {
                if line_idx > 0 {
                    out.push('\n');
                }
                for (word_idx, w) in line.split(' ').enumerate() {
                    if word_idx > 0 {
                        out.push(' ');
                    }
                    match self.correct_word_within(w, distance) {
                        Some(fixed) => {
                            hits += 1;
                            out.push_str(&fixed);
                            repairs.push(TokenRepair {
                                line: line_idx + 1,
                                before: w.to_owned(),
                                after: fixed,
                                attempt,
                            });
                        }
                        None => out.push_str(w),
                    }
                }
            }
            per_attempt.push(hits);
            current = out;
            if hits == 0 && distance >= 2 {
                break;
            }
        }
        (current, per_attempt, repairs)
    }
}
