//! Dictionary-based post-correction.
//!
//! Tesseract-era OCR pipelines repair recognized words against a
//! vocabulary; here a word whose exact form is unknown but which sits
//! within edit distance 1 of exactly one known word snaps to it. Numbers
//! and punctuation are left untouched (repairing `42` to `41` would
//! corrupt the data).

use std::collections::HashSet;

/// One audited token repair from the correction ladder: which line the
/// token sat on (1-based, matching the parsers' line numbering), what
/// it read before and after, and which ladder attempt fixed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenRepair {
    /// 1-based line number of the repaired token.
    pub line: usize,
    /// Token as digitized, before correction.
    pub before: String,
    /// Token after dictionary correction.
    pub after: String,
    /// Ladder attempt that applied the repair (1 = distance 1).
    pub attempt: u32,
}

/// Levenshtein edit distance between two strings (by `char`).
///
/// # Examples
///
/// ```
/// # use disengage_ocr::correct::edit_distance;
/// assert_eq!(edit_distance("watchdog", "watchdog"), 0);
/// assert_eq!(edit_distance("watchdog", "watchd0g"), 1);
/// assert_eq!(edit_distance("kitten", "sitting"), 3);
/// ```
pub fn edit_distance(a: &str, b: &str) -> usize {
    // Strip the common prefix and suffix on the string iterators before
    // materializing anything, so two identical texts cost no allocation.
    let mut ai = a.chars();
    let mut bi = b.chars();
    loop {
        let (ar, br) = (ai.as_str(), bi.as_str());
        match (ai.next(), bi.next()) {
            (Some(x), Some(y)) if x == y => continue,
            _ => {
                ai = ar.chars();
                bi = br.chars();
                break;
            }
        }
    }
    loop {
        let (ar, br) = (ai.as_str(), bi.as_str());
        match (ai.next_back(), bi.next_back()) {
            (Some(x), Some(y)) if x == y => continue,
            _ => {
                ai = ar.chars();
                bi = br.chars();
                break;
            }
        }
    }
    let (a, b) = (ai.as_str(), bi.as_str());
    // An empty side is answered here: the kernel would walk one
    // diagonal per inserted char to reach the same count.
    if a.is_empty() {
        return b.chars().count();
    }
    if b.is_empty() {
        return a.chars().count();
    }
    let d = match byte_code(a, b) {
        Some((a, b)) => distance_at_most(&a, &b, a.len().max(b.len())),
        None => {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            distance_at_most(&a, &b, a.len().max(b.len()))
        }
    };
    d.expect("an edit distance never exceeds the longer side's length")
}

/// Codes `a` and `b` one byte per char for [`distance_at_most`]: ASCII
/// as itself, and each distinct non-ASCII char of the pair as `128 +` its
/// rank of first appearance, so equal chars get equal bytes. Pipeline
/// filings are ASCII apart from the em dash some report formats use as
/// a separator, so the pair costs one byte per char instead of a 4-byte
/// `char`. `None` when the pair holds more than 128 distinct non-ASCII
/// chars.
fn byte_code(a: &str, b: &str) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut wide: Vec<char> = Vec::new();
    let mut code = |s: &str| -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c.is_ascii() {
                out.push(c as u8);
                continue;
            }
            let rank = match wide.iter().position(|&w| w == c) {
                Some(rank) => rank,
                None if wide.len() < 128 => {
                    wide.push(c);
                    wide.len() - 1
                }
                None => return None,
            };
            out.push(128 + rank as u8);
        }
        Some(out)
    };
    Some((code(a)?, code(b)?))
}

/// Rows live in `isize` so that unreached diagonals can sit far below
/// zero; slice lengths never exceed `isize::MAX`.
const UNREACHED: isize = isize::MIN / 2;

/// The largest cap whose kernel rows live on the stack. The
/// corrector's token queries cap at distance 1 or 2, and a row of cap
/// `e` has `2e + 5` entries.
const STACK_CAP: usize = 4;

/// One row of [`distance_at_most`]'s kernel: on the stack for a
/// bounded query, a growing heap row for an unbounded one.
trait Row: std::ops::IndexMut<usize, Output = isize> {
    /// Makes entries `0..len` unreached.
    fn reset(&mut self, len: usize);
}

impl Row for [isize; 2 * STACK_CAP + 5] {
    fn reset(&mut self, len: usize) {
        self[..len].fill(UNREACHED);
    }
}

impl Row for Vec<isize> {
    fn reset(&mut self, len: usize) {
        self.clear();
        self.resize(len, UNREACHED);
    }
}

/// The exact Levenshtein distance between `a` and `b` when it is at
/// most `cap`, else `None`: the one kernel behind both the
/// whole-document query ([`edit_distance`], which caps at the longer
/// length) and the corrector's bounded token query.
///
/// Diagonal transition (Ukkonen 1985; Myers 1986, "An O(ND) difference
/// algorithm"). Diagonal `k` holds the DP cells `(i, i + k)`. Along a
/// diagonal the DP never decreases, and neighbouring cells differ by at
/// most one, so each edit count `e` is summarized by the furthest row
/// every diagonal in `[−e, e]` reaches with `e` edits: one substitution,
/// deletion or insertion from the previous count's furthest rows on the
/// same or an adjacent diagonal, then a free slide along matching
/// symbols. The distance is the first `e` at which the goal diagonal
/// `b.len() − a.len()` reaches the last row.
///
/// Cost: O(n + d²) when off-path diagonals stop sliding soon after they
/// leave the optimal alignment, as on OCR text; O(n·d) at worst, on
/// periodic text, where every diagonal a period apart slides as far as
/// the optimal one. Memory: two rows of `2e + 5` entries, on the stack
/// when `cap` is at most [`STACK_CAP`] (every corrector query), else on
/// the heap, grown with `e` (the whole-document query's cap is the text
/// length, far above the distance it finds).
fn distance_at_most<T: PartialEq>(a: &[T], b: &[T], cap: usize) -> Option<usize> {
    if b.len().abs_diff(a.len()) > cap {
        return None;
    }
    if cap <= STACK_CAP {
        let mut rows = [[UNREACHED; 2 * STACK_CAP + 5]; 2];
        let [prev, curr] = &mut rows;
        transition(a, b, cap, prev, curr)
    } else {
        transition(a, b, cap, &mut Vec::new(), &mut Vec::new())
    }
}

/// [`distance_at_most`]'s kernel, on the rows it is handed.
fn transition<'r, T: PartialEq, R: Row>(
    a: &[T],
    b: &[T],
    cap: usize,
    mut prev: &'r mut R,
    mut curr: &'r mut R,
) -> Option<usize> {
    let (la, lb) = (a.len() as isize, b.len() as isize);
    let goal = lb - la;
    // The furthest row on diagonal `k` from row `i`, along matches.
    let slide = |k: isize, i: isize| -> isize {
        let (ai, bi) = (i as usize, (i + k) as usize);
        i + a[ai..]
            .iter()
            .zip(&b[bi..])
            .take_while(|(x, y)| x == y)
            .count() as isize
    };
    // Row `e` keeps diagonal `k` at index `k + e + 2`; the two
    // permanently unreached slots past each flank let the next row read
    // its `k ± 1` neighbours unguarded.
    prev.reset(5);
    prev[2] = slide(0, 0);
    for e in 0..=cap {
        let ei = e as isize;
        if e > 0 {
            curr.reset(2 * e + 5);
            for k in (-ei).max(-la)..=ei.min(lb) {
                // Diagonal `k` of row `e − 1` sits at `k + e + 1`.
                let p = (k + ei + 1) as usize;
                let substitute = prev[p] + 1;
                let delete = prev[p + 1] + 1;
                let insert = prev[p - 1];
                // Past the last row or column the move is void, but the
                // clamped cell is still within `e` edits: it was reached
                // with `e − 1` or sits next to a cell that was.
                let row = substitute.max(delete).max(insert).min(la).min(lb - k);
                curr[p + 1] = slide(k, row);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        if goal.abs() <= ei && prev[(goal + ei + 2) as usize] == la {
            return Some(e);
        }
    }
    None
}

/// A vocabulary-backed spelling corrector.
#[derive(Debug, Clone, Default)]
pub struct Corrector {
    vocabulary: HashSet<String>,
    /// The vocabulary bucketed by char length (`by_len[l]` = words of
    /// exactly `l` chars, with their chars pre-split), so a repair at
    /// distance `d` scans only the `2d + 1` adjacent buckets instead
    /// of re-counting every word's chars on every query. Candidate
    /// order within a bucket is insertion order; the repair result is
    /// order-independent (unique candidate or ambiguity bail-out).
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
                continue; // duplicate: one bucket entry is enough
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

    /// Repairs `core` against the vocabulary at exactly edit distance
    /// `distance`: unknown words with a *unique* candidate snap to it
    /// (`Some`); ambiguity or no candidate leaves the word alone
    /// (`None` — a wrong repair is worse than a missing one).
    fn correct_core_within(&self, core: &str, distance: usize) -> Option<&str> {
        if core.is_empty() || self.knows(core) || !core.chars().any(|c| c.is_ascii_alphabetic()) {
            return None;
        }
        // Beyond distance 1, digit-bearing cores are off limits: an OCR
        // digit↔letter confusion is a single substitution, while a
        // two-edit "repair" of an identifier like `car-7` would snap it
        // to a dictionary word and corrupt the record.
        if distance > 1 && core.chars().any(|c| c.is_ascii_digit()) {
            return None;
        }
        let core_chars: Vec<char> = core.chars().collect();
        let mut candidate: Option<&str> = None;
        // Only buckets within the length prefilter can hold candidates.
        let lo = core_chars.len().saturating_sub(distance);
        let hi = core_chars.len() + distance;
        for bucket in (lo..=hi).filter_map(|l| self.by_len.get(l)) {
            for (word, chars) in bucket {
                if distance_at_most(&core_chars, chars, distance) == Some(distance) {
                    if candidate.is_some() {
                        return None; // ambiguous: leave it
                    }
                    candidate = Some(word);
                }
            }
        }
        candidate
    }

    /// Corrects one word at a given repair distance: surrounding
    /// punctuation is preserved (so "vehicle," repairs "vehicle" and
    /// keeps the comma) and the alphanumeric core is repaired. `None`
    /// means the word is unchanged — the hot path, which allocates
    /// nothing.
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

    /// Bounded-retry correction: attempt `k` repairs words still
    /// unknown after attempt `k − 1`, at repair edit distance `k`
    /// (capped at 2 — beyond that, "repairs" are fabrications). Returns
    /// the corrected text, the per-attempt hit counts, and the audited
    /// per-token repairs (the provenance feed), listed in ladder order:
    /// attempt ascending, then line, then token order. The ladder stops
    /// early once an attempt past distance 1 repairs nothing; zero
    /// attempts behave like one.
    ///
    /// This is the degraded-scan path: past the calibrated CER a single
    /// distance-1 pass leaves too many words broken, and a second,
    /// more aggressive pass buys real recovery at bounded risk.
    ///
    /// `on_attempt(attempt, elapsed)` fires once per executed ladder
    /// rung, in rung order, with that rung's wall-clock duration. This
    /// is the profiler's hook — the corrector stays
    /// observability-agnostic (no telemetry dependency); callers turn
    /// the durations into whatever metric they keep, or pass a no-op.
    /// The callback cannot influence the ladder.
    pub fn correct_text_observed(
        &self,
        text: &str,
        max_attempts: u32,
        on_attempt: &mut dyn FnMut(u32, std::time::Duration),
    ) -> (String, Vec<u64>, Vec<TokenRepair>) {
        let mut current = text.to_owned();
        let mut per_attempt = Vec::new();
        let mut repairs = Vec::new();
        for attempt in 1..=max_attempts.max(1) {
            let rung_start = std::time::Instant::now();
            let distance = (attempt as usize).min(2);
            let mut hits = 0u64;
            // Build the rung's output in place: unchanged words (the
            // overwhelming majority) are copied straight from the
            // input, no per-word allocation.
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
            on_attempt(attempt, rung_start.elapsed());
            // A dry attempt ends the ladder only once the distance has
            // stopped rising — a fruitless distance-1 pass says nothing
            // about what distance 2 can still recover.
            if hits == 0 && distance >= 2 {
                break;
            }
        }
        (current, per_attempt, repairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrector() -> Corrector {
        Corrector::new(["watchdog", "error", "software", "module", "froze", "driver"])
    }

    /// The ladder's text and per-attempt hits, untimed.
    fn ladder(c: &Corrector, text: &str, max_attempts: u32) -> (String, Vec<u64>) {
        let (fixed, hits, _) = c.correct_text_observed(text, max_attempts, &mut |_, _| {});
        (fixed, hits)
    }

    #[test]
    fn known_words_unchanged() {
        assert_eq!(ladder(&corrector(), "watchdog", 1).0, "watchdog");
    }

    #[test]
    fn single_error_repaired() {
        let c = corrector();
        assert_eq!(ladder(&c, "watchd0g", 1).0, "watchdog");
        assert_eq!(ladder(&c, "erro", 1).0, "error");
        assert_eq!(ladder(&c, "softwaree", 1).0, "software");
    }

    #[test]
    fn distance_two_left_alone() {
        assert_eq!(ladder(&corrector(), "w4tchd0g", 1).0, "w4tchd0g");
    }

    #[test]
    fn ambiguity_left_alone() {
        // "fro" is distance 1 from nothing here; construct a real tie.
        let c = Corrector::new(["cat", "bat"]);
        assert_eq!(ladder(&c, "rat", 1).0, "rat"); // ties cat/bat
        assert_eq!(ladder(&c, "caat", 1).0, "cat"); // unique
    }

    #[test]
    fn numbers_never_corrected() {
        let c = Corrector::new(["2016"]);
        assert_eq!(ladder(&c, "2015", 1).0, "2015");
        assert_eq!(ladder(&c, "10.5", 1).0, "10.5");
    }

    #[test]
    fn text_correction_preserves_lines() {
        let c = corrector();
        let fixed = ladder(&c, "s0ftware module froz\nwatchdog err0r", 1).0;
        assert_eq!(fixed, "software module froze\nwatchdog error");
    }

    #[test]
    fn correction_hits_counted() {
        let c = corrector();
        let (fixed, hits) = ladder(&c, "s0ftware module froz\nwatchdog err0r", 1);
        assert_eq!(fixed, "software module froze\nwatchdog error");
        assert_eq!(hits, vec![3]);
        let (clean, none) = ladder(&c, "software module froze", 1);
        assert_eq!(clean, "software module froze");
        assert_eq!(none, vec![0]);
    }

    #[test]
    fn bounded_retry_reaches_distance_two() {
        let c = corrector();
        // "watchdqq" is distance 2 from "watchdog": one pass leaves it,
        // the second (distance-2) pass repairs it.
        let (one, hits1) = ladder(&c, "watchdqq error", 1);
        assert_eq!(one, "watchdqq error");
        assert_eq!(hits1, vec![0]);
        let (two, hits2) = ladder(&c, "watchdqq error", 2);
        assert_eq!(two, "watchdog error");
        assert_eq!(hits2, vec![0, 1]);
    }

    #[test]
    fn bounded_retry_stops_early_when_dry() {
        let c = corrector();
        // Attempt 1 repairs everything; attempt 2 finds nothing and the
        // ladder stops — no attempt 3 even with max_attempts = 4.
        let (fixed, hits) = ladder(&c, "watchd0g err0r", 4);
        assert_eq!(fixed, "watchdog error");
        assert_eq!(hits, vec![2, 0]);
    }

    #[test]
    fn bounded_retry_distance_capped_at_two() {
        let c = corrector();
        // Distance 3 from every vocabulary word: never repaired no
        // matter how many attempts (the cap keeps repairs honest).
        let (fixed, _) = ladder(&c, "errqqq", 5);
        assert_eq!(fixed, "errqqq");
    }

    #[test]
    fn digit_bearing_words_never_repaired_beyond_distance_one() {
        let c = corrector();
        // "w4tchd0g" is two digit substitutions from "watchdog", but a
        // two-edit repair of a digit-bearing token is forbidden — it
        // could just as well be an identifier.
        let (fixed, _) = ladder(&c, "w4tchd0g car-7", 3);
        assert_eq!(fixed, "w4tchd0g car-7");
    }

    #[test]
    fn audited_repairs_carry_lines_tokens_and_attempts() {
        let c = corrector();
        let (fixed, hits, repairs) =
            c.correct_text_observed("s0ftware module\nwatchdqq err0r", 2, &mut |_, _| {});
        assert_eq!(fixed, "software module\nwatchdog error");
        assert_eq!(hits, vec![2, 1]);
        assert_eq!(
            repairs,
            vec![
                TokenRepair {
                    line: 1,
                    before: "s0ftware".to_owned(),
                    after: "software".to_owned(),
                    attempt: 1,
                },
                TokenRepair {
                    line: 2,
                    before: "err0r".to_owned(),
                    after: "error".to_owned(),
                    attempt: 1,
                },
                TokenRepair {
                    line: 2,
                    before: "watchdqq".to_owned(),
                    after: "watchdog".to_owned(),
                    attempt: 2,
                },
            ]
        );
    }

    #[test]
    fn bounded_zero_attempts_behaves_like_one() {
        let c = corrector();
        let (fixed, hits) = ladder(&c, "err0r", 0);
        assert_eq!(fixed, "error");
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn edit_distance_cases() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    /// The full O(n·m) DP — the definition the kernel is pinned to.
    fn full_dp_distance(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
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

    /// A random string of `len` symbols drawn from `alphabet`.
    fn random_text(rng: &mut rand::rngs::StdRng, alphabet: &[char], len: usize) -> String {
        use rand::Rng;
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    #[test]
    fn edit_distance_matches_full_dp_on_random_strings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xED17);
        let alphabet: Vec<char> = "abcdeé—01".chars().collect();
        for _ in 0..2000 {
            let la = rng.gen_range(0..24);
            let lb = rng.gen_range(0..24);
            let a = random_text(&mut rng, &alphabet, la);
            let b = random_text(&mut rng, &alphabet, lb);
            assert_eq!(
                edit_distance(&a, &b),
                full_dp_distance(&a, &b),
                "kernel != full DP for {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn edit_distance_on_mutated_long_strings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The pipeline shape: a long reference with a few percent of
        // scattered substitutions, insertions and deletions. The
        // indels move the optimal alignment off diagonal 0, and the
        // period-23 reference gives every diagonal 23 apart a long
        // slide of its own.
        let mut rng = StdRng::seed_from_u64(0xCE2);
        let reference: String = (0..600)
            .map(|i| char::from(b'a' + (i % 23) as u8))
            .collect();
        for _ in 0..40 {
            let mut mutated: Vec<char> = reference.chars().collect();
            let edits = rng.gen_range(0..30);
            for _ in 0..edits {
                let i = rng.gen_range(0..mutated.len());
                let c = char::from(b'a' + rng.gen_range(0..26) as u8);
                match rng.gen_range(0..3) {
                    0 => mutated[i] = c,
                    1 => mutated.insert(i, c),
                    _ => {
                        mutated.remove(i);
                    }
                }
            }
            let hyp: String = mutated.iter().collect();
            assert_eq!(
                edit_distance(&reference, &hyp),
                full_dp_distance(&reference, &hyp)
            );
            assert_eq!(
                edit_distance(&hyp, &reference),
                full_dp_distance(&hyp, &reference)
            );
        }
    }

    #[test]
    fn wide_alphabets_take_the_char_fallback() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let wide: Vec<char> = ('\u{100}'..'\u{1c8}').collect();
        assert_eq!(wide.len(), 200);
        // 128 distinct non-ASCII chars still code one byte each; the
        // 129th sends the pair to `char` symbols.
        let fits: String = wide[..128].iter().collect();
        assert!(byte_code(&fits, "abc").is_some());
        let spills: String = wide[..129].iter().collect();
        assert!(byte_code(&spills, "abc").is_none());
        assert!(byte_code(&fits, &wide[128..].iter().collect::<String>()).is_none());

        let mut rng = StdRng::seed_from_u64(0x1DE);
        let mut alphabet = wide;
        alphabet.extend("abc —".chars());
        for _ in 0..200 {
            let a = random_text(&mut rng, &alphabet, 160);
            let b = random_text(&mut rng, &alphabet, 150);
            assert!(byte_code(&a, &b).is_none(), "expected the char fallback");
            assert_eq!(edit_distance(&a, &b), full_dp_distance(&a, &b));
        }
    }

    #[test]
    fn distance_at_most_is_exact_within_the_band() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut pairs: Vec<(String, String)> = [
            ("watchdog", "watchdog"),
            ("watchdog", "watchd0g"),
            ("watchdog", "w4tchd0g"),
            ("kitten", "sitting"),
            ("", "ab"),
            ("ab", ""),
            ("abc", "xyz"),
        ]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
        // Random pairs at corrector-token lengths.
        let mut rng = StdRng::seed_from_u64(0xCA9);
        let alphabet: Vec<char> = "abcé".chars().collect();
        for _ in 0..3000 {
            let la = rng.gen_range(0..10);
            let lb = rng.gen_range(0..10);
            let a = random_text(&mut rng, &alphabet, la);
            let b = random_text(&mut rng, &alphabet, lb);
            pairs.push((a, b));
        }
        for (a, b) in &pairs {
            let ac: Vec<char> = a.chars().collect();
            let bc: Vec<char> = b.chars().collect();
            let truth = full_dp_distance(a, b);
            // Bands past STACK_CAP run the kernel on heap rows.
            for band in 0..=STACK_CAP + 2 {
                let got = distance_at_most(&ac, &bc, band);
                if truth <= band {
                    assert_eq!(got, Some(truth), "{a:?} vs {b:?} band {band}");
                } else {
                    assert_eq!(got, None, "{a:?} vs {b:?} band {band}");
                }
            }
        }
    }

    #[test]
    fn knows_its_vocabulary() {
        let c = corrector();
        assert!(c.knows("driver"));
        assert!(!c.knows("pilot"));
    }

    #[test]
    fn observed_ladder_times_each_rung_without_changing_results() {
        let c = corrector();
        let text = "the watchdog module frose\nsoftwar3 error";
        let reference = c.correct_text_observed(text, 3, &mut |_, _| {});
        let mut rungs = Vec::new();
        let observed = c.correct_text_observed(text, 3, &mut |attempt, elapsed| {
            rungs.push((attempt, elapsed));
        });
        assert_eq!(observed, reference);
        // One callback per executed rung, in ladder order; the rung
        // count matches the per-attempt hit vector.
        assert_eq!(rungs.len(), reference.1.len());
        for (i, (attempt, _)) in rungs.iter().enumerate() {
            assert_eq!(*attempt as usize, i + 1);
        }
    }
}
