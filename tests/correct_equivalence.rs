//! Pins the corrector's char-set prefilter to the full bucket scan.
//!
//! [`Corrector`] skips every vocabulary word whose char set differs from
//! the query's in more than `2d` bits before its distance kernel runs;
//! it must be a pure speedup. On every input here its repair ladder
//! must return exactly what the original corrector (kept in the
//! test-support module [`full_scan`], a full DP on every word of the
//! length buckets) returns: the same text, the same per-attempt hits
//! and the same audited [`TokenRepair`](disengage::ocr::TokenRepair)
//! list. The inputs are every word of every digitized filing, as Stage I
//! corrects it, and random vocabularies and queries with non-ASCII
//! chars. Any divergence would move the digitized text, the
//! `ocr.correct.*` counters, the `OcrRepair` lineage and every digest
//! downstream of them.
//!
//! The default run covers every filing at scale 0.05, light and heavy
//! noise (heavy also through a three-attempt ladder); the full grid
//! (scales 0.25 and 1, and the chaos repair ladder, which reaches
//! distance 2) is `#[ignore]`d and runs in release from
//! `scripts/verify.sh`.

#[path = "../crates/ocr/tests/full_scan/mod.rs"]
mod full_scan;

use disengage::chaos::{inject_documents, FaultPlan};
use disengage::core::pipeline::{default_corrector, default_vocabulary};
use disengage::core::RunConfig;
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::ocr::stream::StreamTimings;
use disengage::ocr::{digitize_streamed, Corrector, NoiseModel, OcrEngine, StreamScratch};
use disengage::reports::formats::RawDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts both correctors repair `text` alike over a ladder of
/// `attempts`; returns the per-attempt hits.
fn assert_agrees(
    fast: &Corrector,
    reference: &full_scan::Corrector,
    text: &str,
    attempts: u32,
    what: &str,
) -> Vec<u64> {
    let (got_text, got_hits, got_repairs) =
        fast.correct_text_observed(text, attempts, &mut |_, _| {});
    let (want_text, want_hits, want_repairs) = reference.correct_text(text, attempts);
    if got_text != want_text {
        // Name the first line that differs, not the whole filing.
        let (line, (got, want)) = got_text
            .split('\n')
            .zip(want_text.split('\n'))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((0, (&got_text, &want_text)));
        panic!(
            "text diverged on {what}, line {}:\n  got  {got:?}\n  want {want:?}",
            line + 1
        );
    }
    assert_eq!(got_hits, want_hits, "per-attempt hits diverged on {what}");
    assert_eq!(got_repairs, want_repairs, "repairs diverged on {what}");
    got_hits
}

/// The production corrector and the reference over the same
/// vocabulary.
fn correctors() -> (&'static Corrector, full_scan::Corrector) {
    let words = default_vocabulary();
    let fast = default_corrector();
    for w in &words {
        assert!(fast.knows(w), "default corrector lacks {w:?}");
    }
    (fast, full_scan::Corrector::new(words))
}

/// Every raw filing the generator writes at `scale`, in corpus order
/// (document `i` is corpus index `i`).
fn filings(scale: f64) -> Vec<RawDocument> {
    CorpusGenerator::new(CorpusConfig {
        scale,
        ..CorpusConfig::default()
    })
    .generate()
    .documents
}

/// Digitizes every filing at `scale` as Stage I does (streamed, seeded
/// per document from the default OCR seed and the corpus index) and
/// checks the repair ladder of each `attempts` on its text. Returns the
/// hits summed per attempt over the ladders of `attempts[0]`.
fn check_filings(scale: f64, noise: NoiseModel, attempts: &[u32], label: &str) -> Vec<u64> {
    let (fast, reference) = correctors();
    let ocr_seed = RunConfig::new().ocr_seed;
    let engine = OcrEngine::new();
    let mut scratch = StreamScratch::default();
    let mut totals: Vec<u64> = Vec::new();
    for (i, doc) in filings(scale).iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(rand::derive_seed(ocr_seed, i as u64));
        let recognized = digitize_streamed(
            &doc.text,
            &noise,
            &engine,
            &mut scratch,
            &mut rng,
            &mut StreamTimings::default(),
        );
        for (a, &ladder) in attempts.iter().enumerate() {
            let what = format!("{label} filing {i} at scale {scale}, {ladder} attempt(s)");
            let hits = assert_agrees(fast, &reference, &recognized.text, ladder, &what);
            if a == 0 {
                totals.resize(totals.len().max(hits.len()), 0);
                for (t, h) in totals.iter_mut().zip(&hits) {
                    *t += h;
                }
            }
        }
    }
    assert!(
        totals.first().is_some_and(|&h| h > 0),
        "{label} noise at scale {scale} repaired nothing"
    );
    totals
}

/// Checks the chaos repair ladder on every filing at `scale` perturbed
/// by `plan`, as the session's chaos repair runs it.
fn check_chaos(scale: f64, plan: FaultPlan) -> Vec<u64> {
    let (fast, reference) = correctors();
    let (faulted, log) = inject_documents(&plan, &filings(scale), 0);
    assert!(log.total() > 0, "plan injected nothing");
    let mut totals = vec![0u64; plan.repair_attempts as usize];
    for (i, doc) in faulted.iter().enumerate() {
        let what = format!("chaos doc {i} at scale {scale}");
        let hits = assert_agrees(fast, &reference, &doc.text, plan.repair_attempts, &what);
        for (t, h) in totals.iter_mut().zip(&hits) {
            *t += h;
        }
    }
    totals
}

#[test]
fn every_filing_agrees_at_small_scale() {
    check_filings(0.05, NoiseModel::light(), &[1], "light");
    check_filings(0.05, NoiseModel::heavy(), &[1, 3], "heavy");
}

#[test]
#[ignore = "full grid: ~4 s in release, run by scripts/verify.sh"]
fn every_filing_agrees_on_the_full_grid() {
    for scale in [0.25, 1.0] {
        check_filings(scale, NoiseModel::light(), &[1, 3], "light");
        let heavy = check_filings(scale, NoiseModel::heavy(), &[3, 1], "heavy");
        assert!(
            heavy.get(1).is_some_and(|&h| h > 0),
            "heavy noise at scale {scale} made no distance-2 repair: {heavy:?}"
        );
    }
    let mut plan = FaultPlan::new(0.05, 7);
    plan.repair_attempts = 3;
    let chaos = check_chaos(0.25, plan);
    assert!(
        chaos.iter().skip(1).any(|&h| h > 0),
        "the chaos ladder made no distance-2 repair: {chaos:?}"
    );
    check_chaos(0.05, FaultPlan::new(0.3, 11));
}

/// A random string of `len` symbols drawn from `alphabet`.
fn random_text(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// `word` after `edits` random substitutions, insertions and deletions
/// drawn from `alphabet`.
fn mutate(rng: &mut StdRng, word: &str, edits: usize, alphabet: &[char]) -> String {
    let mut chars: Vec<char> = word.chars().collect();
    for _ in 0..edits {
        let c = alphabet[rng.gen_range(0..alphabet.len())];
        let i = rng.gen_range(0..=chars.len());
        match rng.gen_range(0..3) {
            0 if i < chars.len() => chars[i] = c,
            1 => chars.insert(i, c),
            _ if i < chars.len() => {
                chars.remove(i);
            }
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn random_vocabularies_and_queries_agree() {
    // Letters, digits, punctuation that can sit inside a core, and
    // non-ASCII chars, which all share one char-set bit.
    let alphabet: Vec<char> = "abcdeklmnoRST019-'é—üß".chars().collect();
    let punct = ['(', ')', ',', '.', ':', '"'];
    let mut rng = StdRng::seed_from_u64(0xC0EE);
    let mut repairs = [0u64; 3];
    for round in 0..300 {
        let size = rng.gen_range(1..120);
        let vocabulary: Vec<String> = (0..size)
            .map(|_| {
                let len = rng.gen_range(1..9);
                random_text(&mut rng, &alphabet, len)
            })
            .collect();
        let fast = Corrector::new(vocabulary.iter().cloned());
        let reference = full_scan::Corrector::new(vocabulary.iter().cloned());
        let mut text = String::new();
        for line in 0..rng.gen_range(1..6) {
            if line > 0 {
                text.push('\n');
            }
            for w in 0..rng.gen_range(1..12) {
                if w > 0 {
                    text.push(' ');
                }
                let word = match rng.gen_range(0..4) {
                    0 => {
                        let len = rng.gen_range(0..9);
                        random_text(&mut rng, &alphabet, len)
                    }
                    _ => {
                        let base = &vocabulary[rng.gen_range(0..vocabulary.len())];
                        let edits = rng.gen_range(0..4);
                        mutate(&mut rng, base, edits, &alphabet)
                    }
                };
                if rng.gen_range(0..4) == 0 {
                    text.push(punct[rng.gen_range(0..punct.len())]);
                }
                text.push_str(&word);
                if rng.gen_range(0..4) == 0 {
                    text.push(punct[rng.gen_range(0..punct.len())]);
                }
            }
        }
        for attempts in 1..=3 {
            let what = format!("round {round}, {attempts} attempt(s): {text:?}");
            let hits = assert_agrees(&fast, &reference, &text, attempts, &what);
            if attempts == 3 {
                for (r, h) in repairs.iter_mut().zip(&hits) {
                    *r += h;
                }
            }
        }
    }
    assert!(
        repairs[0] > 0 && repairs[1] > 0,
        "random queries made no repair at distance 1 or 2: {repairs:?}"
    );
}
