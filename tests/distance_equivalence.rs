//! Pins the diagonal-transition edit distance to the banded reference.
//!
//! [`edit_distance`] runs one diagonal-transition kernel over byte-coded
//! text; it must be a pure speedup. On every input here it must return
//! exactly the integer the original band-doubling DP (kept in the
//! test-support module [`banded`]) returns: on every pipeline filing
//! against its digitized and dictionary-corrected text — the `cer`
//! query of Stage I — on chaos-perturbed documents against their
//! sources, on periodic text (the kernel's O(n·d) case), and on empty
//! and disjoint strings. Any divergence would move `ocr.cer`,
//! `ocr.mean_cer` and every telemetry and cache consumer of them.
//!
//! The default run covers every filing at scale 0.05; the full grid
//! (scales 0.25 and 1, light and heavy noise) is `#[ignore]`d and runs
//! in release from `scripts/verify.sh`.

#[path = "../crates/ocr/tests/banded/mod.rs"]
mod banded;

use disengage::chaos::{inject_documents, FaultPlan};
use disengage::core::pipeline::default_corrector;
use disengage::core::RunConfig;
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::ocr::correct::edit_distance;
use disengage::ocr::stream::StreamTimings;
use disengage::ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
use disengage::reports::formats::RawDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts the kernel agrees with the reference on `(a, b)`; returns
/// the distance.
fn assert_agrees(a: &str, b: &str, what: &str) -> usize {
    let want = banded::edit_distance(a, b);
    assert_eq!(edit_distance(a, b), want, "distance diverged on {what}");
    want
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

/// Digitizes every filing at `scale` as Stage I does — streamed, seeded
/// per document from the default OCR seed and the corpus index, then
/// dictionary-corrected — and checks the `cer` query on each.
fn check_filings(scale: f64, noise: NoiseModel, label: &str) {
    let ocr_seed = RunConfig::new().ocr_seed;
    let engine = OcrEngine::new();
    let mut scratch = StreamScratch::default();
    let mut edits = 0;
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
        let corrected = default_corrector()
            .correct_text_observed(&recognized.text, 1, &mut |_, _| {})
            .0;
        edits += assert_agrees(
            doc.text.trim_end(),
            &corrected,
            &format!("{label} filing {i} at scale {scale}"),
        );
    }
    assert!(
        edits > 0,
        "{label} noise at scale {scale} made no OCR errors"
    );
}

/// Checks every filing at `scale` against its copy perturbed by `plan`.
fn check_chaos(scale: f64, plan: FaultPlan) {
    let docs = filings(scale);
    let (faulted, log) = inject_documents(&plan, &docs, 0);
    assert!(log.total() > 0, "plan injected nothing");
    for (i, (doc, bad)) in docs.iter().zip(&faulted).enumerate() {
        assert_agrees(
            &doc.text,
            &bad.text,
            &format!("chaos doc {i} at scale {scale}"),
        );
    }
}

#[test]
fn every_filing_agrees_at_small_scale() {
    check_filings(0.05, NoiseModel::light(), "light");
    check_filings(0.05, NoiseModel::heavy(), "heavy");
}

#[test]
fn chaos_perturbed_documents_agree_with_their_sources() {
    check_chaos(0.05, FaultPlan::new(0.05, 7));
}

#[test]
#[ignore = "full grid: ~70 s in release, run by scripts/verify.sh"]
fn every_filing_agrees_on_the_full_grid() {
    for scale in [0.25, 1.0] {
        check_filings(scale, NoiseModel::light(), "light");
        check_filings(scale, NoiseModel::heavy(), "heavy");
    }
    check_chaos(0.25, FaultPlan::new(0.05, 7));
    check_chaos(0.05, FaultPlan::new(0.3, 11));
}

/// `text` with about one symbol in a hundred substituted, inserted or
/// deleted, drawn from `alphabet`.
fn scatter_edits(rng: &mut StdRng, text: &str, alphabet: &[char]) -> String {
    let mut out = Vec::with_capacity(text.len() + 64);
    for c in text.chars() {
        let junk = alphabet[rng.gen_range(0..alphabet.len())];
        match rng.gen_range(0..300) {
            0 => out.push(junk),
            1 => out.extend([junk, c]),
            2 => {}
            _ => out.push(c),
        }
    }
    out.into_iter().collect()
}

/// `text` rotated left by `n` chars: one line of the repeated-line
/// text, or a whole number of periods of the others.
fn shifted(text: &str, n: usize) -> String {
    text.chars().skip(n).chain(text.chars().take(n)).collect()
}

#[test]
fn periodic_text_with_scattered_edits_agrees() {
    // Every diagonal a period apart slides as far as the optimal one:
    // the kernel's O(n·d) case.
    let line = "DISENGAGE: PLANNER FROZE — TAKEOVER 042\n";
    assert_eq!(line.chars().count(), 40);
    let texts = ["a".repeat(2000), "ab".repeat(1000), line.repeat(50)];
    let alphabet: Vec<char> = "ab —\nDZ".chars().collect();
    let mut rng = StdRng::seed_from_u64(0x9E41);
    for (t, text) in texts.iter().enumerate() {
        for trial in 0..3 {
            let a = scatter_edits(&mut rng, text, &alphabet);
            let b = scatter_edits(&mut rng, text, &alphabet);
            let what = format!("periodic text {t}, trial {trial}");
            assert_agrees(text, &a, &what);
            assert_agrees(&a, &b, &what);
            assert_agrees(&a, &shifted(&a, 40), &format!("{what}, shifted"));
            assert_agrees(&shifted(&b, 40), &a, &format!("{what}, shifted"));
        }
    }
}

#[test]
fn empty_and_disjoint_strings_agree() {
    let long = "the watchdog froze — planner takeover\n".repeat(20);
    // The same text moved to an alphabet it shares nothing with.
    let disjoint: String = long
        .chars()
        .map(|c| char::from_u32(u32::from(c) + 0x1000).expect("a valid char"))
        .collect();
    let cases = [
        (String::new(), String::new()),
        (String::new(), "abc".to_owned()),
        ("abc".to_owned(), String::new()),
        (String::new(), long.clone()),
        ("a".repeat(500), "b".repeat(500)),
        ("a".repeat(10), "b".repeat(700)),
        ("—".repeat(300), "x".repeat(200)),
        (long.clone(), disjoint.clone()),
        ("0123456789".repeat(40), "abcdefghij".repeat(30)),
    ];
    for (a, b) in &cases {
        let what = format!("{} vs {} chars", a.chars().count(), b.chars().count());
        assert_agrees(a, b, &what);
        assert_agrees(b, a, &what);
    }
}
