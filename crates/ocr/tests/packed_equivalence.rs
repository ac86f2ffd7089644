//! Pins the bit-packed matcher to the scalar reference engine.
//!
//! The packed engine ([`disengage_ocr::OcrEngine`]) must be a pure
//! speedup: every `(char, score)` it emits — including tie-breaks and
//! the exact `f64` bit pattern of the score — must equal what the
//! scalar per-pixel reference (the test-support [`scalar`] module)
//! computes. Any divergence would ripple into recognized text,
//! confidences, telemetry, and every downstream fingerprint.

mod scalar;

use disengage_ocr::engine::EngineConfig;
use disengage_ocr::font::{all_glyphs, GLYPH_H, GLYPH_W};
use disengage_ocr::raster::rasterize;
use disengage_ocr::{NoiseModel, OcrEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalar::ScalarEngine;

const CELL_BITS: usize = GLYPH_W * GLYPH_H;

/// Asserts packed and scalar agree on one cell, bit for bit.
fn assert_cell_agrees(packed: &OcrEngine, scalar: &ScalarEngine, cell: &[bool], what: &str) {
    let (pc, ps) = packed.best_match(cell);
    let (sc, ss) = scalar.best_match(cell);
    assert_eq!(pc, sc, "char diverged on {what}");
    assert_eq!(
        ps.to_bits(),
        ss.to_bits(),
        "score bits diverged on {what}: packed {ps} vs scalar {ss}"
    );
}

#[test]
fn every_glyph_as_cell_matches_identically() {
    // Every glyph pair: presenting glyph h's pixels as the cell must
    // produce the same best match (normally h itself; for near-twins
    // the same winner either way) with the same score bits.
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    for g in all_glyphs() {
        let cell: Vec<bool> = g.pixels.iter().flatten().copied().collect();
        assert_cell_agrees(&packed, &scalar, &cell, &format!("clean glyph {:?}", g.ch));
        let (ch, score) = packed.best_match(&cell);
        assert_eq!(ch, g.ch, "clean glyph {:?} did not match itself", g.ch);
        assert!((score - 1.0).abs() < 1e-12);
    }
}

#[test]
fn every_glyph_pair_union_and_intersection_agree() {
    // Union/intersection of every glyph pair — cells engineered to sit
    // between templates, the tie-break stress test.
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    let glyphs = all_glyphs();
    for a in &glyphs {
        let a_flat: Vec<bool> = a.pixels.iter().flatten().copied().collect();
        for b in &glyphs {
            let b_flat: Vec<bool> = b.pixels.iter().flatten().copied().collect();
            let union: Vec<bool> = a_flat.iter().zip(&b_flat).map(|(&x, &y)| x || y).collect();
            let inter: Vec<bool> = a_flat.iter().zip(&b_flat).map(|(&x, &y)| x && y).collect();
            let what = format!("{:?}∪{:?}", a.ch, b.ch);
            assert_cell_agrees(&packed, &scalar, &union, &what);
            let what = format!("{:?}∩{:?}", a.ch, b.ch);
            assert_cell_agrees(&packed, &scalar, &inter, &what);
        }
    }
}

#[test]
fn seeded_random_cells_match_identically() {
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    // Sweep densities from speckle to near-solid: every regime of the
    // score landscape, ties included.
    for round in 0..5000 {
        let density = 0.02 + 0.9 * (round % 100) as f64 / 100.0;
        let cell: Vec<bool> = (0..CELL_BITS).map(|_| rng.gen_bool(density)).collect();
        assert_cell_agrees(&packed, &scalar, &cell, &format!("random cell {round}"));
    }
}

#[test]
fn eroded_glyphs_match_identically() {
    // Erosion of real glyphs — the dominant scan degradation, and the
    // densest source of narrow score margins between sibling glyphs
    // (O/0, B/8, l/I).
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    let mut rng = StdRng::seed_from_u64(42);
    for g in all_glyphs() {
        let flat: Vec<bool> = g.pixels.iter().flatten().copied().collect();
        for round in 0..40 {
            let cell: Vec<bool> = flat
                .iter()
                .map(|&p| p && !rng.gen_bool(0.25))
                .collect();
            assert_cell_agrees(
                &packed,
                &scalar,
                &cell,
                &format!("eroded {:?} round {round}", g.ch),
            );
        }
    }
}

#[test]
fn noisy_page_recognition_is_bitwise_equal() {
    // Full-page regression: text and the confidence vector must be
    // bitwise-equal between the engines on clean, light, and heavy
    // noise, across several seeds.
    let texts = [
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software froze",
        "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG 0123456789",
        "a=b; [reaction: 0.85s] | 50% \"quoted\"\nMILEAGE\ncar-0 2016-05 1034.2",
        "short\nA MUCH LONGER SECOND LINE THAT PADS THE FIRST — trailing trim",
    ];
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    for text in texts {
        for (noise, label) in [
            (NoiseModel::clean(), "clean"),
            (NoiseModel::light(), "light"),
            (NoiseModel::heavy(), "heavy"),
        ] {
            for seed in [1u64, 7, 0xD0C5] {
                let mut rng = StdRng::seed_from_u64(seed);
                let page = noise.degrade(&rasterize(text), &mut rng);
                let p = packed.recognize(&page);
                let s = scalar.recognize(&page);
                assert_eq!(p.text, s.text, "text diverged ({label}, seed {seed}): {text:?}");
                assert_eq!(
                    p.confidences.len(),
                    s.confidences.len(),
                    "confidence count diverged ({label}, seed {seed})"
                );
                for (i, (a, b)) in p.confidences.iter().zip(&s.confidences).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "confidence {i} bits diverged ({label}, seed {seed}): {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn non_default_configs_agree_too() {
    // The cap-table skip must stay exact under any threshold config.
    let configs = [
        EngineConfig { min_ink: 0, min_score: 0.0 },
        EngineConfig { min_ink: 1, min_score: 0.3 },
        EngineConfig { min_ink: 5, min_score: 0.95 },
    ];
    let mut rng = StdRng::seed_from_u64(99);
    for config in configs {
        let packed = OcrEngine::with_config(config);
        let scalar = ScalarEngine::with_config(config);
        let page = NoiseModel::heavy().degrade(
            &rasterize("WATCHDOG ERROR — driver took over [0.85s]"),
            &mut rng,
        );
        let p = packed.recognize(&page);
        let s = scalar.recognize(&page);
        assert_eq!(p.text, s.text, "config {config:?}");
        assert_eq!(p.confidences, s.confidences, "config {config:?}");
    }
}

#[test]
fn multi_byte_lines_with_trailing_padding_agree() {
    // Lines ending in multi-byte glyphs, padded by the grid with
    // trailing blank cells that both engines trim by char count.
    let samples = [
        "1/4/16 — 1:25 PM —\nTHE LONGEST LINE SETS THE GRID WIDTH",
        "——— A\nLONGER LINE HERE",
        "a — b  \nWIDE LINE BELOW THE DASHES",
    ];
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    for text in samples {
        let p = packed.recognize(&rasterize(text));
        let s = scalar.recognize(&rasterize(text));
        assert_eq!(p.text, s.text, "{text:?}");
        assert_eq!(p.confidences, s.confidences, "{text:?}");
    }
}
