//! Pins the production digitizer to the scalar whole-page reference.
//!
//! Production digitizes through one path: the strip-streamed
//! [`digitize_streamed`], which matches cells with the bit-packed
//! [`OcrEngine::match_packed`]. Both must be pure restructurings of the
//! reference in the test-support [`scalar`] module:
//!
//! * every `(char, score)` the packed matcher emits — tie-breaks and the
//!   exact `f64` bit pattern of the score included — equals what the
//!   scalar per-pixel matcher computes, although the packed matcher
//!   compares exact fractions in integers and divides only for the
//!   winner, where the reference divides for every glyph;
//! * for the same seed, the streamed digitizer returns the reference
//!   pipeline's text (whole-page rasterize → whole-page noise pass →
//!   scalar recognition) and the bits of its confidence sum, and leaves
//!   the generator where the reference's noise pass does, at clean,
//!   light and heavy noise and under non-default engine configurations,
//!   on pages whose flip draws end at and around the edges of the
//!   flip pass's four-lane rounds.
//!
//! Any divergence would ripple into recognized text, confidences,
//! telemetry, and every downstream fingerprint.

mod scalar;

use disengage_ocr::engine::EngineConfig;
use disengage_ocr::font::{all_glyphs, GLYPH_H, GLYPH_W};
use disengage_ocr::raster::{CELL_H, CELL_W};
use disengage_ocr::stream::StreamTimings;
use disengage_ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng, ROUND_DRAWS};
use scalar::ScalarEngine;

const CELL_BITS: usize = GLYPH_W * GLYPH_H;

/// Asserts packed and scalar agree on one flat cell, bit for bit.
fn assert_cell_agrees(packed: &OcrEngine, scalar: &ScalarEngine, cell: &[bool], what: &str) {
    let bits = cell
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &p)| acc | u64::from(p) << i);
    let (pc, ps) = packed.match_packed(bits, bits.count_ones());
    let (sc, ss) = scalar.best_match(cell);
    assert_eq!(pc, sc, "char diverged on {what}");
    assert_eq!(
        ps.to_bits(),
        ss.to_bits(),
        "score bits diverged on {what}: packed {ps} vs scalar {ss}"
    );
}

/// Digitizes `text` under `noise` from `seed` through production and
/// through the reference, and asserts the text, the confidence-sum bits,
/// the character count and the generator left after the page agree.
fn assert_page_agrees(config: EngineConfig, text: &str, noise: &NoiseModel, seed: u64, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let got = digitize_streamed(
        text,
        noise,
        &OcrEngine::with_config(config),
        &mut StreamScratch::default(),
        &mut rng,
        &mut StreamTimings::default(),
    );
    let mut page = scalar::rasterize(text);
    let mut want_rng = StdRng::seed_from_u64(seed);
    scalar::degrade(&mut page, noise, &mut want_rng);
    assert_eq!(rng, want_rng, "generator diverged ({what})");
    let (want, confidences) = ScalarEngine::with_config(config).recognize(&page);
    let mut want_sum = 0.0f64;
    for &c in &confidences {
        want_sum += c;
    }
    assert_eq!(got.text, want, "text diverged ({what}): {text:?}");
    assert_eq!(
        got.conf_sum.to_bits(),
        want_sum.to_bits(),
        "conf_sum bits diverged ({what}): {} vs {want_sum}",
        got.conf_sum
    );
    assert_eq!(
        got.chars,
        confidences.len(),
        "character count diverged ({what})"
    );
}

/// The three named noise profiles.
fn noises() -> [(&'static str, NoiseModel); 3] {
    [
        ("clean", NoiseModel::clean()),
        ("light", NoiseModel::light()),
        ("heavy", NoiseModel::heavy()),
    ]
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
        let (ch, score) = packed.match_packed(g.packed(), g.ink() as u32);
        assert_eq!(ch, g.ch, "clean glyph {:?} did not match itself", g.ch);
        assert!((score - 1.0).abs() < 1e-12);
    }
}

#[test]
fn every_glyph_with_one_or_two_pixels_flipped_agrees() {
    // Each glyph's own cell, and that cell with every pixel and every
    // pair of pixels flipped: the cells a light scan makes most, and
    // the nearest neighbours of every exact-fraction tie.
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    for g in all_glyphs() {
        let cell: Vec<bool> = g.pixels.iter().flatten().copied().collect();
        assert_cell_agrees(&packed, &scalar, &cell, &format!("glyph {:?}", g.ch));
        for i in 0..CELL_BITS {
            let mut one = cell.clone();
            one[i] = !one[i];
            assert_cell_agrees(&packed, &scalar, &one, &format!("{:?} ^ {i}", g.ch));
            for j in i + 1..CELL_BITS {
                let mut two = one.clone();
                two[j] = !two[j];
                assert_cell_agrees(&packed, &scalar, &two, &format!("{:?} ^ {i}, {j}", g.ch));
            }
        }
    }
}

#[test]
fn empty_and_single_pixel_cells_agree() {
    // `cell_ink` 0 and 1, below the default `min_ink` but accepted by
    // the public matcher: every glyph scores 0 on the empty cell, so
    // the first glyph wins, as the reference's strict `>` picks it.
    let packed = OcrEngine::new();
    let scalar = ScalarEngine::new();
    let empty = vec![false; CELL_BITS];
    assert_cell_agrees(&packed, &scalar, &empty, "empty cell");
    for i in 0..CELL_BITS {
        let mut cell = empty.clone();
        cell[i] = true;
        assert_cell_agrees(&packed, &scalar, &cell, &format!("pixel {i} alone"));
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
            let cell: Vec<bool> = flat.iter().map(|&p| p && !rng.gen_bool(0.25)).collect();
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
    // Whole pages at clean, light, and heavy noise, across several
    // seeds.
    let texts = [
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software froze",
        "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG 0123456789",
        "a=b; [reaction: 0.85s] | 50% \"quoted\"\nMILEAGE\ncar-0 2016-05 1034.2",
        "short\nA MUCH LONGER SECOND LINE THAT PADS THE FIRST — trailing trim",
    ];
    for text in texts {
        for (label, noise) in noises() {
            for seed in [1u64, 7, 0xD0C5] {
                let what = format!("{label}, seed {seed}");
                assert_page_agrees(EngineConfig::default(), text, &noise, seed, &what);
            }
        }
    }
}

#[test]
fn streamed_digitization_matches_the_scalar_reference() {
    // Awkward page shapes (empty, blank and short lines, a trailing
    // newline) under each noise component alone and together.
    let texts = [
        "",
        "ONE LINE",
        "WATCHDOG ERROR 42\nDISENGAGE: PLANNER FROZE\nshort",
        "a much longer line padding the page out to its full width\nx\n\nlast",
        "trailing newline keeps no extra strip\n",
    ];
    let noises = [
        NoiseModel::clean(),
        NoiseModel::light(),
        NoiseModel::heavy(),
        NoiseModel::with_smear(0.0, 0.0, 0.05),
        NoiseModel::new(0.01, 0.0),
    ];
    for (ti, text) in texts.iter().enumerate() {
        for (ni, noise) in noises.iter().enumerate() {
            for seed in [1u64, 77, 0xD0C5] {
                let what = format!("text {ti}, noise {ni}, seed {seed}");
                assert_page_agrees(EngineConfig::default(), text, noise, seed, &what);
            }
        }
    }
}

/// A line of `n` chars cycling through letters, digits and `—`.
fn line_of(n: usize) -> String {
    "WATCHDOG ERROR 0123456789 — smear rn m"
        .chars()
        .cycle()
        .take(n)
        .collect()
}

/// The noise models the word-at-a-time noise pass branches on: each
/// component alone, the pairs, and every probability at exactly 1.
fn corner_noises() -> Vec<(&'static str, NoiseModel)> {
    vec![
        ("light", NoiseModel::light()),
        ("heavy", NoiseModel::heavy()),
        ("erosion only", NoiseModel::new(0.0, 0.06)),
        ("salt only", NoiseModel::new(0.01, 0.0)),
        ("smear only", NoiseModel::with_smear(0.0, 0.0, 0.05)),
        ("salt and smear", NoiseModel::with_smear(0.01, 0.0, 0.05)),
        ("erosion and smear", NoiseModel::with_smear(0.0, 0.06, 0.05)),
        ("salt 1", NoiseModel::new(1.0, 0.0)),
        ("erosion 1", NoiseModel::new(0.0, 1.0)),
        ("smear 1", NoiseModel::with_smear(0.0, 0.0, 1.0)),
        ("all 1", NoiseModel::with_smear(1.0, 1.0, 1.0)),
    ]
}

#[test]
fn word_boundary_page_widths_agree() {
    // A page is 6 px per column: 31, 32 and 33 columns are 186, 192
    // and 198 px, so the longest line ends inside the third word,
    // exactly on its end, and one cell into a fourth; 64 columns are
    // six whole words. At 192 px a row ends exactly on a word, so the
    // smear scan has no next word there: the last pixel must read
    // white to its right, not the next row's first word.
    for n in [31, 32, 33, 64] {
        let text = format!("{}\nshort\n{}", line_of(n), line_of(n - 7));
        for (label, noise) in corner_noises() {
            for seed in [3u64, 0x5EED] {
                let what = format!("{n} cols, {label}, seed {seed}");
                assert_page_agrees(EngineConfig::default(), &text, &noise, seed, &what);
            }
        }
    }
}

/// A page of `strips` lines, each `cols` chars wide: `cols · CELL_W ·
/// CELL_H · strips` flip draws when every pixel draws.
fn page_of(cols: usize, strips: usize) -> String {
    let lines: Vec<String> = (0..strips)
        .map(|i| {
            let line = line_of(cols + i % 7);
            line.chars().skip(i % 7).collect()
        })
        .collect();
    lines.join("\n")
}

#[test]
fn pages_at_the_edges_of_a_flip_round_agree() {
    // A page draws 60 flips per cell (6 × 10 pixels), and 60 and a
    // round's 16,384 draws share only the factor 4, so ±4 draws is as
    // near a round's edge as a page ends: 4,369 cells end 4 draws short
    // of 16 rounds, 4,096 on 15, and 3,823 (one line) 4 past 14. The
    // kernel's own tests cover ±1 draw. Rows 17 and 8 cells wide (102
    // and 48 px) put a word across each round's edge; the last page is
    // shorter than a round.
    assert_eq!((CELL_W * CELL_H, ROUND_DRAWS), (60, 16_384));
    let pages = [
        (17, 257, 16 * ROUND_DRAWS - 4),
        (8, 512, 15 * ROUND_DRAWS),
        (3823, 1, 14 * ROUND_DRAWS + 4),
        (10, 3, 1800),
    ];
    let noises = [
        ("light", NoiseModel::light()),
        ("heavy", NoiseModel::heavy()),
        ("salt only", NoiseModel::new(0.002, 0.0)),
        ("erosion only", NoiseModel::new(0.0, 0.01)),
    ];
    for (cols, strips, draws) in pages {
        assert_eq!(cols * CELL_W * CELL_H * strips, draws);
        let text = page_of(cols, strips);
        for (label, noise) in &noises {
            let what = format!("{cols} cols × {strips} strips, {label}");
            assert_page_agrees(EngineConfig::default(), &text, noise, 0x5EED, &what);
        }
    }
}

#[test]
fn glyph_straddling_a_word_boundary_agrees() {
    // Column 10 covers px 60-64: four pixels in the first word, one in
    // the second. A solid row (`—`, `#`, `=`) straddles it with ink on
    // both sides of the seam.
    let texts = [
        "0123456789—ABC",
        "0123456789#====",
        "ABCDEFGHIJMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM",
    ];
    for text in texts {
        for (label, noise) in corner_noises() {
            for seed in [1u64, 2, 3] {
                let what = format!("{label}, seed {seed}");
                assert_page_agrees(EngineConfig::default(), text, &noise, seed, &what);
            }
        }
    }
}

#[test]
fn chars_the_font_lacks_agree() {
    // `€` (multi-byte, outside the table) and `~` (ASCII, no glyph)
    // both render as blank cells.
    let texts = ["PRICE €42 ~ NEAR", "~~~~\n€€€€ €\nend ~"];
    for text in texts {
        for (label, noise) in corner_noises() {
            assert_page_agrees(EngineConfig::default(), text, &noise, 11, label);
        }
    }
}

#[test]
fn non_default_configs_agree_too() {
    // The matcher's skip of glyphs that cannot win must stay exact
    // under any threshold config.
    let configs = [
        EngineConfig {
            min_ink: 0,
            min_score: 0.0,
        },
        EngineConfig {
            min_ink: 1,
            min_score: 0.3,
        },
        EngineConfig {
            min_ink: 5,
            min_score: 0.95,
        },
    ];
    for config in configs {
        for (label, noise) in noises() {
            let what = format!("{config:?}, {label}");
            assert_page_agrees(
                config,
                "WATCHDOG ERROR — driver took over [0.85s]",
                &noise,
                99,
                &what,
            );
        }
    }
}

#[test]
fn multi_byte_lines_with_trailing_padding_agree() {
    // Lines ending in multi-byte glyphs, padded by the grid with
    // trailing blank cells that both paths trim by char count.
    let samples = [
        "1/4/16 — 1:25 PM —\nTHE LONGEST LINE SETS THE GRID WIDTH",
        "——— A\nLONGER LINE HERE",
        "a — b  \nWIDE LINE BELOW THE DASHES",
    ];
    for text in samples {
        assert_page_agrees(
            EngineConfig::default(),
            text,
            &NoiseModel::clean(),
            1,
            "clean",
        );
    }
}

#[test]
fn reference_grid_cells_hold_their_glyphs() {
    let page = scalar::rasterize("AB\nC");
    assert_eq!(scalar::grid_dims(&page), (2, 2));
    // 'C' sits at row 1, col 0; the cell right of it is blank padding.
    let c: Vec<bool> = all_glyphs()
        .into_iter()
        .find(|g| g.ch == 'C')
        .expect("font covers C")
        .pixels
        .iter()
        .flatten()
        .copied()
        .collect();
    assert_eq!(scalar::cell_pixels(&page, 1, 0), c);
    assert!(scalar::cell_pixels(&page, 1, 1).iter().all(|&p| !p));
    // Cells past the grid read white.
    assert!(scalar::cell_pixels(&page, 5, 9).iter().all(|&p| !p));
}

/// Pixels that differ between two same-sized pages.
fn flipped(a: &scalar::Page, b: &scalar::Page) -> usize {
    (0..a.height)
        .flat_map(|y| (0..a.width).map(move |x| (x, y)))
        .filter(|&(x, y)| a.get(x, y) != b.get(x, y))
        .count()
}

/// The reference page after its noise pass from `seed`.
fn noisy(text: &str, noise: &NoiseModel, seed: u64) -> scalar::Page {
    let mut page = scalar::rasterize(text);
    scalar::degrade(&mut page, noise, &mut StdRng::seed_from_u64(seed));
    page
}

#[test]
fn noise_pass_clean_is_identity_and_seeded() {
    let page = scalar::rasterize("HELLO WORLD");
    assert_eq!(noisy("HELLO WORLD", &NoiseModel::clean(), 1), page);
    let heavy = NoiseModel::heavy();
    assert_eq!(noisy("SEEDED", &heavy, 9), noisy("SEEDED", &heavy, 9));
}

#[test]
fn noise_pass_erosion_removes_and_salt_adds_ink() {
    let page = scalar::rasterize("MMMMMMMMMM");
    let eroded = noisy("MMMMMMMMMM", &NoiseModel::new(0.0, 0.5), 2);
    assert!(eroded.ink() < page.ink());
    assert!(eroded.ink() > 0); // not everything vanishes at 50%

    let blank = scalar::rasterize("          ");
    let salted = noisy("          ", &NoiseModel::new(0.1, 0.0), 3);
    let expected = (blank.width * blank.height) as f64 * 0.1;
    let got = salted.ink() as f64;
    assert!(
        (got - expected).abs() < expected * 0.5,
        "got {got}, expected ~{expected}"
    );
}

#[test]
fn noise_pass_heavier_noise_flips_more() {
    let text = "CALIBRATION TARGET 0123456789";
    let page = scalar::rasterize(text);
    let light = noisy(text, &NoiseModel::light(), 4);
    let heavy = noisy(text, &NoiseModel::heavy(), 4);
    assert!(flipped(&page, &heavy) > flipped(&page, &light));
}

#[test]
fn noise_pass_smear_adds_ink_rightward() {
    let page = scalar::rasterize("IIIII");
    let out = noisy("IIIII", &NoiseModel::with_smear(0.0, 0.0, 1.0), 5);
    // Full smear: every ink pixel bleeds one to the right once.
    assert!(out.ink() > page.ink());
    // The original ink is untouched.
    for y in 0..page.height {
        for x in 0..page.width {
            if page.get(x, y) {
                assert!(out.get(x, y));
            }
        }
    }
}
