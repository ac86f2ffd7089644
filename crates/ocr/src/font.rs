//! A 5×7 monochrome bitmap font covering the DMV-report character set.
//!
//! Uppercase letters use classic 5×7 dot-matrix shapes. Lowercase letters
//! are rendered as *small caps*: the same letterform compressed into the
//! bottom 5 rows (rows 0–1 blank), which keeps every character visually
//! distinct from its uppercase form so recognition is case-accurate.

/// Glyph width in pixels.
pub const GLYPH_W: usize = 5;
/// Glyph height in pixels.
pub const GLYPH_H: usize = 7;

/// A single glyph bitmap, row-major, `true` = ink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Glyph {
    /// The character this glyph renders.
    pub ch: char,
    /// Row-major pixels.
    pub pixels: [[bool; GLYPH_W]; GLYPH_H],
}

impl Glyph {
    /// Number of inked pixels.
    pub fn ink(&self) -> usize {
        self.pixels.iter().flatten().filter(|&&p| p).count()
    }

    /// The glyph bit-packed into a single `u64`: bit `r·GLYPH_W + c`
    /// carries pixel `(r, c)`, row-major — the same layout
    /// [`crate::raster::pack_cell_row`] extracts, so `cell & packed`
    /// counts exactly the cell∩glyph overlap. 5×7 = 35 bits, so the
    /// whole template fits one word and matching is a single
    /// AND + popcount.
    pub fn packed(&self) -> u64 {
        let mut bits = 0u64;
        for (i, &p) in self.pixels.iter().flatten().enumerate() {
            if p {
                bits |= 1 << i;
            }
        }
        bits
    }
}

/// Builds a glyph from 7 pattern rows (`#` = ink).
fn glyph(ch: char, rows: [&str; GLYPH_H]) -> Glyph {
    let mut pixels = [[false; GLYPH_W]; GLYPH_H];
    for (r, row) in rows.iter().enumerate() {
        for (c, byte) in row.bytes().enumerate().take(GLYPH_W) {
            pixels[r][c] = byte == b'#';
        }
    }
    Glyph { ch, pixels }
}

/// Compresses an uppercase shape into the bottom 5 rows (small caps).
fn small_caps(ch: char, upper: &Glyph) -> Glyph {
    let mut pixels = [[false; GLYPH_W]; GLYPH_H];
    // Sample the 7 source rows down to 5 (drop rows 1 and 4).
    let src_rows = [0usize, 2, 3, 5, 6];
    for (dst, &src) in src_rows.iter().enumerate() {
        pixels[dst + 2] = upper.pixels[src];
    }
    Glyph { ch, pixels }
}

fn uppercase_rows(ch: char) -> Option<[&'static str; GLYPH_H]> {
    Some(match ch {
        'A' => [
            " ### ", "#   #", "#   #", "#####", "#   #", "#   #", "#   #",
        ],
        'B' => [
            "#### ", "#   #", "#   #", "#### ", "#   #", "#   #", "#### ",
        ],
        'C' => [
            " ### ", "#   #", "#    ", "#    ", "#    ", "#   #", " ### ",
        ],
        'D' => [
            "#### ", "#   #", "#   #", "#   #", "#   #", "#   #", "#### ",
        ],
        'E' => [
            "#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#####",
        ],
        'F' => [
            "#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#    ",
        ],
        'G' => [
            " ### ", "#   #", "#    ", "# ###", "#   #", "#   #", " ### ",
        ],
        'H' => [
            "#   #", "#   #", "#   #", "#####", "#   #", "#   #", "#   #",
        ],
        'I' => [
            " ### ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### ",
        ],
        'J' => [
            "  ###", "   # ", "   # ", "   # ", "   # ", "#  # ", " ##  ",
        ],
        'K' => [
            "#   #", "#  # ", "# #  ", "##   ", "# #  ", "#  # ", "#   #",
        ],
        'L' => [
            "#    ", "#    ", "#    ", "#    ", "#    ", "#    ", "#####",
        ],
        'M' => [
            "#   #", "## ##", "# # #", "# # #", "#   #", "#   #", "#   #",
        ],
        'N' => [
            "#   #", "##  #", "# # #", "#  ##", "#   #", "#   #", "#   #",
        ],
        'O' => [
            " ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### ",
        ],
        'P' => [
            "#### ", "#   #", "#   #", "#### ", "#    ", "#    ", "#    ",
        ],
        'Q' => [
            " ### ", "#   #", "#   #", "#   #", "# # #", "#  # ", " ## #",
        ],
        'R' => [
            "#### ", "#   #", "#   #", "#### ", "# #  ", "#  # ", "#   #",
        ],
        'S' => [
            " ####", "#    ", "#    ", " ### ", "    #", "    #", "#### ",
        ],
        'T' => [
            "#####", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ",
        ],
        'U' => [
            "#   #", "#   #", "#   #", "#   #", "#   #", "#   #", " ### ",
        ],
        'V' => [
            "#   #", "#   #", "#   #", "#   #", "#   #", " # # ", "  #  ",
        ],
        'W' => [
            "#   #", "#   #", "#   #", "# # #", "# # #", "## ##", "#   #",
        ],
        'X' => [
            "#   #", "#   #", " # # ", "  #  ", " # # ", "#   #", "#   #",
        ],
        'Y' => [
            "#   #", "#   #", " # # ", "  #  ", "  #  ", "  #  ", "  #  ",
        ],
        'Z' => [
            "#####", "    #", "   # ", "  #  ", " #   ", "#    ", "#####",
        ],
        _ => return None,
    })
}

fn digit_rows(ch: char) -> Option<[&'static str; GLYPH_H]> {
    Some(match ch {
        '0' => [
            " ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### ",
        ],
        '1' => [
            "  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### ",
        ],
        '2' => [
            " ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####",
        ],
        '3' => [
            " ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### ",
        ],
        '4' => [
            "   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # ",
        ],
        '5' => [
            "#####", "#    ", "#### ", "    #", "    #", "#   #", " ### ",
        ],
        '6' => [
            "  ## ", " #   ", "#    ", "#### ", "#   #", "#   #", " ### ",
        ],
        '7' => [
            "#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   ",
        ],
        '8' => [
            " ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### ",
        ],
        '9' => [
            " ### ", "#   #", "#   #", " ####", "    #", "   # ", " ##  ",
        ],
        _ => return None,
    })
}

fn punct_rows(ch: char) -> Option<[&'static str; GLYPH_H]> {
    Some(match ch {
        '.' => [
            "     ", "     ", "     ", "     ", "     ", " ##  ", " ##  ",
        ],
        ',' => [
            "     ", "     ", "     ", "     ", " ##  ", "  #  ", " #   ",
        ],
        '/' => [
            "    #", "    #", "   # ", "  #  ", " #   ", "#    ", "#    ",
        ],
        '-' => [
            "     ", "     ", "     ", " ### ", "     ", "     ", "     ",
        ],
        '—' => [
            "     ", "     ", "     ", "#####", "     ", "     ", "     ",
        ],
        ':' => [
            "     ", " ##  ", " ##  ", "     ", " ##  ", " ##  ", "     ",
        ],
        ';' => [
            "     ", " ##  ", " ##  ", "     ", " ##  ", "  #  ", " #   ",
        ],
        '#' => [
            " # # ", " # # ", "#####", " # # ", "#####", " # # ", " # # ",
        ],
        '(' => [
            "   # ", "  #  ", " #   ", " #   ", " #   ", "  #  ", "   # ",
        ],
        ')' => [
            " #   ", "  #  ", "   # ", "   # ", "   # ", "  #  ", " #   ",
        ],
        '[' => [
            " ### ", " #   ", " #   ", " #   ", " #   ", " #   ", " ### ",
        ],
        ']' => [
            " ### ", "   # ", "   # ", "   # ", "   # ", "   # ", " ### ",
        ],
        '|' => [
            "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ",
        ],
        '"' => [
            " # # ", " # # ", " # # ", "     ", "     ", "     ", "     ",
        ],
        '\'' => [
            "  #  ", "  #  ", "  #  ", "     ", "     ", "     ", "     ",
        ],
        '?' => [
            " ### ", "#   #", "    #", "   # ", "  #  ", "     ", "  #  ",
        ],
        '!' => [
            "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "     ", "  #  ",
        ],
        '&' => [
            " ##  ", "#  # ", "#  # ", " ##  ", "# # #", "#  # ", " ## #",
        ],
        '=' => [
            "     ", "     ", "#####", "     ", "#####", "     ", "     ",
        ],
        '%' => [
            "##  #", "##  #", "   # ", "  #  ", " #   ", "#  ##", "#  ##",
        ],
        '+' => [
            "     ", "  #  ", "  #  ", "#####", "  #  ", "  #  ", "     ",
        ],
        '@' => [
            " ### ", "#   #", "# ###", "# # #", "# ###", "#    ", " ### ",
        ],
        '*' => [
            "     ", "# # #", " ### ", "#####", " ### ", "# # #", "     ",
        ],
        '_' => [
            "     ", "     ", "     ", "     ", "     ", "     ", "#####",
        ],
        _ => return None,
    })
}

/// The glyph for a character, if the font covers it.
///
/// Space is intentionally absent: blank cells are handled by the
/// rasterizer/recognizer, not as a glyph (an all-blank template would
/// match every eroded cell).
pub fn glyph_for(ch: char) -> Option<Glyph> {
    if let Some(rows) = uppercase_rows(ch) {
        return Some(glyph(ch, rows));
    }
    if ch.is_ascii_lowercase() {
        let upper = ch.to_ascii_uppercase();
        let base = glyph(upper, uppercase_rows(upper)?);
        return Some(small_caps(ch, &base));
    }
    if let Some(rows) = digit_rows(ch) {
        return Some(glyph(ch, rows));
    }
    if let Some(rows) = punct_rows(ch) {
        return Some(glyph(ch, rows));
    }
    None
}

/// The glyph of `ch` as seven 5-bit pixel rows, packed one row per
/// byte: bit `8·r + c` carries pixel `(r, c)`. Zero for a char the font
/// lacks (space included), which renders as a blank cell.
///
/// The rasterizer ORs these rows into a strip's words for every char of
/// every line, so they are built from [`glyph_for`] once per process,
/// for every ASCII char and `—` (the only glyph outside ASCII).
pub(crate) fn glyph_rows(ch: char) -> u64 {
    const EM_DASH: usize = 128;
    static ROWS: std::sync::OnceLock<[u64; EM_DASH + 1]> = std::sync::OnceLock::new();
    let rows = ROWS.get_or_init(|| {
        let mut rows = [0; EM_DASH + 1];
        for (i, packed) in rows.iter_mut().enumerate() {
            let ch = if i == EM_DASH {
                '—'
            } else {
                char::from(i as u8)
            };
            if let Some(g) = glyph_for(ch) {
                for (r, row) in g.pixels.iter().enumerate() {
                    for (c, &ink) in row.iter().enumerate() {
                        *packed |= u64::from(ink) << (8 * r + c);
                    }
                }
            }
        }
        rows
    });
    match ch {
        '\0'..='\x7f' => rows[ch as usize],
        '—' => rows[EM_DASH],
        _ => 0,
    }
}

/// Every character the font covers (excluding space), in a stable order.
pub fn charset() -> Vec<char> {
    let mut set: Vec<char> = Vec::new();
    set.extend('A'..='Z');
    set.extend('a'..='z');
    set.extend('0'..='9');
    set.extend(".,/-—:;#()[]|\"'?!&=%+@*_".chars());
    set
}

/// All glyphs in the font, in [`charset`] order.
pub fn all_glyphs() -> Vec<Glyph> {
    charset()
        .into_iter()
        .map(|c| glyph_for(c).expect("charset is covered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charset_fully_covered() {
        for c in charset() {
            assert!(glyph_for(c).is_some(), "missing glyph for {c:?}");
        }
    }

    #[test]
    fn every_glyph_has_ink() {
        for g in all_glyphs() {
            assert!(g.ink() > 0, "glyph {:?} is blank", g.ch);
        }
    }

    #[test]
    fn glyphs_are_distinct() {
        let glyphs = all_glyphs();
        for (i, a) in glyphs.iter().enumerate() {
            for b in &glyphs[i + 1..] {
                assert_ne!(
                    a.pixels, b.pixels,
                    "glyphs {:?} and {:?} are identical",
                    a.ch, b.ch
                );
            }
        }
    }

    #[test]
    fn lowercase_distinct_from_uppercase() {
        let upper = glyph_for('A').unwrap();
        let lower = glyph_for('a').unwrap();
        assert_ne!(upper.pixels, lower.pixels);
        // Small caps leave the top two rows blank.
        assert!(lower.pixels[0].iter().all(|&p| !p));
        assert!(lower.pixels[1].iter().all(|&p| !p));
    }

    #[test]
    fn packed_round_trips_the_pixel_grid() {
        for g in all_glyphs() {
            let bits = g.packed();
            assert_eq!(bits.count_ones() as usize, g.ink(), "glyph {:?}", g.ch);
            for r in 0..GLYPH_H {
                for c in 0..GLYPH_W {
                    let bit = bits >> (r * GLYPH_W + c) & 1 == 1;
                    assert_eq!(bit, g.pixels[r][c], "glyph {:?} at ({r},{c})", g.ch);
                }
            }
            // Nothing above the 35 payload bits.
            assert_eq!(bits >> (GLYPH_W * GLYPH_H), 0, "glyph {:?}", g.ch);
        }
    }

    #[test]
    fn glyph_rows_hold_every_glyph_and_nothing_else() {
        for i in 0..=0x2100u32 {
            let Some(ch) = char::from_u32(i) else {
                continue;
            };
            let rows = glyph_rows(ch);
            match glyph_for(ch) {
                Some(g) => {
                    for r in 0..GLYPH_H {
                        for c in 0..GLYPH_W {
                            let bit = rows >> (8 * r + c) & 1 == 1;
                            assert_eq!(bit, g.pixels[r][c], "glyph {ch:?} at ({r},{c})");
                        }
                    }
                }
                None => assert_eq!(rows, 0, "{ch:?} has no glyph"),
            }
        }
    }

    #[test]
    fn space_and_exotic_not_covered() {
        assert!(glyph_for(' ').is_none());
        assert!(glyph_for('€').is_none());
        assert!(glyph_for('\n').is_none());
    }

    #[test]
    fn em_dash_covered() {
        // The report formats separate fields with " — ".
        assert!(glyph_for('—').is_some());
        assert_ne!(
            glyph_for('—').unwrap().pixels,
            glyph_for('-').unwrap().pixels
        );
    }

    #[test]
    fn report_format_characters_covered() {
        // Every character the disengagement formats emit must be
        // coverable (or be a space).
        let sample = "1/4/16 — 1:25 PM — Leaf #2 (Bravo) — Software froze; driver took over [reaction: 0.85s] | car-3 \"quote\" a=b 50%";
        for ch in sample.chars() {
            if ch == ' ' {
                continue;
            }
            assert!(glyph_for(ch).is_some(), "format char {ch:?} not covered");
        }
    }
}
