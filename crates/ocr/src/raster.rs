//! Rasterization: text → monochrome bitmap strips on a fixed character
//! grid, one strip per text line.
//!
//! A strip is bit-packed, 64 pixels per word. The rasterizer ORs each
//! char's five-bit glyph rows (a table built once per process from the
//! font, see `font::glyph_rows`) into the strip's words, one or two
//! words per row, and [`pack_cell_row`] reads each cell back the same
//! way. The pixels are exactly those a per-pixel write of every glyph
//! would set: pixels past the page width are dropped, so the padding
//! bits stay zero.

use crate::font::{glyph_rows, GLYPH_H, GLYPH_W};

/// Horizontal pitch of a character cell (glyph + 1px gap).
pub const CELL_W: usize = GLYPH_W + 1;
/// Vertical pitch of a text line (glyph + 3px leading).
pub const CELL_H: usize = GLYPH_H + 3;

/// A monochrome bitmap, row-major, `true` = ink.
///
/// Pixels are stored bit-packed, 64 per `u64` word, with each pixel
/// row padded out to a whole word, so [`pack_cell_row`] reads a cell's
/// row with one or two word loads. Padding bits past `width` are kept
/// zero by every mutator, so word-level operations (equality, the
/// noise pass, cell packing) need no masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    /// Words per pixel row: `ceil(width / 64)`.
    words_per_row: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-white bitmap.
    pub fn blank(width: usize, height: usize) -> Bitmap {
        let words_per_row = width.div_ceil(64);
        Bitmap {
            width,
            height,
            words_per_row,
            words: vec![0; words_per_row * height],
        }
    }

    /// Resets this bitmap to an all-white `width × height` page,
    /// reusing the existing word buffer. This is the scratch-reuse
    /// path of the digitizer: one bitmap serves every document a
    /// worker processes instead of a fresh allocation per page.
    pub fn reset(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.words_per_row = width.div_ceil(64);
        self.words.clear();
        self.words.resize(self.words_per_row * height, 0);
    }

    /// Words per pixel row: row `y` is `words()[y·wpr .. (y+1)·wpr]`.
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed pixels, row-major, each row padded to whole words
    /// (bit `x & 63` of word `x >> 6` carries pixel `x`).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// [`Bitmap::words`], for writing. A caller keeps the padding bits
    /// past `width` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The pixel at `(x, y)`; out-of-bounds reads are white.
    #[cfg(test)]
    pub fn get(&self, x: usize, y: usize) -> bool {
        if x < self.width && y < self.height {
            self.words[y * self.words_per_row + (x >> 6)] >> (x & 63) & 1 == 1
        } else {
            false
        }
    }

    /// Sets the pixel at `(x, y)` (out-of-bounds writes are ignored).
    #[cfg(test)]
    pub fn set(&mut self, x: usize, y: usize, ink: bool) {
        if x < self.width && y < self.height {
            let w = &mut self.words[y * self.words_per_row + (x >> 6)];
            if ink {
                *w |= 1 << (x & 63);
            } else {
                *w &= !(1 << (x & 63));
            }
        }
    }
}

/// Rasterizes a single text line as one `CELL_H`-row strip of a page
/// whose total pixel width is `width` (the full page's width, so short
/// lines keep their right-hand blank padding). Each character occupies
/// a fixed `CELL_W × CELL_H` cell; characters the font does not cover
/// render as blank cells (and will be recognized as spaces — the lossy
/// path real OCR hits on unusual symbols). Strip `k` of a whole-page
/// rasterization — pixel rows `k·CELL_H .. (k+1)·CELL_H` — is
/// bit-identical to `rasterize_line_into(lines[k], width, ...)`, which
/// is what lets the streamed digitizer process a document one line at
/// a time without ever holding the whole page.
pub fn rasterize_line_into(line: &str, width: usize, bmp: &mut Bitmap) {
    bmp.reset(width, CELL_H);
    let wpr = bmp.words_per_row;
    for (col, ch) in line.chars().enumerate() {
        let ox = col * CELL_W;
        if ox >= width {
            break;
        }
        let rows = glyph_rows(ch);
        if rows == 0 {
            continue;
        }
        // A cell starting at bit 60 or later spills into the next word.
        let (wi, off) = (ox >> 6, ox & 63);
        for gy in 0..GLYPH_H {
            let bits = rows >> (8 * gy) & ((1 << GLYPH_W) - 1);
            let at = gy * wpr + wi;
            bmp.words[at] |= bits << off;
            if off + GLYPH_W > 64 && wi + 1 < wpr {
                bmp.words[at + 1] |= bits >> (64 - off);
            }
        }
    }
    // Pixels past `width` are dropped: the padding bits stay zero.
    if !width.is_multiple_of(64) {
        let keep = (1u64 << (width % 64)) - 1;
        for gy in 0..GLYPH_H {
            bmp.words[gy * wpr + wpr - 1] &= keep;
        }
    }
}

/// Packs every cell of text row `row` in one pass: `out[col]` is the
/// glyph-sized window of cell `(row, col)` as a single `u64`, with bit
/// `y·GLYPH_W + x` carrying pixel `(x, y)` of the window — the layout of
/// [`crate::font::Glyph::packed`], so `cell & glyph` ANDs overlapping
/// ink. Out-of-bounds pixels read white.
///
/// The page is walked one word column at a time: each of the window's
/// [`GLYPH_H`] pixel rows loads the word and its successor once, as one
/// 128-bit pair, and every cell that starts in that word is shifted out
/// of the pairs in registers and written once.
pub fn pack_cell_row(bmp: &Bitmap, row: usize, cols: usize, out: &mut Vec<u64>) {
    let wpr = bmp.words_per_row;
    let oy = row * CELL_H;
    // The window's pixel rows; rows past the bitmap read white.
    let rows: [&[u64]; GLYPH_H] = std::array::from_fn(|gy| {
        let y = oy + gy;
        bmp.words.get(y * wpr..(y + 1) * wpr).unwrap_or(&[])
    });
    out.clear();
    out.reserve(cols);
    let mut col = 0;
    for wi in 0..wpr {
        // Padding bits past `width` are zero, and a row's last word has
        // no successor, so a window past the row's end reads white.
        let pairs: [u128; GLYPH_H] = std::array::from_fn(|gy| {
            let word = |i: usize| u128::from(rows[gy].get(i).copied().unwrap_or(0));
            word(wi) | word(wi + 1) << 64
        });
        while col < cols && (col * CELL_W) >> 6 == wi {
            let off = (col * CELL_W) & 63;
            let mut cell = 0;
            for (gy, pair) in pairs.iter().enumerate() {
                cell |= ((*pair >> off) as u64 & ((1 << GLYPH_W) - 1)) << (gy * GLYPH_W);
            }
            out.push(cell);
            col += 1;
        }
    }
    // Cells past the last word (none on a page, whose width covers
    // every column) read white.
    out.resize(cols, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::glyph_for;

    /// The strip's pixels as rows of `#` (ink) and `.` (background).
    fn pixels(b: &Bitmap, width: usize) -> Vec<String> {
        (0..CELL_H)
            .map(|y| {
                (0..width)
                    .map(|x| if b.get(x, y) { '#' } else { '.' })
                    .collect()
            })
            .collect()
    }

    /// The glyph of `ch` as it should sit in a strip cell at column 0.
    fn glyph_pixels(ch: char) -> Vec<String> {
        let g = glyph_for(ch).unwrap();
        (0..CELL_H)
            .map(|y| {
                (0..CELL_W)
                    .map(|x| match g.pixels.get(y).and_then(|row| row.get(x)) {
                        Some(true) => '#',
                        _ => '.',
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn blank_strip_for_empty_line() {
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into("", CELL_W, &mut b);
        assert_eq!(b.height, CELL_H);
        assert!(pixels(&b, CELL_W).iter().all(|row| !row.contains('#')));
    }

    #[test]
    fn single_char_strip_is_its_glyph() {
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into("A", CELL_W, &mut b);
        assert_eq!(pixels(&b, CELL_W), glyph_pixels('A'));
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into("SOMETHING LONG ENOUGH TO SHRINK FROM", 40 * CELL_W, &mut b);
        rasterize_line_into("C", CELL_W, &mut b);
        let mut fresh = Bitmap::blank(0, 0);
        rasterize_line_into("C", CELL_W, &mut fresh);
        assert_eq!(b, fresh);
    }

    #[test]
    fn short_lines_keep_their_blank_padding() {
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into("I", 3 * CELL_W, &mut b);
        for row in pixels(&b, 3 * CELL_W) {
            assert!(!row[CELL_W..].contains('#'), "{row}");
        }
    }

    #[test]
    fn packed_cells_match_pixels() {
        let line = "Ab3 —z? 8%";
        let cols = line.chars().count();
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into(line, cols * CELL_W, &mut b);
        let mut cells = Vec::new();
        pack_cell_row(&b, 0, cols, &mut cells);
        assert_eq!(cells.len(), cols);
        for (col, &cell) in cells.iter().enumerate() {
            for y in 0..GLYPH_H {
                for x in 0..GLYPH_W {
                    let bit = cell >> (y * GLYPH_W + x) & 1 == 1;
                    assert_eq!(bit, b.get(col * CELL_W + x, y), "({col}) pixel ({x},{y})");
                }
            }
        }
        // The space is a blank cell; 'A' packs to its glyph.
        assert_eq!(cells[3], 0);
        assert_eq!(cells[0], glyph_for('A').unwrap().packed());
    }

    #[test]
    fn packed_cells_out_of_bounds_read_white() {
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into("A", CELL_W, &mut b);
        let mut cells = Vec::new();
        // A row past the strip, and columns past its width.
        pack_cell_row(&b, 5, 2, &mut cells);
        assert_eq!(cells, [0, 0]);
        pack_cell_row(&b, 0, 3, &mut cells);
        assert_eq!(&cells[1..], [0, 0]);
    }

    #[test]
    fn pixels_past_the_width_are_dropped() {
        // Eleven columns are 66 px; the page is cut at, before and past
        // the seam of the first word, through column 10's glyph (px
        // 60-64, straddling the seam) and past it.
        let line = "ABCDEFGHIJ#";
        for width in [59, 60, 62, 63, 64, 65, 66, 128] {
            let mut b = Bitmap::blank(0, 0);
            rasterize_line_into(line, width, &mut b);
            let want: Vec<String> = (0..CELL_H)
                .map(|y| {
                    (0..width)
                        .map(|x| {
                            let g = line.chars().nth(x / CELL_W).and_then(glyph_for);
                            let ink = g.is_some_and(|g| {
                                y < GLYPH_H && x % CELL_W < GLYPH_W && g.pixels[y][x % CELL_W]
                            });
                            if ink {
                                '#'
                            } else {
                                '.'
                            }
                        })
                        .collect()
                })
                .collect();
            assert_eq!(pixels(&b, width), want, "width {width}");
            // Padding bits past the width stay zero.
            let wpr = b.words_per_row();
            if width % 64 != 0 {
                for row in b.words().chunks_exact(wpr) {
                    assert_eq!(row[wpr - 1] >> (width % 64), 0, "width {width}");
                }
            }
        }
    }

    #[test]
    fn uncovered_chars_render_blank() {
        let mut b = Bitmap::blank(0, 0);
        rasterize_line_into("€", CELL_W, &mut b);
        assert!(pixels(&b, CELL_W).iter().all(|row| !row.contains('#')));
    }

    #[test]
    fn get_set_bounds() {
        let mut b = Bitmap::blank(4, 4);
        b.set(1, 1, true);
        assert!(b.get(1, 1));
        b.set(1, 1, false);
        assert!(!b.get(1, 1));
        // Out of bounds: no panic, reads white.
        b.set(100, 100, true);
        assert!(!b.get(100, 100));
        assert_eq!(b, Bitmap::blank(4, 4));
    }
}
