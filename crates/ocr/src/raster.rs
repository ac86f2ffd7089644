//! Rasterization: text → monochrome bitmap strips on a fixed character
//! grid, one strip per text line.

use crate::font::{glyph_for, GLYPH_H, GLYPH_W};

/// Horizontal pitch of a character cell (glyph + 1px gap).
pub const CELL_W: usize = GLYPH_W + 1;
/// Vertical pitch of a text line (glyph + 3px leading).
pub const CELL_H: usize = GLYPH_H + 3;

/// A monochrome bitmap, row-major, `true` = ink.
///
/// Pixels are stored bit-packed, 64 per `u64` word, with each pixel
/// row padded out to a whole word, so [`pack_cell_row`] reads a cell's
/// row with one or two word loads. Padding bits past `width` are kept
/// zero by every mutator, so word-level operations (equality) need no
/// masking.
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

    /// Up to 64 pixels of row `y` starting at `x0`, packed with bit
    /// `i` carrying pixel `x0 + i`. Out-of-bounds pixels read white,
    /// exactly like [`Bitmap::get`]. `n` must be at most 64.
    fn row_bits(&self, y: usize, x0: usize, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if y >= self.height || x0 >= self.width {
            return 0;
        }
        let base = y * self.words_per_row;
        let wi = x0 >> 6;
        let off = x0 & 63;
        let lo = self.words[base + wi] >> off;
        let hi = if off > 0 && wi + 1 < self.words_per_row {
            self.words[base + wi + 1] << (64 - off)
        } else {
            0
        };
        let avail = (self.width - x0).min(n);
        let bits = lo | hi;
        if avail >= 64 {
            bits
        } else {
            bits & ((1u64 << avail) - 1)
        }
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel at `(x, y)`; out-of-bounds reads are white.
    pub fn get(&self, x: usize, y: usize) -> bool {
        if x < self.width && y < self.height {
            self.words[y * self.words_per_row + (x >> 6)] >> (x & 63) & 1 == 1
        } else {
            false
        }
    }

    /// Sets the pixel at `(x, y)` (out-of-bounds writes are ignored).
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
    for (col, ch) in line.chars().enumerate() {
        if let Some(g) = glyph_for(ch) {
            let ox = col * CELL_W;
            for (gy, grow) in g.pixels.iter().enumerate() {
                for (gx, &ink) in grow.iter().enumerate() {
                    if ink {
                        bmp.set(ox + gx, gy, true);
                    }
                }
            }
        }
    }
}

/// Packs every cell of text row `row` in one pass: `out[col]` is the
/// glyph-sized window of cell `(row, col)` as a single `u64`, with bit
/// `y·GLYPH_W + x` carrying pixel `(x, y)` of the window — the layout of
/// [`crate::font::Glyph::packed`], so `cell & glyph` ANDs overlapping
/// ink. Out-of-bounds pixels read white.
///
/// The page is walked pixel-row-major — each of the window's
/// [`GLYPH_H`] pixel rows is read once, left to right, across all
/// columns — so extraction is sequential in memory (cache-friendly)
/// instead of striding down the page once per cell.
pub fn pack_cell_row(bmp: &Bitmap, row: usize, cols: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize(cols, 0);
    let oy = row * CELL_H;
    for gy in 0..GLYPH_H {
        let y = oy + gy;
        if y >= bmp.height() {
            break;
        }
        let shift = gy * GLYPH_W;
        for (col, word) in out.iter_mut().enumerate() {
            let rowbits = bmp.row_bits(y, col * CELL_W, GLYPH_W);
            *word |= rowbits << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(b.height(), CELL_H);
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
