//! Borrowed field scanning for the Stage II parsers.
//!
//! Every layout splits a line at a separator and keeps a fixed number of
//! fields. [`Sep`] finds a separator where `str::find`, `str::rfind` and
//! `str::split` would — leftmost (or rightmost) and non-overlapping — but
//! searches for one byte of it and checks the rest there, instead of
//! setting up a two-way search on every call. [`fields`] keeps the first
//! `N` items of a split in an array and counts the rest, so a parser
//! borrows its fields from the line and can still say how many it found.
//! [`lowercase`] folds a vocabulary token into a stack buffer, so matching
//! it against its aliases allocates nothing. [`lines`] ends a line where
//! a scan may: at `\n`, `\r\n` or a lone `\r`.

/// A field separator of one or more bytes, at least one of them not a
/// space.
pub(crate) struct Sep {
    text: &'static str,
    /// The byte searched for: the separator's first non-space byte,
    /// which is rarer in report text than a space.
    anchor: usize,
}

impl Sep {
    /// A separator matching `text` exactly.
    pub(crate) const fn new(text: &'static str) -> Sep {
        let bytes = text.as_bytes();
        let mut anchor = 0;
        while bytes[anchor] == b' ' {
            anchor += 1;
        }
        Sep { text, anchor }
    }

    /// The separator's length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.text.len()
    }

    /// The start of the leftmost match in `hay` at or after `from`, as
    /// `hay[from..].find(text)` would find it (plus `from`).
    pub(crate) fn find_from(&self, hay: &str, from: usize) -> Option<usize> {
        let (hay, text) = (hay.as_bytes(), self.text.as_bytes());
        let byte = text[self.anchor];
        // Match starts rise with their anchor byte, so the first that
        // checks out is the leftmost.
        let mut at = from + self.anchor;
        while at < hay.len() {
            let hit = at + hay[at..].iter().position(|&b| b == byte)?;
            let start = hit - self.anchor;
            if hay[start..].starts_with(text) {
                return Some(start);
            }
            at = hit + 1;
        }
        None
    }

    /// The start of the rightmost match in `hay`, as `hay.rfind(text)`
    /// would find it.
    pub(crate) fn rfind(&self, hay: &str) -> Option<usize> {
        let (hay, text) = (hay.as_bytes(), self.text.as_bytes());
        let byte = text[self.anchor];
        let mut end = hay.len();
        while let Some(hit) = hay[..end].iter().rposition(|&b| b == byte) {
            if let Some(start) = hit.checked_sub(self.anchor) {
                if hay[start..].starts_with(text) {
                    return Some(start);
                }
            }
            end = hit;
        }
        None
    }

    /// `hay.split_once(text)`.
    pub(crate) fn split_once<'a>(&self, hay: &'a str) -> Option<(&'a str, &'a str)> {
        let at = self.find_from(hay, 0)?;
        Some((&hay[..at], &hay[at + self.len()..]))
    }

    /// `hay.rsplit_once(text)`.
    pub(crate) fn rsplit_once<'a>(&self, hay: &'a str) -> Option<(&'a str, &'a str)> {
        let at = self.rfind(hay)?;
        Some((&hay[..at], &hay[at + self.len()..]))
    }

    /// `hay.split(text)`: the fields between leftmost, non-overlapping
    /// matches, the last one included even when empty.
    pub(crate) fn split<'s, 'a>(&'s self, hay: &'a str) -> Split<'s, 'a> {
        Split {
            sep: self,
            hay,
            start: Some(0),
        }
    }
}

/// The iterator [`Sep::split`] returns.
pub(crate) struct Split<'s, 'a> {
    sep: &'s Sep,
    hay: &'a str,
    /// Where the next field starts; `None` once the last was yielded.
    start: Option<usize>,
}

impl<'a> Iterator for Split<'_, 'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let start = self.start?;
        match self.sep.find_from(self.hay, start) {
            Some(at) => {
                self.start = Some(at + self.sep.len());
                Some(&self.hay[start..at])
            }
            None => {
                self.start = None;
                Some(&self.hay[start..])
            }
        }
    }
}

/// The chars that end a line: `\n`, and `\r` alone or before `\n`.
pub(crate) const LINE_ENDS: [char; 2] = ['\n', '\r'];

/// The lines of `text`, each ended by `\n`, `\r\n` or a lone `\r` (one
/// not followed by `\n`), the last line's end optional: what
/// `str::lines` yields with every lone `\r` read as `\n`. `str::lines`
/// ends a line only at `\n`, so a scan with old-Mac line endings would
/// hand a parser two records as one line.
pub(crate) fn lines(text: &str) -> Lines<'_> {
    Lines { rest: text }
}

/// The iterator [`lines`] returns.
pub(crate) struct Lines<'a> {
    /// The text after the last line yielded.
    rest: &'a str,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        let (line, rest) = match line_end(bytes) {
            Some(at) => {
                let crlf = bytes[at] == b'\r' && bytes.get(at + 1) == Some(&b'\n');
                (&self.rest[..at], &self.rest[at + 1 + usize::from(crlf)..])
            }
            None => (self.rest, ""),
        };
        self.rest = rest;
        Some(line)
    }
}

/// The index of the first `\n` or `\r` in `bytes`. It reads eight bytes
/// a word, so a line is scanned once for both ends, about as fast as
/// `str::lines` scans it for `\n` alone.
#[inline]
fn line_end(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    // The high bit of every zero byte of `x`, and maybe of bytes after
    // the first: a borrow runs only upward, so the lowest is exact.
    let zeros = |x: u64| x.wrapping_sub(ONES) & !x & (ONES << 7);
    let mut words = bytes.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let ends = zeros(w ^ (ONES * u64::from(b'\n'))) | zeros(w ^ (ONES * u64::from(b'\r')));
        if ends != 0 {
            return Some(8 * k + ends.trailing_zeros() as usize / 8);
        }
    }
    let tail = bytes.len() - words.remainder().len();
    let at = words
        .remainder()
        .iter()
        .position(|&b| b == b'\n' || b == b'\r');
    at.map(|at| tail + at)
}

/// The first `N` items of `items` (`""` past the last), and how many
/// items there were in all.
pub(crate) fn fields<'a, const N: usize>(
    items: impl Iterator<Item = &'a str>,
) -> ([&'a str; N], usize) {
    let mut kept = [""; N];
    let mut n = 0;
    for item in items {
        if let Some(slot) = kept.get_mut(n) {
            *slot = item;
        }
        n += 1;
    }
    (kept, n)
}

/// `text.trim().to_ascii_lowercase()`, folded into `buf`, or `None` when
/// it is longer than `buf`: no vocabulary alias is.
pub(crate) fn lowercase<'b>(text: &str, buf: &'b mut [u8; 24]) -> Option<&'b [u8]> {
    let token = text.trim().as_bytes();
    let folded = buf.get_mut(..token.len())?;
    folded.copy_from_slice(token);
    folded.make_ascii_lowercase();
    Some(folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DASH: Sep = Sep::new(" — ");
    const PIPE: Sep = Sep::new(" | ");

    #[test]
    fn anchors_skip_leading_spaces() {
        assert_eq!(DASH.anchor, 1);
        assert_eq!(Sep::new("): ").anchor, 0);
    }

    #[test]
    fn split_matches_str_split() {
        for hay in [
            "",
            " | ",
            "a | b | c",
            "a | | b",
            " | | | ",
            "a |b| c",
            "a | b | ",
            "é | ü |",
        ] {
            let ours: Vec<&str> = PIPE.split(hay).collect();
            let std: Vec<&str> = hay.split(" | ").collect();
            assert_eq!(ours, std, "{hay:?}");
        }
        for hay in [
            "a — — b",
            "a — b — c",
            " —  — ",
            "—",
            "a —— b",
            "1/4/16 — x",
        ] {
            let ours: Vec<&str> = DASH.split(hay).collect();
            let std: Vec<&str> = hay.split(" — ").collect();
            assert_eq!(ours, std, "{hay:?}");
        }
    }

    #[test]
    fn finds_match_str_find_and_rfind() {
        let sep = Sep::new(" [reaction: ");
        for hay in [
            "x [reaction: 0.85s]",
            "x [reaction:  [reaction: 1s]",
            "[reaction: 1s]",
            " [reaction: ",
            "no annotation",
        ] {
            assert_eq!(sep.find_from(hay, 0), hay.find(" [reaction: "), "{hay:?}");
            assert_eq!(sep.rfind(hay), hay.rfind(" [reaction: "), "{hay:?}");
            assert_eq!(sep.split_once(hay), hay.split_once(" [reaction: "));
            assert_eq!(sep.rsplit_once(hay), hay.rsplit_once(" [reaction: "));
        }
    }

    #[test]
    fn lines_end_at_lf_crlf_and_a_lone_cr() {
        let mut texts: Vec<String> = [
            "",
            "a",
            "a\n",
            "a\nb",
            "a\r\nb\r\n",
            "a\rb",
            "a\r",
            "\r",
            "\n",
            "\r\n",
            "\r\r\n",
            "a\r\r\nb",
            "a\n\rb\r\r",
            "a\r\rb\n\n\rc",
            "é\rü\r\n€",
        ]
        .map(String::from)
        .into();
        // Each end at every offset of the first three 8-byte words, and
        // split across a word's edge, after bytes of each kind: ASCII,
        // UTF-8 (high bits set), and the bytes either side of `\n` and
        // `\r` (`\t`, `\x0b`, `\x0c`, `\x0e`).
        for filler in ["x", "é", "\t\x0b\x0c\x0e"] {
            for at in 0..24 {
                let head: String = filler.chars().cycle().take(at).collect();
                for end in ["\n", "\r", "\r\n", "\r\r", "\n\r"] {
                    texts.push(format!("{head}{end}{head}{end}€"));
                }
            }
        }
        for text in &texts {
            let text = text.as_str();
            // A lone `\r` ends a line exactly as `\n` does.
            let lone_as_lf: String = text
                .char_indices()
                .map(|(i, c)| match c {
                    '\r' if !text[i + 1..].starts_with('\n') => '\n',
                    c => c,
                })
                .collect();
            let ours: Vec<&str> = lines(text).collect();
            let std: Vec<&str> = lone_as_lf.lines().collect();
            assert_eq!(ours, std, "{text:?}");
            // Without a lone `\r`, exactly `str::lines`.
            if lone_as_lf == text {
                assert_eq!(ours, text.lines().collect::<Vec<_>>(), "{text:?}");
            }
        }
    }

    #[test]
    fn fields_keep_the_first_n_and_count_all() {
        assert_eq!(fields::<3>("a b".split(' ')), (["a", "b", ""], 2));
        assert_eq!(fields::<2>("a b c d".split(' ')), (["a", "b"], 4));
    }

    #[test]
    fn lowercase_trims_and_folds_ascii_only() {
        let mut buf = [0; 24];
        assert_eq!(
            lowercase("  City Street \t", &mut buf),
            Some(&b"city street"[..])
        );
        assert_eq!(lowercase("ÉTÉ", &mut buf), Some("ÉtÉ".as_bytes()));
        assert_eq!(lowercase(&"x".repeat(25), &mut buf), None);
    }
}
