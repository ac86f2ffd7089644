//! Stage II test inputs: hostile mutations of filing text.
//!
//! The seven `FaultKind`s model what a bad scan does to a filing's
//! lines. Stage II must also survive text they never produce: NULs and
//! other control characters, a 64 KiB line, U+FFFD where a multi-byte
//! character was cut, mixed `\n`, `\r\n` and `\r` line endings, and each
//! layout's delimiter inside a field. [`mutations`] applies each of them,
//! and then all of them at once, to one document under a seed.
//! `chaos_props` asserts Stage II's contract on them and
//! `format_equivalence` holds the parsers to the reference on them
//! (through [`lone_cr_as_lf`] where a lone `\r` ends a line); no binary
//! produces them, so they live here.

use disengage::reports::formats::RawDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The share of lines a line-level mutation touches.
const LINE_RATE: f64 = 0.25;

/// Control characters a scan or a bad transcoding leaves in text.
const CONTROLS: [char; 9] = [
    '\0', '\u{1}', '\u{7}', '\u{8}', '\t', '\u{b}', '\u{c}', '\u{1b}', '\u{7f}',
];

/// Every layout's separators and the markers its parser splits on: the
/// dash and pipe tables, Delphi's CSV quoting, Bosch's car and metadata
/// brackets, the reaction annotation, the mileage header, the accident
/// form's `key: value`, and the date separators.
const DELIMITERS: [&str; 17] = [
    " — ",
    "—",
    " | ",
    "|",
    ",",
    ",\"",
    "\"",
    " (",
    "): ",
    " [road=",
    "; weather=",
    "]",
    " [reaction: ",
    "s]",
    "MILEAGE",
    ": ",
    "/",
];

/// What a 64 KiB line is made of: plain text, a run of one layout's
/// separators, a run of multi-byte characters, or of annotations.
const FILLERS: [&str; 6] = ["x", " | ", " — ", ",", "é", " [reaction: 1.00s]"];

/// The longest line [`mutations`] writes, in bytes.
const LONG_LINE: usize = 64 * 1024;

/// A text mutation, drawing from its generator.
type Mutation = fn(&str, &mut StdRng) -> String;

/// Every hostile variant of `doc` under `seed`, each with its name: one
/// per mutation, then all five applied in turn.
pub fn mutations(doc: &RawDocument, seed: u64) -> Vec<(&'static str, RawDocument)> {
    let transforms: [(&'static str, Mutation); 5] = [
        ("control characters", control_characters),
        ("64 KiB line", long_line),
        ("cut characters", cut_characters),
        ("mixed line endings", mixed_line_endings),
        ("delimiters in fields", delimiters_in_fields),
    ];
    let variant = |text: String| RawDocument {
        text,
        ..doc.clone()
    };
    let mut out = Vec::new();
    let mut all = doc.text.clone();
    for (k, (name, transform)) in transforms.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(rand::derive_seed(seed, k as u64));
        out.push((name, variant(transform(&doc.text, &mut rng))));
        all = transform(&all, &mut rng);
    }
    out.push(("all mutations", variant(all)));
    out
}

/// `doc` with every lone `\r` (one not before `\n`) read as `\n`, or
/// `None` when it holds none. Stage II ends a line at a lone `\r` as it
/// does at `\n`; the reference parsers, kept as they were, read lines
/// with `str::lines`, which ends one only at `\n`, so on such a text
/// the reference reads this one.
pub fn lone_cr_as_lf(doc: &RawDocument) -> Option<RawDocument> {
    let bytes = doc.text.as_bytes();
    let lone = |i: usize| bytes[i] == b'\r' && bytes.get(i + 1) != Some(&b'\n');
    if !(0..bytes.len()).any(lone) {
        return None;
    }
    let text = doc
        .text
        .char_indices()
        .map(|(i, c)| if lone(i) { '\n' } else { c })
        .collect();
    Some(RawDocument {
        text,
        ..doc.clone()
    })
}

/// A uniformly drawn char boundary of `line`, its end included.
fn boundary(line: &str, rng: &mut StdRng) -> usize {
    let cuts: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
    match rng.gen_range(0..=cuts.len()) {
        i if i == cuts.len() => line.len(),
        i => cuts[i],
    }
}

/// `text` with `edit` applied to a [`LINE_RATE`] share of its lines
/// (at least one), line endings kept.
fn edit_lines(text: &str, rng: &mut StdRng, edit: Mutation) -> String {
    let lines: Vec<&str> = text.split('\n').collect();
    let forced = rng.gen_range(0..lines.len());
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.into_iter().enumerate() {
        if i == forced || rng.gen_bool(LINE_RATE) {
            out.push(edit(line, rng));
        } else {
            out.push(line.to_owned());
        }
    }
    out.join("\n")
}

/// `text` with `insert` placed at a random char boundary of `line`.
fn insert_at_random(line: &str, insert: &str, rng: &mut StdRng) -> String {
    let at = boundary(line, rng);
    format!("{}{insert}{}", &line[..at], &line[at..])
}

/// NULs and other control characters inserted into lines.
fn control_characters(text: &str, rng: &mut StdRng) -> String {
    edit_lines(text, rng, |line, rng| {
        let mut line = line.to_owned();
        for _ in 0..rng.gen_range(1..=3usize) {
            let c = CONTROLS[rng.gen_range(0..CONTROLS.len())];
            line = insert_at_random(&line, c.encode_utf8(&mut [0; 4]), rng);
        }
        line
    })
}

/// One line grown to [`LONG_LINE`] bytes by a filler inserted inside it.
fn long_line(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    let i = rng.gen_range(0..lines.len());
    let unit = FILLERS[rng.gen_range(0..FILLERS.len())];
    let room = LONG_LINE.saturating_sub(lines[i].len());
    let filler = unit.repeat(room / unit.len());
    lines[i] = insert_at_random(&lines[i], &filler, rng);
    lines.join("\n")
}

/// Multi-byte characters cut short and decoded lossily, which leaves
/// U+FFFD where they were; in a line without one, U+FFFD inserted.
fn cut_characters(text: &str, rng: &mut StdRng) -> String {
    edit_lines(text, rng, |line, rng| {
        let wide: Vec<(usize, char)> = line
            .char_indices()
            .filter(|(_, c)| c.len_utf8() > 1)
            .collect();
        if wide.is_empty() {
            return insert_at_random(line, "\u{FFFD}", rng);
        }
        let (at, c) = wide[rng.gen_range(0..wide.len())];
        // Keep 1..len-1 of its bytes: a lead byte and maybe some
        // continuation bytes, never the whole character.
        let kept = rng.gen_range(1..c.len_utf8());
        let mut bytes = line.as_bytes()[..at + kept].to_vec();
        bytes.extend_from_slice(&line.as_bytes()[at + c.len_utf8()..]);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Every line ending drawn from `\n`, `\r\n` and `\r`.
fn mixed_line_endings(text: &str, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 16);
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push_str(["\n", "\r\n", "\r"][rng.gen_range(0..3usize)]);
        }
        out.push_str(line);
    }
    out
}

/// A delimiter of some layout inserted inside lines, usually mid-field.
fn delimiters_in_fields(text: &str, rng: &mut StdRng) -> String {
    edit_lines(text, rng, |line, rng| {
        let delimiter = DELIMITERS[rng.gen_range(0..DELIMITERS.len())];
        insert_at_random(line, delimiter, rng)
    })
}
