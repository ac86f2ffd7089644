//! Document-level fault injectors.
//!
//! Faults are applied to the raw document text between Stage I
//! (digitization) and Stage II (parsing) — exactly where real-world
//! corruption enters: a bad scan, a torn page, a duplicated sheet, a
//! field key-entered out of range. Injection is a pure function of the
//! plan seed and the document index, so a fault log can be replayed and
//! audited after the run.

use crate::plan::{FaultKind, FaultPlan};
use disengage_reports::formats::RawDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault: what was done, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Fault kind applied.
    pub kind: FaultKind,
    /// Index of the document in the injected batch.
    pub doc: usize,
    /// 1-based line within the document's original text.
    pub line: usize,
}

impl InjectedFault {
    /// One-line description for flight-recorder events and postmortem
    /// rendering, e.g. `char_noise doc 3 line 14`.
    pub fn describe(&self) -> String {
        format!("{} doc {} line {}", self.kind.name(), self.doc, self.line)
    }
}

/// The ledger of everything a plan injected into a batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Every fault, in (document, line) order.
    pub faults: Vec<InjectedFault>,
}

impl FaultLog {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.faults.len() as u64
    }

    /// Faults of one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.faults.iter().filter(|f| f.kind == kind).count() as u64
    }

    /// Faults grouped by document index.
    pub fn by_document(&self) -> std::collections::BTreeMap<usize, Vec<InjectedFault>> {
        let mut map: std::collections::BTreeMap<usize, Vec<InjectedFault>> =
            std::collections::BTreeMap::new();
        for &f in &self.faults {
            map.entry(f.doc).or_default().push(f);
        }
        map
    }
}

/// OCR-confusable junk used by [`FaultKind::CharNoise`].
const NOISE_CHARS: [char; 10] = ['#', '@', '~', '^', '0', 'O', 'l', '|', '5', 'S'];

/// Applies the plan to a batch of documents that starts at global corpus
/// index `base` (0 for a whole corpus), returning the perturbed batch
/// and the fault ledger. Document `d` of the batch is perturbed exactly
/// as document `base + d` of the full corpus would be, and the fault
/// log records global indices. This is what keeps sharded execution
/// byte-identical to a monolithic run — each shard injects its own
/// slice under the corpus-wide plan. Rate 0 returns a byte-identical
/// copy and an empty log.
pub fn inject_documents(
    plan: &FaultPlan,
    docs: &[RawDocument],
    base: usize,
) -> (Vec<RawDocument>, FaultLog) {
    let mut log = FaultLog::default();
    if !plan.active() {
        return (docs.to_vec(), log);
    }
    let out = docs
        .iter()
        .enumerate()
        .map(|(d, doc)| {
            // One RNG per document, keyed by (seed, global index)
            // through the workspace-wide SplitMix64 derivation — the
            // same scheme Stage I uses for OCR noise, so a document's
            // perturbation never depends on its neighbours, its batch
            // position history, or which slice of the corpus it was
            // injected in.
            let g = base + d;
            let mut rng = StdRng::seed_from_u64(rand::derive_seed(plan.seed, g as u64));
            let text = inject_text(plan, &mut rng, g, &doc.text, &mut log);
            RawDocument::new(doc.manufacturer, doc.report_year, doc.kind, text)
        })
        .collect();
    (out, log)
}

/// Perturbs one document's text. Line-level faults are decided in a
/// first pass (one RNG draw sequence over the original lines, so the
/// stream is stable) and applied in a second.
fn inject_text(
    plan: &FaultPlan,
    rng: &mut StdRng,
    doc_index: usize,
    text: &str,
    log: &mut FaultLog,
) -> String {
    let lines: Vec<&str> = text.lines().collect();
    // Pass 1: decide.
    let mut decisions: Vec<Option<FaultKind>> = Vec::with_capacity(lines.len());
    for line in &lines {
        if line.trim().is_empty() || !rng.gen_bool(plan.rate) {
            decisions.push(None);
        } else {
            let kind = FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())];
            decisions.push(Some(kind));
        }
    }
    // Pass 2: apply. Text-level faults mutate the line; structural
    // faults (drop/dup/swap) shape the output list.
    let mut out: Vec<String> = Vec::with_capacity(lines.len() + 2);
    let mut i = 0usize;
    while i < lines.len() {
        let line = lines[i];
        match decisions[i] {
            None => out.push(line.to_owned()),
            Some(kind) => {
                log.faults.push(InjectedFault {
                    kind,
                    doc: doc_index,
                    line: i + 1,
                });
                match kind {
                    FaultKind::CharNoise => out.push(char_noise(rng, line)),
                    FaultKind::Truncate => out.push(truncate(rng, line)),
                    FaultKind::RowDrop => {}
                    FaultKind::RowDup => {
                        out.push(line.to_owned());
                        out.push(line.to_owned());
                    }
                    FaultKind::RowSwap => {
                        if i + 1 < lines.len() {
                            out.push(lines[i + 1].to_owned());
                            out.push(line.to_owned());
                            // The successor was consumed by the swap; its
                            // own decision (if any) is forfeited so each
                            // line is perturbed at most once.
                            i += 1;
                        } else {
                            out.push(line.to_owned());
                        }
                    }
                    FaultKind::FieldDrift => out.push(field_drift(rng, line)),
                    FaultKind::BlankCause => {
                        if let Some(kept) = blank_cause(line) {
                            out.push(kept);
                        }
                    }
                }
            }
        }
        i += 1;
    }
    let mut joined = out.join("\n");
    if text.ends_with('\n') && !joined.is_empty() {
        joined.push('\n');
    }
    joined
}

/// Replaces 1–3 characters with OCR-confusable junk.
fn char_noise(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    if chars.is_empty() {
        return line.to_owned();
    }
    let hits = rng.gen_range(1..=3usize).min(chars.len());
    for _ in 0..hits {
        let at = rng.gen_range(0..chars.len());
        chars[at] = NOISE_CHARS[rng.gen_range(0..NOISE_CHARS.len())];
    }
    chars.into_iter().collect()
}

/// Cuts the line somewhere in its second half (a torn scan).
fn truncate(rng: &mut StdRng, line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    if chars.len() < 4 {
        return line.to_owned();
    }
    let keep = rng.gen_range(chars.len() / 2..chars.len());
    chars[..keep].iter().collect()
}

/// Mangles the first numeric run out of its valid range (negative
/// mileage, month 13 dates, absurd speeds). Lines without digits get a
/// corrupted first word instead (schema-header drift).
fn field_drift(rng: &mut StdRng, line: &str) -> String {
    let bytes = line.as_bytes();
    let start = bytes.iter().position(|b| b.is_ascii_digit());
    match start {
        Some(s) => {
            let end = bytes[s..]
                .iter()
                .position(|b| !(b.is_ascii_digit() || *b == b'.'))
                .map_or(bytes.len(), |e| s + e);
            let replacement = match rng.gen_range(0..3u8) {
                0 => "-999999",
                1 => "999913",
                _ => "0000000",
            };
            format!("{}{}{}", &line[..s], replacement, &line[end..])
        }
        None => char_noise(rng, line),
    }
}

/// Strips the free-text tail after the last token containing a digit —
/// the cause description vanishes, structured fields remain. Lines with
/// no digit-bearing token are removed entirely.
fn blank_cause(line: &str) -> Option<String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let last_structured = tokens
        .iter()
        .rposition(|t| t.chars().any(|c| c.is_ascii_digit()))?;
    Some(tokens[..=last_structured].join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_reports::formats::DocumentKind;
    use disengage_reports::{Manufacturer, ReportYear};

    fn doc(text: &str) -> RawDocument {
        RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            text,
        )
    }

    #[test]
    fn rate_zero_is_identity() {
        let docs = vec![doc("line one\nline two\n")];
        let (out, log) = inject_documents(&FaultPlan::new(0.0, 9), &docs, 0);
        assert_eq!(out, docs);
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let docs = vec![doc("a 1 x\nb 2 y\nc 3 z\n"); 20];
        let plan = FaultPlan::new(0.5, 1234);
        let (out1, log1) = inject_documents(&plan, &docs, 0);
        let (out2, log2) = inject_documents(&plan, &docs, 0);
        assert_eq!(out1, out2);
        assert_eq!(log1, log2);
        let (out3, _) = inject_documents(&FaultPlan::new(0.5, 99), &docs, 0);
        assert_ne!(out1, out3, "different seeds, same perturbation");
    }

    #[test]
    fn rate_one_faults_every_nonempty_line() {
        let docs = vec![doc("one 1\ntwo 2\nthree 3\n")];
        let (_, log) = inject_documents(&FaultPlan::new(1.0, 7), &docs, 0);
        // RowSwap may consume its successor's decision, so the count is
        // between ceil(n/2) and n.
        assert!(log.total() >= 2 && log.total() <= 3, "{log:?}");
    }

    #[test]
    fn empty_lines_never_faulted() {
        let docs = vec![doc("\n\n\n")];
        let (out, log) = inject_documents(&FaultPlan::new(1.0, 7), &docs, 0);
        assert_eq!(log.total(), 0);
        assert_eq!(out[0].text, docs[0].text);
    }

    #[test]
    fn row_drop_removes_and_dup_duplicates() {
        let mut rng = StdRng::seed_from_u64(0);
        // Exercise the primitives directly for exactness.
        assert_eq!(
            blank_cause("car-0 2016-01-04 software froze"),
            Some("car-0 2016-01-04".to_owned())
        );
        assert_eq!(blank_cause("no digits at all"), None);
        let drifted = field_drift(&mut rng, "miles 120.5 end");
        assert!(!drifted.contains("120.5"), "{drifted}");
        let trunc = truncate(&mut rng, "abcdefghij");
        assert!(trunc.len() < 10 && trunc.len() >= 5);
        let noised = char_noise(&mut rng, "watchdog");
        assert_eq!(noised.chars().count(), 8);
    }

    #[test]
    fn log_groups_by_document() {
        let docs = vec![doc("a 1\nb 2\n"), doc("c 3\nd 4\n")];
        let (_, log) = inject_documents(&FaultPlan::new(1.0, 5), &docs, 0);
        let by_doc = log.by_document();
        assert!(by_doc.len() <= 2);
        for (d, faults) in by_doc {
            assert!(d < 2);
            assert!(!faults.is_empty());
            for f in faults {
                assert!(f.line >= 1 && f.line <= 2);
            }
        }
    }

    #[test]
    fn slice_injection_matches_full_batch() {
        let docs: Vec<RawDocument> = (0..6)
            .map(|i| doc(&format!("alpha {i} x\nbeta {i} y\ngamma {i} z\n")))
            .collect();
        let plan = FaultPlan::new(0.6, 0x5EED);
        let (full, full_log) = inject_documents(&plan, &docs, 0);
        // Inject the same batch as two shards at their global bases.
        let (lo, lo_log) = inject_documents(&plan, &docs[..2], 0);
        let (hi, hi_log) = inject_documents(&plan, &docs[2..], 2);
        let stitched: Vec<RawDocument> = lo.into_iter().chain(hi).collect();
        assert_eq!(stitched, full);
        let mut stitched_log = lo_log;
        stitched_log.faults.extend(hi_log.faults);
        assert_eq!(stitched_log, full_log);
        // Every logged index is global, not slice-local.
        assert!(stitched_log.faults.iter().all(|f| f.doc < 6));
    }

    #[test]
    fn trailing_newline_preserved() {
        let docs = vec![doc("a 1\nb 2\n")];
        let (out, _) = inject_documents(&FaultPlan::new(1.0, 3), &docs, 0);
        if !out[0].text.is_empty() {
            assert!(out[0].text.ends_with('\n'));
        }
    }
}
