//! Per-record provenance: the causal chain behind every pipeline
//! decision.
//!
//! The aggregate telemetry in [`crate::collector`] answers *how many*
//! records were corrected, quarantined, or tagged; this module answers
//! *why this record* landed where it did. Every stage records typed
//! [`ProvenanceEvent`]s about a [`Subject`] (a record, a document, a
//! document line, or the run as a whole) into the same
//! [`Collector`](crate::Collector) that takes its telemetry
//! ([`Collector::lineage`](crate::Collector::lineage), recorded only on
//! a collector built
//! [`with_lineage`](crate::Collector::with_lineage));
//! [`Collector::provenance`](crate::Collector::provenance) returns the
//! read-only [`ProvenanceLog`] snapshot that the exports and
//! `disengage explain` read.
//!
//! Determinism is the core contract: no event carries wall-clock data,
//! entry order is causal order, and parallel stages record into
//! collector shards folded back in task-index order
//! ([`Collector::absorb`](crate::Collector::absorb)) together with
//! their telemetry, so the
//! serialized log ([`ProvenanceLog::to_jsonl`]) is byte-identical at
//! any `--jobs` count, clean or under chaos.
//!
//! Records are addressed by a stable [`RecordId`] derived from report
//! content (manufacturer, report year, car, per-car ordinal), never
//! from a position in some intermediate vector.

use crate::json::Value;
use crate::key_segment;
use std::fmt;

/// Stable, content-derived identity of one disengagement record.
///
/// Rendered as `manufacturer/year/car/seq` (for example
/// `nissan/2016/car-3/0`): the corpus emits exactly one disengagement
/// document per (manufacturer, report year), so the per-car ordinal
/// `seq` within that document pins the record uniquely without
/// referencing any positional index that could shift under resharding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Manufacturer key segment (`"Mercedes-Benz"` → `"mercedes_benz"`).
    pub manufacturer: String,
    /// Report year of the filing (the paper's 2016/2017 releases).
    pub year: u16,
    /// Vehicle identity as reported (`car-3`, or `redacted`).
    pub car: String,
    /// Ordinal of this record among the car's records in the document.
    pub seq: u32,
}

impl RecordId {
    /// Builds an id, normalizing the manufacturer via [`key_segment`]
    /// and the car label to `[a-z0-9-]` (so `"[redacted]"` becomes
    /// `"redacted"`).
    pub fn new(manufacturer: &str, year: u16, car: &str, seq: u32) -> RecordId {
        let car: String = car
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        RecordId {
            manufacturer: key_segment(manufacturer),
            year,
            car,
            seq,
        }
    }

    /// Parses the `manufacturer/year/car/seq` rendering back.
    pub fn parse(text: &str) -> Option<RecordId> {
        let parts: Vec<&str> = text.split('/').collect();
        let [manufacturer, year, car, seq] = parts.as_slice() else {
            return None;
        };
        Some(RecordId {
            manufacturer: (*manufacturer).to_owned(),
            year: year.parse().ok()?,
            car: (*car).to_owned(),
            seq: seq.parse().ok()?,
        })
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}/{}", self.manufacturer, self.year, self.car, self.seq)
    }
}

/// What a provenance event is about.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subject {
    /// The run as a whole (Stage IV degrade decisions).
    Run,
    /// A whole raw document, by corpus index.
    Document(usize),
    /// One line of a raw document (1-based, as parsers count).
    Line {
        /// Corpus index of the document.
        doc: usize,
        /// 1-based line number within the document.
        line: usize,
    },
    /// A normalized disengagement record.
    Record(RecordId),
}

impl Subject {
    /// Parses the [`Display`](fmt::Display) rendering back.
    pub fn parse(text: &str) -> Option<Subject> {
        if text == "run" {
            return Some(Subject::Run);
        }
        if let Some(rest) = text.strip_prefix("doc:") {
            if let Some((doc, line)) = rest.split_once("/line:") {
                return Some(Subject::Line {
                    doc: doc.parse().ok()?,
                    line: line.parse().ok()?,
                });
            }
            return Some(Subject::Document(rest.parse().ok()?));
        }
        RecordId::parse(text).map(Subject::Record)
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Run => write!(f, "run"),
            Subject::Document(doc) => write!(f, "doc:{doc}"),
            Subject::Line { doc, line } => write!(f, "doc:{doc}/line:{line}"),
            Subject::Record(id) => write!(f, "{id}"),
        }
    }
}

/// One typed decision made by a pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceEvent {
    /// The OCR repair ladder rewrote one token.
    OcrRepair {
        /// 1-based line the token sits on.
        line: usize,
        /// Token as digitized.
        before: String,
        /// Token after dictionary correction.
        after: String,
        /// Ladder attempt that fixed it (1 = distance 1, 2+ = distance 2).
        attempt: u32,
    },
    /// The chaos layer injected a fault into a line.
    FaultInjected {
        /// Fault kind name (for example `char_noise`).
        kind: String,
        /// 1-based line the fault landed on.
        line: usize,
    },
    /// The chaos audit classified an injected fault's fate.
    FaultOutcome {
        /// Fault kind name.
        kind: String,
        /// 1-based line the fault landed on.
        line: usize,
        /// `corrected`, `quarantined`, or `absorbed`.
        outcome: String,
    },
    /// Stage II accepted a line as a normalized record.
    Normalized {
        /// Corpus index of the source document.
        doc: usize,
        /// 1-based source line.
        line: usize,
        /// Short record summary (car, date, modality).
        summary: String,
    },
    /// A stage rejected its input.
    Quarantined {
        /// Stage that rejected (for example `stage_ii_parse`).
        stage: String,
        /// Human-readable reason.
        reason: String,
    },
    /// One dictionary tag's vote tally in Stage III (score > 0 only).
    DictVote {
        /// Candidate fault tag.
        tag: String,
        /// STPA failure category of the tag.
        category: String,
        /// Keyword + phrase score.
        score: f64,
        /// Keywords that hit.
        keywords: Vec<String>,
    },
    /// Stage III's final tag decision for a record.
    Tagged {
        /// Winning fault tag.
        tag: String,
        /// STPA failure category.
        category: String,
        /// Winning score.
        score: f64,
        /// Margin over the runner-up.
        margin: f64,
        /// Whether another tag tied the winning score.
        ambiguous: bool,
    },
    /// Stage IV degraded an analysis artifact instead of failing.
    Degraded {
        /// Artifact name (for example `table4`).
        artifact: String,
        /// Why the full computation was unavailable.
        reason: String,
    },
}

impl ProvenanceEvent {
    /// Snake-case event name used in the JSONL export.
    pub fn kind(&self) -> &'static str {
        match self {
            ProvenanceEvent::OcrRepair { .. } => "ocr_repair",
            ProvenanceEvent::FaultInjected { .. } => "fault_injected",
            ProvenanceEvent::FaultOutcome { .. } => "fault_outcome",
            ProvenanceEvent::Normalized { .. } => "normalized",
            ProvenanceEvent::Quarantined { .. } => "quarantined",
            ProvenanceEvent::DictVote { .. } => "dict_vote",
            ProvenanceEvent::Tagged { .. } => "tagged",
            ProvenanceEvent::Degraded { .. } => "degraded",
        }
    }

    /// The Fig. 1 pipeline stage that emitted this event.
    pub fn stage(&self) -> &str {
        match self {
            ProvenanceEvent::OcrRepair { .. } => "stage_i_ocr",
            ProvenanceEvent::FaultInjected { .. } | ProvenanceEvent::FaultOutcome { .. } => {
                "chaos"
            }
            ProvenanceEvent::Normalized { .. } => "stage_ii_parse",
            ProvenanceEvent::Quarantined { stage, .. } => stage,
            ProvenanceEvent::DictVote { .. } | ProvenanceEvent::Tagged { .. } => "stage_iii_tag",
            ProvenanceEvent::Degraded { .. } => "stage_iv",
        }
    }

    /// One-line human rendering for `disengage explain`.
    pub fn describe(&self) -> String {
        match self {
            ProvenanceEvent::OcrRepair {
                line,
                before,
                after,
                attempt,
            } => format!("repaired \"{before}\" -> \"{after}\" (line {line}, attempt {attempt})"),
            ProvenanceEvent::FaultInjected { kind, line } => {
                format!("injected {kind} (line {line})")
            }
            ProvenanceEvent::FaultOutcome {
                kind,
                line,
                outcome,
            } => format!("{kind} (line {line}) -> {outcome}"),
            ProvenanceEvent::Normalized { doc, line, summary } => {
                format!("normalized from doc {doc} line {line}: {summary}")
            }
            ProvenanceEvent::Quarantined { stage, reason } => {
                format!("quarantined by {stage}: {reason}")
            }
            ProvenanceEvent::DictVote {
                tag,
                category,
                score,
                keywords,
            } => format!("vote {tag} ({category}) score {score}: {}", keywords.join(", ")),
            ProvenanceEvent::Tagged {
                tag,
                category,
                score,
                margin,
                ambiguous,
            } => {
                let note = if *ambiguous { " [ambiguous]" } else { "" };
                format!("tagged {tag} ({category}) score {score} margin {margin}{note}")
            }
            ProvenanceEvent::Degraded { artifact, reason } => {
                format!("degraded {artifact}: {reason}")
            }
        }
    }

    fn push_fields(&self, obj: &mut Vec<(String, Value)>) {
        let s = |v: &str| Value::Str(v.to_owned());
        let n = |v: usize| Value::Num(v as f64);
        match self {
            ProvenanceEvent::OcrRepair {
                line,
                before,
                after,
                attempt,
            } => {
                obj.push(("line".into(), n(*line)));
                obj.push(("before".into(), s(before)));
                obj.push(("after".into(), s(after)));
                obj.push(("attempt".into(), Value::Num(f64::from(*attempt))));
            }
            ProvenanceEvent::FaultInjected { kind, line } => {
                obj.push(("kind".into(), s(kind)));
                obj.push(("line".into(), n(*line)));
            }
            ProvenanceEvent::FaultOutcome {
                kind,
                line,
                outcome,
            } => {
                obj.push(("kind".into(), s(kind)));
                obj.push(("line".into(), n(*line)));
                obj.push(("outcome".into(), s(outcome)));
            }
            ProvenanceEvent::Normalized { doc, line, summary } => {
                obj.push(("doc".into(), n(*doc)));
                obj.push(("line".into(), n(*line)));
                obj.push(("summary".into(), s(summary)));
            }
            ProvenanceEvent::Quarantined { reason, .. } => {
                obj.push(("reason".into(), s(reason)));
            }
            ProvenanceEvent::DictVote {
                tag,
                category,
                score,
                keywords,
            } => {
                obj.push(("tag".into(), s(tag)));
                obj.push(("category".into(), s(category)));
                obj.push(("score".into(), Value::num(*score)));
                obj.push((
                    "keywords".into(),
                    Value::Arr(keywords.iter().map(|k| s(k)).collect()),
                ));
            }
            ProvenanceEvent::Tagged {
                tag,
                category,
                score,
                margin,
                ambiguous,
            } => {
                obj.push(("tag".into(), s(tag)));
                obj.push(("category".into(), s(category)));
                obj.push(("score".into(), Value::num(*score)));
                obj.push(("margin".into(), Value::num(*margin)));
                obj.push(("ambiguous".into(), Value::Bool(*ambiguous)));
            }
            ProvenanceEvent::Degraded { artifact, reason } => {
                obj.push(("artifact".into(), s(artifact)));
                obj.push(("reason".into(), s(reason)));
            }
        }
    }
}

/// One log entry: an event about a subject.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceEntry {
    /// What the event is about.
    pub subject: Subject,
    /// What happened.
    pub event: ProvenanceEvent,
}

impl ProvenanceEntry {
    /// Order-stable JSON object: `subject`, `stage`, `event`, then the
    /// event's own fields. Deliberately wall-clock-free.
    pub fn to_value(&self) -> Value {
        let mut obj = vec![
            ("subject".to_owned(), Value::Str(self.subject.to_string())),
            ("stage".to_owned(), Value::Str(self.event.stage().to_owned())),
            ("event".to_owned(), Value::Str(self.event.kind().to_owned())),
        ];
        self.event.push_fields(&mut obj);
        Value::Obj(obj)
    }
}

/// A read-only snapshot of a run's lineage, in causal order — what
/// [`Collector::provenance`](crate::Collector::provenance) returns.
#[derive(Debug, PartialEq)]
pub struct ProvenanceLog {
    pub(crate) entries: Vec<ProvenanceEntry>,
}

impl ProvenanceLog {
    /// Every entry in causal order.
    pub fn entries(&self) -> &[ProvenanceEntry] {
        &self.entries
    }

    /// Serializes the log as JSON Lines: one stable-field-order object
    /// per entry, no timestamps — byte-identical at any worker count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.to_value().render());
            out.push('\n');
        }
        out
    }

    /// Every distinct record id, in first-appearance order.
    pub fn record_ids(&self) -> Vec<RecordId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for entry in &self.entries {
            if let Subject::Record(id) = &entry.subject {
                if seen.insert(id.clone()) {
                    out.push(id.clone());
                }
            }
        }
        out
    }

    /// Exemplar subjects for the CLI's no-target `explain` listing:
    /// `(label, subject)` pairs covering a corrected record, a
    /// quarantined line, and a cleanly tagged record when present.
    pub fn exemplars(&self) -> Vec<(&'static str, String)> {
        let entries = &self.entries;
        // Map each (doc, line) to whether the line saw a repair/fault.
        let mut touched = std::collections::BTreeSet::new();
        for e in entries.iter() {
            if let Subject::Line { doc, line } = e.subject {
                if matches!(
                    e.event,
                    ProvenanceEvent::OcrRepair { .. }
                        | ProvenanceEvent::FaultInjected { .. }
                        | ProvenanceEvent::FaultOutcome { .. }
                ) {
                    touched.insert((doc, line));
                }
            }
        }
        let mut corrected = None;
        let mut clean = None;
        let mut quarantined = None;
        for e in entries.iter() {
            match (&e.subject, &e.event) {
                (Subject::Record(id), ProvenanceEvent::Normalized { doc, line, .. }) => {
                    let slot = if touched.contains(&(*doc, *line)) {
                        &mut corrected
                    } else {
                        &mut clean
                    };
                    if slot.is_none() {
                        *slot = Some(id.to_string());
                    }
                }
                (subject @ Subject::Line { .. }, ProvenanceEvent::Quarantined { .. }) => {
                    if quarantined.is_none() {
                        quarantined = Some(subject.to_string());
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        if let Some(s) = corrected {
            out.push(("corrected", s));
        }
        if let Some(s) = quarantined {
            out.push(("quarantined", s));
        }
        if let Some(s) = clean {
            out.push(("clean", s));
        }
        out
    }

    /// Renders the causal chain for a subject as a stage-grouped tree,
    /// or `None` when the subject has no lineage.
    ///
    /// For a record, the chain also pulls in the events of its source
    /// line and document (OCR repairs, injected faults) discovered via
    /// the record's `normalized` event; for a line, the owning
    /// document's events are included.
    pub fn explain(&self, target: &str) -> Option<String> {
        let target = target.trim();
        let entries = &self.entries;
        let mut keys: Vec<String> = vec![target.to_owned()];
        // Expand record -> source line/document, line -> document.
        for e in entries.iter() {
            if e.subject.to_string() == target {
                if let ProvenanceEvent::Normalized { doc, line, .. } = e.event {
                    keys.push(Subject::Line { doc, line }.to_string());
                    keys.push(Subject::Document(doc).to_string());
                }
            }
        }
        if let Some(Subject::Line { doc, .. }) = Subject::parse(target) {
            keys.push(Subject::Document(doc).to_string());
        }
        let selected: Vec<&ProvenanceEntry> = entries
            .iter()
            .filter(|e| keys.contains(&e.subject.to_string()))
            .collect();
        if selected.is_empty() || !selected.iter().any(|e| e.subject.to_string() == target) {
            return None;
        }
        // Group by stage in pipeline order; entry order within a stage
        // is preserved.
        const STAGE_ORDER: [&str; 5] = [
            "stage_i_ocr",
            "chaos",
            "stage_ii_parse",
            "stage_iii_tag",
            "stage_iv",
        ];
        let mut groups: Vec<(&str, Vec<&ProvenanceEntry>)> = Vec::new();
        for stage in STAGE_ORDER {
            let in_stage: Vec<&ProvenanceEntry> = selected
                .iter()
                .filter(|e| e.event.stage() == stage)
                .copied()
                .collect();
            if !in_stage.is_empty() {
                groups.push((stage, in_stage));
            }
        }
        // Any stage outside the canonical five (future extensions).
        let extra: Vec<&ProvenanceEntry> = selected
            .iter()
            .filter(|e| !STAGE_ORDER.contains(&e.event.stage()))
            .copied()
            .collect();
        if !extra.is_empty() {
            groups.push(("other", extra));
        }
        let mut out = String::new();
        out.push_str(target);
        out.push('\n');
        for (gi, (stage, events)) in groups.iter().enumerate() {
            let last_group = gi + 1 == groups.len();
            let (elbow, bar) = if last_group {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            out.push_str(elbow);
            out.push_str(stage);
            out.push('\n');
            for (ei, entry) in events.iter().enumerate() {
                let leaf = if ei + 1 == events.len() {
                    "└─ "
                } else {
                    "├─ "
                };
                out.push_str(bar);
                out.push_str(leaf);
                out.push_str(&entry.event.describe());
                out.push('\n');
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> RecordId {
        RecordId::new("Mercedes-Benz", 2016, "car-3", 7)
    }

    #[test]
    fn record_id_round_trips() {
        let id = id();
        assert_eq!(id.to_string(), "mercedes_benz/2016/car-3/7");
        assert_eq!(RecordId::parse(&id.to_string()), Some(id));
        assert_eq!(
            RecordId::new("Nissan", 2015, "[redacted]", 0).to_string(),
            "nissan/2015/redacted/0"
        );
        assert_eq!(RecordId::parse("no-slashes"), None);
    }

    #[test]
    fn subject_round_trips() {
        for subject in [
            Subject::Run,
            Subject::Document(4),
            Subject::Line { doc: 4, line: 17 },
            Subject::Record(id()),
        ] {
            assert_eq!(Subject::parse(&subject.to_string()), Some(subject));
        }
        assert_eq!(Subject::parse("doc:x"), None);
    }

    fn quarantine(reason: &str) -> ProvenanceEvent {
        ProvenanceEvent::Quarantined {
            stage: "stage_ii_parse".into(),
            reason: reason.into(),
        }
    }

    /// A log recorded the way stages record it: through a lineage
    /// collector.
    fn log(entries: Vec<(Subject, ProvenanceEvent)>) -> ProvenanceLog {
        let obs = crate::Collector::new().with_lineage(true);
        for (subject, event) in entries {
            obs.lineage(subject, event);
        }
        obs.provenance()
    }

    #[test]
    fn jsonl_is_stable_order_and_parseable() {
        let log = log(vec![
            (
                Subject::Record(id()),
                ProvenanceEvent::Tagged {
                    tag: "planner".into(),
                    category: "ml_design".into(),
                    score: 4.0,
                    margin: 3.0,
                    ambiguous: false,
                },
            ),
            (
                Subject::Line { doc: 2, line: 9 },
                ProvenanceEvent::OcrRepair {
                    line: 9,
                    before: "disengag3".into(),
                    after: "disengage".into(),
                    attempt: 1,
                },
            ),
        ]);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value = Value::parse(line).expect("valid JSON");
            let Value::Obj(fields) = value else {
                panic!("entry must be an object")
            };
            assert_eq!(fields[0].0, "subject");
            assert_eq!(fields[1].0, "stage");
            assert_eq!(fields[2].0, "event");
        }
        assert!(lines[0].contains("\"event\":\"tagged\""));
        assert!(lines[1].contains("\"before\":\"disengag3\""));
        assert!(!jsonl.contains("\"ts\""), "lineage must be wall-clock-free");
    }

    #[test]
    fn explain_groups_stages_and_joins_record_to_line() {
        let rid = id();
        let log = log(vec![
            (
                Subject::Line { doc: 4, line: 17 },
                ProvenanceEvent::OcrRepair {
                    line: 17,
                    before: "str3et".into(),
                    after: "street".into(),
                    attempt: 1,
                },
            ),
            (
                Subject::Line { doc: 4, line: 17 },
                ProvenanceEvent::FaultInjected {
                    kind: "char_noise".into(),
                    line: 17,
                },
            ),
            (
                Subject::Record(rid.clone()),
                ProvenanceEvent::Normalized {
                    doc: 4,
                    line: 17,
                    summary: "car-3 2016-03-14 auto".into(),
                },
            ),
            (
                Subject::Record(rid.clone()),
                ProvenanceEvent::Tagged {
                    tag: "planner".into(),
                    category: "ml_design".into(),
                    score: 4.0,
                    margin: 3.0,
                    ambiguous: false,
                },
            ),
        ]);
        let tree = log.explain(&rid.to_string()).expect("record has lineage");
        // Stage groups appear in pipeline order and include the source
        // line's events discovered through the normalized event.
        let i_ocr = tree.find("stage_i_ocr").unwrap();
        let i_chaos = tree.find("chaos").unwrap();
        let i_parse = tree.find("stage_ii_parse").unwrap();
        let i_tag = tree.find("stage_iii_tag").unwrap();
        assert!(i_ocr < i_chaos && i_chaos < i_parse && i_parse < i_tag);
        assert!(tree.contains("repaired \"str3et\" -> \"street\""));
        assert!(tree.contains("tagged planner (ml_design)"));
        assert!(log.explain("nobody/2000/car-0/0").is_none());
    }

    #[test]
    fn exemplars_cover_corrected_quarantined_clean() {
        let fixed = RecordId::new("Nissan", 2015, "car-0", 0);
        let clean = RecordId::new("Waymo", 2015, "car-1", 0);
        let log = log(vec![
            (
                Subject::Line { doc: 0, line: 3 },
                ProvenanceEvent::OcrRepair {
                    line: 3,
                    before: "a".into(),
                    after: "b".into(),
                    attempt: 1,
                },
            ),
            (
                Subject::Record(fixed.clone()),
                ProvenanceEvent::Normalized {
                    doc: 0,
                    line: 3,
                    summary: "x".into(),
                },
            ),
            (Subject::Line { doc: 0, line: 9 }, quarantine("bad row")),
            (
                Subject::Record(clean.clone()),
                ProvenanceEvent::Normalized {
                    doc: 0,
                    line: 4,
                    summary: "y".into(),
                },
            ),
        ]);
        let exemplars = log.exemplars();
        assert_eq!(
            exemplars,
            vec![
                ("corrected", fixed.to_string()),
                ("quarantined", "doc:0/line:9".to_owned()),
                ("clean", clean.to_string()),
            ]
        );
    }
}
