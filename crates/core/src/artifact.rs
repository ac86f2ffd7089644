//! Stage-artifact serialization for the content-addressed cache.
//!
//! Every cached stage persists one *envelope*: the stage's telemetry
//! shard ([`CollectorState`] — counters, gauges, raw histograms, and
//! the stage's own spans), its lineage entries, and the stage's typed
//! output. Replaying the envelope through `Collector::absorb_state` +
//! `Collector::absorb_lineage` is indistinguishable from re-running
//! the stage, which is what makes a warm run byte-identical to a cold
//! one.
//!
//! The encoding rides on `disengage-cache`'s [`Enc`]/[`Dec`] codec:
//! enums serialize as indices into their stable `ALL` arrays, floats
//! by exact bit pattern, and the handful of `&'static str` fields
//! (parse-failure attribution, quarantine stages) through intern
//! tables — a decoded string outside the table makes the whole
//! artifact decode to `None`, forcing a recompute rather than ever
//! fabricating a static string.

use crate::error::Quarantined;
use crate::pipeline::OcrStats;
use disengage_cache::{Dec, Enc};
use disengage_chaos::{AuditedFault, ChaosAudit, FaultFate, FaultKind, InjectedFault, KindOutcomes};
use disengage_corpus::Corpus;
use disengage_nlp::{FailureCategory, FaultTag, TagAssignment};
use disengage_obs::{
    CollectorState, FieldValue, HistogramState, LogEvent, LogLevel, ProvenanceEntry,
    ProvenanceEvent, RecordId, SpanState, Subject,
};

/// Stable index order for [`LogLevel`] (the codec's `ALL` array).
const LOG_LEVELS: [LogLevel; 3] = [LogLevel::Warn, LogLevel::Info, LogLevel::Debug];
use disengage_reports::formats::{DocumentKind, RawDocument};
use disengage_reports::record::{CarId, CollisionKind, Severity};
use disengage_reports::{
    AccidentRecord, Date, DisengagementRecord, FailureDatabase, Manufacturer, Modality,
    MonthlyMileage, ReportError, ReportYear, RoadType, Weather,
};
use std::collections::BTreeMap;

/// Artifact format version: the code-version salt in every stage
/// fingerprint and the frame version of every stored artifact. Bump it
/// whenever any encoding below, any stage's semantics, or the
/// histogram bucketing changes — old cache entries then read as
/// corrupt and recompute instead of resurrecting stale data.
pub const FORMAT_VERSION: u32 = 3;

// ---------------------------------------------------------------------------
// Enum helpers: stable-index encoding against the `ALL` arrays.

fn enc_idx<T: Copy + PartialEq>(e: &mut Enc, all: &[T], v: T) {
    let i = all.iter().position(|x| *x == v).expect("enum in ALL");
    e.u8(i as u8);
}

fn dec_idx<T: Copy>(d: &mut Dec, all: &[T]) -> Option<T> {
    all.get(d.u8()? as usize).copied()
}

// ---------------------------------------------------------------------------
// Intern tables for `&'static str` fields.

/// `ReportError::MalformedLine.manufacturer`: a manufacturer's display
/// name or one of the two structural attributions.
fn intern_malformed_source(s: &str) -> Option<&'static str> {
    Manufacturer::ALL
        .iter()
        .map(|m| m.name())
        .chain(["accident form", "mileage table"])
        .find(|k| *k == s)
}

/// `ReportError::InvalidField.field`: the field names the normalizers
/// validate.
fn intern_field(s: &str) -> Option<&'static str> {
    [
        "car",
        "collision kind",
        "description",
        "miles",
        "modality",
        "reaction_time_s",
        "road_type",
        "severity",
        "weather",
    ]
    .into_iter()
    .find(|k| *k == s)
}

/// `Quarantined.stage`: the stage span names.
fn intern_stage(s: &str) -> Option<&'static str> {
    [
        "stage_i_corpus",
        "stage_i_ocr",
        "chaos_inject",
        "stage_ii_parse",
        "stage_iii_tag",
    ]
    .into_iter()
    .find(|k| *k == s)
}

// ---------------------------------------------------------------------------
// Report-schema codecs.

fn enc_car(e: &mut Enc, car: &CarId) {
    match car {
        CarId::Known(i) => {
            e.u8(0);
            e.u32(*i);
        }
        CarId::Redacted => e.u8(1),
    }
}

fn dec_car(d: &mut Dec) -> Option<CarId> {
    match d.u8()? {
        0 => Some(CarId::Known(d.u32()?)),
        1 => Some(CarId::Redacted),
        _ => None,
    }
}

fn enc_date(e: &mut Enc, date: &Date) {
    e.u16(date.year());
    e.u8(date.month());
    e.u8(date.day());
}

fn dec_date(d: &mut Dec) -> Option<Date> {
    let (y, m, day) = (d.u16()?, d.u8()?, d.u8()?);
    Date::new(y, m, day).ok()
}

fn enc_disengagement(e: &mut Enc, r: &DisengagementRecord) {
    enc_idx(e, &Manufacturer::ALL, r.manufacturer);
    enc_car(e, &r.car);
    enc_date(e, &r.date);
    enc_idx(e, &Modality::ALL, r.modality);
    e.opt(&r.road_type, |e, v| enc_idx(e, &RoadType::ALL, *v));
    e.opt(&r.weather, |e, v| enc_idx(e, &Weather::ALL, *v));
    e.opt(&r.reaction_time_s, |e, v| e.f64(*v));
    e.str(&r.description);
}

fn dec_disengagement(d: &mut Dec) -> Option<DisengagementRecord> {
    Some(DisengagementRecord {
        manufacturer: dec_idx(d, &Manufacturer::ALL)?,
        car: dec_car(d)?,
        date: dec_date(d)?,
        modality: dec_idx(d, &Modality::ALL)?,
        road_type: d.opt(|d| dec_idx(d, &RoadType::ALL))?,
        weather: d.opt(|d| dec_idx(d, &Weather::ALL))?,
        reaction_time_s: d.opt(|d| d.f64())?,
        description: d.str()?,
    })
}

const SEVERITIES: [Severity; 3] = [Severity::Minor, Severity::Moderate, Severity::Major];
const COLLISIONS: [CollisionKind; 4] = [
    CollisionKind::RearEnd,
    CollisionKind::SideSwipe,
    CollisionKind::Frontal,
    CollisionKind::Object,
];

fn enc_accident(e: &mut Enc, r: &AccidentRecord) {
    enc_idx(e, &Manufacturer::ALL, r.manufacturer);
    enc_car(e, &r.car);
    enc_date(e, &r.date);
    e.str(&r.location);
    e.opt(&r.av_speed_mph, |e, v| e.f64(*v));
    e.opt(&r.other_speed_mph, |e, v| e.f64(*v));
    e.bool(r.autonomous_at_impact);
    enc_idx(e, &COLLISIONS, r.kind);
    enc_idx(e, &SEVERITIES, r.severity);
    e.str(&r.description);
}

fn dec_accident(d: &mut Dec) -> Option<AccidentRecord> {
    Some(AccidentRecord {
        manufacturer: dec_idx(d, &Manufacturer::ALL)?,
        car: dec_car(d)?,
        date: dec_date(d)?,
        location: d.str()?,
        av_speed_mph: d.opt(|d| d.f64())?,
        other_speed_mph: d.opt(|d| d.f64())?,
        autonomous_at_impact: d.bool()?,
        kind: dec_idx(d, &COLLISIONS)?,
        severity: dec_idx(d, &SEVERITIES)?,
        description: d.str()?,
    })
}

fn enc_mileage(e: &mut Enc, r: &MonthlyMileage) {
    enc_idx(e, &Manufacturer::ALL, r.manufacturer);
    enc_car(e, &r.car);
    enc_date(e, &r.month);
    e.f64(r.miles);
}

fn dec_mileage(d: &mut Dec) -> Option<MonthlyMileage> {
    Some(MonthlyMileage {
        manufacturer: dec_idx(d, &Manufacturer::ALL)?,
        car: dec_car(d)?,
        month: dec_date(d)?,
        miles: d.f64()?,
    })
}

fn enc_document(e: &mut Enc, doc: &RawDocument) {
    enc_idx(e, &Manufacturer::ALL, doc.manufacturer);
    enc_idx(e, &ReportYear::ALL, doc.report_year);
    e.u8(match doc.kind {
        DocumentKind::Disengagements => 0,
        DocumentKind::Accident => 1,
    });
    e.str(&doc.text);
}

fn dec_document(d: &mut Dec) -> Option<RawDocument> {
    let manufacturer = dec_idx(d, &Manufacturer::ALL)?;
    let report_year = dec_idx(d, &ReportYear::ALL)?;
    let kind = match d.u8()? {
        0 => DocumentKind::Disengagements,
        1 => DocumentKind::Accident,
        _ => return None,
    };
    Some(RawDocument::new(manufacturer, report_year, kind, d.str()?))
}

fn enc_report_error(e: &mut Enc, err: &ReportError) {
    match err {
        ReportError::InvalidDate(s) => {
            e.u8(0);
            e.str(s);
        }
        ReportError::MalformedLine {
            manufacturer,
            line,
            message,
        } => {
            e.u8(1);
            e.str(manufacturer);
            e.usize(*line);
            e.str(message);
        }
        ReportError::UnknownManufacturer(s) => {
            e.u8(2);
            e.str(s);
        }
        ReportError::InvalidField { field, value } => {
            e.u8(3);
            e.str(field);
            e.str(value);
        }
        ReportError::MissingData(s) => {
            e.u8(4);
            e.str(s);
        }
        // `ReportError` is #[non_exhaustive]; a variant this build does
        // not know cannot round-trip, so emit an unknown tag that the
        // decoder rejects — the stage recomputes instead of caching a
        // lossy approximation.
        _ => e.u8(255),
    }
}

fn dec_report_error(d: &mut Dec) -> Option<ReportError> {
    Some(match d.u8()? {
        0 => ReportError::InvalidDate(d.str()?),
        1 => {
            let manufacturer = intern_malformed_source(&d.str()?)?;
            let line = d.usize()?;
            ReportError::MalformedLine {
                manufacturer,
                line,
                message: d.str()?,
            }
        }
        2 => ReportError::UnknownManufacturer(d.str()?),
        3 => {
            let field = intern_field(&d.str()?)?;
            ReportError::InvalidField {
                field,
                value: d.str()?,
            }
        }
        4 => ReportError::MissingData(d.str()?),
        _ => return None,
    })
}

fn enc_quarantined(e: &mut Enc, q: &Quarantined) {
    e.str(q.stage);
    e.str(&q.record_id);
    e.str(&q.reason);
}

fn dec_quarantined(d: &mut Dec) -> Option<Quarantined> {
    Some(Quarantined {
        stage: intern_stage(&d.str()?)?,
        record_id: d.str()?,
        reason: d.str()?,
    })
}

fn enc_record_id(e: &mut Enc, id: &RecordId) {
    e.str(&id.manufacturer);
    e.u16(id.year);
    e.str(&id.car);
    e.u32(id.seq);
}

fn dec_record_id(d: &mut Dec) -> Option<RecordId> {
    Some(RecordId {
        manufacturer: d.str()?,
        year: d.u16()?,
        car: d.str()?,
        seq: d.u32()?,
    })
}

// ---------------------------------------------------------------------------
// Chaos codecs.

fn enc_kind_outcomes(e: &mut Enc, k: &KindOutcomes) {
    e.u64(k.injected);
    e.u64(k.corrected);
    e.u64(k.quarantined);
    e.u64(k.absorbed);
}

fn dec_kind_outcomes(d: &mut Dec) -> Option<KindOutcomes> {
    Some(KindOutcomes {
        injected: d.u64()?,
        corrected: d.u64()?,
        quarantined: d.u64()?,
        absorbed: d.u64()?,
    })
}

const FATES: [FaultFate; 3] = [FaultFate::Corrected, FaultFate::Quarantined, FaultFate::Absorbed];

fn enc_chaos_audit(e: &mut Enc, a: &ChaosAudit) {
    e.f64(a.rate);
    e.u64(a.seed);
    enc_kind_outcomes(e, &a.totals);
    let per_kind: Vec<(&&str, &KindOutcomes)> = a.per_kind.iter().collect();
    e.seq(&per_kind, |e, (kind, outcomes)| {
        let kind = FaultKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == **kind)
            .expect("audited kind is a known kind");
        enc_idx(e, &FaultKind::ALL, kind);
        enc_kind_outcomes(e, outcomes);
    });
    e.seq(&a.faults, |e, af| {
        enc_idx(e, &FaultKind::ALL, af.fault.kind);
        e.usize(af.fault.doc);
        e.usize(af.fault.line);
        enc_idx(e, &FATES, af.outcome);
    });
}

fn dec_chaos_audit(d: &mut Dec) -> Option<ChaosAudit> {
    let rate = d.f64()?;
    let seed = d.u64()?;
    let totals = dec_kind_outcomes(d)?;
    let per_kind_list = d.seq(|d| {
        let kind = dec_idx(d, &FaultKind::ALL)?;
        Some((kind.name(), dec_kind_outcomes(d)?))
    })?;
    let mut per_kind = BTreeMap::new();
    for (name, outcomes) in per_kind_list {
        per_kind.insert(name, outcomes);
    }
    let faults = d.seq(|d| {
        Some(AuditedFault {
            fault: InjectedFault {
                kind: dec_idx(d, &FaultKind::ALL)?,
                doc: d.usize()?,
                line: d.usize()?,
            },
            outcome: dec_idx(d, &FATES)?,
        })
    })?;
    Some(ChaosAudit {
        rate,
        seed,
        totals,
        per_kind,
        faults,
    })
}

// ---------------------------------------------------------------------------
// NLP codecs.

fn enc_assignment(e: &mut Enc, a: &TagAssignment) {
    enc_idx(e, &FaultTag::ALL, a.tag);
    enc_idx(e, &FailureCategory::ALL, a.category);
    e.f64(a.score);
    e.f64(a.margin);
    e.seq(&a.matched_keywords, |e, k| e.str(k));
    e.bool(a.ambiguous);
}

fn dec_assignment(d: &mut Dec) -> Option<TagAssignment> {
    Some(TagAssignment {
        tag: dec_idx(d, &FaultTag::ALL)?,
        category: dec_idx(d, &FailureCategory::ALL)?,
        score: d.f64()?,
        margin: d.f64()?,
        matched_keywords: d.seq(|d| d.str())?,
        ambiguous: d.bool()?,
    })
}

// ---------------------------------------------------------------------------
// Telemetry + provenance codecs.

fn enc_field_value(e: &mut Enc, v: &FieldValue) {
    match v {
        FieldValue::U64(x) => {
            e.u8(0);
            e.u64(*x);
        }
        FieldValue::I64(x) => {
            e.u8(1);
            e.u64(*x as u64);
        }
        FieldValue::F64(x) => {
            e.u8(2);
            e.f64(*x);
        }
        FieldValue::Str(s) => {
            e.u8(3);
            e.str(s);
        }
        FieldValue::Bool(b) => {
            e.u8(4);
            e.bool(*b);
        }
    }
}

fn dec_field_value(d: &mut Dec) -> Option<FieldValue> {
    Some(match d.u8()? {
        0 => FieldValue::U64(d.u64()?),
        1 => FieldValue::I64(d.u64()? as i64),
        2 => FieldValue::F64(d.f64()?),
        3 => FieldValue::Str(d.str()?),
        4 => FieldValue::Bool(d.bool()?),
        _ => return None,
    })
}

fn enc_collector_state(e: &mut Enc, s: &CollectorState) {
    e.seq(&s.spans, |e, span| {
        e.str(&span.name);
        e.opt(&span.parent, |e, p| e.usize(*p));
        e.u64(span.start_ns);
        e.opt(&span.end_ns, |e, end| e.u64(*end));
        e.seq(&span.fields, |e, (k, v)| {
            e.str(k);
            enc_field_value(e, v);
        });
    });
    e.seq(&s.counters, |e, (k, v)| {
        e.str(k);
        e.u64(*v);
    });
    e.seq(&s.gauges, |e, (k, v)| {
        e.str(k);
        e.f64(*v);
    });
    e.seq(&s.histograms, |e, (k, h)| {
        e.str(k);
        e.seq(&h.counts, |e, c| e.u64(*c));
        e.u64(h.count);
        e.f64(h.sum);
        e.f64(h.min);
        e.f64(h.max);
    });
    e.seq(&s.logs, |e, log| {
        e.f64(log.t_s);
        enc_idx(e, &LOG_LEVELS, log.level);
        e.str(&log.message);
    });
}

fn dec_collector_state(d: &mut Dec) -> Option<CollectorState> {
    let spans = d.seq(|d| {
        Some(SpanState {
            name: d.str()?,
            parent: d.opt(|d| d.usize())?,
            start_ns: d.u64()?,
            end_ns: d.opt(|d| d.u64())?,
            fields: d.seq(|d| Some((d.str()?, dec_field_value(d)?)))?,
        })
    })?;
    // A child must point at an earlier arena slot, as the collector
    // guarantees — anything else would corrupt the span forest.
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            if p >= i {
                return None;
            }
        }
    }
    let counters = d.seq(|d| Some((d.str()?, d.u64()?)))?;
    let gauges = d.seq(|d| Some((d.str()?, d.f64()?)))?;
    let histograms = d.seq(|d| {
        let name = d.str()?;
        let counts = d.seq(|d| d.u64())?;
        if counts.len() != HistogramState::expected_buckets() {
            return None;
        }
        Some((
            name,
            HistogramState {
                counts,
                count: d.u64()?,
                sum: d.f64()?,
                min: d.f64()?,
                max: d.f64()?,
            },
        ))
    })?;
    let logs = d.seq(|d| {
        Some(LogEvent {
            t_s: d.f64()?,
            level: dec_idx(d, &LOG_LEVELS)?,
            message: d.str()?,
        })
    })?;
    Some(CollectorState {
        spans,
        counters,
        gauges,
        histograms,
        logs,
    })
}

fn enc_subject(e: &mut Enc, s: &Subject) {
    match s {
        Subject::Run => e.u8(0),
        Subject::Document(doc) => {
            e.u8(1);
            e.usize(*doc);
        }
        Subject::Line { doc, line } => {
            e.u8(2);
            e.usize(*doc);
            e.usize(*line);
        }
        Subject::Record(id) => {
            e.u8(3);
            enc_record_id(e, id);
        }
    }
}

fn dec_subject(d: &mut Dec) -> Option<Subject> {
    Some(match d.u8()? {
        0 => Subject::Run,
        1 => Subject::Document(d.usize()?),
        2 => Subject::Line {
            doc: d.usize()?,
            line: d.usize()?,
        },
        3 => Subject::Record(dec_record_id(d)?),
        _ => return None,
    })
}

fn enc_prov_event(e: &mut Enc, ev: &ProvenanceEvent) {
    match ev {
        ProvenanceEvent::OcrRepair {
            line,
            before,
            after,
            attempt,
        } => {
            e.u8(0);
            e.usize(*line);
            e.str(before);
            e.str(after);
            e.u32(*attempt);
        }
        ProvenanceEvent::FaultInjected { kind, line } => {
            e.u8(1);
            e.str(kind);
            e.usize(*line);
        }
        ProvenanceEvent::FaultOutcome {
            kind,
            line,
            outcome,
        } => {
            e.u8(2);
            e.str(kind);
            e.usize(*line);
            e.str(outcome);
        }
        ProvenanceEvent::Normalized { doc, line, summary } => {
            e.u8(3);
            e.usize(*doc);
            e.usize(*line);
            e.str(summary);
        }
        ProvenanceEvent::Quarantined { stage, reason } => {
            e.u8(4);
            e.str(stage);
            e.str(reason);
        }
        ProvenanceEvent::DictVote {
            tag,
            category,
            score,
            keywords,
        } => {
            e.u8(5);
            e.str(tag);
            e.str(category);
            e.f64(*score);
            e.seq(keywords, |e, k| e.str(k));
        }
        ProvenanceEvent::Tagged {
            tag,
            category,
            score,
            margin,
            ambiguous,
        } => {
            e.u8(6);
            e.str(tag);
            e.str(category);
            e.f64(*score);
            e.f64(*margin);
            e.bool(*ambiguous);
        }
        ProvenanceEvent::Degraded { artifact, reason } => {
            e.u8(7);
            e.str(artifact);
            e.str(reason);
        }
    }
}

fn dec_prov_event(d: &mut Dec) -> Option<ProvenanceEvent> {
    Some(match d.u8()? {
        0 => ProvenanceEvent::OcrRepair {
            line: d.usize()?,
            before: d.str()?,
            after: d.str()?,
            attempt: d.u32()?,
        },
        1 => ProvenanceEvent::FaultInjected {
            kind: d.str()?,
            line: d.usize()?,
        },
        2 => ProvenanceEvent::FaultOutcome {
            kind: d.str()?,
            line: d.usize()?,
            outcome: d.str()?,
        },
        3 => ProvenanceEvent::Normalized {
            doc: d.usize()?,
            line: d.usize()?,
            summary: d.str()?,
        },
        4 => ProvenanceEvent::Quarantined {
            stage: d.str()?,
            reason: d.str()?,
        },
        5 => ProvenanceEvent::DictVote {
            tag: d.str()?,
            category: d.str()?,
            score: d.f64()?,
            keywords: d.seq(|d| d.str())?,
        },
        6 => ProvenanceEvent::Tagged {
            tag: d.str()?,
            category: d.str()?,
            score: d.f64()?,
            margin: d.f64()?,
            ambiguous: d.bool()?,
        },
        7 => ProvenanceEvent::Degraded {
            artifact: d.str()?,
            reason: d.str()?,
        },
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Stage payloads.

/// Encodes a [`Corpus`] (Stage `corpus` payload).
pub fn enc_corpus(e: &mut Enc, c: &Corpus) {
    e.seq(c.truth.disengagements(), enc_disengagement);
    e.seq(c.truth.accidents(), enc_accident);
    e.seq(c.truth.mileage(), enc_mileage);
    e.seq(&c.intended_tags, |e, t| enc_idx(e, &FaultTag::ALL, *t));
    e.seq(&c.documents, enc_document);
}

/// Decodes a [`Corpus`].
pub fn dec_corpus(d: &mut Dec) -> Option<Corpus> {
    let dis = d.seq(dec_disengagement)?;
    let acc = d.seq(dec_accident)?;
    let mileage = d.seq(dec_mileage)?;
    Some(Corpus {
        truth: FailureDatabase::from_records(dis, acc, mileage),
        intended_tags: d.seq(|d| dec_idx(d, &FaultTag::ALL))?,
        documents: d.seq(dec_document)?,
    })
}

/// Encodes the `digitize` payload: the recognized documents plus the
/// aggregate OCR statistics (`None` under passthrough, which is never
/// store-cached but shares the payload type).
pub fn enc_digitized(e: &mut Enc, v: &(Vec<RawDocument>, Option<OcrStats>)) {
    let (docs, stats) = v;
    e.seq(docs, enc_document);
    e.opt(stats, |e, s| {
        e.usize(s.documents);
        e.f64(s.mean_cer);
        e.f64(s.mean_confidence);
    });
}

/// Decodes the `digitize` payload.
pub fn dec_digitized(d: &mut Dec) -> Option<(Vec<RawDocument>, Option<OcrStats>)> {
    let docs = d.seq(dec_document)?;
    let stats = d.opt(|d| {
        Some(OcrStats {
            documents: d.usize()?,
            mean_cer: d.f64()?,
            mean_confidence: d.f64()?,
        })
    })?;
    Some((docs, stats))
}

/// The `normalize` stage's typed output: everything Stage II (plus the
/// optional chaos interlude) contributes to the run outcome. The
/// faulted/repaired documents themselves are deliberately absent —
/// nothing downstream reads them.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeArtifact {
    /// Normalized disengagement records, in document/line order.
    pub disengagements: Vec<DisengagementRecord>,
    /// Normalized accident records.
    pub accidents: Vec<AccidentRecord>,
    /// Normalized monthly mileage rows.
    pub mileage: Vec<MonthlyMileage>,
    /// Per-line parse failures (the manual-review queue).
    pub failures: Vec<ReportError>,
    /// Documents quarantined whole because their parser panicked.
    pub panicked: Vec<Quarantined>,
    /// Content-derived ids aligned with `disengagements`.
    pub record_ids: Vec<RecordId>,
    /// The chaos audit, when the run had an active fault plan.
    pub chaos: Option<ChaosAudit>,
}

/// Encodes the `normalize` payload.
pub fn enc_normalized(e: &mut Enc, n: &NormalizeArtifact) {
    e.seq(&n.disengagements, enc_disengagement);
    e.seq(&n.accidents, enc_accident);
    e.seq(&n.mileage, enc_mileage);
    e.seq(&n.failures, enc_report_error);
    e.seq(&n.panicked, enc_quarantined);
    e.seq(&n.record_ids, enc_record_id);
    e.opt(&n.chaos, |e, a| enc_chaos_audit(e, a));
}

/// Decodes the `normalize` payload.
pub fn dec_normalized(d: &mut Dec) -> Option<NormalizeArtifact> {
    Some(NormalizeArtifact {
        disengagements: d.seq(dec_disengagement)?,
        accidents: d.seq(dec_accident)?,
        mileage: d.seq(dec_mileage)?,
        failures: d.seq(dec_report_error)?,
        panicked: d.seq(dec_quarantined)?,
        record_ids: d.seq(dec_record_id)?,
        chaos: d.opt(dec_chaos_audit)?,
    })
}

/// Encodes the `tag` payload: Stage III verdicts aligned with the
/// normalize artifact's disengagements (the records themselves are
/// upstream and are re-joined on load).
pub fn enc_assignments(e: &mut Enc, v: &Vec<TagAssignment>) {
    e.seq(v, enc_assignment);
}

/// Decodes the `tag` payload.
pub fn dec_assignments(d: &mut Dec) -> Option<Vec<TagAssignment>> {
    d.seq(dec_assignment)
}

// ---------------------------------------------------------------------------
// The stage envelope.

/// Serializes one stage envelope: the stage's telemetry shard, its
/// provenance entries, then the typed payload.
pub fn encode_stage<T>(
    state: &CollectorState,
    prov: &[ProvenanceEntry],
    value: &T,
    enc_value: impl FnOnce(&mut Enc, &T),
) -> Vec<u8> {
    let mut e = Enc::new();
    enc_collector_state(&mut e, state);
    e.seq(prov, |e, entry| {
        enc_subject(e, &entry.subject);
        enc_prov_event(e, &entry.event);
    });
    enc_value(&mut e, value);
    e.into_bytes()
}

/// Deserializes a stage envelope. `None` on any structural mismatch,
/// including trailing bytes.
pub fn decode_stage<T>(
    bytes: &[u8],
    dec_value: impl FnOnce(&mut Dec) -> Option<T>,
) -> Option<(CollectorState, Vec<ProvenanceEntry>, T)> {
    let mut d = Dec::new(bytes);
    let state = dec_collector_state(&mut d)?;
    let prov = d.seq(|d| {
        Some(ProvenanceEntry {
            subject: dec_subject(d)?,
            event: dec_prov_event(d)?,
        })
    })?;
    let value = dec_value(&mut d)?;
    if !d.at_end() {
        return None;
    }
    Some((state, prov, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_corpus::{CorpusConfig, CorpusGenerator};

    fn round_trip<T>(
        value: &T,
        enc: impl FnOnce(&mut Enc, &T),
        dec: impl FnOnce(&mut Dec) -> Option<T>,
    ) -> T {
        let mut e = Enc::new();
        enc(&mut e, value);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let out = dec(&mut d).expect("decodes");
        assert!(d.at_end(), "trailing bytes");
        out
    }

    #[test]
    fn corpus_round_trips_exactly() {
        let corpus = CorpusGenerator::new(CorpusConfig { seed: 11, scale: 0.02 }).generate();
        let back = round_trip(&corpus, enc_corpus, dec_corpus);
        assert_eq!(back.truth, corpus.truth);
        assert_eq!(back.intended_tags, corpus.intended_tags);
        assert_eq!(back.documents, corpus.documents);
    }

    #[test]
    fn report_errors_round_trip_and_unknown_strings_reject() {
        let errors = vec![
            ReportError::InvalidDate("32 Jan".to_owned()),
            ReportError::MalformedLine {
                manufacturer: "Bosch",
                line: 7,
                message: "bad row".to_owned(),
            },
            ReportError::MalformedLine {
                manufacturer: "mileage table",
                line: 2,
                message: "no month".to_owned(),
            },
            ReportError::UnknownManufacturer("Acme".to_owned()),
            ReportError::InvalidField {
                field: "miles",
                value: "-1".to_owned(),
            },
            ReportError::MissingData("mileage".to_owned()),
        ];
        let back = round_trip(&errors, |e, v| e.seq(v, enc_report_error), |d| {
            d.seq(dec_report_error)
        });
        assert_eq!(back, errors);

        // A manufacturer string outside the intern table must reject
        // the artifact, never fabricate a static string.
        let mut e = Enc::new();
        e.u8(1);
        e.str("Totally Unknown Corp");
        e.usize(3);
        e.str("msg");
        let bytes = e.into_bytes();
        assert_eq!(dec_report_error(&mut Dec::new(&bytes)), None);
    }

    #[test]
    fn chaos_audit_round_trips() {
        use disengage_chaos::FaultPlan;
        use disengage_corpus::CorpusConfig;
        let corpus = CorpusGenerator::new(CorpusConfig { seed: 5, scale: 0.02 }).generate();
        let plan = FaultPlan::new(0.2, 9);
        let (faulted, log) = disengage_chaos::inject_documents(&plan, &corpus.documents);
        let audited = disengage_chaos::audit(&plan, &log, &corpus.documents, &faulted);
        assert!(audited.totals.injected > 0);
        let back = round_trip(&audited, enc_chaos_audit, dec_chaos_audit);
        assert_eq!(back, audited);
    }

    #[test]
    fn envelope_round_trips_with_telemetry_and_provenance() {
        let obs = disengage_obs::Collector::new();
        {
            let mut span = obs.span("stage_iii_tag");
            span.field("tagged", 3u64);
            span.field("mode", "simulated");
            obs.add("nlp.tagged", 3);
            obs.gauge("nlp.unknown_t_rate", 0.25);
            obs.record("nlp.vote_margin", 1.5);
        }
        let prov = vec![
            ProvenanceEntry {
                subject: Subject::Line { doc: 1, line: 4 },
                event: ProvenanceEvent::FaultInjected {
                    kind: "char_noise".to_owned(),
                    line: 4,
                },
            },
            ProvenanceEntry {
                subject: Subject::Record(RecordId::new("Waymo", 2016, "car-1", 0)),
                event: ProvenanceEvent::Tagged {
                    tag: "planner".to_owned(),
                    category: "ml_design".to_owned(),
                    score: 2.0,
                    margin: 1.0,
                    ambiguous: false,
                },
            },
        ];
        let assignments: Vec<TagAssignment> = Vec::new();
        let bytes = encode_stage(&obs.state(), &prov, &assignments, enc_assignments);
        let (state, prov_back, value) =
            decode_stage(&bytes, dec_assignments).expect("envelope decodes");
        assert_eq!(state, obs.state());
        assert_eq!(prov_back, prov);
        assert_eq!(value, assignments);

        // Any truncation fails cleanly.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_stage(&bytes[..cut], dec_assignments).is_none());
        }
    }
}
