//! Telemetry snapshots: the immutable view a [`crate::Collector`]
//! exports.

use crate::hist::HistogramSummary;
use std::collections::BTreeMap;
use std::fmt;

/// A span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned count.
    U64(u64),
    /// A signed value.
    I64(i64),
    /// A float.
    F64(f64),
    /// Free text.
    Str(String),
    /// A flag.
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(x) => write!(f, "{x}"),
            FieldValue::I64(x) => write!(f, "{x}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Str(s) => write!(f, "{s}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

macro_rules! impl_from_field {
    ($($t:ty => $variant:ident via $conv:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(x: $t) -> FieldValue {
                FieldValue::$variant(x as $conv)
            }
        }
    )*};
}

impl_from_field!(u64 => U64 via u64, u32 => U64 via u64, usize => U64 via u64,
                 i64 => I64 via i64, i32 => I64 via i64,
                 f64 => F64 via f64, f32 => F64 via f64);

impl From<bool> for FieldValue {
    fn from(b: bool) -> FieldValue {
        FieldValue::Bool(b)
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> FieldValue {
        FieldValue::Str(s.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> FieldValue {
        FieldValue::Str(s)
    }
}

/// One closed (or still-open) span in the exported tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start offset from the collector's epoch, in seconds.
    pub start_s: f64,
    /// Wall-clock duration in seconds (time-to-snapshot for spans still
    /// open when the report was taken).
    pub duration_s: f64,
    /// Whether the span had closed by snapshot time.
    pub closed: bool,
    /// Key/value annotations, in insertion order.
    pub fields: Vec<(String, FieldValue)>,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

/// Log severity, most severe first. The `DISENGAGE_LOG` env filter
/// (see [`crate::Collector::log`]) gates only the stderr echo;
/// recording is unconditional so reports and flight dumps never
/// depend on the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Something degraded or was recovered from.
    Warn,
    /// Normal progress (the default echo level).
    Info,
    /// Chatty diagnostics, off by default.
    Debug,
}

/// A timestamped log event.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Offset from the collector's epoch, in seconds.
    pub t_s: f64,
    /// Severity.
    pub level: LogLevel,
    /// Message text.
    pub message: String,
}

/// The environment-fact namespaces: names that say where a run's
/// inputs came from (`cache.`), how long its work took (`profile.`) or
/// what recording it cost (`obs.overhead.`), never what it computed.
/// [`TelemetryReport::canonical`] drops every counter, gauge and
/// histogram named in them, and a canonical flight dump
/// ([`crate::flight::dump_value`]) every counter and named event.
pub const ENVIRONMENT_PREFIXES: &[&str] =
    &["cache.", crate::profile::PROFILE_PREFIX, "obs.overhead."];

/// An immutable telemetry snapshot: the span forest plus all
/// accumulated metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Root spans in start order.
    pub spans: Vec<SpanNode>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Log events in time order.
    pub logs: Vec<LogEvent>,
}

impl TelemetryReport {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's summary, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Sum of all counters whose name starts with `prefix` — the
    /// reconciliation primitive (`tagged == Σ nlp.tag.*`).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The canonical form for byte-for-byte comparison: every
    /// wall-clock field (span start/duration) zeroed, log events
    /// dropped, and every counter, gauge and histogram in the
    /// [`ENVIRONMENT_PREFIXES`] dropped, all other structure and
    /// metrics kept.
    ///
    /// Two runs of the same deterministic workload differ only in
    /// timing and in where their inputs came from — a cold run counts
    /// `cache.miss`, a warm run `cache.hit`, for identical results.
    /// Both are environment facts, not workload facts, so the
    /// canonical report excludes them; the `repro
    /// --telemetry=stable-json` / `scripts/verify.sh` contract is that
    /// warm, cold, and any `--jobs` all serialize identically. The
    /// self-profiler's `profile.*` metrics (phase timers, memory
    /// gauges, and the stage volumes read only as rates over the
    /// phases — see [`crate::profile`]) and the `obs.overhead.*` gauges
    /// (recording time itself) are wall-clock-derived by construction,
    /// so they go the same way.
    /// Log events go entirely: their timestamps are wall clock and
    /// their *presence* can be environment-dependent (a warm run logs
    /// different progress than a cold one), so the canonical report
    /// keeps none.
    #[must_use]
    pub fn canonical(mut self) -> TelemetryReport {
        fn strip(node: &mut SpanNode) {
            node.start_s = 0.0;
            node.duration_s = 0.0;
            for child in &mut node.children {
                strip(child);
            }
        }
        for span in &mut self.spans {
            strip(span);
        }
        self.logs.clear();
        let keep = |k: &String| !ENVIRONMENT_PREFIXES.iter().any(|p| k.starts_with(p));
        self.counters.retain(|k, _| keep(k));
        self.gauges.retain(|k, _| keep(k));
        self.histograms.retain(|k, _| keep(k));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_owned(),
            start_s: 0.0,
            duration_s: 0.1,
            closed: true,
            fields: Vec::new(),
            children: Vec::new(),
        }
    }

    #[test]
    fn counter_defaults_to_zero() {
        let r = TelemetryReport::default();
        assert_eq!(r.counter("nope"), 0);
        assert_eq!(r.gauge("nope"), None);
    }

    #[test]
    fn prefix_sum() {
        let mut r = TelemetryReport::default();
        r.counters.insert("nlp.tag.planner".to_owned(), 3);
        r.counters.insert("nlp.tag.software".to_owned(), 2);
        r.counters.insert("nlp.tagged".to_owned(), 5);
        assert_eq!(r.counter_prefix_sum("nlp.tag."), 5);
    }

    #[test]
    fn canonical_zeroes_wall_clock_only() {
        let mut root = leaf("pipeline");
        root.start_s = 0.5;
        root.children.push(leaf("stage_ii_parse"));
        let mut r = TelemetryReport {
            spans: vec![root],
            ..Default::default()
        };
        r.counters.insert("parse.dis.parsed".to_owned(), 9);
        r.counters.insert("cache.hit.corpus".to_owned(), 1);
        r.logs.push(LogEvent {
            t_s: 1.25,
            level: LogLevel::Info,
            message: "done".to_owned(),
        });
        let c = r.clone().canonical();
        // Cache traffic is an environment fact, not a workload fact.
        assert_eq!(c.counter("cache.hit.corpus"), 0);
        assert_eq!(c.spans[0].start_s, 0.0);
        assert_eq!(c.spans[0].duration_s, 0.0);
        assert_eq!(c.spans[0].children[0].duration_s, 0.0);
        // Log events are wall clock through and through: gone.
        assert!(c.logs.is_empty());
        // Structure and metrics survive.
        assert_eq!(c.spans[0].children[0].name, "stage_ii_parse");
        assert_eq!(c.counter("parse.dis.parsed"), 9);
        // Idempotent.
        assert_eq!(c.clone().canonical(), c);
    }

    #[test]
    fn canonical_drops_every_environment_namespace() {
        use crate::hist::Histogram;
        let mut h = Histogram::new();
        h.record(0.25);
        let mut r = TelemetryReport::default();
        for prefix in ENVIRONMENT_PREFIXES {
            r.counters.insert(format!("{prefix}probe"), 1);
            r.gauges.insert(format!("{prefix}probe"), 1e6);
            r.histograms.insert(format!("{prefix}probe"), h.summary());
        }
        r.counters.insert("ocr.documents".to_owned(), 4);
        r.gauges.insert("ocr.mean_cer".to_owned(), 0.01);
        r.histograms.insert("ocr.cer".to_owned(), h.summary());
        // The namespaces the profiler and the overhead ledger write.
        assert!(ENVIRONMENT_PREFIXES.contains(&"profile."));
        assert!(ENVIRONMENT_PREFIXES.contains(&"obs.overhead."));
        let c = r.canonical();
        for prefix in ENVIRONMENT_PREFIXES {
            assert!(c.counters.keys().all(|k| !k.starts_with(prefix)));
            assert!(c.gauges.keys().all(|k| !k.starts_with(prefix)));
            assert!(c.histograms.keys().all(|k| !k.starts_with(prefix)));
        }
        // Workload metrics survive untouched.
        assert_eq!(c.counter("ocr.documents"), 4);
        assert_eq!(c.gauge("ocr.mean_cer"), Some(0.01));
        assert!(c.histogram("ocr.cer").is_some());
    }

    #[test]
    fn field_value_display_and_from() {
        assert_eq!(FieldValue::from(3u64).to_string(), "3");
        assert_eq!(FieldValue::from(2.5f64).to_string(), "2.5");
        assert_eq!(FieldValue::from("x").to_string(), "x");
        assert_eq!(FieldValue::from(true).to_string(), "true");
        assert_eq!(FieldValue::from(7usize), FieldValue::U64(7));
    }
}
