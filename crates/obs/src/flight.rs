//! Flight recorder: an always-on, bounded ring of structured events
//! that survives failure.
//!
//! The paper's discipline is postmortem-first: when a fleet vehicle
//! disengages, the interesting data is the few seconds *before* the
//! event, which is why AV platforms keep a rolling recorder rather
//! than an unbounded log. The pipeline applies the same idea to
//! itself. Every [`crate::Collector`] carries a [`FlightRing`] that
//! captures span opens/closes, counter deltas on a small set of
//! watch prefixes, log lines, and explicit named events
//! ([`Collector::event`]); on a crash (`panic`, `Interrupted`, or a
//! reconcile failure) the session serializes the ring to
//! `flight.json` for `disengage doctor` to render.
//!
//! Determinism contract: events recorded on pool workers go through
//! the worker's shard collector and are folded back in task-index
//! order by [`crate::Collector::absorb`], exactly like counters, so
//! the merged event *sequence* is identical at any `--jobs`. The
//! only schedule-dependent stream — pool task completion stamps —
//! never enters the ring, so its arrival order can never change which
//! ring events survive eviction: the worker pool's task timeline
//! keeps the last 256 stamps itself, and a full dump appends them,
//! handed in as a [`FlightSnapshot`] of `task` events (this crate
//! cannot name the pool's types). A [canonical dump](dump_value)
//! zeroes timestamps, omits the task stamps, and drops counter and
//! named events in the environment-fact namespaces
//! ([`crate::report::ENVIRONMENT_PREFIXES`], the list
//! [`crate::TelemetryReport::canonical`] strips), and is
//! byte-identical at any worker count, clean or chaos.

use crate::collector::Collector;
use crate::json::Value;
use crate::provenance::ProvenanceLog;
use crate::report::{LogLevel, ENVIRONMENT_PREFIXES};
use std::collections::VecDeque;
use std::io;
use std::path::Path;

/// Envelope `schema` field of a flight dump.
pub const FLIGHT_SCHEMA: &str = "disengage-flight";
/// Envelope schema version; bump on breaking envelope changes.
pub const FLIGHT_VERSION: u64 = 1;
/// Default main-ring capacity (events kept before oldest-first drop).
pub const DEFAULT_CAPACITY: usize = 2048;
/// Counter surfaced in [`crate::TelemetryReport`] with the number of
/// events the ring evicted oldest-first.
pub const DROP_COUNTER: &str = "flight.dropped";
/// Default crash-dump path, relative to the working directory.
pub const DEFAULT_DUMP_PATH: &str = "flight.json";

/// Counter-name prefixes whose deltas are recorded as flight events.
///
/// The full counter set is far too chatty for a postmortem ring
/// (per-record `nlp.tag.*` deltas would evict everything else);
/// these prefixes cover the reliability lanes the paper cares
/// about — quarantine, injected chaos, cache traffic, parser
/// panics and failures, and the recorder's own drop ledger.
pub const WATCH_PREFIXES: &[&str] = &[
    "quarantine.",
    "chaos.",
    "cache.",
    "degrade.",
    "parse.docs.",
    "parse.dis.failed",
];

/// Returns true when counter deltas on `name` should be recorded as
/// flight events.
pub fn watched(name: &str) -> bool {
    WATCH_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// What one flight event records.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightKind {
    /// A span opened.
    SpanOpen {
        /// Span name.
        name: String,
    },
    /// A span closed.
    SpanClose {
        /// Span name.
        name: String,
    },
    /// A watched counter moved.
    Counter {
        /// Counter name.
        name: String,
        /// Delta added.
        delta: u64,
    },
    /// A log line.
    Log {
        /// Severity.
        level: LogLevel,
        /// Message text.
        message: String,
    },
    /// An explicit named event ([`Collector::event`]): quarantine,
    /// degrade, injected fault, cache reclaim, interrupt.
    Event {
        /// Event name (dot-namespaced like a counter).
        name: String,
        /// Free-text detail.
        detail: String,
    },
    /// A completed pool task (full dumps only, never the ring;
    /// completion order is schedule-dependent and excluded from
    /// canonical dumps).
    Task {
        /// Pool call label.
        label: String,
        /// Worker index that ran the task.
        worker: usize,
        /// Chunk index within the call.
        chunk: usize,
        /// Items in the chunk.
        items: usize,
    },
}

/// One recorded event: an offset from the collector's epoch plus the
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Seconds since the recording collector's epoch (0 for task
    /// stamps, which carry no time).
    pub t_s: f64,
    /// Payload.
    pub kind: FlightKind,
}

/// A bounded ring of [`FlightEvent`]s: pushes past capacity evict the
/// oldest event and bump the drop counter.
#[derive(Debug, Clone)]
pub struct FlightRing {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for FlightRing {
    fn default() -> Self {
        FlightRing::new(DEFAULT_CAPACITY)
    }
}

impl FlightRing {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRing {
        FlightRing {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: FlightEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Appends another ring's events in their recorded order (the
    /// shard-absorb fold); drop counts add.
    pub fn absorb(&mut self, other: FlightRing) {
        self.dropped += other.dropped;
        for event in other.events {
            self.push(event);
        }
    }

    /// Events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Events evicted oldest-first so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Events oldest-first plus how many were dropped before them: a
/// collector's ring at snapshot time, or the pool task stamps a full
/// dump appends.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightSnapshot {
    /// Events oldest-first.
    pub events: Vec<FlightEvent>,
    /// Events evicted before the snapshot.
    pub dropped: u64,
}

/// Suspect record ids for a postmortem: subjects of the most recent
/// quarantine/fault provenance events, most recent last, deduplicated.
pub fn suspects(log: &ProvenanceLog, limit: usize) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for entry in log.entries() {
        let kind = entry.event.kind();
        if !(kind.contains("quarantin") || kind.contains("fault")) {
            continue;
        }
        let subject = entry.subject.to_string();
        seen.retain(|s| s != &subject);
        seen.push(subject);
    }
    let start = seen.len().saturating_sub(limit);
    seen.split_off(start)
}

fn level_name(level: LogLevel) -> &'static str {
    match level {
        LogLevel::Warn => "warn",
        LogLevel::Info => "info",
        LogLevel::Debug => "debug",
    }
}

fn event_value(event: &FlightEvent) -> Value {
    let mut obj = vec![("t_s".to_owned(), Value::num(event.t_s))];
    match &event.kind {
        FlightKind::SpanOpen { name } => {
            obj.push(("kind".to_owned(), Value::Str("span_open".to_owned())));
            obj.push(("name".to_owned(), Value::Str(name.clone())));
        }
        FlightKind::SpanClose { name } => {
            obj.push(("kind".to_owned(), Value::Str("span_close".to_owned())));
            obj.push(("name".to_owned(), Value::Str(name.clone())));
        }
        FlightKind::Counter { name, delta } => {
            obj.push(("kind".to_owned(), Value::Str("counter".to_owned())));
            obj.push(("name".to_owned(), Value::Str(name.clone())));
            obj.push(("delta".to_owned(), Value::num(*delta as f64)));
        }
        FlightKind::Log { level, message } => {
            obj.push(("kind".to_owned(), Value::Str("log".to_owned())));
            obj.push((
                "level".to_owned(),
                Value::Str(level_name(*level).to_owned()),
            ));
            obj.push(("message".to_owned(), Value::Str(message.clone())));
        }
        FlightKind::Event { name, detail } => {
            obj.push(("kind".to_owned(), Value::Str("event".to_owned())));
            obj.push(("name".to_owned(), Value::Str(name.clone())));
            obj.push(("detail".to_owned(), Value::Str(detail.clone())));
        }
        FlightKind::Task {
            label,
            worker,
            chunk,
            items,
        } => {
            obj.push(("kind".to_owned(), Value::Str("task".to_owned())));
            obj.push(("label".to_owned(), Value::Str(label.clone())));
            obj.push(("worker".to_owned(), Value::num(*worker as f64)));
            obj.push(("chunk".to_owned(), Value::num(*chunk as f64)));
            obj.push(("items".to_owned(), Value::num(*items as f64)));
        }
    }
    Value::Obj(obj)
}

fn open_span_names(nodes: &[crate::report::SpanNode], out: &mut Vec<String>) {
    for node in nodes {
        if !node.closed {
            out.push(node.name.clone());
        }
        open_span_names(&node.children, out);
    }
}

/// Builds the versioned dump envelope from a collector's current
/// state.
///
/// `canonical: false` is the postmortem form: real timestamps, the
/// `tasks` stamps after the ring's events, and every counter event. `canonical: true` is the
/// byte-identity form used by `--flight=` and the determinism tests:
/// timestamps zeroed, task stamps omitted, counter and named events in
/// the [`ENVIRONMENT_PREFIXES`] dropped, and the counter snapshot taken
/// from [`crate::TelemetryReport::canonical`].
pub fn dump_value(
    obs: &Collector,
    tasks: Option<&FlightSnapshot>,
    reason: &str,
    suspects: &[String],
    canonical: bool,
) -> Value {
    let mut report = obs.report();
    if canonical {
        report = report.canonical();
    }
    let snapshot = obs.flight_snapshot();
    let mut events: Vec<Value> = Vec::new();
    for event in &snapshot.events {
        if canonical {
            // Counter deltas AND named events in the environment-fact
            // namespaces go: a warm run emits cache.* traffic a cold
            // run does not, for identical results.
            let environment_fact = match &event.kind {
                FlightKind::Counter { name, .. } | FlightKind::Event { name, .. } => {
                    ENVIRONMENT_PREFIXES.iter().any(|p| name.starts_with(p))
                }
                _ => false,
            };
            if environment_fact {
                continue;
            }
            let mut event = event.clone();
            event.t_s = 0.0;
            events.push(event_value(&event));
        } else {
            events.push(event_value(event));
        }
    }
    let mut task_dropped = 0;
    if !canonical {
        if let Some(tasks) = tasks {
            task_dropped = tasks.dropped;
            events.extend(tasks.events.iter().map(event_value));
        }
    }
    let mut open = Vec::new();
    open_span_names(&report.spans, &mut open);
    let counters = Value::Obj(
        report
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::num(*v as f64)))
            .collect(),
    );
    Value::Obj(vec![
        ("schema".to_owned(), Value::Str(FLIGHT_SCHEMA.to_owned())),
        (
            "schema_version".to_owned(),
            Value::num(FLIGHT_VERSION as f64),
        ),
        ("canonical".to_owned(), Value::Bool(canonical)),
        ("reason".to_owned(), Value::Str(reason.to_owned())),
        (
            "dropped".to_owned(),
            Value::num((snapshot.dropped + task_dropped) as f64),
        ),
        ("events".to_owned(), Value::Arr(events)),
        (
            "open_spans".to_owned(),
            Value::Arr(open.into_iter().map(Value::Str).collect()),
        ),
        ("counters".to_owned(), counters),
        (
            "suspects".to_owned(),
            Value::Arr(suspects.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// Renders a dump envelope to its JSON text.
pub fn render_dump(
    obs: &Collector,
    tasks: Option<&FlightSnapshot>,
    reason: &str,
    suspects: &[String],
    canonical: bool,
) -> String {
    let mut text = dump_value(obs, tasks, reason, suspects, canonical).render();
    text.push('\n');
    text
}

/// Writes a dump envelope to `path` (best-effort callers ignore the
/// error: a failing crash dump must never mask the crash itself).
pub fn write_dump(
    path: &Path,
    obs: &Collector,
    tasks: Option<&FlightSnapshot>,
    reason: &str,
    suspects: &[String],
    canonical: bool,
) -> io::Result<()> {
    let text = render_dump(obs, tasks, reason, suspects, canonical);
    // Write-then-rename so a reader (or a racing sibling test process)
    // never sees a torn dump.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A parsed, validated flight dump — what `disengage doctor` works
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Envelope schema version.
    pub schema_version: u64,
    /// Whether this is the canonical (byte-identity) form.
    pub canonical: bool,
    /// Why the dump was taken.
    pub reason: String,
    /// Events evicted before the dump.
    pub dropped: u64,
    /// Events oldest-first.
    pub events: Vec<FlightEvent>,
    /// Spans still open when the dump was taken.
    pub open_spans: Vec<String>,
    /// Counter snapshot, in name order.
    pub counters: Vec<(String, u64)>,
    /// Suspect record ids from the provenance log.
    pub suspects: Vec<String>,
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing `{key}` field"))
}

fn str_field(obj: &Value, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn num_field(obj: &Value, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn parse_level(name: &str) -> Result<LogLevel, String> {
    match name {
        "warn" => Ok(LogLevel::Warn),
        "info" => Ok(LogLevel::Info),
        "debug" => Ok(LogLevel::Debug),
        other => Err(format!("unknown log level `{other}`")),
    }
}

fn parse_event(value: &Value, index: usize) -> Result<FlightEvent, String> {
    let fail = |e: String| format!("event {index}: {e}");
    let t_s = num_field(value, "t_s").map_err(fail)?;
    let kind = str_field(value, "kind").map_err(fail)?;
    let kind = match kind.as_str() {
        "span_open" => FlightKind::SpanOpen {
            name: str_field(value, "name").map_err(fail)?,
        },
        "span_close" => FlightKind::SpanClose {
            name: str_field(value, "name").map_err(fail)?,
        },
        "counter" => FlightKind::Counter {
            name: str_field(value, "name").map_err(fail)?,
            delta: num_field(value, "delta").map_err(fail)? as u64,
        },
        "log" => FlightKind::Log {
            level: parse_level(&str_field(value, "level").map_err(fail)?).map_err(fail)?,
            message: str_field(value, "message").map_err(fail)?,
        },
        "event" => FlightKind::Event {
            name: str_field(value, "name").map_err(fail)?,
            detail: str_field(value, "detail").map_err(fail)?,
        },
        "task" => FlightKind::Task {
            label: str_field(value, "label").map_err(fail)?,
            worker: num_field(value, "worker").map_err(fail)? as usize,
            chunk: num_field(value, "chunk").map_err(fail)? as usize,
            items: num_field(value, "items").map_err(fail)? as usize,
        },
        other => return Err(format!("event {index}: unknown kind `{other}`")),
    };
    Ok(FlightEvent { t_s, kind })
}

fn str_array(value: &Value, key: &str) -> Result<Vec<String>, String> {
    value
        .as_arr()
        .ok_or_else(|| format!("`{key}` must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{key}` entries must be strings"))
        })
        .collect()
}

/// Parses and validates a flight dump.
pub fn validate_dump(text: &str) -> Result<FlightDump, String> {
    let value = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = str_field(&value, "schema")?;
    if schema != FLIGHT_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{FLIGHT_SCHEMA}`"));
    }
    let version = num_field(&value, "schema_version")? as u64;
    if version == 0 || version > FLIGHT_VERSION {
        return Err(format!(
            "schema_version {version} unsupported (this build reads <= {FLIGHT_VERSION})"
        ));
    }
    let canonical = match field(&value, "canonical")? {
        Value::Bool(b) => *b,
        _ => return Err("`canonical` must be a boolean".to_owned()),
    };
    let reason = str_field(&value, "reason")?;
    let dropped = num_field(&value, "dropped")? as u64;
    let events = field(&value, "events")?
        .as_arr()
        .ok_or("`events` must be an array")?
        .iter()
        .enumerate()
        .map(|(i, v)| parse_event(v, i))
        .collect::<Result<Vec<_>, _>>()?;
    let open_spans = str_array(field(&value, "open_spans")?, "open_spans")?;
    let counters = match field(&value, "counters")? {
        Value::Obj(entries) => entries
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n as u64))
                    .ok_or_else(|| format!("counter `{k}` must be a number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("`counters` must be an object".to_owned()),
    };
    let suspects = str_array(field(&value, "suspects")?, "suspects")?;
    Ok(FlightDump {
        schema_version: version,
        canonical,
        reason,
        dropped,
        events,
        open_spans,
        counters,
        suspects,
    })
}

fn describe_event(event: &FlightEvent) -> String {
    match &event.kind {
        FlightKind::SpanOpen { name } => format!("span_open  {name}"),
        FlightKind::SpanClose { name } => format!("span_close {name}"),
        FlightKind::Counter { name, delta } => format!("counter    {name} +{delta}"),
        FlightKind::Log { level, message } => {
            format!("log        [{}] {message}", level_name(*level))
        }
        FlightKind::Event { name, detail } => format!("event      {name}: {detail}"),
        FlightKind::Task {
            label,
            worker,
            chunk,
            items,
        } => format!("task       {label} chunk {chunk} on worker {worker} ({items} items)"),
    }
}

/// Renders the doctor postmortem: provenance of the dump, open spans
/// at death, the last `last_n` events, the counter snapshot, and the
/// suspect record ids.
pub fn render_postmortem(dump: &FlightDump, last_n: usize) -> String {
    let mut out = String::new();
    out.push_str("== flight recorder postmortem ==\n");
    out.push_str(&format!(
        "schema {FLIGHT_SCHEMA} v{}, {} form\n",
        dump.schema_version,
        if dump.canonical { "canonical" } else { "full" }
    ));
    out.push_str(&format!("reason: {}\n", dump.reason));
    out.push_str(&format!(
        "events: {} recorded, {} dropped oldest-first\n",
        dump.events.len(),
        dump.dropped
    ));
    if dump.open_spans.is_empty() {
        out.push_str("open spans at dump: none\n");
    } else {
        out.push_str(&format!(
            "open spans at dump: {}\n",
            dump.open_spans.join(" > ")
        ));
    }
    let start = dump.events.len().saturating_sub(last_n);
    out.push_str(&format!("last {} events:\n", dump.events.len() - start));
    for event in &dump.events[start..] {
        out.push_str(&format!(
            "  [{:9.3}s] {}\n",
            event.t_s,
            describe_event(event)
        ));
    }
    if !dump.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &dump.counters {
            out.push_str(&format!("  {name} = {value}\n"));
        }
    }
    if dump.suspects.is_empty() {
        out.push_str("suspect records: none\n");
    } else {
        out.push_str("suspect records:\n");
        for s in &dump.suspects {
            out.push_str(&format!("  {s}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_stamp(label: &str, worker: usize, chunk: usize, items: usize) -> FlightSnapshot {
        FlightSnapshot {
            events: vec![FlightEvent {
                t_s: 0.0,
                kind: FlightKind::Task {
                    label: label.to_owned(),
                    worker,
                    chunk,
                    items,
                },
            }],
            dropped: 0,
        }
    }

    fn counter_event(name: &str, delta: u64) -> FlightEvent {
        FlightEvent {
            t_s: 0.0,
            kind: FlightKind::Counter {
                name: name.to_owned(),
                delta,
            },
        }
    }

    #[test]
    fn ring_drops_oldest_first_and_counts() {
        let mut ring = FlightRing::new(3);
        for i in 0..5 {
            ring.push(counter_event(&format!("c{i}"), 1));
        }
        assert_eq!(ring.events().count(), 3);
        assert_eq!(ring.dropped(), 2);
        let names: Vec<String> = ring
            .events()
            .map(|e| match &e.kind {
                FlightKind::Counter { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        // c0 and c1 (oldest) were evicted.
        assert_eq!(names, ["c2", "c3", "c4"]);
    }

    #[test]
    fn ring_capacity_is_exact_for_any_push_count() {
        // Property: after n pushes into a capacity-k ring, len is
        // min(n, k), dropped is n - len, and the surviving window is
        // exactly the last len events.
        for cap in [1usize, 2, 7, 16] {
            for n in 0..40usize {
                let mut ring = FlightRing::new(cap);
                for i in 0..n {
                    ring.push(counter_event(&format!("e{i}"), 1));
                }
                assert_eq!(ring.events().count(), n.min(cap));
                assert_eq!(ring.dropped(), (n - ring.events().count()) as u64);
                let first = ring.events().next().cloned();
                if let Some(first) = first {
                    let expect = format!("e{}", n - ring.events().count());
                    match &first.kind {
                        FlightKind::Counter { name, .. } => assert_eq!(*name, expect),
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn absorb_appends_in_order_and_sums_drops() {
        let mut parent = FlightRing::new(4);
        parent.push(counter_event("p0", 1));
        let mut child = FlightRing::new(2);
        for i in 0..5 {
            child.push(counter_event(&format!("s{i}"), 1));
        }
        parent.absorb(child);
        assert_eq!(parent.dropped(), 3); // child evicted s0..s2
        let names: Vec<&str> = parent
            .events()
            .map(|e| match &e.kind {
                FlightKind::Counter { name, .. } => name.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, ["p0", "s3", "s4"]);
    }

    #[test]
    fn dump_round_trips_through_validate() {
        let obs = Collector::new();
        {
            let _root = obs.span("pipeline");
            obs.add("quarantine.records", 3);
            obs.event("interrupt", "normalize");
            obs.warn("something degraded");
            let text = render_dump(
                &obs,
                None,
                "interrupted after normalize",
                &["Waymo:2016:4".to_owned()],
                false,
            );
            let dump = validate_dump(&text).expect("dump validates");
            assert!(!dump.canonical);
            assert_eq!(dump.reason, "interrupted after normalize");
            assert_eq!(dump.open_spans, ["pipeline"]);
            assert_eq!(dump.suspects, ["Waymo:2016:4"]);
            assert!(dump
                .events
                .iter()
                .any(|e| matches!(&e.kind, FlightKind::Event { name, detail }
                    if name == "interrupt" && detail == "normalize")));
            assert!(dump
                .events
                .iter()
                .any(|e| matches!(&e.kind, FlightKind::Counter { name, delta: 3 }
                    if name == "quarantine.records")));
            let post = render_postmortem(&dump, 10);
            assert!(post.contains("interrupted after normalize"));
            assert!(post.contains("open spans at dump: pipeline"));
            assert!(post.contains("Waymo:2016:4"));
        }
    }

    #[test]
    fn canonical_dump_zeroes_time_and_drops_environment_events() {
        let obs = Collector::new();
        obs.add("quarantine.records", 1);
        obs.add("cache.hit.corpus", 1);
        for prefix in ENVIRONMENT_PREFIXES {
            obs.event(&format!("{prefix}probe"), "environment");
        }
        let in_environment = |e: &FlightEvent| match &e.kind {
            FlightKind::Counter { name, .. } | FlightKind::Event { name, .. } => {
                ENVIRONMENT_PREFIXES.iter().any(|p| name.starts_with(p))
            }
            _ => false,
        };
        let tasks = task_stamp("parse", 0, 0, 8);
        let full = render_dump(&obs, Some(&tasks), "end-of-run", &[], false);
        let full = validate_dump(&full).expect("full dump validates");
        let kept = full.events.iter().filter(|e| in_environment(e)).count();
        assert_eq!(kept, 1 + ENVIRONMENT_PREFIXES.len(), "full dumps keep them");
        let text = render_dump(&obs, Some(&tasks), "end-of-run", &[], true);
        let dump = validate_dump(&text).expect("canonical dump validates");
        assert!(dump.canonical);
        assert!(dump.events.iter().all(|e| e.t_s == 0.0));
        assert!(!dump
            .events
            .iter()
            .any(|e| matches!(&e.kind, FlightKind::Task { .. })));
        assert!(!dump.events.iter().any(in_environment));
        assert!(dump
            .events
            .iter()
            .any(|e| matches!(&e.kind, FlightKind::Counter { name, .. }
                if name == "quarantine.records")));
        // Canonical counters mirror TelemetryReport::canonical.
        assert!(dump.counters.iter().all(|(k, _)| !k.starts_with("cache.")));
    }

    #[test]
    fn full_dump_carries_task_stamps() {
        let obs = Collector::new();
        let mut tasks = task_stamp("digitize", 2, 5, 16);
        tasks.dropped = 3;
        let text = render_dump(&obs, Some(&tasks), "end-of-run", &[], false);
        let dump = validate_dump(&text).expect("validates");
        assert!(dump.events.iter().any(
            |e| matches!(&e.kind, FlightKind::Task { label, worker: 2, chunk: 5, items: 16 }
                if label == "digitize")
        ));
        assert_eq!(dump.dropped, 3, "task drops add to the ring's");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_dump("not json").is_err());
        assert!(validate_dump("{}").is_err());
        assert!(validate_dump(r#"{"schema":"other"}"#).is_err());
        let wrong_version = r#"{"schema":"disengage-flight","schema_version":99,
            "canonical":false,"reason":"x","dropped":0,"events":[],
            "open_spans":[],"counters":{},"suspects":[]}"#;
        assert!(validate_dump(wrong_version).is_err());
        let bad_kind = r#"{"schema":"disengage-flight","schema_version":1,
            "canonical":false,"reason":"x","dropped":0,
            "events":[{"t_s":0,"kind":"mystery"}],
            "open_spans":[],"counters":{},"suspects":[]}"#;
        assert!(validate_dump(bad_kind).is_err());
    }

    #[test]
    fn watch_prefixes_cover_reliability_lanes() {
        assert!(watched("quarantine.records"));
        assert!(watched("chaos.injected.total"));
        assert!(watched("cache.hit.corpus"));
        assert!(watched("parse.dis.failed"));
        assert!(!watched("nlp.tag.planner"));
        assert!(!watched("parse.dis.parsed"));
    }
}
