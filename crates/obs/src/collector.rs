//! The collector: explicit, thread-safe accumulation of spans,
//! metrics, flight events, and per-record lineage — the one recording
//! sink a pipeline task writes to.
//!
//! No global state is required — the pipeline threads a `&Collector`
//! through its stages. Interior mutability (a `Mutex` around the whole
//! state) keeps the API `&self` so a collector can be shared freely.
//! Every recording call takes that lock, so per-record facts never
//! reach it one by one: a stage tallies them locally and records the
//! batch once per shard or document ([`Collector::record_batch`]), for
//! fewer than a thousand lock acquisitions in a full-scale run.
//! Flight-watched counters are the exception and still record per
//! event.
//! Parallel tasks record into [`Collector::shard`]s that the caller
//! folds back with [`Collector::absorb`] in task-index order, which
//! keeps every channel (lineage included) independent of the worker
//! count.

use crate::flight::{self, FlightEvent, FlightKind, FlightRing, FlightSnapshot};
use crate::hist::{Histogram, HistogramState};
use crate::provenance::{ProvenanceEntry, ProvenanceEvent, ProvenanceLog, Subject};
use crate::report::{FieldValue, LogEvent, LogLevel, SpanNode, TelemetryReport};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The stderr-echo threshold from `DISENGAGE_LOG`
/// (`off|warn|info|debug`, default `info`). Gates *only* the echo:
/// recording is unconditional, so reports and flight dumps never
/// depend on the environment.
fn echo_filter() -> Option<LogLevel> {
    static FILTER: OnceLock<Option<LogLevel>> = OnceLock::new();
    *FILTER.get_or_init(|| match std::env::var("DISENGAGE_LOG").as_deref() {
        Ok("off") => None,
        Ok("warn") => Some(LogLevel::Warn),
        Ok("debug") => Some(LogLevel::Debug),
        // `info`, unset, or unrecognized: the default.
        _ => Some(LogLevel::Info),
    })
}

#[derive(Debug)]
struct SpanData {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
    fields: Vec<(String, FieldValue)>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanData>,
    // Per-thread open-span stacks. A single shared stack would parent a
    // span opened on a pool worker under whatever span another thread
    // pushed last; keying by thread id keeps nesting a per-thread
    // property, so worker-opened spans root at the top level instead of
    // mis-parenting under an unrelated sibling.
    stacks: HashMap<ThreadId, Vec<usize>>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    logs: Vec<LogEvent>,
    // Always-on flight recorder ring (see crate::flight). Shares the
    // collector's mutex so event order is exactly recording order.
    flight: FlightRing,
    // Per-record lineage (see crate::provenance); stays empty unless
    // the collector records lineage.
    lineage: Vec<ProvenanceEntry>,
}

/// A replayable snapshot of one span: arena-indexed parentage,
/// epoch-relative nanosecond timestamps, and fields in record order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanState {
    /// Span name.
    pub name: String,
    /// Arena index of the parent within the same snapshot (`None` for
    /// a root).
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch (`None` while open).
    pub end_ns: Option<u64>,
    /// Fields in the order they were attached.
    pub fields: Vec<(String, FieldValue)>,
}

/// A raw, replayable snapshot of a collector's telemetry: the exact
/// mirror of [`Collector::absorb`]'s by-value input (less the flight
/// ring and the lineage), but as plain data that can be serialized
/// (the artifact cache persists one per stage, with the stage's
/// lineage beside it) and folded back later with
/// [`Collector::absorb_state`].
///
/// Unlike [`TelemetryReport`] this is lossless — histograms keep their
/// raw buckets and exact float sums, spans keep arena parentage — so
/// replaying a snapshot is indistinguishable from re-running the code
/// that recorded it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollectorState {
    /// Spans in arena order (parents precede children).
    pub spans: Vec<SpanState>,
    /// Counters in name order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in name order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms in name order, with raw bucket state.
    pub histograms: Vec<(String, HistogramState)>,
    /// Log events in record order.
    pub logs: Vec<LogEvent>,
}

/// Accumulates spans, counters, gauges, histograms, log events, the
/// flight-recorder ring, and — when built [`Collector::with_lineage`]
/// — per-record lineage.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    epoch: Instant,
    echo: bool,
    lineage: bool,
    // Wall time spent inside recording operations, for the honest
    // `obs.overhead.frac` gauge. Atomic (not under the mutex) so the
    // accounting itself stays cheap.
    overhead_ns: AtomicU64,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// An empty collector whose clock starts now. It records no
    /// lineage; see [`Collector::with_lineage`].
    pub fn new() -> Collector {
        Collector {
            inner: Mutex::new(Inner::default()),
            epoch: Instant::now(),
            echo: false,
            lineage: false,
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// An empty collector that also echoes [`Collector::log`] events to
    /// stderr — the CLI progress-line mode.
    pub fn with_echo() -> Collector {
        Collector {
            echo: true,
            ..Collector::new()
        }
    }

    /// Sets whether this collector records per-record lineage
    /// ([`Collector::lineage`]) — the switch behind `--lineage` and
    /// `disengage explain`, set when the collector is built and
    /// inherited by every [`Collector::shard`]. A run's stage cache
    /// keys fold it, since an artifact recorded without lineage has
    /// none to replay.
    #[must_use]
    pub fn with_lineage(self, on: bool) -> Collector {
        Collector {
            lineage: on,
            ..self
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means a panic mid-update; telemetry is
        // best-effort diagnostics, so keep collecting.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note_overhead(&self, t0: Instant) {
        self.overhead_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs one recording operation under the lock and adds its wall
    /// time, lock wait included, to the overhead ledger.
    fn recording<R>(&self, op: impl FnOnce(&mut Inner) -> R) -> R {
        let t0 = Instant::now();
        let out = op(&mut self.lock());
        self.note_overhead(t0);
        out
    }

    /// Total wall time spent inside recording calls: every call that
    /// takes the lock to record (counters, gauges, samples, batches,
    /// logs, events, lineage, span opens, fields and closes, absorbs),
    /// lock wait and flight-ring pushes included. Absorbed shards add
    /// their own ledger. Snapshots ([`Collector::report`],
    /// [`Collector::state`], [`Collector::provenance`],
    /// [`Collector::flight_snapshot`]) stay untimed: they read what
    /// was recorded rather than record. Each timed call costs two clock
    /// reads. This is the numerator of the `obs.overhead.frac` gauge.
    pub fn overhead_seconds(&self) -> f64 {
        self.overhead_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The instant this collector's clock started; timestamps (span
    /// starts, pool-task timelines) are measured relative to it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span as a child of the *calling thread's* innermost open
    /// span (a span opened on a thread with no open span becomes a
    /// root). The span closes when the returned guard drops (or via
    /// [`SpanGuard::finish`]).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let start = self.epoch.elapsed();
        let thread = std::thread::current().id();
        let index = self.recording(|inner| {
            let parent = inner.stacks.get(&thread).and_then(|s| s.last()).copied();
            let index = inner.spans.len();
            inner.spans.push(SpanData {
                name: name.to_owned(),
                parent,
                start,
                end: None,
                fields: Vec::new(),
            });
            inner.stacks.entry(thread).or_default().push(index);
            inner.flight.push(FlightEvent {
                t_s: start.as_secs_f64(),
                kind: FlightKind::SpanOpen {
                    name: name.to_owned(),
                },
            });
            index
        });
        SpanGuard {
            collector: self,
            index,
            closed: false,
        }
    }

    /// Adds to a counter (creating it at zero). Deltas on watched
    /// prefixes ([`flight::watched`]) also land in the flight ring.
    pub fn add(&self, name: &str, delta: u64) {
        self.recording(|inner| {
            add_counter(&mut inner.counters, name, delta);
            if flight::watched(name) {
                let t_s = self.epoch.elapsed().as_secs_f64();
                inner.flight.push(FlightEvent {
                    t_s,
                    kind: FlightKind::Counter {
                        name: name.to_owned(),
                        delta,
                    },
                });
            }
        });
    }

    /// Increments a counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        self.recording(|inner| inner.gauges.insert(name.to_owned(), value));
    }

    /// Records a sample into a histogram (creating it empty).
    pub fn record(&self, name: &str, sample: f64) {
        self.recording(|inner| match inner.histograms.get_mut(name) {
            Some(hist) => hist.record(sample),
            None => {
                let mut hist = Histogram::new();
                hist.record(sample);
                inner.histograms.insert(name.to_owned(), hist);
            }
        });
    }

    /// Records a batch a stage tallied locally — counter deltas, and
    /// samples gathered in record order in a local [`Histogram`] —
    /// under one lock, as if each had been recorded here one event at
    /// a time. Zero deltas and empty histograms are skipped, so the
    /// counter and histogram key sets match per-event recording.
    ///
    /// That equivalence is bit-exact only where this collector's
    /// histogram of the same name is still empty: its sum starts at
    /// `0.0`, and `0.0 + s` is exact, while a fold into a histogram
    /// that already holds samples would reassociate the float sum. So
    /// a stage flushes into its own fresh collector shard. Counters on
    /// flight-watched prefixes ([`flight::watched`]) do not belong
    /// here: each of their deltas is a flight event, and the ring's
    /// drop count is a canonical counter, so they record per event
    /// through [`Collector::add`].
    pub fn record_batch<'a>(
        &self,
        counts: impl IntoIterator<Item = (&'a str, u64)>,
        samples: impl IntoIterator<Item = (&'a str, Histogram)>,
    ) {
        self.recording(|inner| {
            for (name, delta) in counts {
                debug_assert!(!flight::watched(name), "{name} must record per event");
                if delta > 0 {
                    add_counter(&mut inner.counters, name, delta);
                }
            }
            for (name, hist) in samples.into_iter().filter(|(_, h)| h.count() > 0) {
                match inner.histograms.get_mut(name) {
                    Some(mine) => {
                        debug_assert_eq!(mine.count(), 0, "{name} already holds samples");
                        mine.merge(&hist);
                    }
                    None => {
                        inner.histograms.insert(name.to_owned(), hist);
                    }
                }
            }
        });
    }

    /// Records an info-level log event (echoed to stderr when the
    /// collector was built with [`Collector::with_echo`] and the
    /// `DISENGAGE_LOG` filter — `off|warn|info|debug`, default `info`
    /// — admits the level).
    pub fn log(&self, message: &str) {
        self.log_at(LogLevel::Info, message);
    }

    /// Records a warn-level log event.
    pub fn warn(&self, message: &str) {
        self.log_at(LogLevel::Warn, message);
    }

    /// Records an info-level log event (alias of [`Collector::log`]).
    pub fn info(&self, message: &str) {
        self.log_at(LogLevel::Info, message);
    }

    /// Records a debug-level log event (echo off by default).
    pub fn debug(&self, message: &str) {
        self.log_at(LogLevel::Debug, message);
    }

    /// Records a log event at an explicit level. Recording is
    /// unconditional — `DISENGAGE_LOG` gates only the stderr echo —
    /// so the report and flight ring never depend on the environment.
    pub fn log_at(&self, level: LogLevel, message: &str) {
        let t_s = self.epoch.elapsed().as_secs_f64();
        if self.echo && echo_filter().is_some_and(|cap| level <= cap) {
            match level {
                LogLevel::Info => eprintln!("[{t_s:9.3}s] {message}"),
                LogLevel::Warn => eprintln!("[{t_s:9.3}s] warn: {message}"),
                LogLevel::Debug => eprintln!("[{t_s:9.3}s] debug: {message}"),
            }
        }
        self.recording(|inner| {
            inner.logs.push(LogEvent {
                t_s,
                level,
                message: message.to_owned(),
            });
            inner.flight.push(FlightEvent {
                t_s,
                kind: FlightKind::Log {
                    level,
                    message: message.to_owned(),
                },
            });
        });
    }

    /// Records an explicit named flight event (quarantine, degrade,
    /// injected fault, cache reclaim, interrupt): ring-only, not a
    /// metric.
    pub fn event(&self, name: &str, detail: &str) {
        let t_s = self.epoch.elapsed().as_secs_f64();
        self.recording(|inner| {
            inner.flight.push(FlightEvent {
                t_s,
                kind: FlightKind::Event {
                    name: name.to_owned(),
                    detail: detail.to_owned(),
                },
            })
        });
    }

    /// Whether this collector records lineage (see
    /// [`Collector::with_lineage`]). Stages check it to skip building
    /// event payloads entirely.
    pub fn lineage_enabled(&self) -> bool {
        self.lineage
    }

    /// Records one lineage event about `subject` (a no-op unless the
    /// collector records lineage). Entry order is recording order, and
    /// shards fold in task-index order, so the lineage of a run is the
    /// same at any worker count.
    pub fn lineage(&self, subject: Subject, event: ProvenanceEvent) {
        if self.lineage {
            self.recording(|inner| inner.lineage.push(ProvenanceEntry { subject, event }));
        }
    }

    /// Appends lineage entries in their recorded order — the replay of
    /// a cache envelope's lineage next to [`Collector::absorb_state`]
    /// (a no-op unless the collector records lineage).
    pub fn absorb_lineage(&self, entries: Vec<ProvenanceEntry>) {
        if self.lineage {
            self.recording(|inner| inner.lineage.extend(entries));
        }
    }

    /// Snapshot of the lineage recorded so far, in causal order — the
    /// data behind `--lineage` exports and `disengage explain`.
    pub fn provenance(&self) -> ProvenanceLog {
        ProvenanceLog {
            entries: self.lock().lineage.clone(),
        }
    }

    /// Snapshot of the flight ring: events oldest-first plus the
    /// eviction count.
    pub fn flight_snapshot(&self) -> FlightSnapshot {
        let inner = self.lock();
        FlightSnapshot {
            events: inner.flight.events().cloned().collect(),
            dropped: inner.flight.dropped(),
        }
    }

    /// An empty shard collector sharing this collector's epoch and
    /// lineage switch — the thread-local accumulator a parallel worker
    /// records into.
    ///
    /// Workers on a pool complete in arbitrary order, so they must not
    /// write into a shared collector directly: interleaved counter
    /// updates and histogram samples would make the merged state (and
    /// its float sums) schedule-dependent. Instead each task records
    /// into its own shard and the caller folds the shards back with
    /// [`Collector::absorb`] **in task-index order**, which reproduces
    /// the sequential recording sequence exactly. The shared epoch
    /// keeps any shard span timestamps on this collector's clock.
    pub fn shard(&self) -> Collector {
        Collector {
            inner: Mutex::new(Inner::default()),
            epoch: self.epoch,
            echo: false,
            lineage: self.lineage,
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Folds a shard's accumulated state into this collector: counters
    /// add, gauges overwrite (the shard is the later writer),
    /// histograms merge ([`Histogram::merge`]), logs append, flight
    /// events append in recorded order (drop counts add), lineage
    /// entries append in recorded order, recording overhead adds, and
    /// shard root spans attach under the calling thread's innermost
    /// open span.
    ///
    /// Absorbing per-task shards in task-index order is deterministic:
    /// the result is identical at any worker count, bit-for-bit even
    /// in the order-sensitive float accumulations — and the flight
    /// ring and the lineage inherit the same guarantee, which is what
    /// makes canonical `flight.json` dumps and lineage JSONL
    /// byte-identical at any `--jobs`.
    pub fn absorb(&self, shard: Collector) {
        self.overhead_ns.fetch_add(
            shard.overhead_ns.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        let shard = shard.inner.into_inner().unwrap_or_else(|e| e.into_inner());
        let thread = std::thread::current().id();
        self.recording(|inner| {
            let base = inner.spans.len();
            let attach = inner.stacks.get(&thread).and_then(|s| s.last()).copied();
            for mut span in shard.spans {
                span.parent = match span.parent {
                    Some(p) => Some(base + p),
                    None => attach,
                };
                inner.spans.push(span);
            }
            for (name, delta) in shard.counters {
                *inner.counters.entry(name).or_insert(0) += delta;
            }
            for (name, value) in shard.gauges {
                inner.gauges.insert(name, value);
            }
            for (name, hist) in shard.histograms {
                inner.histograms.entry(name).or_default().merge(&hist);
            }
            inner.logs.extend(shard.logs);
            if self.lineage {
                inner.lineage.extend(shard.lineage);
            }
            inner.flight.absorb(shard.flight);
        });
    }

    /// Snapshots the raw accumulated state (typically of a shard, for
    /// the artifact cache) so it can be serialized and later replayed
    /// with [`Collector::absorb_state`]. Flight-ring events are
    /// deliberately *not* part of the state: a cache-replayed stage
    /// contributes no flight events beyond its own `cache.hit`
    /// counters, which is exactly what a postmortem should show.
    /// Lineage is not part of it either; the cache envelope carries
    /// [`Collector::provenance`] beside it.
    pub fn state(&self) -> CollectorState {
        let inner = self.lock();
        CollectorState {
            spans: inner
                .spans
                .iter()
                .map(|s| SpanState {
                    name: s.name.clone(),
                    parent: s.parent,
                    start_ns: s.start.as_nanos() as u64,
                    end_ns: s.end.map(|e| e.as_nanos() as u64),
                    fields: s.fields.clone(),
                })
                .collect(),
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.state()))
                .collect(),
            logs: inner.logs.clone(),
        }
    }

    /// Replays a snapshot taken with [`Collector::state`], with
    /// exactly [`Collector::absorb`]'s semantics: counters add, gauges
    /// overwrite, histograms merge bit-identically, logs append, and
    /// snapshot root spans attach under the calling thread's innermost
    /// open span. Replayed span timestamps are the *recording* run's
    /// wall clock — environment-dependent like all timing, and zeroed
    /// by `TelemetryReport::canonical` the same way.
    pub fn absorb_state(&self, state: CollectorState) {
        let thread = std::thread::current().id();
        self.recording(|inner| {
            let base = inner.spans.len();
            let attach = inner.stacks.get(&thread).and_then(|s| s.last()).copied();
            for span in state.spans {
                inner.spans.push(SpanData {
                    name: span.name,
                    parent: match span.parent {
                        Some(p) => Some(base + p),
                        None => attach,
                    },
                    start: Duration::from_nanos(span.start_ns),
                    end: span.end_ns.map(Duration::from_nanos),
                    fields: span.fields,
                });
            }
            for (name, delta) in state.counters {
                *inner.counters.entry(name).or_insert(0) += delta;
            }
            for (name, value) in state.gauges {
                inner.gauges.insert(name, value);
            }
            for (name, hist) in state.histograms {
                inner
                    .histograms
                    .entry(name)
                    .or_default()
                    .merge(&Histogram::from_state(&hist));
            }
            inner.logs.extend(state.logs);
        });
    }

    /// Snapshots everything accumulated so far. Spans still open are
    /// exported with their duration-so-far and `closed: false`.
    pub fn report(&self) -> TelemetryReport {
        let now = self.epoch.elapsed();
        let inner = self.lock();
        // Build the forest bottom-up: children vectors indexed like the
        // arena, then move each node under its parent (children always
        // follow parents in arena order, so draining back-to-front is
        // safe).
        let mut nodes: Vec<Option<SpanNode>> = inner
            .spans
            .iter()
            .map(|s| {
                Some(SpanNode {
                    name: s.name.clone(),
                    start_s: s.start.as_secs_f64(),
                    duration_s: s.end.unwrap_or(now).saturating_sub(s.start).as_secs_f64(),
                    closed: s.end.is_some(),
                    fields: s.fields.clone(),
                    children: Vec::new(),
                })
            })
            .collect();
        let mut roots = Vec::new();
        for i in (0..inner.spans.len()).rev() {
            let node = nodes[i].take().expect("unmoved");
            match inner.spans[i].parent {
                Some(p) => nodes[p]
                    .as_mut()
                    .expect("parents precede children")
                    .children
                    .insert(0, node),
                None => roots.insert(0, node),
            }
        }
        // Surface the ring's eviction ledger as a counter: drops are a
        // deterministic function of the event stream, so this survives
        // canonical() and the byte-identity suites.
        let mut counters = inner.counters.clone();
        let dropped = inner.flight.dropped();
        if dropped > 0 {
            *counters.entry(flight::DROP_COUNTER.to_owned()).or_insert(0) += dropped;
        }
        TelemetryReport {
            spans: roots,
            counters,
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            logs: inner.logs.clone(),
        }
    }

    fn close_span(&self, index: usize) {
        let end = self.epoch.elapsed();
        let thread = std::thread::current().id();
        self.recording(|inner| {
            if inner.spans[index].end.is_none() {
                inner.spans[index].end = Some(end);
                let name = inner.spans[index].name.clone();
                inner.flight.push(FlightEvent {
                    t_s: end.as_secs_f64(),
                    kind: FlightKind::SpanClose { name },
                });
            }
            // Normally `index` is the calling thread's innermost open
            // span; guards dropped out of order (or moved across
            // threads) just remove the span from whichever stack it
            // sits on.
            let mut removed = false;
            if let Some(stack) = inner.stacks.get_mut(&thread) {
                if let Some(at) = stack.iter().rposition(|&i| i == index) {
                    stack.remove(at);
                    removed = true;
                }
            }
            if !removed {
                for stack in inner.stacks.values_mut() {
                    if let Some(at) = stack.iter().rposition(|&i| i == index) {
                        stack.remove(at);
                        break;
                    }
                }
            }
            inner.stacks.retain(|_, stack| !stack.is_empty());
        });
    }

    fn span_field(&self, index: usize, key: &str, value: FieldValue) {
        self.recording(|inner| inner.spans[index].fields.push((key.to_owned(), value)));
    }
}

/// Adds `delta` to a counter, creating it. Looks up before inserting:
/// hot paths update existing counters, and only an insert needs an
/// owned name.
fn add_counter(counters: &mut BTreeMap<String, u64>, name: &str, delta: u64) {
    match counters.get_mut(name) {
        Some(count) => *count += delta,
        None => {
            counters.insert(name.to_owned(), delta);
        }
    }
}

/// Guard for an open span; the span closes when this drops.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    collector: &'a Collector,
    index: usize,
    closed: bool,
}

impl SpanGuard<'_> {
    /// Annotates the span with a key/value field.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        self.collector.span_field(self.index, key, value.into());
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.collector.close_span(self.index);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_guard_scope() {
        let c = Collector::new();
        {
            let _outer = c.span("outer");
            {
                let _inner = c.span("inner");
            }
            let _sibling = c.span("sibling");
        }
        let r = c.report();
        assert_eq!(r.spans.len(), 1);
        let outer = &r.spans[0];
        assert_eq!(outer.name, "outer");
        let names: Vec<&str> = outer.children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "sibling"]);
        assert!(outer.children.iter().all(|s| s.closed));
    }

    #[test]
    fn span_timing_monotone_and_contained() {
        let c = Collector::new();
        {
            let _outer = c.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let inner = c.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
            inner.finish();
        }
        let r = c.report();
        let outer = &r.spans[0];
        let inner = &outer.children[0];
        assert!(outer.duration_s >= inner.duration_s);
        assert!(inner.start_s >= outer.start_s);
        assert!(inner.duration_s > 0.0);
        assert!(
            inner.start_s + inner.duration_s <= outer.start_s + outer.duration_s + 1e-9
        );
    }

    #[test]
    fn open_spans_snapshot_with_duration_so_far() {
        let c = Collector::new();
        let _open = c.span("still_running");
        let r = c.report();
        assert!(!r.spans[0].closed);
        assert!(r.spans[0].duration_s >= 0.0);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let c = Collector::new();
        c.add("parse.records", 3);
        c.incr("parse.records");
        c.gauge("ocr.mean_cer", 0.2);
        c.gauge("ocr.mean_cer", 0.1); // last write wins
        c.record("nlp.vote_margin", 1.0);
        c.record("nlp.vote_margin", 3.0);
        let r = c.report();
        assert_eq!(r.counter("parse.records"), 4);
        assert_eq!(r.gauge("ocr.mean_cer"), Some(0.1));
        let h = r.histogram("nlp.vote_margin").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fields_attach_in_order() {
        let c = Collector::new();
        {
            let mut s = c.span("stage");
            s.field("records", 5328u64);
            s.field("mode", "passthrough");
        }
        let r = c.report();
        let fields = &r.spans[0].fields;
        assert_eq!(fields[0].0, "records");
        assert_eq!(fields[0].1, FieldValue::U64(5328));
        assert_eq!(fields[1].1, FieldValue::Str("passthrough".to_owned()));
    }

    #[test]
    fn logs_recorded_in_order() {
        let c = Collector::new();
        c.log("first");
        c.log("second");
        let r = c.report();
        let msgs: Vec<&str> = r.logs.iter().map(|l| l.message.as_str()).collect();
        assert_eq!(msgs, ["first", "second"]);
        assert!(r.logs[0].t_s <= r.logs[1].t_s);
    }

    #[test]
    fn shard_absorb_matches_direct_recording() {
        // Record the same event stream directly and via per-item
        // shards merged in item order; the reports must be identical
        // (modulo span timing, which this stream does not use).
        let direct = Collector::new();
        let sharded = Collector::new();
        for i in 0..50u64 {
            let x = 0.01 * i as f64;
            direct.add("stage.items", 1);
            direct.record("stage.score", x);
            direct.gauge("stage.last", x);

            let shard = sharded.shard();
            shard.add("stage.items", 1);
            shard.record("stage.score", x);
            shard.gauge("stage.last", x);
            sharded.absorb(shard);
        }
        let (d, s) = (direct.report(), sharded.report());
        assert_eq!(d.counters, s.counters);
        assert_eq!(d.gauges, s.gauges);
        assert_eq!(d.histograms, s.histograms);
        let dh = d.histogram("stage.score").unwrap();
        let sh = s.histogram("stage.score").unwrap();
        assert_eq!(dh.sum.to_bits(), sh.sum.to_bits());
    }

    #[test]
    fn batch_into_an_empty_histogram_matches_recording_one_by_one() {
        // Samples whose float sum depends on the order of addition,
        // plus zero, a negative and an overflow-bucket sample.
        let samples: Vec<f64> = (0..500)
            .map(|i| 0.1 * i as f64 + 1e-7 * (i % 7) as f64)
            .chain([0.0, -2.5, 1e300, 3.0])
            .collect();
        let direct = Collector::new();
        direct.add("stage.items", 0);
        for &x in &samples {
            direct.incr("stage.items");
            direct.record("stage.score", x);
        }
        let batched = Collector::new();
        batched.add("stage.items", 0);
        let mut local = Histogram::new();
        for &x in &samples {
            local.record(x);
        }
        batched.record_batch(
            [("stage.items", samples.len() as u64), ("stage.none", 0)],
            [("stage.score", local), ("stage.empty", Histogram::new())],
        );
        let (d, b) = (direct.state(), batched.state());
        assert_eq!(d, b, "zero counts and empty histograms add no keys");
        assert_eq!(
            d.histograms[0].1.sum.to_bits(),
            b.histograms[0].1.sum.to_bits()
        );
    }

    #[test]
    fn state_replay_matches_direct_absorb() {
        // Two collectors, identical recording; one absorbs the shard
        // directly, the other absorbs a serial-ready snapshot of an
        // identical shard. The final reports must match exactly,
        // including float bit patterns.
        let record = |shard: &Collector| {
            {
                let mut s = shard.span("stage_ii_parse");
                s.field("parsed", 41u64);
                shard.add("parse.dis.parsed", 41);
                shard.gauge("ocr.mean_cer", 0.125);
                shard.record("parse.latency", 0.5);
                shard.record("parse.latency", 0.25);
            }
            shard.log("stage done");
        };
        let direct = Collector::new();
        let replayed = direct.shard(); // shared epoch, separate state
        {
            let root_d = direct.span("pipeline");
            let shard = direct.shard();
            record(&shard);
            direct.absorb(shard);
            root_d.finish();
        }
        {
            let root_r = replayed.span("pipeline");
            let shard = replayed.shard();
            record(&shard);
            let state = shard.state();
            replayed.absorb_state(state);
            root_r.finish();
        }
        let (d, r) = (direct.report(), replayed.report());
        assert_eq!(d.counters, r.counters);
        assert_eq!(d.gauges, r.gauges);
        assert_eq!(d.histograms, r.histograms);
        let dh = d.histogram("parse.latency").unwrap();
        let rh = r.histogram("parse.latency").unwrap();
        assert_eq!(dh.sum.to_bits(), rh.sum.to_bits());
        assert_eq!(d.spans[0].children[0].name, "stage_ii_parse");
        assert_eq!(r.spans[0].children[0].name, "stage_ii_parse");
        assert_eq!(d.spans[0].children[0].fields, r.spans[0].children[0].fields);
        assert_eq!(d.logs.len(), r.logs.len());
    }

    #[test]
    fn absorbed_spans_attach_under_open_span() {
        let c = Collector::new();
        let stage = c.span("stage_iii_tag");
        let shard = c.shard();
        {
            let mut task = shard.span("classify");
            task.field("record", 7u64);
        }
        c.absorb(shard);
        stage.finish();
        let r = c.report();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].children[0].name, "classify");
        assert!(r.spans[0].children[0].closed);
    }

    #[test]
    fn absorb_into_idle_collector_roots_shard_spans() {
        let c = Collector::new();
        let shard = c.shard();
        drop(shard.span("orphan"));
        c.absorb(shard);
        let r = c.report();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "orphan");
    }

    #[test]
    fn worker_thread_spans_do_not_parent_under_other_threads() {
        // Regression: with a single shared span stack, a span opened on
        // a pool worker parented under whatever span another thread had
        // pushed last. Per-thread stacks make worker-opened spans roots
        // (their thread has no open span) and keep same-thread nesting.
        let c = Collector::new();
        let main_stage = c.span("main_stage");
        std::thread::scope(|scope| {
            for w in 0..4 {
                let c = &c;
                scope.spawn(move || {
                    let outer = c.span(&format!("worker_{w}"));
                    {
                        let _inner = c.span(&format!("worker_{w}_inner"));
                    }
                    outer.finish();
                });
            }
        });
        main_stage.finish();
        let r = c.report();
        // main_stage has no children; each worker span is its own root
        // with exactly its own inner span nested beneath.
        let main = r.find_span("main_stage").expect("main stage recorded");
        assert!(main.children.is_empty(), "no worker span may mis-parent");
        assert_eq!(r.spans.len(), 5);
        for w in 0..4 {
            let root = r
                .find_span(&format!("worker_{w}"))
                .expect("worker span is a root");
            assert_eq!(root.children.len(), 1);
            assert_eq!(root.children[0].name, format!("worker_{w}_inner"));
        }
    }

    #[test]
    fn flight_ring_mirrors_watched_traffic_only() {
        let c = Collector::new();
        {
            let _s = c.span("stage_ii_parse");
            c.add("quarantine.records", 2);
            c.add("nlp.tag.planner", 1); // not a watch prefix
            c.warn("artifact degraded");
            c.event("interrupt", "normalize");
        }
        let kinds: Vec<String> = c
            .flight_snapshot()
            .events
            .iter()
            .map(|e| match &e.kind {
                FlightKind::SpanOpen { name } => format!("open:{name}"),
                FlightKind::SpanClose { name } => format!("close:{name}"),
                FlightKind::Counter { name, delta } => format!("counter:{name}+{delta}"),
                FlightKind::Log { message, .. } => format!("log:{message}"),
                FlightKind::Event { name, .. } => format!("event:{name}"),
                FlightKind::Task { .. } => "task".to_owned(),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "open:stage_ii_parse",
                "counter:quarantine.records+2",
                "log:artifact degraded",
                "event:interrupt",
                "close:stage_ii_parse",
            ]
        );
    }

    #[test]
    fn flight_shard_absorb_matches_direct_recording() {
        let direct = Collector::new();
        let sharded = Collector::new();
        for i in 0..10u64 {
            direct.add("chaos.injected.total", i);
            direct.event("chaos.fault", &format!("doc {i}"));

            let shard = sharded.shard();
            shard.add("chaos.injected.total", i);
            shard.event("chaos.fault", &format!("doc {i}"));
            sharded.absorb(shard);
        }
        let (d, s) = (direct.flight_snapshot(), sharded.flight_snapshot());
        assert_eq!(d.dropped, s.dropped);
        assert_eq!(
            d.events.iter().map(|e| &e.kind).collect::<Vec<_>>(),
            s.events.iter().map(|e| &e.kind).collect::<Vec<_>>()
        );
    }

    fn quarantine(reason: &str) -> ProvenanceEvent {
        ProvenanceEvent::Quarantined {
            stage: "stage_ii_parse".into(),
            reason: reason.into(),
        }
    }

    #[test]
    fn collector_without_lineage_records_none() {
        let c = Collector::new();
        assert!(!c.lineage_enabled());
        c.lineage(Subject::Run, quarantine("direct"));
        let shard = c.shard();
        assert!(!shard.lineage_enabled(), "shards inherit the switch");
        shard.lineage(Subject::Document(0), quarantine("sharded"));
        c.absorb(shard);
        c.absorb_lineage(vec![ProvenanceEntry {
            subject: Subject::Document(1),
            event: quarantine("replayed"),
        }]);
        assert!(c.provenance().entries().is_empty());
        assert_eq!(c.provenance().to_jsonl(), "");
    }

    #[test]
    fn lineage_shards_absorbed_in_task_order_match_direct_recording() {
        let direct = Collector::new().with_lineage(true);
        let sharded = Collector::new().with_lineage(true);
        let mut shards = Vec::new();
        for i in 0..10 {
            let event = quarantine(&format!("reason {i}"));
            direct.lineage(Subject::Document(i), event.clone());
            let shard = sharded.shard();
            assert!(shard.lineage_enabled(), "shards inherit the switch");
            shard.lineage(Subject::Document(i), event);
            shards.push(shard);
        }
        for shard in shards {
            sharded.absorb(shard);
        }
        assert_eq!(direct.provenance(), sharded.provenance());
        assert_eq!(
            direct.provenance().to_jsonl(),
            sharded.provenance().to_jsonl()
        );
        assert_eq!(direct.provenance().entries().len(), 10);
    }

    #[test]
    fn report_surfaces_flight_drops_as_a_counter() {
        let c = Collector::new();
        let capacity = flight::DEFAULT_CAPACITY as u64;
        for i in 0..capacity + 5 {
            c.event("spam", &i.to_string());
        }
        let r = c.report();
        assert_eq!(r.counter(flight::DROP_COUNTER), 5);
        // Survives canonicalization: drops are workload facts.
        assert_eq!(r.canonical().counter(flight::DROP_COUNTER), 5);
    }

    #[test]
    fn log_levels_recorded_regardless_of_echo_filter() {
        let c = Collector::new();
        c.warn("w");
        c.info("i");
        c.debug("d");
        c.log("legacy");
        let r = c.report();
        let levels: Vec<LogLevel> = r.logs.iter().map(|l| l.level).collect();
        assert_eq!(
            levels,
            [
                LogLevel::Warn,
                LogLevel::Info,
                LogLevel::Debug,
                LogLevel::Info
            ]
        );
    }

    #[test]
    fn recording_overhead_counts_every_recording_call() {
        assert_eq!(Collector::new().overhead_seconds(), 0.0);
        // Every kind of call that takes the lock to record is timed.
        // Ten calls each, so a coarse clock cannot read all of them as
        // zero.
        type Call = (&'static str, fn(&Collector));
        let calls: [Call; 11] = [
            ("unwatched counter", |c| c.incr("x")),
            ("watched counter", |c| c.incr("quarantine.records")),
            ("gauge", |c| c.gauge("g", 1.0)),
            ("sample", |c| c.record("h", 1.0)),
            ("log", |c| c.log("l")),
            ("event", |c| c.event("e", "d")),
            ("lineage", |c| c.lineage(Subject::Run, quarantine("r"))),
            ("lineage replay", |c| {
                c.absorb_lineage(vec![ProvenanceEntry {
                    subject: Subject::Run,
                    event: quarantine("r"),
                }])
            }),
            ("span", |c| c.span("s").field("k", 1u64)),
            ("absorb", |c| c.absorb(c.shard())),
            ("state replay", |c| {
                c.absorb_state(CollectorState::default())
            }),
        ];
        for (what, call) in calls {
            let c = Collector::new().with_lineage(true);
            for _ in 0..10 {
                call(&c);
            }
            assert!(c.overhead_seconds() > 0.0, "{what} must be timed");
        }
        // Snapshots read what was recorded and stay untimed.
        let c = Collector::new().with_lineage(true);
        let _ = (c.report(), c.state(), c.provenance(), c.flight_snapshot());
        assert_eq!(c.overhead_seconds(), 0.0);
        // A shard's ledger is added on absorb, on top of the absorb's
        // own time.
        let shard = c.shard();
        for _ in 0..100 {
            shard.incr("x");
        }
        let shard_s = shard.overhead_seconds();
        assert!(shard_s > 0.0);
        c.absorb(shard);
        assert!(c.overhead_seconds() > shard_s);
    }

    #[test]
    fn out_of_order_guard_drop_does_not_corrupt_tree() {
        let c = Collector::new();
        let a = c.span("a");
        let b = c.span("b");
        drop(a); // closed before its child's guard
        drop(b);
        let r = c.report();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].children[0].name, "b");
        assert!(r.spans[0].closed && r.spans[0].children[0].closed);
    }
}
