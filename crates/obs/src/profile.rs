//! Self-profiling: phase timers, stage volume and memory gauges, and the
//! aggregated stage × phase view behind `disengage profile`.
//!
//! # Phase model
//!
//! A *phase* is a named piece of work at an explicit *path*: its frame
//! names joined by `;`, root first (`digitize;repair;attempt_2`). The
//! code that does the work times it and its child phases itself, and
//! records each execution with [`record_phase`] as two histogram
//! samples on a collector:
//!
//! * `profile.wall;<path>` — the execution's wall-clock seconds, and
//! * `profile.self;<path>` — wall minus the time spent in child phases.
//!
//! The `;` separator makes the histogram keys themselves a folded-stack
//! corpus: the [`folded_stacks`] exporter emits `path self-microseconds`
//! lines that speedscope and inferno's `flamegraph.pl` consume directly.
//!
//! There is no phase stack and no guard: a path names the work, not the
//! thread that ran it, so the set of recorded paths is the same at any
//! `--jobs`, whichever pool worker ran a document.
//!
//! Phases are *always on* — recording two histogram samples per phase
//! is noise next to the work the phases wrap — but every
//! `profile.`-prefixed metric is wall-clock-derived and therefore
//! stripped by [`TelemetryReport::canonical`], so the byte-identity
//! contracts (any `--jobs`, warm vs cold cache, clean vs chaos) never
//! see it.

use crate::collector::Collector;
use crate::json::Value;
use crate::report::TelemetryReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Namespace prefix shared by every profiler metric, one of the
/// environment-fact namespaces [`TelemetryReport::canonical`] strips.
pub const PROFILE_PREFIX: &str = "profile.";

/// Histogram prefix for per-phase wall seconds.
pub const WALL_PREFIX: &str = "profile.wall;";

/// Histogram prefix for per-phase self seconds (wall minus children).
pub const SELF_PREFIX: &str = "profile.self;";

/// Gauge prefix for a stage's run-wide volume
/// (`profile.volume.<stage>.records`, `.bytes`).
pub const VOLUME_PREFIX: &str = "profile.volume.";

/// Records one execution of the phase at `path` (frame names joined by
/// `;`, root first): `wall` of wall clock, of which `self_time` was
/// not spent in its child phases. A leaf phase passes its wall as its
/// self time.
pub fn record_phase(obs: &Collector, path: &str, wall: Duration, self_time: Duration) {
    debug_assert!(
        path.split(';')
            .all(|frame| !frame.is_empty() && !frame.contains(char::is_whitespace)),
        "phase frames must be non-empty and free of whitespace: {path:?}"
    );
    obs.record(&format!("{WALL_PREFIX}{path}"), wall.as_secs_f64());
    obs.record(&format!("{SELF_PREFIX}{path}"), self_time.as_secs_f64());
}

// ---------------------------------------------------------------------------
// Allocation proxy + peak RSS
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_LIVE: AtomicI64 = AtomicI64::new(0);
static ALLOC_PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

/// Raises the peak-live watermark to at least `live` (CAS-max: racing
/// threads may each try, but the maximum always wins).
fn raise_peak_live(live: i64) {
    let mut peak = ALLOC_PEAK_LIVE.load(Ordering::Relaxed);
    while live > peak {
        match ALLOC_PEAK_LIVE.compare_exchange_weak(
            peak,
            live,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(now) => peak = now,
        }
    }
}

/// A [`GlobalAlloc`] shim over the system allocator that counts
/// allocation calls, cumulative bytes, and the live-byte balance (with
/// its high-water mark) — the zero-dependency allocation proxy.
/// Binaries opt in with `#[global_allocator]`; library users that do
/// not install it simply read zeros.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is relaxed atomic bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            let live = ALLOC_LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed)
                + layout.size() as i64;
            raise_peak_live(live);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
        ALLOC_LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
                ALLOC_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            }
            let delta = new_size as i64 - layout.size() as i64;
            let live = ALLOC_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
            if delta > 0 {
                raise_peak_live(live);
            }
        }
        p
    }
}

/// Totals from [`CountingAlloc`] (zeros when no binary installed it as
/// the global allocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls observed.
    pub calls: u64,
    /// Cumulative bytes requested across those calls (growth only for
    /// reallocs).
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed, clamped at zero —
    /// allocations made before the proxy was installed can free
    /// through it).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` over the process lifetime.
    pub peak_live_bytes: u64,
}

/// Snapshot of the allocation-proxy counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: ALLOC_LIVE.load(Ordering::Relaxed).max(0) as u64,
        peak_live_bytes: ALLOC_PEAK_LIVE.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// The process's peak resident set size in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or when the file is
/// unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Records the process-level memory gauges (`profile.mem.*`) on the
/// collector: peak RSS where available, plus the allocation proxy when
/// a binary installed [`CountingAlloc`].
pub fn record_process_gauges(obs: &Collector) {
    if let Some(rss) = peak_rss_bytes() {
        obs.gauge("profile.mem.peak_rss_bytes", rss as f64);
    }
    let a = alloc_stats();
    if a.calls > 0 {
        obs.gauge("profile.mem.alloc_calls", a.calls as f64);
        obs.gauge("profile.mem.alloc_bytes", a.bytes as f64);
        obs.gauge("profile.mem.live_bytes", a.live_bytes as f64);
        obs.gauge("profile.mem.peak_live_bytes", a.peak_live_bytes as f64);
    }
}

// ---------------------------------------------------------------------------
// Aggregated report
// ---------------------------------------------------------------------------

/// One phase path's aggregate across every thread that recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// `;`-joined frame path.
    pub path: String,
    /// Scope executions.
    pub count: u64,
    /// Total wall seconds (sum over executions).
    pub total_s: f64,
    /// Self seconds (wall minus child phases).
    pub self_s: f64,
    /// Per-execution wall-time quantiles (bucket upper bounds).
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
}

impl PhaseRow {
    /// Nesting depth (0 for roots).
    pub fn depth(&self) -> usize {
        self.path.matches(';').count()
    }

    /// Last path component.
    pub fn leaf(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }
}

/// One pipeline stage's wall time: its root `stage_<name>` phase.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Phase path (`stage_digitize`, …).
    pub name: String,
    /// Wall seconds.
    pub wall_s: f64,
}

/// One pool worker's accounting, supplied by the caller (the `par`
/// crate computes it; `obs` stays dependency-free).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRow {
    /// Worker index.
    pub worker: usize,
    /// Seconds spent running chunks.
    pub busy_s: f64,
    /// Seconds inside pool calls not spent running chunks.
    pub idle_s: f64,
    /// Chunks run by a worker other than the round-robin owner.
    pub steals: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Items executed.
    pub items: u64,
}

/// The aggregated profile: what `disengage profile` renders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Stage wall times from the root `stage_*` phases, each summed
    /// over every shard, in path order.
    pub stages: Vec<StageRow>,
    /// Phase rows sorted by path components (parents before children).
    pub phases: Vec<PhaseRow>,
    /// `profile.throughput.<stage>.<unit>_per_s` rates, name → value:
    /// each `profile.volume.<stage>.<unit>` gauge over the stage's wall.
    pub throughput: Vec<(String, f64)>,
    /// `profile.mem.*` gauges, name → value.
    pub memory: Vec<(String, f64)>,
    /// Per-worker pool accounting (empty when no timeline was taken).
    pub pool: Vec<PoolRow>,
    /// Distribution of pool chunk sizes, `(items, chunks)`.
    pub chunk_sizes: Vec<(usize, u64)>,
}

impl ProfileReport {
    /// Builds the phase/stage/gauge sections from a telemetry
    /// snapshot. Pool rows come from the caller (see [`PoolRow`]).
    pub fn from_report(report: &TelemetryReport) -> ProfileReport {
        let mut phases = Vec::new();
        for (name, wall) in &report.histograms {
            let Some(path) = name.strip_prefix(WALL_PREFIX) else {
                continue;
            };
            let self_s = report
                .histograms
                .get(&format!("{SELF_PREFIX}{path}"))
                .map_or(0.0, |h| h.sum);
            phases.push(PhaseRow {
                path: path.to_owned(),
                count: wall.count,
                total_s: wall.sum,
                self_s,
                p50_s: wall.p50,
                p95_s: wall.p95,
                p99_s: wall.p99,
            });
        }
        phases.sort_by(|a, b| {
            let ka: Vec<&str> = a.path.split(';').collect();
            let kb: Vec<&str> = b.path.split(';').collect();
            ka.cmp(&kb)
        });

        let stages: Vec<StageRow> = phases
            .iter()
            .filter(|r| r.depth() == 0 && r.path.starts_with("stage_"))
            .map(|r| StageRow {
                name: r.path.clone(),
                wall_s: r.total_s,
            })
            .collect();
        // A rate divides the merge's volume by the stage's wall, so a
        // warm replay reports its own rate; a stage with no wall has none.
        let throughput = report
            .gauges
            .iter()
            .filter_map(|(name, &volume)| {
                let (stage, unit) = name.strip_prefix(VOLUME_PREFIX)?.split_once('.')?;
                let wall = stages
                    .iter()
                    .find(|s| s.name.strip_prefix("stage_") == Some(stage))?
                    .wall_s;
                let rate = format!("profile.throughput.{stage}.{unit}_per_s");
                (wall > 0.0).then(|| (rate, volume / wall))
            })
            .collect();
        let memory = report
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("profile.mem."))
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        ProfileReport {
            stages,
            phases,
            throughput,
            memory,
            pool: Vec::new(),
            chunk_sizes: Vec::new(),
        }
    }

    /// The human-readable stage × phase table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("== profile ==\n");
        if !self.stages.is_empty() {
            out.push_str("stages:\n");
            let total: f64 = self.stages.iter().map(|s| s.wall_s).sum();
            for s in &self.stages {
                let pct = if total > 0.0 {
                    100.0 * s.wall_s / total
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<28} {:>10.3} ms {:>6.1}%",
                    s.name,
                    s.wall_s * 1e3,
                    pct
                );
            }
        }
        if !self.phases.is_empty() {
            out.push_str("phases:\n");
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>12} {:>12} {:>6} {:>10} {:>10} {:>10}",
                "phase", "count", "total ms", "self ms", "self%", "p50 ms", "p95 ms", "p99 ms"
            );
            for r in &self.phases {
                let indent = "  ".repeat(r.depth());
                let label = format!("{indent}{}", r.leaf());
                let self_pct = if r.total_s > 0.0 {
                    100.0 * r.self_s / r.total_s
                } else {
                    100.0
                };
                let _ = writeln!(
                    out,
                    "  {:<34} {:>8} {:>12.3} {:>12.3} {:>5.1}% {:>10.4} {:>10.4} {:>10.4}",
                    label,
                    r.count,
                    r.total_s * 1e3,
                    r.self_s * 1e3,
                    self_pct,
                    r.p50_s * 1e3,
                    r.p95_s * 1e3,
                    r.p99_s * 1e3
                );
            }
        }
        if !self.throughput.is_empty() {
            out.push_str("throughput:\n");
            for (name, v) in &self.throughput {
                let short = name.trim_start_matches("profile.throughput.");
                let _ = writeln!(out, "  {short:<40} {v:>14.1}");
            }
        }
        if !self.pool.is_empty() {
            out.push_str("pool workers:\n");
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>10} {:>7} {:>8} {:>8} {:>8}",
                "worker", "busy ms", "idle ms", "busy%", "chunks", "items", "steals"
            );
            for w in &self.pool {
                let span = w.busy_s + w.idle_s;
                let pct = if span > 0.0 {
                    100.0 * w.busy_s / span
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<8} {:>10.3} {:>10.3} {:>6.1}% {:>8} {:>8} {:>8}",
                    w.worker,
                    w.busy_s * 1e3,
                    w.idle_s * 1e3,
                    pct,
                    w.chunks,
                    w.items,
                    w.steals
                );
            }
            if !self.chunk_sizes.is_empty() {
                out.push_str("  chunk sizes: ");
                let parts: Vec<String> = self
                    .chunk_sizes
                    .iter()
                    .map(|(len, n)| format!("{len} items ×{n}"))
                    .collect();
                out.push_str(&parts.join(", "));
                out.push('\n');
            }
        }
        if !self.memory.is_empty() {
            out.push_str("memory:\n");
            for (name, v) in &self.memory {
                let short = name.trim_start_matches("profile.mem.");
                let _ = writeln!(out, "  {short:<40} {v:>14.0}");
            }
        }
        out
    }

    /// The JSON document model behind `--profile=json`.
    pub fn to_value(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_owned(), Value::Str(s.name.clone())),
                    ("wall_s".to_owned(), Value::num(s.wall_s)),
                ])
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("path".to_owned(), Value::Str(r.path.clone())),
                    ("count".to_owned(), Value::num(r.count as f64)),
                    ("total_s".to_owned(), Value::num(r.total_s)),
                    ("self_s".to_owned(), Value::num(r.self_s)),
                    ("p50_s".to_owned(), Value::num(r.p50_s)),
                    ("p95_s".to_owned(), Value::num(r.p95_s)),
                    ("p99_s".to_owned(), Value::num(r.p99_s)),
                ])
            })
            .collect();
        let gauges = |pairs: &[(String, f64)]| {
            Value::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::num(*v)))
                    .collect(),
            )
        };
        let pool = self
            .pool
            .iter()
            .map(|w| {
                Value::Obj(vec![
                    ("worker".to_owned(), Value::num(w.worker as f64)),
                    ("busy_s".to_owned(), Value::num(w.busy_s)),
                    ("idle_s".to_owned(), Value::num(w.idle_s)),
                    ("steals".to_owned(), Value::num(w.steals as f64)),
                    ("chunks".to_owned(), Value::num(w.chunks as f64)),
                    ("items".to_owned(), Value::num(w.items as f64)),
                ])
            })
            .collect();
        let chunk_sizes = self
            .chunk_sizes
            .iter()
            .map(|(len, n)| Value::Arr(vec![Value::num(*len as f64), Value::num(*n as f64)]))
            .collect();
        Value::Obj(vec![
            ("stages".to_owned(), Value::Arr(stages)),
            ("phases".to_owned(), Value::Arr(phases)),
            ("throughput".to_owned(), gauges(&self.throughput)),
            ("memory".to_owned(), gauges(&self.memory)),
            ("pool".to_owned(), Value::Arr(pool)),
            ("chunk_sizes".to_owned(), Value::Arr(chunk_sizes)),
        ])
    }

    /// Renders [`ProfileReport::to_value`] as JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }
}

// ---------------------------------------------------------------------------
// Folded stacks
// ---------------------------------------------------------------------------

/// Exports the profiler's self-time histograms as folded stacks — one
/// `frame1;frame2 microseconds` line per phase path, the text format
/// speedscope and inferno/`flamegraph.pl` consume. Sub-microsecond but
/// non-empty phases round up to 1 so no recorded path disappears.
pub fn folded_stacks(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for (name, h) in &report.histograms {
        let Some(path) = name.strip_prefix(SELF_PREFIX) else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        let usec = ((h.sum * 1e6).round() as u64).max(1);
        let _ = writeln!(out, "{path} {usec}");
    }
    out
}

/// Structural validation of a folded-stack document: every line must
/// be `frame(;frame)* <positive integer>`, frames non-empty and free
/// of whitespace. Returns the number of stack lines.
pub fn validate_folded(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no space between stack and value"))?;
        let v: u64 = value
            .parse()
            .map_err(|_| format!("line {n}: value {value:?} is not an unsigned integer"))?;
        if v == 0 {
            return Err(format!("line {n}: zero-weight stack"));
        }
        if stack.is_empty() {
            return Err(format!("line {n}: empty stack"));
        }
        for frame in stack.split(';') {
            if frame.is_empty() {
                return Err(format!("line {n}: empty frame in {stack:?}"));
            }
            if frame.chars().any(char::is_whitespace) {
                return Err(format!("line {n}: whitespace inside frame {frame:?}"));
            }
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("no stack lines".to_owned());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spin(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(ms) {
            std::hint::black_box(0u64);
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_phase_records_its_wall_and_self_time_at_its_path() {
        let obs = Collector::new();
        record_phase(&obs, "digitize;repair", ms(50), ms(20));
        record_phase(&obs, "digitize;repair", ms(30), ms(10));
        record_phase(&obs, "digitize;repair;attempt_1", ms(40), ms(40));
        let r = obs.report();
        let wall = r.histogram("profile.wall;digitize;repair").unwrap();
        let self_s = r.histogram("profile.self;digitize;repair").unwrap();
        assert_eq!((wall.count, self_s.count), (2, 2));
        assert!((wall.sum - 0.080).abs() < 1e-12, "{}", wall.sum);
        assert!((self_s.sum - 0.030).abs() < 1e-12, "{}", self_s.sum);
        let leaf = r.histogram("profile.self;digitize;repair;attempt_1");
        assert_eq!(leaf.map(|h| h.count), Some(1));
        // The path is all there is: no parent phase is implied.
        assert!(r.histogram("profile.wall;digitize").is_none());
    }

    #[test]
    fn folded_export_round_trips_validation() {
        let obs = Collector::new();
        record_phase(&obs, "digitize", ms(3), ms(1));
        record_phase(&obs, "digitize;rasterize", ms(2), ms(2));
        let folded = folded_stacks(&obs.report());
        let lines = validate_folded(&folded).expect("folded output validates");
        assert_eq!(lines, 2, "one line per recorded path: {folded:?}");
        assert!(folded.contains("digitize;rasterize 2000\n"), "{folded:?}");
    }

    #[test]
    fn validate_folded_rejects_malformed_documents() {
        assert!(validate_folded("").is_err());
        assert!(validate_folded("noval\n").is_err());
        assert!(validate_folded("a;b zero\n").is_err());
        assert!(validate_folded("a;b 0\n").is_err());
        assert!(validate_folded(";b 3\n").is_err());
        assert!(validate_folded("a;;b 3\n").is_err());
        assert_eq!(validate_folded("a;b 3\nc 1\n"), Ok(2));
    }

    #[test]
    fn report_aggregates_rows_and_coverage() {
        let obs = Collector::new();
        for _ in 0..3 {
            record_phase(&obs, "digitize;rasterize", ms(3), ms(3));
            record_phase(&obs, "digitize;correlate", ms(3), ms(3));
            let overhead = Duration::from_micros(100);
            record_phase(&obs, "digitize", ms(6) + overhead, overhead);
        }
        let report = obs.report();
        let prof = ProfileReport::from_report(&report);
        let idx = |p: &str| prof.phases.iter().position(|r| r.path == p).unwrap();
        let root = &prof.phases[idx("digitize")];
        assert_eq!(root.count, 3);
        let child = &prof.phases[idx("digitize;rasterize")];
        assert_eq!(child.count, 3);
        // Parents sort before children.
        assert!(idx("digitize") < idx("digitize;rasterize"));
        // Nearly all of the root's wall is in the two named children.
        let named = child.total_s + prof.phases[idx("digitize;correlate")].total_s;
        assert!(
            named / root.total_s > 0.9,
            "coverage {}",
            named / root.total_s
        );
        let table = prof.render_table();
        assert!(table.contains("rasterize"));
        assert!(table.contains("self%"));
        // JSON round-trips through the in-tree parser.
        let parsed = Value::parse(&prof.to_json()).expect("valid json");
        assert!(parsed.get("phases").is_some());
    }

    #[test]
    fn stage_rows_and_rates_read_the_stage_phase_not_the_span() {
        let obs = Collector::new();
        {
            let _span = obs.span("stage_i_ocr");
            spin(20);
        }
        for _ in 0..2 {
            record_phase(&obs, "stage_digitize", ms(1), ms(1));
        }
        record_phase(&obs, "stage_digitize;cache_lookup", ms(1), ms(1));
        obs.gauge("profile.volume.digitize.records", 10.0);
        // No `stage_tag` phase: no wall, so no rate.
        obs.gauge("profile.volume.tag.records", 10.0);
        let prof = ProfileReport::from_report(&obs.report());
        let phase = prof
            .phases
            .iter()
            .find(|r| r.path == "stage_digitize")
            .expect("stage_digitize phase");
        assert_eq!(
            prof.stages,
            [StageRow {
                name: "stage_digitize".to_owned(),
                wall_s: phase.total_s,
            }]
        );
        assert!((phase.total_s - 0.002).abs() < 1e-12, "{}", phase.total_s);
        let [(name, rate)] = &prof.throughput[..] else {
            panic!("one rate expected: {:?}", prof.throughput);
        };
        assert_eq!(name, "profile.throughput.digitize.records_per_s");
        assert!((rate - 10.0 / phase.total_s).abs() < 1e-9, "{rate}");
        assert!(prof.render_table().contains("digitize.records_per_s"));
    }

    #[test]
    fn alloc_stats_read_without_global_allocator() {
        // The library itself does not install CountingAlloc; the
        // counters must still be readable (zero or whatever a binary
        // using the shim accumulated).
        let a = alloc_stats();
        let b = alloc_stats();
        assert!(b.calls >= a.calls);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_bytes().unwrap() > 0);
    }
}
