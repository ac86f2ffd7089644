//! `disengage-obs` — the toolkit's observability substrate.
//!
//! The paper's contribution is a measurement *pipeline* (OCR → parse →
//! NLP tag → statistics); this crate makes the reproduction measurable
//! in the same spirit. It is dependency-free (std only) and built
//! around an explicit [`Collector`] — no global state, no macros:
//!
//! * **Spans** — named, hierarchical wall-clock timings with key/value
//!   fields ([`Collector::span`] returns a guard that closes the span
//!   on drop).
//! * **Counters / gauges** — monotonically accumulated `u64` counts
//!   ([`Collector::add`]) and last-write-wins `f64` values
//!   ([`Collector::gauge`]).
//! * **Histograms** — log-bucketed (1–2–5 per decade) distributions for
//!   durations, error rates, and vote margins
//!   ([`Collector::record`]).
//! * **Logs** — timestamped progress events ([`Collector::log`]),
//!   optionally echoed to stderr for CLI progress lines.
//! * **Lineage** — typed per-record provenance events
//!   ([`Collector::lineage`]) on a collector built
//!   [`Collector::with_lineage`], read back as a [`ProvenanceLog`]
//!   ([`Collector::provenance`]).
//! * **Phases** — self-profiler timings at explicit `;`-joined paths
//!   ([`profile::record_phase`]), kept as `profile.wall;<path>` and
//!   `profile.self;<path>` histograms.
//!
//! A collector keeps its spans, metrics and logs in one
//! [`CollectorState`]: [`Collector::state`] copies it for the artifact
//! cache, and [`Collector::absorb_state`] folds a copy back through the
//! same fold [`Collector::absorb`] applies to a shard.
//!
//! A [`Collector::report`] snapshot ([`TelemetryReport`]) renders as a
//! plaintext span tree ([`TelemetryReport::render_tree`]) or as JSON
//! ([`TelemetryReport::to_json`]); [`json::Value::parse`] reads the
//! JSON back for machine consumers (the `repro` harness emits
//! `repro_metrics.json` this way).
//!
//! # Examples
//!
//! ```
//! use disengage_obs::Collector;
//!
//! let obs = Collector::new();
//! {
//!     let mut stage = obs.span("stage_i_corpus");
//!     stage.field("records", 5328u64);
//!     obs.add("corpus.disengagements", 5328);
//!     obs.record("ocr.cer", 0.004);
//! }
//! let report = obs.report();
//! assert_eq!(report.counter("corpus.disengagements"), 5328);
//! assert!(report.render_tree().contains("stage_i_corpus"));
//! ```

pub mod collector;
pub mod export;
pub mod flight;
pub mod health;
pub mod hist;
pub mod json;
pub mod profile;
pub mod prom;
pub mod provenance;
pub mod report;
pub mod trace;

pub use collector::{Collector, CollectorState, SpanGuard, SpanState};
pub use flight::{FlightDump, FlightEvent, FlightKind, FlightRing, FlightSnapshot};
pub use health::{HealthReport, HealthRule};
pub use hist::{Histogram, HistogramState, HistogramSummary};
pub use profile::{
    folded_stacks, validate_folded, CountingAlloc, PhaseRow, PoolRow, ProfileReport, StageRow,
};
pub use prom::{render_prometheus, validate_prometheus};
pub use provenance::{ProvenanceEntry, ProvenanceEvent, ProvenanceLog, RecordId, Subject};
pub use report::{FieldValue, LogEvent, LogLevel, SpanNode, TelemetryReport};
pub use trace::{chrome_trace, render_chrome_trace, validate_chrome_trace, TraceTask};

/// Normalizes a display name into a metric-key segment: lowercase,
/// with every non-alphanumeric run collapsed to one underscore
/// (`"Mercedes-Benz"` → `"mercedes_benz"`).
///
/// # Examples
///
/// ```
/// assert_eq!(disengage_obs::key_segment("Mercedes-Benz"), "mercedes_benz");
/// assert_eq!(disengage_obs::key_segment("Computer System"), "computer_system");
/// ```
pub fn key_segment(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_owned()
}

#[cfg(test)]
mod key_tests {
    #[test]
    fn segments_normalize() {
        assert_eq!(super::key_segment("GM Cruise"), "gm_cruise");
        assert_eq!(super::key_segment("Unknown-T"), "unknown_t");
        assert_eq!(super::key_segment("--x--"), "x");
        assert_eq!(super::key_segment(""), "");
    }
}
