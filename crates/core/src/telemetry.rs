//! Telemetry helpers for Stage IV and run-level self-checks.
//!
//! The pipeline's counters are recorded at independent points (Stage I
//! generation, Stage II per-line parsing, Stage III verdicts), so
//! cross-checking them catches real wiring bugs: a stage silently
//! dropping records, a counter incremented on the wrong branch, a
//! filter applied twice. [`reconcile`] states those identities; the
//! `repro` harness refuses to bless a run that violates them.
//!
//! The worker pool's [`TaskTimeline`] has two views here: the
//! Chrome-trace export ([`execution_trace_json`]) and the task stamps a
//! postmortem flight dump appends ([`task_stamps`]).

use disengage_obs::{Collector, FlightEvent, FlightKind, FlightSnapshot, TelemetryReport};
use disengage_par::TaskTimeline;

/// Runs `f` inside a span named `name` — the one-liner for wrapping
/// Stage IV artifacts (tables, figures, exports) at their call sites.
///
/// # Examples
///
/// ```
/// use disengage_core::telemetry::timed;
/// let obs = disengage_obs::Collector::new();
/// let four = timed(&obs, "stage_iv_example", || 2 + 2);
/// assert_eq!(four, 4);
/// assert!(obs.report().find_span("stage_iv_example").is_some());
/// ```
pub fn timed<T>(obs: &Collector, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = obs.span(name);
    f()
}

/// Renders a run's execution timeline as Chrome trace-event JSON: the
/// telemetry span tree lands on `tid 0`, every worker-pool task on
/// `tid worker + 1`, so chrome://tracing (or Perfetto) shows the stage
/// structure above per-worker swimlanes. Tasks are labeled
/// `<stage>#<chunk>`. Timestamps are wall-clock — the export is for
/// humans and deliberately outside the byte-identity contract that
/// covers the lineage log.
pub fn execution_trace_json(report: &TelemetryReport, timeline: &TaskTimeline) -> String {
    let tasks: Vec<disengage_obs::TraceTask> = timeline
        .tasks()
        .iter()
        .map(|t| disengage_obs::TraceTask {
            label: format!("{}#{}", t.label, t.chunk),
            worker: t.worker,
            start_s: t.start_s,
            end_s: t.end_s,
        })
        .collect();
    disengage_obs::render_chrome_trace(report, &tasks)
}

/// The pool tasks a full (postmortem) flight dump appends: the
/// timeline's last [`disengage_par::TASK_TAIL`] tasks as untimed
/// `task` events, oldest first, and how many earlier tasks that
/// leaves out. Works on a disabled timeline too, which keeps exactly
/// that tail, so a crash dump names the last pool tasks of any run.
pub fn task_stamps(timeline: &TaskTimeline) -> FlightSnapshot {
    let (tail, dropped) = timeline.task_tail();
    FlightSnapshot {
        events: tail
            .into_iter()
            .map(|t| FlightEvent {
                t_s: 0.0,
                kind: FlightKind::Task {
                    label: t.label,
                    worker: t.worker,
                    chunk: t.chunk,
                    items: t.len,
                },
            })
            .collect(),
        dropped,
    }
}

/// Checks the cross-stage counter identities on a pipeline telemetry
/// snapshot, returning one human-readable line per violation (empty
/// means the run reconciles).
///
/// Always checked:
///
/// * every attempted disengagement line parsed or failed, never both:
///   `parse.dis.lines == parse.dis.parsed + parse.dis.failed`;
/// * every parsed disengagement received exactly one Stage III verdict:
///   `nlp.tagged == parse.dis.parsed`;
/// * per-tag verdict counters partition the verdicts:
///   `nlp.tagged == Σ nlp.tag.*`.
///
/// Chaos campaigns (counter `chaos.injected.total > 0`) add a fourth
/// identity — every injected fault received exactly one outcome:
/// `chaos.injected.total == chaos.outcome.corrected +
/// chaos.outcome.quarantined + chaos.outcome.absorbed`.
///
/// I/O fault campaigns (counter `cache.io.fault.total > 0`) add the
/// analogous store identity — every injected I/O fault was either
/// retried away or absorbed by a degraded path, never lost:
/// `cache.io.fault.total == cache.io.retried + cache.io.absorbed`.
///
/// Under passthrough OCR (gauge `pipeline.passthrough == 1`) the scan
/// is pristine, so recovery must be exact as well:
/// `corpus.disengagements == parse.dis.lines` and
/// `corpus.accidents == parse.acc.parsed`. Simulated noise legitimately
/// loses lines — and chaos corrupts them on purpose — so those
/// identities are skipped there.
pub fn reconcile(report: &TelemetryReport) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check = |label: &str, left: (&str, u64), right: (&str, u64)| {
        if left.1 != right.1 {
            violations.push(format!(
                "{label}: {} = {} but {} = {}",
                left.0, left.1, right.0, right.1
            ));
        }
    };

    let lines = report.counter("parse.dis.lines");
    let parsed = report.counter("parse.dis.parsed");
    let failed = report.counter("parse.dis.failed");
    check(
        "stage II line accounting",
        ("parse.dis.lines", lines),
        ("parse.dis.parsed + parse.dis.failed", parsed + failed),
    );
    check(
        "stage III coverage",
        ("nlp.tagged", report.counter("nlp.tagged")),
        ("parse.dis.parsed", parsed),
    );
    check(
        "stage III tag partition",
        ("nlp.tagged", report.counter("nlp.tagged")),
        ("sum(nlp.tag.*)", report.counter_prefix_sum("nlp.tag.")),
    );

    // Chaos runs carry a fourth identity: every injected fault got
    // exactly one outcome. Deliberate corruption also voids the
    // pristine-scan recovery guarantees below, so they are skipped.
    let injected = report.counter("chaos.injected.total");
    if injected > 0 {
        let corrected = report.counter("chaos.outcome.corrected");
        let quarantined = report.counter("chaos.outcome.quarantined");
        let absorbed = report.counter("chaos.outcome.absorbed");
        check(
            "chaos outcome partition",
            ("chaos.injected.total", injected),
            (
                "chaos.outcome.corrected + .quarantined + .absorbed",
                corrected + quarantined + absorbed,
            ),
        );
    }

    // I/O fault campaigns: every injected store fault resolved as
    // exactly one of retried (the retry absorbed it) or absorbed (a
    // degraded path — recompute, skipped eviction, litter).
    let io_faults = report.counter("cache.io.fault.total");
    if io_faults > 0 {
        check(
            "cache io fault accounting",
            ("cache.io.fault.total", io_faults),
            (
                "cache.io.retried + cache.io.absorbed",
                report.counter("cache.io.retried") + report.counter("cache.io.absorbed"),
            ),
        );
    }

    if report.gauge("pipeline.passthrough") == Some(1.0) && injected == 0 {
        check(
            "passthrough disengagement recovery",
            ("corpus.disengagements", report.counter("corpus.disengagements")),
            ("parse.dis.lines", lines),
        );
        check(
            "passthrough accident recovery",
            ("corpus.accidents", report.counter("corpus.accidents")),
            ("parse.acc.parsed", report.counter("parse.acc.parsed")),
        );
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> TelemetryReport {
        let mut r = TelemetryReport::default();
        r.counters.insert("parse.dis.lines".into(), 10);
        r.counters.insert("parse.dis.parsed".into(), 8);
        r.counters.insert("parse.dis.failed".into(), 2);
        r.counters.insert("nlp.tagged".into(), 8);
        r.counters.insert("nlp.tag.software".into(), 5);
        r.counters.insert("nlp.tag.unknown_t".into(), 3);
        r
    }

    #[test]
    fn balanced_report_reconciles() {
        assert!(reconcile(&balanced()).is_empty());
    }

    #[test]
    fn dropped_verdict_detected() {
        let mut r = balanced();
        r.counters.insert("nlp.tagged".into(), 7);
        let v = reconcile(&r);
        assert_eq!(v.len(), 2, "{v:?}"); // coverage AND partition break
        assert!(v[0].contains("stage III coverage"));
    }

    #[test]
    fn lost_line_detected() {
        let mut r = balanced();
        r.counters.insert("parse.dis.lines".into(), 11);
        let v = reconcile(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("line accounting"));
    }

    #[test]
    fn passthrough_recovery_checked_only_when_flagged() {
        let mut r = balanced();
        r.counters.insert("corpus.disengagements".into(), 99);
        assert!(reconcile(&r).is_empty(), "not flagged as passthrough");
        r.gauges.insert("pipeline.passthrough".into(), 1.0);
        let v = reconcile(&r);
        assert!(v.iter().any(|m| m.contains("disengagement recovery")), "{v:?}");
    }

    #[test]
    fn chaos_partition_checked_only_when_injecting() {
        let mut r = balanced();
        assert!(reconcile(&r).is_empty());
        r.counters.insert("chaos.injected.total".into(), 12);
        r.counters.insert("chaos.outcome.corrected".into(), 5);
        r.counters.insert("chaos.outcome.quarantined".into(), 4);
        r.counters.insert("chaos.outcome.absorbed".into(), 3);
        assert!(reconcile(&r).is_empty(), "{:?}", reconcile(&r));
        r.counters.insert("chaos.outcome.absorbed".into(), 2);
        let v = reconcile(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("chaos outcome partition"));
    }

    #[test]
    fn chaos_voids_passthrough_recovery_checks() {
        let mut r = balanced();
        r.gauges.insert("pipeline.passthrough".into(), 1.0);
        r.counters.insert("corpus.disengagements".into(), 99);
        assert!(!reconcile(&r).is_empty(), "mismatch should trip cleanly");
        // Same mismatch under an active chaos plan: corruption is
        // deliberate, the recovery identity no longer applies.
        r.counters.insert("chaos.injected.total".into(), 3);
        r.counters.insert("chaos.outcome.corrected".into(), 3);
        assert!(reconcile(&r).is_empty(), "{:?}", reconcile(&r));
    }

    #[test]
    fn io_fault_accounting_checked_only_when_injecting() {
        let mut r = balanced();
        assert!(reconcile(&r).is_empty());
        r.counters.insert("cache.io.fault.total".into(), 9);
        r.counters.insert("cache.io.retried".into(), 6);
        r.counters.insert("cache.io.absorbed".into(), 3);
        assert!(reconcile(&r).is_empty(), "{:?}", reconcile(&r));
        // A lost fault (fired but neither retried nor absorbed) trips.
        r.counters.insert("cache.io.absorbed".into(), 2);
        let v = reconcile(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cache io fault accounting"));
    }

    #[test]
    fn timed_closes_span_around_result() {
        let obs = Collector::new();
        let n = timed(&obs, "work", || 41 + 1);
        assert_eq!(n, 42);
        let span = obs.report().find_span("work").unwrap().clone();
        assert!(span.closed);
    }
}
