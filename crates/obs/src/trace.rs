//! Chrome trace-event export: the run's span tree plus per-worker pool
//! tasks as a `trace.json` loadable in `chrome://tracing` / Perfetto.
//!
//! The exporter emits the simplest widely-supported subset of the
//! trace-event format: a JSON array of complete duration events
//! (`"ph":"X"`), each carrying exactly the required keys `name`, `ph`,
//! `ts`, `dur`, `pid`, `tid`. Span-tree events render on `tid` 0;
//! pool tasks render on `tid` worker+1 so every worker gets its own
//! timeline row. Timestamps are microseconds since the collector's
//! epoch — this artifact is wall-clock by nature and therefore *not*
//! part of the byte-identity determinism contract (the lineage JSONL
//! is; see [`crate::provenance`]).

use crate::json::Value;
use crate::report::{SpanNode, TelemetryReport};

/// One pool task interval, as reported by the executor's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTask {
    /// Display label (stage + chunk).
    pub label: String,
    /// Worker index that ran the task (0-based).
    pub worker: usize,
    /// Start, seconds since the collector epoch.
    pub start_s: f64,
    /// End, seconds since the collector epoch.
    pub end_s: f64,
}

fn micros(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6).round() as u64
}

fn duration_event(name: &str, ts: u64, dur: u64, tid: u64) -> Value {
    Value::Obj(vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("ph".to_owned(), Value::Str("X".to_owned())),
        ("ts".to_owned(), Value::Num(ts as f64)),
        ("dur".to_owned(), Value::Num(dur as f64)),
        ("pid".to_owned(), Value::Num(1.0)),
        ("tid".to_owned(), Value::Num(tid as f64)),
    ])
}

fn walk(span: &SpanNode, events: &mut Vec<(u64, u64, Value)>) {
    let ts = micros(span.start_s);
    let dur = micros(span.duration_s);
    events.push((0, ts, duration_event(&span.name, ts, dur, 0)));
    for child in &span.children {
        walk(child, events);
    }
}

/// Builds the trace-event array: the report's span forest on `tid` 0
/// plus one `ph:"X"` event per pool task on `tid` worker+1, sorted by
/// (`tid`, `ts`) so each timeline row is monotone.
pub fn chrome_trace(report: &TelemetryReport, tasks: &[TraceTask]) -> Value {
    let mut events: Vec<(u64, u64, Value)> = Vec::new();
    for span in &report.spans {
        walk(span, &mut events);
    }
    for task in tasks {
        let tid = task.worker as u64 + 1;
        let ts = micros(task.start_s);
        let dur = micros((task.end_s - task.start_s).max(0.0));
        events.push((tid, ts, duration_event(&task.label, ts, dur, tid)));
    }
    events.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    Value::Arr(events.into_iter().map(|(_, _, v)| v).collect())
}

/// [`chrome_trace`] rendered to the `trace.json` string.
pub fn render_chrome_trace(report: &TelemetryReport, tasks: &[TraceTask]) -> String {
    chrome_trace(report, tasks).render()
}

/// Validates a `trace.json` document: a JSON array of objects, each
/// with the six required keys, `ph:"X"`, and non-negative `ts`/`dur`
/// monotone in `ts` per `tid`. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let value = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Arr(events) = value else {
        return Err("trace must be a JSON array".to_owned());
    };
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let Value::Obj(fields) = event else {
            return Err(format!("event {i}: not an object"));
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if get(key).is_none() {
                return Err(format!("event {i}: missing required key `{key}`"));
            }
        }
        match get("ph") {
            Some(Value::Str(ph)) if ph == "X" => {}
            _ => return Err(format!("event {i}: ph must be \"X\"")),
        }
        let num = |key: &str| match get(key) {
            Some(Value::Num(n)) => Ok(*n),
            _ => Err(format!("event {i}: `{key}` must be a number")),
        };
        let (ts, dur, tid) = (num("ts")?, num("dur")?, num("tid")?);
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur"));
        }
        let prev = last_ts.entry(tid as u64).or_insert(0.0);
        if ts < *prev {
            return Err(format!("event {i}: ts regresses on tid {tid}"));
        }
        *prev = ts;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    fn sample() -> (TelemetryReport, Vec<TraceTask>) {
        let obs = Collector::new();
        {
            let _root = obs.span("pipeline");
            let _child = obs.span("stage_ii_parse");
        }
        let tasks = vec![
            TraceTask {
                label: "stage_iii_tag#1".into(),
                worker: 1,
                start_s: 0.002,
                end_s: 0.003,
            },
            TraceTask {
                label: "stage_iii_tag#0".into(),
                worker: 0,
                start_s: 0.001,
                end_s: 0.004,
            },
        ];
        (obs.report(), tasks)
    }

    #[test]
    fn events_carry_required_keys_and_validate() {
        let (report, tasks) = sample();
        let rendered = render_chrome_trace(&report, &tasks);
        let n = validate_chrome_trace(&rendered).expect("exporter output is valid");
        assert_eq!(n, 4); // 2 spans + 2 tasks
        let Value::Arr(events) = Value::parse(&rendered).unwrap() else {
            panic!("array")
        };
        for event in &events {
            let Value::Obj(fields) = event else {
                panic!("object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "ph", "ts", "dur", "pid", "tid"]);
        }
    }

    #[test]
    fn tasks_land_on_per_worker_tids_sorted_monotone() {
        let (report, tasks) = sample();
        let Value::Arr(events) = chrome_trace(&report, &tasks) else {
            panic!("array")
        };
        let tid_ts: Vec<(f64, f64)> = events
            .iter()
            .map(|e| {
                let Value::Obj(fields) = e else {
                    panic!("object")
                };
                let num = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                    Some((_, Value::Num(n))) => *n,
                    _ => panic!("missing {key}"),
                };
                (num("tid"), num("ts"))
            })
            .collect();
        // Workers 0 and 1 map to tids 1 and 2; spans sit on tid 0.
        let tids: Vec<f64> = tid_ts.iter().map(|(t, _)| *t).collect();
        assert_eq!(tids, [0.0, 0.0, 1.0, 2.0]);
        for pair in tid_ts.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 <= pair[1].1, "ts monotone within a tid");
            }
        }
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[{\"name\":\"x\"}]").is_err());
        assert!(validate_chrome_trace(
            "[{\"name\":\"x\",\"ph\":\"B\",\"ts\":0,\"dur\":0,\"pid\":1,\"tid\":0}]"
        )
        .is_err());
        assert!(validate_chrome_trace(
            "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":-1,\"dur\":0,\"pid\":1,\"tid\":0}]"
        )
        .is_err());
        assert_eq!(
            validate_chrome_trace(
                "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":0}]"
            ),
            Ok(1)
        );
    }
}
