//! Exporters: plaintext span tree and JSON.

use crate::json::Value;
use crate::report::{FieldValue, SpanNode, TelemetryReport};
use std::fmt::Write as _;

impl TelemetryReport {
    /// Renders the human-readable telemetry view: the span tree with
    /// durations and fields, followed by counters, gauges, and
    /// histogram summaries.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry ==\n");
        for span in &self.spans {
            render_span(span, 0, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {value:.6}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={} mean={:.6} min={:.6} max={:.6}",
                    h.count, h.mean, h.min, h.max
                );
                let _ = writeln!(
                    out,
                    "  {blank:<40} p50={:.6} p95={:.6} p99={:.6}",
                    h.p50,
                    h.p95,
                    h.p99,
                    blank = ""
                );
            }
        }
        out
    }

    /// Renders the machine-readable JSON document (the
    /// `repro_metrics.json` format).
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// The JSON document model behind [`TelemetryReport::to_json`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "spans".to_owned(),
                Value::Arr(self.spans.iter().map(span_value).collect()),
            ),
            (
                "counters".to_owned(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::num(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Value::Obj(vec![
                                    ("count".to_owned(), Value::Num(h.count as f64)),
                                    ("sum".to_owned(), Value::num(h.sum)),
                                    ("mean".to_owned(), Value::num(h.mean)),
                                    ("min".to_owned(), Value::num(h.min)),
                                    ("max".to_owned(), Value::num(h.max)),
                                    ("p50".to_owned(), Value::num(h.p50)),
                                    ("p95".to_owned(), Value::num(h.p95)),
                                    ("p99".to_owned(), Value::num(h.p99)),
                                    (
                                        "buckets".to_owned(),
                                        Value::Arr(
                                            h.buckets
                                                .iter()
                                                .map(|&(bound, count)| {
                                                    Value::Arr(vec![
                                                        Value::num(bound),
                                                        Value::Num(count as f64),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "logs".to_owned(),
                Value::Arr(
                    self.logs
                        .iter()
                        .map(|l| {
                            Value::Obj(vec![
                                ("t_s".to_owned(), Value::num(l.t_s)),
                                (
                                    "level".to_owned(),
                                    Value::Str(
                                        match l.level {
                                            crate::report::LogLevel::Warn => "warn",
                                            crate::report::LogLevel::Info => "info",
                                            crate::report::LogLevel::Debug => "debug",
                                        }
                                        .to_owned(),
                                    ),
                                ),
                                ("message".to_owned(), Value::Str(l.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn span_value(span: &SpanNode) -> Value {
    let mut pairs = vec![
        ("name".to_owned(), Value::Str(span.name.clone())),
        ("start_s".to_owned(), Value::num(span.start_s)),
        ("duration_s".to_owned(), Value::num(span.duration_s)),
        ("closed".to_owned(), Value::Bool(span.closed)),
    ];
    if !span.fields.is_empty() {
        pairs.push((
            "fields".to_owned(),
            Value::Obj(
                span.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), field_value(v)))
                    .collect(),
            ),
        ));
    }
    if !span.children.is_empty() {
        pairs.push((
            "children".to_owned(),
            Value::Arr(span.children.iter().map(span_value).collect()),
        ));
    }
    Value::Obj(pairs)
}

fn field_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(x) => Value::Num(*x as f64),
        FieldValue::I64(x) => Value::Num(*x as f64),
        FieldValue::F64(x) => Value::num(*x),
        FieldValue::Str(s) => Value::Str(s.clone()),
        FieldValue::Bool(b) => Value::Bool(*b),
    }
}

fn render_span(span: &SpanNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{name} {ms:.3} ms",
        name = span.name,
        ms = span.duration_s * 1e3
    );
    if !span.closed {
        out.push_str(" (open)");
    }
    for (key, value) in &span.fields {
        let _ = write!(out, " {key}={value}");
    }
    out.push('\n');
    for child in &span.children {
        render_span(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use crate::json::Value;
    use crate::Collector;

    fn sample_report() -> crate::TelemetryReport {
        let c = Collector::new();
        {
            let mut pipeline = c.span("pipeline");
            pipeline.field("scale", 1.0f64);
            {
                let mut s1 = c.span("stage_i_corpus");
                s1.field("records", 5328u64);
                c.add("corpus.disengagements", 5328);
            }
            {
                let _s2 = c.span("stage_ii_parse");
                c.add("parse.dis.parsed", 5320);
                c.add("parse.dis.failed", 8);
            }
            c.gauge("nlp.unknown_t_rate", 0.31);
            c.record("ocr.cer", 0.002);
            c.record("ocr.cer", 0.004);
            c.log("pipeline done");
        }
        c.report()
    }

    #[test]
    fn tree_renders_hierarchy_and_metrics() {
        let text = sample_report().render_tree();
        assert!(text.contains("pipeline"));
        assert!(text.contains("  stage_i_corpus"), "{text}");
        assert!(text.contains("records=5328"));
        assert!(text.contains("parse.dis.parsed"));
        assert!(text.contains("nlp.unknown_t_rate"));
        assert!(text.contains("ocr.cer"));
        // Each histogram surfaces its quantile triple on its own line.
        assert!(text.contains("p50="), "{text}");
        assert!(text.contains("p95="), "{text}");
        assert!(text.contains("p99="), "{text}");
    }

    #[test]
    fn json_parses_back_with_identical_structure() {
        let report = sample_report();
        let v = Value::parse(&report.to_json()).expect("exporter emits valid JSON");
        // Round-trip: the parsed document equals the document model.
        assert_eq!(v, report.to_value());
        // And the key navigation paths machine consumers rely on work.
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("pipeline"));
        let children = spans[0].get("children").unwrap().as_arr().unwrap();
        assert_eq!(children.len(), 2);
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("corpus.disengagements")
                .unwrap()
                .as_f64(),
            Some(5328.0)
        );
        let cer = v.get("histograms").unwrap().get("ocr.cer").unwrap();
        assert_eq!(cer.get("count").unwrap().as_f64(), Some(2.0));
        let logs = v.get("logs").unwrap().as_arr().unwrap();
        assert_eq!(
            logs[0].get("message").unwrap().as_str(),
            Some("pipeline done")
        );
    }

    #[test]
    fn json_handles_non_finite_gauges() {
        let c = Collector::new();
        c.gauge("bad", f64::INFINITY);
        let text = c.report().to_json();
        let v = Value::parse(&text).unwrap();
        assert_eq!(
            v.get("gauges").unwrap().get("bad").unwrap().as_str(),
            Some("inf")
        );
    }
}
