//! Prometheus/OpenMetrics text-format exposition of a
//! [`TelemetryReport`], plus a validator for the `check-prom`
//! command.
//!
//! The future `disengage serve` daemon (ROADMAP item 2) needs a
//! `/metrics` endpoint; this module is that endpoint's body, produced
//! from the same snapshot every other exporter reads.
//!
//! Name escaping (documented in DESIGN.md §16): internal metric names
//! are dot-namespaced (`parse.dis.parsed`) and the profiler uses `;`
//! as a stack separator (`profile.wall;stage_tag;compute`). The
//! Prometheus grammar allows `[a-zA-Z_:][a-zA-Z0-9_:]*`, so:
//!
//! | internal            | exposition                  |
//! |---------------------|-----------------------------|
//! | `.`                 | `_`                         |
//! | `;` (stack frame)   | `:` (recording-rule style)  |
//! | any other non-alnum | `_`                         |
//! | (all names)         | `disengage_` prefix         |
//!
//! Counters additionally get the conventional `_total` suffix.
//! Histograms are exported as cumulative `_bucket{le="..."}` series
//! (the in-tree [`crate::hist`] stores per-bucket counts; this module
//! accumulates them), a `+Inf` bucket, `_sum`, and `_count`.

use crate::report::TelemetryReport;
use std::fmt::Write as _;

/// Prefix every exposed metric name carries.
pub const NAME_PREFIX: &str = "disengage_";

/// Escapes an internal metric name into a valid Prometheus name (see
/// the module table).
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(NAME_PREFIX.len() + raw.len());
    out.push_str(NAME_PREFIX);
    for c in raw.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' => out.push(c),
            ';' => out.push(':'),
            _ => out.push('_'),
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects (`+Inf`/`-Inf`/
/// `NaN` spellings for non-finite floats).
fn sample(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value == f64::INFINITY {
        "+Inf".to_owned()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{value}")
    }
}

/// Renders the full exposition: every counter, gauge, and histogram
/// in the report, name-sorted within each family kind.
pub fn render_prometheus(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for (name, value) in &report.counters {
        let base = metric_name(name);
        let _ = writeln!(out, "# TYPE {base} counter");
        let _ = writeln!(out, "{base}_total {value}");
    }
    for (name, value) in &report.gauges {
        let base = metric_name(name);
        let _ = writeln!(out, "# TYPE {base} gauge");
        let _ = writeln!(out, "{base} {}", sample(*value));
    }
    for (name, hist) in &report.histograms {
        let base = metric_name(name);
        let _ = writeln!(out, "# TYPE {base} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in &hist.buckets {
            cumulative += count;
            if bound.is_finite() {
                let _ = writeln!(out, "{base}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{base}_sum {}", sample(hist.sum));
        let _ = writeln!(out, "{base}_count {}", hist.count);
    }
    out
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strips a histogram-series suffix, returning the family base name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count", "_total"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

fn parse_le(labels: &str) -> Result<f64, String> {
    let inner = labels
        .strip_prefix("le=\"")
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("bucket labels must be le=\"...\", got `{{{labels}}}`"))?;
    match inner {
        "+Inf" => Ok(f64::INFINITY),
        text => text
            .parse::<f64>()
            .map_err(|_| format!("bad le bound `{text}`")),
    }
}

/// Validates an exposition: name grammar, `# TYPE` declared before a
/// family's samples, parseable sample values, and histogram buckets
/// that are cumulative, monotone, and closed by a `+Inf` bucket equal
/// to `_count`. Returns the number of samples.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut types: std::collections::BTreeMap<String, String> = Default::default();
    let mut samples = 0usize;
    // Per-histogram bucket ledger: (last le, last cumulative, inf
    // bucket value) keyed by family base name.
    let mut buckets: std::collections::BTreeMap<String, (f64, u64, Option<u64>)> =
        Default::default();
    let mut counts: std::collections::BTreeMap<String, u64> = Default::default();

    for (lineno, raw) in text.lines().enumerate() {
        let fail = |e: String| format!("line {}: {e}", lineno + 1);
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| fail("TYPE needs a name".into()))?;
            let kind = it.next().ok_or_else(|| fail("TYPE needs a kind".into()))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(fail(format!("unknown TYPE kind `{kind}`")));
            }
            if !valid_name(name) {
                return Err(fail(format!("invalid metric name `{name}`")));
            }
            if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                return Err(fail(format!("duplicate TYPE for `{name}`")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample: name[{labels}] value
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| fail("sample needs `name value`".into()))?;
        let value: f64 = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            other => other
                .parse()
                .map_err(|_| fail(format!("bad sample value `{other}`")))?,
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| fail("unclosed label braces".into()))?;
                (n, Some(labels))
            }
            None => (name_part, None),
        };
        if !valid_name(name) {
            return Err(fail(format!("invalid metric name `{name}`")));
        }
        let family = family_of(name);
        if !types.contains_key(family) && !types.contains_key(name) {
            return Err(fail(format!("sample `{name}` has no preceding # TYPE")));
        }
        let is_histogram = types.get(family).map(String::as_str) == Some("histogram");
        if is_histogram && name.ends_with("_bucket") {
            let labels = labels.ok_or_else(|| fail("histogram bucket needs le label".into()))?;
            let le = parse_le(labels).map_err(fail)?;
            let cumulative = value as u64;
            let entry = buckets
                .entry(family.to_owned())
                .or_insert((f64::NEG_INFINITY, 0, None));
            if le <= entry.0 {
                return Err(fail(format!(
                    "bucket bounds not increasing for `{family}` (le {le})"
                )));
            }
            if cumulative < entry.1 {
                return Err(fail(format!(
                    "bucket counts not cumulative for `{family}` at le {le}"
                )));
            }
            entry.0 = le;
            entry.1 = cumulative;
            if le == f64::INFINITY {
                entry.2 = Some(cumulative);
            }
        } else if is_histogram && name.ends_with("_count") {
            counts.insert(family.to_owned(), value as u64);
        }
        samples += 1;
    }
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let (_, _, inf) = buckets
            .get(family)
            .ok_or_else(|| format!("histogram `{family}` has no buckets"))?;
        let inf = inf.ok_or_else(|| format!("histogram `{family}` missing +Inf bucket"))?;
        let count = counts
            .get(family)
            .copied()
            .ok_or_else(|| format!("histogram `{family}` missing _count"))?;
        if inf != count {
            return Err(format!(
                "histogram `{family}`: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn report() -> TelemetryReport {
        let mut r = TelemetryReport::default();
        r.counters.insert("parse.dis.parsed".to_owned(), 41);
        r.counters.insert("nlp.tag.planner".to_owned(), 7);
        r.gauges.insert("ocr.mean_cer".to_owned(), 0.0125);
        let mut h = Histogram::new();
        for x in [0.001, 0.003, 0.003, 0.5, 2.0] {
            h.record(x);
        }
        r.histograms.insert("ocr.cer".to_owned(), h.summary());
        let mut wall = Histogram::new();
        wall.record(0.25);
        r.histograms
            .insert("profile.wall;stage_tag;compute".to_owned(), wall.summary());
        r
    }

    #[test]
    fn escaping_follows_the_documented_table() {
        assert_eq!(
            metric_name("parse.dis.parsed"),
            "disengage_parse_dis_parsed"
        );
        assert_eq!(
            metric_name("profile.wall;stage_tag"),
            "disengage_profile_wall:stage_tag"
        );
        assert_eq!(metric_name("weird name"), "disengage_weird_name");
    }

    #[test]
    fn exposition_validates_and_counts_samples() {
        let text = render_prometheus(&report());
        let n = validate_prometheus(&text).expect("valid exposition");
        // 2 counters + 1 gauge + histogram series.
        assert!(n >= 7, "expected >= 7 samples, got {n}\n{text}");
        assert!(text.contains("# TYPE disengage_parse_dis_parsed counter"));
        assert!(text.contains("disengage_parse_dis_parsed_total 41"));
        assert!(text.contains("disengage_ocr_mean_cer 0.0125"));
        assert!(text.contains("disengage_ocr_cer_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("disengage_ocr_cer_count 5"));
        assert!(text.contains("disengage_profile_wall:stage_tag:compute_sum 0.25"));
    }

    #[test]
    fn buckets_are_cumulative() {
        let text = render_prometheus(&report());
        // The two 0.003 samples share a bucket; the cumulative series
        // must be nondecreasing and end at the count.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("disengage_ocr_cer_bucket") {
                let v: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "non-monotone bucket series: {text}");
                last = v;
            }
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus("disengage_x 1").is_err()); // no TYPE
        assert!(validate_prometheus("# TYPE 9bad counter\n9bad_total 1").is_err());
        assert!(validate_prometheus("# TYPE disengage_x counter\ndisengage_x_total many").is_err());
        let non_monotone = "# TYPE h histogram\n\
            h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
            h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_prometheus(non_monotone).is_err());
        let missing_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_prometheus(missing_inf).is_err());
        let inf_mismatch = "# TYPE h histogram\n\
            h_bucket{le=\"1\"} 4\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        assert!(validate_prometheus(inf_mismatch).is_err());
    }

    #[test]
    fn empty_report_renders_empty_but_valid() {
        let text = render_prometheus(&TelemetryReport::default());
        assert_eq!(validate_prometheus(&text), Ok(0));
    }
}
