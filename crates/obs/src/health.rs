//! Health/SLO engine: declarative threshold rules over a
//! [`TelemetryReport`].
//!
//! The paper's monitoring posture — watch fleet rates against
//! expectations, alarm on breach — applied to the pipeline itself.
//! Rules are one per line:
//!
//! ```text
//! # name   expression                                          op threshold [severity]
//! quarantine_rate ratio(counter(quarantine.records),counter(parse.dis.lines)) < 0.02 fail
//! ocr_mean_cer    gauge(ocr.mean_cer) <= 0.08 warn
//! tag_p99_budget  p99(profile.wall;stage_tag) <= 0.5 warn
//! ```
//!
//! Expressions: `counter(NAME)` (0 when absent), `sum(PREFIX)`
//! (counter prefix sum), `gauge(NAME)`, histogram selectors
//! `p50|p95|p99|mean|max|count(NAME)`, and `ratio(A,B)` (0 when the
//! denominator is 0). Operators: `< <= > >= == !=`. Severity `fail`
//! (default) or `warn`. A rule whose gauge or histogram is absent is
//! *skipped*, not failed — a passthrough run has no `ocr.cer`
//! histogram and that is not an SLO breach. The worst outcome across
//! rules decides the exit code (`disengage health`, `repro --health`).

use crate::json::Value;
use crate::report::TelemetryReport;
use std::fmt;

/// How bad a breached rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breach is reported but does not affect the exit code.
    Warn,
    /// Breach makes the run fail (nonzero exit).
    Fail,
}

/// Threshold comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Op {
    fn parse(text: &str) -> Option<Op> {
        match text {
            "<" => Some(Op::Lt),
            "<=" => Some(Op::Le),
            ">" => Some(Op::Gt),
            ">=" => Some(Op::Ge),
            "==" => Some(Op::Eq),
            "!=" => Some(Op::Ne),
            _ => None,
        }
    }

    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::Lt => value < threshold,
            Op::Le => value <= threshold,
            Op::Gt => value > threshold,
            Op::Ge => value >= threshold,
            Op::Eq => value == threshold,
            Op::Ne => value != threshold,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Eq => "==",
            Op::Ne => "!=",
        })
    }
}

/// Which histogram statistic a selector reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistStat {
    /// Median.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// Arithmetic mean.
    Mean,
    /// Maximum sample.
    Max,
    /// Sample count.
    Count,
}

impl HistStat {
    fn name(self) -> &'static str {
        match self {
            HistStat::P50 => "p50",
            HistStat::P95 => "p95",
            HistStat::P99 => "p99",
            HistStat::Mean => "mean",
            HistStat::Max => "max",
            HistStat::Count => "count",
        }
    }
}

/// A parsed rule expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `counter(NAME)` — 0 when the counter was never touched.
    Counter(String),
    /// `sum(PREFIX)` — [`TelemetryReport::counter_prefix_sum`].
    Sum(String),
    /// `gauge(NAME)` — skip when absent.
    Gauge(String),
    /// Histogram selector — skip when the histogram is absent.
    Hist(HistStat, String),
    /// `ratio(A,B)` — 0 when B evaluates to 0.
    Ratio(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Parses one expression (no whitespace inside).
    pub fn parse(text: &str) -> Result<Expr, String> {
        let text = text.trim();
        let open = text
            .find('(')
            .ok_or_else(|| format!("expected FUNC(...) in `{text}`"))?;
        if !text.ends_with(')') {
            return Err(format!("unbalanced parentheses in `{text}`"));
        }
        let func = &text[..open];
        let arg = &text[open + 1..text.len() - 1];
        match func {
            "counter" => Ok(Expr::Counter(arg.to_owned())),
            "sum" => Ok(Expr::Sum(arg.to_owned())),
            "gauge" => Ok(Expr::Gauge(arg.to_owned())),
            "p50" => Ok(Expr::Hist(HistStat::P50, arg.to_owned())),
            "p95" => Ok(Expr::Hist(HistStat::P95, arg.to_owned())),
            "p99" => Ok(Expr::Hist(HistStat::P99, arg.to_owned())),
            "mean" => Ok(Expr::Hist(HistStat::Mean, arg.to_owned())),
            "max" => Ok(Expr::Hist(HistStat::Max, arg.to_owned())),
            "count" => Ok(Expr::Hist(HistStat::Count, arg.to_owned())),
            "ratio" => {
                // Split at the top-level comma (arguments may contain
                // their own parenthesized calls).
                let mut depth = 0usize;
                let mut split = None;
                for (i, c) in arg.char_indices() {
                    match c {
                        '(' => depth += 1,
                        ')' => depth = depth.saturating_sub(1),
                        ',' if depth == 0 => {
                            split = Some(i);
                            break;
                        }
                        _ => {}
                    }
                }
                let split =
                    split.ok_or_else(|| format!("ratio needs two arguments in `{text}`"))?;
                Ok(Expr::Ratio(
                    Box::new(Expr::parse(&arg[..split])?),
                    Box::new(Expr::parse(&arg[split + 1..])?),
                ))
            }
            other => Err(format!("unknown function `{other}` in `{text}`")),
        }
    }

    /// Evaluates against a report. `Err` means a referenced gauge or
    /// histogram is absent — the rule is skipped, not failed.
    pub fn eval(&self, report: &TelemetryReport) -> Result<f64, String> {
        match self {
            Expr::Counter(name) => Ok(report.counter(name) as f64),
            Expr::Sum(prefix) => Ok(report.counter_prefix_sum(prefix) as f64),
            Expr::Gauge(name) => report
                .gauge(name)
                .ok_or_else(|| format!("gauge `{name}` not set")),
            Expr::Hist(stat, name) => {
                let h = report
                    .histogram(name)
                    .ok_or_else(|| format!("histogram `{name}` not recorded"))?;
                Ok(match stat {
                    HistStat::P50 => h.p50,
                    HistStat::P95 => h.p95,
                    HistStat::P99 => h.p99,
                    HistStat::Mean => h.mean,
                    HistStat::Max => h.max,
                    HistStat::Count => h.count as f64,
                })
            }
            Expr::Ratio(num, den) => {
                let d = den.eval(report)?;
                if d == 0.0 {
                    return Ok(0.0);
                }
                Ok(num.eval(report)? / d)
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Counter(n) => write!(f, "counter({n})"),
            Expr::Sum(p) => write!(f, "sum({p})"),
            Expr::Gauge(n) => write!(f, "gauge({n})"),
            Expr::Hist(stat, n) => write!(f, "{}({n})", stat.name()),
            Expr::Ratio(a, b) => write!(f, "ratio({a},{b})"),
        }
    }
}

/// One parsed health rule.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRule {
    /// Rule name (first token on the line).
    pub name: String,
    /// Left-hand expression.
    pub expr: Expr,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand threshold.
    pub threshold: f64,
    /// What a breach means.
    pub severity: Severity,
}

/// Built-in rule set used when `--health` is given without a file.
///
/// Thresholds are calibrated against the clean reproduction corpus
/// (which must pass them with margin) and the chaos campaigns (whose
/// quarantine volume must breach `quarantine_rate`): the clean run
/// quarantines only the seeded malformed lines (≈0.4% of
/// `parse.dis.lines`), while even `--chaos=0.05` pushes the rate past
/// 2%.
pub const DEFAULT_RULES: &str = "\
# Built-in health rules (DESIGN.md §16). name expr op threshold [warn|fail]
quarantine_rate ratio(counter(quarantine.records),counter(parse.dis.lines)) < 0.02 fail
parse_failure_rate ratio(counter(parse.dis.failed),counter(parse.dis.lines)) < 0.05 fail
tag_coverage ratio(counter(nlp.tagged),counter(parse.dis.parsed)) >= 1 fail
parser_panics counter(parse.docs.panicked) == 0 fail
ocr_mean_cer gauge(ocr.mean_cer) <= 0.08 warn
";

/// Parses a rule file. Blank lines and `#` comments are ignored.
pub fn parse_rules(text: &str) -> Result<Vec<HealthRule>, String> {
    let mut rules = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", lineno + 1);
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() < 4 || parts.len() > 5 {
            return Err(fail(format!(
                "expected `name expr op threshold [warn|fail]`, got {} tokens",
                parts.len()
            )));
        }
        let op =
            Op::parse(parts[2]).ok_or_else(|| fail(format!("unknown operator `{}`", parts[2])))?;
        let threshold: f64 = parts[3]
            .parse()
            .map_err(|_| fail(format!("bad threshold `{}`", parts[3])))?;
        let severity = match parts.get(4) {
            None | Some(&"fail") => Severity::Fail,
            Some(&"warn") => Severity::Warn,
            Some(other) => return Err(fail(format!("unknown severity `{other}` (warn|fail)"))),
        };
        rules.push(HealthRule {
            name: parts[0].to_owned(),
            expr: Expr::parse(parts[1]).map_err(fail)?,
            op,
            threshold,
            severity,
        });
    }
    Ok(rules)
}

/// The built-in rules, parsed (infallible: [`DEFAULT_RULES`] is
/// checked by a test).
pub fn default_rules() -> Vec<HealthRule> {
    parse_rules(DEFAULT_RULES).expect("built-in rules parse")
}

/// One rule's evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Threshold holds.
    Pass,
    /// Breached, severity warn.
    Warn,
    /// Breached, severity fail.
    Fail,
    /// A referenced gauge/histogram is absent (reason inside).
    Skip(String),
}

impl Outcome {
    /// Fixed-width label for the report table.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Pass => "PASS",
            Outcome::Warn => "WARN",
            Outcome::Fail => "FAIL",
            Outcome::Skip(_) => "SKIP",
        }
    }
}

/// One evaluated rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleResult {
    /// The rule as parsed.
    pub rule: HealthRule,
    /// Observed expression value (absent on skip).
    pub value: Option<f64>,
    /// Outcome.
    pub outcome: Outcome,
}

/// The full evaluation: one row per rule.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Results in rule order.
    pub results: Vec<RuleResult>,
}

impl HealthReport {
    /// True when any rule with severity `fail` breached.
    pub fn failed(&self) -> bool {
        self.results
            .iter()
            .any(|r| matches!(r.outcome, Outcome::Fail))
    }

    /// Counts of (pass, warn, fail, skip).
    pub fn tallies(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for r in &self.results {
            match r.outcome {
                Outcome::Pass => t.0 += 1,
                Outcome::Warn => t.1 += 1,
                Outcome::Fail => t.2 += 1,
                Outcome::Skip(_) => t.3 += 1,
            }
        }
        t
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::from("== health ==\n");
        let width = self
            .results
            .iter()
            .map(|r| r.rule.name.len())
            .max()
            .unwrap_or(0);
        for r in &self.results {
            let clause = format!("{} {} {}", r.rule.expr, r.rule.op, r.rule.threshold);
            match (&r.outcome, r.value) {
                (Outcome::Skip(reason), _) => out.push_str(&format!(
                    "SKIP {:width$}  {clause}  ({reason})\n",
                    r.rule.name
                )),
                (outcome, Some(v)) => out.push_str(&format!(
                    "{} {:width$}  {clause}  (observed {v:.6})\n",
                    outcome.label(),
                    r.rule.name
                )),
                (outcome, None) => out.push_str(&format!(
                    "{} {:width$}  {clause}\n",
                    outcome.label(),
                    r.rule.name
                )),
            }
        }
        let (pass, warn, fail, skip) = self.tallies();
        out.push_str(&format!(
            "health: {pass} pass, {warn} warn, {fail} fail, {skip} skip\n"
        ));
        out
    }

    /// Order-stable JSON for machine consumers (`chaos_report.json`).
    pub fn to_value(&self) -> Value {
        let rows = self
            .results
            .iter()
            .map(|r| {
                let mut obj = vec![
                    ("name".to_owned(), Value::Str(r.rule.name.clone())),
                    (
                        "outcome".to_owned(),
                        Value::Str(r.outcome.label().to_lowercase()),
                    ),
                    (
                        "clause".to_owned(),
                        Value::Str(format!(
                            "{} {} {}",
                            r.rule.expr, r.rule.op, r.rule.threshold
                        )),
                    ),
                ];
                if let Some(v) = r.value {
                    obj.push(("observed".to_owned(), Value::num(v)));
                }
                if let Outcome::Skip(reason) = &r.outcome {
                    obj.push(("reason".to_owned(), Value::Str(reason.clone())));
                }
                Value::Obj(obj)
            })
            .collect();
        let (pass, warn, fail, skip) = self.tallies();
        Value::Obj(vec![
            ("rules".to_owned(), Value::Arr(rows)),
            ("pass".to_owned(), Value::num(pass as f64)),
            ("warn".to_owned(), Value::num(warn as f64)),
            ("fail".to_owned(), Value::num(fail as f64)),
            ("skip".to_owned(), Value::num(skip as f64)),
        ])
    }
}

/// Evaluates rules against a report.
pub fn evaluate(rules: &[HealthRule], report: &TelemetryReport) -> HealthReport {
    let results = rules
        .iter()
        .map(|rule| match rule.expr.eval(report) {
            Err(reason) => RuleResult {
                rule: rule.clone(),
                value: None,
                outcome: Outcome::Skip(reason),
            },
            Ok(value) => {
                let outcome = if rule.op.holds(value, rule.threshold) {
                    Outcome::Pass
                } else {
                    match rule.severity {
                        Severity::Warn => Outcome::Warn,
                        Severity::Fail => Outcome::Fail,
                    }
                };
                RuleResult {
                    rule: rule.clone(),
                    value: Some(value),
                    outcome,
                }
            }
        })
        .collect();
    HealthReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TelemetryReport {
        let mut r = TelemetryReport::default();
        r.counters.insert("quarantine.records".to_owned(), 5);
        r.counters.insert("parse.dis.lines".to_owned(), 1000);
        r.counters.insert("parse.dis.failed".to_owned(), 5);
        r.counters.insert("parse.dis.parsed".to_owned(), 995);
        r.counters.insert("nlp.tagged".to_owned(), 995);
        r.counters.insert("nlp.tag.planner".to_owned(), 700);
        r.counters.insert("nlp.tag.software".to_owned(), 295);
        r.gauges.insert("ocr.mean_cer".to_owned(), 0.01);
        r
    }

    #[test]
    fn default_rules_parse_and_pass_a_healthy_report() {
        let rules = default_rules();
        assert!(rules.len() >= 4);
        let health = evaluate(&rules, &report());
        assert!(!health.failed(), "{}", health.render());
        // Every non-skip rule passed.
        assert!(health
            .results
            .iter()
            .all(|r| !matches!(r.outcome, Outcome::Warn | Outcome::Fail)));
    }

    #[test]
    fn quarantine_breach_fails() {
        let mut r = report();
        r.counters.insert("quarantine.records".to_owned(), 100);
        let health = evaluate(&default_rules(), &r);
        assert!(health.failed());
        let breach = health
            .results
            .iter()
            .find(|x| x.rule.name == "quarantine_rate")
            .unwrap();
        assert_eq!(breach.outcome, Outcome::Fail);
        assert!((breach.value.unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn warn_severity_does_not_fail_the_report() {
        let mut r = report();
        r.gauges.insert("ocr.mean_cer".to_owned(), 0.5);
        let health = evaluate(&default_rules(), &r);
        assert!(!health.failed());
        assert_eq!(health.tallies().1, 1);
    }

    #[test]
    fn missing_gauge_skips_instead_of_failing() {
        let mut r = report();
        r.gauges.clear();
        let health = evaluate(&default_rules(), &r);
        assert!(!health.failed());
        let skipped = health
            .results
            .iter()
            .find(|x| x.rule.name == "ocr_mean_cer")
            .unwrap();
        assert!(matches!(skipped.outcome, Outcome::Skip(_)));
    }

    #[test]
    fn ratio_of_zero_denominator_is_zero() {
        let expr = Expr::parse("ratio(counter(a),counter(b))").unwrap();
        let r = TelemetryReport::default();
        assert_eq!(expr.eval(&r), Ok(0.0));
    }

    #[test]
    fn nested_ratio_and_hist_selectors_parse() {
        let expr = Expr::parse("ratio(sum(nlp.tag.),ratio(counter(a),counter(b)))").unwrap();
        assert_eq!(
            expr.to_string(),
            "ratio(sum(nlp.tag.),ratio(counter(a),counter(b)))"
        );
        // Histogram names may contain the profiler's `;` separator.
        let expr = Expr::parse("p99(profile.wall;stage_tag)").unwrap();
        assert_eq!(
            expr,
            Expr::Hist(HistStat::P99, "profile.wall;stage_tag".into())
        );
        let mut r = TelemetryReport::default();
        assert!(expr.eval(&r).is_err()); // absent histogram → skip
        let mut h = crate::hist::Histogram::new();
        h.record(0.25);
        r.histograms
            .insert("profile.wall;stage_tag".to_owned(), h.summary());
        assert!(expr.eval(&r).is_ok());
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(parse_rules("x counter(a) <")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_rules("\nx mystery(a) < 1")
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_rules("x counter(a) <> 1").is_err());
        assert!(parse_rules("x counter(a) < huge").is_err());
        assert!(parse_rules("x counter(a) < 1 loud").is_err());
    }

    #[test]
    fn render_and_json_cover_all_outcomes() {
        let mut r = report();
        r.counters.insert("quarantine.records".to_owned(), 100);
        r.gauges.clear();
        let health = evaluate(&default_rules(), &r);
        let text = health.render();
        assert!(text.contains("FAIL quarantine_rate"));
        assert!(text.contains("SKIP ocr_mean_cer"));
        let json = health.to_value().render();
        assert!(json.contains("\"outcome\":\"fail\""));
        assert!(json.contains("\"observed\""));
    }
}
