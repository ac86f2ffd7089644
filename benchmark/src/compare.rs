//! `--compare A B`: each file holds the standard output of one or more
//! runs (appended), A from the parent, B from the change. Per workload
//! and metric it prints both medians, the change as a share of A, the
//! metric's bound, and the spread — the largest of each side's
//! run-to-run quartile spread and the median over all runs of the
//! spread across one run's rounds. A metric
//! whose spread exceeds its bound is "unresolved" unless every B run
//! beats every A run. Count metrics must match exactly.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, spread};
use disengage_obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One run: its report line and its result line.
struct RunLines {
    workload: String,
    round_spread: BTreeMap<String, f64>,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Pairs every `{"report": …}` line with the result line after it.
fn parse_runs(text: &str) -> Vec<RunLines> {
    let mut runs = Vec::new();
    let mut pending: Option<(String, BTreeMap<String, f64>)> = None;
    for value in text.lines().filter_map(|l| Value::parse(l).ok()) {
        if let Some(report) = value.get("report") {
            let workload = report
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?");
            let mut spreads = BTreeMap::new();
            if let Some(Value::Obj(pairs)) = report.get("round_spread") {
                for (k, v) in pairs {
                    spreads.insert(k.clone(), v.as_f64().unwrap_or(0.0));
                }
            }
            pending = Some((workload.to_owned(), spreads));
        } else if let (Some(Value::Obj(pairs)), Some((workload, round_spread))) =
            (value.get("metrics"), pending.take())
        {
            let metrics = pairs
                .iter()
                .filter_map(|(k, m)| {
                    let v = m.get("value")?.as_f64()?;
                    let unit = m.get("unit")?.as_str()?.to_owned();
                    Some((k.clone(), (v, unit)))
                })
                .collect();
            runs.push(RunLines {
                workload,
                round_spread,
                metrics,
            });
        }
    }
    runs
}

/// The verdict on one end-to-end metric. `worse` is the change's
/// median as a share of the parent's, signed so positive is worse.
pub fn verdict(worse: f64, spread: f64, bound: f64, every_run_better: bool) -> &'static str {
    if spread > bound {
        if every_run_better {
            "better"
        } else if worse > spread {
            "WORSE"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "WORSE"
    } else {
        "ok"
    }
}

/// The comparison table, and whether no metric got worse.
fn table(a: &[RunLines], b: &[RunLines]) -> (String, bool) {
    let mut out = format!(
        "{:<12} {:<28} {:>10} {:>13} {:>13} {:>8} {:>6} {:>7}  verdict\n",
        "workload", "metric", "unit", "A median", "B median", "change", "bound", "spread"
    );
    let mut ok = true;
    let workloads: BTreeSet<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let ra: Vec<&RunLines> = a.iter().filter(|r| r.workload == w).collect();
        let rb: Vec<&RunLines> = b.iter().filter(|r| r.workload == w).collect();
        let names: BTreeMap<&str, &str> = ra
            .iter()
            .flat_map(|r| r.metrics.iter().map(|(k, (_, u))| (k.as_str(), u.as_str())))
            .collect();
        for (metric, unit) in names {
            let values = |runs: &[&RunLines]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(metric).map(|m| m.0))
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
            let (bound, noise, text) = match END_TO_END.iter().find(|m| m.name == metric) {
                Some(m) => {
                    let within: Vec<f64> = ra
                        .iter()
                        .chain(&rb)
                        .filter_map(|r| r.round_spread.get(metric).copied())
                        .collect();
                    let noise = [spread(&va), spread(&vb), median(&within)]
                        .into_iter()
                        .fold(0.0, f64::max);
                    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
                    let every_better = vb.iter().all(|&x| va.iter().all(|&y| sign * (x - y) < 0.0));
                    let v = verdict(sign * change, noise, m.bound, every_better);
                    ok &= v != "WORSE";
                    (
                        format!("{:.0}%", m.bound * 100.0),
                        format!("{:.1}%", noise * 100.0),
                        v,
                    )
                }
                None if unit == "count" || unit == "bytes" => {
                    let exact = va.iter().chain(&vb).all(|&x| x == vb[0]);
                    let v = if exact { "exact" } else { "differs" };
                    (String::new(), String::new(), v)
                }
                None => (String::new(), String::new(), ""),
            };
            let _ = writeln!(
                out,
                "{w:<12} {metric:<28} {unit:>10} {ma:>13.6} {mb:>13.6} {:>+7.1}% {bound:>6} {noise:>7}  {text}",
                change * 100.0
            );
        }
    }
    (out, ok)
}

/// Prints the comparison of two files of runs; `Ok(false)` when some
/// end-to-end metric got worse by more than its bound.
///
/// # Errors
///
/// An unreadable file or one with no runs.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Vec<RunLines>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let runs = parse_runs(&text);
        if runs.is_empty() {
            return Err(format!("{path}: no benchmark runs found"));
        }
        Ok(runs)
    };
    let (text, ok) = table(&read(a_path)?, &read(b_path)?);
    print!("{text}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_checks() {
        // Within bound and quiet: ok.
        assert_eq!(verdict(0.05, 0.02, 0.10, false), "ok");
        // Past the bound and quiet: worse.
        assert_eq!(verdict(0.12, 0.02, 0.10, false), "WORSE");
        // An improvement is never worse.
        assert_eq!(verdict(-0.30, 0.02, 0.10, false), "ok");
        // Noisier than the bound: unresolved, not unchanged...
        assert_eq!(verdict(0.05, 0.20, 0.10, false), "unresolved");
        // ...unless every change run beats every parent run...
        assert_eq!(verdict(-0.05, 0.20, 0.10, true), "better");
        // ...or the loss exceeds even the noise.
        assert_eq!(verdict(0.30, 0.20, 0.10, false), "WORSE");
    }

    fn run(p50: f64, allocs: u64) -> String {
        format!(
            "noise before the report\n\
             {{\"report\":{{\"workload\":\"paper_cold\",\"round_spread\":{{\"wall_p50_s\":0.01}}}}}}\n\
             {{\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{{\
             \"wall_p50_s\":{{\"value\":{p50},\"unit\":\"s\"}},\
             \"corpus.allocs\":{{\"value\":{allocs},\"unit\":\"count\"}}}}}}\n"
        )
    }

    #[test]
    fn reads_appended_runs_and_flags_regressions() {
        let a = parse_runs(&(run(1.0, 7) + &run(1.01, 7)));
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].metrics["wall_p50_s"].0, 1.01);
        assert_eq!(a[0].round_spread["wall_p50_s"], 0.01);

        let (text, ok) = table(&a, &parse_runs(&run(1.02, 7)));
        assert!(ok, "{text}");
        assert!(text.contains("exact"), "{text}");

        let (text, ok) = table(&a, &parse_runs(&run(1.5, 8)));
        assert!(!ok, "{text}");
        assert!(text.contains("WORSE") && text.contains("differs"), "{text}");

        assert!(parse_runs("no runs here\n").is_empty());
    }
}
