//! `repro` — regenerate every table and figure of the paper.
//!
//! Runs the full-scale pipeline (the calibrated 5,328-disengagement /
//! 42-accident / 1.1M-mile corpus) and prints the reproduction of each
//! table (I–VIII), each figure's summary statistics (4–12), and the five
//! research-question analyses.
//!
//! Usage:
//!
//! ```text
//! repro                    # everything
//! repro table4 fig8        # selected artifacts
//! repro q5                 # one analysis
//! repro --telemetry=tree   # append the run's span tree
//! repro --telemetry=json   # also write repro_metrics.json
//! repro --telemetry=stable-json  # same, with wall-clock fields zeroed
//! repro --chaos=0.05       # fault-injection campaign at 5%/line
//! repro --chaos=0.05,7     # same, explicit injection seed
//! repro --jobs=8           # Stage I–III across 8 workers
//! repro --jobs=0           # ... across all available cores
//! repro --lineage=lineage.jsonl  # export the per-record provenance log
//! repro --trace=trace.json       # export a Chrome trace-event timeline
//! repro --cache-dir=.disengage-cache  # content-addressed stage cache
//! repro --cache-cap=0                 # unbounded per-stage cache
//! repro --crash-campaign=25           # crash-recovery campaign, 25 trials
//! repro --crash-campaign=25,7         # same, explicit campaign seed
//! ```
//!
//! `--crash-campaign=TRIALS[,SEED]` replaces the normal reproduction
//! flow with the [`disengage_bench::crash`] campaign: each trial runs
//! the pipeline into a fresh cache directory, kills it at a seeded
//! point between stage commits (often with seeded I/O faults and
//! crashed-peer litter armed), restarts it, and requires byte-identical
//! convergence with a cold run plus a clean cache-directory audit. The
//! outcome ledger lands in `crash_report.json`; any non-recovered trial
//! exits nonzero. `--scale`, `--seed`, `--jobs`, and `--cache-cap`
//! shape the workload under test.
//!
//! Flag parsing, and what the flags do before and after the run, are
//! shared with the `disengage` front-end
//! ([`disengage_core::args`]): unknown `--` flags, like artifact names
//! outside [`disengage_core::analyze::ARTIFACTS`], are rejected with
//! usage text, `--help`/`-h` exits 0, and every value-taking flag
//! accepts both the `--flag value` and `--flag=value` spellings
//! (`--telemetry` and `--lineage` have optional values, so theirs
//! must be inline).
//!
//! `--jobs` only changes wall-clock time: the pipeline is
//! deterministic at every worker count, so stdout and
//! `repro_metrics.json` under `--telemetry=stable-json` (which zeroes
//! the only nondeterministic fields, the span/log timestamps) are
//! byte-identical between `--jobs=1` and `--jobs=N`. `scripts/verify.sh`
//! diffs exactly that. The same invariant holds for `--cache-dir`: a
//! warm run replays Stages I–II from the artifact cache (watch the
//! `cache.hit.*` counters under `--telemetry=json`) and still prints
//! the same bytes as a cold one.
//!
//! Every run cross-checks the pipeline's telemetry counters
//! ([`disengage_core::telemetry::reconcile`]) and exits nonzero if a
//! stage dropped or double-counted records. A chaos campaign
//! additionally writes `chaos_report.json` (injected vs corrected vs
//! quarantined vs silently absorbed, per fault kind) and exits nonzero
//! unless the outcome ledger reconciles; `--chaos=0` proves the
//! injection path is inert by diffing against a clean run. Under chaos
//! an artifact that cannot be produced at full fidelity prints itself
//! as DEGRADED and the run continues — one broken table never takes
//! down the campaign. Every artifact is rendered by
//! [`disengage_core::analyze::run`], which lists each degraded one once
//! for the stderr summary and `chaos_report.json`.

use disengage_core::analyze::{self, Inputs, ARTIFACTS};
use disengage_core::args::{ArgError, CommonArgs, TelemetryMode};
use disengage_core::telemetry::{reconcile, task_stamps};
use disengage_core::RunSession;
use disengage_nlp::Classifier;
use disengage_obs::{flight, Collector};
use disengage_par::TaskTimeline;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    let artifacts: Vec<String> = ARTIFACTS
        .chunks(10)
        .map(|names| format!("  {}", names.join(" ")))
        .collect();
    format!(
        "usage: repro [artifact ...] [flags]

artifacts (none selects everything):
{}

repro-only flags:
  --crash-campaign=TRIALS[,SEED]
                      run the crash-recovery campaign instead of the
                      reproduction (writes crash_report.json)

flags (shared with the `disengage` front-end; both --flag VALUE and
--flag=VALUE spellings work, except optional values must be inline):
{}",
        artifacts.join("\n"),
        CommonArgs::shared_usage()
    )
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut crash_campaign: Option<(usize, u64)> = None;
    let parsed = CommonArgs::parse_with(&raw, |flag, value| match flag {
        "--crash-campaign" => {
            let v = value.ok_or_else(|| ArgError {
                flag: flag.to_owned(),
                reason: "expected --crash-campaign=TRIALS[,SEED]".to_owned(),
            })?;
            crash_campaign = Some(parse_crash_campaign(v).map_err(|reason| ArgError {
                flag: flag.to_owned(),
                reason,
            })?);
            Ok(true)
        }
        _ => Ok(false),
    });
    let args = match parsed {
        Ok(args) => args,
        Err(ArgError { flag, reason }) => {
            eprintln!("error: {flag}: {reason}");
            eprintln!();
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = args.reject_profile() {
        eprintln!("error: {e}");
        eprintln!();
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if let Some(name) = args
        .positional
        .iter()
        .find(|a| !ARTIFACTS.contains(&a.as_str()))
    {
        eprintln!("error: unknown artifact `{name}`");
        eprintln!();
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    // The full-scale paper corpus by default; --scale/--seed shrink or
    // reseed it (the cache-smoke tests run at a fraction of full scale).
    let config = args.run_config();

    // The crash-recovery campaign replaces the reproduction flow
    // entirely: N interrupted-then-resumed sessions, each required to
    // recover byte-identically and leave a clean cache directory.
    if let Some((trials, seed)) = crash_campaign {
        return run_crash_campaign(&config, trials, seed);
    }

    // Only --lineage records lineage (it moves every stage cache key);
    // only --trace times the pool (it never does).
    let obs_arc = Arc::new(Collector::with_echo().with_lineage(args.lineage.is_some()));
    let obs: &Collector = &obs_arc;
    let timeline = Arc::new(if args.trace.is_some() {
        TaskTimeline::with_epoch(obs.epoch())
    } else {
        TaskTimeline::disabled()
    });
    install_panic_dump(&obs_arc, &timeline);
    obs.log(&format!(
        "running pipeline: seed {:#x}, scale {}{}",
        config.corpus.seed,
        config.corpus.scale,
        args.shards
            .as_ref()
            .map_or(String::new(), |s| format!(", shards {}", s.join(",")))
    ));
    if let Some(p) = config.active_chaos() {
        obs.log(&format!(
            "chaos campaign armed: rate {:.3}, seed {:#x}",
            p.rate, p.seed
        ));
    }
    let o = match RunSession::new(config.clone()).run_traced(obs, &timeline) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    obs.log(&format!(
        "pipeline done: {} disengagements, {} accidents, {:.0} miles recovered",
        o.database.disengagements().len(),
        o.database.accidents().len(),
        o.database.total_miles()
    ));
    if let Some(audit) = &o.chaos {
        obs.log(&format!(
            "chaos: {} injected = {} corrected + {} quarantined + {} absorbed",
            audit.totals.injected,
            audit.totals.corrected,
            audit.totals.quarantined,
            audit.totals.absorbed
        ));
    }

    // The rate-0 invariant: an inert plan must leave every byte of the
    // outcome untouched. Proven by rerunning clean (no chaos armed, no
    // cache — a cached replay would make the diff vacuous) and diffing.
    if let Some(p) = args.chaos {
        if !p.active() {
            obs.log("chaos rate 0: diffing against a clean reference run...");
            let mut clean = config.clone().without_cache();
            clean.chaos = None;
            let reference = match RunSession::new(clean).run_with(&Collector::new()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: clean reference run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let identical = format!("{:?}", reference.database) == format!("{:?}", o.database)
                && reference.tagged == o.tagged
                && reference.parse_failures == o.parse_failures;
            if !identical {
                eprintln!("chaos rate 0 diverged from the clean run: injection path is not inert");
                return ExitCode::FAILURE;
            }
            obs.log("chaos rate 0: byte-identical to the clean run");
        }
    }

    let selection: Vec<&str> = if args.positional.is_empty() {
        ARTIFACTS.to_vec()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    let classifier = Classifier::with_default_dictionary();
    let (text, degraded) = analyze::run(&selection, &Inputs::of(&o, &classifier), obs);
    print!("{text}");
    if !degraded.is_empty() {
        eprintln!(
            "{} artifact(s) degraded under this run: {}",
            degraded.len(),
            degraded.join(", ")
        );
    }

    // Telemetry self-check: refuse to bless a run whose counters do not
    // reconcile across stages (see disengage_core::telemetry::reconcile).
    let snapshot = obs.report();
    let violations = reconcile(&snapshot);
    for v in &violations {
        eprintln!("telemetry reconciliation FAILED: {v}");
    }
    if !violations.is_empty() {
        // A non-reconciling run is a postmortem subject: dump the full
        // flight ring next to the error output.
        let suspects = flight::suspects(&obs.provenance(), 8);
        match flight::write_dump(
            Path::new(flight::DEFAULT_DUMP_PATH),
            obs,
            Some(&task_stamps(&timeline)),
            "telemetry reconciliation failed",
            &suspects,
            false,
        ) {
            Ok(()) => eprintln!("wrote {} (postmortem)", flight::DEFAULT_DUMP_PATH),
            Err(e) => eprintln!("error: could not write {}: {e}", flight::DEFAULT_DUMP_PATH),
        }
    }

    // Health gate: evaluate the declarative rules (--health=FILE or the
    // built-in defaults) against the run's telemetry; a Fail-severity
    // breach fails the process and is recorded in chaos_report.json.
    let verdict = match args.health(&snapshot, false) {
        Ok(verdict) => verdict,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut health_ok = true;
    if let Some(verdict) = &verdict {
        print!("{}", verdict.render());
        if verdict.failed() {
            eprintln!("health gate FAILED");
            health_ok = false;
        }
    }

    // Chaos campaigns leave an auditable report on disk and must
    // account for every injected fault.
    let mut chaos_ok = true;
    if let Some(audit) = &o.chaos {
        if !audit.totals.reconciles() {
            eprintln!(
                "chaos ledger FAILED to reconcile: {} injected vs {} corrected + {} quarantined + {} absorbed",
                audit.totals.injected,
                audit.totals.corrected,
                audit.totals.quarantined,
                audit.totals.absorbed
            );
            chaos_ok = false;
        }
        let degraded: Vec<String> = degraded.iter().map(|a| format!("\"{a}\"")).collect();
        let body = format!(
            "{{\"audit\":{},\"dict_dropped\":{},\"quarantine_records\":{},\"degraded_artifacts\":[{}],\"health\":{}}}",
            audit.to_json(),
            snapshot.counter("chaos.dict.dropped"),
            snapshot.counter("quarantine.records"),
            degraded.join(","),
            verdict
                .as_ref()
                .map_or_else(|| "null".to_owned(), |v| v.to_value().render())
        );
        let path = "chaos_report.json";
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                chaos_ok = false;
            }
        }
    }

    // Provenance, execution-trace and observability exports. The
    // lineage log and the canonical flight-recorder dump are
    // wall-clock-free and worker-count-independent (verify.sh diffs
    // them across --jobs); the Chrome trace is wall-clock by nature and
    // only format-checked.
    if let Err(e) = args.write_exports(obs, &timeline) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    match args.telemetry {
        TelemetryMode::Off => {}
        TelemetryMode::Tree => print!("{}", snapshot.render_tree()),
        TelemetryMode::Json | TelemetryMode::StableJson => {
            // stable-json zeroes every wall-clock field (and drops the
            // cache.* environment counters) so the file is
            // byte-comparable across runs, worker counts, and cache
            // temperatures.
            let body = if args.telemetry == TelemetryMode::StableJson {
                snapshot.clone().canonical().to_json()
            } else {
                snapshot.to_json()
            };
            let path = "repro_metrics.json";
            match std::fs::write(path, body) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("error: could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if violations.is_empty() && chaos_ok && health_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Arms a panic hook that dumps the full flight ring, followed by the
/// timeline's last pool-task stamps, to `flight.json` before the
/// default hook prints the backtrace. Gated to the main thread: Stage
/// II parser panics on pool workers are caught by the pool's
/// quarantining map (`disengage_par::par_map_catch`) as part of normal
/// chaos operation, so they must not leave postmortem litter behind a
/// successful run.
fn install_panic_dump(obs: &Arc<Collector>, timeline: &Arc<TaskTimeline>) {
    let hook_obs = Arc::clone(obs);
    let hook_timeline = Arc::clone(timeline);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("main") {
            let _ = flight::write_dump(
                Path::new(flight::DEFAULT_DUMP_PATH),
                &hook_obs,
                Some(&task_stamps(&hook_timeline)),
                "panic",
                &[],
                false,
            );
            eprintln!(
                "wrote {} (postmortem; inspect with `disengage doctor`)",
                flight::DEFAULT_DUMP_PATH
            );
        }
        default_hook(info);
    }));
}

/// Parses `--crash-campaign=TRIALS[,SEED]` (seed defaults to `0xC4A54`).
fn parse_crash_campaign(v: &str) -> Result<(usize, u64), String> {
    let (trials, seed) = match v.split_once(',') {
        Some((n, s)) => (n, Some(s)),
        None => (v, None),
    };
    let trials: usize = trials
        .trim()
        .parse()
        .map_err(|_| format!("`{v}` is not TRIALS[,SEED] (e.g. 25 or 25,7)"))?;
    if trials == 0 {
        return Err("at least one trial is required".to_owned());
    }
    let seed = match seed {
        Some(s) => s
            .trim()
            .parse()
            .map_err(|_| format!("`{v}` has a non-numeric SEED"))?,
        None => 0xC4A54,
    };
    Ok((trials, seed))
}

/// Runs the crash-recovery campaign, writes `crash_report.json`, and
/// maps the verdict to the process exit code. Trial caches live under
/// `--cache-dir` when given, else `.disengage-crash-cache`; passing
/// trials clean up after themselves, a failing trial's directory stays
/// behind for inspection.
fn run_crash_campaign(config: &disengage_core::RunConfig, trials: usize, seed: u64) -> ExitCode {
    let root = config
        .cache_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(".disengage-crash-cache"));
    eprintln!(
        "crash campaign: {trials} trial(s), seed {seed:#x}, cache root {}",
        root.display()
    );
    let report =
        match disengage_bench::crash::run_crash_campaign(config, trials, seed, &root, |line| {
            eprintln!("{line}")
        }) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    let (replayed, recomputed, retried, absorbed, reclaimed) = report.totals();
    eprintln!(
        "crash campaign: {}/{} trials recovered byte-identically \
         ({replayed} replayed, {recomputed} recomputed, {retried} faults retried, \
         {absorbed} absorbed, {reclaimed} files reclaimed)",
        report.passed(),
        report.trials.len(),
    );
    let path = "crash_report.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("error: could not write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    if report.all_passed() {
        // Every per-trial directory is already gone; drop the root.
        let _ = std::fs::remove_dir_all(&root);
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
