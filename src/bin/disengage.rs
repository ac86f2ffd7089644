//! `disengage` — command-line front-end for the toolkit.
//!
//! ```text
//! disengage summary                      # headline findings
//! disengage export <dir>                 # all tables as CSV
//! disengage classify "<log text>"        # Stage III on one description
//! disengage stpa-dot                     # Fig. 3 as Graphviz DOT
//! disengage demo-miles <rate> <conf>     # Kalra-Paddock bound
//! disengage project <manufacturer> <dpm> # miles to reach a target DPM
//! disengage sweep-ocr                    # scanner-noise sweep
//! disengage explain [subject]            # per-record lineage chain
//! disengage check-trace <file>           # validate a Chrome trace export
//! disengage profile                      # self-profile the OCR pipeline
//! disengage check-folded <file>          # validate a folded-stack export
//! disengage doctor [flight.json]         # flight-recorder postmortem
//! disengage health                       # run and gate on health rules
//! disengage check-prom <file>            # validate Prometheus exposition
//! ```
//!
//! Flag parsing, and what the flags do before and after the run, are
//! shared with the `repro` harness
//! ([`disengage::core::args`]): every value-taking flag accepts both
//! the `--flag value` and `--flag=value` spellings (`--telemetry` and
//! `--lineage` have optional values, so theirs must be inline),
//! unknown `--` flags are rejected with the usage text, and
//! `--help`/`-h` exit 0.
//! Full-corpus commands accept `--scale`/`--seed` (corpus),
//! `--jobs` (Stage I–III worker pool; output is byte-identical at
//! every setting), `--chaos` (fault injection), `--lineage` (record
//! provenance — it moves the stage cache keys — and optionally export
//! it), `--trace` (Chrome-trace export; never a cache key),
//! `--telemetry=MODE` (off|tree|json|stable-json, rendered after the
//! command's own output), and `--cache-dir=` (the content-addressed
//! stage artifact cache — a warm re-run replays Stages I–II instead of
//! regenerating and re-OCRing the corpus).

use disengage::core::analyze::{self, Inputs};
use disengage::core::args::{ArgError, CommonArgs, ProfileMode, TelemetryMode};
use disengage::core::pipeline::OcrMode;
use disengage::core::telemetry::timed;
use disengage::core::{export, exposure, whatif, CoreError, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::dataframe::csv;
use disengage::nlp::Classifier;
use disengage::obs::Collector;
use disengage::ocr::NoiseModel;
use disengage::par::TaskTimeline;
use disengage::reports::Manufacturer;
use disengage::stats::kalra_paddock::failure_free_miles;
use disengage::stpa::dot::to_dot;
use disengage::stpa::ControlStructure;
use std::process::ExitCode;

// The self-profiler's allocation proxy: a system-allocator shim that
// counts calls and bytes for the `profile.mem.*` gauges.
#[global_allocator]
static ALLOC: disengage::obs::CountingAlloc = disengage::obs::CountingAlloc;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match CommonArgs::parse(&raw) {
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
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    format!(
        "usage:
  disengage summary [flags]
  disengage export <dir> [flags]
  disengage classify <text>
  disengage stpa-dot
  disengage demo-miles <rate-per-mile> <confidence>
  disengage project <manufacturer> <target-dpm> [flags]
  disengage sweep-ocr [flags]
  disengage explain [record-id|doc:D|doc:D/line:L] [flags]
  disengage check-trace <trace.json>
  disengage profile [flags]    # simulated-OCR self-profile (default --scale=0.1)
  disengage check-folded <stacks.folded>
  disengage doctor [flight.json]        # postmortem from a flight-recorder dump
  disengage health [flags]              # run the pipeline, gate on health rules
  disengage check-prom <metrics.prom>   # validate a Prometheus exposition

flags (shared with the `repro` harness; both --flag VALUE and
--flag=VALUE spellings work, except optional values must be inline):
{}",
        CommonArgs::shared_usage()
    )
}

fn run(args: &CommonArgs) -> Result<ExitCode, String> {
    let command = args.positional.first().map(String::as_str).unwrap_or("");
    if command != "profile" {
        args.reject_profile().map_err(|e| e.to_string())?;
    }
    // The `health` command always evaluates (the built-in rules unless
    // --health=FILE names a rule file); any other command evaluates
    // only when --health was given. A bad rule file fails here, before
    // any command runs.
    let health_rules = args.health_rules(command == "health")?;
    let config = args.run_config();
    let seed = config.corpus.seed;
    // Lineage is recorded only for `--lineage` and for `explain` (which
    // has nothing to show otherwise): it moves every stage cache key, so
    // no other flag may turn it on. The timeline is timed only for a
    // `--trace` export and for `profile`'s pool accounting; it never
    // touches a key.
    let obs = Collector::new().with_lineage(args.lineage.is_some() || command == "explain");
    let timeline = if args.trace.is_some() || command == "profile" {
        TaskTimeline::with_epoch(obs.epoch())
    } else {
        TaskTimeline::disabled()
    };
    let session = RunSession::new(config.clone());

    let result = match command {
        "summary" => {
            let o = session
                .run_traced(&obs, &timeline)
                .map_err(|e| e.to_string())?;
            println!(
                "{} disengagements, {} accidents, {:.0} autonomous miles\n",
                o.database.disengagements().len(),
                o.database.accidents().len(),
                o.database.total_miles()
            );
            let classifier = Classifier::with_default_dictionary();
            let (text, _) = analyze::run(&["q2", "q5"], &Inputs::of(&o, &classifier), &obs);
            print!("{text}");
            let coverage = exposure::field_coverage(&o.database);
            println!(
                "field coverage: road {:.0}%, weather {:.0}%, reaction time {:.0}% of {} records",
                coverage.road_type * 100.0,
                coverage.weather * 100.0,
                coverage.reaction_time * 100.0,
                coverage.n
            );
            Ok(())
        }
        "export" => {
            let dir = args.positional.get(1).ok_or("export needs a directory")?;
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let o = session
                .run_traced(&obs, &timeline)
                .map_err(|e| e.to_string())?;
            let classifier = Classifier::with_default_dictionary();
            let inputs = Inputs::of(&o, &classifier);
            let mut frames = Vec::new();
            for (name, _) in analyze::TABLES {
                let frame = timed(&obs, &format!("stage_iv_{name}"), || {
                    analyze::table(name, &inputs)
                });
                frames.push((name, frame.map_err(|e| e.to_string())?));
            }
            // Record-level exports (the consolidated failure database).
            let db = &o.database;
            let records = timed(&obs, "stage_iv_records", || {
                Ok::<_, CoreError>([
                    (
                        "disengagements",
                        export::disengagements_frame(db, Some(&o.tagged))?,
                    ),
                    ("accidents", export::accidents_frame(db)?),
                    ("mileage", export::mileage_frame(db)?),
                ])
            })
            .map_err(|e| e.to_string())?;
            frames.extend(records);
            for (name, frame) in &frames {
                let path = std::path::Path::new(dir).join(format!("{name}.csv"));
                csv::write_file(frame, &path).map_err(|e| e.to_string())?;
                println!("wrote {}", path.display());
            }
            Ok(())
        }
        "classify" => {
            let text = args.positional.get(1).ok_or("classify needs text")?;
            let classifier = Classifier::with_default_dictionary();
            let a = classifier.classify(text);
            println!("tag:      {}", a.tag);
            println!("category: {}", a.category);
            println!("score:    {}", a.score);
            if !a.matched_keywords.is_empty() {
                let stems: Vec<&str> = a
                    .matched_keywords
                    .iter()
                    .map(|&id| classifier.stem(id))
                    .collect();
                println!("matched:  {}", stems.join(", "));
            }
            if a.ambiguous {
                println!("note:     another tag tied this score (manual review advised)");
            }
            let overlay = disengage::stpa::overlay_for(a.tag);
            if !overlay.components.is_empty() {
                let components: Vec<&str> = overlay.components.iter().map(|c| c.name()).collect();
                println!("stpa:     implicates {}", components.join(", "));
            }
            Ok(())
        }
        "stpa-dot" => {
            print!("{}", to_dot(&ControlStructure::standard()));
            Ok(())
        }
        "demo-miles" => {
            let rate: f64 = args
                .positional
                .get(1)
                .ok_or("demo-miles needs a rate")?
                .parse()
                .map_err(|_| "rate must be a number")?;
            let confidence: f64 = args
                .positional
                .get(2)
                .ok_or("demo-miles needs a confidence")?
                .parse()
                .map_err(|_| "confidence must be a number")?;
            let miles = failure_free_miles(rate, confidence).map_err(|e| e.to_string())?;
            println!(
                "{miles:.0} failure-free miles demonstrate a rate below {rate:e}/mile at {:.0}% confidence",
                confidence * 100.0
            );
            Ok(())
        }
        "project" => {
            let m = Manufacturer::parse(
                args.positional
                    .get(1)
                    .ok_or("project needs a manufacturer")?,
            )
            .map_err(|e| e.to_string())?;
            let target: f64 = args
                .positional
                .get(2)
                .ok_or("project needs a target DPM")?
                .parse()
                .map_err(|_| "target DPM must be a number")?;
            let o = session
                .run_traced(&obs, &timeline)
                .map_err(|e| e.to_string())?;
            let p =
                whatif::miles_to_target_dpm(&o.database, m, target).map_err(|e| e.to_string())?;
            println!(
                "{m}: DPM ~ {:.3e} · miles^{:.2}; current ({:.0} mi) ≈ {:.2e} DPM",
                p.fit.prefactor, p.fit.exponent, p.current_miles, p.current_dpm
            );
            match p.additional_miles() {
                Some(0.0) => println!("target {target:e} already met"),
                Some(extra) => {
                    println!("target {target:e} reached after ~{extra:.0} more autonomous miles")
                }
                None => println!("trend is not improving; target {target:e} is never reached"),
            }
            Ok(())
        }
        "sweep-ocr" => {
            println!(
                "{:>8} {:>8} {:>10} {:>9}",
                "salt", "erosion", "CER", "recovery"
            );
            for step in 0..=5 {
                let salt = step as f64 * 0.004;
                let noise = if step == 0 {
                    NoiseModel::clean()
                } else {
                    NoiseModel::new(salt, salt * 6.0)
                };
                // Each sweep point is its own session (distinct OCR
                // config ⇒ distinct stage keys), so a cache directory
                // warms the whole sweep after one pass.
                let o = RunSession::new(
                    config
                        .clone()
                        .with_corpus(CorpusConfig { seed, scale: 0.02 })
                        .with_ocr(OcrMode::Simulated {
                            noise,
                            correct: true,
                        })
                        .with_ocr_seed(seed ^ 0xFF),
                )
                .run_with(&obs)
                .map_err(|e| e.to_string())?;
                let stats = o.ocr.expect("simulated mode reports stats");
                println!(
                    "{:>8.3} {:>8.3} {:>10.4} {:>8.1}%",
                    salt,
                    salt * 6.0,
                    stats.mean_cer,
                    o.recovery_rate() * 100.0
                );
            }
            Ok(())
        }
        "explain" => {
            let o = session
                .run_traced(&obs, &timeline)
                .map_err(|e| e.to_string())?;
            let prov = obs.provenance();
            match args.positional.get(1) {
                Some(target) => {
                    let chain = prov.explain(target).ok_or_else(|| {
                        format!(
                            "no provenance recorded for `{target}` \
                             (run `disengage explain` with no target for exemplar subjects)"
                        )
                    })?;
                    print!("{chain}");
                }
                None => {
                    println!(
                        "{} provenance events over {} records ({} disengagements recovered)",
                        prov.entries().len(),
                        prov.record_ids().len(),
                        o.database.disengagements().len()
                    );
                    let exemplars = prov.exemplars();
                    for (label, subject) in &exemplars {
                        println!("  {label:<12} {subject}");
                    }
                    if let Some((_, subject)) = exemplars.first() {
                        println!("try: disengage explain {subject}");
                    }
                }
            }
            Ok(())
        }
        "profile" => {
            // Profile the full OCR ladder: simulated noise forces the
            // rasterize → correlate → repair path that the parsed-text
            // mode skips. Default to a tenth-scale corpus so the command
            // answers in seconds.
            let profiled = RunSession::new(
                config
                    .clone()
                    .with_corpus(CorpusConfig {
                        seed,
                        scale: args.scale.unwrap_or(0.1),
                    })
                    .with_ocr(OcrMode::Simulated {
                        noise: NoiseModel::light(),
                        correct: true,
                    })
                    .with_ocr_seed(seed ^ 0xFF),
            );
            profiled
                .run_traced(&obs, &timeline)
                .map_err(|e| e.to_string())?;
            disengage::obs::profile::record_process_gauges(&obs);
            let report = obs.report();
            let mut profile = disengage::obs::ProfileReport::from_report(&report);
            profile.pool = timeline
                .worker_stats()
                .into_iter()
                .map(|w| disengage::obs::PoolRow {
                    worker: w.worker,
                    busy_s: w.busy_s,
                    idle_s: w.idle_s,
                    steals: w.steals,
                    chunks: w.chunks,
                    items: w.items,
                })
                .collect();
            profile.chunk_sizes = timeline.chunk_size_counts();
            match args.profile {
                ProfileMode::Off | ProfileMode::Table => print!("{}", profile.render_table()),
                ProfileMode::Json => println!("{}", profile.to_json()),
                ProfileMode::Folded => {
                    let folded = disengage::obs::folded_stacks(&report);
                    disengage::obs::validate_folded(&folded)
                        .map_err(|e| format!("internal: folded export invalid: {e}"))?;
                    print!("{folded}");
                }
            }
            Ok(())
        }
        "check-folded" => {
            let path = args.positional.get(1).ok_or("check-folded needs a file")?;
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let n = disengage::obs::validate_folded(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: valid folded stacks ({n} stacks)");
            Ok(())
        }
        "check-trace" => {
            let path = args.positional.get(1).ok_or("check-trace needs a file")?;
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let n =
                disengage::obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: valid Chrome trace ({n} events)");
            Ok(())
        }
        "doctor" => {
            let path = args
                .positional
                .get(1)
                .map(String::as_str)
                .unwrap_or(disengage::obs::flight::DEFAULT_DUMP_PATH);
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e} (an interrupted run writes one)"))?;
            let dump =
                disengage::obs::flight::validate_dump(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", disengage::obs::flight::render_postmortem(&dump, 20));
            Ok(())
        }
        "check-prom" => {
            let path = args.positional.get(1).ok_or("check-prom needs a file")?;
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let n =
                disengage::obs::validate_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: valid Prometheus exposition ({n} samples)");
            Ok(())
        }
        "health" => {
            // Run the pipeline; the epilogue below evaluates the rules
            // (from --health=FILE or the built-in defaults) against the
            // run's telemetry and sets the exit code.
            let o = session
                .run_traced(&obs, &timeline)
                .map_err(|e| e.to_string())?;
            println!(
                "{} disengagements, {} accidents, {} quarantined",
                o.database.disengagements().len(),
                o.database.accidents().len(),
                o.quarantined.len()
            );
            Ok(())
        }
        "" => Err("missing command".to_owned()),
        other => Err(format!("unknown command `{other}`")),
    };
    result?;
    args.write_exports(&obs, &timeline)?;
    let report = obs.report();
    let mut exit = ExitCode::SUCCESS;
    if let Some(rules) = &health_rules {
        let verdict = disengage::obs::health::evaluate(rules, &report);
        print!("{}", verdict.render());
        if verdict.failed() {
            exit = ExitCode::FAILURE;
        }
    }
    match args.telemetry {
        TelemetryMode::Off => {}
        TelemetryMode::Tree => print!("{}", report.render_tree()),
        TelemetryMode::Json => println!("{}", report.to_json()),
        TelemetryMode::StableJson => println!("{}", report.canonical().to_json()),
    }
    Ok(exit)
}
