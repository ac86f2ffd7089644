//! CLI contract of the `disengage` binary: `--help`/`-h` exit 0 with
//! usage on stdout, unknown or malformed `--` flags exit nonzero with
//! an error naming the flag plus the usage text — never silently
//! ignored (the pre-refactor parser treated unknown flags as
//! positionals and dropped them).

use std::process::{Command, Output};

fn disengage(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_disengage"))
        .args(args)
        .output()
        .expect("disengage binary runs")
}

#[test]
fn help_exits_zero_with_usage() {
    for flag in ["--help", "-h"] {
        let out = disengage(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{flag} must print usage");
        assert!(
            stdout.contains("--cache-dir"),
            "{flag} must document the shared flags"
        );
    }
    // Help wins even alongside a real command.
    assert!(disengage(&["summary", "--help"]).status.success());
}

/// Every subcommand the binary dispatches must appear in `--help`.
/// This list mirrors the `match` in `src/bin/disengage.rs`; when a
/// command is added there, it must be added to `usage()` too, and this
/// test keeps the two from drifting.
#[test]
fn help_covers_every_dispatchable_subcommand() {
    let out = disengage(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for command in [
        "summary",
        "export",
        "classify",
        "stpa-dot",
        "demo-miles",
        "project",
        "sweep-ocr",
        "explain",
        "profile",
        "check-folded",
        "check-trace",
        "doctor",
        "check-prom",
        "health",
    ] {
        assert!(
            stdout.contains(&format!("disengage {command}")),
            "usage text is missing the `{command}` subcommand"
        );
    }
    // The shard filter rides along with the other shared flags.
    assert!(stdout.contains("--shards"), "usage must document --shards");
}

#[test]
fn unknown_flags_are_rejected_loudly() {
    for bad in ["--bogus", "--job=2", "--cachedir=x"] {
        let out = disengage(&["summary", bad]);
        assert!(!out.status.success(), "{bad} must exit nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = bad.split('=').next().unwrap();
        assert!(stderr.contains(flag), "error must name {flag}: {stderr}");
        assert!(stderr.contains("usage:"), "error must include usage");
    }
}

#[test]
fn malformed_values_are_rejected() {
    for bad in [
        ["summary", "--scale=nope"],
        ["summary", "--jobs=many"],
        ["summary", "--telemetry=loud"],
        ["summary", "--chaos=2.0"],
        ["summary", "--cache-cap=lots"],
        ["summary", "--cache-cap=-1"],
        ["profile", "--profile=flame"],
    ] {
        let out = disengage(&bad);
        assert!(!out.status.success(), "{bad:?} must exit nonzero");
    }
}

/// `--cache-cap` is a shared flag: documented in the usage, accepted
/// with both spellings (including the 0 = unbounded sentinel), loud on
/// garbage.
#[test]
fn cache_cap_is_documented_and_accepted() {
    let help = disengage(&["--help"]);
    assert!(
        String::from_utf8_lossy(&help.stdout).contains("--cache-cap"),
        "usage must document --cache-cap"
    );
    let dir = std::env::temp_dir().join(format!("disengage-cli-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = format!("--cache-dir={}", dir.display());
    for cap in ["--cache-cap=2", "--cache-cap=0"] {
        let out = disengage(&["summary", "--scale=0.01", &cache, cap]);
        assert!(
            out.status.success(),
            "{cap} must be accepted: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `disengage profile` renders the stage × phase table by default, and
/// its folded export round-trips through `check-folded`.
#[test]
fn profile_command_renders_and_folded_round_trips() {
    let out = disengage(&["profile", "--scale=0.01"]);
    assert!(out.status.success(), "profile must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "== profile ==",
        "stage_i_ocr",
        "digitize",
        "rasterize",
        "throughput",
    ] {
        assert!(
            stdout.contains(needle),
            "table must mention {needle}:\n{stdout}"
        );
    }
    let stage_rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| *l != "stages:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_each_stage_once(&stage_rows);

    let folded = disengage(&["profile", "--scale=0.01", "--profile=folded"]);
    assert!(folded.status.success());
    let dir = std::env::temp_dir().join(format!("disengage-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("profile.folded");
    std::fs::write(&path, &folded.stdout).expect("write folded");
    let check = disengage(&["check-folded", path.to_str().expect("utf-8 path")]);
    assert!(
        check.status.success(),
        "check-folded must accept our own export"
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("valid folded stacks"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--profile=json` emits a single JSON object that the in-tree parser
/// accepts, with the documented top-level sections.
#[test]
fn profile_json_parses_with_expected_sections() {
    let out = disengage(&["profile", "--scale=0.01", "--profile=json"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let value = disengage::obs::json::Value::parse(text.trim()).expect("profile json parses");
    for section in ["stages", "phases", "throughput", "memory", "pool"] {
        assert!(value.get(section).is_some(), "missing `{section}` section");
    }
    let stages: Vec<&str> = value
        .get("stages")
        .and_then(|s| s.as_arr())
        .expect("stages is an array")
        .iter()
        .map(|s| s.get("name").and_then(|n| n.as_str()).expect("stage name"))
        .collect();
    assert_each_stage_once(&stages);
}

/// `--profile` belongs to `disengage profile`: every other subcommand
/// rejects it before doing any work, naming the command that renders a
/// profile, instead of parsing it and printing nothing. `off`, the
/// default, passes everywhere.
#[test]
fn profile_flag_is_rejected_outside_the_profile_command() {
    for command in [
        &["summary", "--scale=0.01"][..],
        &["export", "unwritten-dir"],
        &["classify", "planner error"],
        &["stpa-dot"],
        &["demo-miles", "0.001", "0.95"],
        &["project", "waymo", "0.001"],
        &["sweep-ocr"],
        &["explain"],
        &["check-trace", "trace.json"],
        &["check-folded", "profile.folded"],
        &["doctor", "flight.json"],
        &["health"],
        &["check-prom", "metrics.prom"],
    ] {
        for mode in ["--profile", "--profile=json", "--profile=folded"] {
            let out = disengage(&[command, &[mode]].concat());
            assert!(
                !out.status.success(),
                "{command:?} {mode} must exit nonzero"
            );
            assert!(out.stdout.is_empty(), "{command:?} {mode} printed output");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("--profile")
                    && stderr.contains("disengage profile")
                    && stderr.contains("usage:"),
                "{command:?} {mode}: {stderr}"
            );
        }
    }
    assert!(disengage(&["stpa-dot", "--profile=off"]).status.success());
    let out = disengage(&["profile", "--scale=0.01", "--profile=json"]);
    assert!(out.status.success(), "profile --profile=json must exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        disengage::obs::json::Value::parse(text.trim()).is_ok(),
        "{text}"
    );
}

/// A sharded run opens every stage span once per shard; the profile
/// folds them, so each stage name must appear exactly once.
fn assert_each_stage_once(names: &[&str]) {
    for stage in [
        "stage_i_corpus",
        "stage_i_ocr",
        "stage_ii_parse",
        "stage_iii_tag",
    ] {
        let n = names.iter().filter(|&&s| s == stage).count();
        assert_eq!(n, 1, "{stage} listed {n} times in {names:?}");
    }
    let mut unique = names.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        names.len(),
        "a stage is listed twice: {names:?}"
    );
}

#[test]
fn check_folded_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("disengage-cli-folded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.folded");
    std::fs::write(&path, "no-weight-here\n").expect("write");
    let out = disengage(&["check-folded", path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "garbage must be rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_command_fails_with_usage() {
    let out = disengage(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// `--flight` and `--prom` write files our own validators accept:
/// `doctor` renders the flight postmortem, `check-prom` validates the
/// exposition.
#[test]
fn flight_and_prom_exports_round_trip_through_their_validators() {
    let dir = std::env::temp_dir().join(format!("disengage-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let flight = dir.join("flight.json");
    let prom = dir.join("metrics.prom");
    let out = disengage(&[
        "summary",
        "--scale=0.01",
        &format!("--flight={}", flight.display()),
        &format!("--prom={}", prom.display()),
    ]);
    assert!(
        out.status.success(),
        "summary with exports must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doctor = disengage(&["doctor", flight.to_str().expect("utf-8 path")]);
    assert!(doctor.status.success(), "doctor must accept our own dump");
    let post = String::from_utf8_lossy(&doctor.stdout);
    for needle in [
        "flight recorder postmortem",
        "reason: run complete",
        "pipeline",
    ] {
        assert!(
            post.contains(needle),
            "postmortem must mention {needle}:\n{post}"
        );
    }

    let check = disengage(&["check-prom", prom.to_str().expect("utf-8 path")]);
    assert!(
        check.status.success(),
        "check-prom must accept our own exposition"
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("valid Prometheus exposition"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace` only times the worker pool; it must not turn lineage on,
/// whose bit every stage cache key folds. So a `--trace` run over a
/// cache an untraced run warmed replays every stage.
#[test]
fn trace_export_replays_a_cache_an_untraced_run_warmed() {
    let dir =
        std::env::temp_dir().join(format!("disengage-cli-trace-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = format!("--cache-dir={}", dir.join("cache").display());
    let cold = disengage(&["summary", "--scale=0.01", &cache]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );

    let prom = dir.join("metrics.prom");
    let trace = dir.join("trace.json");
    let warm = disengage(&[
        "summary",
        "--scale=0.01",
        &cache,
        &format!("--trace={}", trace.display()),
        &format!("--prom={}", prom.display()),
    ]);
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let text = std::fs::read_to_string(&prom).expect("prom written");
    let counter = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    let shards = counter("disengage_cache_hit_corpus_total");
    assert!(shards > 0, "the warm run replayed no corpus shard:\n{text}");
    assert_eq!(counter("disengage_cache_miss_total"), 0, "{text}");
    // Corpus, normalize and tag per shard (passthrough digitize is
    // never store-cached).
    assert_eq!(counter("disengage_cache_hit_total"), 3 * shards, "{text}");

    let check = disengage(&["check-trace", trace.to_str().expect("utf-8 path")]);
    assert!(
        check.status.success(),
        "check-trace must accept our own export"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `doctor` and `check-prom` are loud on garbage and missing files.
#[test]
fn doctor_and_check_prom_reject_garbage() {
    let dir = std::env::temp_dir().join(format!("disengage-cli-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\":\"other\"}").expect("write");
    assert!(!disengage(&["doctor", bad.to_str().expect("utf-8")])
        .status
        .success());
    assert!(!disengage(&["doctor", "/nonexistent/flight.json"])
        .status
        .success());
    let badprom = dir.join("bad.prom");
    std::fs::write(&badprom, "metric with spaces 1\n").expect("write");
    assert!(
        !disengage(&["check-prom", badprom.to_str().expect("utf-8")])
            .status
            .success()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The health gate: clean runs pass the default rules and exit 0; a
/// heavy chaos run breaches the quarantine-rate rule and exits
/// nonzero with the breach named.
#[test]
fn health_gate_passes_clean_and_fails_chaos() {
    let clean = disengage(&["health", "--scale=0.01"]);
    assert!(
        clean.status.success(),
        "clean run must pass the default rules: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("== health =="));
    assert!(stdout.contains("PASS quarantine_rate"));

    let chaos = disengage(&["health", "--scale=0.01", "--chaos=0.2"]);
    assert!(
        !chaos.status.success(),
        "a 20%-rate chaos run must breach the quarantine-rate rule"
    );
    let stdout = String::from_utf8_lossy(&chaos.stdout);
    assert!(
        stdout.contains("FAIL quarantine_rate"),
        "breach must be named:\n{stdout}"
    );
}

/// `--health=FILE` loads custom rules; unparseable rule files are
/// rejected loudly.
#[test]
fn health_rule_files_are_loaded_and_validated() {
    let dir = std::env::temp_dir().join(format!("disengage-cli-health-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let rules = dir.join("rules.txt");
    std::fs::write(
        &rules,
        "# impossible bar\nno_records counter(parse.dis.parsed) == 0 fail\n",
    )
    .expect("write");
    let out = disengage(&[
        "health",
        "--scale=0.01",
        &format!("--health={}", rules.display()),
    ]);
    assert!(
        !out.status.success(),
        "a parsed-records==0 rule must fail on a real run"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("FAIL no_records"));

    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "just two\n").expect("write");
    let out = disengage(&[
        "health",
        "--scale=0.01",
        &format!("--health={}", bad.display()),
    ]);
    assert!(
        !out.status.success(),
        "malformed rule files must be rejected"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--health` rule file is read before the run: a missing or
/// malformed file fails with its `PATH: error` line and prints nothing
/// on stdout, whatever the command.
#[test]
fn bad_health_rule_files_fail_before_the_run() {
    let dir =
        std::env::temp_dir().join(format!("disengage-cli-health-early-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "just two\n").expect("write");
    for path in [dir.join("missing.txt"), bad] {
        for command in ["summary", "health"] {
            let flag = format!("--health={}", path.display());
            let out = disengage(&[command, "--scale=0.02", &flag]);
            assert!(!out.status.success(), "{command} {flag} must fail");
            assert!(
                out.stdout.is_empty(),
                "{command} {flag} ran:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            let line = format!("error: {}: ", path.display());
            assert!(stderr.starts_with(&line), "{command} {flag}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Length and FNV-1a digest of every CSV `disengage export` writes at
/// `--scale=0.05`, the same at one worker and at the default pool. The
/// constants were recorded once and must only move with a deliberate,
/// documented output change.
#[test]
fn export_writes_pinned_csv_bytes() {
    const PINS: [(&str, usize, &str); 11] = [
        ("accidents.csv", 1416, "e2912624794d573e"),
        ("disengagements.csv", 36582, "d26680f2d123b5e1"),
        ("mileage.csv", 7772, "24f93f2c5f532377"),
        ("table1.csv", 433, "5f77757c98dbc9e3"),
        ("table2.csv", 581, "86f832f43a9ae1a4"),
        ("table3.csv", 856, "edb9052cf12e622d"),
        ("table4.csv", 597, "e600d008a2528bb0"),
        ("table5.csv", 372, "de8dd230264c22fc"),
        ("table6.csv", 202, "c4433fef4834580d"),
        ("table7.csv", 444, "b2dd1f8cfb6a8fe0"),
        ("table8.csv", 312, "1f92ce678cd24251"),
    ];
    for jobs in [&["--jobs=1"][..], &[]] {
        let dir = std::env::temp_dir().join(format!(
            "disengage-cli-export-{}-{}",
            std::process::id(),
            jobs.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.to_str().expect("utf-8 path");
        let out = disengage(&[&["export", path, "--scale=0.05"][..], jobs].concat());
        assert!(
            out.status.success(),
            "export {jobs:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("export directory")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let got: Vec<(String, usize, String)> = files
            .iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(name)).expect("read export");
                let hex = disengage_cache::Fp::new()
                    .write_raw(&bytes)
                    .finish()
                    .to_hex();
                (name.clone(), bytes.len(), hex)
            })
            .collect();
        let want: Vec<(String, usize, String)> = PINS
            .iter()
            .map(|&(name, len, hex)| (name.to_owned(), len, hex.to_owned()))
            .collect();
        assert_eq!(got, want, "export {jobs:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `disengage classify` prints the verdict on Table II's four verbatim
/// log lines, on a text that ties (the `note:` line), and on a text no
/// keyword matches (Unknown-T: no `matched:` and no `stpa:` line),
/// exactly as pinned here. The matched keywords are the winner's
/// normalized stems, in ascending order.
#[test]
fn classify_prints_pinned_verdicts() {
    const CASES: [(&str, &str); 6] = [
        (
            "1/4/16 — 1:25 PM — Software module froze. As a result driver safely \
             disengaged and resumed manual control. — City and highway — Sunny/Dry",
            "tag:      Software\n\
             category: System\n\
             score:    6\n\
             matched:  froze, module, software\n\
             stpa:     implicates Planner & Controller, Recognition, Follower\n",
        ),
        (
            "5/25/16 — 11:20 AM — Leaf #1 (Alfa) — The AV didn't see the lead vehicle, \
             driver safely disengaged and resumed manual control.",
            "tag:      Recognition System\n\
             category: ML/Design\n\
             score:    11\n\
             matched:  didn, lead, see, t, vehicle\n\
             stpa:     implicates Recognition\n",
        ),
        (
            "May-16 — Highway — Safe Operation — Disengage for a recklessly behaving road user",
            "tag:      Environment\n\
             category: ML/Design\n\
             score:    8\n\
             matched:  behav, reckless, road, user\n\
             stpa:     implicates Sensors, Recognition, Non-AV Driver\n",
        ),
        (
            "11/12/14 — 18:24:03 — Takeover-Request — watchdog error",
            "tag:      Hang/Crash\n\
             category: System\n\
             score:    4\n\
             matched:  error, watchdog\n\
             stpa:     implicates Planner & Controller, Recognition, Follower\n",
        ),
        (
            "sensor error",
            "tag:      Planner\n\
             category: ML/Design\n\
             score:    1\n\
             matched:  error\n\
             note:     another tag tied this score (manual review advised)\n\
             stpa:     implicates Planner & Controller\n",
        ),
        (
            "operator ended the session early",
            "tag:      Unknown-T\n\
             category: Unknown-C\n\
             score:    0\n",
        ),
    ];
    for (text, want) in CASES {
        let out = disengage(&["classify", text]);
        assert!(out.status.success(), "classify {text:?} must exit 0");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "classify {text:?}"
        );
    }
}
