//! CLI contract of the `repro` and `parbench` harnesses: `--help`/`-h`
//! exit 0 with usage, unknown flags exit nonzero naming the flag —
//! both binaries ride the shared parser in `disengage_core::args` — and
//! `repro`'s artifact selection and degradation ledger.

use disengage_core::analyze::ARTIFACTS;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("harness binary runs")
}

#[test]
fn repro_help_exits_zero_and_unknown_flags_fail() {
    let exe = env!("CARGO_BIN_EXE_repro");
    for flag in ["--help", "-h"] {
        let out = run(exe, &[flag]);
        assert!(out.status.success(), "repro {flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"));
        assert!(stdout.contains("--cache-dir"));
    }
    let out = run(exe, &["--bogus"]);
    assert!(!out.status.success(), "repro --bogus must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus") && stderr.contains("usage:"));
    // Malformed values fail before any pipeline work.
    for bad in ["--telemetry=loud", "--chaos=2.0", "--jobs=many"] {
        assert!(!run(exe, &[bad]).status.success(), "{bad} must fail");
    }
    // The perf-envelope flag is gone: performance lives in benchmark/.
    assert_unknown(exe, &["--bench", "x"]);
}

#[test]
fn repro_help_lists_every_artifact_and_rejects_unknown_ones() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let help = String::from_utf8_lossy(&run(exe, &["--help"]).stdout).into_owned();
    let listed: Vec<&str> = help.split_whitespace().collect();
    for artifact in ARTIFACTS {
        assert!(
            listed.contains(&artifact),
            "--help omits {artifact}: {help}"
        );
    }
    // A typo fails before any pipeline work instead of selecting nothing.
    let out = run(exe, &["table1", "tabel1"]);
    assert!(!out.status.success(), "repro tabel1 must exit nonzero");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown artifact `tabel1`") && stderr.contains("usage:"),
        "{stderr}"
    );
}

#[test]
fn repro_rejects_profile_and_names_the_profile_command() {
    // repro renders no self-profile, so --profile fails before any
    // pipeline work instead of being parsed and ignored.
    let exe = env!("CARGO_BIN_EXE_repro");
    for args in [
        &["table3", "--profile=json"][..],
        &["--profile"],
        &["fig11", "--profile=folded"],
    ] {
        let out = run(exe, args);
        assert!(!out.status.success(), "repro {args:?} must exit nonzero");
        assert!(out.stdout.is_empty(), "repro {args:?} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--profile")
                && stderr.contains("disengage profile")
                && stderr.contains("usage:"),
            "repro {args:?}: {stderr}"
        );
    }
    assert!(run(exe, &["table3", "--profile=off", "--scale=0.05"])
        .status
        .success());
}

/// A `--health` rule file is read before the run: a missing or
/// malformed file fails with its `PATH: error` line before the
/// pipeline starts, and prints nothing on stdout.
#[test]
fn repro_rejects_a_bad_health_rule_file_before_the_run() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-cli-health-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "just two\n").expect("write");
    for path in [dir.join("missing.txt"), bad] {
        let flag = format!("--health={}", path.display());
        let out = run(exe, &["table1", "--scale=0.02", &flag]);
        assert!(!out.status.success(), "repro {flag} must fail");
        assert!(out.stdout.is_empty(), "repro {flag} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = format!("error: {}: ", path.display());
        assert!(stderr.starts_with(&line), "repro {flag}: {stderr}");
        assert!(!stderr.contains("running pipeline"), "repro {flag} ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_prints_a_selection_in_artifact_order() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let print = |args: &[&str]| {
        let out = run(exe, args);
        assert!(out.status.success(), "repro {args:?} failed");
        out.stdout
    };
    let forward = print(&["table4", "fig8", "--scale=0.05"]);
    assert_eq!(forward, print(&["fig8", "table4", "--scale=0.05"]));
    let text = String::from_utf8_lossy(&forward);
    assert!(text.find("Table IV").unwrap() < text.find("Figure 8").unwrap());
}

#[test]
fn repro_ledger_lists_each_degraded_artifact_once() {
    // One shard: no Mercedes-Benz or Waymo data, and one manufacturer.
    // Both Fig. 11 panels degrade as blocks; the exposure association
    // tests and two what-if projections degrade on their own lines.
    // `--chaos` writes chaos_report.json into a fresh working directory.
    let dir = std::env::temp_dir().join(format!("disengage-repro-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig11",
            "exposure",
            "whatif",
            "--shards=nissan_2016",
            "--chaos=0.05,7",
        ])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout)
            .matches("DEGRADED")
            .count(),
        6
    );
    assert!(
        stderr.contains("3 artifact(s) degraded under this run: fig11, exposure, whatif"),
        "{stderr}"
    );
    let report = std::fs::read_to_string(dir.join("chaos_report.json")).expect("chaos report");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        report.contains(r#""degraded_artifacts":["fig11","exposure","whatif"]"#),
        "{report}"
    );
}

#[test]
fn parbench_help_exits_zero_and_unknown_flags_fail() {
    let exe = env!("CARGO_BIN_EXE_parbench");
    for flag in ["--help", "-h"] {
        let out = run(exe, &[flag]);
        assert!(out.status.success(), "parbench {flag} must exit 0");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    }
    assert_unknown(exe, &["--bogus"]);
    // The timing grid's flags are gone; the stress ladder is the default.
    for removed in [
        "--out=x",
        "--samples=3",
        "--require-speedup",
        "--scale-stress",
    ] {
        assert_unknown(exe, &[removed]);
    }
    // It reads only --scale, --jobs and --shards: every other shared
    // flag (the cache would corrupt the measurement) is refused by name
    // with the usage text, in either spelling, not ignored.
    for args in [
        &["--seed=9"][..],
        &["--seed", "9"],
        &["--telemetry=json"],
        &["--telemetry"],
        &["--chaos=0.5"],
        &["--lineage=ignored.jsonl"],
        &["--lineage"],
        &["--trace=ignored.json"],
        &["--cache-dir=/tmp/x"],
        &["--cache-cap=3"],
        &["--flight=ignored.json"],
        &["--health"],
        &["--prom=ignored.prom"],
    ] {
        let out = run(exe, args);
        assert!(!out.status.success(), "parbench {args:?} must exit nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = args[0].split('=').next().unwrap_or(args[0]);
        assert!(
            stderr.contains(&format!("{name}: parbench reads only")) && stderr.contains("usage:"),
            "parbench {args:?} must be refused by name: {stderr}"
        );
    }
    // It renders no self-profile either.
    let out = run(exe, &["--profile=json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("disengage profile"));
}

/// `args` fail before any pipeline work: their first flag is rejected
/// as unknown, named in the error alongside the usage text.
fn assert_unknown(exe: &str, args: &[&str]) {
    let out = run(exe, args);
    assert!(!out.status.success(), "{args:?} must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = args[0].split('=').next().unwrap_or(args[0]);
    assert!(
        stderr.contains(&format!("{name}: unknown flag")) && stderr.contains("usage:"),
        "{args:?} must be rejected as unknown: {stderr}"
    );
}
