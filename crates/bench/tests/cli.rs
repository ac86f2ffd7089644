//! CLI contract of the `repro` and `parbench` harnesses: `--help`/`-h`
//! exit 0 with usage, unknown flags exit nonzero naming the flag —
//! both binaries ride the shared parser in `disengage_core::args`.

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
    // The cache would corrupt the measurement; parbench refuses it.
    assert!(!run(exe, &["--cache-dir=/tmp/x"]).status.success());
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
