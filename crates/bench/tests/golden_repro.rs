//! Cross-commit pin of everything `repro` prints and exports: FNV-1a
//! digests of its full stdout, its canonical telemetry
//! (`repro_metrics.json` under `--telemetry=stable-json`) and its
//! canonical flight dump (`--flight=flight.json`) at full scale, clean
//! and under the seeded fault plan `--chaos=0.05,7` (whose DEGRADED
//! lines are part of stdout). Every Stage IV artifact — Tables I–VIII,
//! Figs. 4–12, Q1–Q5, exposure, what-if and accuracy — is in the
//! stdout bytes, so a Stage IV rewrite that moves any printed digit
//! fails here. Every counter, gauge and histogram bit of Stages I–III
//! is in the telemetry, and every watched flight event — the chaos
//! run's 101 `parse.dis.failed` lines make 202 of them — is in the
//! dump, so a change to how the stages record fails here too. The two
//! export flags leave stdout unchanged.
//!
//! The constants were recorded once and must only move with a
//! deliberate, documented output change.

use disengage_cache::Fp;
use std::process::Command;

/// Length and FNV-1a digest of one output.
type Digest = (usize, String);

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), Fp::new().write_raw(bytes).finish().to_hex())
}

/// The digests of one `repro` run: stdout, `repro_metrics.json` and
/// `flight.json`.
#[derive(Debug, PartialEq)]
struct Pins {
    stdout: Digest,
    metrics: Digest,
    flight: Digest,
}

/// Runs `repro` with `args` plus the two canonical exports in a fresh
/// working directory (`--chaos` also writes `chaos_report.json` there)
/// and digests its stdout and both exports.
fn repro_pins(name: &str, args: &[&str]) -> Pins {
    let dir = std::env::temp_dir().join(format!(
        "disengage-golden-repro-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--telemetry=stable-json", "--flight=flight.json"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |file: &str| {
        std::fs::read(dir.join(file))
            .unwrap_or_else(|e| panic!("repro {args:?} wrote no {file}: {e}"))
    };
    let (metrics, flight) = (read("repro_metrics.json"), read("flight.json"));
    let _ = std::fs::remove_dir_all(&dir);
    Pins {
        stdout: digest(&out.stdout),
        metrics: digest(&metrics),
        flight: digest(&flight),
    }
}

fn pins(stdout: (usize, &str), metrics: (usize, &str), flight: (usize, &str)) -> Pins {
    let own = |(len, hex): (usize, &str)| (len, hex.to_owned());
    Pins {
        stdout: own(stdout),
        metrics: own(metrics),
        flight: own(flight),
    }
}

#[test]
fn clean_repro_stdout_is_pinned() {
    assert_eq!(
        repro_pins("clean", &[]),
        pins(
            (17583, "92e83a7874aaaeff"),
            (12458, "e87503928acbe25d"),
            (14770, "ba47553fbaab4894"),
        )
    );
}

#[test]
fn chaos_repro_stdout_is_pinned() {
    assert_eq!(
        repro_pins("chaos", &["--chaos=0.05,7"]),
        pins(
            (15986, "3713b909755c8795"),
            (15507, "d4a70124bc864733"),
            (53141, "44fee879e845cf22"),
        )
    );
}
