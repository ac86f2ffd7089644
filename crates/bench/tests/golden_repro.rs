//! Cross-commit pin of everything `repro` prints: an FNV-1a digest of
//! its full stdout at full scale, clean and under the seeded fault plan
//! `--chaos=0.05,7` (whose DEGRADED lines are part of stdout). Every
//! Stage IV artifact — Tables I–VIII, Figs. 4–12, Q1–Q5, exposure,
//! what-if and accuracy — is in those bytes, so a Stage IV rewrite
//! that moves any printed digit fails here.
//!
//! The constants were recorded once and must only move with a
//! deliberate, documented output change.

use disengage_cache::Fp;
use std::process::Command;

/// Runs `repro` with `args` in a fresh working directory (every run
/// writes `repro_metrics.json` there, and `--chaos` adds
/// `chaos_report.json`) and returns its stdout's length and digest.
fn stdout_digest(name: &str, args: &[&str]) -> (usize, String) {
    let dir = std::env::temp_dir().join(format!(
        "disengage-golden-repro-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = Fp::new().write_raw(&out.stdout).finish().to_hex();
    (out.stdout.len(), digest)
}

#[test]
fn clean_repro_stdout_is_pinned() {
    assert_eq!(
        stdout_digest("clean", &[]),
        (17583, "92e83a7874aaaeff".to_owned())
    );
}

#[test]
fn chaos_repro_stdout_is_pinned() {
    assert_eq!(
        stdout_digest("chaos", &["--chaos=0.05,7"]),
        (15986, "3713b909755c8795".to_owned())
    );
}
