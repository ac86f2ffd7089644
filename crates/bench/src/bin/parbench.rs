//! `parbench` — prove that peak memory stays flat as the corpus grows.
//!
//! Runs the reduced (digest-only) simulated-OCR pipeline at ⅛×, ¼×,
//! ½×, and 1× of the requested scale — each point in a **fresh child
//! process**, because Linux `VmHWM` is monotone over a process's
//! lifetime — and prints peak RSS, peak live heap, and shard
//! throughput per point. The headline number, `stress_rss_ratio`
//! (peak RSS at full scale over peak RSS at ⅛ scale), must stay at or
//! below [`MAX_STRESS_RSS_RATIO`]: shard-at-a-time streaming keeps only
//! `jobs` shards in flight however many shards the corpus has.
//!
//! The ladder runs at `--jobs=1` unless told otherwise, so the verdict
//! does not depend on the machine: at `--jobs=0` an 18-core box would
//! hold every shard at once, and each extra worker thread adds its own
//! allocator arena to RSS.
//!
//! ```text
//! parbench               # ladder up to scale 0.2, one shard in flight
//! parbench --scale 0.1   # ladder up to scale 0.1
//! parbench --jobs=2      # two shards in flight
//! ```
//!
//! Exits nonzero when a child fails or the ratio exceeds the budget.
//! Flag parsing rides on the shared [`disengage_core::args`] module,
//! but only `--scale`, `--jobs` and `--shards` shape the ladder: every
//! other shared flag is refused rather than ignored. The artifact
//! cache would measure disk reads, and chaos, another seed or a
//! recorder would measure something other than the clean streaming
//! pipeline. Timing lives in the standalone `benchmark/` package.

use disengage_core::args::{ArgError, CommonArgs};
use disengage_core::pipeline::OcrMode;
use disengage_core::{RunConfig, RunSession};
use disengage_corpus::CorpusConfig;
use disengage_ocr::NoiseModel;
use std::process::ExitCode;
use std::time::Instant;

/// Byte-accurate live-heap accounting for the stress children: VmHWM
/// includes allocator arenas that were grown and freed, so the ladder
/// reports `peak_live_bytes` alongside it.
#[global_allocator]
static ALLOC: disengage_obs::CountingAlloc = disengage_obs::CountingAlloc;

const USAGE: &str = "usage: parbench [--scale F] [--jobs N] [--shards=LIST]";

/// Peak-RSS growth budget across the ladder's 8× corpus growth.
const MAX_STRESS_RSS_RATIO: f64 = 1.25;

const MIB: f64 = 1024.0 * 1024.0;

fn config(scale: f64) -> RunConfig {
    RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: 0x5EED,
            scale,
        })
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_ocr_seed(0xD0C5)
}

/// One `--stress-child` measurement, parsed back from the child's
/// single stdout line.
struct StressPoint {
    rss_bytes: f64,
    peak_live_bytes: f64,
    shards: f64,
    secs: f64,
}

/// Peak RSS at the top of the ladder over peak RSS at its foot;
/// `None` when the platform reports no RSS.
fn stress_rss_ratio(first: &StressPoint, last: &StressPoint) -> Option<f64> {
    (first.rss_bytes > 0.0).then(|| last.rss_bytes / first.rss_bytes)
}

/// Whether a ladder's `stress_rss_ratio` is within the memory budget.
fn within_budget(ratio: f64) -> bool {
    ratio <= MAX_STRESS_RSS_RATIO
}

/// Child mode: run the reduced (digest-only) sharded pipeline once at
/// `scale` and report peak RSS. Runs in its own process because
/// `VmHWM` never decreases within a process — the parent's own
/// allocations (or an earlier, larger point) would otherwise mask the
/// smaller points entirely.
fn stress_child(scale: f64, jobs: usize, shards: Option<&[String]>) -> ExitCode {
    let obs = disengage_obs::Collector::new();
    let t0 = Instant::now();
    let mut cfg = config(scale).with_jobs(jobs);
    if let Some(s) = shards {
        cfg = cfg.with_shards(s.to_vec());
    }
    let digest = match RunSession::new(cfg).run_reduced(&obs) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: stress child failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let rss = disengage_obs::profile::peak_rss_bytes().unwrap_or(0);
    let live = disengage_obs::profile::alloc_stats().peak_live_bytes;
    println!(
        "rss_bytes={rss} peak_live_bytes={live} shards={} disengagements={} secs={secs}",
        digest.shards, digest.disengagements
    );
    ExitCode::SUCCESS
}

/// Spawns one stress point as a fresh child process and parses its
/// report line.
fn run_stress_point(
    scale: f64,
    jobs: usize,
    shards: Option<&[String]>,
) -> Result<StressPoint, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg(format!("--stress-child={scale}"));
    cmd.arg(format!("--jobs={jobs}"));
    if let Some(s) = shards {
        cmd.arg(format!("--shards={}", s.join(",")));
    }
    let out = cmd
        .output()
        .map_err(|e| format!("stress child spawn failed: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "stress child at scale {scale} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> Result<f64, String> {
        stdout
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("stress child output missing `{key}`: {stdout:?}"))
    };
    Ok(StressPoint {
        rss_bytes: field("rss_bytes")?,
        peak_live_bytes: field("peak_live_bytes")?,
        shards: field("shards")?,
        secs: field("secs")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut stress_child_scale: Option<f64> = None;
    let parsed = CommonArgs::parse_with(&raw, |flag, value| match flag {
        // Internal: one point of the ladder, run in a fresh process so
        // VmHWM measures only this scale.
        "--stress-child" => {
            let v = value.ok_or_else(|| ArgError {
                flag: flag.to_owned(),
                reason: "expected --stress-child=SCALE".to_owned(),
            })?;
            stress_child_scale = Some(v.parse().map_err(|_| ArgError {
                flag: flag.to_owned(),
                reason: format!("`{v}` is not a scale"),
            })?);
            Ok(true)
        }
        _ => Ok(false),
    });
    let args = match parsed {
        Ok(args) => args,
        Err(ArgError { flag, reason }) => {
            eprintln!("error: {flag}: {reason}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if !args.positional.is_empty() {
        eprintln!("error: unknown argument `{}`", args.positional[0]);
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = args.reject_profile() {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    // Every other shared flag would go unread, so it is refused.
    let read = ["--scale", "--jobs", "--shards", "--stress-child"];
    if let Some(flag) = raw
        .iter()
        .filter_map(|a| a.split('=').next())
        .find(|f| f.starts_with("--") && !read.contains(f))
    {
        eprintln!("error: {flag}: parbench reads only --scale, --jobs and --shards");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let shards = args.shards.as_deref();
    let jobs = args.jobs.unwrap_or(1);
    if let Some(scale) = stress_child_scale {
        return stress_child(scale, jobs, shards);
    }

    let full_scale = args.scale.unwrap_or(0.2);
    let points = [
        full_scale / 8.0,
        full_scale / 4.0,
        full_scale / 2.0,
        full_scale,
    ];
    eprintln!("scale-stress ladder: {points:?} at --jobs={jobs} (one child process per point)");
    let mut measured: Vec<StressPoint> = Vec::new();
    for &scale in &points {
        match run_stress_point(scale, jobs, shards) {
            Ok(p) => {
                eprintln!(
                    "scale {scale}: peak RSS {:.1} MiB, peak live {:.1} MiB, {} shard(s), {:.1} shards/s",
                    p.rss_bytes / MIB,
                    p.peak_live_bytes / MIB,
                    p.shards,
                    if p.secs > 0.0 { p.shards / p.secs } else { 0.0 }
                );
                measured.push(p);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let growth = full_scale / points[0];
    match stress_rss_ratio(&measured[0], &measured[measured.len() - 1]) {
        None => {
            eprintln!("scale-stress: peak RSS unavailable on this platform; ratio NOT checked");
            ExitCode::SUCCESS
        }
        Some(ratio) if !within_budget(ratio) => {
            eprintln!(
                "FAILED: stress_rss_ratio {ratio:.3} > {MAX_STRESS_RSS_RATIO} across {growth:.0}x scale growth"
            );
            ExitCode::FAILURE
        }
        Some(ratio) => {
            eprintln!(
                "scale-stress: stress_rss_ratio {ratio:.3} <= {MAX_STRESS_RSS_RATIO} across {growth:.0}x scale growth"
            );
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rss_bytes: f64) -> StressPoint {
        StressPoint {
            rss_bytes,
            peak_live_bytes: 0.0,
            shards: 18.0,
            secs: 1.0,
        }
    }

    #[test]
    fn stress_rss_ratio_has_an_absolute_budget() {
        assert_eq!(MAX_STRESS_RSS_RATIO, 1.25);
        let foot = point(4.0 * MIB);
        // Flat memory passes, and the budget itself is inclusive.
        let flat = stress_rss_ratio(&foot, &point(4.3 * MIB)).expect("ratio");
        assert!((flat - 1.075).abs() < 1e-9);
        assert!(within_budget(flat));
        assert!(within_budget(
            stress_rss_ratio(&foot, &point(5.0 * MIB)).expect("ratio")
        ));
        // Memory that scales with the corpus breaches it.
        assert!(!within_budget(
            stress_rss_ratio(&foot, &point(12.0 * MIB)).expect("ratio")
        ));
        // No RSS reading, no ratio.
        assert!(stress_rss_ratio(&point(0.0), &point(5.0 * MIB)).is_none());
    }
}
