//! The self-profiler must be observably free: profiling is always
//! compiled in, every profile metric is wall-clock-derived, and the
//! byte-identity contracts (stable-json telemetry across runs, worker
//! counts, and cache temperatures; configuration-pure stage keys)
//! must hold with it running. `TelemetryReport::canonical()` strips
//! the whole `profile.*` namespace; these tests prove that stripping
//! is sufficient.

use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::obs::profile;
use disengage::obs::{Collector, ProfileReport};
use disengage::ocr::NoiseModel;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A unique, self-cleaning cache directory per test.
struct TempCache(PathBuf);

impl TempCache {
    fn new(name: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "disengage-profile-determinism-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Simulated OCR at a small scale: the configuration under which the
/// profiler records its deepest phase tree (rasterize → degrade →
/// correlate → repair → cer per document).
fn simulated() -> RunConfig {
    RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: 0x5EED,
            scale: 0.01,
        })
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_ocr_seed(0xD0C5)
}

fn run_collecting(config: &RunConfig) -> Collector {
    let obs = Collector::new();
    RunSession::new(config.clone())
        .run_with(&obs)
        .expect("session runs");
    obs
}

/// Two runs whose wall clocks are *artificially* forced apart — one
/// gets hours of fake phase time and the process memory gauges, the
/// other nothing — must still render byte-identical canonical
/// telemetry. This is satellite proof that `canonical()` strips every
/// profile metric, not just the ones a fast run happens to produce.
#[test]
fn canonical_telemetry_survives_artificial_wall_clock_skew() {
    let config = simulated();
    let a = run_collecting(&config);
    let b = run_collecting(&config);

    // Skew run B: a phase tree that never existed in run A, with
    // durations no real run could produce, plus the memory gauges.
    let (hour, half) = (Duration::from_secs(3600), Duration::from_secs(1800));
    profile::record_phase(&b, "artificial", hour, hour - half);
    profile::record_phase(&b, "artificial;skew", half, half);
    profile::record_process_gauges(&b);

    let (raw_a, raw_b) = (a.report().to_json(), b.report().to_json());
    assert_ne!(raw_a, raw_b, "raw reports should differ (else vacuous)");
    assert_eq!(
        a.report().canonical().to_json(),
        b.report().canonical().to_json(),
        "canonical telemetry must be byte-identical despite the skew"
    );
}

/// Stage cache fingerprints are pure functions of the configuration:
/// profiling (and any amount of recorded profile data) must not move
/// them, and a warm replay must be byte-identical to the cold run
/// that populated the cache — canonical telemetry included.
#[test]
fn cache_fingerprints_and_warm_replays_ignore_profiling() {
    let cache = TempCache::new("warm");
    let config = simulated().with_cache_dir(cache.path());

    let keys_before = RunSession::new(config.clone()).stage_keys(false);
    let cold = run_collecting(&config);
    let keys_after = RunSession::new(config.clone()).stage_keys(false);
    assert_eq!(
        format!("{keys_before:?}"),
        format!("{keys_after:?}"),
        "profiling a run must not perturb the stage fingerprints"
    );

    let warm = run_collecting(&config);
    assert!(
        warm.report().counter("cache.hit") > 0,
        "second run must replay from the cache"
    );
    assert_eq!(
        cold.report().canonical().to_json(),
        warm.report().canonical().to_json(),
        "warm canonical telemetry diverged from cold"
    );
}

/// A cold cached run times every commit as its stage's `cache_save`
/// phase, once per computed shard; a warm run replays and saves
/// nothing, so it records no such phase.
#[test]
fn cold_runs_time_each_save_and_warm_runs_record_none() {
    let cache = TempCache::new("save-phase");
    let config = simulated().with_cache_dir(cache.path());
    let count = |obs: &Collector, path: &str| {
        obs.report()
            .histogram(&format!("{}{path}", profile::WALL_PREFIX))
            .map_or(0, |h| h.count)
    };

    let cold = run_collecting(&config);
    let shards = cold.report().counter("cache.miss.tag");
    assert!(shards > 1, "expected a cold miss per shard, got {shards}");
    assert_eq!(count(&cold, "stage_tag"), shards);
    assert_eq!(count(&cold, "stage_tag;cache_save"), shards);

    let warm = run_collecting(&config);
    assert_eq!(warm.report().counter("cache.hit.tag"), shards);
    assert_eq!(count(&warm, "stage_tag;cache_lookup"), shards);
    assert_eq!(count(&warm, "stage_tag;cache_save"), 0);
}

/// The set of phase paths must not depend on the worker count: every
/// phase is recorded at an explicit path, whichever worker ran it, so
/// `jobs=1` and `jobs=4` record the same tree (only the wall-clock
/// values inside it differ, and those are stripped).
#[test]
fn phase_paths_are_identical_at_every_worker_count() {
    let paths = |jobs: usize| -> Vec<String> {
        let obs = run_collecting(&simulated().with_jobs(jobs));
        let mut p: Vec<String> = obs
            .report()
            .histograms
            .keys()
            .filter(|k| k.starts_with(profile::PROFILE_PREFIX))
            .cloned()
            .collect();
        p.sort();
        p
    };
    let sequential = paths(1);
    assert!(
        sequential.iter().any(|p| p.ends_with(";rasterize")),
        "expected per-document OCR phases, got {sequential:?}"
    );
    assert_eq!(paths(4), sequential, "phase paths depend on --jobs");

    let canonical = |jobs: usize| {
        run_collecting(&simulated().with_jobs(jobs))
            .report()
            .canonical()
            .to_json()
    };
    assert_eq!(
        canonical(1),
        canonical(4),
        "canonical telemetry diverged across worker counts"
    );
}

/// The acceptance bar for the profiler's usefulness: on a simulated
/// OCR run, the named per-document phases must attribute at least 90%
/// of Stage I OCR wall time, and the folded-stack export of the same
/// run must parse. Both sides sum over all 18 shards, and the run is
/// sequential so phase time (summed across workers) and stage wall
/// measure the same thread: coverage above 100% would mean a phase is
/// counted twice.
#[test]
fn digitize_phases_cover_stage_i_and_fold_cleanly() {
    let obs = run_collecting(&simulated().with_jobs(1));
    let report = obs.report();

    let profile = ProfileReport::from_report(&report);
    let stage = profile.phases.iter().find(|r| r.path == "stage_digitize");
    let stage = stage.expect("stage_digitize phase exists");
    // The direct children of the `digitize` phase over the stage's self
    // time: its wall less cache lookup and save, so its wall here, as
    // the run has no cache.
    let named: f64 = profile
        .phases
        .iter()
        .filter(|r| {
            r.path
                .strip_prefix("digitize;")
                .is_some_and(|p| !p.contains(';'))
        })
        .map(|r| r.total_s)
        .sum();
    assert!(named > 0.0, "digitize has no children");
    let coverage = named / stage.self_s;
    assert!(
        (0.9..=1.0).contains(&coverage),
        "named OCR phases cover {:.1}% of stage_digitize (want 90-100%)",
        coverage * 100.0
    );

    let folded = disengage::obs::folded_stacks(&report);
    let stacks = disengage::obs::validate_folded(&folded).expect("folded export parses");
    assert!(stacks >= 5, "expected a real phase tree, got:\n{folded}");
    for leaf in ["digitize;rasterize", "digitize;correlate", "digitize;cer"] {
        assert!(
            folded.lines().any(|l| l.starts_with(leaf)),
            "folded export missing {leaf}:\n{folded}"
        );
    }
}
