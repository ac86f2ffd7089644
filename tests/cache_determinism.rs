//! Warm-vs-cold determinism of the artifact cache: a run that replays
//! Stages I–II (or everything) from `.disengage-cache` must be
//! byte-identical to the run that computed them — same database, same
//! tags, same canonical telemetry, same lineage JSONL, same stdout —
//! clean or under chaos, at any worker count. The only permitted
//! difference is the `cache.*` counter family, which is an environment
//! fact, not an output.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::{OcrMode, PipelineOutcome};
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::nlp::{Classifier, FailureDictionary, FaultTag};
use disengage::obs::Collector;
use disengage::ocr::NoiseModel;
use std::path::{Path, PathBuf};

/// A unique, self-cleaning cache directory per test.
struct TempCache(PathBuf);

impl TempCache {
    fn new(name: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "disengage-cache-determinism-{}-{name}",
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

fn small() -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 0.05,
    })
}

/// Everything a run externalizes, as comparable bytes: the recovered
/// database, tags, quarantine lane, canonical (wall-clock-zeroed,
/// cache-counter-free) telemetry, and the lineage JSONL, which carries
/// every record id.
struct RunBytes {
    outcome_repr: String,
    canonical_telemetry: String,
    lineage: String,
    hits: u64,
    misses: u64,
    corrupt: u64,
    torn_reclaimed: u64,
}

fn run_with_lineage(config: &RunConfig) -> (PipelineOutcome, RunBytes) {
    let obs = Collector::new().with_lineage(true);
    let o = RunSession::new(config.clone())
        .run_with(&obs)
        .expect("session runs");
    let bytes = RunBytes {
        outcome_repr: format!(
            "{:?}|{:?}|{:?}|{:?}",
            o.database, o.tagged, o.parse_failures, o.quarantined
        ),
        canonical_telemetry: o.telemetry.clone().canonical().to_json(),
        lineage: obs.provenance().to_jsonl(),
        hits: o.telemetry.counter("cache.hit"),
        misses: o.telemetry.counter("cache.miss"),
        corrupt: o.telemetry.counter("cache.corrupt"),
        torn_reclaimed: o.telemetry.counter("cache.torn.reclaimed"),
    };
    (o, bytes)
}

fn assert_identical(cold: &RunBytes, warm: &RunBytes) {
    assert_eq!(
        cold.outcome_repr, warm.outcome_repr,
        "warm outcome diverged from cold"
    );
    assert_eq!(
        cold.canonical_telemetry, warm.canonical_telemetry,
        "warm canonical telemetry diverged from cold"
    );
    assert_eq!(
        cold.lineage, warm.lineage,
        "warm lineage diverged from cold"
    );
    assert!(!cold.lineage.is_empty(), "lineage run recorded no lineage");
}

#[test]
fn warm_equals_cold_passthrough() {
    let cache = TempCache::new("passthrough");
    let config = small().with_cache_dir(cache.path());

    let (_, cold) = run_with_lineage(&config);
    // Passthrough digitization is never store-cached, so three stages
    // miss cold and hit warm — once per shard (18 manufacturer × year
    // cells).
    assert_eq!((cold.hits, cold.misses), (0, 3 * 18));

    let (_, warm) = run_with_lineage(&config);
    assert_eq!((warm.hits, warm.misses), (3 * 18, 0));
    assert_eq!(warm.corrupt, 0);
    assert_identical(&cold, &warm);
}

#[test]
fn warm_equals_cold_under_chaos_ocr_and_any_worker_count() {
    let cache = TempCache::new("chaos-ocr");
    let config = small()
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_ocr_seed(0xD0C5)
        .with_chaos(FaultPlan::new(0.05, 7))
        .with_cache_dir(cache.path());

    // Cold on the default pool; warm pinned to one worker. `jobs` is
    // not part of any cache key, so the warm run must both find the
    // artifacts and replay them byte-identically.
    let (cold_o, cold) = run_with_lineage(&config.clone().with_jobs(0));
    assert_eq!((cold.hits, cold.misses), (0, 4 * 18));
    assert!(cold_o.chaos.is_some(), "chaos audit must survive the run");

    let (warm_o, warm) = run_with_lineage(&config.clone().with_jobs(1));
    assert_eq!((warm.hits, warm.misses), (4 * 18, 0));
    assert_identical(&cold, &warm);
    // The chaos audit itself is part of the cached normalize artifact.
    assert_eq!(format!("{:?}", cold_o.chaos), format!("{:?}", warm_o.chaos));
    assert_eq!(format!("{:?}", cold_o.ocr), format!("{:?}", warm_o.ocr));
}

#[test]
fn stage_iii_change_still_replays_stages_i_and_ii() {
    let cache = TempCache::new("partial");
    let config = small()
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_cache_dir(cache.path());

    let (_, cold) = run_with_lineage(&config);
    assert_eq!((cold.hits, cold.misses), (0, 4 * 18));

    // A dictionary edit is a pure Stage III change: every shard's
    // corpus, digitize (the expensive OCR pass), and normalize
    // artifacts replay from cache; only tag recomputes under its new
    // key.
    let mut dict = FailureDictionary::default_bank();
    dict.add_phrase(FaultTag::ALL[0], "entirely novel failure phrase");
    let obs = Collector::new().with_lineage(true);
    let o = RunSession::with_classifier(config.clone(), Classifier::new(dict))
        .run_with(&obs)
        .expect("session runs");
    assert_eq!(o.telemetry.counter("cache.hit"), 3 * 18);
    assert_eq!(o.telemetry.counter("cache.miss"), 18);
    assert_eq!(
        o.telemetry.counter("cache.hit.digitize"),
        18,
        "OCR was skipped"
    );
    assert_eq!(o.telemetry.counter("cache.miss.tag"), 18);
}

#[test]
fn corrupted_artifacts_recompute_silently_and_identically() {
    let cache = TempCache::new("corrupt");
    let config = small().with_cache_dir(cache.path());

    let (_, cold) = run_with_lineage(&config);
    assert_eq!(cold.corrupt, 0);

    // Vandalize every cached artifact a different way: truncate one,
    // bit-flip another, replace the third with garbage.
    let mut files: Vec<PathBuf> = Vec::new();
    for stage in ["corpus", "normalize", "tag"] {
        let dir = cache.path().join(stage);
        for entry in std::fs::read_dir(&dir).expect("stage dir exists") {
            files.push(entry.expect("dir entry").path());
        }
    }
    assert_eq!(
        files.len(),
        3 * 18,
        "one artifact per store-cached stage per shard"
    );
    files.sort();
    let original = std::fs::read(&files[0]).expect("artifact readable");
    std::fs::write(&files[0], &original[..original.len() / 2]).expect("truncate");
    let mut flipped = std::fs::read(&files[1]).expect("artifact readable");
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&files[1], flipped).expect("bit-flip");
    std::fs::write(&files[2], b"not an artifact").expect("garbage");

    // The damaged run must not panic, must detect every corruption
    // (startup recovery reclaims the two whose header no longer fits
    // the file before the first probe; the bit flip inside a payload
    // fails its checksum at load, which reclaims it too), and must
    // still produce the cold run's exact bytes.
    let (_, damaged) = run_with_lineage(&config);
    assert_eq!(
        damaged.torn_reclaimed, 3,
        "every vandalized artifact reclaimed"
    );
    assert_eq!((damaged.hits, damaged.misses), (3 * 18 - 3, 3));
    assert_identical(&cold, &damaged);

    // And it healed the store: the next run hits everything again.
    let (_, healed) = run_with_lineage(&config);
    assert_eq!((healed.hits, healed.misses, healed.corrupt), (3 * 18, 0, 0));
    assert_eq!(healed.torn_reclaimed, 0);
    assert_identical(&cold, &healed);
}

#[test]
fn interrupted_run_resumes_byte_identically() {
    use disengage::core::{CoreError, Stage};

    // The reference: a cold, uncached, uninterrupted run.
    let (_, cold) = run_with_lineage(&small());

    // The crash: die right after the normalize artifact commits.
    let cache = TempCache::new("interrupted");
    let config = small()
        .with_cache_dir(cache.path())
        .with_abort_after(Stage::Normalize)
        .with_flight_path(cache.path().join("flight.json"));
    // Recording lineage, like the reference and the resume: the lineage
    // switch is part of every stage key, so all three halves must agree
    // on it.
    let obs = Collector::new().with_lineage(true);
    let err = RunSession::new(config.clone())
        .run_with(&obs)
        .expect_err("abort point must fire");
    assert!(
        matches!(err, CoreError::Interrupted { after: "normalize" }),
        "{err:?}"
    );

    // The restart: same directory, no abort. Every shard's corpus and
    // normalize artifacts replay from the crashed run's commits
    // (passthrough digitize is never store-cached), tag recomputes,
    // and every byte matches the run that never crashed.
    let mut resume = config;
    resume.abort_after = None;
    let (_, warm) = run_with_lineage(&resume);
    assert_eq!((warm.hits, warm.misses), (2 * 18, 18));
    assert_identical(&cold, &warm);
}

#[test]
fn interrupted_faulted_run_resumes_byte_identically() {
    use disengage::cache::ArtifactStore;
    use disengage::chaos::IoFaultPlan;
    use disengage::core::artifact::FORMAT_VERSION;
    use disengage::core::{CoreError, Stage};

    let (_, cold) = run_with_lineage(&small());

    // The crash, this time with the store under seeded I/O fire and
    // a crashed peer's litter already on disk.
    let cache = TempCache::new("interrupted-faulted");
    disengage::chaos::plant_litter(cache.path(), 0xBAD);
    let config = small()
        .with_cache_dir(cache.path())
        .with_io_faults(IoFaultPlan::new(0.3, 0xFA11))
        .with_abort_after(Stage::Corpus)
        .with_flight_path(cache.path().join("flight.json"));
    let obs = Collector::new().with_lineage(true);
    let err = RunSession::new(config.clone())
        .run_with(&obs)
        .expect_err("abort point must fire");
    assert!(
        matches!(err, CoreError::Interrupted { after: "corpus" }),
        "{err:?}"
    );

    // The restart keeps its own fault plan armed: injected faults may
    // cost replays (a read probe can exhaust its retries and
    // recompute) but never change a byte of output.
    let mut resume = config;
    resume.abort_after = None;
    resume.io_faults = Some(IoFaultPlan::new(0.3, 0xFA12));
    let (_, warm) = run_with_lineage(&resume);
    assert_identical(&cold, &warm);

    // And the directory ends clean: litter reclaimed, nothing torn,
    // no tmp left behind.
    let audit = ArtifactStore::at(cache.path(), FORMAT_VERSION).audit_files();
    assert!(
        audit.is_clean(),
        "torn {:?} tmp {:?}",
        audit.torn,
        audit.tmp
    );
}

/// Two sessions race on one cold cache directory with nothing between
/// them but the store's atomic commit: both may compute and commit any
/// stage, which costs duplicated work, never different bytes.
#[test]
fn concurrent_sessions_on_one_cold_cache_agree_and_leave_it_clean() {
    use disengage::cache::ArtifactStore;
    use disengage::core::artifact::FORMAT_VERSION;

    let (_, reference) = run_with_lineage(&small());
    let cache = TempCache::new("concurrent");
    let config = small().with_cache_dir(cache.path());
    let barrier = std::sync::Barrier::new(2);
    let race = || {
        barrier.wait();
        run_with_lineage(&config).1
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(race);
        let b = scope.spawn(race);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_identical(&a, &b);
    assert_identical(&reference, &a);
    let audit = ArtifactStore::at(cache.path(), FORMAT_VERSION).audit_files();
    assert!(
        audit.is_clean(),
        "torn {:?} tmp {:?}",
        audit.torn,
        audit.tmp
    );

    // Every racing commit is a valid artifact: a third run replays
    // every store-cached stage of every shard.
    let (_, warm) = run_with_lineage(&config);
    assert_eq!((warm.hits, warm.misses), (3 * 18, 0));
    assert_identical(&reference, &warm);
}

/// End-to-end stdout byte-identity through the `disengage` binary —
/// the user-visible form of the warm/cold contract. (`stable-json`
/// telemetry zeroes wall-clock fields and drops `cache.*` counters, so
/// the rendered report is comparable too.)
#[test]
fn binary_stdout_is_byte_identical_warm_vs_cold() {
    let cache = TempCache::new("binary");
    let run = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_disengage"))
            .args([
                "summary",
                "--scale=0.05",
                "--telemetry=stable-json",
                &format!("--cache-dir={}", cache.path().display()),
            ])
            .output()
            .expect("disengage binary runs")
    };
    let cold = run();
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    let warm = run();
    assert!(warm.status.success(), "warm run failed: {warm:?}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "binary stdout diverged between cold and warm"
    );
}
