//! The flight recorder rides the same determinism contract as the
//! rest of the telemetry: it is always on, records per worker, and is
//! absorbed shard-style in task order — so its *canonical* dump
//! (timestamps zeroed, task stamps omitted, environment-fact
//! namespaces dropped) must be byte-identical at every `--jobs`
//! setting, on clean and chaos runs alike. The *full* dump is the
//! postmortem form: an interrupted session must leave a validating
//! `flight.json` whose postmortem names the aborted stage and the
//! spans that were still open at death, followed by the last pool task
//! stamps from the run's task timeline — timed or not.
//!
//! Warm-vs-cold flight identity is deliberately NOT promised: a warm
//! run genuinely did not execute the cached stages, so its ring holds
//! different history. These tests therefore run cacheless.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::OcrMode;
use disengage::core::{CoreError, RunConfig, RunSession, Stage};
use disengage::corpus::CorpusConfig;
use disengage::obs::{flight, Collector, FlightDump, FlightKind};
use disengage::ocr::NoiseModel;
use disengage::par::{TaskTimeline, TASK_TAIL};
use std::path::{Path, PathBuf};

/// A unique, self-cleaning scratch directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "disengage-flight-determinism-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Simulated OCR at a small scale — the deepest pipeline (scanner,
/// OCR correction, chaos-capable parse) so the ring sees real
/// traffic from every stage.
fn small() -> RunConfig {
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
        .without_flight_dump()
}

/// Runs a config and renders its canonical flight dump.
fn canonical_dump(config: &RunConfig) -> String {
    let obs = Collector::new().with_lineage(true);
    let timeline = TaskTimeline::with_epoch(obs.epoch());
    RunSession::new(config.clone())
        .run_traced(&obs, &timeline)
        .expect("session runs");
    let suspects = flight::suspects(&obs.provenance(), 8);
    flight::render_dump(&obs, None, "run complete", &suspects, true)
}

/// The pool-task stamps a full dump carries, as `(label, items)`.
fn dumped_tasks(dump: &FlightDump) -> Vec<(String, usize)> {
    dump.events
        .iter()
        .filter_map(|e| match &e.kind {
            FlightKind::Task { label, items, .. } => Some((label.clone(), *items)),
            _ => None,
        })
        .collect()
}

#[test]
fn canonical_dump_is_byte_identical_across_worker_counts() {
    let sequential = canonical_dump(&small().with_jobs(1));
    let parallel = canonical_dump(&small().with_jobs(8));
    assert!(
        flight::validate_dump(&sequential).is_ok(),
        "canonical dump must validate"
    );
    assert_eq!(
        sequential, parallel,
        "canonical flight dump diverged between --jobs=1 and --jobs=8"
    );
}

#[test]
fn canonical_dump_is_byte_identical_across_worker_counts_under_chaos() {
    let config = small().with_chaos(FaultPlan::new(0.05, 7));
    let sequential = canonical_dump(&config.clone().with_jobs(1));
    let parallel = canonical_dump(&config.with_jobs(8));
    assert!(
        sequential.contains("chaos.inject"),
        "chaos run should record injection events:\n{sequential}"
    );
    assert_eq!(
        sequential, parallel,
        "chaos canonical flight dump diverged between --jobs=1 and --jobs=8"
    );
}

#[test]
fn repeated_runs_render_the_same_canonical_dump() {
    // Same config, two processes' worth of wall clock apart: the
    // canonical form must not smuggle any timing through.
    let first = canonical_dump(&small());
    std::thread::sleep(std::time::Duration::from_millis(25));
    let second = canonical_dump(&small());
    assert_eq!(first, second, "canonical flight dump is time-dependent");
}

#[test]
fn interrupted_run_leaves_a_doctorable_postmortem() {
    let scratch = TempDir::new("interrupt");
    let dump_path = scratch.path().join("flight.json");
    let config = small()
        .with_abort_after(Stage::Normalize)
        .with_flight_path(&dump_path);
    let obs = Collector::new().with_lineage(true);
    let timeline = TaskTimeline::with_epoch(obs.epoch());
    let err = RunSession::new(config)
        .run_traced(&obs, &timeline)
        .expect_err("abort point must interrupt the run");
    assert!(
        matches!(err, CoreError::Interrupted { after: "normalize" }),
        "{err:?}"
    );

    let text = std::fs::read_to_string(&dump_path).expect("crash dump written");
    let dump = flight::validate_dump(&text).expect("crash dump validates");
    assert!(!dump.canonical, "crash dumps are the full form");
    assert_eq!(dump.reason, "interrupted after stage normalize");
    assert!(
        dump.open_spans.iter().any(|s| s == "pipeline"),
        "the root span must still be open at death: {:?}",
        dump.open_spans
    );
    assert!(
        dump.events.iter().any(
            |e| matches!(&e.kind, disengage::obs::FlightKind::Event { name, detail }
                if name == "interrupt" && detail == "normalize")
        ),
        "the interrupt event must be on the ring"
    );

    let post = flight::render_postmortem(&dump, 20);
    assert!(
        post.contains("interrupted after stage normalize"),
        "postmortem must name the aborted stage:\n{post}"
    );
    assert!(
        post.contains("pipeline"),
        "postmortem must list the open spans:\n{post}"
    );
    let stamps = dumped_tasks(&dump);
    assert!(
        stamps.iter().any(|(label, _)| label == "stage_ii_parse"),
        "the timed timeline's task tail must follow the ring: {stamps:?}"
    );
}

#[test]
fn interrupted_untraced_run_dumps_its_last_pool_tasks() {
    // No lineage, no --trace: `run_with` runs on a disabled timeline,
    // which still keeps the last pool-task stamps for the crash dump.
    let scratch = TempDir::new("interrupt-untraced");
    let dump_path = scratch.path().join("flight.json");
    let config = small()
        .with_abort_after(Stage::Normalize)
        .with_flight_path(&dump_path);
    let err = RunSession::new(config)
        .run_with(&Collector::new())
        .expect_err("abort point must interrupt the run");
    assert!(matches!(err, CoreError::Interrupted { after: "normalize" }));

    let text = std::fs::read_to_string(&dump_path).expect("crash dump written");
    let dump = flight::validate_dump(&text).expect("crash dump validates");
    assert!(!dump.canonical, "crash dumps are the full form");
    let stamps = dumped_tasks(&dump);
    assert!(
        !stamps.is_empty(),
        "an untraced crash dump must name pool tasks"
    );
    assert!(stamps.len() <= TASK_TAIL, "{} stamps", stamps.len());
    assert!(
        stamps
            .iter()
            .any(|(label, items)| label == "stage_ii_parse" && *items > 0),
        "the last Stage II parse tasks must be named: {stamps:?}"
    );
    assert!(
        stamps.iter().all(|(label, _)| [
            "shard",
            "stage_i_ocr",
            "stage_ii_parse",
        ]
        .contains(&label.as_str())),
        "{stamps:?}"
    );
}

#[test]
fn disabling_the_dump_writes_nothing() {
    let scratch = TempDir::new("disabled");
    let before: Vec<_> = std::fs::read_dir(scratch.path())
        .expect("scratch readable")
        .collect();
    assert!(before.is_empty());
    let config = small().with_abort_after(Stage::Corpus);
    let err = RunSession::new(config)
        .run_with(&Collector::new())
        .expect_err("abort point must interrupt the run");
    assert!(matches!(err, CoreError::Interrupted { after: "corpus" }));
    let after: Vec<_> = std::fs::read_dir(scratch.path())
        .expect("scratch readable")
        .collect();
    assert!(
        after.is_empty(),
        "without_flight_dump must leave no postmortem behind"
    );
}
