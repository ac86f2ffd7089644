//! The determinism contract of the parallel pipeline: at any worker
//! count, `PipelineOutcome` — database, verdicts, failure queues,
//! OCR stats, and canonical telemetry alike — is byte-identical to the
//! sequential run, in clean and chaos modes both.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::{OcrMode, PipelineOutcome};
use disengage::core::telemetry::reconcile;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::ocr::NoiseModel;

fn run(jobs: usize, chaos: Option<FaultPlan>) -> PipelineOutcome {
    let mut config = RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: 0x5EED,
            scale: 0.01,
        })
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_ocr_seed(0xD0C5)
        .with_jobs(jobs);
    config.chaos = chaos;
    RunSession::new(config).run().expect("pipeline runs")
}

/// Everything the pipeline produced, as one comparable string.
/// Telemetry enters in canonical form — wall-clock timings are the
/// only fields allowed to differ between runs.
fn fingerprint(o: &PipelineOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        o.database,
        o.tagged,
        o.parse_failures,
        o.quarantined,
        o.chaos,
        o.ocr,
        o.telemetry.clone().canonical().to_json()
    )
}

#[test]
fn clean_run_identical_at_every_worker_count() {
    let reference = run(1, None);
    let want = fingerprint(&reference);
    assert!(
        reconcile(&reference.telemetry).is_empty(),
        "{:?}",
        reconcile(&reference.telemetry)
    );
    for jobs in [2, 8] {
        let o = run(jobs, None);
        assert_eq!(fingerprint(&o), want, "jobs={jobs} diverged from jobs=1");
        assert!(reconcile(&o.telemetry).is_empty(), "jobs={jobs}");
    }
}

#[test]
fn chaos_run_identical_at_every_worker_count() {
    let plan = FaultPlan::new(0.05, 7);
    let reference = run(1, Some(plan));
    let want = fingerprint(&reference);
    assert!(
        reference
            .chaos
            .as_ref()
            .is_some_and(|a| a.totals.injected > 0),
        "chaos plan injected nothing; the test is vacuous"
    );
    assert!(reconcile(&reference.telemetry).is_empty());
    for jobs in [2, 8] {
        let o = run(jobs, Some(plan));
        assert_eq!(
            fingerprint(&o),
            want,
            "chaos jobs={jobs} diverged from jobs=1"
        );
        assert!(reconcile(&o.telemetry).is_empty(), "jobs={jobs}");
    }
}

#[test]
fn jobs_zero_matches_sequential() {
    // 0 = all available cores: whatever the machine has, the output
    // must still match.
    let reference = run(1, None);
    let auto = run(0, None);
    assert_eq!(fingerprint(&auto), fingerprint(&reference));
}
