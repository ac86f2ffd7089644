//! Failure injection: OCR noise sweeps and malformed-document handling.

use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::ocr::NoiseModel;
use disengage::reports::formats::{DocumentKind, RawDocument};
use disengage::reports::normalize::normalize_document;
use disengage::reports::{Manufacturer, ReportYear};

fn run(noise: NoiseModel, correct: bool) -> disengage::core::PipelineOutcome {
    let config = RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: 500,
            scale: 0.015,
        })
        .with_ocr(OcrMode::Simulated { noise, correct })
        .with_ocr_seed(12);
    RunSession::new(config).run().expect("pipeline runs")
}

#[test]
fn cer_monotone_in_noise() {
    let clean = run(NoiseModel::clean(), false);
    let light = run(NoiseModel::light(), false);
    let heavy = run(NoiseModel::heavy(), false);
    let cer = |o: &disengage::core::PipelineOutcome| o.ocr.expect("stats").mean_cer;
    assert!(cer(&clean) < 1e-9, "clean cer = {}", cer(&clean));
    assert!(cer(&light) > cer(&clean));
    assert!(cer(&heavy) > cer(&light));
}

#[test]
fn recovery_monotone_in_noise() {
    let clean = run(NoiseModel::clean(), false);
    let light = run(NoiseModel::light(), false);
    let heavy = run(NoiseModel::heavy(), false);
    assert!((clean.recovery_rate() - 1.0).abs() < 1e-9);
    assert!(light.recovery_rate() >= heavy.recovery_rate());
    assert!(
        heavy.recovery_rate() > 0.1,
        "heavy noise destroyed everything"
    );
    // The manual-review queue grows with noise.
    assert!(heavy.parse_failures.len() > light.parse_failures.len());
}

#[test]
fn confidence_tracks_noise() {
    let light = run(NoiseModel::light(), false);
    let heavy = run(NoiseModel::heavy(), false);
    let conf = |o: &disengage::core::PipelineOutcome| o.ocr.expect("stats").mean_confidence;
    assert!(conf(&light) > conf(&heavy));
    assert!(conf(&heavy) > 0.5);
}

#[test]
fn recovered_records_are_valid_even_under_noise() {
    let heavy = run(NoiseModel::heavy(), true);
    for r in heavy.database.disengagements() {
        r.validate().expect("recovered record validates");
    }
    for a in heavy.database.accidents() {
        for speed in [a.av_speed_mph, a.other_speed_mph].into_iter().flatten() {
            assert!(
                (0.0..=120.0).contains(&speed),
                "recovered speed {speed} mph"
            );
        }
    }
    for m in heavy.database.mileage() {
        m.validate().expect("recovered mileage validates");
    }
}

#[test]
fn wholly_garbled_documents_become_failures_not_panics() {
    let garbled = RawDocument::new(
        Manufacturer::Waymo,
        ReportYear::R2016,
        DocumentKind::Disengagements,
        "@@@@ ##### !!!!\nnot a log line at all\n",
    );
    let n = normalize_document(&garbled);
    assert_eq!(n.disengagements.len(), 0);
    assert_eq!(n.failures.len(), 2);

    let garbled_accident = RawDocument::new(
        Manufacturer::Waymo,
        ReportYear::R2016,
        DocumentKind::Accident,
        "smudged beyond recognition",
    );
    let n = normalize_document(&garbled_accident);
    assert!(n.accidents.is_empty());
    assert_eq!(n.failures.len(), 1);
}

#[test]
fn empty_document_yields_nothing() {
    let empty = RawDocument::new(
        Manufacturer::Tesla,
        ReportYear::R2016,
        DocumentKind::Disengagements,
        "",
    );
    let n = normalize_document(&empty);
    assert_eq!(n.record_count(), 0);
    assert!(n.failures.is_empty());
}
