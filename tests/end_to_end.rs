//! End-to-end integration: Stage I → II → III → IV over the full
//! pipeline, including the simulated-OCR digitization path.

use disengage::core::pipeline::OcrMode;
use disengage::core::{figures, questions, tables, tagging, RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::ocr::NoiseModel;

fn config(seed: u64, scale: f64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig { seed, scale })
}

#[test]
fn passthrough_pipeline_is_lossless_and_exact() {
    let outcome = RunSession::new(config(314, 0.08))
        .run()
        .expect("pipeline runs");
    assert!(outcome.parse_failures.is_empty());
    assert_eq!(
        outcome.database.disengagements().len(),
        outcome.corpus.truth.disengagements().len()
    );
    assert_eq!(
        outcome.database.accidents().len(),
        outcome.corpus.truth.accidents().len()
    );
    assert_eq!(
        outcome.database.mileage().len(),
        outcome.corpus.truth.mileage().len()
    );
    // Stage III recovers the generator's intent perfectly on clean text
    // (the dictionary covers every template).
    let acc = tagging::tagging_accuracy(&outcome.tagged, &outcome.corpus.intended_tags);
    assert_eq!(acc.tag_accuracy, 1.0, "tag accuracy {}", acc.tag_accuracy);
    assert_eq!(acc.category_accuracy, 1.0);
}

#[test]
fn simulated_ocr_pipeline_survives_light_noise() {
    let config = config(314, 0.02)
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_ocr_seed(9);
    let outcome = RunSession::new(config).run().expect("pipeline runs");
    let stats = outcome.ocr.expect("ocr stats present");
    assert!(stats.mean_cer < 0.05, "cer = {}", stats.mean_cer);
    assert!(
        outcome.recovery_rate() > 0.8,
        "recovery = {}",
        outcome.recovery_rate()
    );
    // Tagging of recovered records stays highly accurate: descriptions
    // that survive parsing are nearly clean.
    let unknown = outcome
        .tagged
        .iter()
        .filter(|t| t.assignment.tag == disengage::nlp::FaultTag::UnknownT)
        .count();
    // Tesla's intentional unknowns are ~3.4% of the corpus; OCR noise
    // should not balloon that beyond ~3x.
    assert!(
        (unknown as f64) < outcome.tagged.len() as f64 * 0.12,
        "unknown tags: {unknown}/{}",
        outcome.tagged.len()
    );
}

#[test]
fn every_table_and_figure_computes_from_one_run() {
    let outcome = RunSession::new(config(314, 0.1))
        .run()
        .expect("pipeline runs");
    let db = &outcome.database;
    let classifier = disengage::nlp::Classifier::with_default_dictionary();

    assert!(tables::table1(db).expect("t1").rows().count() >= 8);
    assert_eq!(tables::table2(&classifier).expect("t2").rows().count(), 4);
    assert_eq!(tables::table3().expect("t3").rows().count(), 13);
    assert!(tables::table4(&outcome.tagged).expect("t4").rows().count() >= 8);
    assert!(tables::table5(db).expect("t5").rows().count() >= 8);
    assert!(tables::table6(db).expect("t6").rows().count() >= 3);
    assert!(tables::table7(db).expect("t7").rows().count() >= 6);
    assert!(tables::table8(db).expect("t8").rows().count() >= 2);

    assert!(!figures::fig4(db).expect("fig4").boxes.is_empty());
    assert!(!figures::fig5(db).is_empty());
    assert!(!figures::fig6(&outcome.tagged).stacks.is_empty());
    assert!(!figures::fig7(db).expect("fig7").panels.is_empty());
    assert!(figures::fig8(db).expect("fig8").correlation.r < 0.0);
    assert!(!figures::fig9(db).is_empty());
    assert!(!figures::fig10(db).expect("fig10").boxes.is_empty());
    assert!(figures::fig11(db, disengage::reports::Manufacturer::Waymo).is_ok());
    for kind in [
        figures::SpeedKind::Av,
        figures::SpeedKind::Manual,
        figures::SpeedKind::Relative,
    ] {
        assert!(figures::fig12(db, kind).is_ok());
    }

    assert!(questions::q1_assessment(db).is_ok());
    let q2 = questions::q2_causes(&outcome.tagged);
    assert!(q2.global.n > 0);
    assert!(questions::q3_dynamics(db).is_ok());
    assert!(questions::q4_alertness(db).is_ok());
    assert!(questions::q5_comparison(db).is_ok());
}

#[test]
fn pipeline_is_deterministic() {
    let a = RunSession::new(config(314, 0.05)).run().expect("run a");
    let b = RunSession::new(config(314, 0.05)).run().expect("run b");
    assert_eq!(a.database.disengagements(), b.database.disengagements());
    assert_eq!(a.database.accidents(), b.database.accidents());
    assert_eq!(
        a.tagged
            .iter()
            .map(|t| t.assignment.tag)
            .collect::<Vec<_>>(),
        b.tagged
            .iter()
            .map(|t| t.assignment.tag)
            .collect::<Vec<_>>()
    );
}

#[test]
fn different_corpus_seeds_change_data_not_shape() {
    let a = RunSession::new(config(1, 0.05)).run().expect("run a");
    let b = RunSession::new(config(2, 0.05)).run().expect("run b");
    // Same calibrated totals...
    assert_eq!(
        a.database.disengagements().len(),
        b.database.disengagements().len()
    );
    // ...different realizations.
    assert_ne!(a.database.disengagements(), b.database.disengagements());
}
