//! Cache-key sensitivity: every configuration field that can change a
//! stage's output must change that stage's fingerprint (and every
//! downstream fingerprint), and nothing else may.
//!
//! The keys are pure functions of the configuration
//! ([`disengage::core::RunSession::stage_keys`]), so a stale-artifact
//! bug here is silent data corruption downstream — the goldens at the
//! bottom additionally pin the exact FNV-1a values so an accidental
//! recipe change (field reordered, field dropped, format-version bump
//! forgotten) fails loudly instead of invalidating caches quietly.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession, Stage, StageKeys};
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::{Classifier, FailureDictionary, FaultTag};
use disengage::ocr::NoiseModel;

fn base() -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 0.05,
    })
}

fn keys(config: RunConfig) -> StageKeys {
    RunSession::new(config).stage_keys(false)
}

/// Asserts `changed` differs from `reference` exactly at `from` and
/// every stage downstream of it, and matches upstream.
fn assert_ripples_from(reference: &StageKeys, changed: &StageKeys, from: Stage) {
    for stage in Stage::ALL {
        let (a, b) = (reference.for_stage(stage), changed.for_stage(stage));
        if stage < from {
            assert_eq!(a, b, "{stage:?} key must not move");
        } else {
            assert_ne!(a, b, "{stage:?} key must move");
        }
    }
}

#[test]
fn corpus_fields_ripple_from_the_top() {
    let reference = keys(base());
    let seed = keys(base().with_corpus(CorpusConfig {
        seed: 0x5EEE,
        scale: 0.05,
    }));
    assert_ripples_from(&reference, &seed, Stage::Corpus);
    let scale = keys(base().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 0.06,
    }));
    assert_ripples_from(&reference, &scale, Stage::Corpus);
}

#[test]
fn every_ocr_field_moves_the_digitize_key() {
    let simulated = |noise, correct| keys(base().with_ocr(OcrMode::Simulated { noise, correct }));
    let reference = simulated(NoiseModel::light(), true);

    // Mode flip: passthrough vs simulated.
    assert_ripples_from(&keys(base()), &reference, Stage::Digitize);

    // Each noise field individually.
    let mut salt = NoiseModel::light();
    salt.salt += 0.001;
    assert_ripples_from(&reference, &simulated(salt, true), Stage::Digitize);
    let mut erosion = NoiseModel::light();
    erosion.erosion += 0.001;
    assert_ripples_from(&reference, &simulated(erosion, true), Stage::Digitize);
    let mut smear = NoiseModel::light();
    smear.smear += 0.001;
    assert_ripples_from(&reference, &simulated(smear, true), Stage::Digitize);

    // The post-correction toggle and the OCR seed.
    assert_ripples_from(
        &reference,
        &simulated(NoiseModel::light(), false),
        Stage::Digitize,
    );
    let reseeded = keys(
        base()
            .with_ocr(OcrMode::Simulated {
                noise: NoiseModel::light(),
                correct: true,
            })
            .with_ocr_seed(0xD0C6),
    );
    assert_ripples_from(&reference, &reseeded, Stage::Digitize);
}

#[test]
fn every_fault_plan_field_moves_the_normalize_key() {
    let reference = keys(base().with_chaos(FaultPlan::new(0.05, 7)));

    // Arming chaos at all moves normalize (Stage I keys stay put).
    assert_ripples_from(&keys(base()), &reference, Stage::Normalize);

    // Rate and seed individually.
    let rate = keys(base().with_chaos(FaultPlan::new(0.06, 7)));
    assert_ripples_from(&reference, &rate, Stage::Normalize);
    let seed = keys(base().with_chaos(FaultPlan::new(0.05, 8)));
    assert_ripples_from(&reference, &seed, Stage::Normalize);

    // The repair budget. Under passthrough it first matters at the
    // normalize stage (the chaos repair ladder); under simulated OCR it
    // also feeds the digitize key — covered by the goldens below.
    let mut more_repairs = FaultPlan::new(0.05, 7);
    more_repairs.repair_attempts += 1;
    let attempts = keys(base().with_chaos(more_repairs));
    assert_ripples_from(&reference, &attempts, Stage::Normalize);

    // An inert plan keys identically to no plan at all.
    assert_eq!(
        keys(base()),
        keys(base().with_chaos(FaultPlan::new(0.0, 7)))
    );
}

#[test]
fn repair_attempts_reach_the_digitize_key_under_simulated_ocr() {
    let with_attempts = |attempts| {
        let mut plan = FaultPlan::new(0.05, 7);
        plan.repair_attempts = attempts;
        keys(
            base()
                .with_ocr(OcrMode::Simulated {
                    noise: NoiseModel::light(),
                    correct: true,
                })
                .with_chaos(plan),
        )
    };
    assert_ripples_from(&with_attempts(2), &with_attempts(3), Stage::Digitize);
}

#[test]
fn dictionary_content_moves_only_the_tag_key() {
    let reference = keys(base());
    let mut dict = FailureDictionary::default_bank();
    dict.add_phrase(FaultTag::ALL[0], "entirely novel failure phrase");
    let poisoned = RunSession::with_classifier(base(), Classifier::new(dict)).stage_keys(false);
    assert_ripples_from(&reference, &poisoned, Stage::Tag);
}

#[test]
fn lineage_recording_is_part_of_every_key() {
    let session = RunSession::new(base());
    let untraced = session.stage_keys(false);
    let traced = session.stage_keys(true);
    for stage in Stage::ALL {
        assert_ne!(
            untraced.for_stage(stage),
            traced.for_stage(stage),
            "{stage:?} key must fold the lineage bit"
        );
    }
}

/// Golden fingerprints for one pinned configuration. If this test
/// fails without an intentional key-recipe change, a refactor silently
/// altered cache addressing; if the change IS intentional, bump
/// `disengage::core::artifact::FORMAT_VERSION` and re-pin.
#[test]
fn golden_fingerprints_are_pinned() {
    let passthrough = keys(base());
    let golden_passthrough = [
        (Stage::Corpus, "c5c04355dcb39361"),
        (Stage::Digitize, "7bd906e78d70ed14"),
        (Stage::Normalize, "354d93a945810f92"),
        (Stage::Tag, "291aae52340ff417"),
    ];
    for (stage, hex) in golden_passthrough {
        assert_eq!(
            passthrough.for_stage(stage).to_hex(),
            hex,
            "passthrough {stage:?} fingerprint drifted"
        );
    }

    let chaos_ocr = keys(
        base()
            .with_ocr(OcrMode::Simulated {
                noise: NoiseModel::light(),
                correct: true,
            })
            .with_ocr_seed(0xD0C5)
            .with_chaos(FaultPlan::new(0.05, 7)),
    );
    let golden_chaos = [
        (Stage::Corpus, "c5c04355dcb39361"),
        (Stage::Digitize, "045cc834803e0c7f"),
        (Stage::Normalize, "8f189501bf2e1275"),
        (Stage::Tag, "dcbf85d86718e5e4"),
    ];
    for (stage, hex) in golden_chaos {
        assert_eq!(
            chaos_ocr.for_stage(stage).to_hex(),
            hex,
            "chaos+OCR {stage:?} fingerprint drifted"
        );
    }
}

/// The artifact files one cached run of the single shard `waymo_2016`
/// writes under `ocr`, as sorted `<stage>/<file>` paths, after
/// checking that each file is named by [`StageKeys::for_shard`].
fn shard_artifacts(name: &str, ocr: OcrMode) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!(
        "disengage-cache-keys-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = base().with_ocr(ocr);
    let spec = CorpusGenerator::new(config.corpus)
        .shards()
        .into_iter()
        .find(|s| s.label() == "waymo_2016")
        .expect("waymo_2016 is a shard");
    let session = RunSession::new(config.with_shards(vec![spec.label()]).with_cache_dir(&dir));
    let shard_keys = session.stage_keys(false).for_shard(&spec);
    session.run().expect("session runs");
    let mut paths = Vec::new();
    for stage_dir in std::fs::read_dir(&dir).expect("the run wrote its cache") {
        let stage_dir = stage_dir.expect("a cache entry").path();
        for file in std::fs::read_dir(&stage_dir).expect("a stage directory") {
            let file = file.expect("a stage entry").file_name();
            paths.push(format!(
                "{}/{}",
                stage_dir.file_name().expect("named").to_string_lossy(),
                file.to_string_lossy()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    paths.sort();
    // Passthrough digitize is never cached.
    let expected: Vec<String> = Stage::ALL
        .into_iter()
        .filter(|&stage| stage != Stage::Digitize || ocr != OcrMode::Passthrough)
        .map(|stage| {
            format!(
                "{}/{}.art",
                stage.name(),
                shard_keys.for_stage(stage).to_hex()
            )
        })
        .collect();
    assert_eq!(paths, expected, "{name}: files not named by for_shard");
    paths
}

/// Golden artifact paths of a one-shard cached run. Each file name is
/// the per-shard fingerprint the session chains from the run-level
/// key, the shard's identity and the same shard's upstream key;
/// passthrough digitize is never cached. If this fails without an
/// intentional key-recipe change, a refactor moved where the session
/// files its artifacts; if the paths moved with `for_shard`, the shard
/// chain itself changed.
#[test]
fn golden_shard_artifact_names_are_pinned() {
    let passthrough = shard_artifacts("passthrough", OcrMode::Passthrough);
    assert_eq!(
        passthrough,
        [
            "corpus/1baf7c4960201b96.art",
            "normalize/4241f5d09ae5ed84.art",
            "tag/41df1221a738e59f.art",
        ]
    );
    let simulated = shard_artifacts(
        "simulated",
        OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        },
    );
    assert_eq!(
        simulated,
        [
            "corpus/1baf7c4960201b96.art",
            "digitize/2e62f9a7ac1f6634.art",
            "normalize/bc692bc3b4d9e31b.art",
            "tag/893d67d2c76d7ae0.art",
        ]
    );
}
