//! Pins Stage III's tagging loop to the reference loop.
//!
//! `core::tagging::tag_records` classifies each distinct description of
//! a shard once and copies the verdict to every record that repeats it;
//! its verdicts name their matched keywords by stem id. It must be a
//! pure speedup. The reference (the original per-record loop over the
//! original string-keyword classifier, kept in the test-support module
//! [`reference`]) is the specification. On every shard, for every
//! record, the verdict must be the reference's — tag, category, tie
//! flag, `score` and `margin` bit for bit, and keyword ids that resolve
//! through `Classifier::stem` to the reference's strings, in order —
//! and the collector must end in the same state with the same lineage
//! JSONL, with lineage on and off and at one and two workers.
//!
//! The records are what the session recovers, split into its shards:
//! seeds `0x5EED` and 42 at scales 1 and 0.05, simulated OCR at light
//! and heavy noise, and a chaos run at scale 0.05. The dictionaries are the default
//! bank, the bank poisoned by the chaos plan (what a chaos run tags
//! with), and a sweep dictionary: the bank plus one phrase that never
//! matches and whose stem sorts before every other, so every stem id
//! of the sweep classifier differs from the bank's. The full grid (more
//! seeds, scales 0.25 and 0.5, OCR at 0.25, chaos at full scale and
//! more poisoned banks) is `#[ignore]`d and runs in release from
//! `scripts/verify.sh`.

#[path = "../crates/core/tests/reference/mod.rs"]
mod reference;

use disengage::chaos::{poison_dictionary, FaultPlan};
use disengage::core::pipeline::OcrMode;
use disengage::core::tagging::tag_records;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::nlp::{Classifier, FailureDictionary, FaultTag};
use disengage::obs::{Collector, RecordId};
use disengage::ocr::NoiseModel;
use disengage::par::TaskTimeline;
use disengage::reports::record::CarId;
use disengage::reports::{Date, DisengagementRecord, Manufacturer, Modality};
use reference::classifier::{ReferenceAssignment, ReferenceClassifier};
use std::collections::HashSet;

/// One shard's recovered records and their ids.
struct Shard {
    records: Vec<DisengagementRecord>,
    ids: Vec<RecordId>,
}

/// The records a run of `config` recovers, split into its shards. A
/// shard is one (manufacturer, filing year) cell, every record id
/// names its cell, and the merge keeps shard order, so each shard is a
/// run of ids with one cell. Record ids exist only for lineage, so the
/// run records it and the ids come from its log, in record order.
fn recovered(config: RunConfig) -> Vec<Shard> {
    let obs = Collector::new().with_lineage(true);
    let outcome = RunSession::new(config)
        .run_with(&obs)
        .expect("run completes");
    let ids = obs.provenance().record_ids();
    let mut shards: Vec<Shard> = Vec::new();
    let records = outcome.database.disengagements();
    assert_eq!(records.len(), ids.len());
    for (r, id) in records.iter().zip(ids) {
        match shards.last_mut() {
            Some(s) if s.ids[0].manufacturer == id.manufacturer && s.ids[0].year == id.year => {
                s.records.push(r.clone());
                s.ids.push(id);
            }
            _ => shards.push(Shard {
                records: vec![r.clone()],
                ids: vec![id],
            }),
        }
    }
    shards
}

/// A run configuration over `seed`'s corpus at `scale`.
fn config(seed: u64, scale: f64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig { seed, scale })
}

/// Simulated OCR with dictionary correction on, at `noise`.
fn simulated(noise: NoiseModel) -> OcrMode {
    OcrMode::Simulated {
        noise,
        correct: true,
    }
}

/// The default bank poisoned by `plan`.
fn poisoned(plan: FaultPlan) -> (String, FailureDictionary) {
    let bank = FailureDictionary::default_bank();
    (
        format!("poisoned_{}", plan.rate),
        poison_dictionary(&plan, &bank).0,
    )
}

/// The default bank, the bank poisoned by the default chaos plan, and
/// the sweep dictionary.
fn dictionaries() -> Vec<(String, FailureDictionary)> {
    let bank = FailureDictionary::default_bank();
    let mut sweep = bank.clone();
    sweep.add_phrase(FaultTag::Software, "00zqxv");
    assert_eq!(
        Classifier::new(sweep.clone()).stem(0),
        "00zqxv",
        "the sweep stem sorts first"
    );
    vec![
        ("default_bank".to_owned(), bank),
        poisoned(chaos()),
        ("sweep".to_owned(), sweep),
    ]
}

/// Asserts the production loop returns the reference's verdicts and
/// leaves the reference's collector state and lineage on every shard,
/// under every dictionary, with lineage on and off, at one and two
/// workers. Returns the records and the distinct descriptions summed
/// over the shards.
fn assert_agrees(
    shards: &[Shard],
    dictionaries: &[(String, FailureDictionary)],
    what: &str,
) -> (usize, usize) {
    for (name, dict) in dictionaries {
        let classifier = Classifier::new(dict.clone());
        let reference = ReferenceClassifier::new(dict);
        for lineage in [false, true] {
            for (s, shard) in shards.iter().enumerate() {
                let want_obs = Collector::new().with_lineage(lineage);
                let want =
                    reference::tag_records(&reference, &shard.records, &shard.ids, &want_obs);
                for jobs in [1, 2] {
                    let at = format!("{what}, {name}, shard {s}, lineage {lineage}, jobs {jobs}");
                    let obs = Collector::new().with_lineage(lineage);
                    let got = tag_records(
                        &classifier,
                        &shard.records,
                        &shard.ids,
                        jobs,
                        &obs,
                        &TaskTimeline::disabled(),
                    );
                    assert_eq!(got.len(), want.len(), "{at}: verdict count");
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            ReferenceAssignment::resolved(g, &classifier),
                            *w,
                            "{at}: record {i}"
                        );
                        assert_eq!(
                            g.score.to_bits(),
                            w.score.to_bits(),
                            "{at}: record {i} score"
                        );
                        assert_eq!(
                            g.margin.to_bits(),
                            w.margin.to_bits(),
                            "{at}: record {i} margin"
                        );
                    }
                    assert_eq!(obs.state(), want_obs.state(), "{at}: collector state");
                    assert_eq!(
                        obs.provenance().to_jsonl(),
                        want_obs.provenance().to_jsonl(),
                        "{at}: lineage"
                    );
                }
            }
        }
    }
    let records = shards.iter().map(|s| s.records.len()).sum();
    let distinct = shards
        .iter()
        .map(|s| {
            s.records
                .iter()
                .map(|r| r.description.as_str())
                .collect::<HashSet<&str>>()
                .len()
        })
        .sum();
    (records, distinct)
}

/// The default chaos plan (`repro --chaos=0.05,7`).
fn chaos() -> FaultPlan {
    FaultPlan::new(0.05, 7)
}

#[test]
fn passthrough_corpora_agree() {
    for seed in [0x5EED, 42] {
        for scale in [1.0, 0.05] {
            let shards = recovered(config(seed, scale));
            let what = format!("seed {seed:#x}, scale {scale}");
            let (records, distinct) = assert_agrees(&shards, &dictionaries(), &what);
            assert!(
                distinct < records,
                "{what}: {records} records, {distinct} distinct descriptions: no repeat to copy"
            );
        }
    }
}

#[test]
fn simulated_ocr_agrees() {
    for noise in [NoiseModel::light(), NoiseModel::heavy()] {
        let shards = recovered(config(0x5EED, 0.05).with_ocr(simulated(noise)));
        assert_agrees(&shards, &dictionaries(), &format!("OCR {noise:?}"));
    }
}

#[test]
fn chaos_recovered_records_agree() {
    let shards = recovered(config(0x5EED, 0.05).with_chaos(chaos()));
    assert_agrees(&shards, &dictionaries(), "chaos");
}

/// Repeats in every spelling that must not merge (case, a trailing
/// space), the empty description, an empty shard, and ids that stop
/// short of the records (the records past them trace nothing).
#[test]
fn hand_built_records_agree() {
    let record = |description: &str| DisengagementRecord {
        manufacturer: Manufacturer::Waymo,
        car: CarId::Known(0),
        date: Date::new(2016, 3, 5).expect("a date"),
        modality: Modality::Manual,
        road_type: None,
        weather: None,
        reaction_time_s: None,
        description: description.to_owned(),
    };
    let records: Vec<DisengagementRecord> = [
        "watchdog error",
        "odd noise",
        "watchdog error",
        "",
        "Watchdog error",
        "watchdog error ",
        "sensor error",
        "",
        "odd noise",
        "sensor error",
    ]
    .into_iter()
    .map(record)
    .collect();
    let ids: Vec<RecordId> = (0..4)
        .map(|seq| RecordId {
            manufacturer: "waymo".to_owned(),
            year: 2016,
            car: "car-0".to_owned(),
            seq,
        })
        .collect();
    let shards = [
        Shard {
            records: records.clone(),
            ids,
        },
        Shard {
            records,
            ids: Vec::new(),
        },
        Shard {
            records: Vec::new(),
            ids: Vec::new(),
        },
    ];
    assert_agrees(&shards, &dictionaries(), "hand-built");
}

/// Seeds 1-6 at full scale, scales 0.25 and 0.5 at seeds `0x5EED` and
/// 42, simulated OCR at light and heavy noise at scale 0.25, and chaos
/// runs at rates 0.05 and 0.3, under the default, sweep and poisoned
/// banks (rates 0.05, 0.3 and 1.0, which empties the bank). Run it in
/// release: `cargo test --release --test tag_equivalence -- --ignored`.
#[test]
#[ignore = "full grid: run in release (scripts/verify.sh does)"]
fn full_grid_agrees() {
    let mut dicts = dictionaries();
    dicts.extend([0.3, 1.0].map(|rate| poisoned(FaultPlan::new(rate, 7))));
    let mut configs: Vec<(String, RunConfig)> = Vec::new();
    for seed in 1..=6 {
        configs.push((format!("seed {seed}"), config(seed, 1.0)));
    }
    for seed in [0x5EED, 42] {
        for scale in [0.25, 0.5] {
            configs.push((
                format!("seed {seed:#x}, scale {scale}"),
                config(seed, scale),
            ));
        }
    }
    for noise in [NoiseModel::light(), NoiseModel::heavy()] {
        configs.push((
            format!("OCR {noise:?}, scale 0.25"),
            config(0x5EED, 0.25).with_ocr(simulated(noise)),
        ));
    }
    for rate in [0.05, 0.3] {
        configs.push((
            format!("chaos {rate}"),
            config(0x5EED, 1.0).with_chaos(FaultPlan::new(rate, 7)),
        ));
    }
    for (what, config) in configs {
        let (records, distinct) = assert_agrees(&recovered(config), &dicts, &what);
        println!("{what}: {records} records, {distinct} distinct descriptions agree");
    }
}
