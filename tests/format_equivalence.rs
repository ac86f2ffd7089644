//! Pins the Stage I renderers and the Stage II parsers to the reference.
//!
//! The text-format layer renders every filing into one buffer and
//! parses every line by borrowing its fields. It must be a pure speedup.
//! The reference (the original renderers and parsers, kept in the
//! test-support module [`reference`]) is the specification:
//!
//! - **Rendering.** Every record of a corpus renders to the reference's
//!   bytes in every one of the eight layouts, every mileage table and
//!   accident form too, and every document the generator writes equals
//!   the reference's document. Hand-built records cover what a corpus
//!   may not: a redacted car, every optional field absent, `"` inside a
//!   Delphi description, and reaction times that round at two decimals;
//!   accident forms with unknown speeds and redacted cars.
//! - **Parsing.** Every line parses to the reference's record or to its
//!   `ReportError`, message included, in every layout, not only its
//!   own; so do the date and vocabulary parsers on every field and
//!   token, and the paper's verbatim Table II lines with variants. Every document normalizes to the reference's records,
//!   failures and ids, with the same counters and lineage. Stage II ends
//!   a line at a lone `\r` as at `\n`, and the reference only at `\n`,
//!   so a document with a lone `\r` (the hostile mixed line endings) is
//!   held to the reference on its text with each lone `\r` read as `\n`,
//!   which attempts every joined line as its parts, and every record the
//!   reference returns on the untouched text from a line without a lone
//!   `\r` must come back unchanged, in order. The lines are
//!   those corpora's, their simulated-OCR digitization at light and
//!   heavy noise, chaos-injected documents, and the hostile mutations of
//!   the [`hostile`] module.
//!
//! The corpora are seeds `0x5EED` and 42 at scales 1 and 0.05; tier-1
//! digitizes them at scale 0.05. The full grid (more seeds, scales 0.25
//! and 0.5, OCR at full scale) is `#[ignore]`d and runs in release from
//! `scripts/verify.sh`.

#[path = "../crates/reports/tests/reference/formats.rs"]
mod reference;

mod hostile;

use disengage::chaos::{inject_documents, FaultPlan};
use disengage::core::pipeline::{digitize_simulated_with, DigitizeConfig};
use disengage::core::RunConfig;
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::obs::Collector;
use disengage::obs::ProvenanceEvent;
use disengage::ocr::NoiseModel;
use disengage::reports::formats::{
    format_for, parse_accident_form, parse_mileage_table, render_accident_form,
    render_mileage_table, DocumentKind, RawDocument,
};
use disengage::reports::normalize::{normalize_document_traced, Normalized};
use disengage::reports::record::{AccidentRecord, CarId, CollisionKind, Severity};
use disengage::reports::{Date, DisengagementRecord, Manufacturer, Modality, RoadType, Weather};

/// The eight layouts: the sparse reporters file in Mercedes-Benz's.
const LAYOUTS: [Manufacturer; 8] = Manufacturer::ANALYZED;

/// `r` rendered in `m`'s layout by the production renderer.
fn render(m: Manufacturer, r: &DisengagementRecord) -> String {
    let mut line = String::new();
    format_for(m).render(r, &mut line);
    line
}

/// Asserts `r` renders to the reference's bytes in every layout.
fn assert_renders_agree(r: &DisengagementRecord, what: &str) {
    for m in LAYOUTS {
        assert_eq!(
            render(m, r),
            reference::format_for(m).render(r),
            "{what}: {m} layout rendered differently: {r:?}"
        );
    }
}

/// Asserts every shard of `config`'s corpus renders as the reference
/// renders it: each record in every layout, the mileage table, every
/// accident form, and every document. Returns the documents.
fn assert_corpus_renders_agree(config: CorpusConfig, what: &str) -> Vec<RawDocument> {
    let generator = CorpusGenerator::new(config);
    let mut documents = Vec::new();
    for spec in generator.shards() {
        let shard = generator.generate_shard(&spec);
        let at = format!("{what}, {}", spec.label());
        let truth = &shard.truth;
        for r in truth.disengagements() {
            assert_renders_agree(r, &at);
        }
        let mut want = Vec::new();
        if !truth.disengagements().is_empty() || !truth.mileage().is_empty() {
            let mut table = String::new();
            render_mileage_table(truth.mileage(), &mut table);
            assert_eq!(
                table,
                reference::render_mileage_table(truth.mileage()),
                "{at}: mileage table"
            );
            want.push(reference::render_disengagement_document(
                spec.manufacturer,
                spec.year,
                truth.disengagements(),
                truth.mileage(),
            ));
        }
        for a in truth.accidents() {
            let mut form = String::new();
            render_accident_form(a, &mut form);
            assert_eq!(form, reference::render_accident_form(a), "{at}: {a:?}");
            want.push(reference::render_accident_document(a));
        }
        assert_eq!(shard.documents, want, "{at}: documents");
        documents.extend(shard.documents);
    }
    documents
}

/// Asserts the date and vocabulary parsers agree with the reference on
/// `text`.
fn assert_field_parses_agree(text: &str, what: &str) {
    let at = || format!("{what}: field {text:?}");
    assert_eq!(Date::parse(text), reference::parse_date(text), "{}", at());
    assert_eq!(
        RoadType::parse(text),
        reference::parse_road_type(text).ok(),
        "{}",
        at()
    );
    assert_eq!(
        Weather::parse(text),
        reference::parse_weather(text).ok(),
        "{}",
        at()
    );
    assert_eq!(
        Modality::parse(text),
        reference::parse_modality(text),
        "{}",
        at()
    );
    assert_eq!(
        Manufacturer::parse(text),
        reference::parse_manufacturer(text),
        "{}",
        at()
    );
}

/// Asserts every layout parses `line` as the reference does, and the
/// field parsers agree on every field and token the layouts split it
/// into.
fn assert_line_parses_agree(line: &str, line_no: usize, what: &str) {
    for m in LAYOUTS {
        // `Debug` text, so a NaN field compares equal to itself.
        assert_eq!(
            format!("{:?}", format_for(m).parse_line(line, line_no)),
            format!("{:?}", reference::format_for(m).parse_line(line, line_no)),
            "{what}: {m} layout parsed {line:?} differently"
        );
    }
    let fields = line
        .split(" — ")
        .chain(line.split(" | "))
        .chain(line.split(','))
        .chain(line.split_whitespace());
    for field in fields {
        assert_field_parses_agree(field, what);
    }
}

/// Asserts `doc` normalizes as the reference normalizes it: the same
/// records, failures and ids, the same counters and the same lineage.
/// Every log line is also parsed in every layout, and every mileage
/// table and accident form on its own. The reference reads a lone `\r`
/// as `\n`, as Stage II does, and a document that holds one must also
/// keep the untouched reference's records (see
/// [`assert_unjoined_records_kept`]).
fn assert_document_agrees(doc: &RawDocument, index: usize, what: &str) {
    let at = format!("{what}, doc {index} ({} {:?})", doc.manufacturer, doc.kind);
    let (obs, want_obs) = (
        Collector::new().with_lineage(true),
        Collector::new().with_lineage(true),
    );
    let (got, ids) = normalize_document_traced(doc, index, Some(&obs));
    let split = hostile::lone_cr_as_lf(doc);
    if split.is_some() {
        assert_unjoined_records_kept(doc, index, &got, &at);
    }
    // What the reference reads: the lines Stage II reads.
    let read_as = split.as_ref().unwrap_or(doc);
    let (want, want_ids) = reference::normalize_document_traced(read_as, index, Some(&want_obs));
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}: normalized");
    assert_eq!(ids, want_ids, "{at}: record ids");
    assert_eq!(
        obs.state().counters,
        want_obs.state().counters,
        "{at}: counters"
    );
    assert_eq!(
        obs.provenance().to_jsonl(),
        want_obs.provenance().to_jsonl(),
        "{at}: lineage"
    );
    match doc.kind {
        DocumentKind::Disengagements => {
            let (log, want_mileage) = read_as.sections();
            for (i, line) in log.lines().enumerate() {
                assert_line_parses_agree(line.trim(), i + 1, &at);
            }
            assert_eq!(
                format!(
                    "{:?}",
                    parse_mileage_table(doc.manufacturer, doc.sections().1)
                ),
                format!(
                    "{:?}",
                    reference::parse_mileage_table(doc.manufacturer, want_mileage)
                ),
                "{at}: mileage table"
            );
        }
        DocumentKind::Accident => {
            assert_eq!(
                format!("{:?}", parse_accident_form(&doc.text)),
                format!("{:?}", reference::parse_accident_form(&read_as.text)),
                "{at}: accident form"
            );
            for line in read_as.text.lines() {
                assert_field_parses_agree(line.split_once(": ").map_or(line, |(_, v)| v), &at);
            }
        }
    }
}

/// The rule on a document with a lone `\r`: every record the untouched
/// reference returns from a log line that holds no `\r` (each such line
/// survives whole), and its mileage table when that holds no `\r`, come
/// back unchanged, and the records in the same order.
fn assert_unjoined_records_kept(doc: &RawDocument, index: usize, got: &Normalized, at: &str) {
    let obs = Collector::new().with_lineage(true);
    let (want, _) = reference::normalize_document_traced(doc, index, Some(&obs));
    let (log, mileage) = doc.sections();
    let log: Vec<&str> = log.lines().collect();
    let provenance = obs.provenance();
    let lines = provenance.entries().iter().filter_map(|e| match e.event {
        ProvenanceEvent::Normalized { line, .. } => Some(line),
        _ => None,
    });
    let kept: Vec<String> = want
        .disengagements
        .iter()
        .zip(lines)
        .filter(|&(_, line)| !log[line - 1].contains('\r'))
        .map(|(r, _)| format!("{r:?}"))
        .collect();
    let mut got_records = got.disengagements.iter().map(|r| format!("{r:?}"));
    for record in &kept {
        assert!(
            got_records.any(|g| g == *record),
            "{at}: a record from an unjoined line was lost or reordered: {record}"
        );
    }
    if !mileage.contains('\r') {
        assert_eq!(
            format!("{:?}", got.mileage),
            format!("{:?}", want.mileage),
            "{at}: mileage rows"
        );
    }
}

fn assert_documents_agree(documents: &[RawDocument], what: &str) {
    for (i, doc) in documents.iter().enumerate() {
        assert_document_agrees(doc, i, what);
    }
}

/// `documents` through Stage I's simulated OCR at `noise`, corrected, as
/// a one-worker session digitizes them.
fn digitized(documents: &[RawDocument], noise: NoiseModel) -> Vec<RawDocument> {
    let config = DigitizeConfig {
        noise,
        correct: true,
        ocr_seed: RunConfig::new().ocr_seed,
        base_index: 0,
        repair_attempts: 1,
        jobs: 1,
    };
    digitize_simulated_with(config, documents, &Collector::new()).0
}

/// Renders and parses `config`'s corpus against the reference, then its
/// chaos-injected variants under `plans` and its hostile mutations at
/// `hostile_seeds`.
fn check_corpus(config: CorpusConfig, plans: &[FaultPlan], hostile_seeds: u64) {
    let what = format!("seed {:#x}, scale {}", config.seed, config.scale);
    let documents = assert_corpus_renders_agree(config, &what);
    assert_documents_agree(&documents, &what);
    for plan in plans {
        let (faulted, log) = inject_documents(plan, &documents, 0);
        assert!(log.total() > 0, "{what}: {plan:?} injected nothing");
        assert_documents_agree(&faulted, &format!("{what}, chaos {plan:?}"));
    }
    for seed in 0..hostile_seeds {
        for (i, doc) in documents.iter().enumerate() {
            for (name, mutated) in hostile::mutations(doc, seed) {
                assert_document_agrees(&mutated, i, &format!("{what}, {name}, seed {seed}"));
            }
        }
    }
}

/// A record with every field set, for the hand-built cases.
fn full_record() -> DisengagementRecord {
    DisengagementRecord {
        manufacturer: Manufacturer::MercedesBenz,
        car: CarId::Known(11),
        date: Date::new(2016, 2, 29).unwrap(),
        modality: Modality::Manual,
        road_type: Some(RoadType::ParkingLot),
        weather: Some(Weather::Overcast),
        reaction_time_s: Some(0.85),
        description: "the AV didn't see the lead vehicle, driver safely disengaged".to_owned(),
    }
}

#[test]
fn renderers_and_parsers_agree_on_the_default_corpus_at_full_scale() {
    check_corpus(
        CorpusConfig {
            seed: 0x5EED,
            scale: 1.0,
        },
        &[FaultPlan::new(0.05, 7)],
        0,
    );
}

#[test]
fn renderers_and_parsers_agree_on_seed_42_at_full_scale() {
    check_corpus(
        CorpusConfig {
            seed: 42,
            scale: 1.0,
        },
        &[FaultPlan::new(0.2, 42)],
        0,
    );
}

#[test]
fn renderers_and_parsers_agree_at_scale_005_with_chaos_and_hostile_input() {
    for seed in [0x5EED, 42] {
        check_corpus(
            CorpusConfig { seed, scale: 0.05 },
            &[FaultPlan::new(0.05, 7), FaultPlan::new(0.3, seed)],
            2,
        );
    }
}

#[test]
fn parsers_agree_under_simulated_ocr_at_light_and_heavy_noise() {
    for seed in [0x5EED, 42] {
        let documents = CorpusGenerator::new(CorpusConfig { seed, scale: 0.05 })
            .generate()
            .documents;
        for (name, noise) in [
            ("light", NoiseModel::light()),
            ("heavy", NoiseModel::heavy()),
        ] {
            let scanned = digitized(&documents, noise);
            assert_ne!(scanned, documents, "{name} noise changed nothing");
            assert_documents_agree(&scanned, &format!("seed {seed:#x}, {name} OCR"));
        }
    }
}

#[test]
fn every_manufacturer_files_in_the_reference_layout() {
    for m in Manufacturer::ALL {
        assert_eq!(
            format_for(m).manufacturer(),
            reference::format_for(m).manufacturer(),
            "{m}"
        );
    }
}

#[test]
fn renderers_and_parsers_agree_on_hand_built_edge_records() {
    let mut cases = vec![("every field", full_record())];
    let mut redacted = full_record();
    redacted.car = CarId::Redacted;
    cases.push(("redacted car", redacted));
    let mut absent = full_record();
    absent.road_type = None;
    absent.weather = None;
    absent.reaction_time_s = None;
    cases.push(("every optional field absent", absent));
    let mut quoted = full_record();
    quoted.description = "driver said \"take over\", then \"\"braked\"\" hard\"".to_owned();
    cases.push(("quotes in the description", quoted));
    // Halfway cases of `{:.2}`, values just either side of them, and
    // extremes: each must round as the reference rounds it.
    for rt in [
        0.005,
        0.015,
        0.125,
        0.995,
        1.005,
        2.675,
        9.995,
        0.0,
        -0.0,
        1e-9,
        14_400.0,
        1e15,
        f64::MIN_POSITIVE,
    ] {
        for x in [rt, f64::from_bits(rt.to_bits() + 1)] {
            let mut r = full_record();
            r.reaction_time_s = Some(x);
            cases.push(("rounding reaction time", r));
        }
    }
    for m in [Modality::Automatic, Modality::Planned] {
        let mut r = full_record();
        r.modality = m;
        cases.push(("modality", r));
    }
    for road in RoadType::ALL {
        let mut r = full_record();
        r.road_type = Some(road);
        cases.push(("road type", r));
    }
    for weather in Weather::ALL {
        let mut r = full_record();
        r.weather = Some(weather);
        cases.push(("weather", r));
    }
    let mut wide = full_record();
    wide.car = CarId::Known(u32::MAX - 1);
    wide.date = Date::new(2099, 12, 31).unwrap();
    cases.push(("widest car and year", wide));
    for (what, r) in &cases {
        assert_renders_agree(r, what);
        for m in LAYOUTS {
            let line = render(m, r);
            assert_line_parses_agree(&line, 1, &format!("{what}, {m} layout"));
        }
    }
}

#[test]
fn accident_forms_agree_on_hand_built_edge_records() {
    let kinds = [
        CollisionKind::RearEnd,
        CollisionKind::SideSwipe,
        CollisionKind::Frontal,
        CollisionKind::Object,
    ];
    let severities = [Severity::Minor, Severity::Moderate, Severity::Major];
    let mut n = 0;
    for (i, m) in Manufacturer::ALL.into_iter().enumerate() {
        for car in [CarId::Known(i as u32 * 7), CarId::Redacted] {
            for speeds in [(Some(4.05), Some(0.0)), (None, Some(12.25)), (None, None)] {
                n += 1;
                let record = AccidentRecord {
                    manufacturer: m,
                    car: car.clone(),
                    date: Date::new(2016, 2, 29).unwrap(),
                    location: "El Camino Real & Clark Ave, Mountain View CA".to_owned(),
                    av_speed_mph: speeds.0,
                    other_speed_mph: speeds.1,
                    autonomous_at_impact: n % 2 == 0,
                    kind: kinds[n % kinds.len()],
                    severity: severities[n % severities.len()],
                    description: "rear vehicle: \"collided\" while the AV yielded".to_owned(),
                };
                let mut form = String::new();
                render_accident_form(&record, &mut form);
                assert_eq!(form, reference::render_accident_form(&record), "{record:?}");
                assert_eq!(
                    parse_accident_form(&form),
                    reference::parse_accident_form(&form),
                    "{record:?}"
                );
            }
        }
    }
}

/// Table II's verbatim lines, and variants no renderer writes: each
/// parses as the reference parses it, in every layout.
#[test]
fn parsers_agree_on_the_papers_verbatim_lines() {
    for line in [
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software module froze. As a result driver safely disengaged and resumed manual control. — City and highway — Sunny/Dry",
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software module froze. As a result Driver Safely Disengaged. — City — Sunny/Dry",
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Planner error (system initiated) [reaction: 0.50s] — Urban — Raining/Wet",
        "May-16 — Highway — Safe Operation — Disengage for a recklessly behaving road user",
        "sep-14 — Parking — Auto — Disengage for a hardware discrepancy [reaction: 1.25s]",
        "11/12/14 — 18:24:03 — Takeover-Request — watchdog error",
        "11/12/2014 — 18:24:03 —  Takeover-Request  — watchdog error [reaction: 14400.00s]",
        "2016-05-25 | Car 3 | Driver Initiated | City Street | Cloudy | 0.85s | perception miss",
        "Planned test on 5/25/16 (Car ?): sensor dropout [road=Freeway; weather=Foggy]",
        "2016-05-25,?,Planned Test,,,\"a \"\"quoted\"\", comma, description\"",
        "#? 2016-05-25 planned — localization drift",
        "Car 12 | 12/1/15 | Manual | lane keeping [reaction: 0.8s]",
    ] {
        assert_line_parses_agree(line, 3, "verbatim line");
    }
}

#[test]
#[ignore = "full grid: run in release by scripts/verify.sh"]
fn renderers_and_parsers_agree_on_the_full_grid() {
    for seed in 1..=6 {
        check_corpus(
            CorpusConfig { seed, scale: 1.0 },
            &[FaultPlan::new(0.1, seed)],
            1,
        );
    }
    for scale in [0.25, 0.5] {
        check_corpus(
            CorpusConfig {
                seed: 0x5EED,
                scale,
            },
            &[FaultPlan::new(0.05, 7), FaultPlan::new(0.3, 11)],
            2,
        );
    }
    for (scale, seed) in [(1.0, 0x5EED), (0.25, 42)] {
        let documents = CorpusGenerator::new(CorpusConfig { seed, scale })
            .generate()
            .documents;
        for noise in [NoiseModel::light(), NoiseModel::heavy()] {
            let scanned = digitized(&documents, noise);
            assert_documents_agree(&scanned, &format!("seed {seed:#x}, scale {scale}, OCR"));
        }
    }
}
