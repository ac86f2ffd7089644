//! Randomized property tests across crate boundaries.
//!
//! Formerly `proptest` strategies; now seeded loops over the in-tree
//! PRNG so the suite runs with zero external dependencies. Each test
//! draws a few hundred cases from a fixed seed, so failures are exactly
//! reproducible.

use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::dataframe::csv;
use disengage::nlp::{Classifier, FaultTag};
use disengage::ocr::correct::edit_distance;
use disengage::ocr::stream::StreamTimings;
use disengage::ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
use disengage::reports::formats::disengagement::format_for;
use disengage::reports::record::CarId;
use disengage::reports::{Date, DisengagementRecord, Manufacturer, Modality, RoadType, Weather};
use disengage::stats::quantile::quantile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gen_date(rng: &mut StdRng) -> Date {
    Date::new(
        rng.gen_range(2014..=2016u16),
        rng.gen_range(1..=12u8),
        rng.gen_range(1..=28u8),
    )
    .expect("day <= 28 valid")
}

fn gen_word(rng: &mut StdRng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

fn gen_description(rng: &mut StdRng) -> String {
    const CANNED: [&str; 5] = [
        "software module froze",
        "the AV didn't see the lead vehicle",
        "watchdog error",
        "planner failed to anticipate the cyclist",
        "gps signal lost under the overpass",
    ];
    if rng.gen_bool(0.5) {
        CANNED[rng.gen_range(0..CANNED.len())].to_owned()
    } else {
        let words = rng.gen_range(2..=7usize);
        (0..words)
            .map(|_| gen_word(rng, 3, 12))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn gen_record(rng: &mut StdRng) -> DisengagementRecord {
    let modality = match rng.gen_range(0..3u8) {
        0 => Modality::Automatic,
        1 => Modality::Manual,
        _ => Modality::Planned,
    };
    let reaction_time_s = if rng.gen_bool(0.5) {
        Some((rng.gen_range(0.01..30.0f64) * 100.0).round() / 100.0)
    } else {
        None
    };
    let road_type = if rng.gen_bool(0.5) {
        Some(match rng.gen_range(0..3u8) {
            0 => RoadType::Street,
            1 => RoadType::Highway,
            _ => RoadType::Freeway,
        })
    } else {
        None
    };
    let weather = if rng.gen_bool(0.5) {
        Some(if rng.gen_bool(0.5) {
            Weather::Clear
        } else {
            Weather::Rain
        })
    } else {
        None
    };
    DisengagementRecord {
        manufacturer: Manufacturer::MercedesBenz,
        car: CarId::Known(rng.gen_range(0..8u32)),
        date: gen_date(rng),
        modality,
        road_type,
        weather,
        reaction_time_s,
        description: gen_description(rng),
    }
}

/// The pipe-table format (used by Mercedes-Benz and the sparse
/// reporters) round-trips arbitrary records exactly.
#[test]
fn benz_format_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xB312);
    let format = format_for(Manufacturer::MercedesBenz);
    for _ in 0..256 {
        let record = gen_record(&mut rng);
        let mut line = String::new();
        format.render(&record, &mut line);
        let parsed = format.parse_line(&line, 1).expect("round trip parses");
        assert_eq!(parsed, record);
    }
}

/// Clean digitization (rasterize → recognize, no noise) is the
/// identity over the covered character set.
#[test]
fn ocr_identity_on_clean_pages() {
    const COVERED: &[u8] = b"abcdefghijklmnopqrstuvwxyz\
                             ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789,:;/#()%=-";
    let mut rng = StdRng::seed_from_u64(0x0C12);
    let engine = OcrEngine::new();
    let mut scratch = StreamScratch::default();
    for _ in 0..64 {
        let words = rng.gen_range(1..6usize);
        let text = (0..words)
            .map(|_| {
                let len = rng.gen_range(1..=12usize);
                (0..len)
                    .map(|_| COVERED[rng.gen_range(0..COVERED.len())] as char)
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ");
        let out = digitize_streamed(
            &text,
            &NoiseModel::clean(),
            &engine,
            &mut scratch,
            &mut StdRng::seed_from_u64(1),
            &mut StreamTimings::default(),
        );
        assert_eq!(out.text, text);
    }
}

/// Edit distance is a metric: symmetric, zero iff equal, triangle
/// inequality.
#[test]
fn edit_distance_is_a_metric() {
    let mut rng = StdRng::seed_from_u64(0xED17);
    for _ in 0..512 {
        let a = gen_word(&mut rng, 0, 8);
        let b = gen_word(&mut rng, 0, 8);
        let c = gen_word(&mut rng, 0, 8);
        assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        assert_eq!(edit_distance(&a, &a), 0);
        if edit_distance(&a, &b) == 0 {
            assert_eq!(a, b);
        }
        assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }
}

/// The classifier is total and consistent: every description gets a
/// tag whose category matches the ontology.
#[test]
fn classifier_total_and_consistent() {
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    let cl = Classifier::with_default_dictionary();
    for case in 0..256 {
        let desc = match case % 4 {
            // Mix printable-ASCII noise with word-ish text, as the
            // proptest `.{0,80}` strategy did.
            0 => {
                let len = rng.gen_range(0..80usize);
                (0..len)
                    .map(|_| (b' ' + rng.gen_range(0..95u8)) as char)
                    .collect()
            }
            _ => gen_description(&mut rng),
        };
        let a = cl.classify(&desc);
        assert_eq!(a.category, a.tag.category());
        if a.tag == FaultTag::UnknownT {
            assert_eq!(a.score, 0.0);
        } else {
            assert!(a.score > 0.0);
        }
    }
}

/// Quantiles are monotone in q and bounded by min/max for any sample.
#[test]
fn quantiles_monotone_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x0A41);
    for _ in 0..128 {
        let n = rng.gen_range(1..50usize);
        let xs: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(-1e6..1e6f64) * 100.0).round() / 100.0)
            .collect();
        let lo = quantile(&xs, 0.0).expect("q0");
        let hi = quantile(&xs, 1.0).expect("q1");
        let mut prev = lo;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = quantile(&xs, q).expect("q");
            assert!(v >= prev - 1e-9);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prev = v;
        }
    }
}

/// The CSV writer loses no bit of a float: every field of a numeric
/// frame parses back to the exact value written. Numeric fields need no
/// quoting, so each line splits on `,`.
#[test]
fn csv_round_trips_numeric_frames() {
    let mut rng = StdRng::seed_from_u64(0xC5F7);
    for _ in 0..64 {
        let n = rng.gen_range(1..40usize);
        let cols = rng.gen_range(1..4usize);
        let xs: Vec<Vec<f64>> = (0..cols)
            .map(|_| {
                (0..n)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(-1e6..1e6f64).round(),
                        1 => rng.gen_range(-1e9..1e9f64),
                        _ => (rng.gen_range(-1e9..1e9f64) * 1000.0).round() / 1000.0,
                    })
                    .collect()
            })
            .collect();
        let df = disengage::dataframe::DataFrame::new(
            xs.iter()
                .enumerate()
                .map(|(c, col)| {
                    let values = col.iter().map(|&x| disengage::dataframe::Value::Float(x));
                    (format!("x{c}"), values.collect())
                })
                .collect(),
        )
        .expect("frame");
        let text = csv::write_str(&df);
        let lines: Vec<&str> = text.lines().collect();
        let header: Vec<String> = (0..cols).map(|c| format!("x{c}")).collect();
        assert_eq!(lines[0], header.join(","));
        assert_eq!(lines.len(), n + 1);
        for (i, line) in lines[1..].iter().enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), cols, "row {i}: {line}");
            for (c, field) in fields.iter().enumerate() {
                let got: f64 = field.parse().unwrap_or_else(|e| panic!("{field:?}: {e}"));
                let want = xs[c][i];
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} col {c}: {field}");
            }
        }
    }
}

/// Corpus scaling: any scale in (0, 1] produces counts proportional
/// to the calibration, and every record validates.
#[test]
fn corpus_scales_proportionally() {
    let mut rng = StdRng::seed_from_u64(0x5CA1);
    for _ in 0..24 {
        let seed = rng.gen_range(0..1000u64);
        let scale = rng.gen_range(0.02..0.3f64);
        let corpus = CorpusGenerator::new(CorpusConfig { seed, scale }).generate();
        let n = corpus.truth.disengagements().len() as f64;
        let expected = 5328.0 * scale;
        // Rounding per (manufacturer, year) bounds the deviation.
        assert!((n - expected).abs() < 40.0, "n = {n} expected {expected}");
        for r in corpus.truth.disengagements() {
            assert!(r.validate().is_ok());
        }
        assert_eq!(
            corpus.intended_tags.len(),
            corpus.truth.disengagements().len()
        );
    }
}
