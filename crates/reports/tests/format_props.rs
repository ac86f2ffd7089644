//! Property tests: every manufacturer format round-trips the fields it
//! carries, for arbitrary records.
//!
//! Formerly `proptest` strategies; now seeded loops over the in-tree
//! PRNG so the suite runs with zero external dependencies.

use disengage_reports::formats::disengagement::{
    BenzFormat, BoschFormat, DelphiFormat, GmCruiseFormat, NissanFormat, ReportFormat, TeslaFormat,
    VolkswagenFormat, WaymoFormat,
};
use disengage_reports::record::CarId;
use disengage_reports::{Date, DisengagementRecord, Manufacturer, Modality, RoadType, Weather};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

fn gen_date(rng: &mut StdRng) -> Date {
    Date::new(
        rng.gen_range(2014..=2016u16),
        rng.gen_range(1..=12u8),
        rng.gen_range(1..=28u8),
    )
    .expect("valid")
}

/// Word-ish text free of the structural separators each format uses
/// (the old `[a-z][a-z ]{0,60}[a-z]` strategy, trimmed).
fn gen_description(rng: &mut StdRng) -> String {
    let mid = rng.gen_range(0..=60usize);
    let mut s = String::with_capacity(mid + 2);
    s.push((b'a' + rng.gen_range(0..26u8)) as char);
    for _ in 0..mid {
        s.push(if rng.gen_bool(0.18) {
            ' '
        } else {
            (b'a' + rng.gen_range(0..26u8)) as char
        });
    }
    s.push((b'a' + rng.gen_range(0..26u8)) as char);
    // Internal runs of spaces are fine; leading/trailing are not.
    s.trim().to_owned()
}

fn gen_road(rng: &mut StdRng) -> Option<RoadType> {
    if rng.gen_bool(0.5) {
        return None;
    }
    Some(match rng.gen_range(0..7u8) {
        0 => RoadType::Street,
        1 => RoadType::Highway,
        2 => RoadType::Interstate,
        3 => RoadType::Freeway,
        4 => RoadType::ParkingLot,
        5 => RoadType::Suburban,
        _ => RoadType::Rural,
    })
}

fn gen_weather(rng: &mut StdRng) -> Option<Weather> {
    if rng.gen_bool(0.5) {
        return None;
    }
    Some(match rng.gen_range(0..4u8) {
        0 => Weather::Clear,
        1 => Weather::Rain,
        2 => Weather::Overcast,
        _ => Weather::Fog,
    })
}

/// One record rendered by itself.
fn line(f: &impl ReportFormat, r: &DisengagementRecord) -> String {
    let mut line = String::new();
    f.render(r, &mut line);
    line
}

fn gen_record(rng: &mut StdRng, manufacturer: Manufacturer) -> DisengagementRecord {
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
    DisengagementRecord {
        manufacturer,
        car: CarId::Known(rng.gen_range(0..30u32)),
        date: gen_date(rng),
        modality,
        road_type: gen_road(rng),
        weather: gen_weather(rng),
        reaction_time_s,
        description: gen_description(rng),
    }
}

/// The modality a lossy auto/manual format should reconstruct: Planned
/// renders as "system initiated", folding into Automatic.
fn folded(m: Modality) -> Modality {
    if m == Modality::Manual {
        Modality::Manual
    } else {
        Modality::Automatic
    }
}

/// The full-schema pipe format round-trips everything.
#[test]
fn benz_round_trips_fully() {
    let mut rng = StdRng::seed_from_u64(0xF0B3);
    let f = BenzFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::MercedesBenz);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed, r);
    }
}

/// Nissan carries everything except it renders into its own narrative
/// layout; day precision and all optional fields survive.
#[test]
fn nissan_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xF0A1);
    let f = NissanFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::Nissan);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.car, r.car);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.reaction_time_s, r.reaction_time_s);
        assert_eq!(parsed.road_type, r.road_type);
        assert_eq!(parsed.weather, r.weather);
        assert_eq!(parsed.modality, folded(r.modality));
    }
}

/// Waymo: month precision, no car, no weather; everything else
/// survives.
#[test]
fn waymo_round_trips_carried_fields() {
    let mut rng = StdRng::seed_from_u64(0xF0A7);
    let f = WaymoFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::Waymo);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(
            parsed.date,
            Date::month_start(r.date.year(), r.date.month()).expect("valid")
        );
        assert_eq!(parsed.car, CarId::Redacted);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.reaction_time_s, r.reaction_time_s);
        assert_eq!(parsed.road_type, r.road_type);
        assert_eq!(parsed.modality, folded(r.modality));
    }
}

/// Volkswagen: automatic-only takeover requests.
#[test]
fn volkswagen_round_trips_carried_fields() {
    let mut rng = StdRng::seed_from_u64(0xF0F4);
    let f = VolkswagenFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::Volkswagen);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.reaction_time_s, r.reaction_time_s);
        assert_eq!(parsed.modality, Modality::Automatic);
    }
}

/// Bosch: planned-only, no reaction times.
#[test]
fn bosch_round_trips_carried_fields() {
    let mut rng = StdRng::seed_from_u64(0xF0B0);
    let f = BoschFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::Bosch);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.car, r.car);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.road_type, r.road_type);
        assert_eq!(parsed.weather, r.weather);
        assert_eq!(parsed.modality, Modality::Planned);
        assert_eq!(parsed.reaction_time_s, None);
    }
}

/// Delphi: CSV row; carries everything but weather.
#[test]
fn delphi_round_trips_carried_fields() {
    let mut rng = StdRng::seed_from_u64(0xF0D3);
    let f = DelphiFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::Delphi);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.car, r.car);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.modality, r.modality);
        assert_eq!(parsed.road_type, r.road_type);
        assert_eq!(parsed.reaction_time_s, r.reaction_time_s);
        assert_eq!(parsed.weather, None);
    }
}

/// GM Cruise: terse planned rows.
#[test]
fn gmcruise_round_trips_carried_fields() {
    let mut rng = StdRng::seed_from_u64(0xF06C);
    let f = GmCruiseFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::GmCruise);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.car, r.car);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.modality, Modality::Planned);
    }
}

/// Tesla: pipe rows, auto/manual only.
#[test]
fn tesla_round_trips_carried_fields() {
    let mut rng = StdRng::seed_from_u64(0xF0E5);
    let f = TeslaFormat;
    for _ in 0..CASES {
        let r = gen_record(&mut rng, Manufacturer::Tesla);
        let parsed = f.parse_line(&line(&f, &r), 1).expect("parses");
        assert_eq!(parsed.date, r.date);
        assert_eq!(parsed.car, r.car);
        assert_eq!(parsed.description, r.description);
        assert_eq!(parsed.reaction_time_s, r.reaction_time_s);
        assert_eq!(parsed.modality, folded(r.modality));
    }
}

/// Every format rejects obviously malformed input rather than producing
/// a bogus record.
#[test]
fn formats_reject_garbage() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz @#";
    let mut rng = StdRng::seed_from_u64(0xF06B);
    for _ in 0..CASES {
        let len = rng.gen_range(0..40usize);
        let garbage: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect();
        for format in [
            &NissanFormat as &dyn ReportFormat,
            &WaymoFormat,
            &VolkswagenFormat,
            &BenzFormat,
            &BoschFormat,
            &DelphiFormat,
            &GmCruiseFormat,
            &TeslaFormat,
        ] {
            assert!(format.parse_line(&garbage, 1).is_err(), "{garbage:?}");
        }
    }
}
