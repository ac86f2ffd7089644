//! The corpus generator: profiles → typed ground-truth records → raw
//! documents.

use crate::allocation::{allocate_disengagements, allocate_miles, MileageGrid};
use crate::profile::{standard_profiles, ManufacturerProfile, YearProfile};
use crate::shard::{doc_count_for, ShardSpec};
use crate::templates::{accident_locations, accident_narratives, compose};
use disengage_nlp::FaultTag;
use disengage_reports::formats::RawDocument;
use disengage_reports::record::{AccidentRecord, CarId, CollisionKind, Severity};
use disengage_reports::{
    Date, DisengagementRecord, FailureDatabase, Manufacturer, Modality, MonthlyMileage,
    RoadType, Weather,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Configuration for corpus generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusConfig {
    /// RNG seed — the corpus is a pure function of this seed and `scale`.
    pub seed: u64,
    /// Scale factor on fleet sizes, miles, and event counts. `1.0`
    /// reproduces the paper's full corpus (5,328 disengagements); smaller
    /// values generate proportionally smaller corpora for fast tests.
    pub scale: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x5EED,
            scale: 1.0,
        }
    }
}

/// A generated corpus: ground truth plus the raw documents the pipeline
/// will digitize and parse.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The ground-truth consolidated database (what a perfect pipeline
    /// recovers).
    pub truth: FailureDatabase,
    /// The fault tag each disengagement was generated from, aligned with
    /// `truth.disengagements()` — the evaluation key for Stage III.
    pub intended_tags: Vec<FaultTag>,
    /// Raw documents in each manufacturer's format (input to Stage I/II).
    pub documents: Vec<RawDocument>,
}

/// Deterministic, profile-calibrated corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    config: CorpusConfig,
    profiles: Vec<ManufacturerProfile>,
}

impl CorpusGenerator {
    /// A generator over the paper's standard calibration.
    pub fn new(config: CorpusConfig) -> CorpusGenerator {
        CorpusGenerator {
            config,
            profiles: standard_profiles(),
        }
    }

    /// A generator over custom profiles (for what-if studies).
    pub fn with_profiles(config: CorpusConfig, profiles: Vec<ManufacturerProfile>) -> CorpusGenerator {
        CorpusGenerator { config, profiles }
    }

    /// The configuration in use.
    pub fn config(&self) -> CorpusConfig {
        self.config
    }

    /// Enumerates the corpus shards — one per (manufacturer,
    /// filing-year) cell, in profile order — with their derived seeds
    /// and stable document offsets. A pure function of the profiles and
    /// scale: no RNG is consumed, so the enumeration itself never
    /// perturbs shard content.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn shards(&self) -> Vec<ShardSpec> {
        assert!(self.config.scale > 0.0, "scale must be positive");
        let mut specs = Vec::new();
        let mut doc_base = 0usize;
        for profile in &self.profiles {
            for year in &profile.years {
                let scaled = self.scale_year(year);
                let doc_count = doc_count_for(&scaled);
                specs.push(ShardSpec {
                    manufacturer: profile.manufacturer,
                    year: year.year,
                    seed: rand::derive_seed(
                        self.config.seed,
                        crate::shard::stable_shard_id(profile.manufacturer, year.year),
                    ),
                    index: specs.len(),
                    doc_base,
                    doc_count,
                });
                doc_base += doc_count;
            }
        }
        specs
    }

    /// Generates one shard in isolation: the cell's ground truth,
    /// intended tags, and rendered documents (the disengagement filing
    /// first, then its accident forms). The shard's RNG stream derives
    /// from [`ShardSpec::seed`] alone, so the output is byte-identical
    /// to the same slice of [`CorpusGenerator::generate`] no matter
    /// which other shards exist or run.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or `spec` names a cell absent from this
    /// generator's profiles.
    pub fn generate_shard(&self, spec: &ShardSpec) -> Corpus {
        assert!(self.config.scale > 0.0, "scale must be positive");
        let profile = self
            .profiles
            .iter()
            .find(|p| p.manufacturer == spec.manufacturer)
            .unwrap_or_else(|| panic!("no profile for {}", spec.manufacturer));
        let year = profile
            .years
            .iter()
            .find(|y| y.year == spec.year)
            .unwrap_or_else(|| panic!("{} has no {:?} filing", spec.manufacturer, spec.year));
        let scaled = self.scale_year(year);
        let mut rng = StdRng::seed_from_u64(spec.seed);

        // A single 4-hour reaction-time outlier is planted in the
        // Volkswagen data (Section V-A4 reports one such entry). The
        // 2% per-record chance usually plants it mid-stream; if the
        // shard's stream never fires it, the last eligible record is
        // overwritten so the outlier exists at every seed and scale —
        // a per-shard guarantee now that no flag threads across shards.
        let mut vw_outlier_pending = true;
        let (mut records, tags, mileage) =
            self.generate_year(profile, &scaled, &mut vw_outlier_pending, &mut rng);
        if profile.manufacturer == Manufacturer::Volkswagen && vw_outlier_pending {
            if let Some(r) = records
                .iter_mut()
                .rev()
                .find(|r| r.reaction_time_s.is_some())
            {
                r.reaction_time_s = Some(14_400.0);
            }
        }
        let accidents = self.generate_accidents(profile, &scaled, &mut rng);

        let mut truth = FailureDatabase::new();
        for r in &records {
            truth.push_disengagement(r.clone());
        }
        for m in &mileage {
            truth.push_mileage(m.clone());
        }
        for a in &accidents {
            truth.push_accident(a.clone());
        }
        let mut documents = Vec::with_capacity(doc_count_for(&scaled));
        if !records.is_empty() || !mileage.is_empty() {
            documents.push(crate::rawdoc::render_disengagement_document(
                profile.manufacturer,
                year.year,
                &records,
                &mileage,
            ));
        }
        documents.extend(accidents.iter().map(crate::rawdoc::render_accident_document));
        debug_assert_eq!(
            documents.len(),
            spec.doc_count,
            "{}: enumerated doc_count must match generation",
            spec.label()
        );
        Corpus {
            truth,
            intended_tags: tags,
            documents,
        }
    }

    /// Generates the corpus: the deterministic concatenation of every
    /// shard, in enumeration order. Identical to generating each shard
    /// in isolation and folding — that equivalence is what makes
    /// sharded execution byte-identical to a monolithic run.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn generate(&self) -> Corpus {
        let mut truth = FailureDatabase::new();
        let mut intended_tags = Vec::new();
        let mut documents = Vec::new();
        for spec in self.shards() {
            let shard = self.generate_shard(&spec);
            debug_assert_eq!(documents.len(), spec.doc_base);
            truth.merge(shard.truth);
            intended_tags.extend(shard.intended_tags);
            documents.extend(shard.documents);
        }
        Corpus {
            truth,
            intended_tags,
            documents,
        }
    }

    /// [`CorpusGenerator::generate_shard`], recording the shard's slice
    /// of the Stage I telemetry into `obs`: total and per-manufacturer
    /// record counters and document counts, which sum across shards to
    /// the corpus-wide values. The per-manufacturer counts are tallied
    /// locally and recorded in one batch. The `corpus.total_miles`
    /// gauge is *not* recorded here — gauges overwrite on absorb, so
    /// the corpus-wide value is the merge stage's job.
    pub fn generate_shard_with(
        &self,
        spec: &ShardSpec,
        obs: &disengage_obs::Collector,
    ) -> Corpus {
        let corpus = self.generate_shard(spec);
        obs.add(
            "corpus.disengagements",
            corpus.truth.disengagements().len() as u64,
        );
        obs.add("corpus.accidents", corpus.truth.accidents().len() as u64);
        obs.add("corpus.documents", corpus.documents.len() as u64);
        let mut per_manufacturer: BTreeMap<Manufacturer, u64> = BTreeMap::new();
        for r in corpus.truth.disengagements() {
            *per_manufacturer.entry(r.manufacturer).or_insert(0) += 1;
        }
        let counts: Vec<(String, u64)> = per_manufacturer
            .into_iter()
            .map(|(m, n)| {
                let name = format!("corpus.dis.{}", disengage_obs::key_segment(m.name()));
                (name, n)
            })
            .collect();
        obs.record_batch(counts.iter().map(|(name, n)| (name.as_str(), *n)), []);
        corpus
    }

    fn scale_year(&self, year: &YearProfile) -> YearProfile {
        let s = self.config.scale;
        if (s - 1.0).abs() < f64::EPSILON {
            return *year;
        }
        YearProfile {
            year: year.year,
            cars: if year.cars == 0 {
                0
            } else {
                ((year.cars as f64 * s).round() as u32).max(1)
            },
            miles: year.miles * s,
            disengagements: if year.disengagements == 0 {
                0
            } else {
                ((year.disengagements as f64 * s).round() as u64).max(1)
            },
            accidents: if year.accidents == 0 {
                0
            } else {
                ((year.accidents as f64 * s).round() as u64).max(1)
            },
        }
    }

    fn generate_year(
        &self,
        profile: &ManufacturerProfile,
        year: &YearProfile,
        vw_outlier_pending: &mut bool,
        rng: &mut StdRng,
    ) -> (Vec<DisengagementRecord>, Vec<FaultTag>, Vec<MonthlyMileage>) {
        let cars = year.cars as usize;
        if cars == 0 || year.miles <= 0.0 {
            return (Vec::new(), Vec::new(), Vec::new());
        }
        let grid = allocate_miles(year.miles, cars, year.year, 1.0, profile.car_skew, rng);
        let mileage = mileage_rows(profile.manufacturer, &grid);
        let counts = allocate_disengagements(
            year.disengagements,
            &grid,
            0.93,
            profile.dis_miles_exponent,
        );

        let total: u64 = counts.iter().flat_map(|row| row.iter()).sum();
        let mut modalities = modality_quota(&profile.modalities, total as usize, rng);
        let mut year_tags = tag_quota(&profile.categories, total as usize, rng);

        let mut records = Vec::new();
        let mut tags = Vec::new();
        for (car, row) in counts.iter().enumerate() {
            for (m, &n) in row.iter().enumerate() {
                let month = grid.months[m];
                // Position within the 27-month program (0..1) — drives
                // the positive reaction-time correlation with cumulative
                // miles (§V-A4). Keyed to the global month index so the
                // drift continues smoothly across the two release
                // windows.
                let miles_frac = (month.month_index() as f64 - 8.0) / 26.0;
                for _ in 0..n {
                    let tag = year_tags.pop().expect("quota sized to record count");
                    let modality = modalities.pop().expect("quota sized to record count");
                    let reaction_time_s = sample_reaction(
                        profile,
                        modality,
                        miles_frac,
                        vw_outlier_pending,
                        rng,
                    );
                    let day = rng.gen_range(1..=28);
                    let record = DisengagementRecord {
                        manufacturer: profile.manufacturer,
                        car: CarId::Known(car as u32),
                        date: Date::new(month.year(), month.month(), day)
                            .expect("day <= 28 is always valid"),
                        modality,
                        road_type: sample_road(rng),
                        weather: sample_weather(rng),
                        reaction_time_s,
                        description: compose(tag, rng),
                    };
                    records.push(record);
                    tags.push(tag);
                }
            }
        }
        (records, tags, mileage)
    }

    fn generate_accidents(
        &self,
        profile: &ManufacturerProfile,
        year: &YearProfile,
        rng: &mut StdRng,
    ) -> Vec<AccidentRecord> {
        let months = crate::allocation::window_months(year.year);
        let narratives = accident_narratives();
        let locations = accident_locations();
        (0..year.accidents)
            .map(|_| {
                let month = months[rng.gen_range(0..months.len())];
                let day = rng.gen_range(1..=28);
                // Fig. 12: low speeds, exponentially distributed.
                let av_speed = sample_exponential(5.0, rng).min(30.0);
                let other_speed = sample_exponential(8.5, rng).min(40.0);
                let kind = match rng.gen_range(0..100) {
                    0..=59 => CollisionKind::RearEnd,
                    60..=84 => CollisionKind::SideSwipe,
                    85..=94 => CollisionKind::Object,
                    _ => CollisionKind::Frontal,
                };
                let severity = match rng.gen_range(0..100) {
                    0..=79 => Severity::Minor,
                    80..=94 => Severity::Moderate,
                    _ => Severity::Major,
                };
                AccidentRecord {
                    manufacturer: profile.manufacturer,
                    car: if rng.gen_bool(0.5) {
                        CarId::Redacted
                    } else {
                        CarId::Known(rng.gen_range(0..year.cars.max(1)))
                    },
                    date: Date::new(month.year(), month.month(), day).expect("valid"),
                    location: locations[rng.gen_range(0..locations.len())].to_owned(),
                    av_speed_mph: Some((av_speed * 10.0).round() / 10.0),
                    other_speed_mph: Some((other_speed * 10.0).round() / 10.0),
                    autonomous_at_impact: rng.gen_bool(0.7),
                    kind,
                    severity,
                    description: narratives[rng.gen_range(0..narratives.len())].to_owned(),
                }
            })
            .collect()
    }
}

fn mileage_rows(manufacturer: Manufacturer, grid: &MileageGrid) -> Vec<MonthlyMileage> {
    let mut rows = Vec::new();
    for (car, row) in grid.miles.iter().enumerate() {
        for (m, &miles) in row.iter().enumerate() {
            if miles > 0.0 {
                rows.push(MonthlyMileage {
                    manufacturer,
                    car: CarId::Known(car as u32),
                    month: grid.months[m],
                    miles,
                });
            }
        }
    }
    rows
}

/// Largest-remainder apportionment: integer counts summing to `n`,
/// proportional to `shares` (which need not be normalized exactly).
fn apportion<const K: usize>(shares: [f64; K], n: usize) -> [usize; K] {
    let total: f64 = shares.iter().sum();
    let mut counts = [0usize; K];
    let mut fracs = [0f64; K];
    let mut assigned = 0usize;
    for i in 0..K {
        let exact = if total > 0.0 {
            shares[i] / total * n as f64
        } else {
            0.0
        };
        counts[i] = exact.floor() as usize;
        fracs[i] = exact - exact.floor();
        assigned += counts[i];
    }
    while assigned < n {
        let i = (0..K)
            .max_by(|&a, &b| fracs[a].total_cmp(&fracs[b]))
            .expect("K > 0");
        counts[i] += 1;
        fracs[i] = -1.0;
        assigned += 1;
    }
    counts
}

/// Fisher–Yates shuffle with the corpus generator's own source.
fn shuffle<T, R: Rng + ?Sized>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// Allocates a year's fault tags by quota: the category mix is
/// apportioned exactly (Table IV holds at every seed, instead of
/// drifting with sampling noise on small fleets like Nissan's), then
/// each slot samples a specific tag from the within-category splits
/// that produce Fig. 6's tag distribution.
fn tag_quota<R: Rng + ?Sized>(
    mix: &crate::profile::CategoryMix,
    n: usize,
    rng: &mut R,
) -> Vec<FaultTag> {
    let counts = apportion([mix.perception, mix.planner, mix.system, mix.unknown], n);
    let mut out = Vec::with_capacity(n);
    for _ in 0..counts[0] {
        out.push(if rng.gen_bool(0.7) {
            FaultTag::RecognitionSystem
        } else {
            FaultTag::Environment
        });
    }
    for _ in 0..counts[1] {
        out.push(match rng.gen_range(0..100) {
            0..=59 => FaultTag::Planner,
            60..=84 => FaultTag::IncorrectBehaviorPrediction,
            85..=94 => FaultTag::AvControllerDecision,
            _ => FaultTag::DesignBug,
        });
    }
    for _ in 0..counts[2] {
        out.push(match rng.gen_range(0..100) {
            0..=39 => FaultTag::Software,
            40..=59 => FaultTag::ComputerSystem,
            60..=74 => FaultTag::HangCrash,
            75..=89 => FaultTag::Sensor,
            90..=94 => FaultTag::Network,
            _ => FaultTag::AvControllerUnresponsive,
        });
    }
    out.extend(std::iter::repeat(FaultTag::UnknownT).take(counts[3]));
    shuffle(&mut out, rng);
    out
}

/// Allocates a year's modalities by quota — largest-remainder
/// apportionment of the profile's mix over `n` records, then a seeded
/// shuffle so modality is uncorrelated with car and month. Table V's
/// percentages hold exactly (up to per-year rounding) at every seed,
/// instead of drifting with sampling noise on small fleets like
/// Nissan's.
fn modality_quota<R: Rng + ?Sized>(
    mix: &crate::profile::ModalityMix,
    n: usize,
    rng: &mut R,
) -> Vec<Modality> {
    let counts = apportion([mix.automatic, mix.manual, mix.planned], n);
    let mut out = Vec::with_capacity(n);
    for (m, c) in [Modality::Automatic, Modality::Manual, Modality::Planned]
        .into_iter()
        .zip(counts)
    {
        out.extend(std::iter::repeat(m).take(c));
    }
    shuffle(&mut out, rng);
    out
}

/// Road-type mix from Section III-C (31.7% city streets, 29.26%
/// highways, 14.63% interstates, 9.75% freeways, remainder parking /
/// suburban / rural). A third of records omit the field, as many real
/// filings do.
fn sample_road<R: Rng + ?Sized>(rng: &mut R) -> Option<RoadType> {
    if rng.gen_bool(1.0 / 3.0) {
        return None;
    }
    let u: f64 = rng.gen();
    Some(if u < 0.317 {
        RoadType::Street
    } else if u < 0.317 + 0.2926 {
        RoadType::Highway
    } else if u < 0.317 + 0.2926 + 0.1463 {
        RoadType::Interstate
    } else if u < 0.317 + 0.2926 + 0.1463 + 0.0975 {
        RoadType::Freeway
    } else if u < 0.317 + 0.2926 + 0.1463 + 0.0975 + 0.05 {
        RoadType::ParkingLot
    } else if u < 0.317 + 0.2926 + 0.1463 + 0.0975 + 0.05 + 0.05 {
        RoadType::Suburban
    } else {
        RoadType::Rural
    })
}

fn sample_weather<R: Rng + ?Sized>(rng: &mut R) -> Option<Weather> {
    if rng.gen_bool(0.4) {
        return None;
    }
    let u: f64 = rng.gen();
    Some(if u < 0.70 {
        Weather::Clear
    } else if u < 0.85 {
        Weather::Overcast
    } else if u < 0.97 {
        Weather::Rain
    } else {
        Weather::Fog
    })
}

/// Samples a driver reaction time: Weibull base (Fig. 11) with a mild
/// positive drift in cumulative miles (§V-A4's r ≈ 0.1–0.2), plus the
/// one ~4-hour Volkswagen outlier.
fn sample_reaction<R: Rng + ?Sized>(
    profile: &ManufacturerProfile,
    modality: Modality,
    miles_frac: f64,
    vw_outlier_pending: &mut bool,
    rng: &mut R,
) -> Option<f64> {
    let params = profile.reactions?;
    if modality == Modality::Planned {
        return None;
    }
    if profile.manufacturer == Manufacturer::Volkswagen && *vw_outlier_pending && rng.gen_bool(0.02)
    {
        *vw_outlier_pending = false;
        return Some(14_400.0); // the ~4 h entry the paper flags
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let base = params.scale * (-(1.0 - u).ln()).powf(1.0 / params.shape);
    let drifted = base * (1.0 + 0.5 * miles_frac);
    Some((drifted * 100.0).round() / 100.0)
}

fn sample_exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_reports::ReportYear;

    fn small_corpus() -> Corpus {
        CorpusGenerator::new(CorpusConfig {
            seed: 42,
            scale: 0.05,
        })
        .generate()
    }

    #[test]
    fn full_scale_counts_match_paper() {
        let corpus = CorpusGenerator::new(CorpusConfig::default()).generate();
        assert_eq!(corpus.truth.disengagements().len(), 5328);
        assert_eq!(corpus.truth.accidents().len(), 42);
        let miles = corpus.truth.total_miles();
        assert!(
            (miles - 1_116_605.0).abs() / 1_116_605.0 < 0.01,
            "miles = {miles}"
        );
        assert_eq!(corpus.intended_tags.len(), 5328);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a.truth.disengagements().len(), b.truth.disengagements().len());
        assert_eq!(a.truth.disengagements()[0], b.truth.disengagements()[0]);
        assert_eq!(a.intended_tags, b.intended_tags);
        assert_eq!(a.documents.len(), b.documents.len());
        assert_eq!(a.documents[0].text, b.documents[0].text);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CorpusGenerator::new(CorpusConfig { seed: 1, scale: 0.05 }).generate();
        let b = CorpusGenerator::new(CorpusConfig { seed: 2, scale: 0.05 }).generate();
        assert_ne!(
            a.truth.disengagements()[0],
            b.truth.disengagements()[0]
        );
    }

    #[test]
    fn planned_filers_have_planned_modality_and_no_reactions() {
        let corpus = small_corpus();
        for r in corpus.truth.disengagements() {
            if matches!(
                r.manufacturer,
                Manufacturer::Bosch | Manufacturer::GmCruise
            ) {
                assert_eq!(r.modality, Modality::Planned);
                assert!(r.reaction_time_s.is_none());
            }
        }
    }

    #[test]
    fn volkswagen_automatic_only() {
        let corpus = small_corpus();
        for r in corpus.truth.disengagements() {
            if r.manufacturer == Manufacturer::Volkswagen {
                assert_eq!(r.modality, Modality::Automatic);
            }
        }
    }

    #[test]
    fn records_validate() {
        let corpus = small_corpus();
        for r in corpus.truth.disengagements() {
            r.validate().expect("generated record must validate");
        }
        for a in corpus.truth.accidents() {
            a.validate().expect("generated accident must validate");
        }
        for m in corpus.truth.mileage() {
            m.validate().expect("generated mileage must validate");
        }
    }

    #[test]
    fn dates_inside_release_windows() {
        let corpus = small_corpus();
        for r in corpus.truth.disengagements() {
            let d = r.date;
            assert!(
                d >= Date::new(2014, 9, 1).unwrap() && d <= Date::new(2016, 11, 28).unwrap(),
                "date {d} outside dataset window"
            );
            assert_eq!(r.report_year(), ReportYear::containing(&d));
        }
    }

    #[test]
    fn accident_speeds_low_and_positive() {
        let corpus = CorpusGenerator::new(CorpusConfig::default()).generate();
        let speeds: Vec<f64> = corpus
            .truth
            .accidents()
            .iter()
            .filter_map(|a| a.av_speed_mph)
            .collect();
        assert_eq!(speeds.len(), 42);
        assert!(speeds.iter().all(|&s| (0.0..=30.0).contains(&s)));
        // Most accidents are slow (Fig. 12a: bulk below 10 mph).
        let slow = speeds.iter().filter(|&&s| s < 10.0).count();
        assert!(slow as f64 / speeds.len() as f64 > 0.5);
    }

    #[test]
    fn reaction_times_present_for_reporting_manufacturers() {
        let corpus = CorpusGenerator::new(CorpusConfig::default()).generate();
        let waymo = corpus.truth.reaction_times(Manufacturer::Waymo);
        assert!(!waymo.is_empty());
        let mean = waymo.iter().sum::<f64>() / waymo.len() as f64;
        assert!((0.5..=1.5).contains(&mean), "waymo mean rt = {mean}");
        assert!(corpus
            .truth
            .reaction_times(Manufacturer::Bosch)
            .is_empty());
    }

    #[test]
    fn vw_outlier_planted_at_full_scale() {
        let corpus = CorpusGenerator::new(CorpusConfig::default()).generate();
        let vw = corpus.truth.reaction_times(Manufacturer::Volkswagen);
        assert!(
            vw.iter().any(|&t| t > 10_000.0),
            "expected the ~4 h outlier in {} VW reaction times",
            vw.len()
        );
    }

    #[test]
    fn tesla_mostly_unknown_tags() {
        let corpus = CorpusGenerator::new(CorpusConfig::default()).generate();
        let tesla: Vec<&FaultTag> = corpus
            .truth
            .disengagements()
            .iter()
            .zip(&corpus.intended_tags)
            .filter(|(r, _)| r.manufacturer == Manufacturer::Tesla)
            .map(|(_, t)| t)
            .collect();
        assert!(!tesla.is_empty());
        let unknown = tesla.iter().filter(|&&&t| t == FaultTag::UnknownT).count();
        assert!(
            unknown as f64 / tesla.len() as f64 > 0.9,
            "tesla unknown share = {}/{}",
            unknown,
            tesla.len()
        );
    }

    #[test]
    fn documents_cover_disengagements_and_accidents() {
        let corpus = small_corpus();
        use disengage_reports::formats::DocumentKind;
        let dis_docs = corpus
            .documents
            .iter()
            .filter(|d| d.kind == DocumentKind::Disengagements)
            .count();
        let acc_docs = corpus
            .documents
            .iter()
            .filter(|d| d.kind == DocumentKind::Accident)
            .count();
        assert!(dis_docs >= 8, "dis docs = {dis_docs}");
        assert_eq!(acc_docs, corpus.truth.accidents().len());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        CorpusGenerator::new(CorpusConfig { seed: 1, scale: 0.0 }).generate();
    }

    #[test]
    fn shard_enumeration_covers_every_table_cell() {
        let gen = CorpusGenerator::new(CorpusConfig {
            seed: 42,
            scale: 0.05,
        });
        let shards = gen.shards();
        // 12 manufacturers, 18 (manufacturer, filing-year) cells.
        assert_eq!(shards.len(), 18);
        let labels: Vec<String> = shards.iter().map(|s| s.label()).collect();
        assert!(labels.contains(&"waymo_2015".to_owned()));
        assert!(labels.contains(&"waymo_2016".to_owned()));
        assert!(labels.contains(&"volkswagen_2015".to_owned()));
        // Document offsets tile the corpus exactly.
        let corpus = gen.generate();
        let total: usize = shards.iter().map(|s| s.doc_count).sum();
        assert_eq!(total, corpus.documents.len());
        for w in shards.windows(2) {
            assert_eq!(w[0].doc_base + w[0].doc_count, w[1].doc_base);
        }
    }

    #[test]
    fn each_shard_is_byte_identical_to_its_slice_of_the_full_corpus() {
        let gen = CorpusGenerator::new(CorpusConfig {
            seed: 42,
            scale: 0.05,
        });
        let full = gen.generate();
        for spec in gen.shards() {
            let shard = gen.generate_shard(&spec);
            let slice = &full.documents[spec.doc_base..spec.doc_base + spec.doc_count];
            assert_eq!(shard.documents.len(), slice.len(), "{}", spec.label());
            for (a, b) in shard.documents.iter().zip(slice) {
                assert_eq!(a.text, b.text, "{}", spec.label());
                assert_eq!(a.kind, b.kind);
            }
        }
    }

    #[test]
    fn shard_seeds_are_stable_under_profile_removal() {
        // Dropping a profile must not move any surviving shard's seed —
        // seeds derive from content identity, never enumeration order.
        let config = CorpusConfig {
            seed: 42,
            scale: 0.05,
        };
        let all = CorpusGenerator::new(config);
        let mut fewer_profiles = standard_profiles();
        fewer_profiles.remove(0); // drop Mercedes-Benz
        let fewer = CorpusGenerator::with_profiles(config, fewer_profiles);
        for spec in fewer.shards() {
            let original = all
                .shards()
                .into_iter()
                .find(|s| s.manufacturer == spec.manufacturer && s.year == spec.year)
                .expect("surviving shard exists in the full enumeration");
            assert_eq!(spec.seed, original.seed, "{}", spec.label());
            let a = fewer.generate_shard(&spec);
            let b = all.generate_shard(&original);
            assert_eq!(a.truth.disengagements(), b.truth.disengagements());
            assert_eq!(a.documents.len(), b.documents.len());
        }
    }

    #[test]
    fn vw_outlier_planted_in_isolated_shard_at_any_seed() {
        for seed in [1u64, 2, 3, 0x5EED] {
            let gen = CorpusGenerator::new(CorpusConfig { seed, scale: 0.05 });
            let spec = gen
                .shards()
                .into_iter()
                .find(|s| s.manufacturer == Manufacturer::Volkswagen)
                .unwrap();
            let shard = gen.generate_shard(&spec);
            assert!(
                shard
                    .truth
                    .disengagements()
                    .iter()
                    .any(|r| r.reaction_time_s.is_some_and(|t| t > 10_000.0)),
                "seed {seed}: VW shard must carry the ~4 h outlier"
            );
        }
    }
}
