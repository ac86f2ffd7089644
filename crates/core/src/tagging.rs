//! Stage III application: tagging normalized records and aggregating the
//! results.

use disengage_nlp::{Classifier, FailureCategory, FaultTag, TagAssignment};
use disengage_obs::Histogram;
use disengage_reports::{DisengagementRecord, Manufacturer};
use std::collections::{BTreeMap, HashMap};

/// A disengagement record together with its Stage III verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedDisengagement {
    /// The normalized record.
    pub record: DisengagementRecord,
    /// The classifier's verdict on its description.
    pub assignment: TagAssignment,
}

/// Tags every record across a `jobs`-wide worker pool (0 = all
/// available cores), recording Stage III telemetry into `obs`: per-tag
/// verdict counter (`nlp.tag.<tag>`), Unknown-T and ambiguous-tie
/// counts, vote-margin and dictionary-hit samples, and the overall
/// Unknown-T rate gauge. Returns one verdict per record, in order.
///
/// Descriptions repeat (a full-scale corpus holds ~2.5 records per
/// distinct description), so each record is mapped to the first record
/// with its description, only those first occurrences are classified,
/// and their verdicts (and ballots) are copied back out in record
/// order. A verdict depends on nothing but the description and the
/// classifier, so the copy is the verdict the record's own call would
/// have returned.
///
/// The counts and samples are tallied locally, the samples in record
/// order, and recorded in one batch
/// ([`disengage_obs::Collector::record_batch`]). `obs` must hold no
/// `nlp.vote_margin` or `nlp.dictionary_hits` samples yet — the
/// session passes the stage's fresh collector shard — so the batch
/// carries the same bits as recording each sample here.
///
/// Lineage and execution tracing ride along: when `obs` records
/// lineage, each record's full ballot is logged against `ids[i]`
/// (records past the end of `ids` trace nothing) — one `DictVote`
/// event per scoring tag followed by the `Tagged` verdict — and every
/// pool task lands on `timeline` under the `stage_iii_tag` label. The
/// pool runs only the pure classification; telemetry and lineage are
/// then recorded on the calling thread in record order, so verdicts,
/// telemetry and lineage are byte-identical at any worker count.
pub fn tag_records(
    classifier: &Classifier,
    records: &[DisengagementRecord],
    ids: &[disengage_obs::RecordId],
    jobs: usize,
    obs: &disengage_obs::Collector,
    timeline: &disengage_par::TaskTimeline,
) -> Vec<TagAssignment> {
    let lineage = obs.lineage_enabled();
    let mut first: HashMap<&str, usize> = HashMap::with_capacity(records.len());
    let mut distinct: Vec<&str> = Vec::new();
    let slots: Vec<usize> = records
        .iter()
        .map(|r| {
            *first.entry(&r.description).or_insert_with(|| {
                distinct.push(&r.description);
                distinct.len() - 1
            })
        })
        .collect();
    let verdicts = disengage_par::par_map_indexed(
        jobs,
        &distinct,
        |_, description| {
            if lineage {
                classifier.classify_detailed(description)
            } else {
                (classifier.classify(description), Vec::new())
            }
        },
        timeline,
        "stage_iii_tag",
    );
    let tag_counters: Vec<String> = FaultTag::ALL
        .iter()
        .map(|t| format!("nlp.tag.{}", disengage_obs::key_segment(t.name())))
        .collect();
    let mut assignments = Vec::with_capacity(records.len());
    let mut per_tag = [0u64; FaultTag::ALL.len()];
    let (mut unknown, mut ambiguous) = (0u64, 0u64);
    let (mut margins, mut hits) = (Histogram::new(), Histogram::new());
    for (i, &slot) in slots.iter().enumerate() {
        let (assignment, votes) = &verdicts[slot];
        if let Some(id) = ids.get(i).filter(|_| lineage) {
            let subject = disengage_obs::Subject::Record(id.clone());
            for v in votes {
                obs.lineage(
                    subject.clone(),
                    disengage_obs::ProvenanceEvent::DictVote {
                        tag: v.tag.name().to_owned(),
                        category: v.tag.category().name().to_owned(),
                        score: v.score,
                        keywords: v.matched_keywords.clone(),
                    },
                );
            }
            obs.lineage(
                subject,
                disengage_obs::ProvenanceEvent::Tagged {
                    tag: assignment.tag.name().to_owned(),
                    category: assignment.category.name().to_owned(),
                    score: assignment.score,
                    margin: assignment.margin,
                    ambiguous: assignment.ambiguous,
                },
            );
        }
        let tag = FaultTag::ALL
            .iter()
            .position(|&t| t == assignment.tag)
            .expect("FaultTag::ALL lists every tag");
        per_tag[tag] += 1;
        if assignment.tag == FaultTag::UnknownT {
            unknown += 1;
        }
        if assignment.ambiguous {
            ambiguous += 1;
        }
        margins.record(assignment.margin);
        hits.record(assignment.matched_keywords.len() as f64);
        assignments.push(assignment.clone());
    }
    obs.record_batch(
        [
            ("nlp.tagged", assignments.len() as u64),
            ("nlp.unknown_t", unknown),
            ("nlp.ambiguous", ambiguous),
        ]
        .into_iter()
        .chain(tag_counters.iter().map(String::as_str).zip(per_tag)),
        [("nlp.vote_margin", margins), ("nlp.dictionary_hits", hits)],
    );
    if !assignments.is_empty() {
        obs.gauge(
            "nlp.unknown_t_rate",
            unknown as f64 / assignments.len() as f64,
        );
    }
    assignments
}

/// Per-manufacturer tag counts (Fig. 6's ingredients).
pub fn tag_counts_by_manufacturer(
    tagged: &[TaggedDisengagement],
) -> BTreeMap<Manufacturer, BTreeMap<FaultTag, usize>> {
    let mut out: BTreeMap<Manufacturer, BTreeMap<FaultTag, usize>> = BTreeMap::new();
    for t in tagged {
        *out.entry(t.record.manufacturer)
            .or_default()
            .entry(t.assignment.tag)
            .or_insert(0) += 1;
    }
    out
}

/// Per-manufacturer category fractions (Table IV's ingredients): for each
/// manufacturer, the fraction of disengagements in each root category,
/// with ML/Design split into perception vs planner/controller.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CategoryShares {
    /// Perception/recognition-side ML share.
    pub perception: f64,
    /// Planner/controller-side ML share.
    pub planner: f64,
    /// Computing-system share.
    pub system: f64,
    /// Unknown share.
    pub unknown: f64,
    /// Number of records behind the shares.
    pub n: usize,
}

impl CategoryShares {
    /// Total ML/Design share (the paper's headline 64%).
    pub fn ml_total(&self) -> f64 {
        self.perception + self.planner
    }
}

/// Computes category shares over tagged records.
pub fn category_shares<'a>(
    tagged: impl IntoIterator<Item = &'a TaggedDisengagement>,
) -> CategoryShares {
    let mut shares = CategoryShares::default();
    for t in tagged {
        shares.n += 1;
        match t.assignment.category {
            FailureCategory::MlDesign => match t.assignment.tag.ml_subsystem() {
                Some(disengage_nlp::ontology::MlSubsystem::Perception) => shares.perception += 1.0,
                _ => shares.planner += 1.0,
            },
            FailureCategory::System => shares.system += 1.0,
            FailureCategory::UnknownC => shares.unknown += 1.0,
        }
    }
    if shares.n == 0 {
        return shares;
    }
    let n = shares.n as f64;
    shares.perception /= n;
    shares.planner /= n;
    shares.system /= n;
    shares.unknown /= n;
    shares
}

/// Category shares per manufacturer.
pub fn category_shares_by_manufacturer(
    tagged: &[TaggedDisengagement],
) -> BTreeMap<Manufacturer, CategoryShares> {
    let mut grouped: BTreeMap<Manufacturer, Vec<&TaggedDisengagement>> = BTreeMap::new();
    for t in tagged {
        grouped.entry(t.record.manufacturer).or_default().push(t);
    }
    grouped
        .into_iter()
        .map(|(m, v)| (m, category_shares(v)))
        .collect()
}

/// Classifier accuracy against the generator's intended tags (available
/// only for synthetic corpora, where ground truth exists).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggingAccuracy {
    /// Fraction of records whose recovered tag equals the intended tag.
    pub tag_accuracy: f64,
    /// Fraction whose recovered root category equals the intended one.
    pub category_accuracy: f64,
    /// Records evaluated.
    pub n: usize,
}

/// Evaluates tagging accuracy given aligned intended tags.
///
/// Extra or missing entries are ignored beyond the common prefix length;
/// callers should align inputs (the pipeline keeps them aligned).
pub fn tagging_accuracy(tagged: &[TaggedDisengagement], intended: &[FaultTag]) -> TaggingAccuracy {
    let n = tagged.len().min(intended.len());
    if n == 0 {
        return TaggingAccuracy {
            tag_accuracy: 0.0,
            category_accuracy: 0.0,
            n: 0,
        };
    }
    let mut tag_hits = 0usize;
    let mut cat_hits = 0usize;
    for (t, &want) in tagged.iter().zip(intended).take(n) {
        if t.assignment.tag == want {
            tag_hits += 1;
        }
        if t.assignment.category == want.category() {
            cat_hits += 1;
        }
    }
    TaggingAccuracy {
        tag_accuracy: tag_hits as f64 / n as f64,
        category_accuracy: cat_hits as f64 / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_reports::record::CarId;
    use disengage_reports::{Date, Modality};

    fn record(m: Manufacturer, desc: &str) -> DisengagementRecord {
        DisengagementRecord {
            manufacturer: m,
            car: CarId::Known(0),
            date: Date::new(2016, 3, 5).unwrap(),
            modality: Modality::Manual,
            road_type: None,
            weather: None,
            reaction_time_s: None,
            description: desc.to_owned(),
        }
    }

    fn tagged_fixture() -> Vec<TaggedDisengagement> {
        let cl = Classifier::with_default_dictionary();
        [
            record(Manufacturer::Waymo, "perception missed the pedestrian"),
            record(Manufacturer::Waymo, "watchdog error"),
            record(
                Manufacturer::Nissan,
                "planner failed to anticipate the cyclist",
            ),
            record(Manufacturer::Tesla, "event logged during routine operation"),
        ]
        .into_iter()
        .map(|record| TaggedDisengagement {
            assignment: cl.classify(&record.description),
            record,
        })
        .collect()
    }

    #[test]
    fn tagging_applies_classifier() {
        let t = tagged_fixture();
        assert_eq!(t[0].assignment.tag, FaultTag::RecognitionSystem);
        assert_eq!(t[1].assignment.tag, FaultTag::HangCrash);
        assert_eq!(t[2].assignment.tag, FaultTag::Planner);
        assert_eq!(t[3].assignment.tag, FaultTag::UnknownT);
    }

    #[test]
    fn counts_grouped_by_manufacturer() {
        let counts = tag_counts_by_manufacturer(&tagged_fixture());
        assert_eq!(counts[&Manufacturer::Waymo][&FaultTag::HangCrash], 1);
        assert_eq!(counts[&Manufacturer::Nissan][&FaultTag::Planner], 1);
        assert!(!counts.contains_key(&Manufacturer::Bosch));
    }

    #[test]
    fn shares_sum_to_one() {
        let s = category_shares(&tagged_fixture());
        assert_eq!(s.n, 4);
        let total = s.perception + s.planner + s.system + s.unknown;
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.perception - 0.25).abs() < 1e-12);
        assert!((s.ml_total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_shares() {
        let s = category_shares(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.ml_total(), 0.0);
    }

    #[test]
    fn per_manufacturer_shares() {
        let by_m = category_shares_by_manufacturer(&tagged_fixture());
        assert!((by_m[&Manufacturer::Tesla].unknown - 1.0).abs() < 1e-12);
        assert!((by_m[&Manufacturer::Waymo].system - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_against_ground_truth() {
        let t = tagged_fixture();
        let intended = vec![
            FaultTag::RecognitionSystem,
            FaultTag::HangCrash,
            FaultTag::Planner,
            FaultTag::UnknownT,
        ];
        let a = tagging_accuracy(&t, &intended);
        assert_eq!(a.n, 4);
        assert_eq!(a.tag_accuracy, 1.0);
        assert_eq!(a.category_accuracy, 1.0);
        // A wrong intent lowers accuracy.
        let wrong = vec![FaultTag::Software; 4];
        let a = tagging_accuracy(&t, &wrong);
        assert_eq!(a.tag_accuracy, 0.0);
    }

    #[test]
    fn accuracy_empty() {
        let a = tagging_accuracy(&[], &[]);
        assert_eq!(a.n, 0);
    }
}
