//! Post-run fault accounting: every injected fault gets exactly one
//! outcome, so the ledger reconciles arithmetically.
//!
//! The audit re-parses each faulted document and its pristine twin with
//! the same Stage II normalizer the pipeline uses, then classifies the
//! document's faults:
//!
//! * new parse/validation failures (relative to the clean parse) claim
//!   faults as **quarantined** — the fault was detected and routed to
//!   the manual-review queue;
//! * record-level differences not explained by quarantined lines claim
//!   faults as **absorbed** — the run completed but the output silently
//!   changed (the dangerous bucket);
//! * the remainder are **corrected** — the pipeline neutralized the
//!   fault (e.g. a reorder that parses to the same record set, or noise
//!   the dictionary correction repaired).
//!
//! Within one document, outcomes attach to individual faults in line
//! order (quarantined first, then absorbed), so per-kind attribution is
//! approximate when a document carries several faults of different
//! kinds — but the totals identity
//! `injected == corrected + quarantined + absorbed` is exact by
//! construction, which is what `telemetry::reconcile` enforces.

use crate::inject::{FaultLog, InjectedFault};
use crate::plan::{FaultKind, FaultPlan};
use disengage_reports::formats::RawDocument;
use disengage_reports::normalize::normalize_document;
use std::collections::BTreeMap;

/// Outcome counts for one fault kind (or the grand total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindOutcomes {
    /// Faults injected.
    pub injected: u64,
    /// Neutralized: output indistinguishable from the clean parse.
    pub corrected: u64,
    /// Detected: surfaced as a failure in the manual-review queue.
    pub quarantined: u64,
    /// Silent: the run completed with different output.
    pub absorbed: u64,
}

/// The audited fate of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFate {
    /// Neutralized: output indistinguishable from the clean parse.
    Corrected,
    /// Detected: surfaced as a failure in the manual-review queue.
    Quarantined,
    /// Silent: the run completed with different output.
    Absorbed,
}

impl FaultFate {
    /// Stable snake_case name (the provenance/export rendering).
    pub fn name(self) -> &'static str {
        match self {
            FaultFate::Corrected => "corrected",
            FaultFate::Quarantined => "quarantined",
            FaultFate::Absorbed => "absorbed",
        }
    }
}

/// One injected fault together with its audited outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditedFault {
    /// The fault as injected (kind, document, 1-based line).
    pub fault: InjectedFault,
    /// What became of it.
    pub outcome: FaultFate,
}

impl KindOutcomes {
    /// Whether the outcome partition accounts for every injection.
    pub fn reconciles(&self) -> bool {
        self.injected == self.corrected + self.quarantined + self.absorbed
    }

    /// Adds another outcome partition into this one (shard folding).
    pub fn add(&mut self, other: KindOutcomes) {
        self.injected += other.injected;
        self.corrected += other.corrected;
        self.quarantined += other.quarantined;
        self.absorbed += other.absorbed;
    }
}

/// The audited result of one chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosAudit {
    /// Fault rate the plan ran at.
    pub rate: f64,
    /// Plan seed.
    pub seed: u64,
    /// Outcome totals across all kinds.
    pub totals: KindOutcomes,
    /// Outcomes per fault kind (stable snake_case keys).
    pub per_kind: BTreeMap<&'static str, KindOutcomes>,
    /// Every fault with its individual outcome, in injection order —
    /// the per-fault ledger behind the counts above (provenance
    /// consumes it; `to_json` stays aggregate-only).
    pub faults: Vec<AuditedFault>,
}

impl ChaosAudit {
    /// Folds another shard's audit into this one: totals and per-kind
    /// counts add, the fault ledger extends in call order. Since the
    /// counts are unsigned integer sums, the fold is exact and
    /// order-invariant (up to ledger ordering, which callers fix by
    /// absorbing shards in enumeration order). Rate and seed are taken
    /// from `other` when this audit is still default-empty, and must
    /// otherwise agree — all shards run under one corpus-wide plan.
    pub fn absorb(&mut self, other: &ChaosAudit) {
        if self.totals == KindOutcomes::default() && self.faults.is_empty() {
            self.rate = other.rate;
            self.seed = other.seed;
        }
        debug_assert!(
            (self.rate == other.rate && self.seed == other.seed)
                || other.totals == KindOutcomes::default(),
            "absorbing audits from different plans"
        );
        self.totals.add(other.totals);
        for (kind, o) in &other.per_kind {
            self.per_kind.entry(kind).or_default().add(*o);
        }
        self.faults.extend(other.faults.iter().copied());
    }

    /// Renders the audit as a JSON object (hand-rolled, like the `obs`
    /// exporters — the workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        fn outcomes(o: &KindOutcomes) -> String {
            format!(
                "{{\"injected\":{},\"corrected\":{},\"quarantined\":{},\"absorbed\":{},\"reconciles\":{}}}",
                o.injected, o.corrected, o.quarantined, o.absorbed, o.reconciles()
            )
        }
        let kinds: Vec<String> = self
            .per_kind
            .iter()
            .map(|(k, o)| format!("\"{k}\":{}", outcomes(o)))
            .collect();
        format!(
            "{{\"rate\":{},\"seed\":{},\"totals\":{},\"per_kind\":{{{}}}}}",
            self.rate,
            self.seed,
            outcomes(&self.totals),
            kinds.join(",")
        )
    }
}

/// A multiset of recovered records, keyed by kind-prefixed debug
/// rendering (records derive `Debug` and `PartialEq`; the rendering is
/// a faithful identity for multiset comparison).
fn record_multiset(doc: &RawDocument) -> (BTreeMap<String, i64>, usize) {
    let n = normalize_document(doc);
    let mut set: BTreeMap<String, i64> = BTreeMap::new();
    for r in &n.disengagements {
        *set.entry(format!("D{r:?}")).or_insert(0) += 1;
    }
    for r in &n.accidents {
        *set.entry(format!("A{r:?}")).or_insert(0) += 1;
    }
    for r in &n.mileage {
        *set.entry(format!("M{r:?}")).or_insert(0) += 1;
    }
    (set, n.failures.len())
}

/// Classifies every fault in `log` by comparing each faulted document
/// against its clean twin. `clean` and `faulted` must be the batch the
/// log was produced from (same order), starting at corpus index `base`:
/// the log's document indices are global, as
/// [`crate::inject::inject_documents`] records them. Per-shard audits
/// fold into the corpus-wide ledger via [`ChaosAudit::absorb`]; a whole
/// corpus is the batch at `base` 0.
pub fn audit(
    plan: &FaultPlan,
    log: &FaultLog,
    clean: &[RawDocument],
    faulted: &[RawDocument],
    base: usize,
) -> ChaosAudit {
    let mut out = ChaosAudit {
        rate: plan.rate,
        seed: plan.seed,
        ..ChaosAudit::default()
    };
    for kind in FaultKind::ALL {
        out.per_kind.insert(kind.name(), KindOutcomes::default());
    }
    for (d, faults) in log.by_document() {
        debug_assert!(d >= base && d - base < clean.len() && d - base < faulted.len());
        let (clean_set, clean_failures) = record_multiset(&clean[d - base]);
        let (chaos_set, chaos_failures) = record_multiset(&faulted[d - base]);

        let failure_delta = chaos_failures.saturating_sub(clean_failures) as u64;
        let mut missing = 0u64;
        let mut extra = 0u64;
        for (key, &c) in &clean_set {
            let f = chaos_set.get(key).copied().unwrap_or(0);
            missing += (c - f).max(0) as u64;
        }
        for (key, &f) in &chaos_set {
            let c = clean_set.get(key).copied().unwrap_or(0);
            extra += (f - c).max(0) as u64;
        }

        let k = faults.len() as u64;
        let quarantined = failure_delta.min(k);
        // Records lost to quarantined lines are explained; everything
        // else that changed is silent damage.
        let unexplained = extra + missing.saturating_sub(quarantined);
        let absorbed = (k - quarantined).min(unexplained);
        let corrected = k - quarantined - absorbed;

        // Attach outcomes to faults in line order: quarantined first,
        // then absorbed, then corrected.
        let (mut q, mut a) = (quarantined, absorbed);
        for f in faults {
            let slot = out
                .per_kind
                .get_mut(f.kind.name())
                .expect("all kinds pre-seeded");
            slot.injected += 1;
            let fate = if q > 0 {
                q -= 1;
                slot.quarantined += 1;
                FaultFate::Quarantined
            } else if a > 0 {
                a -= 1;
                slot.absorbed += 1;
                FaultFate::Absorbed
            } else {
                slot.corrected += 1;
                FaultFate::Corrected
            };
            out.faults.push(AuditedFault {
                fault: f,
                outcome: fate,
            });
        }
        out.totals.add(KindOutcomes {
            injected: k,
            corrected,
            quarantined,
            absorbed,
        });
    }
    debug_assert!(out.totals.reconciles());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::inject_documents;
    use disengage_reports::formats::disengagement::{NissanFormat, ReportFormat};
    use disengage_reports::formats::{DocumentKind, RawDocument};
    use disengage_reports::record::{CarId, DisengagementRecord};
    use disengage_reports::types::{Modality, RoadType, Weather};
    use disengage_reports::{Date, Manufacturer, ReportYear};

    fn sample_doc(lines: usize) -> RawDocument {
        let f = NissanFormat;
        let mut text = String::new();
        for i in 0..lines {
            let record = DisengagementRecord {
                manufacturer: Manufacturer::Nissan,
                car: CarId::Known(i as u32),
                date: Date::new(2016, 1, 4).unwrap(),
                modality: Modality::Manual,
                road_type: Some(RoadType::Street),
                weather: Some(Weather::Clear),
                reaction_time_s: Some(0.8),
                description: "software module froze, driver safely disengaged".to_owned(),
            };
            f.render(&record, &mut text);
            text.push('\n');
        }
        RawDocument::new(
            Manufacturer::Nissan,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            text,
        )
    }

    #[test]
    fn no_faults_audits_empty() {
        let docs = vec![sample_doc(3)];
        let plan = FaultPlan::new(0.0, 1);
        let (faulted, log) = inject_documents(&plan, &docs, 0);
        let a = audit(&plan, &log, &docs, &faulted, 0);
        assert_eq!(a.totals, KindOutcomes::default());
        assert!(a.totals.reconciles());
    }

    #[test]
    fn every_fault_gets_exactly_one_outcome() {
        for seed in 0..24u64 {
            let docs = vec![sample_doc(6), sample_doc(4), sample_doc(1)];
            let plan = FaultPlan::new(0.4, seed);
            let (faulted, log) = inject_documents(&plan, &docs, 0);
            let a = audit(&plan, &log, &docs, &faulted, 0);
            assert_eq!(a.totals.injected, log.total(), "seed {seed}");
            assert!(a.totals.reconciles(), "seed {seed}: {a:?}");
            let kind_sum: u64 = a.per_kind.values().map(|o| o.injected).sum();
            assert_eq!(kind_sum, a.totals.injected, "seed {seed}");
            for (k, o) in &a.per_kind {
                assert!(o.reconciles(), "seed {seed} kind {k}: {o:?}");
            }
            // The per-fault ledger partitions exactly like the totals.
            assert_eq!(a.faults.len() as u64, a.totals.injected, "seed {seed}");
            let count =
                |fate: FaultFate| a.faults.iter().filter(|f| f.outcome == fate).count() as u64;
            assert_eq!(count(FaultFate::Corrected), a.totals.corrected);
            assert_eq!(count(FaultFate::Quarantined), a.totals.quarantined);
            assert_eq!(count(FaultFate::Absorbed), a.totals.absorbed);
        }
    }

    #[test]
    fn dropped_row_is_absorbed_not_corrected() {
        // Construct a pure RowDrop by hand: clean doc has 3 lines,
        // faulted has 2, no parse failures either side.
        let clean = sample_doc(3);
        let faulted = RawDocument::new(
            clean.manufacturer,
            clean.report_year,
            clean.kind,
            clean.text.lines().take(2).collect::<Vec<_>>().join("\n") + "\n",
        );
        let log = FaultLog {
            faults: vec![crate::inject::InjectedFault {
                kind: FaultKind::RowDrop,
                doc: 0,
                line: 3,
            }],
        };
        let plan = FaultPlan::new(0.1, 0);
        let a = audit(&plan, &log, &[clean], &[faulted], 0);
        assert_eq!(a.totals.absorbed, 1);
        assert_eq!(a.totals.quarantined, 0);
        assert_eq!(a.totals.corrected, 0);
    }

    #[test]
    fn garbled_row_is_quarantined() {
        let clean = sample_doc(2);
        let mut lines: Vec<String> = clean.text.lines().map(str::to_owned).collect();
        lines[1] = "@@@@ total garbage @@@@".to_owned();
        let faulted = RawDocument::new(
            clean.manufacturer,
            clean.report_year,
            clean.kind,
            lines.join("\n") + "\n",
        );
        let log = FaultLog {
            faults: vec![crate::inject::InjectedFault {
                kind: FaultKind::CharNoise,
                doc: 0,
                line: 2,
            }],
        };
        let plan = FaultPlan::new(0.1, 0);
        let a = audit(&plan, &log, &[clean], &[faulted], 0);
        assert_eq!(a.totals.quarantined, 1);
        assert_eq!(a.totals.absorbed, 0);
    }

    #[test]
    fn benign_reorder_is_corrected() {
        let clean = sample_doc(3);
        let mut lines: Vec<String> = clean.text.lines().map(str::to_owned).collect();
        lines.swap(0, 1);
        let faulted = RawDocument::new(
            clean.manufacturer,
            clean.report_year,
            clean.kind,
            lines.join("\n") + "\n",
        );
        let log = FaultLog {
            faults: vec![crate::inject::InjectedFault {
                kind: FaultKind::RowSwap,
                doc: 0,
                line: 1,
            }],
        };
        let plan = FaultPlan::new(0.1, 0);
        let a = audit(&plan, &log, &[clean], &[faulted], 0);
        assert_eq!(a.totals.corrected, 1, "{a:?}");
    }

    #[test]
    fn sharded_audit_folds_to_the_monolithic_ledger() {
        use crate::inject::inject_documents;
        let docs = vec![sample_doc(6), sample_doc(4), sample_doc(3), sample_doc(5)];
        let plan = FaultPlan::new(0.5, 0x5EED);
        let (faulted, log) = inject_documents(&plan, &docs, 0);
        let whole = audit(&plan, &log, &docs, &faulted, 0);
        assert!(whole.totals.injected > 0, "plan too quiet for the test");

        // Re-run as two shards at their global bases and fold.
        let mut folded = ChaosAudit::default();
        for (lo, hi) in [(0usize, 2usize), (2, 4)] {
            let (shard_faulted, shard_log) = inject_documents(&plan, &docs[lo..hi], lo);
            let shard = audit(&plan, &shard_log, &docs[lo..hi], &shard_faulted, lo);
            folded.absorb(&shard);
        }
        assert_eq!(folded, whole);
        assert!(folded.totals.reconciles());
    }

    #[test]
    fn absorb_is_order_invariant_on_counts() {
        let docs = vec![sample_doc(5), sample_doc(2), sample_doc(4)];
        let plan = FaultPlan::new(0.7, 42);
        let parts: Vec<ChaosAudit> = (0..3)
            .map(|i| {
                let slice = &docs[i..=i];
                let (faulted, log) = crate::inject::inject_documents(&plan, slice, i);
                audit(&plan, &log, slice, &faulted, i)
            })
            .collect();
        let mut fwd = ChaosAudit::default();
        let mut rev = ChaosAudit::default();
        for p in &parts {
            fwd.absorb(p);
        }
        for p in parts.iter().rev() {
            rev.absorb(p);
        }
        assert_eq!(fwd.totals, rev.totals);
        assert_eq!(fwd.per_kind, rev.per_kind);
        // The ledger itself is the same multiset, ordered differently.
        assert_eq!(fwd.faults.len(), rev.faults.len());
    }

    #[test]
    fn json_shape() {
        let plan = FaultPlan::new(0.05, 7);
        let docs = vec![sample_doc(4)];
        let (faulted, log) = inject_documents(&plan, &docs, 0);
        let a = audit(&plan, &log, &docs, &faulted, 0);
        let json = a.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"totals\""));
        assert!(json.contains("\"row_drop\""));
        assert!(json.contains("\"reconciles\":true"));
    }
}
