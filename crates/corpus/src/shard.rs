//! Shard identity: the unit of incremental generation and caching.
//!
//! A shard is one (manufacturer, filing-year) cell of Table I — the
//! natural grain of the DMV releases themselves, where each
//! manufacturer files one disengagement report and its accident forms
//! per release window. Every shard carries a seed derived from the
//! corpus root seed and the shard's *stable identity* (an FNV-1a fold
//! of the manufacturer name and filing year — never its enumeration
//! position), so:
//!
//! * any shard is generatable in isolation, byte-identical to the same
//!   slice of a full-corpus run, and
//! * adding or removing a shard (a new filing year, a new manufacturer
//!   profile) never perturbs the seed — and therefore the content or
//!   cache fingerprint — of any other shard.
//!
//! Document indices are likewise stable: [`ShardSpec::doc_base`] is
//! computed from the full profile enumeration at the configured scale
//! (a pure function of profiles + scale, no RNG), so per-document seed
//! streams (OCR noise, chaos injection) and provenance subjects agree
//! between an isolated shard run and the full corpus.

use crate::profile::YearProfile;
use disengage_reports::{Manufacturer, ReportYear};

/// One generatable shard: a (manufacturer, filing-year) cell plus its
/// derived seed and its stable position in the document space.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The filing manufacturer.
    pub manufacturer: Manufacturer,
    /// The DMV release window.
    pub year: ReportYear,
    /// Per-shard RNG seed: `derive_seed(corpus_seed, stable_id)`.
    pub seed: u64,
    /// Enumeration position (absorb/merge order only — never feeds
    /// seeds or fingerprints).
    pub index: usize,
    /// Global corpus index of this shard's first document.
    pub doc_base: usize,
    /// Documents this shard renders: one disengagement filing (when the
    /// cell has cars and miles) plus one accident form per accident.
    pub doc_count: usize,
}

impl ShardSpec {
    /// The shard's human-readable label (`waymo_2016`,
    /// `mercedes_benz_2015`, …) — the spelling `--shards=` accepts.
    pub fn label(&self) -> String {
        shard_label(self.manufacturer, self.year)
    }
}

/// The canonical label for a (manufacturer, filing-year) cell.
pub fn shard_label(manufacturer: Manufacturer, year: ReportYear) -> String {
    format!(
        "{}_{}",
        disengage_obs::key_segment(manufacturer.name()),
        year.filing_year()
    )
}

/// Stable shard identity: FNV-1a over the manufacturer name and filing
/// year. Content-derived — independent of profile order, scale, and
/// every other shard — so it can seed per-shard RNG streams and salt
/// cache fingerprints without coupling shards to each other.
pub fn stable_shard_id(manufacturer: Manufacturer, year: ReportYear) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in manufacturer.name().bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for b in year.filing_year().to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Documents a scaled (manufacturer, year) cell renders, without
/// generating it: one disengagement filing when the cell has active
/// cars and positive miles (the generator's own emptiness rule), plus
/// one accident form per accident. A pure function of the profile and
/// scale — this is what keeps [`ShardSpec::doc_base`] invariant across
/// shard filters and isolated-shard runs.
pub(crate) fn doc_count_for(scaled: &YearProfile) -> usize {
    let dis_doc = usize::from(scaled.cars > 0 && scaled.miles > 0.0);
    dis_doc + scaled.accidents as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_id_depends_on_cell_only() {
        let a = stable_shard_id(Manufacturer::Waymo, ReportYear::R2015);
        let b = stable_shard_id(Manufacturer::Waymo, ReportYear::R2016);
        let c = stable_shard_id(Manufacturer::Bosch, ReportYear::R2015);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stable_shard_id(Manufacturer::Waymo, ReportYear::R2015));
    }

    #[test]
    fn labels_are_flat_lowercase() {
        assert_eq!(
            shard_label(Manufacturer::MercedesBenz, ReportYear::R2015),
            "mercedes_benz_2015"
        );
        assert_eq!(
            shard_label(Manufacturer::Waymo, ReportYear::R2016),
            "waymo_2016"
        );
    }
}
