//! Stage IV test inputs: degenerate numeric series.
//!
//! The statistics substrate sits at the end of the pipeline, where a
//! quarantine lane can no longer help — a `stats` panic kills the whole
//! run. These generators enumerate the pathological shapes (empty,
//! constant, NaN-laced, infinite, negative) that every fitter and test
//! must reject with a typed `StatsError`, never a panic. The
//! `chaos_props` suite feeds them to `fit`, `ks`, and `dist` under
//! `catch_unwind`; no binary generates them, so they live here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pathological sample shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegenerateKind {
    /// No observations at all.
    Empty,
    /// A single observation (below most fitters' minimum n).
    Single,
    /// All observations identical (zero variance).
    Constant,
    /// A plausible sample with NaNs spliced in.
    NanLaced,
    /// A plausible sample with infinities spliced in.
    InfLaced,
    /// Strictly negative values (outside positive-support fits).
    Negative,
    /// All zeros (boundary of positive support).
    Zeros,
}

impl DegenerateKind {
    /// Every degenerate shape.
    pub const ALL: [DegenerateKind; 7] = [
        DegenerateKind::Empty,
        DegenerateKind::Single,
        DegenerateKind::Constant,
        DegenerateKind::NanLaced,
        DegenerateKind::InfLaced,
        DegenerateKind::Negative,
        DegenerateKind::Zeros,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            DegenerateKind::Empty => "empty",
            DegenerateKind::Single => "single",
            DegenerateKind::Constant => "constant",
            DegenerateKind::NanLaced => "nan_laced",
            DegenerateKind::InfLaced => "inf_laced",
            DegenerateKind::Negative => "negative",
            DegenerateKind::Zeros => "zeros",
        }
    }

    /// Generates one series of this shape (seeded; `n` is the nominal
    /// length, ignored where the shape dictates it).
    pub fn series(self, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE6E);
        let base = |rng: &mut StdRng| -> Vec<f64> {
            (0..n.max(4)).map(|_| rng.gen_range(0.1..10.0)).collect()
        };
        match self {
            DegenerateKind::Empty => Vec::new(),
            DegenerateKind::Single => vec![rng.gen_range(0.1..10.0)],
            DegenerateKind::Constant => vec![rng.gen_range(0.1..10.0); n.max(4)],
            DegenerateKind::NanLaced => {
                let mut xs = base(&mut rng);
                let at = rng.gen_range(0..xs.len());
                xs[at] = f64::NAN;
                xs
            }
            DegenerateKind::InfLaced => {
                let mut xs = base(&mut rng);
                let at = rng.gen_range(0..xs.len());
                xs[at] = f64::INFINITY;
                xs
            }
            DegenerateKind::Negative => base(&mut rng).into_iter().map(|x| -x).collect(),
            DegenerateKind::Zeros => vec![0.0; n.max(4)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_what_they_claim() {
        assert!(DegenerateKind::Empty.series(1, 8).is_empty());
        assert_eq!(DegenerateKind::Single.series(1, 8).len(), 1);
        let c = DegenerateKind::Constant.series(1, 8);
        assert!(c.windows(2).all(|w| w[0] == w[1]) && c.len() == 8);
        assert!(DegenerateKind::NanLaced
            .series(1, 8)
            .iter()
            .any(|x| x.is_nan()));
        assert!(DegenerateKind::InfLaced
            .series(1, 8)
            .iter()
            .any(|x| x.is_infinite()));
        assert!(DegenerateKind::Negative
            .series(1, 8)
            .iter()
            .all(|&x| x < 0.0));
        assert!(DegenerateKind::Zeros.series(1, 8).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        for kind in DegenerateKind::ALL {
            let a: Vec<u64> = kind.series(9, 16).iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = kind.series(9, 16).iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn names_unique() {
        let names: std::collections::BTreeSet<&str> =
            DegenerateKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), DegenerateKind::ALL.len());
    }
}
