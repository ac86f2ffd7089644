//! Scanner-noise model.
//!
//! Real DMV filings are scans of printed (sometimes handwritten) pages;
//! the paper notes Tesseract failed outright on low-resolution scans.
//! This model reproduces the dominant degradations of binarized scans:
//! salt (background speckle), ink erosion (dropped dots) and toner
//! smear, each with an independent per-pixel probability. The
//! strip-streamed digitizer ([`crate::stream`]) applies it; the
//! whole-page noise pass it reproduces is the scalar reference in the
//! crate's test support.

/// Per-pixel degradation probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability that a background pixel turns to ink (speckle).
    pub salt: f64,
    /// Probability that an ink pixel drops out (erosion).
    pub erosion: f64,
    /// Probability that an ink pixel bleeds into its right neighbor
    /// (toner smear — merges adjacent strokes, the failure mode that
    /// turns `rn` into `m`).
    pub smear: f64,
}

impl NoiseModel {
    /// A clean scan: no degradation.
    pub fn clean() -> NoiseModel {
        NoiseModel {
            salt: 0.0,
            erosion: 0.0,
            smear: 0.0,
        }
    }

    /// A light office-scanner profile (~0.2% speckle, 1% erosion).
    pub fn light() -> NoiseModel {
        NoiseModel {
            salt: 0.002,
            erosion: 0.01,
            smear: 0.002,
        }
    }

    /// A poor low-resolution scan (~1% speckle, 6% erosion) — the regime
    /// where recognition starts failing and lines fall back to manual
    /// review.
    pub fn heavy() -> NoiseModel {
        NoiseModel {
            salt: 0.01,
            erosion: 0.06,
            smear: 0.01,
        }
    }

    /// Creates a model with explicit probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(salt: f64, erosion: f64) -> NoiseModel {
        NoiseModel::with_smear(salt, erosion, 0.0)
    }

    /// Creates a model with an explicit smear probability as well.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn with_smear(salt: f64, erosion: f64, smear: f64) -> NoiseModel {
        assert!(
            (0.0..=1.0).contains(&salt)
                && (0.0..=1.0).contains(&erosion)
                && (0.0..=1.0).contains(&smear),
            "noise probabilities must be in [0, 1]"
        );
        NoiseModel {
            salt,
            erosion,
            smear,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "noise probabilities must be in")]
    fn invalid_probability_panics() {
        NoiseModel::new(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "noise probabilities must be in")]
    fn invalid_smear_panics() {
        NoiseModel::with_smear(0.0, 0.0, 2.0);
    }
}
