//! Equal-width histograms.
//!
//! The PDF panels of Figs. 11 and 12 are histograms with fitted curves
//! overlaid; this module bins those samples.

use crate::{Result, StatsError};

/// A binned histogram over a continuous sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<usize>,
    n: usize,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins spanning
    /// `[min, max]` of the data.
    ///
    /// Values exactly equal to the upper edge land in the last bin.
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] for an empty sample.
    /// * [`StatsError::InvalidParameter`] for `bins == 0`.
    /// * [`StatsError::NonFinite`] for NaN/infinite data.
    ///
    /// # Examples
    ///
    /// ```
    /// # use disengage_stats::histogram::Histogram;
    /// let h = Histogram::from_data(&[0.0, 1.0, 2.0, 3.0, 4.0], 2).unwrap();
    /// assert_eq!(h.edges(), &[0.0, 2.0, 4.0]);
    /// ```
    pub fn from_data(xs: &[f64], bins: usize) -> Result<Histogram> {
        crate::error::ensure_nonempty_finite(xs)?;
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi == lo { lo + 1.0 } else { hi };
        Histogram::with_range(xs, bins, lo, hi)
    }

    /// Builds a histogram over an explicit `[lo, hi]` range; out-of-range
    /// values are clamped into the extreme bins.
    ///
    /// # Errors
    ///
    /// Same as [`Histogram::from_data`], plus
    /// [`StatsError::InvalidParameter`] when `lo >= hi`.
    pub fn with_range(xs: &[f64], bins: usize, lo: f64, hi: f64) -> Result<Histogram> {
        crate::error::ensure_nonempty_finite(xs)?;
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        if lo >= hi {
            return Err(StatsError::InvalidParameter {
                name: "lo/hi",
                value: lo,
            });
        }
        let width = (hi - lo) / bins as f64;
        let edges: Vec<f64> = (0..=bins).map(|i| lo + i as f64 * width).collect();
        let mut counts = vec![0usize; bins];
        for &x in xs {
            let idx = (((x - lo) / width) as isize).clamp(0, bins as isize - 1) as usize;
            counts[idx] += 1;
        }
        Ok(Histogram {
            edges,
            counts,
            n: xs.len(),
        })
    }

    /// Bin edges (`bins + 1` values).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }
}

/// Suggests a bin count via the Freedman–Diaconis rule, falling back to
/// Sturges' rule for zero-IQR samples.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty sample.
pub fn suggest_bins(xs: &[f64]) -> Result<usize> {
    crate::error::ensure_nonempty_finite(xs)?;
    let n = xs.len() as f64;
    let iqr = crate::quantile::iqr(xs)?;
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = hi - lo;
    if iqr > 0.0 && range > 0.0 {
        let width = 2.0 * iqr / n.cbrt();
        Ok(((range / width).ceil() as usize).clamp(1, 10_000))
    } else {
        // Sturges.
        Ok((n.log2().ceil() as usize + 1).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_n() {
        let xs: Vec<f64> = (0..97).map(|i| (i % 13) as f64).collect();
        let h = Histogram::from_data(&xs, 7).unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), 97);
        assert_eq!(h.n, 97);
    }

    #[test]
    fn upper_edge_included() {
        let h = Histogram::from_data(&[0.0, 10.0], 5).unwrap();
        assert_eq!(h.counts[4], 1); // the 10.0 lands in the last bin
        assert_eq!(h.counts[0], 1);
    }

    #[test]
    fn constant_sample_is_handled() {
        let h = Histogram::from_data(&[5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn with_range_clamps() {
        let h = Histogram::with_range(&[-5.0, 0.5, 20.0], 2, 0.0, 1.0).unwrap();
        assert_eq!(h.counts, &[1, 2]); // -5 clamps low; 0.5 and 20 land high
    }

    #[test]
    fn invalid_args_rejected() {
        assert!(Histogram::from_data(&[], 3).is_err());
        assert!(Histogram::from_data(&[1.0], 0).is_err());
        assert!(Histogram::with_range(&[1.0], 2, 1.0, 1.0).is_err());
    }

    #[test]
    fn suggest_bins_reasonable() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let b = suggest_bins(&xs).unwrap();
        assert!((5..=100).contains(&b), "b = {b}");
        // Constant data falls back to Sturges.
        let b2 = suggest_bins(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(b2 >= 1);
    }
}
