//! Box-plot (five-number) summaries with notches and outlier detection.
//!
//! Figures 4, 7, and 10 of the paper are box plots of per-car
//! disengagements-per-mile and driver reaction times; this module computes
//! the statistics those plots display: quartiles, medians, notches
//! (`median ± 1.57 · IQR / √n`), Tukey whiskers, and fliers.

use crate::quantile::quantile_sorted;
use crate::Result;

/// Whisker length in multiples of the IQR (Tukey's; matplotlib's default).
const WHISKER_MULT: f64 = 1.5;

/// The statistics rendered by a single box in a box plot.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Number of observations.
    pub n: usize,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lower notch bound, `median − 1.57 · IQR / √n`.
    pub notch_lo: f64,
    /// Upper notch bound, `median + 1.57 · IQR / √n`.
    pub notch_hi: f64,
    /// Lower whisker: smallest observation `>= q1 − 1.5 · IQR`.
    pub whisker_lo: f64,
    /// Upper whisker: largest observation `<= q3 + 1.5 · IQR`.
    pub whisker_hi: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Observations outside the whiskers.
    pub fliers: Vec<f64>,
}

impl BoxStats {
    /// Interquartile range, `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Computes box-plot statistics for one sample (Tukey 1.5·IQR whiskers).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`](crate::StatsError::EmptyInput) for
/// an empty sample and [`StatsError::NonFinite`](crate::StatsError::NonFinite)
/// for NaN/infinite observations.
///
/// # Examples
///
/// ```
/// # use disengage_stats::boxplot::box_stats;
/// let b = box_stats(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
/// assert_eq!(b.median, 3.0);
/// assert_eq!(b.fliers, vec![100.0]);
/// ```
pub fn box_stats(xs: &[f64]) -> Result<BoxStats> {
    crate::error::ensure_nonempty_finite(xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
    let n = sorted.len();
    let q1 = quantile_sorted(&sorted, 0.25)?;
    let median = quantile_sorted(&sorted, 0.5)?;
    let q3 = quantile_sorted(&sorted, 0.75)?;
    let iqr = q3 - q1;
    let lo_fence = q1 - WHISKER_MULT * iqr;
    let hi_fence = q3 + WHISKER_MULT * iqr;
    let whisker_lo = sorted
        .iter()
        .copied()
        .find(|&x| x >= lo_fence)
        .unwrap_or(sorted[0]);
    let whisker_hi = sorted
        .iter()
        .rev()
        .copied()
        .find(|&x| x <= hi_fence)
        .unwrap_or(sorted[n - 1]);
    let fliers = sorted
        .iter()
        .copied()
        .filter(|&x| x < whisker_lo || x > whisker_hi)
        .collect();
    // Matplotlib's notch half-width.
    let notch = 1.57 * iqr / (n as f64).sqrt();
    Ok(BoxStats {
        n,
        q1,
        median,
        q3,
        notch_lo: median - notch,
        notch_hi: median + notch,
        whisker_lo,
        whisker_hi,
        min: sorted[0],
        max: sorted[n - 1],
        fliers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatsError;

    #[test]
    fn quartiles_ordered() {
        let b = box_stats(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!(b.q1 <= b.median && b.median <= b.q3);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.n, 5);
    }

    #[test]
    fn no_fliers_in_tight_sample() {
        let b = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(b.fliers.is_empty());
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 5.0);
    }

    #[test]
    fn outlier_detected() {
        let b = box_stats(&[1.0, 2.0, 3.0, 4.0, 50.0]).unwrap();
        assert_eq!(b.fliers, vec![50.0]);
        assert!(b.whisker_hi < 50.0);
        assert_eq!(b.max, 50.0);
    }

    #[test]
    fn notch_width_shrinks_with_n() {
        let small = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let big_data: Vec<f64> = (0..500).map(|i| (i % 5 + 1) as f64).collect();
        let big = box_stats(&big_data).unwrap();
        let small_width = small.notch_hi - small.notch_lo;
        let big_width = big.notch_hi - big.notch_lo;
        assert!(big_width < small_width);
    }

    #[test]
    fn single_observation_box() {
        let b = box_stats(&[7.0]).unwrap();
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.median, 7.0);
        assert_eq!(b.q3, 7.0);
        assert!(b.fliers.is_empty());
    }

    #[test]
    fn empty_sample_errors() {
        assert!(matches!(box_stats(&[]), Err(StatsError::EmptyInput)));
    }
}
