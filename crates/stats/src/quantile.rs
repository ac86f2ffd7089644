//! Quantile estimation.
//!
//! One definition, R type 7 (linear interpolation between order
//! statistics), the numpy/pandas default. It gives the medians and
//! quartiles behind Tables VII–VIII, the questions' answers, and the box
//! plots of Figs. 4, 7, and 10.

use crate::error::ensure_nonempty_finite;
use crate::{Result, StatsError};

/// Estimates the `q`-quantile (`0 <= q <= 1`) of a sample.
///
/// The input does not need to be sorted; a sorted copy is made internally.
/// For repeated quantile queries over the same data, sort once and call
/// [`quantile_sorted`].
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty sample,
/// [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]`, and
/// [`StatsError::NonFinite`] for NaN/infinite observations.
///
/// # Examples
///
/// ```
/// # use disengage_stats::quantile::quantile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    ensure_nonempty_finite(xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
    quantile_sorted(&sorted, q)
}

/// Estimates the `q`-quantile of an already-sorted sample.
///
/// # Errors
///
/// Same as [`quantile`]. The caller must guarantee `xs` is sorted
/// ascending; this is checked with `debug_assert!` only.
pub fn quantile_sorted(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            name: "q",
            value: q,
        });
    }
    debug_assert!(
        xs.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted requires ascending input"
    );
    let h = (xs.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(if lo == hi {
        xs[lo]
    } else {
        xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5).unwrap(), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5).unwrap(), 2.5);
    }

    #[test]
    fn extremes_are_min_max() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 5.0);
    }

    #[test]
    fn linear_interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_range_q() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::InvalidParameter { name: "q", .. })
        ));
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let xs = [2.0, 8.0, 1.0, 9.0, 5.0, 5.0, 3.0];
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = quantile(&xs, q).unwrap();
            assert!(v >= prev, "quantile not monotone at q={q}");
            prev = v;
        }
    }
}
