//! Chi-square tests of independence in contingency tables.
//!
//! Used to formalize questions the paper answers descriptively: is
//! disengagement *modality* independent of manufacturer (Table V clearly
//! says no), is fault *category* independent of manufacturer (Table IV)?

use crate::special::reg_inc_gamma_q;
use crate::{Result, StatsError};

/// Result of a chi-square test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// The chi-square statistic.
    pub statistic: f64,
    /// Degrees of freedom.
    pub df: usize,
    /// Right-tail p-value.
    pub p_value: f64,
}

/// Right-tail p-value of the chi-square distribution: `Q(df/2, x/2)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `df == 0` or negative `x`.
pub fn chi_square_sf(x: f64, df: usize) -> Result<f64> {
    if df == 0 {
        return Err(StatsError::InvalidParameter {
            name: "df",
            value: 0.0,
        });
    }
    if x < 0.0 || !x.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
        });
    }
    reg_inc_gamma_q(df as f64 / 2.0, x / 2.0)
}

/// Chi-square test of independence over an `r × c` contingency table of
/// counts (`table[row][col]`).
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] for tables smaller than 2×2 or
///   ragged rows.
/// * [`StatsError::DegenerateSample`] if any row or column sums to zero
///   (drop empty rows/columns before testing).
///
/// # Examples
///
/// ```
/// # use disengage_stats::chi_square::chi_square_independence;
/// // Strong association: each group uses one modality exclusively.
/// let t = chi_square_independence(&[vec![50, 0], vec![0, 50]]).unwrap();
/// assert!(t.p_value < 0.001);
/// ```
pub fn chi_square_independence(table: &[Vec<u64>]) -> Result<ChiSquare> {
    let rows = table.len();
    if rows < 2 {
        return Err(StatsError::InsufficientData {
            required: 2,
            actual: rows,
        });
    }
    let cols = table[0].len();
    if cols < 2 || table.iter().any(|r| r.len() != cols) {
        return Err(StatsError::InsufficientData {
            required: 2,
            actual: cols,
        });
    }
    let row_sums: Vec<f64> = table
        .iter()
        .map(|r| r.iter().map(|&c| c as f64).sum())
        .collect();
    let col_sums: Vec<f64> = (0..cols)
        .map(|j| table.iter().map(|r| r[j] as f64).sum())
        .collect();
    let total: f64 = row_sums.iter().sum();
    if row_sums.contains(&0.0) || col_sums.contains(&0.0) {
        return Err(StatsError::DegenerateSample("empty row or column"));
    }
    let mut statistic = 0.0;
    for (i, row) in table.iter().enumerate() {
        for (j, &obs) in row.iter().enumerate() {
            let expected = row_sums[i] * col_sums[j] / total;
            let d = obs as f64 - expected;
            statistic += d * d / expected;
        }
    }
    let df = (rows - 1) * (cols - 1);
    Ok(ChiSquare {
        statistic,
        df,
        p_value: chi_square_sf(statistic, df)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_known_values() {
        // χ²(df=1): P(X > 3.841) ≈ 0.05
        assert!((chi_square_sf(3.841, 1).unwrap() - 0.05).abs() < 1e-3);
        // χ²(df=2): P(X > 5.991) ≈ 0.05
        assert!((chi_square_sf(5.991, 2).unwrap() - 0.05).abs() < 1e-3);
        assert_eq!(chi_square_sf(0.0, 3).unwrap(), 1.0);
    }

    #[test]
    fn independent_table_not_rejected() {
        // Proportional rows → no association.
        let t = chi_square_independence(&[vec![20, 40], vec![10, 20]]).unwrap();
        assert!(t.statistic < 1e-9);
        assert!(t.p_value >= 0.05);
        assert_eq!(t.df, 1);
    }

    #[test]
    fn associated_table_rejected() {
        let t = chi_square_independence(&[vec![90, 10], vec![10, 90]]).unwrap();
        assert!(t.p_value < 1e-6, "p = {}", t.p_value);
    }

    #[test]
    fn modality_style_table() {
        // Three manufacturers with disjoint modality usage — the Table V
        // situation.
        let t = chi_square_independence(&[vec![100, 95, 0], vec![0, 0, 200], vec![180, 0, 0]]);
        // A zero column? Col sums: 280, 95, 200 — fine.
        let t = t.unwrap();
        assert!(t.p_value < 1e-10);
        assert_eq!(t.df, 4);
    }

    #[test]
    fn degenerate_tables_rejected() {
        assert!(chi_square_independence(&[vec![1, 2]]).is_err());
        assert!(chi_square_independence(&[vec![1], vec![2]]).is_err());
        assert!(chi_square_independence(&[vec![0, 0], vec![1, 2]]).is_err());
        assert!(chi_square_independence(&[vec![1, 0], vec![2, 0]]).is_err());
        assert!(chi_square_independence(&[vec![1, 2], vec![3]]).is_err());
    }
}
