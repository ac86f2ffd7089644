//! Small statistics the benchmark reports: interpolated percentiles,
//! the quartile spread the acceptance rule uses, the tail percentile a
//! sample count supports, and the metric-name charset.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, linearly interpolated
/// between closest ranks (the median of an even count is the mean of
/// the middle two). `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median, or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here
/// match the acceptance check exactly. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is judged against. 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Samples needed for the `p`-quantile to have at least ten samples
/// beyond it (100 for p90).
pub fn samples_for_tail(p: f64) -> usize {
    (10.0 / (1.0 - p) - 1e-9).ceil() as usize
}

/// The highest of p99/p95/p90/p50 that `n` samples support with at
/// least ten samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.50]
        .into_iter()
        .find(|&p| n >= samples_for_tail(p))
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1–16 of letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0; 10]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(0.90), 100);
        assert_eq!(samples_for_tail(0.95), 200);
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(supported_tail(99), Some(0.50));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(250), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in [
            "wall_p50_s",
            "stage_iv.table1_s",
            "paper_cold",
            "0day",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "records/s", "MiB", "%", "count", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
