//! Allocation of totals across months and cars.
//!
//! Table I gives *totals* per manufacturer per release; the figures need
//! per-car monthly series. This module distributes totals with the
//! dynamics the paper observes: activity ramps up over a release window,
//! and disengagements-per-mile *decline* as cumulative miles accumulate
//! (Figs. 7–9).

use disengage_reports::{Date, ReportYear};
use rand::Rng;

/// Months (as month-start dates) covered by a DMV release window.
///
/// The dataset spans September 2014 – November 2016; release windows end
/// in November (filings are due by January 1 covering through November).
pub fn window_months(year: ReportYear) -> Vec<Date> {
    let (start, count) = match year {
        // Sep 2014 .. Nov 2015 (15 months).
        ReportYear::R2015 => (Date::month_start(2014, 9).expect("valid"), 15),
        // Dec 2015 .. Nov 2016 (12 months).
        ReportYear::R2016 => (Date::month_start(2015, 12).expect("valid"), 12),
    };
    (0..count).map(|i| start.add_months(i)).collect()
}

/// Normalized linear-ramp weights: activity grows over the window.
///
/// `growth = 0` is uniform; `growth = 1` makes the last month roughly
/// twice the first.
pub fn ramp_weights(n: usize, growth: f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let raw: Vec<f64> = (0..n)
        .map(|i| 1.0 + growth * i as f64 / n.max(1) as f64)
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Splits an integer `total` across buckets proportional to `weights`
/// using the largest-remainder method — counts sum to `total` exactly.
///
/// # Panics
///
/// Panics if `weights` is empty while `total > 0`, or if any weight is
/// negative.
pub fn split_largest_remainder(total: u64, weights: &[f64]) -> Vec<u64> {
    if total == 0 {
        return vec![0; weights.len()];
    }
    assert!(
        !weights.is_empty(),
        "cannot split a positive total over no buckets"
    );
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative"
    );
    let sum: f64 = weights.iter().sum();
    let norm: Vec<f64> = if sum == 0.0 {
        vec![1.0 / weights.len() as f64; weights.len()]
    } else {
        weights.iter().map(|w| w / sum).collect()
    };
    let ideal: Vec<f64> = norm.iter().map(|w| w * total as f64).collect();
    let mut counts: Vec<u64> = ideal.iter().map(|x| x.floor() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    let mut remainders: Vec<(usize, f64)> = ideal
        .iter()
        .enumerate()
        .map(|(i, x)| (i, x - x.floor()))
        .collect();
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    for (i, _) in remainders.iter().take((total - assigned) as usize) {
        counts[*i] += 1;
    }
    counts
}

/// Per-car weights with dispersion controlled by `skew`.
///
/// `skew = 1` gives mild jitter (every car within ~0.4–1.6× of the
/// fleet average). Larger values raise the jitter to a power, producing
/// the heavy per-car mileage concentration some fleets show (a few
/// workhorse prototypes drive most miles while shakedown cars barely
/// move).
pub fn car_weights<R: Rng + ?Sized>(cars: usize, skew: f64, rng: &mut R) -> Vec<f64> {
    if cars == 0 {
        return Vec::new();
    }
    let raw: Vec<f64> = (0..cars)
        .map(|_| (0.4 + rng.gen::<f64>() * 1.2_f64).powf(skew))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// A per-(car, month) mileage allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MileageGrid {
    /// Month-start dates (columns).
    pub months: Vec<Date>,
    /// `miles[car][month]`.
    pub miles: Vec<Vec<f64>>,
}

/// Distributes `total_miles` over `cars × window months` with a ramp in
/// time and dispersion across cars. The grid sums to `total_miles`
/// exactly (up to float rounding).
pub fn allocate_miles<R: Rng + ?Sized>(
    total_miles: f64,
    cars: usize,
    year: ReportYear,
    growth: f64,
    car_skew: f64,
    rng: &mut R,
) -> MileageGrid {
    let months = window_months(year);
    if cars == 0 || total_miles <= 0.0 {
        return MileageGrid {
            months,
            miles: Vec::new(),
        };
    }
    let month_w = ramp_weights(months.len(), growth);
    let car_w = car_weights(cars, car_skew, rng);
    let mut miles = vec![vec![0.0; months.len()]; cars];
    for (c, cw) in car_w.iter().enumerate() {
        for (m, mw) in month_w.iter().enumerate() {
            // Mild multiplicative jitter, renormalized below.
            let jitter = 0.8 + rng.gen::<f64>() * 0.4;
            miles[c][m] = total_miles * cw * mw * jitter;
        }
    }
    // Renormalize to hit the calibrated total exactly.
    let raw_total: f64 = miles.iter().flatten().sum();
    let factor = total_miles / raw_total;
    for row in &mut miles {
        for cell in row {
            *cell = (*cell * factor * 10.0).round() / 10.0;
        }
    }
    MileageGrid { months, miles }
}

/// Distributes a disengagement `total` across the cells of a mileage
/// grid, weighted by miles × a monthly decay — so DPM *falls* as miles
/// accumulate, reproducing the negative correlation of Fig. 8.
///
/// `monthly_decay` is the month-over-month DPM multiplier (e.g. 0.93).
/// The returned counts sum to `total` exactly.
/// `miles_exponent` controls how disengagements scale with a cell's
/// miles: `1.0` is proportional; values below 1 give low-mileage cars
/// relatively more disengagements (burn-in behavior), which is what
/// drives the high median per-car DPM some fleets report.
pub fn allocate_disengagements(
    total: u64,
    grid: &MileageGrid,
    monthly_decay: f64,
    miles_exponent: f64,
) -> Vec<Vec<u64>> {
    let cars = grid.miles.len();
    let months = grid.months.len();
    if cars == 0 || months == 0 {
        return Vec::new();
    }
    // Stage 1: split across cars by total miles raised to the exponent
    // (sub-linear exponents give low-mileage cars relatively more
    // disengagements — burn-in behavior).
    let car_weights: Vec<f64> = grid
        .miles
        .iter()
        .map(|row| {
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                total.powf(miles_exponent)
            } else {
                0.0
            }
        })
        .collect();
    let per_car = split_largest_remainder(total, &car_weights);
    // Stage 2: within each car, split across months by miles × decay.
    // Decay is keyed to the global month index so the two release
    // windows form one continuous improvement curve.
    per_car
        .iter()
        .zip(&grid.miles)
        .map(|(&car_total, row)| {
            let month_weights: Vec<f64> = row
                .iter()
                .enumerate()
                .map(|(m, &miles)| {
                    let global = grid.months[m].month_index() as f64;
                    miles * monthly_decay.powf(global)
                })
                .collect();
            split_largest_remainder(car_total, &month_weights)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn window_months_match_releases() {
        let y1 = window_months(ReportYear::R2015);
        assert_eq!(y1.len(), 15);
        assert_eq!(y1[0], Date::month_start(2014, 9).unwrap());
        assert_eq!(*y1.last().unwrap(), Date::month_start(2015, 11).unwrap());
        let y2 = window_months(ReportYear::R2016);
        assert_eq!(y2.len(), 12);
        assert_eq!(y2[0], Date::month_start(2015, 12).unwrap());
        assert_eq!(*y2.last().unwrap(), Date::month_start(2016, 11).unwrap());
    }

    #[test]
    fn ramp_weights_normalized_and_increasing() {
        let w = ramp_weights(10, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] < p[1]));
        let flat = ramp_weights(5, 0.0);
        assert!(flat.iter().all(|&x| (x - 0.2).abs() < 1e-12));
    }

    #[test]
    fn largest_remainder_exact() {
        let counts = split_largest_remainder(10, &[1.0, 1.0, 1.0]);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert!(counts.iter().all(|&c| c == 3 || c == 4));
        let counts = split_largest_remainder(7, &[0.5, 0.25, 0.25]);
        assert_eq!(counts, vec![3, 2, 2]);
    }

    #[test]
    fn largest_remainder_zero_total_and_zero_weights() {
        assert_eq!(split_largest_remainder(0, &[1.0, 2.0]), vec![0, 0]);
        let counts = split_largest_remainder(4, &[0.0, 0.0]);
        assert_eq!(counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn car_weights_normalized() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = car_weights(7, 1.0, &mut rng);
        assert_eq!(w.len(), 7);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn allocate_miles_hits_total() {
        let mut rng = StdRng::seed_from_u64(2);
        let grid = allocate_miles(424_332.0, 49, ReportYear::R2015, 1.0, 1.0, &mut rng);
        assert_eq!(grid.miles.len(), 49);
        assert_eq!(grid.months.len(), 15);
        let total: f64 = grid.miles.iter().flatten().sum();
        assert!((total - 424_332.0).abs() < 50.0, "total = {total}");
        // Every car-month is a nonnegative share.
        assert!(grid.miles.iter().flatten().all(|&m| m >= 0.0));
    }

    #[test]
    fn allocate_miles_empty_fleet() {
        let mut rng = StdRng::seed_from_u64(3);
        let grid = allocate_miles(100.0, 0, ReportYear::R2016, 1.0, 1.0, &mut rng);
        assert!(grid.miles.is_empty());
    }

    #[test]
    fn disengagement_allocation_sums_exactly() {
        let mut rng = StdRng::seed_from_u64(4);
        let grid = allocate_miles(10_000.0, 4, ReportYear::R2015, 1.0, 1.0, &mut rng);
        let d = allocate_disengagements(341, &grid, 0.93, 1.0);
        let total: u64 = d.iter().flatten().sum();
        assert_eq!(total, 341);
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].len(), 15);
    }

    #[test]
    fn dpm_declines_over_time() {
        // With decay, the per-month DPM in the last third of the window
        // must be lower than in the first third.
        let mut rng = StdRng::seed_from_u64(5);
        let grid = allocate_miles(50_000.0, 10, ReportYear::R2015, 0.5, 1.0, &mut rng);
        let d = allocate_disengagements(2000, &grid, 0.90, 1.0);
        let months = grid.months.len();
        let third = months / 3;
        let mut early_dis = 0.0;
        let mut early_miles = 0.0;
        let mut late_dis = 0.0;
        let mut late_miles = 0.0;
        for (car, row) in grid.miles.iter().enumerate() {
            for m in 0..months {
                if m < third {
                    early_dis += d[car][m] as f64;
                    early_miles += row[m];
                } else if m >= months - third {
                    late_dis += d[car][m] as f64;
                    late_miles += row[m];
                }
            }
        }
        let early_dpm = early_dis / early_miles;
        let late_dpm = late_dis / late_miles;
        assert!(
            late_dpm < early_dpm * 0.7,
            "early {early_dpm}, late {late_dpm}"
        );
    }
}
