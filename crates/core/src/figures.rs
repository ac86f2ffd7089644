//! The data series behind Figs. 4–12.
//!
//! Each function returns the numbers a plotting front-end would render:
//! box statistics, scatter/fit series, stacked fractions, or fitted
//! distributions.

use crate::constants::REACTION_OUTLIER_CUTOFF_S;
use crate::metrics::{cumulative_trajectory, monthly_dpm_series, per_car_dpm, per_car_dpm_in_year};
use crate::tagging::{tag_counts_by_manufacturer, TaggedDisengagement};
use crate::{CoreError, Result};
use disengage_nlp::FaultTag;
use disengage_reports::{FailureDatabase, Manufacturer};
use disengage_stats::boxplot::{box_stats, BoxStats};
use disengage_stats::correlation::{log_log_pearson, Correlation};
use disengage_stats::dist::{Exponential, ExponentiatedWeibull};
use disengage_stats::fit::{fit_exponential, fit_exponentiated_weibull, Fitted};
use disengage_stats::regression::{fit_power_law, PowerLawFit};

/// Fig. 4 — per-car DPM box statistics by manufacturer.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// One `(manufacturer, box)` per manufacturer with data.
    pub boxes: Vec<(Manufacturer, BoxStats)>,
}

/// Computes Fig. 4.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] if no manufacturer has per-car data.
pub fn fig4(db: &FailureDatabase) -> Result<Fig4> {
    let mut boxes = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        let dpms = per_car_dpm(db, m);
        if dpms.is_empty() {
            continue;
        }
        boxes.push((m, box_stats(&dpms)?));
    }
    if boxes.is_empty() {
        return Err(CoreError::NoData("fig 4 per-car DPM"));
    }
    Ok(Fig4 { boxes })
}

/// Fig. 5 — cumulative disengagements vs cumulative miles, with a
/// power-law (log-log linear) fit per manufacturer.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Series {
    /// The manufacturer.
    pub manufacturer: Manufacturer,
    /// `(cumulative miles, cumulative disengagements)` by month.
    pub points: Vec<(f64, f64)>,
    /// Log-log linear fit (`None` when fewer than 2 positive points).
    pub fit: Option<PowerLawFit>,
}

/// Computes Fig. 5.
pub fn fig5(db: &FailureDatabase) -> Vec<Fig5Series> {
    let mut out = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        let points = cumulative_trajectory(db, m);
        if points.is_empty() {
            continue;
        }
        let positive: (Vec<f64>, Vec<f64>) = points
            .iter()
            .filter(|(x, y)| *x > 0.0 && *y > 0.0)
            .map(|&(x, y)| (x, y))
            .unzip();
        let fit = if positive.0.len() >= 2 {
            fit_power_law(&positive.0, &positive.1).ok()
        } else {
            None
        };
        out.push(Fig5Series {
            manufacturer: m,
            points,
            fit,
        });
    }
    out
}

/// Fig. 6 — fraction of disengagements per fault tag, stacked per
/// manufacturer.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// `(manufacturer, [(tag, fraction)])`, fractions summing to 1 per
    /// manufacturer.
    pub stacks: Vec<(Manufacturer, Vec<(FaultTag, f64)>)>,
}

/// Computes Fig. 6.
pub fn fig6(tagged: &[TaggedDisengagement]) -> Fig6 {
    let counts = tag_counts_by_manufacturer(tagged);
    let stacks = counts
        .into_iter()
        .map(|(m, tags)| {
            let total: usize = tags.values().sum();
            let fractions = tags
                .into_iter()
                .map(|(t, c)| (t, c as f64 / total.max(1) as f64))
                .collect();
            (m, fractions)
        })
        .collect();
    Fig6 { stacks }
}

/// Fig. 7 — per-car DPM box statistics by manufacturer and calendar
/// year.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// `(manufacturer, year, box)` for every populated panel.
    pub panels: Vec<(Manufacturer, u16, BoxStats)>,
}

/// Computes Fig. 7 over the dataset's calendar years (2014–2016).
///
/// # Errors
///
/// Propagates box-statistics errors (non-finite data).
pub fn fig7(db: &FailureDatabase) -> Result<Fig7> {
    let mut panels = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        for year in [2014u16, 2015, 2016] {
            let dpms = per_car_dpm_in_year(db, m, year);
            if dpms.is_empty() {
                continue;
            }
            panels.push((m, year, box_stats(&dpms)?));
        }
    }
    Ok(Fig7 { panels })
}

/// Fig. 8 — pooled log-log scatter of monthly DPM vs cumulative miles
/// with its Pearson correlation (the paper's r = −0.87).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// `(cumulative miles, monthly DPM)` points, both strictly positive.
    pub points: Vec<(f64, f64)>,
    /// Pearson correlation of the logs.
    pub correlation: Correlation,
}

/// Computes Fig. 8.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] with fewer than 3 points.
pub fn fig8(db: &FailureDatabase) -> Result<Fig8> {
    let mut points = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        for (_, cum, dpm) in monthly_dpm_series(db, m) {
            if cum > 0.0 && dpm > 0.0 {
                points.push((cum, dpm));
            }
        }
    }
    if points.len() < 3 {
        return Err(CoreError::NoData("fig 8 points"));
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let correlation = log_log_pearson(&xs, &ys)?;
    Ok(Fig8 {
        points,
        correlation,
    })
}

/// Fig. 9 — monthly DPM vs cumulative miles per manufacturer, with a
/// power-law fit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Series {
    /// The manufacturer.
    pub manufacturer: Manufacturer,
    /// `(cumulative miles, monthly DPM)` points.
    pub points: Vec<(f64, f64)>,
    /// Log-log fit (`None` with fewer than 2 positive points).
    pub fit: Option<PowerLawFit>,
}

/// Computes Fig. 9.
pub fn fig9(db: &FailureDatabase) -> Vec<Fig9Series> {
    let mut out = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        let points: Vec<(f64, f64)> = monthly_dpm_series(db, m)
            .into_iter()
            .filter(|(_, cum, dpm)| *cum > 0.0 && *dpm > 0.0)
            .map(|(_, cum, dpm)| (cum, dpm))
            .collect();
        if points.is_empty() {
            continue;
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
        let fit = if xs.len() >= 2 {
            fit_power_law(&xs, &ys).ok()
        } else {
            None
        };
        out.push(Fig9Series {
            manufacturer: m,
            points,
            fit,
        });
    }
    out
}

/// Fig. 10 — reaction-time box statistics per manufacturer.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// `(manufacturer, box)` for manufacturers reporting reaction times.
    pub boxes: Vec<(Manufacturer, BoxStats)>,
}

/// Computes Fig. 10 (untrimmed — the figure shows the full long tail,
/// outliers included).
///
/// # Errors
///
/// Returns [`CoreError::NoData`] if no reaction times exist.
pub fn fig10(db: &FailureDatabase) -> Result<Fig10> {
    let mut boxes = Vec::new();
    for &m in &Manufacturer::ANALYZED {
        let times = db.reaction_times(m);
        if times.is_empty() {
            continue;
        }
        boxes.push((m, box_stats(&times)?));
    }
    if boxes.is_empty() {
        return Err(CoreError::NoData("fig 10 reaction times"));
    }
    Ok(Fig10 { boxes })
}

/// One panel of Fig. 11 — the Exponentiated-Weibull fit of one
/// manufacturer's reaction times.
#[derive(Debug, Clone)]
pub struct Fig11Panel {
    /// The manufacturer.
    pub manufacturer: Manufacturer,
    /// The MLE Exponentiated-Weibull fit of the outlier-trimmed times.
    pub fit: Fitted<ExponentiatedWeibull>,
}

/// Computes Fig. 11 for the paper's two panels (Mercedes-Benz, Waymo) or
/// any other manufacturer with enough reaction times.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] when the manufacturer has fewer than 10
/// usable reaction times; propagates fitting errors.
pub fn fig11(db: &FailureDatabase, m: Manufacturer) -> Result<Fig11Panel> {
    let times: Vec<f64> = db
        .reaction_times(m)
        .into_iter()
        .filter(|&t| t > 0.0 && t <= REACTION_OUTLIER_CUTOFF_S)
        .collect();
    if times.len() < 10 {
        return Err(CoreError::NoData("fig 11 reaction times"));
    }
    let fit = fit_exponentiated_weibull(&times)?;
    Ok(Fig11Panel {
        manufacturer: m,
        fit,
    })
}

/// Which speed sample a Fig. 12 panel shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedKind {
    /// AV speed at impact (panel a).
    Av,
    /// Manual-vehicle speed (panel b).
    Manual,
    /// Relative (closing) speed (panel c).
    Relative,
}

/// One panel of Fig. 12 — the Exponential fit of one accident-speed
/// sample.
#[derive(Debug, Clone)]
pub struct Fig12Panel {
    /// Which speed this panel shows.
    pub kind: SpeedKind,
    /// MLE Exponential fit.
    pub fit: Fitted<Exponential>,
    /// Fraction of accidents with speed below 10 mph (the paper's "more
    /// than 80% under 10 mph relative" observation).
    pub below_10mph: f64,
}

/// Computes one Fig. 12 panel.
///
/// # Errors
///
/// Returns [`CoreError::NoData`] when no speeds of the requested kind
/// exist; propagates fitting errors (a non-finite speed is
/// [`disengage_stats::StatsError::NonFinite`]).
pub fn fig12(db: &FailureDatabase, kind: SpeedKind) -> Result<Fig12Panel> {
    let speeds: Vec<f64> = db
        .accidents()
        .iter()
        .filter_map(|a| match kind {
            SpeedKind::Av => a.av_speed_mph,
            SpeedKind::Manual => a.other_speed_mph,
            SpeedKind::Relative => a.relative_speed_mph(),
        })
        .filter(|&s| s > 0.0)
        .collect();
    if speeds.is_empty() {
        return Err(CoreError::NoData("fig 12 speeds"));
    }
    let fit = fit_exponential(&speeds)?;
    let below_10mph = speeds.iter().filter(|&&s| s < 10.0).count() as f64 / speeds.len() as f64;
    Ok(Fig12Panel {
        kind,
        fit,
        below_10mph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_stats::dist::Continuous;

    fn outcome() -> crate::PipelineOutcome {
        crate::RunSession::test_outcome(15, 0.15)
    }

    #[test]
    fn fig4_waymo_lowest_box() {
        let o = outcome();
        let f = fig4(&o.database).unwrap();
        assert!(f.boxes.len() >= 6);
        let waymo = f
            .boxes
            .iter()
            .find(|(m, _)| *m == Manufacturer::Waymo)
            .unwrap();
        for (m, b) in &f.boxes {
            if *m != Manufacturer::Waymo {
                assert!(waymo.1.median <= b.median, "{m} median below Waymo's");
            }
        }
    }

    #[test]
    fn fig5_monotone_with_positive_fits() {
        let o = outcome();
        let series = fig5(&o.database);
        assert!(series.len() >= 6);
        for s in &series {
            assert!(
                s.points.windows(2).all(|w| w[1].0 >= w[0].0),
                "{}: miles not monotone",
                s.manufacturer
            );
            if let Some(fit) = &s.fit {
                assert!(
                    fit.exponent > 0.0,
                    "{}: cumulative counts must grow with miles",
                    s.manufacturer
                );
            }
        }
    }

    #[test]
    fn fig6_fractions_sum_to_one() {
        let o = outcome();
        let f = fig6(&o.tagged);
        for (m, stack) in &f.stacks {
            let total: f64 = stack.iter().map(|(_, frac)| frac).sum();
            assert!((total - 1.0).abs() < 1e-9, "{m} stack sums to {total}");
        }
        // Waymo reports a sizable System share (the paper's observation).
        let waymo = f
            .stacks
            .iter()
            .find(|(m, _)| *m == Manufacturer::Waymo)
            .unwrap();
        let system_share: f64 = waymo
            .1
            .iter()
            .filter(|(t, _)| t.category() == disengage_nlp::FailureCategory::System)
            .map(|(_, frac)| frac)
            .sum();
        assert!(system_share > 0.2, "waymo system share = {system_share}");
    }

    #[test]
    fn fig7_medians_decline_by_year() {
        let o = outcome();
        let f = fig7(&o.database).unwrap();
        assert!(!f.panels.is_empty());
        // Waymo's yearly medians decrease.
        let waymo: Vec<(u16, f64)> = f
            .panels
            .iter()
            .filter(|(m, _, _)| *m == Manufacturer::Waymo)
            .map(|(_, y, b)| (*y, b.median))
            .collect();
        assert!(waymo.len() >= 2);
        assert!(
            waymo.windows(2).all(|w| w[1].1 <= w[0].1),
            "waymo yearly medians: {waymo:?}"
        );
    }

    #[test]
    fn fig8_strong_negative_correlation() {
        let o = outcome();
        let f = fig8(&o.database).unwrap();
        assert!(f.points.len() > 50);
        assert!(f.correlation.r < -0.5, "r = {}", f.correlation.r);
        assert!(f.correlation.p_value < 1e-4);
    }

    #[test]
    fn fig9_negative_exponents() {
        let o = outcome();
        let series = fig9(&o.database);
        let negative = series
            .iter()
            .filter_map(|s| s.fit.as_ref())
            .filter(|f| f.exponent < 0.0)
            .count();
        // DPM falls with miles for the clear majority of manufacturers.
        assert!(
            negative * 3 >= series.len() * 2,
            "{negative}/{}",
            series.len()
        );
    }

    #[test]
    fn fig10_long_tails() {
        let o = outcome();
        let f = fig10(&o.database).unwrap();
        assert!(f.boxes.len() >= 4);
        for (m, b) in &f.boxes {
            assert!(b.median > 0.0, "{m} zero median");
            // Long tail: max well above median.
            assert!(b.max > b.median, "{m} no tail");
        }
    }

    #[test]
    fn fig11_fit_describes_data() {
        let o = outcome();
        let panel = fig11(&o.database, Manufacturer::Waymo).unwrap();
        assert!(panel.fit.dist.shape() > 0.1 && panel.fit.dist.shape() < 20.0);
        // The fitted mean is near the sample mean.
        let times: Vec<f64> = o
            .database
            .reaction_times(Manufacturer::Waymo)
            .into_iter()
            .filter(|&t| t <= REACTION_OUTLIER_CUTOFF_S)
            .collect();
        let sample_mean = times.iter().sum::<f64>() / times.len() as f64;
        let fit_mean = panel.fit.dist.mean();
        assert!(
            (fit_mean - sample_mean).abs() / sample_mean < 0.25,
            "fit mean {fit_mean} vs sample {sample_mean}"
        );
    }

    #[test]
    fn fig12_panels_low_speed() {
        let o = outcome();
        for kind in [SpeedKind::Av, SpeedKind::Manual, SpeedKind::Relative] {
            let p = fig12(&o.database, kind).unwrap();
            assert!(p.fit.dist.mean() < 20.0, "{kind:?} mean too high");
            assert!(p.below_10mph > 0.3, "{kind:?} below-10 = {}", p.below_10mph);
        }
        // AV speeds are lower than manual-vehicle speeds on average.
        let av = fig12(&o.database, SpeedKind::Av).unwrap();
        let mv = fig12(&o.database, SpeedKind::Manual).unwrap();
        assert!(av.fit.dist.mean() < mv.fit.dist.mean());
    }

    #[test]
    fn fig11_requires_enough_data() {
        let o = outcome();
        // Bosch reports no reaction times at all.
        assert!(matches!(
            fig11(&o.database, Manufacturer::Bosch),
            Err(CoreError::NoData(_))
        ));
    }
}
