//! Plain-text rendering of analyses. [`crate::analyze`] prints every
//! artifact through these renderers.

use crate::figures::{Fig10, Fig11Panel, Fig12Panel, Fig4, Fig8};
use crate::questions::{Q1Assessment, Q2Causes, Q3Dynamics, Q4Alertness, Q5Comparison};
use disengage_dataframe::DataFrame;

/// Renders a dataframe with a title banner.
pub fn render_table(title: &str, df: &DataFrame) -> String {
    format!("== {title} ==\n{df}")
}

/// Renders Fig. 4's box statistics as text.
pub fn render_fig4(fig: &Fig4) -> String {
    let mut out = String::from("== Figure 4: per-car DPM by manufacturer ==\n");
    out.push_str("manufacturer      median        q1            q3            max\n");
    for (m, b) in &fig.boxes {
        out.push_str(&format!(
            "{:<16}  {:<12.6}  {:<12.6}  {:<12.6}  {:<12.6}\n",
            m.name(),
            b.median,
            b.q1,
            b.q3,
            b.max
        ));
    }
    out
}

/// Renders Fig. 8's correlation summary.
pub fn render_fig8(fig: &Fig8) -> String {
    format!(
        "== Figure 8: log(DPM) vs log(cumulative miles) ==\n\
         points: {}\npearson r = {:.3} (p = {:.3e})\n",
        fig.points.len(),
        fig.correlation.r,
        fig.correlation.p_value
    )
}

/// Renders Fig. 10's reaction-time boxes.
pub fn render_fig10(fig: &Fig10) -> String {
    let mut out = String::from("== Figure 10: driver reaction times (s) ==\n");
    out.push_str("manufacturer      median    q3        max\n");
    for (m, b) in &fig.boxes {
        out.push_str(&format!(
            "{:<16}  {:<8.3}  {:<8.3}  {:<10.1}\n",
            m.name(),
            b.median,
            b.q3,
            b.max
        ));
    }
    out
}

/// Renders one Fig. 11 panel (fit parameters).
pub fn render_fig11(panel: &Fig11Panel) -> String {
    format!(
        "== Figure 11: reaction-time Weibull fit — {} ==\n\
         exponentiated weibull: shape k = {:.3}, scale λ = {:.3}, α = {:.3}\n\
         log-likelihood = {:.1} over n = {}\n",
        panel.manufacturer.name(),
        panel.fit.dist.shape(),
        panel.fit.dist.scale(),
        panel.fit.dist.alpha(),
        panel.fit.log_likelihood,
        panel.fit.n
    )
}

/// Renders one Fig. 12 panel (fit + below-10mph share).
pub fn render_fig12(panel: &Fig12Panel) -> String {
    format!(
        "== Figure 12 ({:?} speed) ==\n\
         exponential fit: mean = {:.2} mph (rate {:.4})\n\
         share below 10 mph: {:.1}%\n",
        panel.kind,
        1.0 / panel.fit.dist.rate(),
        panel.fit.dist.rate(),
        panel.below_10mph * 100.0
    )
}

/// Renders the Q1 maturity assessment.
pub fn render_q1(q: &Q1Assessment) -> String {
    let mut out = String::from("== Q1: technology assessment ==\n");
    for (m, (median, p99)) in &q.dpm_by_manufacturer {
        out.push_str(&format!(
            "{:<16}  median DPM {:<12.6}  p99 DPM {:<12.6}\n",
            m.name(),
            median,
            p99
        ));
    }
    out.push_str(&format!(
        "median DPM spread across manufacturers: {:.0}x\n",
        q.median_spread
    ));
    if let Some(adv) = q.waymo_advantage {
        out.push_str(&format!(
            "waymo advantage over best competitor: {adv:.0}x\n"
        ));
    }
    out
}

/// Renders the Q2 cause breakdown.
pub fn render_q2(q: &Q2Causes) -> String {
    let g = &q.global_excluding_tesla;
    format!(
        "== Q2: causes of disengagements (excluding Tesla's unknowns) ==\n\
         perception ML: {:.1}%\nplanner/control ML: {:.1}%\nsystem: {:.1}%\nunknown: {:.1}%\n\
         total ML/Design share: {:.1}% (paper: 64%)\n",
        g.perception * 100.0,
        g.planner * 100.0,
        g.system * 100.0,
        g.unknown * 100.0,
        g.ml_total() * 100.0
    )
}

/// Renders the Q3 dynamics summary.
pub fn render_q3(q: &Q3Dynamics) -> String {
    let mut out = String::from("== Q3: dynamics of disengagements ==\n");
    out.push_str(&format!(
        "pooled log-log pearson r = {:.3} (p = {:.3e}; paper: r = -0.87)\n",
        q.log_log_correlation.r, q.log_log_correlation.p_value
    ));
    for (m, f) in &q.improvement {
        out.push_str(&format!(
            "{:<16} median DPM improvement {:.1}x\n",
            m.name(),
            f
        ));
    }
    out
}

/// Renders the Q4 alertness summary.
pub fn render_q4(q: &Q4Alertness) -> String {
    let mut out = format!(
        "== Q4: driver alertness ==\n\
         mean reaction time (trimmed): {:.2} s over n = {} (paper: 0.85 s)\n\
         untrimmed mean (with the ~4 h outlier): {:.2} s\n\
         human non-AV baseline: {:.2} s\n",
        q.mean_reaction_s, q.n, q.untrimmed_mean_s, q.human_baseline_s
    );
    for (m, c) in &q.miles_correlation {
        out.push_str(&format!(
            "{:<16} reaction-vs-miles r = {:.3} (p = {:.3})\n",
            m.name(),
            c.r,
            c.p_value
        ));
    }
    out
}

/// Renders the Q5 human-comparison table.
pub fn render_q5(q: &Q5Comparison) -> String {
    let mut out = String::from("== Q5: comparison to human drivers ==\n");
    out.push_str("manufacturer      median DPM    APM           vs human    p-value\n");
    for r in &q.rows {
        out.push_str(&format!(
            "{:<16}  {:<12.6}  {}  {}  {}\n",
            r.manufacturer.name(),
            r.median_dpm,
            r.apm
                .map_or("-           ".to_owned(), |v| format!("{v:<12.3e}")),
            r.vs_human
                .map_or("-         ".to_owned(), |v| format!("{v:<10.1}")),
            r.significance_p
                .map_or("-".to_owned(), |v| format!("{v:.4}")),
        ));
    }
    if let Some((lo, hi)) = q.human_ratio_range {
        out.push_str(&format!(
            "AVs are {lo:.0}-{hi:.0}x worse than human drivers per mile (paper: 15-4000x)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{figures, questions, tables, RunSession};

    #[test]
    fn renderers_produce_text() {
        let o = RunSession::test_outcome(2, 0.1);
        let t1 = tables::table1(&o.database).unwrap();
        assert!(render_table("Table I", &t1).contains("Table I"));
        assert!(render_fig4(&figures::fig4(&o.database).unwrap()).contains("Waymo"));
        assert!(render_fig8(&figures::fig8(&o.database).unwrap()).contains("pearson"));
        assert!(render_fig10(&figures::fig10(&o.database).unwrap()).contains("reaction"));
        let q1 = questions::q1_assessment(&o.database).unwrap();
        assert!(render_q1(&q1).contains("spread"));
        let q2 = questions::q2_causes(&o.tagged);
        assert!(render_q2(&q2).contains("ML/Design"));
        let q3 = questions::q3_dynamics(&o.database).unwrap();
        assert!(render_q3(&q3).contains("pearson"));
        let q4 = questions::q4_alertness(&o.database).unwrap();
        assert!(render_q4(&q4).contains("0.85"));
        let q5 = questions::q5_comparison(&o.database).unwrap();
        assert!(render_q5(&q5).contains("vs human"));
    }
}
