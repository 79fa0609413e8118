//! Figure 1: synthesize the two neuroscience runtime archives and rerun
//! the paper's LogNormal fitting, reporting fitted parameters and
//! goodness-of-fit.

use crate::report::Table;
use crate::scenarios::Fidelity;
use rand::SeedableRng;
use rsj_traces::{figure1_archive, fit_archive, FitReport};

/// Number of runs per application (the paper: "over 5000").
pub(crate) fn runs(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Paper => 5000,
        Fidelity::Quick => 1500,
    }
}

/// Generates the archive and fits both applications.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<FitReport> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let archive = figure1_archive(runs(fidelity), &mut rng);
    fit_archive(&archive).expect("synthetic archives are clean")
}

/// Renders the fit table.
pub(crate) fn render(reports: &[FitReport]) -> Result<Table, crate::report::ReportError> {
    let mut table = Table::new(vec![
        "Application",
        "runs",
        "mu",
        "sigma",
        "mean (s)",
        "std (s)",
        "KS",
        "KS 1% threshold",
        "fit OK",
    ]);
    for r in reports {
        table.push_row(vec![
            r.app.clone(),
            r.runs.to_string(),
            format!("{:.4}", r.mu),
            format!("{:.4}", r.sigma),
            format!("{:.2}", r.natural_mean),
            format!("{:.2}", r.natural_std),
            format!("{:.4}", r.ks_statistic),
            format!("{:.4}", r.ks_threshold_1pct),
            r.acceptable().to_string(),
        ])?;
    }
    Ok(table)
}

/// Runs the experiment and writes `results/fig1.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<FitReport>> {
    let reports = compute(fidelity, seed);
    render(&reports)?.emit(
        "fig1",
        "Figure 1 — LogNormal fits of the synthetic neuroscience archives (VBMQA target: mu=7.1128, sigma=0.2039, mean=1253.37s)",
    )?;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vbmqa_fit_recovers_published_parameters() {
        let reports = compute(Fidelity::Quick, 23);
        let vbmqa = reports.iter().find(|r| r.app == "VBMQA").unwrap();
        assert!((vbmqa.mu - 7.1128).abs() < 0.03, "mu {}", vbmqa.mu);
        assert!((vbmqa.sigma - 0.2039).abs() < 0.02, "sigma {}", vbmqa.sigma);
        assert!(vbmqa.acceptable());
    }

    #[test]
    fn both_apps_reported() {
        let reports = compute(Fidelity::Quick, 23);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().any(|r| r.app == "fMRIQA"));
    }
}
