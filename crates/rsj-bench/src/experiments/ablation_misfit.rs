//! Ablation (beyond the paper's evaluation): how fragile is the §5.3
//! fit-then-plan pipeline? For each Table 1 truth, draw `N` runtimes, fit
//! a LogNormal (the paper's model for traces), plan with the DP heuristic
//! on the fit, and score the plan under the truth. Reported: the penalty
//! ratio vs planning directly on the truth.

use crate::report::Table;
use crate::scenarios::{paper_distributions, Fidelity, EPSILON};
use rand::SeedableRng;
use rsj_core::robustness::misspecification_report;
use rsj_core::{CostModel, DiscretizedDp};
use rsj_dist::{fit_lognormal, sample_n, DiscretizationScheme};
use rsj_par::Parallelism;

/// Trace sizes swept (the paper's archives hold "over 5000 runs").
pub(crate) const SAMPLE_SIZES: [usize; 4] = [50, 200, 1000, 5000];

/// One distribution's row: penalty ratio per trace size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Truth distribution label.
    pub distribution: String,
    /// `(trace size, penalty ratio)`; `None` when the fit failed.
    pub penalties: Vec<(usize, Option<f64>)>,
}

/// Computes the ablation.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let cost = CostModel::reservation_only();
    let n_dp = fidelity.discretization().min(500);
    let dists = paper_distributions();
    Parallelism::current().par_map(&dists, |i, nd| {
        let dp = DiscretizedDp::new(DiscretizationScheme::EqualProbability, n_dp, EPSILON)
            .expect("valid parameters");
        let penalties = SAMPLE_SIZES
            .iter()
            .map(|&n| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed.wrapping_mul(389).wrapping_add((i * 31 + n) as u64),
                );
                let samples = sample_n(nd.dist.as_ref(), n, &mut rng);
                let ratio = fit_lognormal(&samples).ok().and_then(|fit| {
                    misspecification_report(&dp, &fit.dist, nd.dist.as_ref(), &cost)
                        .ok()
                        .map(|r| r.penalty_ratio)
                });
                (n, ratio)
            })
            .collect();
        Row {
            distribution: nd.name.to_string(),
            penalties,
        }
    })
}

/// Renders and writes `results/ablation_misfit.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    let mut header = vec!["Truth".to_string()];
    header.extend(SAMPLE_SIZES.iter().map(|n| format!("N={n}")));
    let mut table = Table::new(header);
    for r in &rows {
        let mut cells = vec![r.distribution.clone()];
        cells.extend(r.penalties.iter().map(|&(_, p)| match p {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        }));
        table.push_row(cells)?;
    }
    table.emit(
        "ablation_misfit",
        "Ablation — fit-then-plan fragility: cost of a LogNormal-fitted DP plan vs a truth-informed plan (penalty ratio, 1.0 = free)",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalties_are_plausible_ratios() {
        // Note: the ratio can dip below 1 — the DP planner is itself an
        // approximation, and an accidentally-smoother fitted law sometimes
        // discretizes better than a heavy-tailed truth does.
        let rows = compute(Fidelity::Quick, 41);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            for &(n, p) in &r.penalties {
                let v = p.unwrap_or_else(|| panic!("{}/{n}: fit failed", r.distribution));
                assert!(
                    v > 0.5 && v < 10.0,
                    "{} N={n}: penalty {v} out of plausible range",
                    r.distribution
                );
            }
        }
    }

    #[test]
    fn lognormal_truth_converges_to_free() {
        // Fitting the right family on 5000 samples should be essentially
        // free.
        let rows = compute(Fidelity::Quick, 41);
        let row = rows.iter().find(|r| r.distribution == "Lognormal").unwrap();
        let at_5000 = row.penalties.last().unwrap().1.unwrap();
        assert!(
            at_5000 < 1.05,
            "well-fitted LogNormal plan should be near-free: {at_5000}"
        );
    }

    #[test]
    fn small_traces_are_riskier_on_average() {
        let rows = compute(Fidelity::Quick, 41);
        let avg = |idx: usize| -> f64 {
            let vals: Vec<f64> = rows.iter().filter_map(|r| r.penalties[idx].1).collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            avg(0) >= avg(3) - 0.02,
            "N=50 average penalty {} should not beat N=5000 {}",
            avg(0),
            avg(3)
        );
    }
}
