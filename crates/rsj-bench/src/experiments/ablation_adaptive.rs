//! Ablation (beyond the paper's evaluation): cold-start regret of the
//! online adaptive replanner (system S19). For each Table 1 truth, run the
//! prior → plan → observe → refit → replan loop with (a) the truth itself
//! as prior and (b) a deliberately misspecified prior (a LogNormal
//! moment-matched to *half* the truth's mean and spread), refitting a
//! LogNormal — the paper's §5.3 family — on the censored observation
//! stream. Reported: the cumulative cost ratio vs the known-distribution
//! oracle after 25%, 50% and 100% of the jobs, plus guardrail activity.

use crate::report::Table;
use crate::scenarios::{paper_distributions, Fidelity};
use rand::SeedableRng;
use rsj_core::{CostModel, MeanByMean};
use rsj_dist::{ContinuousDistribution, LogNormal};
use rsj_par::Parallelism;
use rsj_sim::adaptive::{run_adaptive, AdaptiveConfig, AdaptiveReport};

/// One adaptive run's summary: cumulative oracle ratios at checkpoints.
#[derive(Debug, Clone)]
pub struct Row {
    /// Truth distribution label.
    pub distribution: String,
    /// `"correct"` or `"misspecified"`.
    pub prior: &'static str,
    /// Cumulative cost ratio after 25% of the jobs (cold start).
    pub ratio_early: Option<f64>,
    /// Cumulative cost ratio after 50% of the jobs.
    pub ratio_mid: Option<f64>,
    /// Cumulative cost ratio at the end of the run.
    pub ratio_final: Option<f64>,
    /// Replans accepted past the hysteresis threshold.
    pub replans: usize,
    /// Refit rounds that degraded to the empirical fallback.
    pub fallbacks: usize,
    /// Refits rejected by a guardrail.
    pub rejected: usize,
    /// Right-censored observations recorded.
    pub censored: usize,
}

/// Jobs per adaptive run at the given fidelity.
pub(crate) fn jobs(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Paper => 400,
        Fidelity::Quick => 120,
    }
}

/// Cumulative cost ratio vs the oracle after the first `k` jobs.
fn ratio_after(report: &AdaptiveReport, k: usize) -> f64 {
    let k = k.clamp(1, report.jobs.len());
    let cost: f64 = report.jobs[..k].iter().map(|j| j.cost).sum();
    let oracle: f64 = report.jobs[..k].iter().map(|j| j.oracle_cost).sum();
    cost / oracle
}

fn run_one(
    truth: &dyn ContinuousDistribution,
    prior: &dyn ContinuousDistribution,
    label: &'static str,
    name: &str,
    n_jobs: usize,
    seed: u64,
) -> Row {
    let cost = CostModel::reservation_only();
    let strategy = MeanByMean::default();
    let config = AdaptiveConfig {
        censor_after: Some(8),
        ..AdaptiveConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match run_adaptive(truth, prior, &strategy, &cost, n_jobs, &config, &mut rng) {
        Ok(report) => Row {
            distribution: name.to_string(),
            prior: label,
            ratio_early: Some(ratio_after(&report, n_jobs / 4)),
            ratio_mid: Some(ratio_after(&report, n_jobs / 2)),
            ratio_final: Some(report.mean_cost_ratio),
            replans: report.replans,
            fallbacks: report.fallbacks,
            rejected: report.rejected_refits,
            censored: report.censored_observations,
        },
        Err(_) => Row {
            distribution: name.to_string(),
            prior: label,
            ratio_early: None,
            ratio_mid: None,
            ratio_final: None,
            replans: 0,
            fallbacks: 0,
            rejected: 0,
            censored: 0,
        },
    }
}

/// Computes the ablation: two priors per Table 1 truth.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let n_jobs = jobs(fidelity);
    let dists = paper_distributions();
    Parallelism::current()
        .par_map(&dists, |i, nd| {
            let run_seed = seed.wrapping_mul(601).wrapping_add(i as u64);
            let correct = run_one(
                nd.dist.as_ref(),
                nd.dist.as_ref(),
                "correct",
                nd.name,
                n_jobs,
                run_seed,
            );
            // Half the mean and spread: the §5.3 pipeline handed a stale
            // or under-sampled trace archive.
            let misspecified = LogNormal::from_moments(
                nd.dist.mean() / 2.0,
                (nd.dist.variance().sqrt() / 2.0).max(1e-6),
            )
            .map(|prior| {
                run_one(
                    nd.dist.as_ref(),
                    &prior,
                    "misspecified",
                    nd.name,
                    n_jobs,
                    run_seed,
                )
            })
            .unwrap_or_else(|_| Row {
                distribution: nd.name.to_string(),
                prior: "misspecified",
                ratio_early: None,
                ratio_mid: None,
                ratio_final: None,
                replans: 0,
                fallbacks: 0,
                rejected: 0,
                censored: 0,
            });
            vec![correct, misspecified]
        })
        .into_iter()
        .flatten()
        .collect()
}

fn fmt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Renders and writes `results/ablation_adaptive.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    let n_jobs = jobs(fidelity);
    let mut table = Table::new(vec![
        "Truth".to_string(),
        "Prior".to_string(),
        format!("ratio@{}", n_jobs / 4),
        format!("ratio@{}", n_jobs / 2),
        format!("ratio@{n_jobs}"),
        "replans".to_string(),
        "fallbacks".to_string(),
        "rejected".to_string(),
        "censored".to_string(),
    ]);
    for r in &rows {
        table.push_row(vec![
            r.distribution.clone(),
            r.prior.to_string(),
            fmt(r.ratio_early),
            fmt(r.ratio_mid),
            fmt(r.ratio_final),
            r.replans.to_string(),
            r.fallbacks.to_string(),
            r.rejected.to_string(),
            r.censored.to_string(),
        ])?;
    }
    table.emit(
        "ablation_adaptive",
        "Ablation — online adaptive replanning under censored observations: cumulative cost ratio vs the known-distribution oracle (1.0 = oracle-equal), cold start to warm",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_truth_produces_both_rows() {
        let rows = compute(Fidelity::Quick, 17);
        assert_eq!(rows.len(), 18);
        for r in &rows {
            let f = r
                .ratio_final
                .unwrap_or_else(|| panic!("{}/{}: run failed", r.distribution, r.prior));
            assert!(
                f > 0.5 && f < 2.0,
                "{}/{}: final ratio {f} implausible",
                r.distribution,
                r.prior
            );
        }
    }

    #[test]
    fn correct_priors_stay_near_the_oracle() {
        let rows = compute(Fidelity::Quick, 17);
        for r in rows.iter().filter(|r| r.prior == "correct") {
            let f = r.ratio_final.unwrap();
            assert!(
                (0.8..1.2).contains(&f),
                "{}: correct prior should track the oracle, got {f}",
                r.distribution
            );
        }
    }

    #[test]
    fn misspecified_priors_converge_not_diverge() {
        let rows = compute(Fidelity::Quick, 17);
        for r in rows.iter().filter(|r| r.prior == "misspecified") {
            let (early, fin) = (r.ratio_early.unwrap(), r.ratio_final.unwrap());
            assert!(
                fin <= early + 0.1,
                "{}: ratio grew from {early} to {fin}",
                r.distribution
            );
        }
    }
}
