//! Ablation (beyond the paper's evaluation): the §7 checkpointing
//! trade-off, quantified. For each Table 1 distribution, the optimal
//! all-checkpoint cost (discrete DP over completion thresholds) is swept
//! against the checkpoint/restart overhead and compared with the plain
//! Theorem 5 optimum.

use crate::report::Table;
use crate::scenarios::{paper_distributions, Fidelity, EPSILON};
use rsj_core::extensions::{optimal_discrete_checkpointed, CheckpointConfig};
use rsj_core::{optimal_discrete, CostModel};
use rsj_dist::{discretize, DiscretizationScheme};
use rsj_par::Parallelism;

/// Overheads swept, expressed as a fraction of the distribution's mean.
pub(crate) const OVERHEAD_FRACTIONS: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 2.0];

/// One distribution's ablation row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Distribution label.
    pub distribution: String,
    /// Plain (Theorem 5) optimal normalized cost.
    pub plain: f64,
    /// Checkpointed optimal normalized cost per overhead fraction.
    pub checkpointed: Vec<(f64, f64)>,
}

/// Computes the ablation.
pub(crate) fn compute(fidelity: Fidelity) -> Vec<Row> {
    let cost = CostModel::reservation_only();
    let n = fidelity.discretization().min(500); // DP is O(n²) per overhead
    let dists = paper_distributions();
    Parallelism::current().par_map(&dists, |_, nd| {
        let discrete = discretize(
            nd.dist.as_ref(),
            DiscretizationScheme::EqualProbability,
            n,
            EPSILON,
        )
        .expect("paper distributions discretize");
        let omniscient = cost.omniscient(nd.dist.as_ref());
        let plain = optimal_discrete(&discrete, &cost)
            .expect("DP succeeds")
            .expected_cost
            / omniscient;
        let mean = nd.dist.mean();
        let checkpointed = OVERHEAD_FRACTIONS
            .iter()
            .map(|&frac| {
                let ck =
                    CheckpointConfig::new(frac * mean, frac * mean).expect("nonnegative overheads");
                let sol = optimal_discrete_checkpointed(&discrete, &cost, &ck)
                    .expect("checkpoint DP succeeds");
                (frac, sol.expected_cost / omniscient)
            })
            .collect();
        Row {
            distribution: nd.name.to_string(),
            plain,
            checkpointed,
        }
    })
}

/// Renders and writes `results/ablation_checkpoint.{md,csv}`.
pub fn emit(fidelity: Fidelity) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity);
    let mut header = vec!["Distribution".to_string(), "no ckpt".to_string()];
    header.extend(OVERHEAD_FRACTIONS.iter().map(|f| format!("C=R={}·mean", f)));
    let mut table = Table::new(header);
    for r in &rows {
        let mut cells = vec![r.distribution.clone(), format!("{:.2}", r.plain)];
        cells.extend(r.checkpointed.iter().map(|&(_, c)| format!("{c:.2}")));
        table.push_row(cells)?;
    }
    table.emit(
        "ablation_checkpoint",
        "Ablation — §7 checkpointing: optimal normalized cost vs checkpoint/restart overhead (RESERVATIONONLY)",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_checkpoints_never_lose() {
        let rows = compute(Fidelity::Quick);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            let cheapest = r.checkpointed[0].1;
            assert!(
                cheapest <= r.plain + 1e-6,
                "{}: near-free checkpoints ({cheapest}) must not lose to plain ({})",
                r.distribution,
                r.plain
            );
        }
    }

    #[test]
    fn cost_is_monotone_in_overhead() {
        let rows = compute(Fidelity::Quick);
        for r in &rows {
            for w in r.checkpointed.windows(2) {
                assert!(
                    w[1].1 >= w[0].1 - 1e-9,
                    "{}: cost must grow with overhead: {:?}",
                    r.distribution,
                    r.checkpointed
                );
            }
        }
    }

    #[test]
    fn heavy_tails_benefit_most() {
        // Weibull(1, 0.5) re-executes enormous amounts of work without
        // checkpoints; its relative gain at tiny overhead should exceed
        // the uniform distribution's (which gains nothing: one reservation
        // is already optimal).
        let rows = compute(Fidelity::Quick);
        let gain = |name: &str| {
            let r = rows.iter().find(|r| r.distribution == name).unwrap();
            r.plain - r.checkpointed[0].1
        };
        assert!(
            gain("Weibull") > gain("Uniform") + 0.1,
            "Weibull gain {} vs Uniform gain {}",
            gain("Weibull"),
            gain("Uniform")
        );
    }
}
