//! Ablation (beyond the paper's evaluation): how fragile are reservation
//! sequences under platform faults? For each Table 1 distribution, a batch
//! of jobs is executed through the resilient runner while exponential-MTBF
//! crashes kill reservations mid-flight. The MTBF is swept as a multiple
//! of the distribution's mean, with checkpoint/restart either disabled
//! (restart from scratch) or enabled at a small overhead. The metric is
//! the mean-cost inflation relative to the fault-free batch on the same
//! job sample.

use crate::report::Table;
use crate::scenarios::{paper_distributions, Fidelity};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsj_core::extensions::CheckpointConfig;
use rsj_core::{CostModel, MeanDoubling, Strategy};
use rsj_par::Parallelism;
use rsj_sim::{run_batch, run_batch_resilient, FaultConfig, ResilienceConfig, RetryPolicy};

/// MTBF values swept, expressed as multiples of the distribution's mean.
pub(crate) const MTBF_FRACTIONS: [f64; 4] = [0.5, 1.0, 2.0, 10.0];

/// Checkpoint/restart overhead as a fraction of the distribution's mean.
pub(crate) const CHECKPOINT_OVERHEAD_FRACTION: f64 = 0.05;

/// Retry budget per job before the runner returns a degraded outcome.
pub(crate) const MAX_FAILURES: usize = 50;

/// One MTBF cell of a distribution's sweep.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// MTBF as a multiple of the distribution's mean.
    pub mtbf_fraction: f64,
    /// Mean-cost inflation without checkpointing (faulted / fault-free).
    pub inflation_scratch: f64,
    /// Mean-cost inflation with checkpoint-restart.
    pub inflation_checkpointed: f64,
    /// Total faults injected across the batch (scratch variant).
    pub failures: usize,
    /// Jobs abandoned after exhausting the retry budget (scratch variant).
    pub gave_up: usize,
}

/// One distribution's fault-ablation row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Distribution label.
    pub distribution: String,
    /// Fault-free mean cost of the batch (the inflation denominator).
    pub baseline: f64,
    /// One cell per swept MTBF fraction, in `MTBF_FRACTIONS` order.
    pub cells: Vec<Cell>,
}

/// Computes the ablation: Mean-Doubling sequences executed resiliently
/// under crash faults, MTBF × checkpoint on/off, per Table 1 distribution.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let cost = CostModel::reservation_only();
    let n = fidelity.samples();
    let dists = paper_distributions();
    Parallelism::current().par_map(&dists, |d, nd| {
        let dist = nd.dist.as_ref();
        let seq = MeanDoubling::default()
            .sequence(dist, &cost)
            .expect("paper distributions admit sequences");
        let mean = dist.mean();

        // The same job sample everywhere: each run reseeds the
        // workload RNG, so inflation isolates the fault process.
        let job_seed = seed ^ (d as u64).wrapping_mul(0x9e37_79b9);
        let fresh = || StdRng::seed_from_u64(job_seed);

        let baseline = run_batch(&seq, dist, &cost, n, &mut fresh())
            .expect("baseline batch runs")
            .mean_cost;

        let cells = MTBF_FRACTIONS
            .iter()
            .enumerate()
            .map(|(m, &frac)| {
                let faults = FaultConfig::crashes(frac * mean, seed ^ (m as u64) << 8);
                let overhead = CHECKPOINT_OVERHEAD_FRACTION * mean;
                let scratch = run_batch_resilient(
                    &seq,
                    dist,
                    &cost,
                    n,
                    &mut fresh(),
                    &ResilienceConfig {
                        faults,
                        retry: RetryPolicy::RetrySameSlot,
                        max_failures: MAX_FAILURES,
                        checkpoint: None,
                    },
                )
                .expect("faulted batch runs");
                let checkpointed = run_batch_resilient(
                    &seq,
                    dist,
                    &cost,
                    n,
                    &mut fresh(),
                    &ResilienceConfig {
                        faults,
                        retry: RetryPolicy::RetrySameSlot,
                        max_failures: MAX_FAILURES,
                        checkpoint: Some(
                            CheckpointConfig::new(overhead, overhead)
                                .expect("nonnegative overheads"),
                        ),
                    },
                )
                .expect("checkpointed batch runs");
                Cell {
                    mtbf_fraction: frac,
                    inflation_scratch: scratch.mean_cost / baseline,
                    inflation_checkpointed: checkpointed.mean_cost / baseline,
                    failures: scratch.failures,
                    gave_up: scratch.gave_up,
                }
            })
            .collect();
        Row {
            distribution: nd.name.to_string(),
            baseline,
            cells,
        }
    })
}

/// Renders and writes `results/ablation_faults.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    let mut header = vec!["Distribution".to_string()];
    for frac in MTBF_FRACTIONS {
        header.push(format!("MTBF={frac}·mean scratch"));
        header.push(format!("MTBF={frac}·mean ckpt"));
    }
    let mut table = Table::new(header);
    for r in &rows {
        let mut cells = vec![r.distribution.clone()];
        for c in &r.cells {
            cells.push(format!("{:.2}", c.inflation_scratch));
            cells.push(format!("{:.2}", c.inflation_checkpointed));
        }
        table.push_row(cells)?;
    }
    table.emit(
        "ablation_faults",
        "Ablation — fault injection: mean-cost inflation vs fault-free under exponential-MTBF crashes (Mean-Doubling, RESERVATIONONLY)",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_nine_distributions() {
        let rows = compute(Fidelity::Quick, 1);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert_eq!(r.cells.len(), MTBF_FRACTIONS.len());
            assert!(r.baseline.is_finite() && r.baseline > 0.0);
        }
    }

    #[test]
    fn crashes_never_deflate_cost() {
        // Crash faults only add rework under RESERVATIONONLY pricing, so
        // every inflation ratio stays at or above one.
        let rows = compute(Fidelity::Quick, 1);
        for r in &rows {
            for c in &r.cells {
                assert!(
                    c.inflation_scratch >= 1.0 - 1e-9,
                    "{} at MTBF {}·mean: scratch inflation {}",
                    r.distribution,
                    c.mtbf_fraction,
                    c.inflation_scratch
                );
            }
        }
    }

    #[test]
    fn rare_faults_hurt_less_than_frequent_ones() {
        let rows = compute(Fidelity::Quick, 1);
        for r in &rows {
            let first = r.cells.first().unwrap();
            let last = r.cells.last().unwrap();
            assert!(
                last.inflation_scratch <= first.inflation_scratch + 1e-9,
                "{}: MTBF 10·mean ({}) should beat 0.5·mean ({})",
                r.distribution,
                last.inflation_scratch,
                first.inflation_scratch
            );
            assert!(last.failures <= first.failures);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = compute(Fidelity::Quick, 7);
        let b = compute(Fidelity::Quick, 7);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.baseline, rb.baseline);
            for (ca, cb) in ra.cells.iter().zip(&rb.cells) {
                assert_eq!(ca.inflation_scratch, cb.inflation_scratch);
                assert_eq!(ca.inflation_checkpointed, cb.inflation_checkpointed);
                assert_eq!(ca.failures, cb.failures);
            }
        }
    }
}
