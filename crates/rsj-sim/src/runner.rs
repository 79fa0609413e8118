//! End-to-end reservation execution (system S11): replay a strategy
//! against batches of sampled jobs and aggregate the Eq. 2 accounting, plus
//! the bridge that turns a simulated queue into a NeuroHPC-style cost
//! model.

use crate::error::SimError;
use crate::wait_time::WaitTimeAnalysis;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rsj_core::{run_job, CostModel, ReservationSequence, RunOutcome};
use rsj_dist::ContinuousDistribution;
use rsj_par::{substream_seed, Parallelism};
use serde::{Deserialize, Serialize};

/// Aggregate statistics of running many jobs through one sequence.
///
/// The robustness fields (`failures`, `restarts`, `mean_rework`,
/// `gave_up`) are zero for fault-free execution and are filled by
/// [`crate::resilient::run_batch_resilient`]; they default to zero when
/// deserializing pre-fault-layer JSON.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Mean total cost per job (the Eq. 13 estimator).
    pub mean_cost: f64,
    /// 95th percentile of per-job cost.
    pub p95_cost: f64,
    /// Maximum per-job cost.
    pub max_cost: f64,
    /// Mean number of reservations needed per job.
    pub mean_reservations: f64,
    /// Largest number of reservations any job needed.
    pub max_reservations: usize,
    /// Mean reserved-but-unused time per job.
    pub mean_waste: f64,
    /// Fraction of reserved time that was wasted, aggregated.
    pub waste_fraction: f64,
    /// Faults endured across the batch.
    #[serde(default)]
    pub failures: usize,
    /// Post-fault restarts (a job that gives up does not restart after
    /// its final fault).
    #[serde(default)]
    pub restarts: usize,
    /// Mean computation time lost to faults per job.
    #[serde(default)]
    pub mean_rework: f64,
    /// Jobs that exhausted the retry budget without completing.
    #[serde(default)]
    pub gave_up: usize,
}

/// Runs `n` jobs sampled from `dist` through `seq` and aggregates the
/// outcomes. Errors on an empty batch instead of panicking.
///
/// Durations are drawn from `rng` serially — one draw per job, in order,
/// exactly as a fully serial loop would — and then executed on the ambient
/// [`Parallelism`] (`run_job` is a pure function of the drawn duration),
/// so the statistics are bit-for-bit identical at any thread count.
pub fn run_batch(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
    n: usize,
    rng: &mut dyn RngCore,
) -> Result<BatchStats, SimError> {
    if n == 0 {
        return Err(SimError::EmptyBatch);
    }
    let _span = rsj_obs::span!("sim.run_batch", "rsj_sim_batch_wall_seconds");
    let durations: Vec<f64> = (0..n).map(|_| dist.sample(rng)).collect();
    let outcomes: Vec<RunOutcome> =
        Parallelism::current().try_par_map(&durations, |_, &t| run_job(seq, cost, t))?;
    let stats = aggregate(&outcomes)?;
    record_batch_metrics(&outcomes, &stats);
    Ok(stats)
}

/// Jobs per quantile sweep in [`run_batch_seeded`]. Each chunk of the
/// sorted uniforms starts cold, so the bits do not depend on the thread
/// count.
const SWEEP_CHUNK: usize = 4096;

/// Runs `n` jobs through `seq` with **per-job seeded RNG substreams**: job
/// `i` draws its uniform from a fresh RNG seeded with
/// [`substream_seed`]`(seed, i)`, so the sampled workload is a function of
/// `(seed, i)` alone — independent of execution order — and serial and
/// parallel runs consume identical randomness. Durations come by inverse
/// transform: the uniforms are sorted and inverted as
/// [`quantiles`](ContinuousDistribution::quantiles) sweeps of 4,096 jobs
/// on `par`, then scattered back to job order. A non-finite or negative
/// draw is a typed [`SimError::NonFiniteSample`] naming the lowest
/// offending job index.
pub fn run_batch_seeded(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
    n: usize,
    seed: u64,
    par: &Parallelism,
) -> Result<BatchStats, SimError> {
    if n == 0 {
        return Err(SimError::EmptyBatch);
    }
    let _span = rsj_obs::span!("sim.run_batch_seeded", "rsj_sim_batch_wall_seconds");
    let uniforms: Vec<f64> = par.try_par_run(n, |i| {
        StdRng::seed_from_u64(substream_seed(seed, i as u64)).gen::<f64>()
    })?;
    // Ties broken by job index, so the order is a function of the draws.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&i, &j| uniforms[i].total_cmp(&uniforms[j]).then(i.cmp(&j)));
    let sorted: Vec<f64> = order.iter().map(|&i| uniforms[i]).collect();
    let chunks: Vec<&[f64]> = sorted.chunks(SWEEP_CHUNK).collect();
    let sweeps = par.try_par_map(&chunks, |_, chunk| dist.quantiles(chunk))?;
    let mut durations = uniforms;
    for (&i, t) in order.iter().zip(sweeps.into_iter().flatten()) {
        durations[i] = t;
    }
    if let Some((index, &value)) = durations
        .iter()
        .enumerate()
        .find(|(_, t)| !t.is_finite() || **t < 0.0)
    {
        return Err(SimError::NonFiniteSample { index, value });
    }
    let outcomes = par.try_par_map(&durations, |_, &t| run_job(seq, cost, t))?;
    let stats = aggregate(&outcomes)?;
    record_batch_metrics(&outcomes, &stats);
    Ok(stats)
}

/// Feeds one batch's outcomes into the global metrics registry: per-job
/// cost and reservation-count histograms (accumulated locally, merged
/// under one lock — the shard pattern) plus batch-level counters. No-op
/// unless metrics are enabled.
pub(crate) fn record_batch_metrics(outcomes: &[RunOutcome], stats: &BatchStats) {
    if !rsj_obs::metrics_enabled() {
        return;
    }
    let mut cost_hist = rsj_obs::Histogram::new();
    let mut reservations_hist = rsj_obs::Histogram::new();
    let mut waste_hist = rsj_obs::Histogram::new();
    for o in outcomes {
        cost_hist.record(o.cost);
        reservations_hist.record(o.reservations as f64);
        waste_hist.record(o.wasted_time);
    }
    let reg = rsj_obs::global_registry();
    reg.counter("rsj_sim_batches_total").inc();
    reg.counter("rsj_sim_jobs_total").add(stats.jobs as u64);
    reg.histogram("rsj_sim_job_cost").merge_from(&cost_hist);
    reg.histogram("rsj_sim_job_reservations")
        .merge_from(&reservations_hist);
    reg.histogram("rsj_sim_job_waste").merge_from(&waste_hist);
    reg.gauge("rsj_sim_waste_fraction")
        .set(stats.waste_fraction);
}

/// Aggregates precomputed run outcomes. Errors on an empty slice or a
/// non-finite cost (order statistics would be undefined) instead of
/// panicking.
pub fn aggregate(outcomes: &[RunOutcome]) -> Result<BatchStats, SimError> {
    if outcomes.is_empty() {
        return Err(SimError::EmptyBatch);
    }
    if let Some((index, o)) = outcomes
        .iter()
        .enumerate()
        .find(|(_, o)| !o.cost.is_finite())
    {
        return Err(SimError::NonFiniteCost {
            index,
            value: o.cost,
        });
    }
    let n = outcomes.len();
    let mut costs: Vec<f64> = outcomes.iter().map(|o| o.cost).collect();
    costs.sort_by(f64::total_cmp);
    let mean_cost = costs.iter().sum::<f64>() / n as f64;
    let p95_cost = costs[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
    let max_cost = *costs.last().expect("checked non-empty");
    let mean_reservations = outcomes.iter().map(|o| o.reservations as f64).sum::<f64>() / n as f64;
    let max_reservations = outcomes
        .iter()
        .map(|o| o.reservations)
        .max()
        .expect("checked non-empty");
    let total_waste: f64 = outcomes.iter().map(|o| o.wasted_time).sum();
    let total_reserved: f64 = outcomes.iter().map(|o| o.reserved_time).sum();
    Ok(BatchStats {
        jobs: n,
        mean_cost,
        p95_cost,
        max_cost,
        mean_reservations,
        max_reservations,
        mean_waste: total_waste / n as f64,
        waste_fraction: if total_reserved > 0.0 {
            total_waste / total_reserved
        } else {
            0.0
        },
        failures: 0,
        restarts: 0,
        mean_rework: 0.0,
        gave_up: 0,
    })
}

/// Builds the NeuroHPC cost model from a queue analysis: the total
/// turnaround of a reservation of length `R` is `wait(R) + min(R, t)` with
/// `wait(R) ≈ α·R + γ` from the Figure 2 fit, giving `CostModel(α, 1, γ)`
/// (§5.3).
///
/// Negative fitted coefficients are clamped to the model's validity domain
/// (`α > 0`, `γ ≥ 0`), which can occur on lightly-loaded simulated queues.
pub fn cost_model_from_queue(analysis: &WaitTimeAnalysis) -> CostModel {
    let alpha = analysis.fit.slope.max(1e-6);
    let gamma = analysis.fit.intercept.max(0.0);
    CostModel::new(alpha, 1.0, gamma).expect("clamped coefficients are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsj_core::expected_cost_analytic;
    use rsj_dist::{fit_affine, LogNormal, Uniform};

    #[test]
    fn batch_mean_converges_to_analytic() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::reservation_only();
        let seq = rsj_core::MeanByMean::default().sequence(&d, &c).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let stats = run_batch(&seq, &d, &c, 100_000, &mut rng).unwrap();
        let analytic = expected_cost_analytic(&seq, &d, &c);
        assert!(
            (stats.mean_cost - analytic).abs() / analytic < 0.02,
            "batch {} vs analytic {analytic}",
            stats.mean_cost
        );
        use rsj_core::Strategy as _;
    }

    #[test]
    fn single_reservation_has_one_attempt() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let seq = ReservationSequence::single(20.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let stats = run_batch(&seq, &d, &c, 5000, &mut rng).unwrap();
        assert_eq!(stats.max_reservations, 1);
        assert!((stats.mean_cost - 20.0).abs() < 1e-9);
        // Waste = 20 - E[X] = 5 on average.
        assert!(
            (stats.mean_waste - 5.0).abs() < 0.2,
            "waste {}",
            stats.mean_waste
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let seq = rsj_core::Strategy::sequence(&rsj_core::MeanDoubling::default(), &d, &c).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let stats = run_batch(&seq, &d, &c, 10_000, &mut rng).unwrap();
        assert!(stats.mean_cost <= stats.p95_cost);
        assert!(stats.p95_cost <= stats.max_cost);
        assert!(stats.waste_fraction >= 0.0 && stats.waste_fraction <= 1.0);
    }

    #[test]
    fn empty_and_degenerate_batches_are_typed_errors() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let seq = ReservationSequence::single(20.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(
            run_batch(&seq, &d, &c, 0, &mut rng),
            Err(SimError::EmptyBatch)
        );
        assert_eq!(aggregate(&[]), Err(SimError::EmptyBatch));
        let bad = RunOutcome {
            cost: f64::NAN,
            reservations: 1,
            reserved_time: 1.0,
            wasted_time: 0.0,
        };
        assert!(matches!(
            aggregate(&[bad]),
            Err(SimError::NonFiniteCost { index: 0, .. })
        ));
    }

    /// A law whose quantile is NaN below p = 0.01.
    #[derive(Debug)]
    struct NanBelowOnePercent;

    impl ContinuousDistribution for NanBelowOnePercent {
        fn name(&self) -> String {
            "NanBelowOnePercent".into()
        }
        fn support(&self) -> rsj_dist::Support {
            rsj_dist::Support::Bounded {
                lower: 0.0,
                upper: 1.0,
            }
        }
        fn pdf(&self, _t: f64) -> f64 {
            1.0
        }
        fn cdf(&self, t: f64) -> f64 {
            t
        }
        fn quantile(&self, p: f64) -> f64 {
            if p < 0.01 {
                f64::NAN
            } else {
                p
            }
        }
        fn mean(&self) -> f64 {
            0.5
        }
        fn variance(&self) -> f64 {
            1.0 / 12.0
        }
    }

    /// The jobs are inverted in the order of their uniforms, across
    /// several sweeps, yet the error names the lowest failing job index.
    #[test]
    fn a_non_finite_draw_names_the_lowest_job() {
        let (n, seed) = (10_000, 11);
        let first = (0..n)
            .find(|&i| StdRng::seed_from_u64(substream_seed(seed, i as u64)).gen::<f64>() < 0.01)
            .expect("some job draws below 0.01");
        let seq = ReservationSequence::single(1.0).unwrap();
        let c = CostModel::reservation_only();
        for threads in [1, 3] {
            let par = Parallelism::new(threads).unwrap();
            let err = run_batch_seeded(&seq, &NanBelowOnePercent, &c, n, seed, &par).unwrap_err();
            assert!(
                matches!(err, SimError::NonFiniteSample { index, value } if index == first && value.is_nan()),
                "{err:?}, expected job {first}"
            );
        }
    }

    #[test]
    fn stats_deserialize_without_robustness_fields() {
        // Pre-fault-layer JSON lacks the robustness fields; they default.
        let json = r#"{
            "jobs": 2, "mean_cost": 1.0, "p95_cost": 1.5, "max_cost": 2.0,
            "mean_reservations": 1.0, "max_reservations": 1,
            "mean_waste": 0.1, "waste_fraction": 0.05
        }"#;
        let stats: BatchStats = serde_json::from_str(json).unwrap();
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.mean_rework, 0.0);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn cost_model_from_queue_clamps() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 4.0, 3.0]; // negative slope
        let fit = fit_affine(&xs, &ys).unwrap();
        let analysis = WaitTimeAnalysis {
            processors: 204,
            groups: vec![],
            fit,
        };
        let cm = cost_model_from_queue(&analysis);
        assert!(cm.alpha > 0.0);
        assert!(cm.gamma >= 0.0);
        assert_eq!(cm.beta, 1.0);
    }
}
