//! Bit-for-bit determinism of the parallel execution layer: every batch
//! runner and every solver that fans out produces *identical* results at
//! any thread count, worker panics surface as typed errors instead of
//! aborting the process, and invalid pool configurations are rejected up
//! front.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rsj_core::{
    BruteForce, CostModel, DiscretizedDp, EvalMethod, MeanDoubling, ReservationSequence, Strategy,
};
use rsj_dist::{ContinuousDistribution, DiscretizationScheme, DistSpec, LogNormal, Support};
use rsj_par::{ParError, Parallelism};
use rsj_sim::{
    run_adaptive, run_batch, run_batch_resilient, run_batch_seeded, AdaptiveConfig, FaultConfig,
    ResilienceConfig, RetryPolicy, SimError,
};

/// Serializes tests that install an ambient (global) `Parallelism`; the
/// test harness runs `#[test]` fns on multiple threads and the global is
/// process-wide.
static GLOBAL_POOL: Mutex<()> = Mutex::new(());

fn setup() -> (ReservationSequence, LogNormal, CostModel) {
    let dist = LogNormal::new(1.0, 0.8).unwrap();
    let cost = CostModel::new(1.0, 0.5, 0.2).unwrap();
    let seq = MeanDoubling::default().sequence(&dist, &cost).unwrap();
    (seq, dist, cost)
}

fn faulty_config() -> ResilienceConfig {
    ResilienceConfig {
        faults: FaultConfig {
            seed: 7,
            mtbf: Some(5.0),
            preemption_rate: Some(0.05),
            walltime_jitter: Some(0.1),
        },
        retry: RetryPolicy::ExponentialBackoff { factor: 1.5 },
        max_failures: 20,
        checkpoint: None,
    }
}

/// `run_batch_seeded` is a pure function of `(seed, n)`: one, three and
/// four workers produce bit-for-bit identical `BatchStats`.
#[test]
fn seeded_runner_identical_across_thread_counts() {
    let (seq, dist, cost) = setup();
    let runs: Vec<_> = [1usize, 3, 4]
        .iter()
        .map(|&threads| {
            let par = Parallelism::new(threads).unwrap();
            run_batch_seeded(&seq, &dist, &cost, 5000, 42, &par).unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

/// Every Table 1 law, through each solver path the pool can reach, at 1,
/// 2 and 4 threads: the brute-force sweep and the seeded batch simulator
/// fan out; the DP at this size runs serially at any width, and its rows
/// keep the solver set complete. Rows compare `Debug` text, which prints
/// each `f64` round-trip exact.
#[test]
fn table1_solvers_identical_across_thread_counts() {
    let _guard = GLOBAL_POOL.lock().unwrap_or_else(|p| p.into_inner());
    let cost = CostModel::reservation_only();
    let run_at = |threads: usize| {
        let par = Parallelism::new(threads).unwrap();
        // The DP solves on the ambient pool.
        par.install_global();
        let brute = BruteForce::new(300, 400, EvalMethod::Analytic, 42)
            .unwrap()
            .with_parallelism(par);
        let mut rows = Vec::new();
        for (name, spec) in DistSpec::paper_table1() {
            let dist = spec.build().unwrap();
            let dist = dist.as_ref();
            let plan = brute.sequence(dist, &cost).unwrap();
            rows.push((name, "brute_force", format!("{:?}", plan.times())));
            for (tag, scheme) in [
                ("dp_equal_time", DiscretizationScheme::EqualTime),
                (
                    "dp_equal_probability",
                    DiscretizationScheme::EqualProbability,
                ),
            ] {
                let dp = DiscretizedDp::new(scheme, 200, 1e-7).unwrap();
                let plan = dp.sequence(dist, &cost).unwrap();
                rows.push((name, tag, format!("{:?}", plan.times())));
            }
            let seq = MeanDoubling::default().sequence(dist, &cost).unwrap();
            let stats = run_batch_seeded(&seq, dist, &cost, 400, 42, &par).unwrap();
            rows.push((name, "batch_seeded", format!("{stats:?}")));
        }
        rows
    };
    let serial = run_at(1);
    let wide: Vec<_> = [2, 4].into_iter().map(|t| (t, run_at(t))).collect();
    Parallelism::clear_global();
    assert_eq!(serial.len(), 9 * 4);
    for (threads, rows) in wide {
        for (one, many) in serial.iter().zip(&rows) {
            assert_eq!(one, many, "{} / {} at {threads} threads", one.0, one.1);
        }
    }
}

/// The rng-driven entry points (`run_batch`, `run_batch_resilient`)
/// pre-draw durations serially, so the ambient pool width cannot change
/// which randomness each job consumes; per-job fault substreams make the
/// resilient batch independent of worker count and execution order.
#[test]
fn ambient_pool_width_does_not_change_rng_batches() {
    let _guard = GLOBAL_POOL.lock().unwrap_or_else(|p| p.into_inner());
    let (seq, dist, cost) = setup();
    let config = faulty_config();
    let run_both = |threads: usize| {
        Parallelism::new(threads).unwrap().install_global();
        let plain = run_batch(&seq, &dist, &cost, 3000, &mut StdRng::seed_from_u64(42)).unwrap();
        let resilient = run_batch_resilient(
            &seq,
            &dist,
            &cost,
            3000,
            &mut StdRng::seed_from_u64(42),
            &config,
        )
        .unwrap();
        (plain, resilient)
    };
    let serial = run_both(1);
    let wide = run_both(4);
    Parallelism::clear_global();
    assert_eq!(serial, wide);
    assert!(serial.1.failures > 0, "fault config should actually inject");
}

/// Adaptive replanning executes refit-interval blocks in parallel; with a
/// block size past the parallel threshold the full `AdaptiveReport`
/// (per-job costs, refit records, regret) is identical at 1 and 4 threads.
#[test]
fn adaptive_report_identical_across_thread_counts() {
    let _guard = GLOBAL_POOL.lock().unwrap_or_else(|p| p.into_inner());
    let truth = LogNormal::new(1.2, 0.6).unwrap();
    let prior = LogNormal::new(0.5, 1.0).unwrap();
    let strategy = MeanDoubling::default();
    let cost = CostModel::new(1.0, 0.5, 0.2).unwrap();
    let config = AdaptiveConfig {
        // Past MIN_PAR_BLOCK (64) so the parallel path actually engages.
        refit_interval: 100,
        censor_after: Some(3),
        resilience: faulty_config(),
        ..AdaptiveConfig::default()
    };
    let run_at = |threads: usize| {
        Parallelism::new(threads).unwrap().install_global();
        run_adaptive(
            &truth,
            &prior,
            &strategy,
            &cost,
            300,
            &config,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap()
    };
    let serial = run_at(1);
    let wide = run_at(4);
    Parallelism::clear_global();
    assert_eq!(serial, wide);
    assert!(serial.replans > 0, "the run should actually replan");
}

/// A distribution whose sampler panics, to prove worker panics become
/// typed errors rather than aborting the batch.
#[derive(Debug)]
struct PanickingDist;

impl ContinuousDistribution for PanickingDist {
    fn name(&self) -> String {
        "Panicking".into()
    }
    fn support(&self) -> Support {
        Support::Unbounded { lower: 0.0 }
    }
    fn pdf(&self, _t: f64) -> f64 {
        0.0
    }
    fn cdf(&self, _t: f64) -> f64 {
        0.0
    }
    fn quantile(&self, _p: f64) -> f64 {
        panic!("synthetic sampler failure");
    }
    fn mean(&self) -> f64 {
        1.0
    }
    fn variance(&self) -> f64 {
        1.0
    }
    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        panic!("synthetic sampler failure");
    }
}

/// A worker panic mid-batch surfaces as `SimError::Parallel(WorkerPanicked)`
/// — on the multi-threaded *and* the serial path.
#[test]
fn worker_panic_is_a_typed_error() {
    let (seq, _, cost) = setup();
    for threads in [1usize, 4] {
        let par = Parallelism::new(threads).unwrap();
        let err = run_batch_seeded(&seq, &PanickingDist, &cost, 64, 1, &par).unwrap_err();
        match err {
            SimError::Parallel(ParError::WorkerPanicked { message }) => {
                assert!(
                    message.contains("synthetic sampler failure"),
                    "panic payload should be preserved, got: {message}"
                );
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}

/// `--threads 0` style misconfiguration is a typed error that converts
/// into `SimError` for uniform CLI surfacing.
#[test]
fn zero_threads_is_a_typed_error() {
    let err = Parallelism::new(0).unwrap_err();
    assert_eq!(err, ParError::ZeroThreads);
    let sim: SimError = err.into();
    assert!(sim.to_string().contains("parallel execution failed"));
}
