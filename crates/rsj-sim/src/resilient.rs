//! Resilient reservation executor (system S18): [`rsj_core::run_job`]
//! under fault injection, with checkpoint-restart and pluggable retry
//! policies.
//!
//! The base model charges Eq. 1 per reservation and restarts failed jobs
//! from scratch. This module adds what real platforms add:
//!
//! * a reservation can be *interrupted* mid-flight by a fault from
//!   [`crate::fault`]; the interrupted reservation is billed for its
//!   *elapsed* time only, `α·R′ + β·R′ + γ` with `R′` the time until the
//!   fault (Eq. 1 applied to the elapsed prefix — the platform was used
//!   until the crash);
//! * recovery restarts from scratch, or from the last checkpoint when a
//!   [`CheckpointConfig`] is supplied (reusing the §7 all-checkpoint
//!   accounting of [`rsj_core::extensions::checkpoint`]);
//! * a [`RetryPolicy`] decides which reservation to request next after a
//!   fault;
//! * after `max_failures` faults the executor *gives up* and returns a
//!   degraded [`ResilientOutcome`] (`completed = false`) instead of
//!   panicking or looping.
//!
//! With faults disabled the executor reproduces [`rsj_core::run_job`]
//! (and, with a checkpoint configuration,
//! [`rsj_core::extensions::checkpoint::run_job_checkpointed`])
//! **bit-for-bit**: same branches, same floating-point expressions, and no
//! extra draws from any RNG.

use crate::error::{check_param, SimError};
use crate::fault::{FaultConfig, FaultEvent, FaultInjector};
use crate::runner::{aggregate, BatchStats};
use rand::RngCore;
use rsj_core::extensions::CheckpointConfig;
use rsj_core::{CostModel, ReservationSequence, RunOutcome};
use rsj_dist::ContinuousDistribution;
use rsj_par::Parallelism;
use serde::{Deserialize, Serialize};

/// What the executor requests after a fault interrupts a reservation.
///
/// Ordinary too-short reservations always advance down the sequence, as in
/// the base model; the policy only governs the response to *faults*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(tag = "policy", rename_all = "snake_case")]
pub enum RetryPolicy {
    /// Re-request the interrupted reservation length (default): the fault
    /// says nothing about the job's duration, so the plan is unchanged.
    #[default]
    RetrySameSlot,
    /// Advance to the next `t_i` of the sequence, treating the fault like
    /// an ordinary failed reservation.
    AdvanceSequence,
    /// Multiply the requested length by `factor` (≥ 1) after every fault —
    /// buy safety margin against losing long reservations repeatedly.
    ExponentialBackoff {
        /// Multiplier applied to all subsequent requests.
        factor: f64,
    },
}

fn default_max_failures() -> usize {
    8
}

/// Full configuration of the resilient executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// The fault processes (default: fault-free).
    #[serde(default)]
    pub faults: FaultConfig,
    /// Response to a fault (default: retry the same slot).
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Give up after this many faults on one job, returning a degraded
    /// outcome (default 8; must be ≥ 1).
    #[serde(default = "default_max_failures")]
    pub max_failures: usize,
    /// Checkpoint/restart overheads; `None` restarts from scratch.
    #[serde(default)]
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            max_failures: default_max_failures(),
            checkpoint: None,
        }
    }
}

impl ResilienceConfig {
    /// Fault-free execution with default retry settings.
    pub fn fault_free() -> Self {
        Self::default()
    }

    /// Validates every parameter, naming the offending field on failure.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        self.faults.validate()?;
        if let RetryPolicy::ExponentialBackoff { factor } = self.retry {
            check_param("factor", factor, "must be >= 1", factor >= 1.0)?;
        }
        if self.max_failures == 0 {
            return Err(SimError::InvalidParameter {
                name: "max_failures",
                value: 0.0,
                requirement: "must be >= 1",
            });
        }
        Ok(())
    }
}

/// The outcome of one job under the resilient executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientOutcome {
    /// Eq. 2 accounting over every paid (full or elapsed-billed) attempt.
    pub outcome: RunOutcome,
    /// Whether the job finished (`false` after `max_failures` faults; the
    /// accrued cost then bought nothing and `wasted_time` equals
    /// `reserved_time`).
    pub completed: bool,
    /// Faults endured.
    pub failures: usize,
    /// Useful work lost to faults (computed since the last checkpoint —
    /// or since the attempt's start without checkpointing — and thrown
    /// away).
    pub rework_time: f64,
    /// Chronological fault trace (empty when fault-free).
    pub faults: Vec<FaultEvent>,
}

/// Runs a job of duration `t` through `seq` under fault injection.
///
/// The caller owns the [`FaultInjector`] so one deterministic fault
/// stream spans a whole batch. Panics (like [`rsj_core::run_job`]) if `t`
/// is not finite; configuration errors are caught by
/// `ResilienceConfig::validate` in [`run_batch_resilient`].
pub fn run_job_resilient(
    seq: &ReservationSequence,
    cost: &CostModel,
    config: &ResilienceConfig,
    t: f64,
    injector: &mut FaultInjector,
) -> ResilientOutcome {
    assert!(
        t >= 0.0 && t.is_finite(),
        "job duration must be finite, got {t}"
    );
    let ckpt = config.checkpoint;
    let mut progress = 0.0; // checkpointed work (always 0 without `ckpt`)
    let mut slot = 0usize; // position in the sequence
    let mut attempt = 0usize; // reservations paid so far
    let mut scale = 1.0; // ExponentialBackoff multiplier
    let mut failures = 0usize;
    let mut rework = 0.0;
    let mut events = Vec::new();
    let mut total = 0.0;
    let mut reserved = 0.0;
    loop {
        let nominal = seq.reservation(slot) * scale;
        // Restoring a checkpoint costs time in every attempt but the first
        // (mirrors `CheckpointConfig::restart`, indexed by attempt).
        let restart = match ckpt {
            Some(c) if attempt > 0 => c.restart_cost,
            _ => 0.0,
        };
        let remaining = t - progress;
        // Jitter mode: the platform may kill before the nominal walltime.
        let kill = injector.effective_walltime(nominal);
        // The machine is busy until the job completes or is killed.
        let busy = if remaining + restart <= kill {
            restart + remaining
        } else {
            kill
        };
        if let Some((at, kind)) = injector.interruption(busy) {
            // Fault mid-reservation: billed for the elapsed prefix only.
            total += cost.failed(at);
            reserved += at;
            rework += (at - restart).max(0.0);
            failures += 1;
            events.push(FaultEvent {
                attempt,
                slot,
                at,
                kind,
            });
            attempt += 1;
            if failures >= config.max_failures {
                return ResilientOutcome {
                    outcome: RunOutcome {
                        cost: total,
                        reservations: attempt,
                        reserved_time: reserved,
                        wasted_time: reserved,
                    },
                    completed: false,
                    failures,
                    rework_time: rework,
                    faults: events,
                };
            }
            match config.retry {
                RetryPolicy::RetrySameSlot => {}
                RetryPolicy::AdvanceSequence => slot += 1,
                RetryPolicy::ExponentialBackoff { factor } => scale *= factor,
            }
            continue;
        }
        reserved += nominal;
        if remaining + restart <= kill {
            // Completes here: pays Eq. 1 on the nominal length.
            let used = restart + remaining;
            total += cost.single(nominal, used);
            return ResilientOutcome {
                outcome: RunOutcome {
                    cost: total,
                    reservations: attempt + 1,
                    reserved_time: reserved,
                    wasted_time: nominal - used,
                },
                completed: true,
                failures,
                rework_time: rework,
                faults: events,
            };
        }
        // Ordinary too-short (or jitter-shortened) reservation: the full
        // nominal length is billed, the machine was busy until the kill.
        if kill == nominal {
            total += cost.failed(nominal);
        } else {
            total += cost.alpha * nominal + cost.beta * kill + cost.gamma;
        }
        if let Some(c) = ckpt {
            progress += (kill - restart - c.checkpoint_cost).max(0.0);
        }
        slot += 1;
        attempt += 1;
        assert!(
            attempt < 10_000_000,
            "resilient run diverged: every reservation shorter than restart overhead"
        );
    }
}

/// Runs `n` jobs sampled from `dist` through `seq` under the resilience
/// configuration and aggregates the outcomes, filling the robustness
/// fields of [`BatchStats`].
///
/// Job durations come from `rng` exactly as in
/// [`crate::runner::run_batch`] — one serial draw per job, in order —
/// while fault times come from a **per-job substream** of the dedicated
/// fault seed (`FaultInjector::for_job_unvalidated`), making each job's fault trace
/// a function of `(config.faults.seed, job_index)` alone. Jobs therefore
/// execute on the ambient [`Parallelism`] with bit-for-bit identical
/// statistics at any thread count, and a fault-free configuration still
/// reproduces `run_batch` bit-for-bit under the same seed (a fault-free
/// injector never draws).
pub fn run_batch_resilient(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
    n: usize,
    rng: &mut dyn RngCore,
    config: &ResilienceConfig,
) -> Result<BatchStats, SimError> {
    if n == 0 {
        return Err(SimError::EmptyBatch);
    }
    config.validate()?;
    let _span = rsj_obs::span!("sim.run_batch_resilient", "rsj_sim_batch_wall_seconds");
    let durations: Vec<f64> = (0..n).map(|_| dist.sample(rng)).collect();
    let results: Vec<ResilientOutcome> =
        Parallelism::current().try_par_map(&durations, |i, &t| {
            let mut injector = FaultInjector::for_job_unvalidated(&config.faults, i as u64);
            run_job_resilient(seq, cost, config, t, &mut injector)
        })?;
    aggregate_resilient(&results)
}

/// Serial accounting over per-job resilient outcomes: robustness counters,
/// order statistics, and the batch's metrics contribution.
fn aggregate_resilient(results: &[ResilientOutcome]) -> Result<BatchStats, SimError> {
    let n = results.len();
    let mut outcomes = Vec::with_capacity(n);
    let mut failures = 0usize;
    let mut restarts = 0usize;
    let mut gave_up = 0usize;
    let mut rework = 0.0;
    let mut rework_hist = rsj_obs::Histogram::new();
    for r in results {
        failures += r.failures;
        // Every fault is followed by a restart except the one that makes
        // the job give up.
        restarts += r.failures - usize::from(!r.completed);
        gave_up += usize::from(!r.completed);
        rework += r.rework_time;
        rework_hist.record(r.rework_time);
        outcomes.push(r.outcome);
    }
    let mut stats = aggregate(&outcomes)?;
    stats.failures = failures;
    stats.restarts = restarts;
    stats.mean_rework = rework / n as f64;
    stats.gave_up = gave_up;
    crate::runner::record_batch_metrics(&outcomes, &stats);
    if rsj_obs::metrics_enabled() {
        let reg = rsj_obs::global_registry();
        reg.counter("rsj_sim_faults_total").add(failures as u64);
        reg.counter("rsj_sim_restarts_total").add(restarts as u64);
        reg.counter("rsj_sim_gave_up_total").add(gave_up as u64);
        reg.histogram("rsj_sim_job_rework").merge_from(&rework_hist);
    }
    if failures > 0 {
        rsj_obs::debug!(
            "resilient batch: {} jobs, {} faults, {} restarts, {} gave up",
            n,
            failures,
            restarts,
            gave_up
        );
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsj_core::{run_job, Strategy};
    use rsj_dist::LogNormal;

    fn setup() -> (ReservationSequence, LogNormal, CostModel) {
        let d = LogNormal::new(1.0, 0.8).unwrap();
        let c = CostModel::new(1.0, 0.5, 0.2).unwrap();
        let seq = rsj_core::MeanDoubling::default().sequence(&d, &c).unwrap();
        (seq, d, c)
    }

    #[test]
    fn fault_free_matches_run_job_exactly() {
        let (seq, _, c) = setup();
        let cfg = ResilienceConfig::fault_free();
        let mut inj = FaultInjector::new(&cfg.faults).unwrap();
        for t in [0.1, 1.0, 2.7, 9.9, 40.0] {
            let base = run_job(&seq, &c, t);
            let res = run_job_resilient(&seq, &c, &cfg, t, &mut inj);
            assert!(res.completed);
            assert_eq!(res.failures, 0);
            assert_eq!(res.outcome, base, "t = {t}");
            assert!(res.faults.is_empty());
        }
    }

    #[test]
    fn fault_free_checkpointed_matches_run_job_checkpointed() {
        use rsj_core::extensions::run_job_checkpointed;
        let (seq, _, c) = setup();
        let ck = CheckpointConfig::new(0.05, 0.1).unwrap();
        let cfg = ResilienceConfig {
            checkpoint: Some(ck),
            ..ResilienceConfig::fault_free()
        };
        let mut inj = FaultInjector::new(&cfg.faults).unwrap();
        for t in [0.1, 1.0, 2.7, 9.9, 40.0] {
            let base = run_job_checkpointed(&seq, &c, &ck, t);
            let res = run_job_resilient(&seq, &c, &cfg, t, &mut inj);
            assert_eq!(res.outcome, base, "t = {t}");
        }
    }

    #[test]
    fn crashes_inflate_cost_and_are_counted() {
        let (seq, d, c) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let baseline = run_batch_resilient(
            &seq,
            &d,
            &c,
            2000,
            &mut rng,
            &ResilienceConfig::fault_free(),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let faulty_cfg = ResilienceConfig {
            faults: FaultConfig::crashes(2.0, 99),
            max_failures: 50,
            ..ResilienceConfig::fault_free()
        };
        let faulty = run_batch_resilient(&seq, &d, &c, 2000, &mut rng, &faulty_cfg).unwrap();
        assert!(faulty.failures > 0, "mtbf 2h must produce faults");
        assert!(faulty.mean_rework > 0.0);
        assert!(
            faulty.mean_cost > baseline.mean_cost,
            "faults must inflate mean cost: {} vs {}",
            faulty.mean_cost,
            baseline.mean_cost
        );
        assert_eq!(baseline.failures, 0);
        assert_eq!(baseline.gave_up, 0);
    }

    #[test]
    fn gives_up_after_max_failures_instead_of_panicking() {
        let (seq, _, c) = setup();
        // MTBF far below any reservation length: every attempt faults.
        let cfg = ResilienceConfig {
            faults: FaultConfig::crashes(1e-6, 1),
            max_failures: 3,
            ..ResilienceConfig::fault_free()
        };
        let mut inj = FaultInjector::new(&cfg.faults).unwrap();
        let res = run_job_resilient(&seq, &c, &cfg, 5.0, &mut inj);
        assert!(!res.completed);
        assert_eq!(res.failures, 3);
        assert_eq!(res.outcome.reservations, 3);
        assert_eq!(res.outcome.wasted_time, res.outcome.reserved_time);
        assert_eq!(res.faults.len(), 3);
    }

    #[test]
    fn retry_policies_shape_the_trace() {
        let (seq, _, c) = setup();
        // MTBF 1h against a 6h job: the first attempt faults almost
        // surely, while a 2000-fault budget still completes eventually.
        let faults = FaultConfig::crashes(1.0, 4);
        let run = |retry| {
            let cfg = ResilienceConfig {
                faults,
                retry,
                max_failures: 2000,
                ..ResilienceConfig::fault_free()
            };
            let mut inj = FaultInjector::new(&faults).unwrap();
            run_job_resilient(&seq, &c, &cfg, 6.0, &mut inj)
        };
        let same = run(RetryPolicy::RetrySameSlot);
        let advance = run(RetryPolicy::AdvanceSequence);
        let backoff = run(RetryPolicy::ExponentialBackoff { factor: 2.0 });
        for r in [&same, &advance, &backoff] {
            assert!(r.completed, "generous retry budget must complete");
            assert!(r.failures >= 1, "mtbf 1h must fault a 6h job");
        }
        // Same injector seed → the first fault is identical everywhere.
        assert_eq!(same.faults[0], advance.faults[0]);
        assert_eq!(same.faults[0], backoff.faults[0]);
        // AdvanceSequence walks down the sequence on every fault;
        // RetrySameSlot stays until an ordinary too-short failure.
        assert!(advance.faults.last().unwrap().slot >= same.faults.last().unwrap().slot);
    }

    #[test]
    fn batch_rejects_invalid_configs() {
        let (seq, d, c) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(
            run_batch_resilient(&seq, &d, &c, 0, &mut rng, &ResilienceConfig::fault_free()),
            Err(SimError::EmptyBatch)
        );
        let bad = ResilienceConfig {
            retry: RetryPolicy::ExponentialBackoff { factor: 0.5 },
            ..ResilienceConfig::fault_free()
        };
        assert!(run_batch_resilient(&seq, &d, &c, 10, &mut rng, &bad).is_err());
        let bad = ResilienceConfig {
            max_failures: 0,
            ..ResilienceConfig::fault_free()
        };
        assert!(run_batch_resilient(&seq, &d, &c, 10, &mut rng, &bad).is_err());
    }

    #[test]
    fn config_json_round_trip() {
        let cfg = ResilienceConfig {
            faults: FaultConfig {
                seed: 2,
                preemption_rate: Some(0.3),
                ..FaultConfig::none()
            },
            retry: RetryPolicy::ExponentialBackoff { factor: 1.5 },
            max_failures: 5,
            checkpoint: Some(CheckpointConfig::new(0.1, 0.2).unwrap()),
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ResilienceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // All-default parse.
        let minimal: ResilienceConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(minimal, ResilienceConfig::fault_free());
    }
}
