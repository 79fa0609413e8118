//! Online adaptive replanning under censored observations (system S19).
//!
//! The paper's pipeline plans once on a fitted distribution (§5.3); this
//! module closes the loop for a production service that must *learn while
//! scheduling*: prior → plan → observe → refit → replan. Each executed job
//! yields either an exact duration (it completed) or a right-censored
//! observation (it was abandoned at a reservation boundary, revealing only
//! `X > t_i`); the censored estimators of [`rsj_dist::censored`] turn the
//! stream back into a model.
//!
//! Refits are **guardrailed** so bad or sparse data can never corrupt the
//! executor:
//!
//! * *sanity* — a fitted model must have finite positive mean and finite
//!   variance;
//! * *bounded drift* — the working model's mean may move by at most a
//!   configured factor per refit round (persistent evidence still wins:
//!   the reference mean advances by the clamped factor, so a badly
//!   misspecified prior converges over a few rounds instead of never);
//! * *hysteresis* — the reservation sequence only changes when the refit
//!   improves expected cost beyond a threshold, so an oracle-quality prior
//!   never triggers spurious replans;
//! * *graceful degradation* — a degenerate parametric fit falls back to
//!   the Kaplan–Meier trace-interpolated law, and if that too fails the
//!   last-good model is kept.
//!
//! Costs are tracked per job together with the cost of the
//! known-distribution oracle (the same strategy planned on the truth and
//! executed fault-free on the same durations), giving cold-start regret
//! curves.

use crate::error::SimError;
use crate::fault::FaultInjector;
use crate::resilient::{run_job_resilient, ResilienceConfig};
use rand::RngCore;
use rsj_core::{expected_cost_with_extension, run_job, CostModel, ReservationSequence, Strategy};
use rsj_dist::censored::{
    fit_exponential_censored, fit_lognormal_censored, fit_weibull_censored, KaplanMeier,
    Observation,
};
use rsj_dist::{ContinuousDistribution, DistError};
use rsj_par::Parallelism;
use serde::{Deserialize, Serialize};

/// Which family the refitter estimates from the observation stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ModelFamily {
    /// Censored exponential MLE (total time on test).
    Exponential,
    /// Censored Weibull MLE (profile likelihood).
    Weibull,
    /// Censored LogNormal MLE (EM) — the paper's §5.3 family.
    #[default]
    LogNormal,
    /// Nonparametric: Kaplan–Meier survival, interpolated into a
    /// continuous law.
    Empirical,
}

fn default_refit_interval() -> usize {
    10
}
fn default_min_observations() -> usize {
    10
}
fn default_hysteresis() -> f64 {
    0.02
}
fn default_max_drift() -> f64 {
    4.0
}
fn default_true() -> bool {
    true
}

/// Configuration of the adaptive replanning loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Refit family (default LogNormal, the paper's choice).
    #[serde(default)]
    pub family: ModelFamily,
    /// Refit after every this many jobs (default 10).
    #[serde(default = "default_refit_interval")]
    pub refit_interval: usize,
    /// Do not refit before this many observations exist (default 10).
    #[serde(default = "default_min_observations")]
    pub min_observations: usize,
    /// Relative expected-cost improvement required before the sequence is
    /// replaced (default 0.02; 0 disables hysteresis).
    #[serde(default = "default_hysteresis")]
    pub hysteresis: f64,
    /// Maximum factor the working model's mean may move per refit round
    /// (default 4; must be > 1).
    #[serde(default = "default_max_drift")]
    pub max_drift: f64,
    /// Abandon a job after this many failed reservations, recording a
    /// right-censored observation at the last boundary. `None` lets every
    /// job run to completion (exact observations only).
    #[serde(default)]
    pub censor_after: Option<usize>,
    /// Execution substrate (faults, retries, checkpoints); default
    /// fault-free.
    #[serde(default)]
    pub resilience: ResilienceConfig,
    /// Degrade to the Kaplan–Meier interpolated law when a parametric fit
    /// is degenerate (default true); `false` keeps the last-good model
    /// only.
    #[serde(default = "default_true")]
    pub empirical_fallback: bool,
    /// Reuse the candidate plan from an earlier refit round when the
    /// fitted model is unchanged — keyed by the model's faithful
    /// [`ContinuousDistribution::cache_key`], so a warm hit returns a
    /// plan bit-identical to what a fresh solve would produce (default
    /// true). Models without a faithful key (the empirical fallback) are
    /// always planned cold.
    #[serde(default = "default_true")]
    pub warm_start: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            family: ModelFamily::default(),
            refit_interval: default_refit_interval(),
            min_observations: default_min_observations(),
            hysteresis: default_hysteresis(),
            max_drift: default_max_drift(),
            censor_after: None,
            resilience: ResilienceConfig::fault_free(),
            empirical_fallback: true,
            warm_start: true,
        }
    }
}

impl AdaptiveConfig {
    /// Validates every parameter, naming the offending field on failure.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if self.refit_interval == 0 {
            return Err(SimError::InvalidParameter {
                name: "refit_interval",
                value: 0.0,
                requirement: "must be >= 1",
            });
        }
        if self.min_observations < 2 {
            return Err(SimError::InvalidParameter {
                name: "min_observations",
                value: self.min_observations as f64,
                requirement: "must be >= 2",
            });
        }
        if !(self.hysteresis.is_finite() && self.hysteresis >= 0.0) {
            return Err(SimError::InvalidParameter {
                name: "hysteresis",
                value: self.hysteresis,
                requirement: "must be finite and >= 0",
            });
        }
        if !(self.max_drift.is_finite() && self.max_drift > 1.0) {
            return Err(SimError::InvalidParameter {
                name: "max_drift",
                value: self.max_drift,
                requirement: "must be finite and > 1",
            });
        }
        if let Some(limit) = self.censor_after {
            if limit == 0 {
                return Err(SimError::InvalidParameter {
                    name: "censor_after",
                    value: 0.0,
                    requirement: "must be >= 1",
                });
            }
        }
        self.resilience.validate()
    }
}

/// Cost accounting for one job of the adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveJob {
    /// The true sampled duration.
    pub duration: f64,
    /// Cost paid by the adaptive executor.
    pub cost: f64,
    /// Cost the known-distribution oracle pays on the same duration.
    pub oracle_cost: f64,
    /// The job was abandoned at a reservation boundary (right-censored).
    pub censored: bool,
    /// The job ran to completion (false for abandonment or resilient
    /// give-up).
    pub completed: bool,
}

/// What happened at one refit boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefitRecord {
    /// Jobs executed when the refit ran.
    pub after_jobs: usize,
    /// The fitted model passed the guardrails and became the working
    /// model.
    pub accepted: bool,
    /// The sequence was actually replaced (hysteresis cleared).
    pub replanned: bool,
    /// The parametric fit was degenerate and the empirical fallback path
    /// was taken.
    pub fallback: bool,
    /// Name of the working model after this refit.
    pub model: String,
    /// Cumulative cost ratio vs the oracle up to this point.
    pub mean_ratio_so_far: f64,
    /// The candidate plan came from the warm-start memo (the fitted model
    /// was unchanged since an earlier round) instead of a fresh solve.
    #[serde(default)]
    pub warm: bool,
}

/// Full outcome of an adaptive run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// Per-job cost accounting, in execution order.
    pub jobs: Vec<AdaptiveJob>,
    /// One record per refit boundary reached.
    pub refits: Vec<RefitRecord>,
    /// Total cost paid by the adaptive executor.
    pub total_cost: f64,
    /// Total cost of the known-distribution oracle on the same durations.
    pub oracle_total_cost: f64,
    /// `total_cost / oracle_total_cost`.
    pub mean_cost_ratio: f64,
    /// `total_cost − oracle_total_cost` (cumulative regret).
    pub cumulative_regret: f64,
    /// Refits that replaced the reservation sequence.
    pub replans: usize,
    /// Refits rejected by a guardrail (degenerate fit with failed
    /// fallback, or drift bound).
    pub rejected_refits: usize,
    /// Refit rounds that took the empirical fallback path.
    pub fallbacks: usize,
    /// Right-censored observations recorded.
    pub censored_observations: usize,
    /// Jobs the resilient executor gave up on (no observation recorded).
    pub gave_up: usize,
    /// Name of the working model when the run ended.
    pub final_model: String,
}

impl AdaptiveReport {
    /// Cost ratio vs the oracle over the last `k` jobs (the "warmed-up"
    /// regime, excluding cold-start rounds). Clamps `k` to the run length.
    pub fn tail_cost_ratio(&self, k: usize) -> f64 {
        let k = k.min(self.jobs.len()).max(1);
        let tail = &self.jobs[self.jobs.len() - k..];
        let cost: f64 = tail.iter().map(|j| j.cost).sum();
        let oracle: f64 = tail.iter().map(|j| j.oracle_cost).sum();
        cost / oracle
    }
}

/// Fits the configured family to the observation stream.
fn fit_model(
    family: ModelFamily,
    observations: &[Observation],
) -> Result<Box<dyn ContinuousDistribution>, DistError> {
    match family {
        ModelFamily::Exponential => {
            fit_exponential_censored(observations).map(|f| Box::new(f.dist) as _)
        }
        ModelFamily::Weibull => fit_weibull_censored(observations).map(|f| Box::new(f.dist) as _),
        ModelFamily::LogNormal => {
            fit_lognormal_censored(observations).map(|f| Box::new(f.dist) as _)
        }
        ModelFamily::Empirical => KaplanMeier::fit(observations)?
            .to_interpolated()
            .map(|d| Box::new(d) as _),
    }
}

/// Fitted-parameter sanity: finite positive mean, finite variance.
fn model_sane(model: &dyn ContinuousDistribution) -> bool {
    let mean = model.mean();
    let var = model.variance();
    mean.is_finite() && mean > 0.0 && var.is_finite() && var >= 0.0
}

/// Executes one job under the current plan: abandonment at the
/// `censor_after` boundary (yielding a right-censored observation), or
/// resilient execution (yielding an exact observation on completion and
/// none on give-up — a job lost to faults reveals no reliable duration).
///
/// Abandoned jobs are accounted with the fault-free Eq. 1 cost of their
/// failed reservations; fault injection applies to jobs that run past the
/// censoring horizon check.
fn execute_one(
    plan: &ReservationSequence,
    cost: &CostModel,
    config: &AdaptiveConfig,
    t: f64,
    injector: &mut FaultInjector,
) -> (f64, bool, bool, Option<Observation>) {
    if let Some(limit) = config.censor_after {
        if plan.first_fitting(t) >= limit {
            let total: f64 = (0..limit).map(|i| cost.failed(plan.reservation(i))).sum();
            let bound = plan.reservation(limit - 1);
            return (total, true, false, Some(Observation::censored(bound)));
        }
    }
    let r = run_job_resilient(plan, cost, &config.resilience, t, injector);
    let obs = r.completed.then_some(Observation::exact(t));
    (r.outcome.cost, false, r.completed, obs)
}

/// Blocks shorter than this execute serially: the plan is fixed between
/// refit boundaries, so a refit-interval block is the natural parallel
/// unit, but tiny blocks are not worth the fork-join overhead. Serial and
/// parallel paths run the identical closure, so the threshold cannot
/// affect results.
const MIN_PAR_BLOCK: usize = 64;

/// Runs the full adaptive loop: `n_jobs` durations sampled from `truth`,
/// planned with `strategy` starting from `prior`, refitting the
/// [`AdaptiveConfig::family`] on the growing (censored) observation
/// stream.
///
/// One duration is drawn from `rng` per job, in order, so a run whose
/// guardrails never replace the plan is bit-for-bit identical to executing
/// the static prior plan on the same seed.
///
/// Jobs between two refit boundaries share one fixed plan, so each
/// refit-interval block executes on the ambient [`Parallelism`]: durations
/// are pre-drawn serially from `rng` (preserving the draw order), each job
/// gets its fault trace from the per-job substream
/// `FaultInjector::for_job_unvalidated`, and accounting, observation collection and
/// refits stay serial at block boundaries — results are bit-for-bit
/// identical at any thread count.
pub fn run_adaptive(
    truth: &dyn ContinuousDistribution,
    prior: &dyn ContinuousDistribution,
    strategy: &dyn Strategy,
    cost: &CostModel,
    n_jobs: usize,
    config: &AdaptiveConfig,
    rng: &mut dyn RngCore,
) -> Result<AdaptiveReport, SimError> {
    if n_jobs == 0 {
        return Err(SimError::EmptyBatch);
    }
    config.validate()?;
    let _span = rsj_obs::span!("sim.run_adaptive", "rsj_sim_adaptive_wall_seconds");
    let par = Parallelism::current();
    let mut plan = strategy
        .sequence(prior, cost)
        .map_err(|e| SimError::Planning {
            context: "prior",
            source: e,
        })?;
    let oracle_plan = strategy
        .sequence(truth, cost)
        .map_err(|e| SimError::Planning {
            context: "oracle",
            source: e,
        })?;
    let mut current_mean = prior.mean();
    let mut current_model_name = format!("prior: {}", prior.name());
    // Warm-start memo: candidate plans from earlier refit rounds, keyed by
    // the fitted model's faithful cache key. Strategies are deterministic
    // functions of (model, cost), so replaying a memoized plan for an
    // identical model is bit-for-bit what a fresh solve would return.
    let mut plan_memo: std::collections::HashMap<String, ReservationSequence> =
        std::collections::HashMap::new();
    let mut observations: Vec<Observation> = Vec::new();
    let mut jobs = Vec::with_capacity(n_jobs);
    let mut refits = Vec::new();
    let mut total_cost = 0.0;
    let mut oracle_total = 0.0;
    let mut replans = 0usize;
    let mut rejected = 0usize;
    let mut fallbacks = 0usize;
    let mut censored_count = 0usize;
    let mut gave_up = 0usize;

    let mut j0 = 0usize;
    while j0 < n_jobs {
        // --- One refit-interval block under the current (fixed) plan. ---
        let block = config.refit_interval.min(n_jobs - j0);
        let mut durations = Vec::with_capacity(block);
        for k in 0..block {
            let t = truth.sample(rng);
            if !t.is_finite() || t < 0.0 {
                return Err(SimError::NonFiniteSample {
                    index: j0 + k,
                    value: t,
                });
            }
            durations.push(t);
        }
        let execute = |k: usize, t: &f64| {
            let t = *t;
            let mut injector =
                FaultInjector::for_job_unvalidated(&config.resilience.faults, (j0 + k) as u64);
            let oracle_cost_j = run_job(&oracle_plan, cost, t).cost;
            let (cost_j, censored, completed, obs) =
                execute_one(&plan, cost, config, t, &mut injector);
            (oracle_cost_j, cost_j, censored, completed, obs)
        };
        let results = if block >= MIN_PAR_BLOCK {
            par.try_par_map(&durations, execute)?
        } else {
            durations
                .iter()
                .enumerate()
                .map(|(k, t)| execute(k, t))
                .collect()
        };
        for (k, (oracle_cost_j, cost_j, censored, completed, obs)) in
            results.into_iter().enumerate()
        {
            censored_count += usize::from(censored);
            gave_up += usize::from(!completed && !censored);
            if let Some(o) = obs {
                observations.push(o);
            }
            total_cost += cost_j;
            oracle_total += oracle_cost_j;
            jobs.push(AdaptiveJob {
                duration: durations[k],
                cost: cost_j,
                oracle_cost: oracle_cost_j,
                censored,
                completed,
            });
        }
        j0 += block;

        // `j0` only stops being a multiple of the interval on the final,
        // partial block — where the `j0 >= n_jobs` guard fires anyway.
        let at_boundary = block == config.refit_interval;
        if !at_boundary || j0 >= n_jobs || observations.len() < config.min_observations {
            continue;
        }

        // --- Refit with guardrails. ---
        let mut fallback = false;
        let candidate = match fit_model(config.family, &observations) {
            Ok(m) if model_sane(&*m) => Some(m),
            _ if config.empirical_fallback => {
                // Degenerate parametric fit: degrade to the trace-
                // interpolated empirical law when it is itself sane.
                fallback = true;
                KaplanMeier::fit(&observations)
                    .and_then(|km| km.to_interpolated())
                    .ok()
                    .map(|d| Box::new(d) as Box<dyn ContinuousDistribution>)
                    .filter(|m| model_sane(&**m))
            }
            _ => None,
        };
        fallbacks += usize::from(fallback);
        let mut accepted = false;
        let mut replanned = false;
        let mut warm = false;
        if let Some(model) = candidate {
            let drift = model.mean() / current_mean;
            if !(drift.is_finite() && (1.0 / config.max_drift..=config.max_drift).contains(&drift))
            {
                // Drift bound: reject the model this round but advance the
                // reference mean by the clamped factor, so persistent
                // evidence converges over a few rounds.
                rejected += 1;
                if drift.is_finite() && drift > 0.0 {
                    current_mean *= drift.clamp(1.0 / config.max_drift, config.max_drift);
                }
            } else {
                // Candidate plan: warm from the memo when this exact model
                // was already planned, cold (a full solve) otherwise.
                let refit_start = std::time::Instant::now();
                let memo_key = if config.warm_start {
                    model.cache_key()
                } else {
                    None
                };
                let planned = match memo_key.as_ref().and_then(|k| plan_memo.get(k)) {
                    Some(hit) => {
                        warm = true;
                        Ok(hit.clone())
                    }
                    None => strategy.sequence(&*model, cost),
                };
                if rsj_obs::metrics_enabled() {
                    let name = if warm {
                        "rsj_sim_adaptive_refit_seconds_warm"
                    } else {
                        "rsj_sim_adaptive_refit_seconds_cold"
                    };
                    rsj_obs::global_registry()
                        .histogram(name)
                        .observe(refit_start.elapsed().as_secs_f64());
                }
                if let Ok(candidate_plan) = planned {
                    if let (false, Some(key)) = (warm, memo_key) {
                        plan_memo.insert(key, candidate_plan.clone());
                    }
                    let e_cur = expected_cost_with_extension(&plan, &*model, cost);
                    let e_new = expected_cost_with_extension(&candidate_plan, &*model, cost);
                    accepted = true;
                    current_mean = model.mean();
                    current_model_name = model.name();
                    if e_cur.is_finite()
                        && e_new.is_finite()
                        && e_new < e_cur * (1.0 - config.hysteresis)
                    {
                        plan = candidate_plan;
                        replans += 1;
                        replanned = true;
                    }
                } else {
                    // The refit model produced no valid plan: keep last-good.
                    rejected += 1;
                }
            }
        } else {
            rejected += 1;
        }
        rsj_obs::debug!(
            "refit after {} jobs: accepted {}, replanned {}, fallback {}, warm {}, model {}, ratio {:.4}",
            j0,
            accepted,
            replanned,
            fallback,
            warm,
            current_model_name,
            total_cost / oracle_total
        );
        refits.push(RefitRecord {
            after_jobs: j0,
            accepted,
            replanned,
            fallback,
            model: current_model_name.clone(),
            mean_ratio_so_far: total_cost / oracle_total,
            warm,
        });
    }

    if rsj_obs::metrics_enabled() {
        let reg = rsj_obs::global_registry();
        reg.counter("rsj_sim_adaptive_runs_total").inc();
        reg.counter("rsj_sim_adaptive_replans_total")
            .add(replans as u64);
        reg.counter("rsj_sim_adaptive_rejected_refits_total")
            .add(rejected as u64);
        reg.counter("rsj_sim_adaptive_fallbacks_total")
            .add(fallbacks as u64);
        reg.counter("rsj_sim_adaptive_censored_total")
            .add(censored_count as u64);
        reg.counter("rsj_sim_adaptive_gave_up_total")
            .add(gave_up as u64);
        let warm_plans = refits.iter().filter(|r| r.warm).count();
        reg.counter("rsj_sim_adaptive_warm_plans_total")
            .add(warm_plans as u64);
        // Hysteresis holds: the refit was accepted as the working model
        // but the improvement did not clear the replan threshold.
        let holds = refits.iter().filter(|r| r.accepted && !r.replanned).count();
        reg.counter("rsj_sim_adaptive_hysteresis_holds_total")
            .add(holds as u64);
        reg.histogram("rsj_sim_adaptive_cost_ratio")
            .observe(total_cost / oracle_total);
    }

    Ok(AdaptiveReport {
        mean_cost_ratio: total_cost / oracle_total,
        cumulative_regret: total_cost - oracle_total,
        total_cost,
        oracle_total_cost: oracle_total,
        jobs,
        refits,
        replans,
        rejected_refits: rejected,
        fallbacks,
        censored_observations: censored_count,
        gave_up,
        final_model: current_model_name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsj_core::MeanByMean;
    use rsj_dist::LogNormal;

    fn scenario() -> (LogNormal, CostModel) {
        (
            LogNormal::new(3.0, 0.5).unwrap(),
            CostModel::reservation_only(),
        )
    }

    #[test]
    fn config_validation_names_offenders() {
        let cfg = AdaptiveConfig {
            refit_interval: 0,
            ..AdaptiveConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidParameter {
                name: "refit_interval",
                ..
            })
        ));
        let cfg = AdaptiveConfig {
            max_drift: 1.0,
            ..AdaptiveConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AdaptiveConfig {
            hysteresis: f64::NAN,
            ..AdaptiveConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AdaptiveConfig {
            censor_after: Some(0),
            ..AdaptiveConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(AdaptiveConfig::default().validate().is_ok());
    }

    #[test]
    fn misspecified_prior_converges_toward_oracle() {
        // The ISSUE acceptance scenario: LogNormal truth, prior with half
        // the scale, mean per-job cost ratio < 1.05 within 200 jobs.
        let (truth, cost) = scenario();
        let prior = LogNormal::new(3.0 - std::f64::consts::LN_2, 0.5).unwrap();
        let strategy = MeanByMean::default();
        let cfg = AdaptiveConfig::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let report = run_adaptive(&truth, &prior, &strategy, &cost, 200, &cfg, &mut rng).unwrap();
        assert!(
            report.replans >= 1,
            "misspecified prior must trigger a replan"
        );
        assert!(
            report.mean_cost_ratio < 1.05,
            "ratio {} must fall below 1.05 within 200 jobs",
            report.mean_cost_ratio
        );
        assert!(report.tail_cost_ratio(100) <= report.mean_cost_ratio + 1e-9);
    }

    #[test]
    fn censoring_produces_censored_observations_and_still_converges() {
        let (truth, cost) = scenario();
        let prior = LogNormal::new(3.0 - std::f64::consts::LN_2, 0.5).unwrap();
        let strategy = MeanByMean::default();
        let cfg = AdaptiveConfig {
            censor_after: Some(2),
            ..AdaptiveConfig::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let report = run_adaptive(&truth, &prior, &strategy, &cost, 300, &cfg, &mut rng).unwrap();
        assert!(
            report.censored_observations > 0,
            "short prior plan with censor_after=2 must censor some jobs"
        );
        assert!(
            report.mean_cost_ratio < 1.2,
            "ratio {}",
            report.mean_cost_ratio
        );
    }

    #[test]
    fn empirical_family_runs_end_to_end() {
        let (truth, cost) = scenario();
        let strategy = MeanByMean::default();
        let cfg = AdaptiveConfig {
            family: ModelFamily::Empirical,
            ..AdaptiveConfig::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let report = run_adaptive(&truth, &truth, &strategy, &cost, 100, &cfg, &mut rng).unwrap();
        assert_eq!(report.jobs.len(), 100);
        assert!(report.refits.iter().any(|r| r.accepted));
    }

    #[test]
    fn zero_jobs_and_bad_config_are_typed_errors() {
        let (truth, cost) = scenario();
        let strategy = MeanByMean::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(
            run_adaptive(
                &truth,
                &truth,
                &strategy,
                &cost,
                0,
                &AdaptiveConfig::default(),
                &mut rng
            ),
            Err(SimError::EmptyBatch)
        );
        let bad = AdaptiveConfig {
            min_observations: 1,
            ..AdaptiveConfig::default()
        };
        assert!(run_adaptive(&truth, &truth, &strategy, &cost, 10, &bad, &mut rng).is_err());
    }

    #[test]
    fn warm_start_is_bit_identical_to_cold_and_actually_hits() {
        // Give-up faults (max_failures = 1, short MTBF) make some refit
        // blocks contribute zero observations, so consecutive rounds fit
        // the identical model and the warm memo fires. The warm run must
        // be bit-for-bit identical to the cold run everywhere except the
        // `warm` flags themselves.
        let (truth, cost) = scenario();
        let strategy = MeanByMean::default();
        let mk_cfg = |warm_start| AdaptiveConfig {
            family: ModelFamily::Exponential,
            refit_interval: 2,
            min_observations: 2,
            resilience: ResilienceConfig {
                faults: crate::fault::FaultConfig {
                    seed: 11,
                    mtbf: Some(20.0),
                    preemption_rate: None,
                    walltime_jitter: None,
                },
                max_failures: 1,
                ..ResilienceConfig::default()
            },
            warm_start,
            ..AdaptiveConfig::default()
        };
        let run = |warm_start: bool| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            run_adaptive(
                &truth,
                &truth,
                &strategy,
                &cost,
                80,
                &mk_cfg(warm_start),
                &mut rng,
            )
            .unwrap()
        };
        let warm = run(true);
        let cold = run(false);
        assert!(
            warm.refits.iter().any(|r| r.warm),
            "no-new-observation rounds must produce at least one warm hit"
        );
        assert!(
            cold.refits.iter().all(|r| !r.warm),
            "warm_start = false must never mark a refit warm"
        );
        assert_eq!(warm.jobs, cold.jobs);
        assert_eq!(warm.total_cost.to_bits(), cold.total_cost.to_bits());
        assert_eq!(
            warm.mean_cost_ratio.to_bits(),
            cold.mean_cost_ratio.to_bits()
        );
        assert_eq!(
            (warm.replans, warm.rejected_refits, warm.fallbacks),
            (cold.replans, cold.rejected_refits, cold.fallbacks)
        );
        assert_eq!(warm.final_model, cold.final_model);
        assert_eq!(warm.refits.len(), cold.refits.len());
        for (w, c) in warm.refits.iter().zip(&cold.refits) {
            assert_eq!(
                (w.after_jobs, w.accepted, w.replanned, w.fallback, &w.model),
                (c.after_jobs, c.accepted, c.replanned, c.fallback, &c.model)
            );
            assert_eq!(w.mean_ratio_so_far.to_bits(), c.mean_ratio_so_far.to_bits());
        }
    }

    #[test]
    fn config_json_round_trip_with_defaults() {
        let minimal: AdaptiveConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(minimal, AdaptiveConfig::default());
        let cfg = AdaptiveConfig {
            family: ModelFamily::Weibull,
            censor_after: Some(3),
            hysteresis: 0.1,
            ..AdaptiveConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: AdaptiveConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
