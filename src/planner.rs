//! The stable `Planner` facade: one builder-configured entry point that
//! wraps distribution parsing (`rsj-dist::spec`), solver dispatch over the
//! `Strategy` suite (`rsj-core::heuristics`) and optional batch simulation
//! (`rsj-sim`), returning everything a caller needs as one serializable
//! [`Plan`].
//!
//! This is the API the `rsj-serve` planning daemon and the `rsj` CLI are
//! built on; see the API-stability note in the README for what is
//! semver-stable here.
//!
//! ```
//! use reservation_strategies::{Planner, dist::DistSpec};
//!
//! let plan = Planner::builder()
//!     .distribution(DistSpec::LogNormal { mu: 3.0, sigma: 0.5 })
//!     .solver_name("mean_by_mean")
//!     .build()
//!     .unwrap()
//!     .plan()
//!     .unwrap();
//! assert!(plan.normalized_cost > 1.0 && plan.normalized_cost < 3.0);
//! ```

use crate::error::{Result, RsjError};
use rsj_core::{
    coverage_gap, expected_cost_analytic, CancelToken, CostModel, SolverSpec, Strategy,
};
use rsj_dist::{ContinuousDistribution, DistSpec};
use rsj_sim::BatchStats;
use serde::{Deserialize, Serialize};

/// Optional simulate-on-plan: replay the computed sequence against `jobs`
/// sampled runtimes (seeded, deterministic at any thread count).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulateOptions {
    /// Number of jobs to sample.
    pub jobs: usize,
    /// RNG seed for the batch (default 0).
    #[serde(default)]
    pub seed: u64,
}

/// The revision of the solver's numbers, the first field of every
/// [`Planner::cache_key`]. A change that moves any plan digest bumps it, so
/// a plan that an older build cached or journaled is never served for the
/// same request: recovery checks a journaled plan only against its own
/// digest, and never solves it again. Builds before this constant existed
/// count as revision 0 and wrote keys without it.
///
/// Revision 1: the Beta and Gamma quantiles' Newton loops stop on an exact
/// hit, and the beta loop once a step is at most 2 ulp.
pub const SOLVER_REVISION: u32 = 1;

/// FNV-1a over the IEEE-754 bit patterns of `values`, rendered as 16 hex
/// digits — the same digest convention as `rsj-bench`'s `perf_gate`, so
/// serve-mode and offline artifacts can be diffed directly.
pub fn plan_digest(values: impl IntoIterator<Item = f64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The result of one [`Planner::plan`] call: the reservation sequence plus
/// every derived quantity the workspace knows how to compute for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Display name of the distribution that was planned for.
    pub distribution: String,
    /// Canonical solver name (`brute_force`, `dp_equal_time`, …).
    pub solver: String,
    /// The computed reservation ladder, strictly increasing.
    pub sequence: Vec<f64>,
    /// Whether the last entry covers the distribution's whole support.
    pub complete: bool,
    /// Exact expected cost of the ladder (Eq. 4).
    pub expected_cost: f64,
    /// The omniscient scheduler's cost (§5.1 baseline).
    pub omniscient_cost: f64,
    /// `expected_cost / omniscient_cost` — the paper's reported metric.
    pub normalized_cost: f64,
    /// `P(X ≥ last entry)`: tail mass not covered by the ladder.
    pub coverage_gap: f64,
    /// FNV-1a digest of the sequence's f64 bit patterns; equal digests
    /// mean bit-identical plans.
    pub digest: String,
    /// Batch-simulation statistics when simulate-on-plan was requested.
    #[serde(default)]
    pub simulation: Option<BatchStats>,
}

fn default_solver_spec() -> SolverSpec {
    SolverSpec::MeanByMean
}

/// One item of a [`Planner::plan_many`] batch: a full planner
/// configuration as plain serializable data. This is also the wire shape
/// of a `plan_batch` item in the `rsj-serve` v2 protocol, so fleet
/// clients can hand the same struct to the library and the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// The job-runtime law to plan for (required).
    pub distribution: DistSpec,
    /// Platform cost model; `None` means RESERVATIONONLY (`α=1`, `β=γ=0`).
    #[serde(default)]
    pub cost: Option<CostModel>,
    /// Solver to dispatch to (default Mean-by-Mean).
    #[serde(default = "default_solver_spec")]
    pub solver: SolverSpec,
    /// Optional re-seed where the solver uses randomness (Brute-Force).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Optional simulate-on-plan replay.
    #[serde(default)]
    pub simulate: Option<SimulateOptions>,
}

impl PlanRequest {
    /// A request for `distribution` with every other field defaulted.
    pub fn new(distribution: DistSpec) -> Self {
        Self {
            distribution,
            cost: None,
            solver: default_solver_spec(),
            seed: None,
            simulate: None,
        }
    }

    /// Sets the solver (builder-style).
    pub fn with_solver(mut self, solver: SolverSpec) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the cost model (builder-style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Sets simulate-on-plan (builder-style).
    pub fn with_simulate(mut self, simulate: SimulateOptions) -> Self {
        self.simulate = Some(simulate);
        self
    }

    /// Validates this request into a [`Planner`] (the same checks as
    /// [`PlannerBuilder::build`], so errors are identical to the
    /// single-plan path).
    pub fn planner(&self) -> Result<Planner> {
        let mut builder = Planner::builder()
            .distribution(self.distribution.clone())
            .solver(match self.seed {
                Some(seed) => self.solver.clone().with_seed(seed),
                None => self.solver.clone(),
            });
        if let Some(cost) = self.cost {
            builder = builder.cost_rates(cost.alpha, cost.beta, cost.gamma);
        }
        if let Some(sim) = self.simulate {
            builder = builder.simulate(sim);
        }
        builder.build()
    }
}

/// How the solver was chosen, kept unresolved until [`PlannerBuilder::build`]
/// so builder chaining stays infallible.
#[derive(Debug, Clone)]
enum SolverChoice {
    Spec(SolverSpec),
    Name(String),
}

/// Builder-style configuration for a [`Planner`].
#[derive(Debug, Clone)]
pub struct PlannerBuilder {
    distribution: Option<DistSpec>,
    cost: CostModel,
    solver: SolverChoice,
    simulate: Option<SimulateOptions>,
}

impl Default for PlannerBuilder {
    fn default() -> Self {
        Self {
            distribution: None,
            cost: CostModel::reservation_only(),
            solver: SolverChoice::Spec(SolverSpec::MeanByMean),
            simulate: None,
        }
    }
}

impl PlannerBuilder {
    /// The job-runtime law to plan for (required).
    pub fn distribution(mut self, spec: DistSpec) -> Self {
        self.distribution = Some(spec);
        self
    }

    /// The platform cost model (default RESERVATIONONLY: `α=1`, `β=γ=0`).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Cost model from its Eq. 1 rates; validated at [`build`](Self::build).
    pub fn cost_rates(mut self, alpha: f64, beta: f64, gamma: f64) -> Self {
        // Stored unvalidated so chaining stays infallible; build() calls
        // CostModel::new which re-checks the §2.2 constraints.
        self.cost = CostModel { alpha, beta, gamma };
        self
    }

    /// The solver to dispatch to (default Mean-by-Mean).
    pub fn solver(mut self, spec: SolverSpec) -> Self {
        self.solver = SolverChoice::Spec(spec);
        self
    }

    /// Solver by canonical name (`brute_force`, `dp_equal_time`, …),
    /// parsed with paper-default parameters at [`build`](Self::build).
    pub fn solver_name(mut self, name: impl Into<String>) -> Self {
        self.solver = SolverChoice::Name(name.into());
        self
    }

    /// Also replay the plan against a seeded batch of sampled jobs.
    pub fn simulate(mut self, options: SimulateOptions) -> Self {
        self.simulate = Some(options);
        self
    }

    /// Validates the configuration and instantiates the planner.
    pub fn build(self) -> Result<Planner> {
        let spec = self.distribution.ok_or(RsjError::Config {
            what: "distribution",
            reason: "no distribution specified (call .distribution(DistSpec))".into(),
        })?;
        let dist = spec.build()?;
        let cost = CostModel::new(self.cost.alpha, self.cost.beta, self.cost.gamma)?;
        let solver_spec = match self.solver {
            SolverChoice::Spec(s) => s,
            SolverChoice::Name(name) => name.parse::<SolverSpec>()?,
        };
        let solver = solver_spec.build()?;
        if let Some(sim) = self.simulate {
            if sim.jobs == 0 {
                return Err(RsjError::Sim(rsj_sim::SimError::EmptyBatch));
            }
        }
        Ok(Planner {
            dist,
            cost,
            solver,
            solver_spec,
            simulate: self.simulate,
        })
    }
}

/// A fully validated planning pipeline: distribution + cost model +
/// solver, reusable across [`plan`](Planner::plan) calls.
pub struct Planner {
    dist: Box<dyn ContinuousDistribution>,
    cost: CostModel,
    solver: Box<dyn Strategy>,
    solver_spec: SolverSpec,
    simulate: Option<SimulateOptions>,
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("distribution", &self.dist.name())
            .field("cost", &self.cost)
            .field("solver", &self.solver_spec)
            .field("simulate", &self.simulate)
            .finish()
    }
}

impl Planner {
    /// Starts a builder with defaults (RESERVATIONONLY cost, Mean-by-Mean).
    pub fn builder() -> PlannerBuilder {
        PlannerBuilder::default()
    }

    /// The validated cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The distribution being planned for.
    pub fn distribution(&self) -> &dyn ContinuousDistribution {
        self.dist.as_ref()
    }

    /// The solver specification this planner dispatches to.
    pub fn solver_spec(&self) -> &SolverSpec {
        &self.solver_spec
    }

    /// A process-stable key identifying `(distribution, cost model,
    /// solver config)` — the triple that fully determines [`plan`]'s
    /// output — under this build's [`SOLVER_REVISION`]. `None` when the
    /// distribution has no faithful `cache_key` (plan caches must then
    /// skip caching).
    ///
    /// [`plan`]: Planner::plan
    pub fn cache_key(&self) -> Option<String> {
        let dist = self.dist.cache_key()?;
        Some(format!(
            "rev{SOLVER_REVISION}|{dist}|a={:x},b={:x},g={:x}|{}",
            self.cost.alpha.to_bits(),
            self.cost.beta.to_bits(),
            self.cost.gamma.to_bits(),
            self.solver_spec.config_key(),
        ))
    }

    /// The `distribution + cost` prefix of [`cache_key`](Self::cache_key),
    /// by which [`batch_order`](Self::batch_order) groups a batch: two
    /// planners share it when they plan one law under one cost model.
    /// It does not name an eval table — the discretization memo keys on
    /// the law, the scheme, `n` and `ε`, whatever the cost. `None` when
    /// the distribution has no faithful cache key.
    pub fn group_key(&self) -> Option<String> {
        let key = self.cache_key()?;
        Some(match key.rsplit_once('|') {
            Some((prefix, _solver)) => prefix.to_string(),
            None => key,
        })
    }

    /// Builds every request's planner and lists them in the order a batch
    /// is visited, each with its input index: grouped by
    /// [`group_key`](Self::group_key), input order within a group, and
    /// the keyless and invalid items last, in input order.
    ///
    /// The discretization memo no longer needs a batch grouped; the order
    /// is kept for CPU-cache locality, one law's items back to back, which
    /// measured slightly faster than input order on frames shaped like the
    /// repository benchmark's `serve_batch`. [`plan_many`](Self::plan_many)
    /// and `rsj serve`'s `plan_batch` both visit batches in this order.
    pub fn batch_order(requests: &[PlanRequest]) -> Vec<(usize, Result<Planner>)> {
        let mut built: Vec<(Option<String>, usize, Result<Planner>)> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let planner = request.planner();
                let key = planner.as_ref().ok().and_then(Planner::group_key);
                (key, i, planner)
            })
            .collect();
        built.sort_by(|a, b| (a.0.is_none(), &a.0, a.1).cmp(&(b.0.is_none(), &b.0, b.1)));
        built
            .into_iter()
            .map(|(_, i, planner)| (i, planner))
            .collect()
    }

    /// Plans a whole batch, visiting it in
    /// [`batch_order`](Self::batch_order).
    ///
    /// Each item is planned independently — one invalid distribution or a
    /// mid-batch failure never poisons its neighbours — and results come
    /// back in input order. Every item is bit-for-bit identical to what a
    /// standalone [`plan`](Self::plan) of the same request returns.
    pub fn plan_many(requests: &[PlanRequest]) -> Vec<Result<Plan>> {
        Self::plan_many_traced(
            requests,
            &CancelToken::none(),
            &mut rsj_obs::Timeline::disabled(),
        )
    }

    /// [`plan_many`](Self::plan_many) with cooperative cancellation and
    /// tracing. A fired token fails the *remaining* items with
    /// `CoreError::Cancelled`; already-solved items keep their results.
    /// Each built item records one `item` stage into `timeline`: its
    /// [`plan_traced`](Self::plan_traced) stages folded into one, so it
    /// carries that solve's `dp_path` and `eval_table` (`warm`/`cold`)
    /// when it has them, then its batch index and outcome.
    pub fn plan_many_traced(
        requests: &[PlanRequest],
        cancel: &CancelToken,
        timeline: &mut rsj_obs::Timeline,
    ) -> Vec<Result<Plan>> {
        let mut results: Vec<(usize, Result<Plan>)> = Self::batch_order(requests)
            .into_iter()
            .map(|(i, built)| {
                let out = built.and_then(|planner| {
                    let out = timeline
                        .time_folded("item", |timeline| planner.plan_traced(cancel, timeline));
                    if timeline.is_enabled() {
                        timeline.annotate_last("item", i.to_string());
                        match &out {
                            Ok(plan) => timeline.annotate_last("digest", plan.digest.as_str()),
                            Err(e) => timeline.annotate_last("error", e.to_string()),
                        }
                    }
                    out
                });
                (i, out)
            })
            .collect();
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, out)| out).collect()
    }

    /// Computes the reservation sequence and scores it.
    pub fn plan(&self) -> Result<Plan> {
        self.plan_traced(&CancelToken::none(), &mut rsj_obs::Timeline::disabled())
    }

    /// [`plan`](Self::plan) with cooperative cancellation and tracing.
    /// The token is threaded into the solver (polled per DP state /
    /// brute-force candidate) and checked between the solve, the scoring
    /// pass and the optional simulation replay; once it fires the call
    /// returns `RsjError::Core(CoreError::Cancelled)`. The solver's
    /// phases — `solve`, `score`, `simulate` — are recorded into
    /// `timeline`; a disabled timeline makes every recording call a branch
    /// on `None` (no clocks, no allocation). A successful `solve` stage
    /// carries the attribution [`Strategy::solve`] returned: `dp_path`
    /// and `eval_table` for a discretized DP, neither otherwise; a failed
    /// one carries none. `rsj plan --explain-solver` and a served trace
    /// both read it there. An uncancelled call is bit-for-bit identical
    /// to [`plan`](Self::plan), digest included.
    ///
    /// [`Strategy::solve`]: rsj_core::Strategy::solve
    pub fn plan_traced(
        &self,
        cancel: &CancelToken,
        timeline: &mut rsj_obs::Timeline,
    ) -> Result<Plan> {
        let solved = timeline.time("solve", || {
            self.solver.solve(self.dist.as_ref(), &self.cost, cancel)
        })?;
        if let Some(path) = solved.dp_path {
            timeline.annotate_last("dp_path", path.as_str());
        }
        if let Some(source) = solved.eval_table {
            timeline.annotate_last("eval_table", source.as_str());
        }
        let seq = solved.sequence;
        cancel.check()?;
        let (expected_cost, omniscient_cost) = timeline.time("score", || {
            (
                expected_cost_analytic(&seq, self.dist.as_ref(), &self.cost),
                self.cost.omniscient(self.dist.as_ref()),
            )
        });
        cancel.check()?;
        let simulation = match self.simulate {
            Some(opts) => Some(timeline.time("simulate", || {
                rsj_sim::run_batch_seeded(
                    &seq,
                    self.dist.as_ref(),
                    &self.cost,
                    opts.jobs,
                    opts.seed,
                    &rsj_par::Parallelism::current(),
                )
            })?),
            None => None,
        };
        Ok(Plan {
            distribution: self.dist.name(),
            solver: self.solver_spec.name().to_string(),
            digest: plan_digest(seq.times().iter().copied()),
            sequence: seq.times().to_vec(),
            complete: seq.is_complete(),
            expected_cost,
            omniscient_cost,
            normalized_cost: expected_cost / omniscient_cost,
            coverage_gap: coverage_gap(&seq, self.dist.as_ref()),
            simulation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_a_distribution() {
        let err = Planner::builder().build().unwrap_err();
        assert!(matches!(
            err,
            RsjError::Config {
                what: "distribution",
                ..
            }
        ));
    }

    #[test]
    fn plan_matches_direct_solver_output() {
        use rsj_core::{MeanByMean, Strategy};
        let spec = DistSpec::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        };
        let plan = Planner::builder()
            .distribution(spec.clone())
            .solver_name("mean_by_mean")
            .build()
            .unwrap()
            .plan()
            .unwrap();
        let dist = spec.build().unwrap();
        let direct = MeanByMean::default()
            .sequence(dist.as_ref(), &CostModel::reservation_only())
            .unwrap();
        assert_eq!(plan.sequence, direct.times());
        assert_eq!(plan.digest, plan_digest(direct.times().iter().copied()));
        assert!(plan.normalized_cost > 1.0);
        assert!(plan.simulation.is_none());
    }

    #[test]
    fn traced_plan_annotates_solve_stage_with_attribution() {
        let planner = Planner::builder()
            .distribution(DistSpec::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            })
            .solver(SolverSpec::Dp {
                scheme: rsj_dist::DiscretizationScheme::EqualProbability,
                n: 223,
                epsilon: 1e-7,
                monotone: true,
            })
            .build()
            .unwrap();
        let mut timeline =
            rsj_obs::Timeline::begin(rsj_obs::TraceContext::generate(), std::time::Instant::now());
        planner
            .plan_traced(&CancelToken::none(), &mut timeline)
            .unwrap();
        let record = timeline.finish("plan").unwrap();
        let solve = record
            .stages
            .iter()
            .find(|s| s.name == "solve")
            .expect("solve stage recorded");
        assert!(
            solve
                .args
                .iter()
                .any(|(k, v)| k == "dp_path" && v == "monotone"),
            "solve stage args: {:?}",
            solve.args
        );
        assert!(
            solve
                .args
                .iter()
                .any(|(k, v)| k == "eval_table" && (v == "warm" || v == "cold")),
            "solve stage args: {:?}",
            solve.args
        );

        // A closed-form solver leaves the stage unannotated.
        let planner = Planner::builder()
            .distribution(DistSpec::Exponential { lambda: 1.0 })
            .solver_name("mean_by_mean")
            .build()
            .unwrap();
        let mut timeline =
            rsj_obs::Timeline::begin(rsj_obs::TraceContext::generate(), std::time::Instant::now());
        planner
            .plan_traced(&CancelToken::none(), &mut timeline)
            .unwrap();
        let record = timeline.finish("plan").unwrap();
        let solve = record.stages.iter().find(|s| s.name == "solve").unwrap();
        assert!(solve.args.is_empty(), "{:?}", solve.args);
    }

    #[test]
    fn a_near_tie_law_is_attributed_to_the_monotone_pass() {
        // Beta(1.7, 1.8), equal-time, n = 5000 under RESERVATIONONLY
        // compares two candidates within 1e-12 relative of each other; the
        // monotone pass decides them and the solve stage says so. The
        // `exact_gate_declined` label is tested in rsj-core on constructed
        // inputs, which no law reaches.
        let planner = Planner::builder()
            .distribution(DistSpec::Beta {
                alpha: 1.7,
                beta: 1.8,
            })
            .solver(SolverSpec::Dp {
                scheme: rsj_dist::DiscretizationScheme::EqualTime,
                n: 5000,
                epsilon: 1e-7,
                monotone: true,
            })
            .build()
            .unwrap();
        let mut timeline =
            rsj_obs::Timeline::begin(rsj_obs::TraceContext::generate(), std::time::Instant::now());
        planner
            .plan_traced(&CancelToken::none(), &mut timeline)
            .unwrap();
        let record = timeline.finish("plan").unwrap();
        assert_eq!(
            record.stage_arg("solve", "dp_path"),
            Some("monotone"),
            "{record:?}"
        );
    }

    #[test]
    fn invalid_cost_rates_fail_at_build() {
        let err = Planner::builder()
            .distribution(DistSpec::Exponential { lambda: 1.0 })
            .cost_rates(0.0, 0.0, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, RsjError::Core(_)), "{err}");
    }

    #[test]
    fn unknown_solver_name_is_typed() {
        let err = Planner::builder()
            .distribution(DistSpec::Exponential { lambda: 1.0 })
            .solver_name("warp_drive")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("warp_drive"), "{err}");
    }

    #[test]
    fn simulate_on_plan_attaches_batch_stats() {
        let plan = Planner::builder()
            .distribution(DistSpec::Exponential { lambda: 1.0 })
            .simulate(SimulateOptions { jobs: 64, seed: 9 })
            .build()
            .unwrap()
            .plan()
            .unwrap();
        let stats = plan.simulation.expect("simulation requested");
        assert!(stats.mean_cost.is_finite() && stats.mean_cost > 0.0);
    }

    #[test]
    fn fired_cancel_token_aborts_plan_with_typed_error() {
        use rsj_core::SolverSpec;
        for solver in [
            SolverSpec::BruteForce {
                grid: 500,
                samples: 200,
                analytic: true,
                seed: 1,
            },
            SolverSpec::Dp {
                scheme: rsj_dist::DiscretizationScheme::EqualProbability,
                n: 500,
                epsilon: 1e-7,
                monotone: true,
            },
            SolverSpec::MeanByMean,
        ] {
            let planner = Planner::builder()
                .distribution(DistSpec::LogNormal {
                    mu: 3.0,
                    sigma: 0.5,
                })
                .solver(solver)
                .build()
                .unwrap();
            let plan_with = |cancel: &CancelToken| {
                planner.plan_traced(cancel, &mut rsj_obs::Timeline::disabled())
            };
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                plan_with(&token).unwrap_err(),
                RsjError::Core(rsj_core::CoreError::Cancelled),
            );
            // An expired deadline behaves the same without an explicit cancel.
            let expired = CancelToken::with_deadline(
                std::time::Instant::now() - std::time::Duration::from_millis(1),
            );
            assert!(plan_with(&expired).is_err());
            // A live token changes nothing: bit-identical to plan().
            let live = CancelToken::with_deadline(
                std::time::Instant::now() + std::time::Duration::from_secs(3600),
            );
            let a = plan_with(&live).unwrap();
            let b = planner.plan().unwrap();
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.sequence, b.sequence);
        }
    }

    #[test]
    fn plan_many_matches_singleton_plans_bit_for_bit() {
        let dp = SolverSpec::Dp {
            scheme: rsj_dist::DiscretizationScheme::EqualProbability,
            n: 180,
            epsilon: 1e-7,
            monotone: true,
        };
        // Interleave two groups plus a closed-form item so the grouped
        // solve order differs from input order.
        let requests = vec![
            PlanRequest::new(DistSpec::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            })
            .with_solver(dp.clone()),
            PlanRequest::new(DistSpec::LogNormal {
                mu: 1.0,
                sigma: 0.25,
            })
            .with_solver(dp.clone()),
            PlanRequest::new(DistSpec::Exponential { lambda: 1.0 }),
            PlanRequest::new(DistSpec::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            })
            .with_solver(dp.clone())
            .with_cost(CostModel::new(1.0, 0.5, 0.1).unwrap()),
            PlanRequest::new(DistSpec::LogNormal {
                mu: 1.0,
                sigma: 0.25,
            })
            .with_solver(dp),
        ];
        let batch = Planner::plan_many(&requests);
        assert_eq!(batch.len(), requests.len());
        for (req, got) in requests.iter().zip(&batch) {
            let solo = req.planner().unwrap().plan().unwrap();
            let got = got.as_ref().expect("batch item ok");
            assert_eq!(got.digest, solo.digest);
            assert_eq!(got.sequence, solo.sequence);
            assert_eq!(got.expected_cost.to_bits(), solo.expected_cost.to_bits());
        }
    }

    #[test]
    fn plan_many_keeps_bad_items_independent() {
        let requests = vec![
            PlanRequest::new(DistSpec::Exponential { lambda: 1.0 }),
            PlanRequest::new(DistSpec::Exponential { lambda: -1.0 }),
            PlanRequest::new(DistSpec::Exponential { lambda: 2.0 }),
        ];
        let batch = Planner::plan_many(&requests);
        assert!(batch[0].is_ok());
        assert!(batch[1].is_err());
        assert!(batch[2].is_ok());
    }

    #[test]
    fn plan_many_traced_records_item_stages_with_indices() {
        let requests = vec![
            PlanRequest::new(DistSpec::Exponential { lambda: 1.0 }),
            PlanRequest::new(DistSpec::Exponential { lambda: 2.0 }),
        ];
        let mut timeline =
            rsj_obs::Timeline::begin(rsj_obs::TraceContext::generate(), std::time::Instant::now());
        let batch = Planner::plan_many_traced(&requests, &CancelToken::none(), &mut timeline);
        assert!(batch.iter().all(|r| r.is_ok()));
        let record = timeline.finish("plan_batch").unwrap();
        let items: Vec<_> = record.stages.iter().filter(|s| s.name == "item").collect();
        assert_eq!(items.len(), 2);
        let mut indices: Vec<String> = items
            .iter()
            .flat_map(|s| s.args.iter())
            .filter(|(k, _)| k == "item")
            .map(|(_, v)| v.clone())
            .collect();
        indices.sort();
        assert_eq!(indices, vec!["0".to_string(), "1".to_string()]);
    }

    #[test]
    fn plan_many_traced_items_carry_their_own_solves_attribution() {
        // [A, A, B]: A is a DP item on a law no other test plans, so its
        // first table is cold; B is a closed-form item.
        let a = PlanRequest::new(DistSpec::Weibull {
            lambda: 2.71,
            kappa: 1.61,
        })
        .with_solver(SolverSpec::Dp {
            scheme: rsj_dist::DiscretizationScheme::EqualProbability,
            n: 171,
            epsilon: 1e-7,
            monotone: true,
        });
        let b = PlanRequest::new(DistSpec::Exponential { lambda: 1.0 })
            .with_solver(SolverSpec::MeanByMean);
        let requests = vec![a.clone(), a, b];
        let mut timeline =
            rsj_obs::Timeline::begin(rsj_obs::TraceContext::generate(), std::time::Instant::now());
        let batch = Planner::plan_many_traced(&requests, &CancelToken::none(), &mut timeline);
        assert!(batch.iter().all(|r| r.is_ok()));
        let record = timeline.finish("plan_batch").unwrap();
        let by_slot = |slot: &str| {
            let stage = record
                .stages
                .iter()
                .find(|s| s.name == "item" && s.arg("item") == Some(slot))
                .unwrap_or_else(|| panic!("no item stage for slot {slot}: {record:?}"));
            (stage.arg("eval_table"), stage.arg("dp_path"))
        };
        assert_eq!(by_slot("0"), (Some("cold"), Some("monotone")));
        assert_eq!(by_slot("1"), (Some("warm"), Some("monotone")));
        assert_eq!(by_slot("2"), (None, None));
        // The items' own stages are folded away.
        assert_eq!(record.stages.len(), 3, "{record:?}");
    }

    #[test]
    fn fired_cancel_fails_remaining_plan_many_items() {
        let token = CancelToken::new();
        token.cancel();
        let requests = vec![PlanRequest::new(DistSpec::Exponential { lambda: 1.0 })];
        let batch =
            Planner::plan_many_traced(&requests, &token, &mut rsj_obs::Timeline::disabled());
        assert_eq!(
            batch[0].as_ref().unwrap_err(),
            &RsjError::Core(rsj_core::CoreError::Cancelled)
        );
    }

    #[test]
    fn batch_order_runs_each_group_together_and_keyless_items_last() {
        let exp = |lambda| PlanRequest::new(DistSpec::Exponential { lambda });
        let requests = vec![
            exp(2.0),
            exp(-1.0),
            exp(1.0),
            exp(2.0).with_solver(SolverSpec::MeanDoubling),
            exp(1.0).with_cost(CostModel::new(1.0, 0.5, 0.1).unwrap()),
            exp(1.0),
        ];
        let order: Vec<(usize, Option<String>)> = Planner::batch_order(&requests)
            .into_iter()
            .map(|(i, built)| (i, built.ok().and_then(|p| p.group_key())))
            .collect();
        let mut runs: Vec<&Option<String>> = order.iter().map(|(_, key)| key).collect();
        runs.dedup();
        // Three groups (a new cost is a new group) plus the invalid item.
        assert_eq!(runs.len(), 4, "each group is visited in one run: {order:?}");
        assert!(
            order
                .windows(2)
                .all(|w| w[0].1 != w[1].1 || w[0].0 < w[1].0),
            "input order within a group: {order:?}"
        );
        assert_eq!(order.last(), Some(&(1, None)), "the invalid item runs last");
    }

    #[test]
    fn group_key_is_the_cache_key_without_the_solver() {
        let planner = Planner::builder()
            .distribution(DistSpec::Exponential { lambda: 1.0 })
            .solver_name("mean_by_mean")
            .build()
            .unwrap();
        let cache_key = planner.cache_key().unwrap();
        let group_key = planner.group_key().unwrap();
        assert!(cache_key.starts_with(&group_key));
        assert!(!group_key.contains("mean_by_mean"));
        // A different solver over the same law shares the group.
        let other = Planner::builder()
            .distribution(DistSpec::Exponential { lambda: 1.0 })
            .solver_name("mean_doubling")
            .build()
            .unwrap();
        assert_eq!(other.group_key().unwrap(), group_key);
        assert_ne!(other.cache_key().unwrap(), cache_key);
    }

    #[test]
    fn cache_key_separates_every_input() {
        let base = || Planner::builder().distribution(DistSpec::Exponential { lambda: 1.0 });
        let a = base().build().unwrap().cache_key().unwrap();
        let other_dist = base()
            .distribution(DistSpec::Exponential { lambda: 2.0 })
            .build()
            .unwrap()
            .cache_key()
            .unwrap();
        let other_cost = base()
            .cost_rates(2.0, 0.0, 0.0)
            .build()
            .unwrap()
            .cache_key()
            .unwrap();
        let other_solver = base()
            .solver_name("mean_doubling")
            .build()
            .unwrap()
            .cache_key()
            .unwrap();
        assert_ne!(a, other_dist);
        assert_ne!(a, other_cost);
        assert_ne!(a, other_solver);
        assert_eq!(a, base().build().unwrap().cache_key().unwrap());
        assert!(a.starts_with(&format!("rev{SOLVER_REVISION}|")), "{a}");
    }
}
