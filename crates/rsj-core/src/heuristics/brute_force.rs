//! The BRUTE-FORCE procedure of §4.1: grid search over the first
//! reservation `t₁`, completing each candidate into a full sequence with
//! the optimal recurrence (Eq. 11) and keeping the cheapest.
//!
//! The search interval is `[a, b̄]` with `b̄` the distribution's upper
//! endpoint for bounded supports, or the Theorem 2 bound `A₁` otherwise.
//! Candidates whose recurrence breaks down (non-increasing step before the
//! evaluation horizon) are discarded — these are the gaps of Figure 3.

use super::{Solve, Strategy};
use crate::bounds::upper_bound_t1;
use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::{CoreError, Result};
use crate::eval::{expected_cost_analytic, expected_cost_monte_carlo};
use crate::recurrence::{sequence_from_t1, RecurrenceConfig};
use crate::sequence::ReservationSequence;
use rand::SeedableRng;
use rsj_dist::ContinuousDistribution;
use rsj_par::Parallelism;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// How candidate sequences are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalMethod {
    /// The paper's §5.1 estimator: average cost over `N` sampled job times
    /// (common random numbers across all candidates).
    MonteCarlo,
    /// The exact Eq. 4 series (an ablation over the paper's method; see
    /// `rsj-bench/benches/eval_methods.rs`).
    Analytic,
}

impl std::fmt::Display for EvalMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalMethod::MonteCarlo => write!(f, "monte_carlo"),
            EvalMethod::Analytic => write!(f, "analytic"),
        }
    }
}

impl std::str::FromStr for EvalMethod {
    type Err = CoreError;

    /// Parses the evaluation-method name used by CLI configs and the wire
    /// protocol: case-insensitive, `-`/`_`/space-insensitive, so
    /// `monte_carlo`, `Monte-Carlo` and `ANALYTIC` all parse.
    fn from_str(s: &str) -> Result<Self> {
        let canon: String = s
            .chars()
            .map(|c| match c {
                '-' | ' ' => '_',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        match canon.as_str() {
            "monte_carlo" | "montecarlo" => Ok(EvalMethod::MonteCarlo),
            "analytic" => Ok(EvalMethod::Analytic),
            _ => Err(CoreError::UnknownName {
                what: "evaluation method",
                input: s.to_string(),
                expected: "`monte_carlo` or `analytic`",
            }),
        }
    }
}

/// One point of a `t₁` sweep (the data behind Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The candidate first reservation.
    pub t1: f64,
    /// Normalized expected cost, or `None` when the candidate's recurrence
    /// is invalid (non-increasing).
    pub normalized_cost: Option<f64>,
}

/// Result of a brute-force search.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceResult {
    /// The best first reservation `t₁ᵇᶠ` found.
    pub t1: f64,
    /// The full sequence generated from it.
    pub sequence: ReservationSequence,
    /// Its expected cost (per the configured evaluation method).
    pub expected_cost: f64,
    /// Expected cost normalized by the omniscient scheduler.
    pub normalized_cost: f64,
    /// Number of grid candidates that yielded valid sequences.
    pub valid_candidates: usize,
}

/// The BRUTE-FORCE heuristic (§4.1). Paper parameters: `M = 5000` grid
/// points, `N = 1000` Monte-Carlo samples.
#[derive(Debug, Clone)]
pub struct BruteForce {
    m: usize,
    n_samples: usize,
    eval: EvalMethod,
    seed: u64,
    config: RecurrenceConfig,
    /// Worker-pool override; `None` follows [`Parallelism::current`].
    par: Option<Parallelism>,
}

/// Key of one memoized sample vector: `(dist.cache_key(), seed, n)`.
type SampleKey = (String, u64, usize);

/// Memo for Monte-Carlo sample vectors. The Table 3 quantile probes call
/// [`BruteForce::score_t1`] repeatedly with identical parameters, each
/// draw costing `n` quantile evaluations; the samples are pure functions
/// of the key, so sharing them changes nothing but the wall clock.
static SAMPLE_CACHE: OnceLock<Mutex<HashMap<SampleKey, Arc<Vec<f64>>>>> = OnceLock::new();

/// Entries kept before the sample memo is wiped (each holds `n` f64s).
const SAMPLE_CACHE_CAPACITY: usize = 256;

impl BruteForce {
    /// Creates a brute-force search with `m` grid points and `n_samples`
    /// Monte-Carlo samples (also used to set the recurrence validity
    /// horizon `Q(1 - 1/N)`).
    pub fn new(m: usize, n_samples: usize, eval: EvalMethod, seed: u64) -> Result<Self> {
        if m == 0 {
            return Err(CoreError::InvalidHeuristicParameter {
                name: "m",
                reason: "grid size must be positive",
            });
        }
        if n_samples < 2 {
            return Err(CoreError::InvalidHeuristicParameter {
                name: "n_samples",
                reason: "need at least two Monte-Carlo samples",
            });
        }
        Ok(Self {
            m,
            n_samples,
            eval,
            seed,
            config: RecurrenceConfig::for_monte_carlo(n_samples),
            par: None,
        })
    }

    /// Pins the worker pool used by [`BruteForce::sweep`] instead of the
    /// process-wide [`Parallelism::current`]. The sweep result is
    /// bit-for-bit identical at any thread count; this only controls the
    /// wall clock (and lets tests exercise both paths explicitly).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = Some(par);
        self
    }

    /// The `t₁` candidate grid over `[a, b̄]` (§4.1: `t₁ = a + m·(b̄-a)/M`).
    pub(crate) fn grid(&self, dist: &dyn ContinuousDistribution, cost: &CostModel) -> Vec<f64> {
        let a = dist.support().lower();
        let b = upper_bound_t1(dist, cost);
        (1..=self.m)
            .map(|k| a + k as f64 * (b - a) / self.m as f64)
            .collect()
    }

    fn samples(&self, dist: &dyn ContinuousDistribution) -> Arc<Vec<f64>> {
        let draw = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
            Arc::new(crate::eval::draw_samples(dist, self.n_samples, &mut rng))
        };
        let Some(dist_key) = dist.cache_key() else {
            return draw();
        };
        let key = (dist_key, self.seed, self.n_samples);
        let cache = SAMPLE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = cache.lock().expect("sample cache lock").get(&key) {
            return Arc::clone(hit);
        }
        let samples = draw();
        let mut map = cache.lock().expect("sample cache lock");
        if map.len() >= SAMPLE_CACHE_CAPACITY {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert(samples))
    }

    /// Scores every grid candidate; invalid candidates map to `None`
    /// (Figure 3's gaps). Parallelized over the grid with the
    /// deterministic `rsj-par` pool: the common-random-numbers samples
    /// are drawn once up front and shared read-only, so the sweep is
    /// bit-for-bit identical at any thread count.
    pub fn sweep(&self, dist: &dyn ContinuousDistribution, cost: &CostModel) -> Vec<SweepPoint> {
        self.sweep_cancellable(dist, cost, &CancelToken::none())
            .expect("a none token never cancels")
    }

    /// [`sweep`](Self::sweep) with cooperative cancellation, polled once
    /// per grid candidate. Once the token fires, remaining candidates are
    /// skipped (their scoring work elided) and the call returns
    /// [`CoreError::Cancelled`]; an uncancelled sweep is bit-for-bit the
    /// same as [`sweep`](Self::sweep).
    pub(crate) fn sweep_cancellable(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
        cancel: &CancelToken,
    ) -> Result<Vec<SweepPoint>> {
        cancel.check()?;
        let samples = match self.eval {
            EvalMethod::MonteCarlo => self.samples(dist),
            EvalMethod::Analytic => Arc::new(Vec::new()),
        };
        let omniscient = cost.omniscient(dist);
        // A malformed distribution (e.g. a degenerate online refit) can
        // yield non-finite samples or a useless omniscient baseline; every
        // candidate is then invalid — the caller sees `NoValidCandidate`
        // instead of a panic deep inside an evaluator.
        let degenerate =
            !(omniscient.is_finite() && omniscient > 0.0) || samples.iter().any(|s| !s.is_finite());
        if degenerate {
            return Ok(self
                .grid(dist, cost)
                .into_iter()
                .map(|t1| SweepPoint {
                    t1,
                    normalized_cost: None,
                })
                .collect());
        }
        let grid = self.grid(dist, cost);
        let points = self
            .par
            .unwrap_or_else(Parallelism::current)
            .par_map(&grid, |_, &t1| {
                // A fired token short-circuits the remaining candidates;
                // the whole sweep is then discarded below, so the skipped
                // scores never leak into an uncancelled result.
                if cancel.is_cancelled() {
                    return SweepPoint {
                        t1,
                        normalized_cost: None,
                    };
                }
                let normalized_cost = sequence_from_t1(dist, cost, t1, &self.config)
                    .ok()
                    .map(|seq| {
                        let e = match self.eval {
                            EvalMethod::MonteCarlo => {
                                expected_cost_monte_carlo(&seq, cost, &samples)
                            }
                            EvalMethod::Analytic => expected_cost_analytic(&seq, dist, cost),
                        };
                        e / omniscient
                    })
                    .filter(|c| c.is_finite());
                SweepPoint {
                    t1,
                    normalized_cost,
                }
            });
        cancel.check()?;
        Ok(points)
    }

    /// Runs the full search and returns the best candidate found.
    pub fn best(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
    ) -> Result<BruteForceResult> {
        self.best_cancellable(dist, cost, &CancelToken::none())
    }

    /// [`best`](Self::best) with cooperative cancellation (see
    /// [`sweep_cancellable`](Self::sweep_cancellable)).
    pub(crate) fn best_cancellable(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
        cancel: &CancelToken,
    ) -> Result<BruteForceResult> {
        let _span = rsj_obs::span!("brute_force.best", "rsj_core_brute_force_wall_seconds");
        let sweep = self.sweep_cancellable(dist, cost, cancel)?;
        let valid_candidates = sweep.iter().filter(|p| p.normalized_cost.is_some()).count();
        if rsj_obs::metrics_enabled() {
            let reg = rsj_obs::global_registry();
            reg.counter("rsj_core_brute_force_solves_total").inc();
            reg.counter("rsj_core_brute_force_candidates_total")
                .add(sweep.len() as u64);
            reg.counter("rsj_core_brute_force_valid_candidates_total")
                .add(valid_candidates as u64);
        }
        let best = sweep
            .iter()
            .filter_map(|p| p.normalized_cost.map(|c| (p.t1, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or(CoreError::NoValidCandidate)?;
        let sequence = sequence_from_t1(dist, cost, best.0, &self.config)?;
        let omniscient = cost.omniscient(dist);
        rsj_obs::debug!(
            "brute-force on {}: t1 {:.6}, normalized cost {:.6}, {}/{} valid candidates",
            dist.name(),
            best.0,
            best.1,
            valid_candidates,
            self.m
        );
        Ok(BruteForceResult {
            t1: best.0,
            sequence,
            expected_cost: best.1 * omniscient,
            normalized_cost: best.1,
            valid_candidates,
        })
    }

    /// Scores a *single* candidate `t₁` (the Table 3 quantile probes);
    /// `None` when the candidate is invalid.
    pub fn score_t1(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
        t1: f64,
    ) -> Option<f64> {
        let seq = sequence_from_t1(dist, cost, t1, &self.config).ok()?;
        if let EvalMethod::MonteCarlo = self.eval {
            let samples = self.samples(dist);
            if samples.iter().any(|s| !s.is_finite()) {
                return None;
            }
            let norm = expected_cost_monte_carlo(&seq, cost, &samples) / cost.omniscient(dist);
            return norm.is_finite().then_some(norm);
        }
        let norm = expected_cost_analytic(&seq, dist, cost) / cost.omniscient(dist);
        norm.is_finite().then_some(norm)
    }
}

impl Strategy for BruteForce {
    fn name(&self) -> &str {
        "Brute-Force"
    }

    fn sequence(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
    ) -> Result<ReservationSequence> {
        Ok(self.best(dist, cost)?.sequence)
    }

    fn solve(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
        cancel: &CancelToken,
    ) -> Result<Solve> {
        Ok(Solve {
            sequence: self.best_cancellable(dist, cost, cancel)?.sequence,
            dp_path: None,
            eval_table: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_dist::{Exponential, LogNormal, Uniform};

    #[test]
    fn uniform_finds_theorem4_optimum() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let bf = BruteForce::new(1000, 1000, EvalMethod::Analytic, 3).unwrap();
        let r = bf.best(&d, &c).unwrap();
        // Only t₁ = b (the last grid point) is valid (Theorem 4).
        assert!((r.t1 - 20.0).abs() < 1e-9, "t1 {}", r.t1);
        assert_eq!(r.sequence.times(), &[20.0]);
        assert!((r.normalized_cost - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.valid_candidates, 1);
    }

    #[test]
    fn exponential_finds_near_published_t1() {
        // §3.5: s₁ ≈ 0.74219 with E₁ ≈ analytic optimum.
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let bf = BruteForce::new(2000, 1000, EvalMethod::Analytic, 3).unwrap();
        let r = bf.best(&d, &c).unwrap();
        assert!(
            (r.t1 - 0.742).abs() < 0.06,
            "t1 {} should be near 0.742",
            r.t1
        );
    }

    #[test]
    fn sweep_has_gaps_and_valid_regions() {
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let bf = BruteForce::new(400, 1000, EvalMethod::Analytic, 3).unwrap();
        let sweep = bf.sweep(&d, &c);
        assert_eq!(sweep.len(), 400);
        let invalid = sweep.iter().filter(|p| p.normalized_cost.is_none()).count();
        let valid = sweep.len() - invalid;
        assert!(valid > 0, "some candidates must be valid");
        assert!(invalid > 0, "Fig. 3 shows gaps: some must be invalid");
        // Candidates in the known gap (0.4, 0.6) are invalid.
        for p in &sweep {
            if p.t1 > 0.4 && p.t1 < 0.6 {
                assert!(p.normalized_cost.is_none(), "t1 {} should be a gap", p.t1);
            }
        }
    }

    #[test]
    fn monte_carlo_close_to_analytic_at_optimum() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::reservation_only();
        let analytic = BruteForce::new(300, 1000, EvalMethod::Analytic, 3)
            .unwrap()
            .best(&d, &c)
            .unwrap();
        let mc = BruteForce::new(300, 4000, EvalMethod::MonteCarlo, 3)
            .unwrap()
            .best(&d, &c)
            .unwrap();
        assert!(
            (analytic.normalized_cost - mc.normalized_cost).abs() < 0.1,
            "analytic {} vs mc {}",
            analytic.normalized_cost,
            mc.normalized_cost
        );
    }

    #[test]
    fn score_t1_invalid_gives_none() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let bf = BruteForce::new(100, 1000, EvalMethod::Analytic, 3).unwrap();
        assert!(bf.score_t1(&d, &c, 15.0).is_none()); // Table 3: '-'
        assert!(bf.score_t1(&d, &c, 20.0).is_some());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(BruteForce::new(0, 100, EvalMethod::Analytic, 0).is_err());
        assert!(BruteForce::new(10, 1, EvalMethod::Analytic, 0).is_err());
    }

    #[test]
    fn malformed_distribution_is_no_valid_candidate_not_a_panic() {
        use rsj_dist::Support;
        // Stands in for a degenerate online refit: every moment is NaN.
        #[derive(Debug)]
        struct NanDist;
        impl rsj_dist::ContinuousDistribution for NanDist {
            fn name(&self) -> String {
                "NaN".into()
            }
            fn support(&self) -> Support {
                Support::Unbounded { lower: 0.0 }
            }
            fn pdf(&self, _t: f64) -> f64 {
                f64::NAN
            }
            fn cdf(&self, _t: f64) -> f64 {
                f64::NAN
            }
            fn quantile(&self, _p: f64) -> f64 {
                f64::NAN
            }
            fn mean(&self) -> f64 {
                f64::NAN
            }
            fn variance(&self) -> f64 {
                f64::NAN
            }
        }
        let c = CostModel::reservation_only();
        for eval in [EvalMethod::Analytic, EvalMethod::MonteCarlo] {
            let bf = BruteForce::new(50, 100, eval, 3).unwrap();
            assert_eq!(
                bf.best(&NanDist, &c).unwrap_err(),
                CoreError::NoValidCandidate
            );
            assert!(bf.score_t1(&NanDist, &c, 1.0).is_none());
        }
    }

    #[test]
    fn sweep_is_bit_for_bit_identical_across_thread_counts() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::reservation_only();
        for eval in [EvalMethod::Analytic, EvalMethod::MonteCarlo] {
            let bf = BruteForce::new(600, 400, eval, 11).unwrap();
            let serial = bf
                .clone()
                .with_parallelism(Parallelism::serial())
                .sweep(&d, &c);
            let parallel = bf
                .with_parallelism(Parallelism::new(4).unwrap())
                .sweep(&d, &c);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.t1.to_bits(), p.t1.to_bits());
                assert_eq!(
                    s.normalized_cost.map(f64::to_bits),
                    p.normalized_cost.map(f64::to_bits),
                    "{eval:?} diverged at t1 {}",
                    s.t1
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::reservation_only();
        let bf = BruteForce::new(200, 500, EvalMethod::MonteCarlo, 42).unwrap();
        let a = bf.best(&d, &c).unwrap();
        let b = bf.best(&d, &c).unwrap();
        assert_eq!(a.t1, b.t1);
        assert_eq!(a.expected_cost, b.expected_cost);
    }
}
