//! Discretization-based dynamic programming (§4.2 / Theorem 5).
//!
//! For a finite discrete distribution `X ~ (vᵢ, fᵢ)` the STOCHASTIC problem
//! is solved *optimally* in `O(n²)`: with `E*ᵢ` the optimal expected cost
//! conditioned on `X ≥ vᵢ`,
//!
//! ```text
//! E*ᵢ = min_{i ≤ j ≤ n} [ α·vⱼ + γ + Σ_{k=i..j} f'ₖ·β·vₖ
//!                         + (Σ_{k>j} f'ₖ)·(β·vⱼ + E*ⱼ₊₁) ]
//! ```
//!
//! We work with the *unnormalized* `Wᵢ = E*ᵢ · Sᵢ` (`Sᵢ = Σ_{k≥i} fₖ`),
//! which removes the per-state renormalization and keeps the whole program
//! at two prefix-sum arrays.
//!
//! ## Fast path
//!
//! The per-state minimization is totally monotone (see `dp_monotone`), so
//! [`optimal_discrete`] first attempts the `O(n log n)` envelope pass and
//! falls back to the exact `O(n²)` scan when the runtime gate declines or
//! the pass aborts: on a near-tie whose float outcomes no envelope of lines
//! reproduces, or on a non-finite candidate. Whenever the fast path
//! completes it is bit-for-bit identical to the exact pass;
//! [`optimal_discrete_exact`] forces the `O(n²)` pass for A/B runs and
//! verification.

use super::dp_monotone;
use super::{Solve, Strategy, TailPolicy};
use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::{CoreError, Result};
use crate::sequence::ReservationSequence;
use rsj_dist::{
    discretize_eval, ContinuousDistribution, DiscreteDistribution, DiscretizationScheme,
};

/// States of the backward pass between cancellation polls (shared with
/// the monotone fast path so both react on the same cadence).
pub(super) const DP_CANCEL_STRIDE: usize = 64;

/// Which pass produced a DP solution: carried on [`DpSolution::path`]
/// and, through [`Strategy::solve`], on the planner's `solve` trace stage
/// and in `rsj plan --explain-solver`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpPath {
    /// The `O(n log n)` monotone envelope pass completed (gate fired).
    Monotone,
    /// The gate declined, or the envelope pass aborted on a near-tie whose
    /// float outcomes are not one run of wins then losses or on a
    /// non-finite candidate, and the exact `O(n²)` pass ran as the
    /// fallback.
    ExactDeclined,
    /// The exact `O(n²)` pass was forced — `monotone: false` in the
    /// solver spec, or a direct call to an `optimal_discrete_exact*`
    /// entry point.
    ExactForced,
}

impl DpPath {
    /// Short stable label for trace args and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            DpPath::Monotone => "monotone",
            DpPath::ExactDeclined => "exact_gate_declined",
            DpPath::ExactForced => "exact_forced",
        }
    }
}

/// Optimal solution of STOCHASTIC for a discrete distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// Optimal expected cost `E*₁`.
    pub expected_cost: f64,
    /// The optimal reservation values (a subsequence of the support).
    pub values: Vec<f64>,
    /// Indices of the chosen values within the support.
    pub indices: Vec<usize>,
    /// The pass that produced this solution.
    pub path: DpPath,
}

/// Solves STOCHASTIC exactly for a discrete distribution (Theorem 5).
/// Dispatches to the `O(n log n)` monotone fast path when its gate
/// accepts (the common case), falling back to the exact `O(n²)` pass
/// otherwise; either way the result is the same bits.
pub fn optimal_discrete(dist: &DiscreteDistribution, cost: &CostModel) -> Result<DpSolution> {
    optimal_discrete_cancellable(dist, cost, &CancelToken::none())
}

/// [`optimal_discrete`] with cooperative cancellation, polled every
/// `DP_CANCEL_STRIDE` states of the backward pass. An uncancelled run is
/// bit-for-bit identical to [`optimal_discrete`].
pub(crate) fn optimal_discrete_cancellable(
    dist: &DiscreteDistribution,
    cost: &CostModel,
    cancel: &CancelToken,
) -> Result<DpSolution> {
    let _span = rsj_obs::span!("dp.optimal_discrete", "rsj_core_dp_wall_seconds");
    let v = dist.values();
    let f = dist.probs();
    let s = dist.suffix_masses();
    let a = prefix_weighted_values(v, f);
    if let Some(solution) = try_monotone(v, f, &s, &a, cost, cancel)? {
        return Ok(solution);
    }
    rsj_obs::debug!(
        "dp monotone gate declined on {} states; running exact O(n²) pass",
        v.len()
    );
    exact_pass(v, &s, &a, cost, cancel, DpPath::ExactDeclined)
}

/// The exact `O(n²)` Theorem 5 pass, bypassing the monotone gate. This is
/// the reference implementation the fast path must match bit-for-bit;
/// keep it for A/B runs (`SolverSpec::Dp { monotone: false, .. }`), for
/// the equivalence suite, and as the fallback when the gate declines.
pub fn optimal_discrete_exact(dist: &DiscreteDistribution, cost: &CostModel) -> Result<DpSolution> {
    optimal_discrete_exact_cancellable(dist, cost, &CancelToken::none())
}

/// [`optimal_discrete_exact`] with cooperative cancellation.
pub(crate) fn optimal_discrete_exact_cancellable(
    dist: &DiscreteDistribution,
    cost: &CostModel,
    cancel: &CancelToken,
) -> Result<DpSolution> {
    let _span = rsj_obs::span!("dp.optimal_discrete_exact", "rsj_core_dp_wall_seconds");
    let v = dist.values();
    let f = dist.probs();
    let s = dist.suffix_masses();
    let a = prefix_weighted_values(v, f);
    exact_pass(v, &s, &a, cost, cancel, DpPath::ExactForced)
}

/// Attempts the monotone fast path *without* the exact fallback:
/// `Ok(None)` when the gate declines or the envelope pass aborts. Benchmarks
/// and the equivalence suite use this to time and verify the envelope
/// pass in isolation; production callers want [`optimal_discrete`],
/// which never returns `None`.
pub fn optimal_discrete_monotone(
    dist: &DiscreteDistribution,
    cost: &CostModel,
    cancel: &CancelToken,
) -> Result<Option<DpSolution>> {
    let _span = rsj_obs::span!("dp.optimal_discrete_monotone", "rsj_core_dp_wall_seconds");
    let v = dist.values();
    let f = dist.probs();
    let s = dist.suffix_masses();
    let a = prefix_weighted_values(v, f);
    try_monotone(v, f, &s, &a, cost, cancel)
}

/// One attempt at the monotone envelope pass with its `rsj_core_dp_*`
/// counters: `Ok(None)`, counted as declined, when the gate declines or
/// the pass aborts.
fn try_monotone(
    v: &[f64],
    f: &[f64],
    s: &[f64],
    a: &[f64],
    cost: &CostModel,
    cancel: &CancelToken,
) -> Result<Option<DpSolution>> {
    let Some(m) = dp_monotone::try_solve(v, f, s, a, cost, cancel)? else {
        if rsj_obs::metrics_enabled() {
            rsj_obs::global_registry()
                .counter("rsj_core_dp_monotone_declined_total")
                .inc();
        }
        return Ok(None);
    };
    if rsj_obs::metrics_enabled() {
        let reg = rsj_obs::global_registry();
        reg.counter("rsj_core_dp_solves_total").inc();
        reg.counter("rsj_core_dp_states_total").add(v.len() as u64);
        reg.counter("rsj_core_dp_monotone_solves_total").inc();
        reg.counter("rsj_core_dp_monotone_evals_total").add(m.evals);
    }
    rsj_obs::debug!(
        "dp monotone fast path solved {} states in {} candidate evals",
        v.len(),
        m.evals
    );
    solution_from(&m.w, &m.choice, v, s, DpPath::Monotone).map(Some)
}

/// Prefix sums of `fₖ·vₖ`: `a[i] = Σ_{k<i} fₖ·vₖ`. Together with the
/// suffix masses these hoist every distribution evaluation out of the
/// inner loop — each candidate is pure arithmetic on the precomputed
/// arrays (no `cdf`/survival calls per `(i, j)` pair). Shared by both
/// passes so their candidate values are computed from identical inputs.
pub(super) fn prefix_weighted_values(v: &[f64], f: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut a = vec![0.0; n + 1];
    for i in 0..n {
        a[i + 1] = a[i] + f[i] * v[i];
    }
    a
}

/// The exact `O(n²)` backward pass over precomputed arrays; `path` says
/// why it ran. Each state scans `j ∈ [i, n)` in order and keeps a
/// candidate only when it is strictly below the best so far, so ties go
/// to the smallest `j` and a NaN candidate never wins.
fn exact_pass(
    v: &[f64],
    s: &[f64],
    a: &[f64],
    cost: &CostModel,
    cancel: &CancelToken,
    path: DpPath,
) -> Result<DpSolution> {
    let n = v.len();
    // w[i] = Wᵢ = E*ᵢ·Sᵢ; choice[i] = minimizing j.
    let mut w = vec![0.0; n + 1];
    let mut choice = vec![0usize; n];
    for i in (0..n).rev() {
        // Each state costs O(n - i); polling by stride keeps the check
        // off the inner arithmetic while bounding reaction latency to a
        // few thousand transitions.
        if (n - i).is_multiple_of(DP_CANCEL_STRIDE) {
            cancel.check()?;
        }
        let mut best = f64::INFINITY;
        let mut best_j = i;
        for j in i..n {
            let cand = (cost.alpha * v[j] + cost.gamma) * s[i]
                + cost.beta * (a[j + 1] - a[i])
                + cost.beta * v[j] * s[j + 1]
                + w[j + 1];
            if cand < best {
                best = cand;
                best_j = j;
            }
        }
        w[i] = best;
        choice[i] = best_j;
    }

    if rsj_obs::metrics_enabled() {
        let reg = rsj_obs::global_registry();
        reg.counter("rsj_core_dp_solves_total").inc();
        reg.counter("rsj_core_dp_states_total").add(n as u64);
        // The O(n²) inner minimization: Σ_{i} (n - i) transitions.
        reg.counter("rsj_core_dp_transitions_total")
            .add((n as u64 * (n as u64 + 1)) / 2);
    }
    rsj_obs::debug!(
        "dp solved {} states: cost {:.6}",
        n,
        if s[0] > 0.0 { w[0] / s[0] } else { f64::NAN }
    );
    solution_from(&w, &choice, v, s, path)
}

/// Backtracks the chosen reservations and packages the solution — shared
/// verbatim by both passes so the output shape (and the `w[0] / s[0]`
/// normalization) is computed identically. An optimum that is not a
/// finite cost (every candidate overflowed) is a typed error, not a plan.
fn solution_from(
    w: &[f64],
    choice: &[usize],
    v: &[f64],
    s: &[f64],
    path: DpPath,
) -> Result<DpSolution> {
    let expected_cost = w[0] / s[0];
    if !expected_cost.is_finite() {
        return Err(CoreError::DegenerateEvaluation {
            what: "optimal expected cost",
            value: expected_cost,
        });
    }
    let n = v.len();
    let mut indices = Vec::new();
    let mut i = 0;
    while i < n {
        let j = choice[i];
        indices.push(j);
        i = j + 1;
    }
    let values: Vec<f64> = indices.iter().map(|&j| v[j]).collect();
    if values.is_empty() {
        return Err(CoreError::EmptySequence);
    }
    Ok(DpSolution {
        expected_cost,
        values,
        indices,
        path,
    })
}

/// Expected cost of an *arbitrary* increasing subsequence of reservation
/// indices for a discrete distribution — the exact discrete analogue of
/// Eq. 4. Used to verify DP optimality in tests and benches.
pub fn discrete_sequence_cost(
    dist: &DiscreteDistribution,
    cost: &CostModel,
    indices: &[usize],
) -> f64 {
    let v = dist.values();
    let f = dist.probs();
    let n = v.len();
    assert!(
        indices.last() == Some(&(n - 1)),
        "sequence must end at the largest support value"
    );
    // E = Σ over jobs k of f_k · C(job k), with C per Eq. 2.
    let mut total = 0.0;
    for k in 0..n {
        let t = v[k];
        let mut c = 0.0;
        for &j in indices {
            if t <= v[j] {
                c += cost.single(v[j], t);
                break;
            }
            c += cost.failed(v[j]);
        }
        total += f[k] * c;
    }
    total
}

/// The §4.2 heuristic for continuous distributions: truncate + discretize
/// (`Equal-time` or `Equal-probability`), solve the discrete instance by DP,
/// and use the resulting reservation values.
///
/// For unbounded supports the DP sequence ends at `vₙ = Q(1-ε)`; per §4.2.2
/// "additional values can be appended … by using other heuristics", the
/// sequence is extended with conditional-mean steps until the tail cutoff.
#[derive(Debug, Clone)]
pub struct DiscretizedDp {
    scheme: DiscretizationScheme,
    n: usize,
    epsilon: f64,
    monotone: bool,
    /// Tail policy for the unbounded-support extension.
    pub policy: TailPolicy,
}

impl DiscretizedDp {
    /// Creates the heuristic; the paper uses `n = 1000`, `ε = 1e-7`. The
    /// monotone fast path is on by default (it changes no output bits);
    /// see `with_monotone` for A/B runs.
    pub fn new(scheme: DiscretizationScheme, n: usize, epsilon: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidHeuristicParameter {
                name: "n",
                reason: "number of discretization samples must be positive",
            });
        }
        if !(0.0..1.0).contains(&epsilon) {
            return Err(CoreError::InvalidHeuristicParameter {
                name: "epsilon",
                reason: "truncation quantile must be in (0, 1)",
            });
        }
        Ok(Self {
            scheme,
            n,
            epsilon,
            monotone: true,
            policy: TailPolicy::default(),
        })
    }

    /// Paper parameters: `n = 1000`, `ε = 1e-7`.
    pub fn paper(scheme: DiscretizationScheme) -> Self {
        Self::new(scheme, 1000, 1e-7).expect("paper parameters are valid")
    }

    /// Enables or disables the `O(n log n)` monotone fast path (on by
    /// default). Disabling forces the exact `O(n²)` pass on every solve —
    /// the output is identical either way; the knob exists for A/B timing
    /// runs and for pinning down a suspected fast-path discrepancy.
    pub(crate) fn with_monotone(mut self, on: bool) -> Self {
        self.monotone = on;
        self
    }
}

impl Strategy for DiscretizedDp {
    fn name(&self) -> &str {
        match self.scheme {
            DiscretizationScheme::EqualTime => "Equal-time",
            DiscretizationScheme::EqualProbability => "Equal-probability",
        }
    }

    fn sequence(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
    ) -> Result<ReservationSequence> {
        Ok(self.solve(dist, cost, &CancelToken::none())?.sequence)
    }

    fn solve(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
        cancel: &CancelToken,
    ) -> Result<Solve> {
        cancel.check()?;
        // Memoized discretization: repeated solves over the same
        // (dist, scheme, n, ε) skip every quantile/cdf call.
        let (eval, source) = discretize_eval(dist, self.scheme, self.n, self.epsilon)?;
        let solution = if self.monotone {
            optimal_discrete_cancellable(&eval.discrete, cost, cancel)?
        } else {
            optimal_discrete_exact_cancellable(&eval.discrete, cost, cancel)?
        };
        let solved = |sequence| Solve {
            sequence,
            dp_path: Some(solution.path),
            eval_table: Some(source),
        };
        let mut times = solution.values;
        let bounded = dist.support().is_bounded();
        if bounded {
            return ReservationSequence::new(times, true).map(solved);
        }
        // Unbounded: extend past v_n = Q(1-ε) with conditional-mean steps.
        // The DP always ends at v_n, whose survival and conditional mean
        // the memo entry holds (exactly — the same calls a direct
        // evaluation makes); deeper steps leave the grid and fall back to
        // direct calls.
        let mut t = *times.last().expect("DP sequence non-empty");
        let mut memo_tail =
            (t == eval.discrete.max_value()).then_some((eval.tail_survival, eval.tail_cond_mean));
        while times.len() < self.policy.max_len {
            // Off-grid steps cost a quadrature each; stay responsive here.
            cancel.check()?;
            let (survival, cached_cm) = match memo_tail.take() {
                Some((survival, cm)) => (survival, Some(cm)),
                None => (dist.survival(t), None),
            };
            if survival < self.policy.tail_cutoff {
                break;
            }
            let cm = cached_cm.unwrap_or_else(|| dist.conditional_mean_above(t));
            let next = if cm > t * (1.0 + 1e-9) { cm } else { t * 1.5 };
            times.push(next);
            t = next;
        }
        ReservationSequence::new(times, false).map(solved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_dist::{Exponential, Uniform};

    fn d3() -> DiscreteDistribution {
        DiscreteDistribution::new(vec![1.0, 2.0, 4.0], vec![0.5, 0.3, 0.2]).unwrap()
    }

    #[test]
    fn dp_single_point() {
        let d = DiscreteDistribution::new(vec![3.0], vec![1.0]).unwrap();
        let c = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let sol = optimal_discrete(&d, &c).unwrap();
        assert_eq!(sol.values, vec![3.0]);
        // E* = α·3 + β·3 + γ.
        assert!((sol.expected_cost - 6.5).abs() < 1e-12);
    }

    #[test]
    fn dp_matches_exhaustive_enumeration() {
        // Enumerate all 2^{n-1} increasing subsequences ending at vₙ and
        // check the DP's cost is minimal.
        let d = d3();
        let c = CostModel::new(1.0, 0.5, 0.25).unwrap();
        let sol = optimal_discrete(&d, &c).unwrap();
        let n = d.values().len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << (n - 1)) {
            let mut indices: Vec<usize> = (0..n - 1).filter(|&i| mask & (1 << i) != 0).collect();
            indices.push(n - 1);
            let cost_val = discrete_sequence_cost(&d, &c, &indices);
            best = best.min(cost_val);
        }
        assert!(
            (sol.expected_cost - best).abs() < 1e-12,
            "dp {} vs exhaustive {best}",
            sol.expected_cost
        );
        // Cross-check the DP's own sequence cost agrees with its value.
        let direct = discrete_sequence_cost(&d, &c, &sol.indices);
        assert!((direct - sol.expected_cost).abs() < 1e-12);
    }

    #[test]
    fn dp_reservation_only_picks_last_only_when_cheap() {
        // RESERVATIONONLY with near-uniform masses on close values: one
        // big reservation is optimal.
        let d = DiscreteDistribution::new(vec![9.0, 10.0], vec![0.5, 0.5]).unwrap();
        let c = CostModel::reservation_only();
        let sol = optimal_discrete(&d, &c).unwrap();
        // Option A: reserve 10 once → cost 10.
        // Option B: reserve 9 then 10 → 9 + 0.5·10 = 14.
        assert_eq!(sol.values, vec![10.0]);
        assert!((sol.expected_cost - 10.0).abs() < 1e-12);
    }

    #[test]
    fn dp_splits_when_gap_is_large() {
        // A tiny value with high mass and a huge value with low mass: two
        // reservations win under RESERVATIONONLY.
        let d = DiscreteDistribution::new(vec![1.0, 100.0], vec![0.99, 0.01]).unwrap();
        let c = CostModel::reservation_only();
        let sol = optimal_discrete(&d, &c).unwrap();
        // Reserve 1 then 100: 1 + 0.01·100 = 2 ≪ 100.
        assert_eq!(sol.values, vec![1.0, 100.0]);
        assert!((sol.expected_cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dp_always_ends_at_max_value() {
        let d = d3();
        for cost in [
            CostModel::reservation_only(),
            CostModel::new(0.95, 1.0, 1.05).unwrap(),
            CostModel::new(2.0, 0.0, 10.0).unwrap(),
        ] {
            let sol = optimal_discrete(&d, &cost).unwrap();
            assert_eq!(*sol.values.last().unwrap(), 4.0);
        }
    }

    #[test]
    fn heuristic_on_uniform_reproduces_theorem4() {
        // Discretized Uniform + DP must find the single reservation (b)
        // (Table 2: normalized cost 1.33 for both schemes).
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            let h = DiscretizedDp::new(scheme, 500, 1e-7).unwrap();
            let s = h.sequence(&d, &c).unwrap();
            assert_eq!(s.times(), &[20.0], "{scheme:?}");
            assert!(s.is_complete());
        }
    }

    #[test]
    fn heuristic_on_exponential_extends_past_truncation() {
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let h = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 200, 1e-5).unwrap();
        let s = h.sequence(&d, &c).unwrap();
        // Truncation point is Q(1 - 1e-5) ≈ 11.5; the extension must go
        // deeper (survival < 1e-12 ⇒ t > 27.6).
        assert!(s.last() > 20.0, "last {}", s.last());
        assert!(d.survival(s.last()) < 1e-11);
        for w in s.times().windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(DiscretizedDp::new(DiscretizationScheme::EqualTime, 0, 1e-7).is_err());
        assert!(DiscretizedDp::new(DiscretizationScheme::EqualTime, 10, 1.5).is_err());
    }

    /// The pre-EvalTable reference implementation of
    /// [`DiscretizedDp::sequence`]: fresh discretization, a direct DP, and
    /// direct `survival`/`conditional_mean_above` calls in the tail
    /// extension. Kept in tests as the before/after oracle for the
    /// grid-hoisting change.
    fn sequence_reference(
        dp: &DiscretizedDp,
        dist: &dyn rsj_dist::ContinuousDistribution,
        cost: &CostModel,
    ) -> ReservationSequence {
        let discrete = rsj_dist::discretize(dist, dp.scheme, dp.n, 1e-7).unwrap();
        let solution = optimal_discrete(&discrete, cost).unwrap();
        let mut times = solution.values;
        if dist.support().is_bounded() {
            return ReservationSequence::new(times, true).unwrap();
        }
        let mut t = *times.last().unwrap();
        while dist.survival(t) >= dp.policy.tail_cutoff && times.len() < dp.policy.max_len {
            let cm = dist.conditional_mean_above(t);
            let next = if cm > t * (1.0 + 1e-9) { cm } else { t * 1.5 };
            times.push(next);
            t = next;
        }
        ReservationSequence::new(times, false).unwrap()
    }

    #[test]
    fn eval_table_path_is_bit_identical_to_direct_path() {
        // The memoized strategy equals the direct-evaluation strategy
        // bit-for-bit for all nine Table 1 families, bounded and unbounded
        // supports alike, so the memo's last-point tail values are checked
        // wherever the DP reads them.
        rsj_dist::clear_eval_cache();
        let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let dists: Vec<Box<dyn rsj_dist::ContinuousDistribution>> =
            rsj_dist::DistSpec::paper_table1()
                .into_iter()
                .map(|(_, spec)| spec.build().unwrap())
                .collect();
        assert_eq!(dists.len(), 9);
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            let dp = DiscretizedDp::new(scheme, 300, 1e-7).unwrap();
            for dist in &dists {
                let reference = sequence_reference(&dp, dist.as_ref(), &c);
                // Run the table path twice: cold cache and warm cache.
                for pass in ["cold", "warm"] {
                    let cached = dp.sequence(dist.as_ref(), &c).unwrap();
                    assert_eq!(
                        reference.times().len(),
                        cached.times().len(),
                        "{scheme:?}/{}/{pass}",
                        dist.name()
                    );
                    for (a, b) in reference.times().iter().zip(cached.times()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{scheme:?}/{}/{pass}: {a} vs {b}",
                            dist.name()
                        );
                    }
                }
            }
        }
        rsj_dist::clear_eval_cache();
    }

    #[test]
    fn nan_candidates_never_win_however_wide_the_state() {
        // Raw slices, since a `DiscreteDistribution` keeps no zero-mass
        // point: every state past the first has zero suffix mass, and α·v
        // overflows on the huge values, so every candidate of those states
        // is ∞·0 = NaN. The scan keeps none of them (w = +∞), also in
        // states that span thousands of candidates, so the optimum reads
        // +∞, not NaN — and +∞ is a typed error, not a plan.
        let n = 5000;
        let mut v = vec![1.0];
        v.extend((1..n).map(|k| 1e308 * (1.0 + k as f64 * 1e-15)));
        let mut f = vec![0.0; n];
        f[0] = 1.0;
        let mut s = vec![0.0; n + 1];
        s[0] = 1.0;
        let a = prefix_weighted_values(&v, &f);
        let c = CostModel::new(2.0, 0.0, 0.0).unwrap();
        let solved = exact_pass(&v, &s, &a, &c, &CancelToken::none(), DpPath::ExactDeclined);
        match solved {
            Err(CoreError::DegenerateEvaluation { value, .. }) => {
                assert_eq!(value, f64::INFINITY);
            }
            other => panic!("expected a degenerate optimum, got {other:?}"),
        }
    }

    #[test]
    fn an_overflowing_optimum_is_a_typed_error() {
        // α·v overflows at every support point: every candidate is +∞, so
        // no reservation ladder has a finite cost.
        let d = DiscreteDistribution::new(vec![1e308, 1.5e308], vec![1.0, 1.0]).unwrap();
        let c = CostModel::new(2.0, 0.0, 0.0).unwrap();
        for solved in [optimal_discrete(&d, &c), optimal_discrete_exact(&d, &c)] {
            match solved {
                Err(CoreError::DegenerateEvaluation { value, .. }) => {
                    assert_eq!(value, f64::INFINITY);
                }
                other => panic!("expected a degenerate optimum, got {other:?}"),
            }
        }
    }

    #[test]
    fn monotone_knob_changes_no_bits() {
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let fast = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 400, 1e-7).unwrap();
        let slow = fast.clone().with_monotone(false);
        assert!(fast.monotone && !slow.monotone);
        let a = fast.sequence(&d, &c).unwrap();
        let b = slow.sequence(&d, &c).unwrap();
        assert_eq!(a.times().len(), b.times().len());
        for (x, y) in a.times().iter().zip(b.times()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
