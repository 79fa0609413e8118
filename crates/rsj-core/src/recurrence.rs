//! The optimal-sequence recurrence of Theorem 3 / Proposition 1 (Eq. 11)
//! and its convex generalization (Appendix C, Eq. 37).
//!
//! An optimal sequence is fully determined by its first reservation `t₁`:
//! for `i ≥ 2`,
//!
//! ```text
//! tᵢ = (1 - F(tᵢ₋₂))/f(tᵢ₋₁) + (β/α)·((1 - F(tᵢ₋₁))/f(tᵢ₋₁) - tᵢ₋₁) - γ/α
//! ```
//!
//! ## Numerical reality of the recurrence
//!
//! The map `(tᵢ₋₂, tᵢ₋₁) → tᵢ` amplifies perturbations doubly
//! exponentially (for `Exp(1)`, `tᵢ = e^{tᵢ₋₁ - tᵢ₋₂}`), so even the exact
//! optimal `t₁` cannot be tracked in `f64` beyond a handful of terms: at
//! some depth the computed iterate dips below its predecessor. The paper's
//! brute force (§4.1/§5.2, Fig. 3) discards a candidate `t₁` whenever this
//! happens *before the sequence covers the Monte-Carlo evaluation horizon*
//! (`Q(1 - 1/N)` for `N` samples — their published `t₁ᵇᶠ` values are only
//! consistent with this reading). We reproduce exactly that semantics:
//!
//! 1. **Validity phase** — iterate Eq. 11 until `tᵢ ≥ Q(coverage_quantile)`
//!    (or `F(tᵢ) = 1` for bounded supports). A non-increasing step here
//!    invalidates `t₁` ([`CoreError::NonIncreasingSequence`], the Fig. 3
//!    gaps).
//! 2. **Extension phase** (unbounded supports) — keep iterating while the
//!    recurrence still increases; on breakdown switch to conditional-mean
//!    steps (`tᵢ₊₁ = E[X | X > tᵢ]`, always increasing) until
//!    `P(X ≥ tᵢ) < tail_cutoff`. The extension's cost contribution is
//!    `O(tail probability at the switch point)` and keeps both the analytic
//!    series (Eq. 4) and large Monte-Carlo runs well defined.

use crate::cost::{ConvexCost, CostModel};
use crate::error::{CoreError, Result};
use crate::sequence::ReservationSequence;
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Tuning knobs for sequence generation from the Eq. 11 recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecurrenceConfig {
    /// The sequence must increase at least until it covers this quantile of
    /// the job-time distribution; earlier breakdown invalidates `t₁`.
    /// Default `0.999`, matching the paper's `N = 1000` Monte-Carlo horizon.
    pub coverage_quantile: f64,
    /// The extension phase stops once `P(X ≥ tᵢ)` drops below this.
    pub tail_cutoff: f64,
    /// Hard cap on the number of materialized reservations.
    pub max_len: usize,
}

impl Default for RecurrenceConfig {
    fn default() -> Self {
        Self {
            coverage_quantile: 0.999,
            tail_cutoff: 1e-12,
            max_len: 100_000,
        }
    }
}

impl RecurrenceConfig {
    /// Coverage horizon matched to an `n`-sample Monte-Carlo evaluation
    /// (`Q(1 - 1/n)`).
    pub(crate) fn for_monte_carlo(n_samples: usize) -> Self {
        Self {
            coverage_quantile: 1.0 - 1.0 / n_samples.max(2) as f64,
            ..Self::default()
        }
    }
}

/// Relative slack when deciding that a reservation has reached the upper
/// end of a bounded support.
const UPPER_EPS: f64 = 1e-12;

/// One Eq. 11 step: the next reservation from the two previous ones.
fn next_affine(
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
    t_prev2: f64,
    t_prev1: f64,
) -> Option<f64> {
    let pdf = dist.pdf(t_prev1);
    if !(pdf > 0.0) || !pdf.is_finite() {
        return None;
    }
    let s_prev2 = if t_prev2 <= 0.0 {
        1.0
    } else {
        dist.survival(t_prev2)
    };
    let s_prev1 = dist.survival(t_prev1);
    let t = s_prev2 / pdf + (cost.beta / cost.alpha) * (s_prev1 / pdf - t_prev1)
        - cost.gamma / cost.alpha;
    t.is_finite().then_some(t)
}

/// One Eq. 37 step for a convex reservation cost `G`.
fn next_convex(
    dist: &dyn ContinuousDistribution,
    cost: &dyn ConvexCost,
    t_prev2: f64,
    t_prev1: f64,
) -> Option<f64> {
    let pdf = dist.pdf(t_prev1);
    if !(pdf > 0.0) || !pdf.is_finite() {
        return None;
    }
    let s_prev2 = if t_prev2 <= 0.0 {
        1.0
    } else {
        dist.survival(t_prev2)
    };
    let s_prev1 = dist.survival(t_prev1);
    let arg = cost.g_prime(t_prev1) * s_prev2 / pdf + cost.beta() * (s_prev1 / pdf - t_prev1);
    if !arg.is_finite() {
        return None;
    }
    let t = cost.g_inverse(arg);
    t.is_finite().then_some(t)
}

/// Generates the sequence characterized by `t1` via Eq. 11.
///
/// Returns [`CoreError::NonIncreasingSequence`] when the recurrence breaks
/// down before covering `coverage_quantile` — the candidate `t1` is then
/// not a plausible `t₁°` (paper §5.2).
pub fn sequence_from_t1(
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
    t1: f64,
    config: &RecurrenceConfig,
) -> Result<ReservationSequence> {
    generate(dist, t1, config, |d, p2, p1| next_affine(d, cost, p2, p1))
}

/// Generates the sequence characterized by `t1` under a convex reservation
/// cost via Eq. 37.
pub fn sequence_from_t1_convex(
    dist: &dyn ContinuousDistribution,
    cost: &dyn ConvexCost,
    t1: f64,
    config: &RecurrenceConfig,
) -> Result<ReservationSequence> {
    generate(dist, t1, config, |d, p2, p1| next_convex(d, cost, p2, p1))
}

fn generate(
    dist: &dyn ContinuousDistribution,
    t1: f64,
    config: &RecurrenceConfig,
    step: impl Fn(&dyn ContinuousDistribution, f64, f64) -> Option<f64>,
) -> Result<ReservationSequence> {
    let support = dist.support();
    let lower = support.lower();
    if !t1.is_finite() || t1 <= 0.0 || (lower > 0.0 && t1 < lower * (1.0 - UPPER_EPS)) {
        return Err(CoreError::NonIncreasingSequence {
            index: 1,
            t_prev: lower,
            t_next: t1,
        });
    }

    // Bounded support: once a reservation reaches b, the sequence is done.
    if let Some(b) = support.upper() {
        if t1 >= b * (1.0 - UPPER_EPS) {
            return ReservationSequence::single(b);
        }
    }

    let coverage_target = match support.upper() {
        Some(b) => b,
        None => dist.quantile(config.coverage_quantile),
    };

    let mut times = vec![t1];
    let mut t_prev2 = 0.0;
    let mut t_prev1 = t1;

    // Phase 1 + 2: iterate the optimal recurrence while it increases.
    let mut recurrence_alive = true;
    while times.len() < config.max_len {
        let covered = t_prev1 >= coverage_target * (1.0 - UPPER_EPS);
        if covered {
            match support.upper() {
                // Bounded and covered ⇒ complete.
                Some(_) => return ReservationSequence::new(times, true),
                // Unbounded: continue to the tail cutoff.
                None => {
                    if dist.survival(t_prev1) < config.tail_cutoff {
                        return ReservationSequence::new(times, false);
                    }
                }
            }
        }

        let candidate = if recurrence_alive {
            step(dist, t_prev2, t_prev1)
        } else {
            None
        };
        let next = match candidate {
            Some(t) if t > t_prev1 => t,
            _ if !covered => {
                // Breakdown before the validity horizon: reject t1.
                return Err(CoreError::NonIncreasingSequence {
                    index: times.len() + 1,
                    t_prev: t_prev1,
                    t_next: candidate.unwrap_or(f64::NAN),
                });
            }
            _ => {
                // Breakdown past the horizon: fall back to conditional-mean
                // extension steps, which strictly increase.
                recurrence_alive = false;
                let cm = dist.conditional_mean_above(t_prev1);
                if cm > t_prev1 * (1.0 + 1e-9) {
                    cm
                } else {
                    // Conditional-mean increments can stall numerically in
                    // extreme tails; force geometric progress.
                    t_prev1 * 1.5
                }
            }
        };

        // Clamp into a bounded support's endpoint.
        if let Some(b) = support.upper() {
            if next >= b * (1.0 - UPPER_EPS) {
                times.push(b);
                return ReservationSequence::new(times, true);
            }
        }

        times.push(next);
        t_prev2 = t_prev1;
        t_prev1 = next;
    }

    // max_len exhausted before reaching the support's end / tail cutoff.
    ReservationSequence::new(times, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AffineConvexCost;
    use rsj_dist::{Exponential, LogNormal, Uniform};

    #[test]
    fn exponential_recurrence_matches_closed_form() {
        // RESERVATIONONLY on Exp(λ): tᵢ = e^{λ(tᵢ₋₁ - tᵢ₋₂)}/λ (§3.5).
        let d = Exponential::new(2.0).unwrap();
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig::default();
        let s = sequence_from_t1(&d, &c, 0.74219 / 2.0, &cfg).unwrap();
        let t = s.times();
        assert!(t.len() >= 4);
        for i in 2..4 {
            let expected = (2.0 * (t[i - 1] - t[i - 2])).exp() / 2.0;
            assert!(
                (t[i] - expected).abs() < 1e-9,
                "i={i}: {} vs {expected}",
                t[i]
            );
        }
    }

    #[test]
    fn exponential_scale_invariance() {
        // The λ = 1 sequence divided by λ solves Exp(λ) (Proposition 2).
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig::default();
        let d1 = Exponential::new(1.0).unwrap();
        let d3 = Exponential::new(3.0).unwrap();
        let s1 = sequence_from_t1(&d1, &c, 0.74219, &cfg).unwrap();
        let s3 = sequence_from_t1(&d3, &c, 0.74219 / 3.0, &cfg).unwrap();
        for (a, b) in s1.times().iter().zip(s3.times()).take(5) {
            assert!((a / 3.0 - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_t1_for_uniform() {
        // Theorem 4: any t₁ < b yields t₂ = (b-a) + a·… that collapses; the
        // paper's Table 3 shows '-' for every quantile t₁.
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig::default();
        for &t1 in &[12.5, 15.0, 17.5, 19.9] {
            assert!(
                sequence_from_t1(&d, &c, t1, &cfg).is_err(),
                "t1={t1} should be invalid"
            );
        }
        // t₁ = b is the optimum.
        let s = sequence_from_t1(&d, &c, 20.0, &cfg).unwrap();
        assert_eq!(s.times(), &[20.0]);
        assert!(s.is_complete());
    }

    #[test]
    fn rejects_t1_below_support() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        assert!(sequence_from_t1(&d, &c, 5.0, &RecurrenceConfig::default()).is_err());
        assert!(sequence_from_t1(&d, &c, -1.0, &RecurrenceConfig::default()).is_err());
    }

    #[test]
    fn lognormal_sequence_is_increasing_and_deep() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig::default();
        let s = sequence_from_t1(&d, &c, 30.64, &cfg).unwrap();
        let t = s.times();
        for w in t.windows(2) {
            assert!(w[1] > w[0], "sequence must increase: {} {}", w[0], w[1]);
        }
        // The tail must be covered down to the cutoff.
        assert!(d.survival(s.last()) < 1e-11, "gap {}", d.survival(s.last()));
    }

    #[test]
    fn exponential_valid_at_optimum_with_mc_horizon() {
        // At the published s₁ ≈ 0.74219, the recurrence stays increasing
        // past Q(0.999) ≈ 6.9 (see module docs).
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig::for_monte_carlo(1000);
        let s = sequence_from_t1(&d, &c, 0.74219, &cfg).unwrap();
        assert!(s.last() >= d.quantile(0.999));
    }

    #[test]
    fn exponential_gap_region_is_invalid() {
        // Fig. 3(a): candidates between ~0.25 and ~0.75 break down before
        // the Monte-Carlo horizon.
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig::for_monte_carlo(1000);
        assert!(sequence_from_t1(&d, &c, 0.4, &cfg).is_err());
        assert!(sequence_from_t1(&d, &c, 0.6, &cfg).is_err());
    }

    #[test]
    fn convex_affine_reduces_to_affine() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let cfg = RecurrenceConfig::default();
        let plain = sequence_from_t1(&d, &c, 25.0, &cfg);
        let convex = sequence_from_t1_convex(&d, &AffineConvexCost(c), 25.0, &cfg);
        match (plain, convex) {
            (Ok(a), Ok(b)) => {
                for (x, y) in a.times().iter().zip(b.times()).take(8) {
                    assert!((x - y).abs() < 1e-8, "{x} vs {y}");
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("affine/convex disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn sequence_capped_at_max_len() {
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let cfg = RecurrenceConfig {
            max_len: 5,
            ..RecurrenceConfig::default()
        };
        let s = sequence_from_t1(&d, &c, 0.1, &cfg).unwrap();
        assert!(s.len() <= 5);
    }
}
