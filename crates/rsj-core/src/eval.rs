//! Expected-cost evaluation: the exact series of Theorem 1 (Eq. 4), the
//! Monte-Carlo estimator of §5.1 (Eq. 13), and single-job execution
//! accounting (Eq. 2).

use crate::cost::{ConvexCost, CostModel};
use crate::sequence::ReservationSequence;
use rand::RngCore;
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Everything that happened while running one job to completion under a
/// reservation sequence (Eq. 2 accounting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Total cost paid across all reservations.
    pub cost: f64,
    /// Number of reservations paid for (the `k` of Eq. 2).
    pub reservations: usize,
    /// Total reserved time `Σ tᵢ` over the paid reservations.
    pub reserved_time: f64,
    /// Reserved-but-unused time in the final (successful) reservation.
    pub wasted_time: f64,
}

/// Walks a job of duration `t` through the sequence, paying every failed
/// reservation in full and the successful one per Eq. 1.
///
/// Jobs larger than the materialized prefix use the sequence's geometric
/// extension, so the walk always terminates.
pub fn run_job(seq: &ReservationSequence, cost: &CostModel, t: f64) -> RunOutcome {
    assert!(
        t >= 0.0 && t.is_finite(),
        "job duration must be finite, got {t}"
    );
    let k = seq.first_fitting(t);
    let mut total = 0.0;
    let mut reserved = 0.0;
    for i in 0..k {
        let r = seq.reservation(i);
        total += cost.failed(r);
        reserved += r;
    }
    let final_r = seq.reservation(k);
    total += cost.single(final_r, t);
    reserved += final_r;
    RunOutcome {
        cost: total,
        reservations: k + 1,
        reserved_time: reserved,
        wasted_time: final_r - t,
    }
}

/// Exact expected cost of a sequence via Theorem 1:
/// `E(S) = β·E[X] + Σ_{i≥0} (α·t_{i+1} + β·tᵢ + γ)·P(X ≥ tᵢ)` with `t₀ = 0`.
///
/// The series is summed over the materialized prefix; the neglected
/// remainder is proportional to `P(X ≥ t_last)` (see [`coverage_gap`]),
/// which sequence generators drive below `~1e-12`.
pub fn expected_cost_analytic(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
) -> f64 {
    let mut total = cost.beta * dist.mean();
    let mut t_prev = 0.0; // t₀ = 0, P(X ≥ 0) = 1
    for t_next in seq.iter() {
        let surv = if t_prev == 0.0 {
            1.0
        } else {
            dist.survival(t_prev)
        };
        if surv <= 0.0 {
            break;
        }
        total += (cost.alpha * t_next + cost.beta * t_prev + cost.gamma) * surv;
        t_prev = t_next;
    }
    total
}

/// Probability mass not covered by the materialized prefix,
/// `P(X ≥ t_last)`; the analytic evaluator's truncation error is
/// `O(gap · cost-of-next-reservations)`.
pub fn coverage_gap(seq: &ReservationSequence, dist: &dyn ContinuousDistribution) -> f64 {
    if seq.is_complete() {
        0.0
    } else {
        dist.survival(seq.last())
    }
}

/// Monte-Carlo estimator of §5.1 (Eq. 13) over caller-provided job
/// durations (common random numbers across heuristics in the harness).
pub fn expected_cost_monte_carlo(
    seq: &ReservationSequence,
    cost: &CostModel,
    samples: &[f64],
) -> f64 {
    assert!(!samples.is_empty(), "Monte-Carlo evaluation needs samples");
    let total: f64 = samples.iter().map(|&t| run_job(seq, cost, t).cost).sum();
    total / samples.len() as f64
}

/// Draws `n` job durations for Monte-Carlo evaluation.
pub fn draw_samples(
    dist: &dyn ContinuousDistribution,
    n: usize,
    rng: &mut dyn RngCore,
) -> Vec<f64> {
    rsj_dist::sample_n(dist, n, rng)
}

/// Expected cost normalized by the omniscient scheduler's
/// `E° = (α+β)·E[X] + γ`; always `≥ 1` (§5.1).
pub fn normalized_cost_analytic(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
) -> f64 {
    expected_cost_analytic(seq, dist, cost) / cost.omniscient(dist)
}

/// Exact expected cost under a convex reservation cost (Appendix C):
/// `E(S) = β·E[X] + Σ_{i≥0} (G(t_{i+1}) + β·tᵢ)·P(X ≥ tᵢ)`.
pub fn expected_cost_analytic_convex(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &dyn ConvexCost,
) -> f64 {
    let beta = cost.beta();
    let mut total = beta * dist.mean();
    let mut t_prev = 0.0;
    for t_next in seq.iter() {
        let surv = if t_prev == 0.0 {
            1.0
        } else {
            dist.survival(t_prev)
        };
        if surv <= 0.0 {
            break;
        }
        total += (cost.g(t_next) + beta * t_prev) * surv;
        t_prev = t_next;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AffineConvexCost;
    use rsj_dist::{Exponential, Uniform};

    fn seq(v: &[f64], complete: bool) -> ReservationSequence {
        ReservationSequence::new(v.to_vec(), complete).unwrap()
    }

    #[test]
    fn run_job_single_success() {
        let s = seq(&[10.0, 20.0], true);
        let c = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let out = run_job(&s, &c, 7.0);
        // One reservation: α·10 + β·7 + γ.
        assert!((out.cost - 17.5).abs() < 1e-12);
        assert_eq!(out.reservations, 1);
        assert!((out.wasted_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_job_two_reservations() {
        let s = seq(&[10.0, 20.0], true);
        let c = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let out = run_job(&s, &c, 15.0);
        // Failed 10-slot: 2·10 + 0.5; success: 20 + 15 + 0.5.
        assert!((out.cost - (20.5 + 35.5)).abs() < 1e-12);
        assert_eq!(out.reservations, 2);
        assert!((out.reserved_time - 30.0).abs() < 1e-12);
    }

    #[test]
    fn run_job_uses_extension() {
        let s = seq(&[1.0], false);
        let c = CostModel::reservation_only();
        let out = run_job(&s, &c, 5.0); // extension: 2, 4, 8
        assert_eq!(out.reservations, 4);
        assert!((out.cost - (1.0 + 2.0 + 4.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn analytic_matches_uniform_hand_computation() {
        // Uniform(10, 20), RESERVATIONONLY, S = (15, 20):
        // E = 15·1 + 20·P(X ≥ 15) = 15 + 10 = 25.
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let s = seq(&[15.0, 20.0], true);
        assert!((expected_cost_analytic(&s, &d, &c) - 25.0).abs() < 1e-12);
        // Normalized by E° = 15 → 5/3.
        assert!((normalized_cost_analytic(&s, &d, &c) - 25.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_matches_uniform_full_model() {
        // §2.3's worked example: Uniform(a, b), S = ((a+b)/2, b).
        let (a, b) = (10.0, 20.0);
        let d = Uniform::new(a, b).unwrap();
        let c = CostModel::new(2.0, 3.0, 0.5).unwrap();
        let s = seq(&[15.0, 20.0], true);
        // Direct integration of Eq. 3 (see §2.3): split at t₁ = 15.
        let direct = {
            let t1 = 15.0;
            let first = (c.alpha * t1 + c.beta * (a + t1) / 2.0 + c.gamma) * 0.5;
            let fail = c.alpha * t1 + c.beta * t1 + c.gamma;
            let second = (fail + c.alpha * b + c.beta * (t1 + b) / 2.0 + c.gamma) * 0.5;
            first + second
        };
        let series = expected_cost_analytic(&s, &d, &c);
        assert!(
            (series - direct).abs() < 1e-10,
            "series {series} vs direct {direct}"
        );
    }

    #[test]
    fn monte_carlo_converges_to_analytic() {
        use rand::SeedableRng;
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::new(1.0, 0.5, 0.1).unwrap();
        // Arithmetic sequence tᵢ = i, deep enough that the gap is ~e^{-40}.
        let s = seq(&(1..=40).map(|i| i as f64).collect::<Vec<_>>(), false);
        let analytic = expected_cost_analytic(&s, &d, &c);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let samples = draw_samples(&d, 400_000, &mut rng);
        let mc = expected_cost_monte_carlo(&s, &c, &samples);
        assert!(
            (mc - analytic).abs() / analytic < 0.01,
            "mc {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn affine_convex_matches_affine() {
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::new(1.5, 0.7, 0.2).unwrap();
        let s = seq(&(1..=30).map(|i| i as f64 * 0.8).collect::<Vec<_>>(), false);
        let affine = expected_cost_analytic(&s, &d, &c);
        let convex = expected_cost_analytic_convex(&s, &d, &AffineConvexCost(c));
        assert!((affine - convex).abs() < 1e-10);
    }

    #[test]
    fn coverage_gap_zero_when_complete() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let s = seq(&[20.0], true);
        assert_eq!(coverage_gap(&s, &d), 0.0);
        let partial = seq(&[15.0], false);
        assert!((coverage_gap(&partial, &d) - 0.5).abs() < 1e-12);
    }
}
