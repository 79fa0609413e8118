//! Risk profile of a reservation strategy: the full *distribution* of the
//! cost, not just its expectation.
//!
//! For a fixed sequence `S`, the cost of a job of duration `t` (Eq. 2) is
//! piecewise affine and nondecreasing in `t`: within the bracket
//! `t ∈ (tₖ₋₁, tₖ]` it equals `prefixₖ + α·tₖ + γ + β·t`, where `prefixₖ`
//! is the (deterministic) cost of the `k-1` failed reservations. The cost
//! CDF, its quantiles and tail expectations therefore have closed forms in
//! terms of the job-time distribution — no sampling needed.
//!
//! This is what a budget-constrained cloud user actually needs: not only
//! "what will a job cost on average" (Eq. 4) but "what budget covers 99%
//! of jobs" and "how bad is the worst 5%".

use crate::cost::CostModel;
use crate::sequence::ReservationSequence;
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// One affine piece of the cost function: for job times in
/// `(t_lower, t_upper]`, cost = `fixed + β·t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBracket {
    /// 1-based reservation index `k` that succeeds in this bracket.
    pub reservation: usize,
    /// Lower job-time bound (exclusive), `tₖ₋₁`.
    pub t_lower: f64,
    /// Upper job-time bound (inclusive), `tₖ`.
    pub t_upper: f64,
    /// Deterministic part: failed prefixes + `α·tₖ + γ`.
    pub fixed: f64,
    /// Probability that the job lands in this bracket.
    pub probability: f64,
}

impl CostBracket {
    /// Cost at the bracket's upper edge.
    pub(crate) fn cost_high(&self, beta: f64) -> f64 {
        self.fixed + beta * self.t_upper
    }
}

/// The exact risk profile of a strategy for a given job-time law.
#[derive(Debug, Clone)]
pub struct RiskProfile {
    brackets: Vec<CostBracket>,
    beta: f64,
}

/// Builds the risk profile, materializing brackets until the tail
/// probability drops below `1e-12` (using the sequence's geometric
/// extension past its prefix if needed).
pub fn risk_profile(
    seq: &ReservationSequence,
    dist: &dyn ContinuousDistribution,
    cost: &CostModel,
) -> RiskProfile {
    let mut brackets = Vec::new();
    let mut prefix = 0.0;
    let mut t_prev = 0.0;
    let mut k = 0usize;
    loop {
        let t_k = seq.reservation(k);
        let p = (dist.survival(t_prev) - dist.survival(t_k)).max(0.0);
        if p > 0.0 {
            brackets.push(CostBracket {
                reservation: k + 1,
                t_lower: t_prev,
                t_upper: t_k,
                fixed: prefix + cost.alpha * t_k + cost.gamma,
                probability: p,
            });
        }
        if dist.survival(t_k) < 1e-12 || k > 1_000_000 {
            break;
        }
        prefix += cost.failed(t_k);
        t_prev = t_k;
        k += 1;
    }
    RiskProfile {
        brackets,
        beta: cost.beta,
    }
}

impl RiskProfile {
    /// The affine pieces, in increasing-cost order (costs are monotone in
    /// the job time across brackets).
    pub fn brackets(&self) -> &[CostBracket] {
        &self.brackets
    }

    /// The cost quantile: the smallest budget covering a fraction `q` of
    /// jobs.
    pub fn cost_quantile(&self, dist: &dyn ContinuousDistribution, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level out of [0,1]: {q}");
        let mut acc = 0.0;
        for b in &self.brackets {
            if acc + b.probability >= q {
                if self.beta == 0.0 {
                    return b.cost_high(self.beta);
                }
                // Within this bracket: find t with F(t) = F(t_lower) + (q - acc).
                let target = dist.cdf(b.t_lower) + (q - acc);
                let t = dist.quantile(target.min(1.0)).min(b.t_upper);
                return b.fixed + self.beta * t;
            }
            acc += b.probability;
        }
        self.brackets
            .last()
            .map(|b| b.cost_high(self.beta))
            .unwrap_or(0.0)
    }

    /// Expected cost, reconstructed from the brackets (must agree with the
    /// Eq. 4 series; used as an internal cross-check and for conditional
    /// variants).
    pub fn expected_cost(&self, dist: &dyn ContinuousDistribution) -> f64 {
        let mut total = 0.0;
        for b in &self.brackets {
            // E[β·t over the bracket] via the conditional-mean identity.
            let m_low = dist.conditional_mean_above(b.t_lower) * dist.survival(b.t_lower);
            let m_high = dist.conditional_mean_above(b.t_upper) * dist.survival(b.t_upper);
            total += b.fixed * b.probability + self.beta * (m_low - m_high).max(0.0);
        }
        total
    }

    /// Probability that a job needs more than `k` reservations.
    pub fn prob_more_than(&self, k: usize) -> f64 {
        self.brackets
            .iter()
            .filter(|b| b.reservation > k)
            .map(|b| b.probability)
            .sum()
    }

    /// Expected number of reservations.
    pub fn expected_reservations(&self) -> f64 {
        self.brackets
            .iter()
            .map(|b| b.reservation as f64 * b.probability)
            .sum::<f64>()
            / self.brackets.iter().map(|b| b.probability).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{expected_cost_analytic, run_job};
    use crate::heuristics::{MeanByMean, Strategy};
    use rsj_dist::{Exponential, LogNormal, Uniform};

    /// Monte-Carlo cross-check: the empirical cost quantile over sampled
    /// jobs.
    fn empirical_cost_quantile(
        seq: &ReservationSequence,
        cost: &CostModel,
        samples: &[f64],
        q: f64,
    ) -> f64 {
        let mut costs: Vec<f64> = samples
            .iter()
            .map(|&t| run_job(seq, cost, t).cost)
            .collect();
        costs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx = ((q * costs.len() as f64).ceil() as usize).clamp(1, costs.len()) - 1;
        costs[idx]
    }

    #[test]
    fn single_reservation_profile() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let s = ReservationSequence::single(20.0).unwrap();
        let p = risk_profile(&s, &d, &c);
        assert_eq!(p.brackets().len(), 1);
        let b = p.brackets()[0];
        assert_eq!(b.reservation, 1);
        assert!((b.probability - 1.0).abs() < 1e-12);
        // Cost ranges over [20.5 + 10, 20.5 + 20].
        assert!((p.cost_quantile(&d, 0.0) - 30.5).abs() < 1e-9);
        assert!((p.cost_quantile(&d, 1.0) - 40.5).abs() < 1e-9);
        assert!((p.cost_quantile(&d, 0.5) - 35.5).abs() < 1e-9);
    }

    #[test]
    fn expected_cost_matches_eq4_series() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let seq = MeanByMean::default().sequence(&d, &c).unwrap();
        let p = risk_profile(&seq, &d, &c);
        let via_brackets = p.expected_cost(&d);
        let via_series = expected_cost_analytic(&seq, &d, &c);
        assert!(
            (via_brackets - via_series).abs() / via_series < 1e-9,
            "brackets {via_brackets} vs series {via_series}"
        );
    }

    #[test]
    fn quantiles_match_empirical() {
        use rand::SeedableRng;
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::new(1.0, 0.5, 0.2).unwrap();
        let seq = MeanByMean::default().sequence(&d, &c).unwrap();
        let p = risk_profile(&seq, &d, &c);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let samples = crate::eval::draw_samples(&d, 200_000, &mut rng);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = p.cost_quantile(&d, q);
            let emp = empirical_cost_quantile(&seq, &c, &samples, q);
            assert!(
                (exact - emp).abs() / emp < 0.02,
                "q={q}: exact {exact} vs empirical {emp}"
            );
        }
    }

    #[test]
    fn quantile_steps_at_reservation_boundaries() {
        // RESERVATIONONLY: within a bracket the cost is constant (β = 0),
        // so the cost quantile is a step function: the first bracket's
        // cost is exactly t₁ = 1, with probability 1 - e⁻¹ ≈ 0.632.
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let seq = MeanByMean::default().sequence(&d, &c).unwrap();
        let p = risk_profile(&seq, &d, &c);
        assert!((p.cost_quantile(&d, 0.3) - 1.0).abs() < 1e-9);
        assert!((p.cost_quantile(&d, 0.6) - 1.0).abs() < 1e-9);
        assert!(p.cost_quantile(&d, 0.7) > 1.0 + 1e-9);
        let mut prev = 0.0;
        for q in [0.1, 0.5, 0.7, 0.9, 0.99] {
            let budget = p.cost_quantile(&d, q);
            assert!(budget >= prev);
            prev = budget;
        }
    }

    #[test]
    fn reservation_count_statistics() {
        let d = Exponential::new(1.0).unwrap();
        let c = CostModel::reservation_only();
        let seq = MeanByMean::default().sequence(&d, &c).unwrap();
        let p = risk_profile(&seq, &d, &c);
        // P(more than 1 reservation) = P(X > 1) = e⁻¹ for t₁ = 1.
        assert!((p.prob_more_than(1) - (-1.0f64).exp()).abs() < 1e-9);
        // E[#reservations] = Σ P(X > tₖ) + 1 = Σ e^{-k} + 1 = 1/(e-1) + 1.
        let expect = 1.0 / (std::f64::consts::E - 1.0) + 1.0;
        assert!(
            (p.expected_reservations() - expect).abs() < 1e-6,
            "{} vs {expect}",
            p.expected_reservations()
        );
    }

    #[test]
    fn reservation_only_single_reservation_budget() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let c = CostModel::reservation_only();
        let s = ReservationSequence::single(20.0).unwrap();
        // Every job costs exactly 20.
        let budget = risk_profile(&s, &d, &c).cost_quantile(&d, 0.99);
        assert!((budget - 20.0).abs() < 1e-9);
    }
}
