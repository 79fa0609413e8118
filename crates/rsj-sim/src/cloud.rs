//! Cloud pricing models (system S10): the Reserved-Instance vs On-Demand
//! analysis of §5.2.
//!
//! With a per-hour Reserved-Instance price `c_RI` and On-Demand price
//! `c_OD`, reservations pay `c_RI · (requested time)` while On-Demand pays
//! `c_OD · (actual time)` — i.e. On-Demand behaves like the omniscient
//! scheduler at a higher rate. Using RI with a reservation sequence `S` is
//! beneficial iff `Ẽ(S)/E° ≤ c_OD/c_RI` (the paper cites a factor of up to
//! 4 on AWS).

use rsj_core::{expected_cost_analytic, CostModel, ReservationSequence};
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Per-hour prices of the two service classes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CloudPricing {
    /// Reserved-Instance price per hour (pay for what you request).
    pub reserved_rate: f64,
    /// On-Demand price per hour (pay for what you use).
    pub on_demand_rate: f64,
}

impl CloudPricing {
    /// Creates a pricing scheme; both rates must be positive.
    pub fn new(reserved_rate: f64, on_demand_rate: f64) -> Result<Self, String> {
        if !(reserved_rate > 0.0 && on_demand_rate > 0.0) {
            return Err(format!(
                "rates must be positive, got RI={reserved_rate}, OD={on_demand_rate}"
            ));
        }
        Ok(Self {
            reserved_rate,
            on_demand_rate,
        })
    }

    /// AWS-like pricing with the paper's extreme ratio `c_OD/c_RI = 4`
    /// ("up to 75% cheaper", §1/§5.2).
    pub fn aws_like() -> Self {
        Self {
            reserved_rate: 1.0,
            on_demand_rate: 4.0,
        }
    }

    /// The break-even normalized cost `c_OD/c_RI`: Reserved Instances win
    /// whenever a strategy's `Ẽ(S)/E°` is below this.
    pub fn break_even_ratio(&self) -> f64 {
        self.on_demand_rate / self.reserved_rate
    }

    /// Expected *monetary* cost of running one job On-Demand: the job pays
    /// for its actual duration only.
    pub fn on_demand_expected_cost(&self, dist: &dyn ContinuousDistribution) -> f64 {
        self.on_demand_rate * dist.mean()
    }

    /// Expected monetary cost of running one job through a reservation
    /// sequence on Reserved Instances (RESERVATIONONLY cost scaled by the
    /// RI rate).
    pub fn reserved_expected_cost(
        &self,
        seq: &ReservationSequence,
        dist: &dyn ContinuousDistribution,
    ) -> f64 {
        let res_only = CostModel::reservation_only();
        self.reserved_rate * expected_cost_analytic(seq, dist, &res_only)
    }

    /// The §5.2 decision quantity: a strategy's normalized expected cost
    /// `Ẽ(S)/E°` compared against the break-even ratio. Returns
    /// `(normalized_cost, break_even, beneficial)`.
    pub fn decision(
        &self,
        seq: &ReservationSequence,
        dist: &dyn ContinuousDistribution,
    ) -> (f64, f64, bool) {
        let res_only = CostModel::reservation_only();
        let normalized = expected_cost_analytic(seq, dist, &res_only) / dist.mean();
        let break_even = self.break_even_ratio();
        (normalized, break_even, normalized <= break_even)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_core::{MeanByMean, Strategy};
    use rsj_dist::{Exponential, Uniform};

    #[test]
    fn rejects_bad_rates() {
        assert!(CloudPricing::new(0.0, 1.0).is_err());
        assert!(CloudPricing::new(1.0, -1.0).is_err());
    }

    #[test]
    fn break_even_ratio_aws() {
        assert_eq!(CloudPricing::aws_like().break_even_ratio(), 4.0);
    }

    #[test]
    fn uniform_optimal_beats_on_demand_at_factor_4() {
        // Normalized cost of the optimal uniform strategy is 4/3 < 4.
        let d = Uniform::new(10.0, 20.0).unwrap();
        let seq = ReservationSequence::single(20.0).unwrap();
        let pricing = CloudPricing::aws_like();
        let (ratio, break_even, ok) = pricing.decision(&seq, &d);
        assert!((ratio - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(break_even, 4.0);
        assert!(ok);
    }

    #[test]
    fn narrow_price_gap_flips_decision() {
        // With c_OD/c_RI = 1.2 the uniform ratio 1.33 no longer pays off.
        let d = Uniform::new(10.0, 20.0).unwrap();
        let seq = ReservationSequence::single(20.0).unwrap();
        let pricing = CloudPricing::new(1.0, 1.2).unwrap();
        let (_, _, ok) = pricing.decision(&seq, &d);
        assert!(!ok);
    }

    #[test]
    fn heuristic_sequences_stay_under_aws_break_even() {
        // Table 2's observation: all heuristics satisfy Ẽ(S)/E° < 4.
        let d = Exponential::new(1.0).unwrap();
        let seq = MeanByMean::default()
            .sequence(&d, &CostModel::reservation_only())
            .unwrap();
        let (ratio, _, ok) = CloudPricing::aws_like().decision(&seq, &d);
        assert!(ratio < 4.0, "ratio {ratio}");
        assert!(ok);
    }
}
