//! The reservation cost model of §2.2 (Eq. 1) and its convex extension
//! (Appendix C).
//!
//! A single reservation of length `R` for a job with actual duration `t`
//! costs `α·R + β·min(R, t) + γ`. The affine reservation-dependent part
//! `α·R + γ` generalizes to any convex `G(R)` in Appendix C; both are
//! supported here.

use crate::error::{CoreError, Result};
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Affine cost model `C(R, t) = α·R + β·min(R, t) + γ` with `α > 0`,
/// `β ≥ 0`, `γ ≥ 0` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Price per reserved time unit (`α > 0`).
    pub alpha: f64,
    /// Price per actually-used time unit (`β ≥ 0`).
    pub beta: f64,
    /// Fixed start-up cost per reservation (`γ ≥ 0`).
    pub gamma: f64,
}

impl CostModel {
    /// Creates a cost model, validating the §2.2 constraints.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Result<Self> {
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(CoreError::InvalidCostParameter {
                name: "alpha",
                value: alpha,
                requirement: "must be > 0 and finite",
            });
        }
        if !(beta >= 0.0) || !beta.is_finite() {
            return Err(CoreError::InvalidCostParameter {
                name: "beta",
                value: beta,
                requirement: "must be >= 0 and finite",
            });
        }
        if !(gamma >= 0.0) || !gamma.is_finite() {
            return Err(CoreError::InvalidCostParameter {
                name: "gamma",
                value: gamma,
                requirement: "must be >= 0 and finite",
            });
        }
        Ok(Self { alpha, beta, gamma })
    }

    /// The RESERVATIONONLY instance: `α = 1`, `β = γ = 0` (§2.3), modelling
    /// pay-what-you-request cloud reservations (AWS Reserved Instances).
    pub fn reservation_only() -> Self {
        Self {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        }
    }

    /// The NeuroHPC instance of §5.3: wait time `α·R + γ` plus execution
    /// time (`β = 1`). The paper's Intrepid fit gives `α = 0.95`,
    /// `γ = 1.05` hours.
    pub fn neuro_hpc(alpha: f64, gamma: f64) -> Result<Self> {
        Self::new(alpha, 1.0, gamma)
    }

    /// Cost of a single reservation of length `reservation` for a job of
    /// actual duration `t` (Eq. 1).
    pub fn single(&self, reservation: f64, t: f64) -> f64 {
        self.alpha * reservation + self.beta * reservation.min(t) + self.gamma
    }

    /// Cost of a *failed* reservation (the job did not fit): the full
    /// reservation is paid and the platform was used for its whole length.
    pub fn failed(&self, reservation: f64) -> f64 {
        (self.alpha + self.beta) * reservation + self.gamma
    }

    /// Expected cost of the omniscient scheduler, which reserves exactly the
    /// job's duration: `E° = (α + β)·E[X] + γ` (§5.1).
    pub fn omniscient(&self, dist: &dyn ContinuousDistribution) -> f64 {
        (self.alpha + self.beta) * dist.mean() + self.gamma
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::reservation_only()
    }
}

/// A convex reservation cost `G(R)` (Appendix C): the price of reserving
/// `R` time units, excluding the usage term `β·min(R, t)`.
///
/// `G` must be convex, strictly increasing and invertible on the relevant
/// range; `g_prime` and `g_inverse` feed the generalized recurrence of
/// Eq. 37.
pub trait ConvexCost: Send + Sync + std::fmt::Debug {
    /// The reservation cost `G(x)`.
    fn g(&self, x: f64) -> f64;
    /// The derivative `G'(x)`.
    fn g_prime(&self, x: f64) -> f64;
    /// The inverse `G⁻¹(y)` on the increasing branch.
    fn g_inverse(&self, y: f64) -> f64;
    /// The usage-proportional coefficient `β ≥ 0`.
    fn beta(&self) -> f64;

    /// Cost of a single reservation for a job of duration `t`.
    fn single(&self, reservation: f64, t: f64) -> f64 {
        self.g(reservation) + self.beta() * reservation.min(t)
    }
}

/// The affine `G(x) = α·x + γ` viewed as a `ConvexCost`; Appendix C
/// results must reduce to the §3.3 ones with this instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineConvexCost(pub CostModel);

impl ConvexCost for AffineConvexCost {
    fn g(&self, x: f64) -> f64 {
        self.0.alpha * x + self.0.gamma
    }

    fn g_prime(&self, _x: f64) -> f64 {
        self.0.alpha
    }

    fn g_inverse(&self, y: f64) -> f64 {
        (y - self.0.gamma) / self.0.alpha
    }

    fn beta(&self) -> f64 {
        self.0.beta
    }
}

/// Quadratic reservation cost `G(x) = a·x² + b·x + c` with `a > 0`,
/// `b ≥ 0`: a platform that penalizes long reservations superlinearly
/// (e.g. queue-priority pricing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticCost {
    /// Quadratic coefficient (`> 0`).
    pub a: f64,
    /// Linear coefficient (`≥ 0`).
    pub b: f64,
    /// Fixed cost (`≥ 0`).
    pub c: f64,
    /// Usage-proportional coefficient `β ≥ 0`.
    pub beta: f64,
}

impl QuadraticCost {
    /// Creates a quadratic cost model.
    pub fn new(a: f64, b: f64, c: f64, beta: f64) -> Result<Self> {
        if !(a > 0.0) {
            return Err(CoreError::InvalidCostParameter {
                name: "a",
                value: a,
                requirement: "must be > 0",
            });
        }
        if !(b >= 0.0) || !(c >= 0.0) || !(beta >= 0.0) {
            return Err(CoreError::InvalidCostParameter {
                name: "b/c/beta",
                value: b.min(c).min(beta),
                requirement: "must be >= 0",
            });
        }
        Ok(Self { a, b, c, beta })
    }
}

impl ConvexCost for QuadraticCost {
    fn g(&self, x: f64) -> f64 {
        self.a * x * x + self.b * x + self.c
    }

    fn g_prime(&self, x: f64) -> f64 {
        2.0 * self.a * x + self.b
    }

    fn g_inverse(&self, y: f64) -> f64 {
        // Increasing branch of a·x² + b·x + (c - y) = 0 for x ≥ 0.
        let disc = self.b * self.b - 4.0 * self.a * (self.c - y);
        if disc <= 0.0 {
            return 0.0;
        }
        (-self.b + disc.sqrt()) / (2.0 * self.a)
    }

    fn beta(&self) -> f64 {
        self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_dist::Exponential;

    #[test]
    fn validates_parameters() {
        assert!(CostModel::new(0.0, 0.0, 0.0).is_err());
        assert!(CostModel::new(1.0, -0.1, 0.0).is_err());
        assert!(CostModel::new(1.0, 0.0, -1.0).is_err());
        assert!(CostModel::new(1.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn reservation_only_single_cost() {
        let c = CostModel::reservation_only();
        assert_eq!(c.single(10.0, 5.0), 10.0);
        assert_eq!(c.single(10.0, 50.0), 10.0);
        assert_eq!(c.failed(10.0), 10.0);
    }

    #[test]
    fn full_model_single_cost() {
        let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
        // Successful run: pays reservation + actual time + startup.
        assert!((c.single(2.0, 1.5) - (0.95 * 2.0 + 1.5 + 1.05)).abs() < 1e-12);
        // Failed run: pays reservation twice-weighted + startup.
        assert!((c.failed(2.0) - (1.95 * 2.0 + 1.05)).abs() < 1e-12);
    }

    #[test]
    fn omniscient_cost() {
        let c = CostModel::new(2.0, 1.0, 0.5).unwrap();
        let d = Exponential::new(1.0).unwrap();
        assert!((c.omniscient(&d) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn affine_convex_round_trip() {
        let c = AffineConvexCost(CostModel::new(0.95, 1.0, 1.05).unwrap());
        for &x in &[0.0, 1.0, 7.3] {
            assert!((c.g_inverse(c.g(x)) - x).abs() < 1e-12);
        }
        assert_eq!(c.g_prime(3.0), 0.95);
        assert_eq!(c.beta(), 1.0);
    }

    #[test]
    fn quadratic_convex_round_trip() {
        let q = QuadraticCost::new(0.5, 1.0, 2.0, 0.0).unwrap();
        for &x in &[0.0, 0.5, 3.0, 10.0] {
            assert!((q.g_inverse(q.g(x)) - x).abs() < 1e-10, "x={x}");
        }
        // Convexity: G' increasing.
        assert!(q.g_prime(2.0) > q.g_prime(1.0));
    }

    #[test]
    fn quadratic_rejects_bad_params() {
        assert!(QuadraticCost::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(QuadraticCost::new(1.0, -1.0, 1.0, 0.0).is_err());
    }
}
