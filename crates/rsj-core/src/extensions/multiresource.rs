//! Variable-resource reservations — the second §7 future-work direction:
//! "allowing requests with variable amount of resources, hence offering a
//! combination of a reservation time and a number of processors".
//!
//! Model: the job carries stochastic *sequential work* `X`; on `p`
//! processors it runs for `X·g(p)` where `g(p)` comes from a speedup model
//! (Amdahl's law by default: `g(p) = f + (1-f)/p` for serial fraction
//! `f`). A reservation is now a pair `(p, t)` and costs
//!
//! ```text
//! α·p·t + β·p·min(t, X·g(p)) + γ
//! ```
//!
//! (processor-hours reserved and used). For a *fixed* `p` this is exactly
//! the base STOCHASTIC problem on the scaled law `X·g(p)` with
//! `α′ = α·p`, `β′ = β·p` — so the whole 1-D machinery applies, and the
//! planner reduces to a one-dimensional search over candidate processor
//! counts.

use crate::cost::CostModel;
use crate::error::{CoreError, Result};
use crate::eval::expected_cost_analytic;
use crate::heuristics::Strategy;
use crate::sequence::ReservationSequence;
use rsj_dist::transform::Scaled;
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Parallel speedup models mapping processor count to the runtime factor
/// `g(p)` (runtime = sequential work × `g(p)`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedupModel {
    /// Amdahl's law with serial fraction `f ∈ [0, 1]`:
    /// `g(p) = f + (1-f)/p`.
    Amdahl {
        /// Serial fraction.
        serial_fraction: f64,
    },
    /// Perfect linear speedup: `g(p) = 1/p`.
    Linear,
    /// Communication-penalized: `g(p) = 1/p + c·ln(p)` (a common model for
    /// collectives-bound codes).
    LogOverhead {
        /// Per-level communication coefficient `c ≥ 0`.
        overhead: f64,
    },
}

impl SpeedupModel {
    /// The runtime factor `g(p) > 0`.
    pub(crate) fn factor(&self, processors: usize) -> f64 {
        assert!(processors >= 1, "need at least one processor");
        let p = processors as f64;
        match *self {
            SpeedupModel::Amdahl { serial_fraction } => {
                serial_fraction + (1.0 - serial_fraction) / p
            }
            SpeedupModel::Linear => 1.0 / p,
            SpeedupModel::LogOverhead { overhead } => 1.0 / p + overhead * p.ln(),
        }
    }

    /// Validates model parameters.
    pub(crate) fn validate(&self) -> Result<()> {
        let ok = match *self {
            SpeedupModel::Amdahl { serial_fraction } => (0.0..=1.0).contains(&serial_fraction),
            SpeedupModel::Linear => true,
            SpeedupModel::LogOverhead { overhead } => overhead >= 0.0 && overhead.is_finite(),
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::InvalidHeuristicParameter {
                name: "speedup_model",
                reason: "parameters out of range",
            })
        }
    }
}

/// How the cost model changes with the processor count `p`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WidthPolicy {
    /// Cloud billing in processor-hours: `α′ = α·p`, `β′ = β·p`, `γ′ = γ`.
    ///
    /// Under linear speedup this is width-invariant (processor-hours are
    /// conserved), and any sublinear speedup strictly favours narrow jobs.
    ProcessorHours,
    /// HPC turnaround objective: cost is *time*, not processor-hours
    /// (`α`, `β` unscaled), but the per-attempt queue penalty grows with
    /// the width: `γ′ = γ + wait_per_proc·p` (wider jobs wait longer, cf.
    /// Figure 2 / §6). This creates the genuine time-vs-width trade-off.
    Turnaround {
        /// Additional expected wait (hours) per requested processor.
        wait_per_proc: f64,
    },
}

impl WidthPolicy {
    /// The width-adjusted cost model.
    pub(crate) fn cost_at(&self, base: &CostModel, processors: usize) -> Result<CostModel> {
        let p = processors as f64;
        match *self {
            WidthPolicy::ProcessorHours => {
                CostModel::new(base.alpha * p, base.beta * p, base.gamma)
            }
            WidthPolicy::Turnaround { wait_per_proc } => {
                if !(wait_per_proc >= 0.0) || !wait_per_proc.is_finite() {
                    return Err(CoreError::InvalidCostParameter {
                        name: "wait_per_proc",
                        value: wait_per_proc,
                        requirement: "must be >= 0 and finite",
                    });
                }
                CostModel::new(base.alpha, base.beta, base.gamma + wait_per_proc * p)
            }
        }
    }
}

/// A fully specified multi-resource reservation plan.
#[derive(Debug, Clone)]
pub struct MultiResourcePlan {
    /// Chosen processor count.
    pub processors: usize,
    /// Reservation *durations* at that width.
    pub sequence: ReservationSequence,
    /// Expected cost (processor-hour units) of the plan.
    pub expected_cost: f64,
    /// Expected cost of the omniscient scheduler at the same width.
    pub omniscient_cost: f64,
}

/// Plans `(p, t₁ < t₂ < …)` reservations: for each candidate width, solve
/// the induced 1-D STOCHASTIC instance with `strategy` and keep the
/// cheapest.
pub struct MultiResourcePlanner<'a> {
    /// Candidate processor counts.
    pub candidates: &'a [usize],
    /// Speedup model.
    pub speedup: SpeedupModel,
    /// How the cost model scales with the width.
    pub width_policy: WidthPolicy,
    /// The 1-D strategy used per width.
    pub strategy: &'a dyn Strategy,
}

impl<'a> MultiResourcePlanner<'a> {
    /// Evaluates one processor count, returning the plan at that width.
    pub fn plan_at(
        &self,
        work: &dyn ContinuousDistribution,
        cost: &CostModel,
        processors: usize,
    ) -> Result<MultiResourcePlan> {
        self.speedup.validate()?;
        if processors == 0 {
            return Err(CoreError::InvalidHeuristicParameter {
                name: "processors",
                reason: "must be positive",
            });
        }
        let g = self.speedup.factor(processors);
        let runtime = Scaled::new(DynDist(work), g)?;
        let width_cost = self.width_policy.cost_at(cost, processors)?;
        let sequence = self.strategy.sequence(&runtime, &width_cost)?;
        let expected_cost = expected_cost_analytic(&sequence, &runtime, &width_cost);
        Ok(MultiResourcePlan {
            processors,
            sequence,
            expected_cost,
            omniscient_cost: width_cost.omniscient(&runtime),
        })
    }

    /// Finds the cheapest width among the candidates.
    pub fn best(
        &self,
        work: &dyn ContinuousDistribution,
        cost: &CostModel,
    ) -> Result<MultiResourcePlan> {
        let mut best: Option<MultiResourcePlan> = None;
        for &p in self.candidates {
            let plan = self.plan_at(work, cost, p)?;
            if best
                .as_ref()
                .is_none_or(|b| plan.expected_cost < b.expected_cost)
            {
                best = Some(plan);
            }
        }
        best.ok_or(CoreError::InvalidHeuristicParameter {
            name: "candidates",
            reason: "no candidate processor counts supplied",
        })
    }
}

/// Borrowed-trait-object adapter so `Scaled` (generic over a concrete `D`)
/// can wrap a `&dyn ContinuousDistribution`.
#[derive(Debug)]
struct DynDist<'a>(&'a dyn ContinuousDistribution);

impl ContinuousDistribution for DynDist<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn support(&self) -> rsj_dist::Support {
        self.0.support()
    }
    fn pdf(&self, t: f64) -> f64 {
        self.0.pdf(t)
    }
    fn cdf(&self, t: f64) -> f64 {
        self.0.cdf(t)
    }
    fn survival(&self, t: f64) -> f64 {
        self.0.survival(t)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.0.quantile(p)
    }
    fn mean(&self) -> f64 {
        self.0.mean()
    }
    fn variance(&self) -> f64 {
        self.0.variance()
    }
    fn conditional_mean_above(&self, tau: f64) -> f64 {
        self.0.conditional_mean_above(tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::MeanByMean;
    use rsj_dist::LogNormal;

    #[test]
    fn speedup_factors() {
        let amdahl = SpeedupModel::Amdahl {
            serial_fraction: 0.1,
        };
        assert!((amdahl.factor(1) - 1.0).abs() < 1e-12);
        // p → ∞: factor → f.
        assert!((amdahl.factor(1_000_000) - 0.1).abs() < 1e-5);
        assert!((SpeedupModel::Linear.factor(4) - 0.25).abs() < 1e-12);
        let log = SpeedupModel::LogOverhead { overhead: 0.01 };
        assert!(log.factor(8) > SpeedupModel::Linear.factor(8));
    }

    #[test]
    fn validation() {
        assert!(SpeedupModel::Amdahl {
            serial_fraction: 1.5
        }
        .validate()
        .is_err());
        assert!(SpeedupModel::LogOverhead { overhead: -0.1 }
            .validate()
            .is_err());
        assert!(SpeedupModel::Linear.validate().is_ok());
    }

    #[test]
    fn linear_speedup_processor_hours_is_width_invariant() {
        // With g(p) = 1/p and costs ∝ p·t, processor-hours are conserved:
        // every width costs the same (γ = 0). The reservation *count* is
        // also invariant (scaling the law scales the ladder), so a fixed γ
        // would not break the tie either.
        let work = LogNormal::new(1.0, 0.5).unwrap();
        let cost = CostModel::reservation_only();
        let strategy = MeanByMean::default();
        let planner = MultiResourcePlanner {
            candidates: &[1, 2, 8, 64],
            speedup: SpeedupModel::Linear,
            width_policy: WidthPolicy::ProcessorHours,
            strategy: &strategy,
        };
        let costs: Vec<f64> = planner
            .candidates
            .iter()
            .map(|&p| planner.plan_at(&work, &cost, p).unwrap().expected_cost)
            .collect();
        for w in costs.windows(2) {
            assert!(
                (w[0] - w[1]).abs() / w[0] < 1e-9,
                "linear speedup must be width-invariant: {costs:?}"
            );
        }
    }

    #[test]
    fn amdahl_processor_hours_prefers_narrow() {
        // Sublinear speedup burns processor-hours on the serial part: the
        // cloud-billing planner must prefer narrow widths.
        let work = LogNormal::new(1.0, 0.5).unwrap();
        let cost = CostModel::reservation_only();
        let strategy = MeanByMean::default();
        let planner = MultiResourcePlanner {
            candidates: &[1, 4, 16, 64],
            speedup: SpeedupModel::Amdahl {
                serial_fraction: 0.5,
            },
            width_policy: WidthPolicy::ProcessorHours,
            strategy: &strategy,
        };
        let best = planner.best(&work, &cost).unwrap();
        assert_eq!(best.processors, 1, "serial-heavy code should stay narrow");
    }

    #[test]
    fn turnaround_objective_has_interior_optimum() {
        // Turnaround: width shortens the runtime (linear speedup) but each
        // attempt's queue wait grows with p — a genuine trade-off.
        let work = LogNormal::new(1.5, 0.4).unwrap();
        let cost = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let strategy = MeanByMean::default();
        let planner = MultiResourcePlanner {
            candidates: &[1, 2, 4, 8, 16, 32, 64, 128],
            speedup: SpeedupModel::Linear,
            width_policy: WidthPolicy::Turnaround {
                wait_per_proc: 0.05,
            },
            strategy: &strategy,
        };
        let best = planner.best(&work, &cost).unwrap();
        assert!(
            best.processors > 1 && best.processors < 128,
            "expected an interior optimum, got {}",
            best.processors
        );
        // The chosen plan is self-consistent.
        assert!(best.expected_cost >= best.omniscient_cost * (1.0 - 1e-9));
    }

    #[test]
    fn turnaround_wait_penalty_narrows_the_optimum() {
        // A steeper wait-vs-width penalty must never widen the best plan.
        let work = LogNormal::new(1.5, 0.4).unwrap();
        let cost = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let strategy = MeanByMean::default();
        let mut widths = Vec::new();
        for wpp in [0.001, 0.05, 2.0] {
            let planner = MultiResourcePlanner {
                candidates: &[1, 2, 4, 8, 16, 32, 64, 128],
                speedup: SpeedupModel::Linear,
                width_policy: WidthPolicy::Turnaround { wait_per_proc: wpp },
                strategy: &strategy,
            };
            widths.push(planner.best(&work, &cost).unwrap().processors);
        }
        assert!(
            widths[0] >= widths[1] && widths[1] >= widths[2],
            "widths must shrink with the penalty: {widths:?}"
        );
        assert!(
            widths[0] > widths[2],
            "the effect must be visible: {widths:?}"
        );
    }

    #[test]
    fn width_policy_validation() {
        let base = CostModel::reservation_only();
        assert!(WidthPolicy::Turnaround {
            wait_per_proc: -1.0
        }
        .cost_at(&base, 4)
        .is_err());
        let c = WidthPolicy::Turnaround { wait_per_proc: 0.5 }
            .cost_at(&base, 4)
            .unwrap();
        assert_eq!(c.gamma, 2.0);
        assert_eq!(c.alpha, 1.0);
        let c = WidthPolicy::ProcessorHours.cost_at(&base, 4).unwrap();
        assert_eq!(c.alpha, 4.0);
    }

    #[test]
    fn rejects_empty_candidates() {
        let work = LogNormal::new(1.0, 0.5).unwrap();
        let cost = CostModel::reservation_only();
        let strategy = MeanByMean::default();
        let planner = MultiResourcePlanner {
            candidates: &[],
            speedup: SpeedupModel::Linear,
            width_policy: WidthPolicy::ProcessorHours,
            strategy: &strategy,
        };
        assert!(planner.best(&work, &cost).is_err());
    }
}
