//! The reservation heuristics of §4 (system S7 of DESIGN.md).
//!
//! * [`BruteForce`] — §4.1: grid search over `t₁`, sequences completed via
//!   the optimal recurrence (Eq. 11);
//! * [`DiscretizedDp`] — §4.2: truncate + discretize the distribution, then
//!   solve the discrete problem exactly by dynamic programming (Theorem 5);
//! * [`MeanByMean`], [`MeanStdev`], [`MeanDoubling`], [`MedianByMedian`] —
//!   §4.3: measure-based incremental rules.
//!
//! All heuristics implement the common [`Strategy`] trait and produce a
//! [`ReservationSequence`] for a distribution/cost-model pair.

mod brute_force;
mod dp;
mod dp_monotone;
mod simple;
mod spec;

pub use brute_force::{BruteForce, EvalMethod, SweepPoint};
pub use dp::{
    discrete_sequence_cost, optimal_discrete, optimal_discrete_exact, optimal_discrete_monotone,
    DiscretizedDp, DpPath, DpSolution,
};
pub use dp_monotone::monotone_gate;
pub use simple::{MeanByMean, MeanDoubling, MeanStdev, MedianByMedian};
pub use spec::{SolverSpec, DEFAULT_EPSILON};

use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::Result;
use crate::sequence::ReservationSequence;
use rsj_dist::{ContinuousDistribution, EvalTableSource};

/// A reservation strategy: computes an increasing sequence of reservation
/// lengths for a given job-time distribution and cost model.
pub trait Strategy: Send + Sync {
    /// Display name, matching the paper's table headers where applicable.
    fn name(&self) -> &str;

    /// Computes the reservation sequence.
    fn sequence(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
    ) -> Result<ReservationSequence>;

    /// [`sequence`](Self::sequence) with cooperative cancellation and the
    /// solve's own attribution: returns
    /// [`CoreError::Cancelled`](crate::CoreError::Cancelled) once `cancel`
    /// fires. The default checks once up front, runs to completion and
    /// attributes nothing — right for the O(1)-ish §4.3 rules. The
    /// expensive solvers override it to poll at loop granularity so a
    /// deadline can interrupt a solve mid-flight; [`DiscretizedDp`] also
    /// reports its DP pass and eval-table source.
    fn solve(
        &self,
        dist: &dyn ContinuousDistribution,
        cost: &CostModel,
        cancel: &CancelToken,
    ) -> Result<Solve> {
        cancel.check()?;
        Ok(Solve {
            sequence: self.sequence(dist, cost)?,
            dp_path: None,
            eval_table: None,
        })
    }
}

/// What [`Strategy::solve`] returns: the sequence, and how a discretized
/// DP obtained it. Both attributions are `None` for a solver that does
/// not discretize.
#[derive(Debug, Clone)]
pub struct Solve {
    /// The reservation sequence.
    pub sequence: ReservationSequence,
    /// Which DP pass ran: the monotone fast path or the exact fallback.
    pub dp_path: Option<DpPath>,
    /// Whether the discretized law came warm from the memo or was built.
    pub eval_table: Option<EvalTableSource>,
}

/// Parameters shared by the sequence generators of the simple heuristics:
/// how deep into the tail a materialized prefix must reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPolicy {
    /// Stop extending once `P(X ≥ tᵢ)` falls below this.
    pub tail_cutoff: f64,
    /// Hard cap on the number of reservations.
    pub max_len: usize,
}

impl Default for TailPolicy {
    fn default() -> Self {
        Self {
            tail_cutoff: 1e-12,
            max_len: 100_000,
        }
    }
}

/// Configurable construction of the §4 heuristic suite: the seven
/// heuristics in Table 2 column order, with every evaluation parameter
/// adjustable (`M`, `N`, the DP's `n` and ε). The default configuration
/// reproduces the paper's Table 2 suite exactly; Brute-Force scores its
/// candidates by Monte Carlo, as in the paper.
///
/// ```
/// use rsj_core::heuristics::SuiteBuilder;
///
/// // The Table 2 suite at reduced fidelity.
/// let suite = SuiteBuilder::new(42)
///     .grid(500)
///     .samples(200)
///     .discretization(200)
///     .build()
///     .unwrap();
/// assert_eq!(suite.len(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct SuiteBuilder {
    seed: u64,
    grid: usize,
    samples: usize,
    discretization: usize,
    epsilon: f64,
}

impl SuiteBuilder {
    /// All seven heuristics at the paper's evaluation parameters
    /// (`M = 5000`, `N = 1000`, Monte-Carlo scoring, `n = 1000`,
    /// `ε = 1e-7`).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            grid: spec::DEFAULT_GRID,
            samples: spec::DEFAULT_SAMPLES,
            discretization: spec::DEFAULT_SAMPLES,
            epsilon: spec::DEFAULT_EPSILON,
        }
    }

    /// Brute-force grid size `M`.
    pub fn grid(mut self, m: usize) -> Self {
        self.grid = m;
        self
    }

    /// Monte-Carlo sample count `N` (scoring and validity horizon).
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n;
        self
    }

    /// Discretization sample count `n` for both DP schemes.
    pub fn discretization(mut self, n: usize) -> Self {
        self.discretization = n;
        self
    }

    /// Truncation quantile ε for the DP schemes.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builds the seven strategies in Table 2 column order, validating
    /// every parameter.
    pub fn build(&self) -> Result<Vec<Box<dyn Strategy>>> {
        Ok(vec![
            Box::new(BruteForce::new(
                self.grid,
                self.samples,
                EvalMethod::MonteCarlo,
                self.seed,
            )?),
            Box::new(MeanByMean::default()),
            Box::new(MeanStdev::default()),
            Box::new(MeanDoubling::default()),
            Box::new(MedianByMedian::default()),
            Box::new(DiscretizedDp::new(
                rsj_dist::DiscretizationScheme::EqualTime,
                self.discretization,
                self.epsilon,
            )?),
            Box::new(DiscretizedDp::new(
                rsj_dist::DiscretizationScheme::EqualProbability,
                self.discretization,
                self.epsilon,
            )?),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_dist::DistSpec;

    #[test]
    fn suite_has_paper_names_in_order() {
        let suite = SuiteBuilder::new(1).build().unwrap();
        let names: Vec<&str> = suite.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "Brute-Force",
                "Mean-by-Mean",
                "Mean-Stdev",
                "Mean-Doubling",
                "Median-by-Median",
                "Equal-time",
                "Equal-probability",
            ]
        );
    }

    #[test]
    fn builder_rejects_invalid_parameters() {
        assert!(SuiteBuilder::new(0).grid(0).build().is_err());
        assert!(SuiteBuilder::new(0).discretization(0).build().is_err());
    }

    #[test]
    fn every_heuristic_handles_every_paper_distribution() {
        let cost = CostModel::reservation_only();
        // Brute force is exercised with a small grid to keep this test fast.
        let mut suite: Vec<Box<dyn Strategy>> = vec![
            Box::new(BruteForce::new(200, 200, EvalMethod::Analytic, 7).unwrap()),
            Box::new(MeanByMean::default()),
            Box::new(MeanStdev::default()),
            Box::new(MeanDoubling::default()),
            Box::new(MedianByMedian::default()),
        ];
        suite.push(Box::new(
            DiscretizedDp::new(rsj_dist::DiscretizationScheme::EqualTime, 200, 1e-7).unwrap(),
        ));
        for (name, spec) in DistSpec::paper_table1() {
            let dist = spec.build().unwrap();
            for h in &suite {
                let seq = h
                    .sequence(dist.as_ref(), &cost)
                    .unwrap_or_else(|e| panic!("{} on {name}: {e}", h.name()));
                assert!(!seq.is_empty(), "{} on {name}", h.name());
            }
        }
    }
}
