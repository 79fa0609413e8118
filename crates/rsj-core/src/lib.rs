//! # rsj-core — reservation strategies for stochastic jobs
//!
//! The primary contribution of *Reservation Strategies for Stochastic Jobs*
//! (Aupy, Gainaru, Honoré, Raghavan, Robert, Sun — IPDPS 2019), implemented
//! as a library (systems S6–S8 of `DESIGN.md`):
//!
//! * `cost` — the affine cost model `α·t₁ + β·min(t₁, t) + γ` of Eq. 1
//!   and its convex extension (Appendix C);
//! * `sequence` — strictly increasing reservation sequences (§2.2);
//! * `eval` — exact expected cost (Theorem 1, Eq. 4), Monte-Carlo
//!   estimation (§5.1, Eq. 13) and per-job accounting (Eq. 2);
//! * `recurrence` — the optimal-sequence recurrence (Proposition 1,
//!   Eq. 11 / Eq. 37);
//! * `bounds` — the Theorem 2 upper bounds `A₁`, `A₂`;
//! * [`heuristics`] — Brute-Force (§4.1), discretization + dynamic
//!   programming (§4.2, Theorem 5) and the measure-based rules of §4.3;
//! * [`exact`] — closed-form optima: Uniform (Theorem 4) and Exponential
//!   (§3.5, `s₁ ≈ 0.74219`).
//!
//! ## Quickstart
//!
//! ```
//! use rsj_core::prelude::*;
//! use rsj_dist::prelude::*;
//!
//! // A job whose runtime follows LogNormal(3, 0.5), on a pay-per-request
//! // platform (RESERVATIONONLY).
//! let dist = LogNormal::new(3.0, 0.5).unwrap();
//! let cost = CostModel::reservation_only();
//!
//! // Compute a reservation sequence with the Mean-by-Mean heuristic...
//! let seq = MeanByMean::default().sequence(&dist, &cost).unwrap();
//!
//! // ...and score it against the omniscient scheduler.
//! let ratio = normalized_cost_analytic(&seq, &dist, &cost);
//! assert!(ratio > 1.0 && ratio < 3.0);
//! ```

#![warn(missing_docs)]
// `!(x > 0.0)`-style guards deliberately reject NaN together with
// out-of-range values; clippy's partial_cmp suggestion obscures that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod bounds;
pub(crate) mod cancel;
pub(crate) mod cost;
pub(crate) mod error;
pub(crate) mod eval;
pub mod exact;
pub mod extensions;
pub mod heuristics;
pub(crate) mod recurrence;
pub mod risk;
pub mod robustness;
pub(crate) mod sequence;

pub use bounds::{upper_bound_expected_cost, upper_bound_t1};
pub use cancel::CancelToken;
pub use cost::{AffineConvexCost, CostModel, QuadraticCost};
pub use error::{CoreError, Result};
pub use eval::{
    coverage_gap, draw_samples, expected_cost_analytic, expected_cost_analytic_convex,
    expected_cost_monte_carlo, normalized_cost_analytic, run_job, RunOutcome,
};
pub use heuristics::{
    monotone_gate, optimal_discrete, optimal_discrete_exact, optimal_discrete_monotone, BruteForce,
    DiscretizedDp, DpPath, DpSolution, EvalMethod, MeanByMean, MeanDoubling, MeanStdev,
    MedianByMedian, SolverSpec, Strategy, SuiteBuilder, SweepPoint,
};
pub use recurrence::{sequence_from_t1, sequence_from_t1_convex, RecurrenceConfig};
pub use risk::risk_profile;
pub use robustness::{expected_cost_with_extension, misspecification_report};
pub use sequence::ReservationSequence;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::bounds::{upper_bound_expected_cost, upper_bound_t1};
    pub use crate::cancel::CancelToken;
    pub use crate::cost::{CostModel, QuadraticCost};
    pub use crate::eval::{
        expected_cost_analytic, expected_cost_monte_carlo, normalized_cost_analytic, run_job,
        RunOutcome,
    };
    pub use crate::heuristics::{
        BruteForce, DiscretizedDp, EvalMethod, MeanByMean, MeanDoubling, MeanStdev, MedianByMedian,
        SolverSpec, Strategy, SuiteBuilder,
    };
    pub use crate::recurrence::{sequence_from_t1, RecurrenceConfig};
    pub use crate::sequence::ReservationSequence;
}
