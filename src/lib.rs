//! # reservation-strategies
//!
//! A production-quality Rust implementation of *Reservation Strategies for
//! Stochastic Jobs* (Aupy, Gainaru, Honoré, Raghavan, Robert, Sun — IPDPS
//! 2019): scheduling jobs with stochastic execution times on
//! reservation-based platforms (clouds with Reserved Instances, HPC batch
//! queues) by computing cost-minimizing sequences of increasing
//! reservations.
//!
//! This facade crate provides the stable top-level API — the [`Planner`]
//! builder, its [`Plan`] result and the unified [`RsjError`] — and
//! re-exports the library crates of the workspace:
//!
//! * [`dist`] (`rsj-dist`) — probability distributions, special functions,
//!   discretization and fitting;
//! * [`core`] (`rsj-core`) — cost models, the optimal-sequence theory and
//!   the heuristic suite;
//! * [`sim`] (`rsj-sim`) — the discrete-event batch-queue simulator and
//!   cloud pricing models;
//! * [`traces`] (`rsj-traces`) — neuroscience runtime archives and the
//!   NeuroHPC scenario;
//! * [`obs`] (`rsj-obs`) — tracing, metrics and profiling hooks;
//! * [`par`] (`rsj-par`) — the deterministic fork-join worker pool.
//!
//! The long-running planning daemon built on this facade lives in the
//! `rsj-serve` crate (`rsj serve` / `rsj request` on the CLI).
//!
//! ## Planner facade
//!
//! ```
//! use reservation_strategies::{Planner, dist::DistSpec};
//!
//! let plan = Planner::builder()
//!     .distribution(DistSpec::LogNormal { mu: 3.0, sigma: 0.5 })
//!     .solver_name("dp_equal_probability")
//!     .build()?
//!     .plan()?;
//! assert!(plan.normalized_cost < 2.0);
//! # Ok::<(), reservation_strategies::RsjError>(())
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use reservation_strategies::prelude::*;
//!
//! // Job runtimes follow LogNormal(3, 0.5); the platform bills exactly
//! // what is requested (RESERVATIONONLY, e.g. AWS Reserved Instances).
//! let dist = LogNormal::new(3.0, 0.5).unwrap();
//! let cost = CostModel::reservation_only();
//!
//! // Compute a near-optimal reservation sequence.
//! let strategy = BruteForce::new(500, 1000, EvalMethod::Analytic, 42).unwrap();
//! let sequence = strategy.sequence(&dist, &cost).unwrap();
//!
//! // How much worse than clairvoyance? (Table 2 reports ≈1.85.)
//! let ratio = normalized_cost_analytic(&sequence, &dist, &cost);
//! assert!(ratio < 2.0);
//! ```

pub use rsj_core as core;
pub use rsj_dist as dist;
pub use rsj_obs as obs;
pub use rsj_par as par;
pub use rsj_sim as sim;
pub use rsj_traces as traces;

pub mod error;
pub mod planner;

pub use error::RsjError;
pub use planner::{
    plan_digest, Plan, PlanRequest, Planner, PlannerBuilder, SimulateOptions, SOLVER_REVISION,
};
pub use rsj_core::CancelToken;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::error::RsjError;
    pub use crate::planner::{Plan, PlanRequest, Planner, PlannerBuilder, SimulateOptions};
    pub use rsj_core::prelude::*;
    pub use rsj_dist::prelude::*;
    pub use rsj_sim::prelude::*;
    pub use rsj_traces::prelude::*;
}
