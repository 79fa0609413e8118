//! # rsj-dist — distributions for stochastic-job scheduling
//!
//! The probability substrate (systems S1–S5 of `DESIGN.md`) for the
//! reproduction of *Reservation Strategies for Stochastic Jobs* (Aupy,
//! Gainaru, Honoré, Raghavan, Robert, Sun — IPDPS 2019):
//!
//! * [`special`] — from-scratch special functions (`ln Γ`, incomplete
//!   gamma/beta and inverses, `erf`, normal CDF/quantile);
//! * `continuous` — the nine job-runtime distributions of Table 1 with the
//!   closed forms of Table 5 and the conditional expectations of Appendix B;
//! * `discrete` — finite discrete distributions plus the Equal-time /
//!   Equal-probability truncation-and-discretization schemes of §4.2.1;
//! * `empirical` / `fit` — empirical distributions, LogNormal MLE and
//!   affine least squares (the Figure 1 / Figure 2 fitting procedures);
//! * [`censored`] — Kaplan–Meier survival estimation and censored MLE fits
//!   for online learn-while-scheduling pipelines (system S19);
//! * [`quadrature`] — adaptive Simpson integration backing default trait
//!   implementations and cross-validation tests;
//! * `spec` — serializable distribution specifications for experiment
//!   configuration.
//!
//! Everything implements the object-safe [`ContinuousDistribution`] trait so
//! the scheduling layer (`rsj-core`) is distribution-agnostic.
//!
//! ## Example
//!
//! ```
//! use rsj_dist::prelude::*;
//!
//! let job_law = LogNormal::new(3.0, 0.5).unwrap();
//! assert!((job_law.mean() - (3.125f64).exp()).abs() < 1e-9);
//! // Conditional expectation drives the Mean-by-Mean heuristic:
//! let after_first_try = job_law.conditional_mean_above(job_law.mean());
//! assert!(after_first_try > job_law.mean());
//! ```

#![warn(missing_docs)]
// `!(x > 0.0)`-style guards deliberately reject NaN together with
// out-of-range values; clippy's partial_cmp suggestion obscures that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod censored;
pub(crate) mod continuous;
pub(crate) mod discrete;
pub(crate) mod empirical;
pub(crate) mod error;
pub(crate) mod eval_table;
pub(crate) mod fit;
pub(crate) mod interpolated;
pub mod quadrature;
pub(crate) mod spec;
pub mod special;
pub(crate) mod traits;
pub mod transform;

pub use censored::{
    fit_exponential_censored, fit_lognormal_censored, fit_weibull_censored, KaplanMeier,
    Observation,
};
pub use continuous::{
    BetaDist, BoundedPareto, Exponential, GammaDist, LogNormal, Pareto, TruncatedNormal, Uniform,
    Weibull,
};
pub use discrete::{discretize, DiscreteDistribution, DiscretizationScheme};
pub use empirical::Empirical;
pub use error::{DistError, Result};
pub use eval_table::{
    clear_eval_cache, discretize_eval, eval_cache_stats, EvalTable, EvalTableSource,
};
pub use fit::{fit_affine, fit_lognormal, AffineFit, LogNormalFit};
pub use interpolated::InterpolatedEmpirical;
pub use spec::DistSpec;
pub use traits::{sample_n, ContinuousDistribution, Support};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::censored::{
        fit_exponential_censored, fit_lognormal_censored, fit_weibull_censored, KaplanMeier,
        Observation,
    };
    pub use crate::continuous::{
        BetaDist, BoundedPareto, Exponential, GammaDist, LogNormal, Pareto, TruncatedNormal,
        Uniform, Weibull,
    };
    pub use crate::discrete::{discretize, DiscreteDistribution, DiscretizationScheme};
    pub use crate::empirical::Empirical;
    pub use crate::interpolated::InterpolatedEmpirical;
    pub use crate::spec::DistSpec;
    pub use crate::traits::{ContinuousDistribution, Support};
}
