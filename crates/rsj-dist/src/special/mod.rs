//! From-scratch special-function library (system S1 of DESIGN.md).
//!
//! Everything the nine distributions of the paper need: the gamma-function
//! family (Lanczos `ln Γ`, regularized incomplete gamma and its inverse), the
//! beta-function family (regularized incomplete beta and its inverse), the
//! error-function family and the standard-normal CDF/quantile.
//!
//! No third-party math crate is used here; `statrs` appears only in unit
//! tests as a cross-validation oracle.

pub mod beta;
pub mod erf;
pub mod gamma;
pub(crate) mod normal;

pub use beta::{beta, beta_inc, beta_inc_unreg, inverse_beta_inc, ln_beta};
pub use erf::{erf, erfc};
pub use gamma::{gamma, gamma_p, gamma_q, inverse_gamma_p, ln_gamma, upper_incomplete_gamma};
pub use normal::{norm_cdf, norm_pdf, norm_quantile, norm_sf};

#[cfg(test)]
thread_local! {
    /// Iterations of the bracketed Newton loops in [`beta`] and [`gamma`]
    /// on this thread, so unit tests can count the steps a grid takes.
    static NEWTON_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one iteration of a bracketed Newton loop (test builds only).
#[cfg(test)]
fn count_newton_step() {
    NEWTON_STEPS.with(|steps| steps.set(steps.get() + 1));
}

/// Newton iterations over the n = 1000 equal-probability grid of `dist`,
/// as `discretize` builds it (for an unbounded law, its upper bound
/// `Q(1 − ε)` included).
#[cfg(test)]
fn grid_newton_steps(dist: &dyn crate::ContinuousDistribution) -> u64 {
    let before = NEWTON_STEPS.with(|steps| steps.get());
    crate::discretize(
        dist,
        crate::DiscretizationScheme::EqualProbability,
        1000,
        1e-7,
    )
    .expect("a valid grid");
    NEWTON_STEPS.with(|steps| steps.get()) - before
}
