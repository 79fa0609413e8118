//! Closed-form optimal solutions (system S8): the uniform single-reservation
//! optimum (Theorem 4) and the scale-free exponential solution (§3.5,
//! Proposition 2).

pub(crate) mod exponential;
pub(crate) mod uniform;

pub use exponential::{exp_e1, exp_optimal_cost, exp_optimal_s1, exp_optimal_sequence};
pub use uniform::{uniform_optimal_cost, uniform_optimal_sequence};
