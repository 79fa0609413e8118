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
pub mod normal;

pub use beta::{beta, beta_inc, beta_inc_unreg, inverse_beta_inc, ln_beta};
pub use erf::{erf, erf_inv, erfc, erfc_inv};
pub use gamma::{
    gamma, gamma_p, gamma_q, inverse_gamma_p, inverse_gamma_q, ln_gamma, upper_incomplete_gamma,
};
pub use normal::{norm_cdf, norm_pdf, norm_quantile, norm_sf};
