//! From-scratch special-function library (system S1 of DESIGN.md).
//!
//! Everything the nine distributions of the paper need: the gamma-function
//! family (Lanczos `ln Γ`, regularized incomplete gamma and its inverse), the
//! beta-function family (regularized incomplete beta and its inverse), the
//! error-function family (a port of fdlibm's `s_erf.c`) and the
//! standard-normal CDF/quantile.
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

thread_local! {
    /// Incomplete beta and gamma evaluations on this thread.
    static EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one evaluation of `I_x(a, b)`, `P(a, x)` or `Q(a, x)`: one
/// continued fraction or series, the work a quantile's Newton step costs.
fn count_evaluation() {
    EVALUATIONS.with(|n| n.set(n.get() + 1));
}

/// Incomplete beta and gamma evaluations this thread has made so far. A
/// caller reads it before and after a piece of work and takes the
/// difference: `perf_gate` gates it for cold tables and simulated jobs.
pub fn evaluations() -> u64 {
    EVALUATIONS.with(std::cell::Cell::get)
}

/// The last point a quantile loop evaluated: `x`, the function's value
/// there and its density. The next root of a sweep starts from it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LastPoint {
    pub(crate) x: f64,
    pub(crate) value: f64,
    pub(crate) pdf: f64,
}

impl LastPoint {
    /// The fourth-order Taylor step of the quantile function from this
    /// point to probability `p`:
    /// `x + d − ½·c·d² + ⅙·(2c² − c′)·d³ + ¹⁄₂₄·(7c·c′ − c″ − 6c³)·d⁴`, with
    /// `d = (p − value)/pdf`, and `c = f′/f` and its first two derivatives
    /// `c′` and `c″` at `x` (`log_slope`, in that order). `None` when the
    /// second-order term would outgrow the first (`|c·d| > 2`): the series
    /// then does not describe the quantile at `p`, as when `p` lies orders
    /// of magnitude past `value` in a steep tail, and a start that far off
    /// can leave the loop short of the root after its 200 iterations.
    pub(crate) fn taylor_start(&self, p: f64, log_slope: [f64; 3]) -> Option<f64> {
        let [c, c1, c2] = log_slope;
        let d = (p - self.value) / self.pdf;
        let cd = c * d;
        let third = (2.0 * c * c - c1) / 6.0;
        let fourth = (7.0 * c * c1 - c2 - 6.0 * c * c * c) / 24.0;
        (cd.abs() <= 2.0).then_some(self.x + d * (1.0 - 0.5 * cd + d * d * (third + d * fourth)))
    }
}

/// The cold start of a root in the deep lower tail, from the leading term
/// of the function's series at 0, `F(x) ≈ x^a/(a·K)`, solved in log space:
/// `ln x₀ = (ln p + ln a + ln K)/a`. `Some(x₀)` when `x₀` lies below
/// 1e-4, where that term describes `F`; `Some(0)` when `ln x₀` is below
/// the log of the smallest subnormal, so the root underflows; `None`
/// otherwise.
pub(crate) fn deep_tail_start(ln_x0: f64) -> Option<f64> {
    // ln(2⁻¹⁰⁷⁴).
    const LN_MIN_SUBNORMAL: f64 = -744.440_071_921_381_3;
    if ln_x0 < LN_MIN_SUBNORMAL {
        return Some(0.0);
    }
    let x0 = ln_x0.exp();
    (x0 < 1e-4).then_some(x0)
}

/// Inverts one sweep: `solve(p, from)` returns the root of `p` and the
/// last point its loop evaluated, starting from `from` when it is given
/// and its [`LastPoint::taylor_start`] is trusted. Each `p` above its
/// predecessor gets the predecessor's last point, and one below it starts
/// cold, so any order gives correct values and only a nondecreasing one
/// is fast. A repeated `p` reuses its predecessor's root.
pub(crate) fn sweep(
    ps: &[f64],
    mut solve: impl FnMut(f64, Option<LastPoint>) -> (f64, Option<LastPoint>),
) -> Vec<f64> {
    let mut out = Vec::with_capacity(ps.len());
    let mut prev: Option<(f64, f64, Option<LastPoint>)> = None;
    for &p in ps {
        let x = match prev {
            Some((p0, x0, _)) if p == p0 => x0,
            _ => {
                let from = prev.and_then(|(p0, _, last)| last.filter(|_| p > p0));
                let (x, last) = solve(p, from);
                prev = Some((p, x, last));
                x
            }
        };
        out.push(x);
    }
    out
}

/// Incomplete-function evaluations over the size-`n` equal-probability
/// grid of `dist`, as `discretize` builds it.
#[cfg(test)]
fn grid_evaluations(dist: &dyn crate::ContinuousDistribution, n: usize) -> u64 {
    let before = evaluations();
    crate::discretize(dist, crate::DiscretizationScheme::EqualProbability, n, 1e-7)
        .expect("a valid grid");
    evaluations() - before
}
