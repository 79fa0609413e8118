//! The [`ContinuousDistribution`] trait: the contract every job-runtime
//! distribution must satisfy for the reservation machinery of `rsj-core`.
//!
//! The paper assumes (§2.3) smooth nonnegative distributions with finite
//! expectation, supported either on `[a, b]` or `[a, ∞)` with `a ≥ 0`.

use crate::quadrature;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Support of a job-runtime distribution (paper §2.1): either a finite
/// interval `[a, b]` with `0 ≤ a < b`, or a half-line `[a, ∞)` with `0 ≤ a`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Support {
    /// Finite support `[lower, upper]`.
    Bounded {
        /// Left endpoint `a ≥ 0`.
        lower: f64,
        /// Right endpoint `b > a`.
        upper: f64,
    },
    /// Infinite support `[lower, ∞)`.
    Unbounded {
        /// Left endpoint `a ≥ 0`.
        lower: f64,
    },
}

impl Support {
    /// Left endpoint of the support.
    pub fn lower(&self) -> f64 {
        match *self {
            Support::Bounded { lower, .. } | Support::Unbounded { lower } => lower,
        }
    }

    /// Right endpoint, or `None` for unbounded distributions.
    pub fn upper(&self) -> Option<f64> {
        match *self {
            Support::Bounded { upper, .. } => Some(upper),
            Support::Unbounded { .. } => None,
        }
    }

    /// Whether the support is a finite interval.
    pub fn is_bounded(&self) -> bool {
        matches!(self, Support::Bounded { .. })
    }

    /// Whether `t` lies inside the support (inclusive).
    pub fn contains(&self, t: f64) -> bool {
        match *self {
            Support::Bounded { lower, upper } => (lower..=upper).contains(&t),
            Support::Unbounded { lower } => t >= lower,
        }
    }
}

/// A smooth, nonnegative continuous probability distribution modelling the
/// execution time of a stochastic job.
///
/// Implementors provide the density `f`, CDF `F`, quantile `Q`, the first two
/// moments and — crucially for the Mean-by-Mean heuristic (Appendix B) — the
/// conditional expectation `E[X | X > τ]`. Default implementations fall back
/// on numeric quadrature and inverse-transform sampling; every concrete
/// distribution in this crate overrides them with the closed forms of
/// Table 5 / Appendix B.
///
/// The trait is object-safe: `rsj-core` consumes `&dyn ContinuousDistribution`.
pub trait ContinuousDistribution: Send + Sync + std::fmt::Debug {
    /// Human-readable name including parameters, e.g. `Weibull(λ=1, κ=0.5)`.
    fn name(&self) -> String;

    /// The support of the distribution.
    fn support(&self) -> Support;

    /// Probability density function `f(t)`. Zero outside the support.
    fn pdf(&self, t: f64) -> f64;

    /// Cumulative distribution function `F(t) = P(X ≤ t)`.
    fn cdf(&self, t: f64) -> f64;

    /// Quantile function `Q(p) = inf{t | F(t) ≥ p}` for `p ∈ [0, 1]`.
    fn quantile(&self, p: f64) -> f64;

    /// Expected value `E[X]` (finite by standing assumption).
    fn mean(&self) -> f64;

    /// Variance `Var[X]` (finite by the assumption of Theorem 2).
    fn variance(&self) -> f64;

    /// Survival function `P(X ≥ t) = 1 - F(t)`.
    ///
    /// Override when a direct form avoids cancellation in the tail (the
    /// expected-cost series of Eq. 4 sums many tail probabilities).
    fn survival(&self, t: f64) -> f64 {
        (1.0 - self.cdf(t)).clamp(0.0, 1.0)
    }

    /// Standard deviation `σ`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Second raw moment `E[X²] = Var[X] + E[X]²`.
    fn second_moment(&self) -> f64 {
        let m = self.mean();
        self.variance() + m * m
    }

    /// Median `Q(1/2)`.
    fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Conditional expectation `E[X | X > τ]` (Appendix B, Eq. 14).
    ///
    /// For `τ` below the support this is the unconditional mean. The default
    /// integrates the survival function:
    /// `E[X | X > τ] = τ + ∫_τ^{sup} P(X ≥ t) dt / P(X ≥ τ)`.
    fn conditional_mean_above(&self, tau: f64) -> f64 {
        let support = self.support();
        if tau <= support.lower() {
            return self.mean();
        }
        let s_tau = self.survival(tau);
        if s_tau <= 0.0 {
            // Conditioning on a null event; return the essential supremum.
            return support.upper().unwrap_or(tau);
        }
        let integral = match support.upper() {
            Some(b) => quadrature::integrate(|t| self.survival(t), tau, b, 1e-12).value,
            None => quadrature::integrate_to_inf(|t| self.survival(t), tau, 1e-12).value,
        };
        tau + integral / s_tau
    }

    /// A string that uniquely identifies this distribution (law *and*
    /// parameters) for process-wide memoization, or `None` when no
    /// faithful key exists.
    ///
    /// Caching is opt-in: the default is `None` because a display name
    /// that truncates parameters (e.g. an empirical law showing only its
    /// knot count) would silently alias distinct distributions. Types
    /// whose `name()` round-trips every parameter — the nine parametric
    /// laws of Table 1 — override this with `Some(self.name())`, which is
    /// faithful because Rust's `{}` formatting of `f64` is
    /// shortest-roundtrip.
    fn cache_key(&self) -> Option<String> {
        None
    }

    /// Draws one execution time by inverse-transform sampling.
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // `gen` yields a uniform in [0, 1); Q(0) is the support's lower end.
        let u: f64 = rand::Rng::gen(rng);
        self.quantile(u)
    }
}

/// Draws `n` samples into a vector (helper shared by evaluators and tests).
pub fn sample_n(dist: &dyn ContinuousDistribution, n: usize, rng: &mut dyn RngCore) -> Vec<f64> {
    (0..n).map(|_| dist.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_accessors() {
        let b = Support::Bounded {
            lower: 1.0,
            upper: 4.0,
        };
        assert_eq!(b.lower(), 1.0);
        assert_eq!(b.upper(), Some(4.0));
        assert!(b.is_bounded());
        assert!(b.contains(1.0) && b.contains(4.0) && !b.contains(4.1));

        let u = Support::Unbounded { lower: 0.5 };
        assert_eq!(u.lower(), 0.5);
        assert_eq!(u.upper(), None);
        assert!(!u.is_bounded());
        assert!(u.contains(1e12) && !u.contains(0.4));
    }
}
