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

    /// `Q(p)` at each `p` of `ps`, in order. A law whose quantile is an
    /// iteration overrides this to start each root from the one before it:
    /// it then returns correct values in any order, and is fastest over a
    /// nondecreasing sweep. The default maps [`quantile`](Self::quantile).
    fn quantiles(&self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.quantile(p)).collect()
    }

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

    /// Probabilities across (0, 1), both ends and near them.
    fn probabilities() -> Vec<f64> {
        let mut ps: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
        ps.extend([1e-300, 1e-12, 1e-7, 0.123_456_789, 1.0 - 1e-7, 1.0 - 1e-12]);
        ps
    }

    #[test]
    fn a_one_point_sweep_is_the_quantile() {
        for (name, spec) in crate::DistSpec::paper_table1() {
            let dist = spec.build().unwrap();
            for p in probabilities() {
                assert_eq!(
                    dist.quantiles(&[p])[0].to_bits(),
                    dist.quantile(p).to_bits(),
                    "{name} at p = {p}"
                );
            }
        }
    }

    #[test]
    fn a_law_without_an_override_sweeps_its_quantile() {
        let dist = crate::LogNormal::new(1.0, 0.8).unwrap();
        let mut ps = probabilities();
        // Unsorted, with repeats.
        ps.reverse();
        ps.extend([0.5, 0.25, 0.5, 0.75]);
        let swept = dist.quantiles(&ps);
        for (&p, x) in ps.iter().zip(swept) {
            assert_eq!(x.to_bits(), dist.quantile(p).to_bits(), "p = {p}");
        }
    }

    /// With shapes far below 1, a sweep's first root can lie below the
    /// smallest double; the next one, orders of magnitude further up the
    /// steep tail, must still be found.
    #[test]
    fn a_sweep_across_a_steep_tail_still_converges() {
        let laws: [Box<dyn ContinuousDistribution>; 2] = [
            Box::new(crate::BetaDist::new(0.02, 0.5).unwrap()),
            Box::new(crate::GammaDist::new(0.02, 1.0).unwrap()),
        ];
        for dist in &laws {
            for (p0, p) in [(1e-12, 1e-6), (1e-9, 1e-4), (1e-9, 1e-3)] {
                let x = dist.quantiles(&[p0, p])[1];
                let residual = (dist.cdf(x) - p).abs() / (f64::EPSILON * p);
                assert!(
                    residual <= 32.0,
                    "{}: Q({p}) = {x} after Q({p0}): |F − p| = {residual:.3e} ε·p",
                    dist.name()
                );
            }
        }
    }

    /// Seeded two-point sweeps over Beta and Gamma laws with shapes from
    /// 0.02 to 5: the first p from 1.1e-16 to 1e-4, the second from 1e-5
    /// (or the first) to 1e-2, often orders of magnitude up a steep tail.
    /// The second root must be within 32 ε·p of the law's CDF, so a warm
    /// start that the trust region should have refused, which leaves the
    /// loop far from the root, fails: without the region, 2 of these
    /// sweeps do (Beta laws with a below 0.023, residuals 2e14 and 3e15
    /// ε·p). Further down the double CDFs themselves are off by more, about
    /// 30 ε·p near p = 1e-6 and 60 near 1e-15 for the smallest shapes, at
    /// single quantiles too.
    #[test]
    fn two_point_sweeps_from_the_deep_tail_converge() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2019);
        let mut log_uniform =
            |lo: f64, hi: f64| (lo.ln() + (hi / lo).ln() * rng.gen::<f64>()).exp();
        let mut worst = 0.0f64;
        for i in 0..20_000 {
            let (a, b) = (log_uniform(0.02, 5.0), log_uniform(0.02, 5.0));
            let p0 = log_uniform(1.1e-16, 1e-4);
            let p = log_uniform(p0.max(1e-5), 1e-2);
            let dist: Box<dyn ContinuousDistribution> = if i % 2 == 0 {
                Box::new(crate::BetaDist::new(a, b).unwrap())
            } else {
                Box::new(crate::GammaDist::new(a, 1.0).unwrap())
            };
            let x = dist.quantiles(&[p0, p])[1];
            let residual = (dist.cdf(x) - p).abs() / (f64::EPSILON * p);
            assert!(
                residual <= 32.0,
                "{}: Q({p:e}) = {x:e} after Q({p0:e}): |F − p| = {residual:.3e} ε·p",
                dist.name()
            );
            worst = worst.max(residual);
        }
        println!("worst residual {worst:.2} ε·p");
    }

    #[test]
    fn sweeps_with_repeats_and_both_ends_do_not_decrease() {
        let ps = [
            0.0, 0.0, 1e-9, 0.1, 0.1, 0.1, 0.5, 0.5, 0.999, 0.999, 1.0, 1.0,
        ];
        let laws: [Box<dyn ContinuousDistribution>; 4] = [
            Box::new(crate::BetaDist::new(2.0, 2.0).unwrap()),
            Box::new(crate::BetaDist::new(0.5, 3.0).unwrap()),
            Box::new(crate::GammaDist::new(2.0, 2.0).unwrap()),
            Box::new(crate::GammaDist::new(0.6, 1.0).unwrap()),
        ];
        for dist in &laws {
            let xs = dist.quantiles(&ps);
            assert_eq!(xs.len(), ps.len());
            assert_eq!(xs[0], dist.support().lower(), "{}", dist.name());
            assert_eq!(
                xs[ps.len() - 1],
                dist.support().upper().unwrap_or(f64::INFINITY),
                "{}",
                dist.name()
            );
            assert!(
                xs.windows(2).all(|w| w[0] <= w[1]),
                "{}: {xs:?}",
                dist.name()
            );
        }
    }
}
