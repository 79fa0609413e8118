//! Finite discrete distributions and the truncation/discretization schemes
//! of §4.2.1 (system S3 of DESIGN.md).
//!
//! A continuous distribution is first truncated to `[a, b]` with
//! `b = Q(1 - ε)` when its support is unbounded, then sampled into `n`
//! `(vᵢ, fᵢ)` pairs by one of two schemes:
//!
//! * **Equal-probability** — `vᵢ = Q(i·F(b)/n)`, `fᵢ = F(b)/n`;
//! * **Equal-time** — `vᵢ = a + i·(b-a)/n`, `fᵢ = F(vᵢ) - F(vᵢ₋₁)`.
//!
//! The resulting [`DiscreteDistribution`] feeds the optimal dynamic program
//! of Theorem 5 (`rsj-core::heuristics::dp`).

use crate::error::{DistError, Result};
use crate::traits::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Which discretization scheme of §4.2.1 to apply.
///
/// Serializes as the snake_case scheme name (`"equal_time"`,
/// `"equal_probability"`) — the same spelling [`FromStr`] accepts — so
/// CLI configs and the `rsj-serve` wire protocol share one vocabulary.
///
/// [`FromStr`]: std::str::FromStr
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DiscretizationScheme {
    /// All sampled execution times carry the same probability mass.
    EqualProbability,
    /// Sampled execution times are equally spaced on `[a, b]`.
    EqualTime,
}

impl std::fmt::Display for DiscretizationScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscretizationScheme::EqualProbability => write!(f, "Equal-probability"),
            DiscretizationScheme::EqualTime => write!(f, "Equal-time"),
        }
    }
}

impl std::str::FromStr for DiscretizationScheme {
    type Err = DistError;

    /// Parses the scheme name as it appears in CLI configs, the wire
    /// protocol and the paper's table headers. Matching is
    /// case-insensitive and treats `-`, `_` and spaces as equivalent, so
    /// `equal_time`, `Equal-time` and `EQUAL TIME` all parse.
    fn from_str(s: &str) -> Result<Self> {
        let canon: String = s
            .chars()
            .map(|c| match c {
                '-' | ' ' => '_',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        match canon.as_str() {
            "equal_time" => Ok(DiscretizationScheme::EqualTime),
            "equal_probability" => Ok(DiscretizationScheme::EqualProbability),
            _ => Err(DistError::UnknownName {
                what: "discretization scheme",
                input: s.to_string(),
                expected: "`equal_time` or `equal_probability`",
            }),
        }
    }
}

/// A finite discrete distribution `X ~ (vᵢ, fᵢ)` with strictly increasing
/// values and positive probabilities summing to 1.
///
/// Construction normalizes the weights; the pre-normalization total mass is
/// kept (discretizing an unbounded law with truncation level ε yields raw
/// mass `F(b) = 1 - ε`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscreteDistribution {
    values: Vec<f64>,
    probs: Vec<f64>,
    /// Total probability mass before normalization (≤ 1).
    raw_mass: f64,
}

impl DiscreteDistribution {
    /// Builds a discrete distribution from `(value, weight)` pairs.
    ///
    /// Values must be finite, strictly increasing and nonnegative; weights
    /// must be nonnegative with a positive, finite sum. Points whose
    /// normalized probability is 0 are dropped: zero weights, and positive
    /// weights too small against the total to survive the division.
    pub fn new(values: Vec<f64>, weights: Vec<f64>) -> Result<Self> {
        if values.len() != weights.len() {
            return Err(DistError::DegenerateSample {
                reason: "values and weights have different lengths",
            });
        }
        if values.is_empty() {
            return Err(DistError::DegenerateSample {
                reason: "empty discrete distribution",
            });
        }
        let mut prev = f64::NEG_INFINITY;
        let mut total = 0.0;
        for (&x, &w) in values.iter().zip(&weights) {
            if !x.is_finite() || x < 0.0 {
                return Err(DistError::InvalidParameter {
                    name: "value",
                    value: x,
                    requirement: "must be finite and nonnegative",
                });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(DistError::InvalidParameter {
                    name: "weight",
                    value: w,
                    requirement: "must be finite and nonnegative",
                });
            }
            if x <= prev {
                return Err(DistError::InvalidParameter {
                    name: "value",
                    value: x,
                    requirement: "values must be strictly increasing",
                });
            }
            prev = x;
            total += w;
        }
        if total <= 0.0 {
            return Err(DistError::DegenerateSample {
                reason: "all weights are zero",
            });
        }
        if total == f64::INFINITY {
            return Err(DistError::DegenerateSample {
                reason: "the weights sum to infinity",
            });
        }
        // The largest weight is at least `total / n`, so one point always
        // keeps a positive probability.
        let mut v = Vec::with_capacity(values.len());
        let mut p = Vec::with_capacity(values.len());
        for (&x, &w) in values.iter().zip(&weights) {
            let prob = w / total;
            if prob > 0.0 {
                v.push(x);
                p.push(prob);
            }
        }
        Ok(Self {
            values: v,
            probs: p,
            raw_mass: total,
        })
    }

    /// Number of support points `n`.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The strictly increasing execution times `v₁ < … < vₙ`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The normalized probabilities `f₁, …, fₙ` (sum to 1).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Largest support point `vₙ` (the value any optimal DP sequence ends
    /// with, cf. Theorem 5).
    pub fn max_value(&self) -> f64 {
        *self.values.last().expect("non-empty by construction")
    }

    /// Expected value `Σ fᵢ vᵢ`.
    pub fn mean(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| v * p)
            .sum()
    }

    /// Survival mass `P(X ≥ vᵢ) = Σ_{k ≥ i} f_k` for each index, plus a
    /// trailing 0 (suffix sums, used by the DP and the evaluators).
    pub fn suffix_masses(&self) -> Vec<f64> {
        let n = self.values.len();
        let mut s = vec![0.0; n + 1];
        for i in (0..n).rev() {
            s[i] = s[i + 1] + self.probs[i];
        }
        s
    }
}

/// Truncation + discretization of a continuous distribution (§4.2.1).
///
/// For unbounded supports, the upper bound is `b = Q(1 - epsilon)`; for
/// bounded supports, the distribution's own upper endpoint is used and
/// `epsilon` is ignored. `n` is the number of sampled points (the paper
/// uses `n = 1000`, `ε = 1e-7`).
pub fn discretize(
    dist: &dyn ContinuousDistribution,
    scheme: DiscretizationScheme,
    n: usize,
    epsilon: f64,
) -> Result<DiscreteDistribution> {
    if n == 0 {
        return Err(DistError::InvalidParameter {
            name: "n",
            value: 0.0,
            requirement: "must be positive",
        });
    }
    if !(0.0..1.0).contains(&epsilon) {
        return Err(DistError::InvalidParameter {
            name: "epsilon",
            value: epsilon,
            requirement: "must be in (0, 1) for unbounded supports",
        });
    }
    let support = dist.support();
    let a = support.lower();
    let (b, fb) = match support.upper() {
        Some(b) => (b, 1.0),
        None => (dist.quantile(1.0 - epsilon), 1.0 - epsilon),
    };

    let (mut values, mut weights) = (Vec::with_capacity(n), Vec::with_capacity(n));
    match scheme {
        DiscretizationScheme::EqualProbability => {
            let step = fb / n as f64;
            for i in 1..=n {
                // Clamp: i·(fb/n) can exceed fb by a rounding ulp at i = n,
                // which steep heavy-tailed quantiles amplify past b.
                let p = (i as f64 * step).min(fb);
                values.push(dist.quantile(p));
                weights.push(step);
            }
        }
        DiscretizationScheme::EqualTime => {
            let step = (b - a) / n as f64;
            let mut prev_cdf = dist.cdf(a);
            for i in 1..=n {
                let v = a + i as f64 * step;
                let c = dist.cdf(v);
                values.push(v);
                weights.push((c - prev_cdf).max(0.0));
                prev_cdf = c;
            }
        }
    }

    // Quantile plateaus can produce duplicate values (e.g. coarse grids on
    // spiky densities); merge them, keeping the combined mass.
    let mut merged_v: Vec<f64> = Vec::with_capacity(values.len());
    let mut merged_w: Vec<f64> = Vec::with_capacity(values.len());
    for (v, w) in values.into_iter().zip(weights) {
        match merged_v.last() {
            Some(&last) if v <= last + f64::EPSILON * last.abs().max(1.0) => {
                *merged_w.last_mut().expect("nonempty") += w;
            }
            _ => {
                merged_v.push(v);
                merged_w.push(w);
            }
        }
    }

    DiscreteDistribution::new(merged_v, merged_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{Exponential, Uniform};

    #[test]
    fn scheme_parses_all_spellings() {
        for s in ["equal_time", "Equal-time", "EQUAL TIME", "equal-Time"] {
            assert_eq!(
                s.parse::<DiscretizationScheme>().unwrap(),
                DiscretizationScheme::EqualTime,
                "{s}"
            );
        }
        for s in ["equal_probability", "Equal-probability"] {
            assert_eq!(
                s.parse::<DiscretizationScheme>().unwrap(),
                DiscretizationScheme::EqualProbability,
                "{s}"
            );
        }
        // Display output round-trips through the parser.
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            assert_eq!(
                scheme.to_string().parse::<DiscretizationScheme>(),
                Ok(scheme)
            );
        }
        let err = "nope".parse::<DiscretizationScheme>().unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(DiscreteDistribution::new(vec![], vec![]).is_err());
        assert!(DiscreteDistribution::new(vec![1.0, 1.0], vec![0.5, 0.5]).is_err());
        assert!(DiscreteDistribution::new(vec![2.0, 1.0], vec![0.5, 0.5]).is_err());
        assert!(DiscreteDistribution::new(vec![1.0], vec![-1.0]).is_err());
        assert!(DiscreteDistribution::new(vec![1.0], vec![0.0]).is_err());
        assert!(DiscreteDistribution::new(vec![1.0, 2.0], vec![f64::MAX, f64::MAX]).is_err());
    }

    #[test]
    fn normalizes_weights() {
        let d = DiscreteDistribution::new(vec![1.0, 2.0, 3.0], vec![1.0, 1.0, 2.0]).unwrap();
        assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-15);
        assert!((d.probs()[2] - 0.5).abs() < 1e-15);
        assert!((d.raw_mass - 4.0).abs() < 1e-15);
    }

    #[test]
    fn drops_zero_weight_points() {
        let d = DiscreteDistribution::new(vec![1.0, 2.0, 3.0], vec![0.5, 0.0, 0.5]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.values(), &[1.0, 3.0]);
    }

    #[test]
    fn drops_points_whose_probability_rounds_to_zero() {
        // 2⁻¹⁰⁷⁴ / 2 = 2⁻¹⁰⁷⁵ rounds to 0: the point carries no mass, so
        // it is not part of the support, and every suffix mass is positive.
        let d = DiscreteDistribution::new(vec![1.0, 2.0], vec![2.0, f64::from_bits(1)]).unwrap();
        assert_eq!(d.values(), &[1.0]);
        assert_eq!(d.probs(), &[1.0]);
        assert_eq!(d.raw_mass, 2.0);
        assert_eq!(d.suffix_masses(), vec![1.0, 0.0]);
    }

    #[test]
    fn suffix_masses_are_survival() {
        let d = DiscreteDistribution::new(vec![1.0, 2.0, 3.0], vec![0.2, 0.3, 0.5]).unwrap();
        let s = d.suffix_masses();
        assert!((s[0] - 1.0).abs() < 1e-15);
        assert!((s[1] - 0.8).abs() < 1e-15);
        assert!((s[2] - 0.5).abs() < 1e-15);
        assert_eq!(s[3], 0.0);
    }

    #[test]
    fn equal_probability_on_uniform() {
        let u = Uniform::new(10.0, 20.0).unwrap();
        let d = discretize(&u, DiscretizationScheme::EqualProbability, 10, 1e-7).unwrap();
        assert_eq!(d.len(), 10);
        // vᵢ = Q(i/10) = 10 + i; all masses 1/10.
        for (i, (&v, &p)) in d.values().iter().zip(d.probs()).enumerate() {
            assert!((v - (11.0 + i as f64)).abs() < 1e-12, "v[{i}]={v}");
            assert!((p - 0.1).abs() < 1e-12);
        }
        assert_eq!(d.max_value(), 20.0);
    }

    #[test]
    fn equal_time_on_uniform_matches_equal_probability() {
        let u = Uniform::new(10.0, 20.0).unwrap();
        let a = discretize(&u, DiscretizationScheme::EqualTime, 25, 1e-7).unwrap();
        let b = discretize(&u, DiscretizationScheme::EqualProbability, 25, 1e-7).unwrap();
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn equal_time_masses_sum_to_truncated_mass() {
        let e = Exponential::new(1.0).unwrap();
        let d = discretize(&e, DiscretizationScheme::EqualTime, 100, 1e-7).unwrap();
        // Raw mass should be F(b) = 1 - ε.
        assert!((d.raw_mass - (1.0 - 1e-7)).abs() < 1e-9);
        // Normalized probabilities sum to 1.
        assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_upper_bound_is_quantile() {
        let e = Exponential::new(1.0).unwrap();
        let d = discretize(&e, DiscretizationScheme::EqualProbability, 50, 1e-4).unwrap();
        // b = Q(1 - 1e-4) = -ln(1e-4) ≈ 9.2103.
        assert!((d.max_value() - (-(1e-4f64).ln())).abs() < 1e-6);
    }

    #[test]
    fn discrete_mean_approaches_continuous_mean() {
        let e = Exponential::new(1.0).unwrap();
        let d = discretize(&e, DiscretizationScheme::EqualProbability, 4000, 1e-9).unwrap();
        assert!((d.mean() - 1.0).abs() < 0.01, "mean {}", d.mean());
    }

    #[test]
    fn rejects_bad_epsilon() {
        let e = Exponential::new(1.0).unwrap();
        assert!(discretize(&e, DiscretizationScheme::EqualTime, 10, 0.0).is_err());
        assert!(discretize(&e, DiscretizationScheme::EqualTime, 0, 1e-7).is_err());
    }
}
