//! Property-based tests of the from-scratch special functions and the
//! discretization machinery, over randomized parameter ranges.

use proptest::prelude::*;
use rsj_dist::special::{
    beta_inc, erf, erfc, gamma_p, gamma_q, inverse_beta_inc, inverse_gamma_p, ln_gamma, norm_cdf,
    norm_quantile,
};
use rsj_dist::{discretize, ContinuousDistribution, DiscretizationScheme, GammaDist, Weibull};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Γ(x+1) = x·Γ(x) in log space.
    #[test]
    fn gamma_recurrence(x in 0.05..40.0f64) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }

    /// P(a, ·) is a CDF in x: monotone, 0 at 0, → 1.
    #[test]
    fn gamma_p_is_cdf(a in 0.1..20.0f64, x1 in 0.0..50.0f64, dx in 0.0..10.0f64) {
        let p1 = gamma_p(a, x1);
        let p2 = gamma_p(a, x1 + dx);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!(p2 >= p1 - 1e-12);
        prop_assert!((gamma_p(a, x1) + gamma_q(a, x1) - 1.0).abs() < 1e-11);
    }

    /// Incomplete-gamma inverse round-trips.
    #[test]
    fn gamma_inverse_roundtrip(a in 0.1..20.0f64, p in 0.0001..0.9999f64) {
        let x = inverse_gamma_p(a, p);
        prop_assert!(x >= 0.0);
        prop_assert!((gamma_p(a, x) - p).abs() < 1e-8, "a={a} p={p} x={x}");
    }

    /// I_x(a,b) symmetry and endpoint behaviour.
    #[test]
    fn beta_symmetry(a in 0.2..10.0f64, b in 0.2..10.0f64, x in 0.001..0.999f64) {
        let lhs = beta_inc(a, b, x);
        let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "a={a} b={b} x={x}: {lhs} vs {rhs}");
        prop_assert!((0.0..=1.0).contains(&lhs));
    }

    /// Incomplete-beta inverse round-trips away from singular corners.
    #[test]
    fn beta_inverse_roundtrip(a in 0.5..8.0f64, b in 0.5..8.0f64, p in 0.001..0.999f64) {
        let x = inverse_beta_inc(a, b, p);
        prop_assert!((0.0..=1.0).contains(&x));
        prop_assert!((beta_inc(a, b, x) - p).abs() < 1e-8, "a={a} b={b} p={p}");
    }

    /// erf is odd, bounded, and complements erfc.
    #[test]
    fn erf_identities(x in -6.0..6.0f64) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-13);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    /// Φ and Φ⁻¹ are inverse, and Φ is monotone.
    #[test]
    fn normal_roundtrip(p in 0.0001..0.9999f64, x in -5.0..5.0f64, dx in 0.0..2.0f64) {
        prop_assert!((norm_cdf(norm_quantile(p)) - p).abs() < 1e-10);
        prop_assert!(norm_cdf(x + dx) >= norm_cdf(x) - 1e-14);
    }

    /// Discretization conserves probability mass and orders values, for
    /// random Weibull shapes (including heavy tails).
    #[test]
    fn discretization_mass_and_order(
        kappa in 0.4..3.0f64,
        n in 5usize..200,
        eps_exp in 3.0..9.0f64,
    ) {
        let d = Weibull::new(1.0, kappa).unwrap();
        let eps = 10f64.powf(-eps_exp);
        for scheme in [DiscretizationScheme::EqualTime, DiscretizationScheme::EqualProbability] {
            let disc = discretize(&d, scheme, n, eps).unwrap();
            prop_assert!((disc.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for w in disc.values().windows(2) {
                prop_assert!(w[1] > w[0]);
            }
            // Every support point lies within the truncated support.
            let b = d.quantile(1.0 - eps);
            prop_assert!(disc.max_value() <= b * (1.0 + 1e-9));
        }
    }

    /// Discrete means converge toward the truncated continuous mean as n
    /// grows (coarse sanity on a Gamma family).
    #[test]
    fn discrete_mean_sane(shape in 0.5..6.0f64, rate in 0.5..4.0f64) {
        let d = GammaDist::new(shape, rate).unwrap();
        let disc = discretize(&d, DiscretizationScheme::EqualProbability, 2000, 1e-8).unwrap();
        let rel = (disc.mean() - d.mean()).abs() / d.mean();
        prop_assert!(rel < 0.05, "relative mean error {rel}");
    }
}
