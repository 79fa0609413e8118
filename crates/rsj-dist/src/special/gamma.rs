// Lanczos/Acklam-style coefficient tables keep their published full-precision digits.
#![allow(clippy::excessive_precision)]

//! Gamma function family: `ln Γ`, `Γ`, regularized incomplete gamma
//! `P(a, x)` / `Q(a, x)`, their non-regularized variants and the inverse of
//! `P(a, ·)`.
//!
//! Implemented from scratch with the classic Lanczos approximation for
//! `ln Γ` and series / continued-fraction evaluation for the incomplete
//! functions (Lentz's algorithm). Accuracy is ~1e-14 relative over the
//! parameter ranges used by the distributions in this crate.

use super::normal::norm_quantile;
use super::LastPoint;

/// Lanczos coefficients for `g = 7`, `n = 9`.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Panics
/// Panics in debug builds if `x` is not finite. Returns `f64::INFINITY` for
/// `x <= 0` at poles.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x.is_finite(), "ln_gamma: non-finite argument {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        if sin_pi_x == 0.0 {
            return f64::INFINITY; // pole at non-positive integers
        }
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    if x <= 0.0 {
        // Reflection for the (unused here) negative branch.
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        if sin_pi_x == 0.0 {
            return f64::NAN;
        }
        return std::f64::consts::PI / (sin_pi_x * gamma(1.0 - x));
    }
    ln_gamma(x).exp()
}

const MAX_ITER: usize = 400;
const EPS: f64 = 1e-16;
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Series representation of the lower regularized incomplete gamma `P(a, x)`.
/// Converges fast for `x < a + 1`. Takes `ln_x = x.ln()` and
/// `gln = ln Γ(a)` from the caller.
fn gamma_p_series(a: f64, x: f64, ln_x: f64, gln: f64) -> f64 {
    super::count_evaluation();
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * ln_x - gln).exp()
}

/// Continued-fraction representation of the upper regularized incomplete
/// gamma `Q(a, x)` (modified Lentz). Converges fast for `x >= a + 1`.
/// Takes `ln_x = x.ln()` and `gln = ln Γ(a)` from the caller.
fn gamma_q_cf(a: f64, x: f64, ln_x: f64, gln: f64) -> f64 {
    super::count_evaluation();
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() <= EPS {
            break;
        }
    }
    (-x + a * ln_x - gln).exp() * h
}

/// The regularized incomplete gamma functions of one shape `a`, with
/// `ln Γ(a)` computed once at construction.
///
/// [`gamma_p`], [`gamma_q`], [`upper_incomplete_gamma`] and
/// [`inverse_gamma_p`] build one of these per call; a distribution that
/// evaluates many points of the same shape (`GammaDist`) keeps one
/// instead. Either way the arithmetic, and so every bit of the result, is
/// the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IncGamma {
    a: f64,
    /// `ln Γ(a)`.
    gln: f64,
}

impl IncGamma {
    /// The incomplete gamma functions of shape `a > 0` (checked by the
    /// callers: the free functions and `GammaDist::new`).
    pub(crate) fn new(a: f64) -> Self {
        debug_assert!(a > 0.0, "IncGamma: a must be positive, got {a}");
        Self {
            a,
            gln: ln_gamma(a),
        }
    }

    /// `ln Γ(a)`, as [`ln_gamma`] returns it.
    pub(crate) fn ln_gamma_a(&self) -> f64 {
        self.gln
    }

    /// `P(a, x)` given `ln_x = x.ln()`, so a caller that also needs the
    /// density at `x` takes the logarithm once.
    fn p_ln(&self, x: f64, ln_x: f64) -> f64 {
        if x == 0.0 {
            return 0.0;
        }
        if x < self.a + 1.0 {
            gamma_p_series(self.a, x, ln_x, self.gln)
        } else {
            1.0 - gamma_q_cf(self.a, x, ln_x, self.gln)
        }
    }

    /// Lower regularized incomplete gamma `P(a, x)` for `x >= 0`.
    ///
    /// # Panics
    /// Panics if `x` is negative (or NaN).
    pub(crate) fn p(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "gamma_p: x must be non-negative, got {x}");
        self.p_ln(x, x.ln())
    }

    /// Upper regularized incomplete gamma `Q(a, x) = 1 - P(a, x)` for
    /// `x >= 0`, computed without cancellation in the upper tail.
    ///
    /// # Panics
    /// Panics if `x` is negative (or NaN).
    pub(crate) fn q(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "gamma_q: x must be non-negative, got {x}");
        if x == 0.0 {
            return 1.0;
        }
        let ln_x = x.ln();
        if x < self.a + 1.0 {
            1.0 - gamma_p_series(self.a, x, ln_x, self.gln)
        } else {
            gamma_q_cf(self.a, x, ln_x, self.gln)
        }
    }

    /// Non-regularized upper incomplete gamma `Γ(a, x) = Q(a, x) · Γ(a)`.
    pub(crate) fn upper(&self, x: f64) -> f64 {
        self.q(x) * self.gln.exp()
    }

    /// Inverse of `P(a, ·)`: the `x` with `P(a, x) = p`, for
    /// `p ∈ [0, 1]`, as a one-point sweep.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub(crate) fn inverse_p(&self, p: f64) -> f64 {
        self.solve(p, None).0
    }

    /// [`inverse_p`](Self::inverse_p) at each `p` of a sweep: in a
    /// nondecreasing sweep each root starts from the point its predecessor
    /// evaluated last (see [`super::sweep`]).
    ///
    /// # Panics
    /// Panics if a `p` is outside `[0, 1]`.
    pub(crate) fn inverses_p(&self, ps: &[f64]) -> Vec<f64> {
        super::sweep(ps, |p, from| self.solve(p, from))
    }

    /// `ln x₀` for the leading series term at 0, `P(a, x) ≈ x^a/(a·Γ(a))`.
    fn ln_series_start(&self, p: f64) -> f64 {
        (p.ln() + self.a.ln() + self.gln) / self.a
    }

    /// The initial guess for the root of `P(a, x) = p`: Wilson–Hilferty
    /// for `a > 1`, a two-piece low-`a` approximation otherwise.
    fn cold_start(&self, p: f64) -> f64 {
        let a = self.a;
        let x = if a > 1.0 {
            let z = norm_quantile(p);
            let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
            if t > 0.0 {
                a * t * t * t
            } else {
                // Deep lower tail where Wilson–Hilferty breaks down: the
                // leading series term.
                self.ln_series_start(p).exp()
            }
        } else {
            let t = 1.0 - a * (0.253 + a * 0.12);
            if p < t {
                (p / t).powf(1.0 / a)
            } else {
                1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
            }
        };
        if !x.is_finite() || x <= 0.0 {
            a // always a valid interior point
        } else {
            x
        }
    }

    /// The root of `P(a, x) = p` and the last point its loop evaluated.
    /// It starts from the Taylor step off `from` when that lands in
    /// (0, ∞); cold, from the series' leading term in the deep lower tail
    /// (0 when the root underflows) and from [`cold_start`](Self::cold_start)
    /// otherwise. Each Newton step takes `ln x` once, for both `P` and the
    /// density.
    fn solve(&self, p: f64, from: Option<LastPoint>) -> (f64, Option<LastPoint>) {
        assert!(
            (0.0..=1.0).contains(&p),
            "inverse_gamma_p: p must be in [0, 1], got {p}"
        );
        if p == 0.0 {
            return (0.0, None);
        }
        if p == 1.0 {
            return (f64::INFINITY, None);
        }
        let (a1, gln) = (self.a - 1.0, self.gln);
        // f′/f = (a − 1)/x − 1 and its two derivatives.
        let warm = from
            .and_then(|last| {
                let u = 1.0 / last.x;
                last.taylor_start(p, [a1 * u - 1.0, -a1 * u * u, 2.0 * a1 * u * u * u])
            })
            .filter(|&x| x > 0.0 && x < f64::INFINITY);
        let mut x = match warm {
            Some(x) => x,
            None => {
                let deep = super::deep_tail_start(self.ln_series_start(p));
                let x = deep.unwrap_or_else(|| self.cold_start(p));
                if x == 0.0 {
                    return (0.0, None);
                }
                x
            }
        };

        // Bracketed Newton on (0, ∞): a step that leaves the bracket
        // bisects it once `hi` is finite and doubles `x` before, as does
        // an underflowed density. It stops on an exact hit, on a Newton
        // step of at most 1e-15 relative (taken only when it lands strictly
        // inside the bracket), or once another step moves `x` by at most
        // that or a finite bracket collapses.
        let mut lo = 0.0;
        let mut hi = f64::INFINITY;
        let mut last = None;
        let tolerance = |x: f64| 1e-15 * x.abs().max(1e-300);
        for _ in 0..200 {
            let ln_x = x.ln();
            let value = self.p_ln(x, ln_x);
            let pdf = (-x + a1 * ln_x - gln).exp();
            last = Some(LastPoint { x, value, pdf });
            let err = value - p;
            if err == 0.0 {
                break;
            }
            if err > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            let newton = if pdf > 0.0 { x - err / pdf } else { f64::NAN };
            if newton.is_finite() && (newton - x).abs() <= tolerance(newton) {
                if newton > lo && newton < hi {
                    x = newton;
                }
                break;
            }
            let xn = if !newton.is_finite() || newton <= lo || newton >= hi {
                if hi < f64::INFINITY {
                    0.5 * (lo + hi)
                } else {
                    2.0 * x
                }
            } else {
                newton
            };
            let dx = (xn - x).abs();
            x = xn;
            if dx <= tolerance(x) || (hi < f64::INFINITY && hi - lo <= 1e-15 * hi) {
                break;
            }
        }
        (x, last)
    }
}

/// Lower regularized incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)` for `a > 0`, `x >= 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p: a must be positive, got {a}");
    IncGamma::new(a).p(x)
}

/// Upper regularized incomplete gamma function
/// `Q(a, x) = Γ(a, x) / Γ(a) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q: a must be positive, got {a}");
    IncGamma::new(a).q(x)
}

/// Non-regularized upper incomplete gamma `Γ(a, x)`.
///
/// This is the form used by the Mean-by-Mean recurrences of Appendix B
/// (Weibull and Gamma distributions).
pub fn upper_incomplete_gamma(a: f64, x: f64) -> f64 {
    assert!(
        a > 0.0,
        "upper_incomplete_gamma: a must be positive, got {a}"
    );
    IncGamma::new(a).upper(x)
}

/// Inverse of the lower regularized incomplete gamma: returns `x` such that
/// `P(a, x) = p`.
///
/// Initial guess follows Numerical-Recipes (`invgammp`): Wilson–Hilferty for
/// `a > 1`, a two-piece low-`a` approximation otherwise, refined by a
/// safeguarded Newton iteration on `P(a, ·)`.
pub fn inverse_gamma_p(a: f64, p: f64) -> f64 {
    assert!(a > 0.0, "inverse_gamma_p: a must be positive, got {a}");
    IncGamma::new(a).inverse_p(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64, msg: &str) {
        let denom = b.abs().max(1.0);
        assert!(
            (a - b).abs() / denom < tol,
            "{msg}: got {a}, expected {b} (rel err {})",
            (a - b).abs() / denom
        );
    }

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        let facts: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            assert_close(
                ln_gamma((n + 1) as f64),
                f.ln(),
                1e-13,
                &format!("ln_gamma({})", n + 1),
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        assert_close(
            ln_gamma(0.5),
            0.5 * std::f64::consts::PI.ln(),
            1e-13,
            "ln_gamma(0.5)",
        );
        // Γ(3/2) = sqrt(π)/2
        assert_close(
            gamma(1.5),
            std::f64::consts::PI.sqrt() / 2.0,
            1e-13,
            "gamma(1.5)",
        );
    }

    #[test]
    fn ln_gamma_reflection_small() {
        // Γ(0.25) ≈ 3.6256099082219083119
        assert_close(gamma(0.25), 3.625_609_908_221_908_3, 1e-12, "gamma(0.25)");
        // Γ(0.1) ≈ 9.513507698668731836
        assert_close(gamma(0.1), 9.513_507_698_668_731_8, 1e-12, "gamma(0.1)");
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13, "P(1,x)");
        }
        // P(0.5, x) = erf(sqrt(x)); spot value: erf(1) = 0.8427007929497149
        assert_close(
            gamma_p(0.5, 1.0),
            0.842_700_792_949_714_9,
            1e-12,
            "P(0.5,1)",
        );
    }

    #[test]
    fn gamma_q_complements_p() {
        for &a in &[0.3, 0.5, 1.0, 2.0, 3.7, 10.0] {
            for &x in &[0.01, 0.3, 1.0, 2.5, 8.0, 30.0] {
                let p = gamma_p(a, x);
                let q = gamma_q(a, x);
                assert_close(p + q, 1.0, 1e-12, &format!("P+Q at a={a}, x={x}"));
            }
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let a = 2.0;
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = gamma_p(a, x);
            assert!(p >= prev, "P(a,·) must be nondecreasing");
            prev = p;
        }
    }

    #[test]
    fn inverse_gamma_p_round_trip() {
        for &a in &[0.4, 0.5, 1.0, 2.0, 3.0, 7.5, 20.0] {
            for &p in &[1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-7] {
                let x = inverse_gamma_p(a, p);
                let back = gamma_p(a, x);
                assert_close(back, p, 1e-9, &format!("roundtrip a={a}, p={p}"));
            }
        }
    }

    #[test]
    fn inverse_gamma_p_edges() {
        assert_eq!(inverse_gamma_p(2.0, 0.0), 0.0);
        assert!(inverse_gamma_p(2.0, 1.0).is_infinite());
    }

    /// A single quantile deep in the lower tail is the root, with
    /// `|P − p| ≤ 1e-12·p`, or 0 exactly when the root lies below the
    /// smallest subnormal.
    #[test]
    fn deep_lower_tail_quantiles_are_the_root_or_zero() {
        let cases = [
            (0.02, 1e-9),
            (0.3, 1e-200),
            (0.02, 5.6e-7),
            (2.0, 1e-300),
            (5.0, 1e-300),
        ];
        for (a, p) in cases {
            let x = inverse_gamma_p(a, p);
            let underflows = gamma_p(a, f64::from_bits(1)) > p;
            assert_eq!(x == 0.0, underflows, "Gamma({a}): Q({p:e}) = {x:e}");
            let residual = (gamma_p(a, x) - p).abs();
            assert!(
                underflows || residual <= 1e-12 * p,
                "Gamma({a}): Q({p:e}) = {x:e}, |P − p| = {residual:.3e}"
            );
        }
    }

    /// About 10% above the measured counts of the sweep `discretize` runs
    /// at n = 1000 (2,057 and 2,156 evaluations: 2.1 and 2.2 per point) and
    /// n = 5000 (6,143 and 6,854: 1.23 and 1.37 per point).
    #[test]
    fn equal_probability_grids_take_few_newton_steps() {
        let grids = [
            (2.0, 2.0, 1000, 2_260),
            (0.6, 1.0, 1000, 2_370),
            (2.0, 2.0, 5000, 6_760),
            (0.6, 1.0, 5000, 7_540),
        ];
        for (shape, rate, n, bound) in grids {
            let dist = crate::GammaDist::new(shape, rate).unwrap();
            let evals = super::super::grid_evaluations(&dist, n);
            assert!(
                evals <= bound,
                "Gamma({shape}, {rate}): {evals} evaluations over {n} points, bound {bound}"
            );
        }
    }

    #[test]
    fn upper_incomplete_gamma_at_zero_is_gamma() {
        for &a in &[0.5, 1.0, 2.5, 4.0] {
            assert_close(
                upper_incomplete_gamma(a, 0.0),
                gamma(a),
                1e-12,
                "Γ(a,0) = Γ(a)",
            );
        }
    }

    #[test]
    fn cross_validate_against_statrs() {
        use statrs::function::gamma as sg;
        for &a in &[0.25, 0.5, 1.0, 2.0, 5.0, 12.0] {
            assert_close(ln_gamma(a), sg::ln_gamma(a), 1e-12, "ln_gamma vs statrs");
            for &x in &[0.05, 0.5, 1.5, 4.0, 20.0] {
                assert_close(
                    gamma_p(a, x),
                    sg::gamma_lr(a, x),
                    1e-10,
                    &format!("P({a},{x}) vs statrs"),
                );
            }
        }
    }
}
