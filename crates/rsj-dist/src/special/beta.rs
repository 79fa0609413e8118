//! Beta function family: `B(a, b)`, the regularized incomplete beta
//! `I_x(a, b)`, its non-regularized variant `B(x; a, b)` and the inverse of
//! `I_·(a, b)`.
//!
//! Continued-fraction evaluation follows the classic Numerical-Recipes
//! `betacf` scheme (modified Lentz); the inverse uses a Newton iteration
//! seeded by the Abramowitz & Stegun 26.5.22 approximation.

use super::gamma::ln_gamma;
use super::LastPoint;

/// Natural log of the complete beta function `ln B(a, b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "ln_beta: parameters must be positive");
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// The complete beta function `B(a, b) = Γ(a)Γ(b)/Γ(a+b)`.
pub fn beta(a: f64, b: f64) -> f64 {
    ln_beta(a, b).exp()
}

const MAX_ITER: usize = 300;
const EPS: f64 = 1e-16;
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Continued fraction for the incomplete beta function (Lentz's method).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    super::count_evaluation();
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
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
    h
}

/// The regularized incomplete beta function of one shape pair `(a, b)`,
/// with its `ln Γ` constants computed once at construction.
///
/// [`beta_inc`], [`beta_inc_unreg`] and [`inverse_beta_inc`] build one of
/// these per call; a distribution that evaluates many points of the same
/// shape (`BetaDist`) keeps one instead. Either way the arithmetic, and
/// so every bit of the result, is the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IncBeta {
    a: f64,
    b: f64,
    /// `ln Γ(a+b) − ln Γ(a) − ln Γ(b)`, the log of the `I_x` prefactor's
    /// constant, summed in that order.
    lg: f64,
    /// `ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b)`, summed in that order
    /// (the same three terms as `lg`, rounded differently).
    ln_b: f64,
}

impl IncBeta {
    /// The incomplete beta function of shapes `a, b > 0` (checked by the
    /// callers: the free functions and `BetaDist::new`).
    pub(crate) fn new(a: f64, b: f64) -> Self {
        debug_assert!(a > 0.0 && b > 0.0, "IncBeta: parameters must be positive");
        // Each `ln Γ` once; both sums below read them.
        let (lga, lgb, lgab) = (ln_gamma(a), ln_gamma(b), ln_gamma(a + b));
        Self {
            a,
            b,
            lg: lgab - lga - lgb,
            ln_b: lga + lgb - lgab,
        }
    }

    /// `ln B(a, b)`, as [`ln_beta`] returns it.
    pub fn ln_beta(&self) -> f64 {
        self.ln_b
    }

    /// `I_x(a, b)` given `ln_x = x.ln()` and `ln_1mx = (1 − x).ln()`, so
    /// a caller that also needs the density at `x` takes them once.
    fn regularized_ln(&self, x: f64, ln_x: f64, ln_1mx: f64) -> f64 {
        if x == 0.0 {
            return 0.0;
        }
        if x == 1.0 {
            return 1.0;
        }
        let (a, b) = (self.a, self.b);
        let bt = (self.lg + a * ln_x + b * ln_1mx).exp();
        if x < (a + 1.0) / (a + b + 2.0) {
            bt * betacf(a, b, x) / a
        } else {
            1.0 - bt * betacf(b, a, 1.0 - x) / b
        }
    }

    /// Regularized incomplete beta `I_x(a, b)` for `x ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `x` is outside `[0, 1]`.
    pub(crate) fn regularized(&self, x: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&x),
            "beta_inc: x must be in [0, 1], got {x}"
        );
        self.regularized_ln(x, x.ln(), (1.0 - x).ln())
    }

    /// Non-regularized incomplete beta `B(x; a, b) = I_x(a, b) · B(a, b)`.
    pub(crate) fn unregularized(&self, x: f64) -> f64 {
        self.regularized(x) * self.ln_b.exp()
    }

    /// Inverse of `I_·(a, b)`: the `x` with `I_x(a, b) = p`, for
    /// `p ∈ [0, 1]`, as a one-point sweep.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub(crate) fn inverse(&self, p: f64) -> f64 {
        self.solve(p, None).0
    }

    /// [`inverse`](Self::inverse) at each `p` of a sweep: in a
    /// nondecreasing sweep each root starts from the point its predecessor
    /// evaluated last (see [`super::sweep`]).
    ///
    /// # Panics
    /// Panics if a `p` is outside `[0, 1]`.
    pub(crate) fn inverses(&self, ps: &[f64]) -> Vec<f64> {
        super::sweep(ps, |p, from| self.solve(p, from))
    }

    /// The A&S 26.5.22 initial guess for the root of `I_x(a, b) = p`, or
    /// ½ when it falls outside (0, 1).
    fn cold_start(&self, p: f64) -> f64 {
        let (a, b) = (self.a, self.b);
        let x = if a >= 1.0 && b >= 1.0 {
            let pp = if p < 0.5 { p } else { 1.0 - p };
            let t = (-2.0 * pp.ln()).sqrt();
            let mut w = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
            if p < 0.5 {
                w = -w;
            }
            let al = (w * w - 3.0) / 6.0;
            let h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0));
            let ww = w * (al + h).sqrt() / h
                - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
                    * (al + 5.0 / 6.0 - 2.0 / (3.0 * h));
            a / (a + b * (2.0 * ww).exp())
        } else {
            let lna = (a / (a + b)).ln();
            let lnb = (b / (a + b)).ln();
            let t = (a * lna).exp() / a;
            let u = (b * lnb).exp() / b;
            let w = t + u;
            if p < t / w {
                (a * w * p).powf(1.0 / a)
            } else {
                1.0 - (b * w * (1.0 - p)).powf(1.0 / b)
            }
        };
        if x.is_finite() && x > 0.0 && x < 1.0 {
            x
        } else {
            0.5
        }
    }

    /// The root of `I_x(a, b) = p` and the last point its loop evaluated.
    /// It starts from the Taylor step off `from` when that lands inside
    /// (0, 1); cold, from the series' leading term in the deep lower tail
    /// (0 when the root underflows) and from the A&S guess otherwise. Each
    /// Newton step takes `ln x` and `ln(1 − x)` once, for both `I_x` and
    /// the density.
    fn solve(&self, p: f64, from: Option<LastPoint>) -> (f64, Option<LastPoint>) {
        assert!(
            (0.0..=1.0).contains(&p),
            "inverse_beta_inc: p must be in [0, 1], got {p}"
        );
        if p == 0.0 {
            return (0.0, None);
        }
        if p == 1.0 {
            return (1.0, None);
        }
        let afac = -self.ln_b;
        let a1 = self.a - 1.0;
        let b1 = self.b - 1.0;
        // f′/f = (a − 1)/x − (b − 1)/(1 − x) and its two derivatives.
        let warm = from
            .and_then(|last| {
                let (u, v) = (1.0 / last.x, 1.0 / (1.0 - last.x));
                last.taylor_start(
                    p,
                    [
                        a1 * u - b1 * v,
                        -a1 * u * u - b1 * v * v,
                        2.0 * (a1 * u * u * u - b1 * v * v * v),
                    ],
                )
            })
            .filter(|&x| x > 0.0 && x < 1.0);
        let mut x = match warm {
            Some(x) => x,
            None => {
                // I_x ≈ x^a/(a·B(a, b)).
                let deep = super::deep_tail_start((p.ln() + self.a.ln() + self.ln_b) / self.a);
                let x = deep.unwrap_or_else(|| self.cold_start(p));
                if x == 0.0 {
                    return (0.0, None);
                }
                x
            }
        };

        // Bracketed Newton on (0, 1): bisection whenever the Newton step
        // leaves the bracket or the density degenerates. It stops on an
        // exact hit, on a Newton step of at most 2 ulp (taken only when it
        // lands strictly inside the bracket), or once a bisection moves `x`
        // by at most 2 ulp or the bracket collapses.
        let mut lo = 0.0;
        let mut hi = 1.0;
        let mut last = None;
        let tolerance = |x: f64| 2.0 * f64::EPSILON * x.max(1e-300);
        for _ in 0..200 {
            let ln_x = x.ln();
            let ln_1mx = (1.0 - x).ln();
            let value = self.regularized_ln(x, ln_x, ln_1mx);
            let pdf = (a1 * ln_x + b1 * ln_1mx + afac).exp();
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
            let newton = if pdf > 0.0 && pdf.is_finite() {
                x - err / pdf
            } else {
                f64::NAN
            };
            if newton.is_finite() && (newton - x).abs() <= tolerance(newton) {
                if newton > lo && newton < hi {
                    x = newton;
                }
                break;
            }
            let xn = if !newton.is_finite() || newton <= lo || newton >= hi {
                0.5 * (lo + hi)
            } else {
                newton
            };
            let dx = (xn - x).abs();
            x = xn;
            if dx <= tolerance(x) || hi - lo <= f64::EPSILON * hi {
                break;
            }
        }
        (x, last)
    }
}

/// Regularized incomplete beta function `I_x(a, b)` for `x ∈ [0, 1]`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc: parameters must be positive");
    IncBeta::new(a, b).regularized(x)
}

/// Non-regularized incomplete beta `B(x; a, b) = I_x(a, b) · B(a, b)`,
/// the paper's Appendix A notation.
pub fn beta_inc_unreg(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "beta_inc_unreg: parameters must be positive"
    );
    IncBeta::new(a, b).unregularized(x)
}

/// Inverse of the regularized incomplete beta: returns `x` with
/// `I_x(a, b) = p`.
pub fn inverse_beta_inc(a: f64, b: f64, p: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "inverse_beta_inc: parameters must be positive"
    );
    IncBeta::new(a, b).inverse(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64, msg: &str) {
        assert!(
            (a - b).abs() < tol * b.abs().max(1.0),
            "{msg}: got {a}, expected {b}"
        );
    }

    #[test]
    fn complete_beta_known() {
        // B(1,1) = 1, B(2,2) = 1/6, B(0.5,0.5) = π
        assert_close(beta(1.0, 1.0), 1.0, 1e-13, "B(1,1)");
        assert_close(beta(2.0, 2.0), 1.0 / 6.0, 1e-13, "B(2,2)");
        assert_close(beta(0.5, 0.5), std::f64::consts::PI, 1e-13, "B(.5,.5)");
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1, 1) = x (uniform CDF)
        for &x in &[0.0, 0.2, 0.5, 0.77, 1.0] {
            assert_close(beta_inc(1.0, 1.0, x), x, 1e-13, &format!("I_x(1,1), x={x}"));
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a)
        for &(a, b) in &[(2.0, 3.0), (0.5, 1.5), (4.0, 4.0)] {
            for &x in &[0.1, 0.35, 0.6, 0.9] {
                assert_close(
                    beta_inc(a, b, x),
                    1.0 - beta_inc(b, a, 1.0 - x),
                    1e-12,
                    &format!("symmetry a={a} b={b} x={x}"),
                );
            }
        }
    }

    #[test]
    fn beta22_closed_form() {
        // For Beta(2,2): I_x(2,2) = 3x² - 2x³.
        for &x in &[0.1, 0.3, 0.5, 0.8] {
            assert_close(
                beta_inc(2.0, 2.0, x),
                3.0 * x * x - 2.0 * x * x * x,
                1e-13,
                &format!("I_x(2,2), x={x}"),
            );
        }
    }

    #[test]
    fn inverse_round_trip() {
        for &(a, b) in &[(2.0, 2.0), (0.7, 1.3), (5.0, 2.0), (0.4, 0.4)] {
            for &p in &[0.05, 0.3, 0.5, 0.8, 0.99] {
                let x = inverse_beta_inc(a, b, p);
                assert_close(
                    beta_inc(a, b, x),
                    p,
                    1e-9,
                    &format!("roundtrip a={a} b={b} p={p}"),
                );
            }
        }
    }

    #[test]
    fn inverse_round_trip_extreme_tails() {
        // When a shape parameter is < 1, quantiles at p within ~1e-7 of an
        // endpoint can fall within one ulp of that endpoint; the round-trip
        // is then only achievable to the representable resolution of I_x.
        for &(a, b) in &[(2.0, 2.0), (0.7, 1.3), (5.0, 2.0), (0.4, 0.4)] {
            for &p in &[1e-6, 1.0 - 1e-7] {
                let x = inverse_beta_inc(a, b, p);
                assert!((0.0..=1.0).contains(&x));
                let next = if x < 0.5 {
                    // resolution of I at x, measured one ulp away
                    beta_inc(a, b, (x + f64::EPSILON * x.max(1e-300)).min(1.0))
                } else {
                    beta_inc(a, b, (x - f64::EPSILON * x).max(0.0))
                };
                let resolution = (beta_inc(a, b, x) - next).abs().max(1e-12);
                assert!(
                    (beta_inc(a, b, x) - p).abs() <= 4.0 * resolution,
                    "a={a} b={b} p={p}: I(x)={}, resolution {resolution}",
                    beta_inc(a, b, x)
                );
            }
        }
    }

    /// A single quantile deep in the lower tail is the root, with
    /// `|I_x − p| ≤ 1e-12·p`, or 0 exactly when the root lies below the
    /// smallest subnormal.
    #[test]
    fn deep_lower_tail_quantiles_are_the_root_or_zero() {
        let cases = [
            (5.0, 1.0, 1e-300),
            (5.0, 1.2, 1e-200),
            (2.0, 2.0, 1e-300),
            (0.02, 0.5, 1e-9),
            (0.3, 2.0, 1e-200),
        ];
        for (a, b, p) in cases {
            let x = inverse_beta_inc(a, b, p);
            let underflows = beta_inc(a, b, f64::from_bits(1)) > p;
            assert_eq!(x == 0.0, underflows, "Beta({a}, {b}): Q({p:e}) = {x:e}");
            let residual = (beta_inc(a, b, x) - p).abs();
            assert!(
                underflows || residual <= 1e-12 * p,
                "Beta({a}, {b}): Q({p:e}) = {x:e}, |I_x − p| = {residual:.3e}"
            );
        }
    }

    /// About 10% above the measured counts of the sweep `discretize` runs
    /// at n = 1000 (2,080, 2,285 and 1,968 evaluations: 2.1, 2.3 and 2.0
    /// per point) and n = 5000 (6,260, 7,211 and 5,939: 1.25, 1.44 and
    /// 1.19 per point).
    #[test]
    fn equal_probability_grids_take_few_newton_steps() {
        let grids = [
            (2.0, 2.0, 1000, 2_290),
            (2.3, 2.9, 1000, 2_510),
            (5.0, 1.2, 1000, 2_160),
            (2.0, 2.0, 5000, 6_890),
            (2.3, 2.9, 5000, 7_930),
            (5.0, 1.2, 5000, 6_530),
        ];
        for (a, b, n, bound) in grids {
            let evals = super::super::grid_evaluations(&crate::BetaDist::new(a, b).unwrap(), n);
            assert!(
                evals <= bound,
                "Beta({a}, {b}): {evals} evaluations over {n} points, bound {bound}"
            );
        }
    }

    #[test]
    fn cross_validate_against_statrs() {
        use statrs::function::beta as sb;
        for &(a, b) in &[(2.0, 2.0), (1.5, 0.5), (3.0, 7.0)] {
            assert_close(ln_beta(a, b), sb::ln_beta(a, b), 1e-12, "ln_beta vs statrs");
            for &x in &[0.1, 0.5, 0.9] {
                assert_close(
                    beta_inc(a, b, x),
                    sb::beta_reg(a, b, x),
                    1e-11,
                    &format!("I_x({a},{b}) vs statrs"),
                );
            }
        }
    }
}
