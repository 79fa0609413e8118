//! Accuracy of the Beta and Gamma quantiles.
//!
//! At integer shapes both CDFs have finite forms, so
//! `data/inverse_reference.py` (standard-library Python) computes each
//! quantile correctly rounded; `data/inverse_reference.txt` is its output.
//! [`quantiles_stay_within_their_ulp_bounds`] measures `inverse_beta_inc`
//! and `inverse_gamma_p` against that table in ulps and fails if a law's
//! worst error exceeds its bound. [`sweeps_stay_within_their_ulp_bounds`]
//! runs each law's table through `quantiles` in increasing `p`, where each
//! root starts from the one before, under the same bounds.
//!
//! Non-integer shapes have no finite form. For them the grid checks run
//! over equal-probability discretizations of the benchmark pool's shape
//! ranges at n ∈ {1000, 5000}: the residual `|F(Q(p)) − p|` stays within
//! [`RESIDUAL_BOUND`] units of `ε·p` and the quantiles increase strictly in
//! `p`, one at a time and as one sweep, and the discretized support keeps
//! all n points, strictly
//! increasing, which the DP's monotone gate needs.

use rsj_dist::special::{beta_inc, gamma_p, inverse_beta_inc, inverse_gamma_p};
use rsj_dist::{discretize, BetaDist, ContinuousDistribution, DiscretizationScheme, GammaDist};

/// Each law's worst error, in ulps, over the table: the worst error of the
/// previous stopping rule, which stopped the beta loop on a step below one
/// ulp (`dx ≤ 1e-16·x`) and filed an exact hit (`err == 0`) as below the
/// root. The current rule may not exceed it, except on Beta(6, 6), whose
/// bound is one above the previous rule's 16: at p = 0.475 the current rule
/// lands 17 ulps above the root, the previous one 15. There the double
/// `I_x(6, 6)` is 1.5e-15 below p at the true root, first reaches p 11 ulps
/// above it and falls back below p at 13 and 14 ulps; at both answers it
/// is within 4e-16 of p, so both are roots of the double function.
const ULP_BOUNDS: &[(&str, u64)] = &[
    ("beta 2 2", 10),
    ("beta 2 3", 18),
    ("beta 3 5", 21),
    ("beta 5 2", 12),
    ("beta 1 4", 22),
    ("beta 6 6", 17),
    ("gamma 1", 68),
    ("gamma 2", 34),
    ("gamma 3", 39),
    ("gamma 5", 45),
    ("gamma 8", 31),
];

/// Worst residual `|F(Q(p)) − p|` on the grids, in units of `ε·p`. Both
/// stopping rules measure about 17.
const RESIDUAL_BOUND: f64 = 32.0;

/// One law of the reference table and its `(p, x)` pairs, in increasing
/// `p`, with its quantile, its double CDF and the law itself (at rate 1
/// for Gamma, so its quantiles are `inverse_gamma_p`'s).
struct Law {
    name: String,
    quantile: Box<dyn Fn(f64) -> f64>,
    cdf: Box<dyn Fn(f64) -> f64>,
    dist: Box<dyn ContinuousDistribution>,
    points: Vec<(f64, f64)>,
}

fn reference() -> Vec<Law> {
    let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex bits"));
    let mut laws: Vec<Law> = Vec::new();
    for line in include_str!("data/inverse_reference.txt").lines() {
        if line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["beta", a, b] => {
                let (a, b): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
                laws.push(Law {
                    name: line.to_string(),
                    quantile: Box::new(move |p| inverse_beta_inc(a, b, p)),
                    cdf: Box::new(move |x| beta_inc(a, b, x)),
                    dist: Box::new(BetaDist::new(a, b).unwrap()),
                    points: Vec::new(),
                });
            }
            ["gamma", a] => {
                let a: f64 = a.parse().unwrap();
                laws.push(Law {
                    name: line.to_string(),
                    quantile: Box::new(move |p| inverse_gamma_p(a, p)),
                    cdf: Box::new(move |x| gamma_p(a, x)),
                    dist: Box::new(GammaDist::new(a, 1.0).unwrap()),
                    points: Vec::new(),
                });
            }
            [p, x] => laws
                .last_mut()
                .expect("a law header precedes its points")
                .points
                .push((hex(p), hex(x))),
            _ => panic!("unreadable reference line: {line}"),
        }
    }
    for law in &mut laws {
        law.points.sort_by(|x, y| x.0.total_cmp(&y.0));
    }
    laws
}

/// The bound of the law named `name`.
fn ulp_bound(name: &str) -> u64 {
    ULP_BOUNDS
        .iter()
        .find(|(law, _)| *law == name)
        .expect("every law has a bound")
        .1
}

/// Distance in ulps between two positive doubles.
fn ulps(x: f64, y: f64) -> u64 {
    assert!(x >= 0.0 && y >= 0.0, "positive doubles: {x}, {y}");
    x.to_bits().abs_diff(y.to_bits())
}

#[test]
fn quantiles_stay_within_their_ulp_bounds() {
    let laws = reference();
    assert_eq!(laws.len(), 11, "6 Beta and 5 Gamma laws");
    let mut over = Vec::new();
    for law in &laws {
        assert_eq!(law.points.len(), 203, "{}", law.name);
        let errors: Vec<u64> = law
            .points
            .iter()
            .map(|&(p, x)| ulps((law.quantile)(p), x))
            .collect();
        let max = *errors.iter().max().unwrap();
        let mean = errors.iter().sum::<u64>() as f64 / errors.len() as f64;
        let exact = errors.iter().filter(|&&e| e == 0).count();
        println!(
            "{:<12} max {max:>4} ulp, mean {mean:>6.2} ulp, {exact:>3}/{} correctly rounded",
            law.name,
            errors.len()
        );
        let bound = ulp_bound(&law.name);
        if max > bound {
            over.push(format!("{}: max {max} ulp > bound {bound}", law.name));
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}

/// The same table through one `quantiles` sweep per law. A point above
/// its law's bound passes only if the double CDF is at least as close to
/// `p` at the returned quantile as at the correctly rounded root: both are
/// then roots of the double function. The test prints how many points
/// needed that rule.
#[test]
fn sweeps_stay_within_their_ulp_bounds() {
    let mut over = Vec::new();
    let mut rescued = 0;
    for law in reference() {
        let ps: Vec<f64> = law.points.iter().map(|&(p, _)| p).collect();
        let xs = law.dist.quantiles(&ps);
        let bound = ulp_bound(&law.name);
        let mut max = 0;
        for (&(p, exact), &x) in law.points.iter().zip(&xs) {
            let error = ulps(x, exact);
            max = max.max(error);
            if error <= bound {
                continue;
            }
            let (here, there) = (((law.cdf)(x) - p).abs(), ((law.cdf)(exact) - p).abs());
            if here <= there {
                rescued += 1;
                println!(
                    "{}: p = {p}: {error} ulp > bound {bound}, |F(x) − p| = {here:.2e} ≤ {there:.2e} at the root",
                    law.name
                );
            } else {
                over.push(format!(
                    "{}: p = {p}: {error} ulp > bound {bound}, |F(x) − p| = {here:.2e} > {there:.2e} at the root",
                    law.name
                ));
            }
        }
        println!("{:<12} sweep max {max:>4} ulp", law.name);
    }
    println!("{rescued} point(s) above their bound as close to p as the root");
    assert!(over.is_empty(), "{over:#?}");
}

/// The benchmark pool's Beta and Gamma laws: shapes spread over
/// `1.5 + 1.5·[0, 1]` (Beta) and `1.5 + 2·[0, 1]` with rates `1 + 2·[0, 1]`
/// (Gamma), at the grid's corners and interior points.
fn pool_laws() -> Vec<Box<dyn ContinuousDistribution>> {
    let steps = [0.0, 0.3, 0.7, 1.0];
    let mut laws: Vec<Box<dyn ContinuousDistribution>> = Vec::new();
    for &u in &steps {
        for &v in &steps {
            laws.push(Box::new(
                BetaDist::new(1.5 + 1.5 * u, 1.5 + 1.5 * v).unwrap(),
            ));
            laws.push(Box::new(
                GammaDist::new(1.5 + 2.0 * u, 1.0 + 2.0 * v).unwrap(),
            ));
        }
    }
    laws
}

#[test]
fn grid_quantiles_have_small_residuals_and_increase_strictly() {
    let mut worst = 0.0f64;
    for dist in pool_laws() {
        let name = dist.name();
        for n in [1000, 5000] {
            let fb = if dist.support().upper().is_some() {
                1.0
            } else {
                1.0 - 1e-7
            };
            let step = fb / n as f64;
            let ps: Vec<f64> = (1..=n).map(|i| (i as f64 * step).min(fb)).collect();
            // One quantile at a time, then as one sweep.
            let single: Vec<f64> = ps.iter().map(|&p| dist.quantile(p)).collect();
            for (path, qs) in [("quantile", single), ("quantiles", dist.quantiles(&ps))] {
                let mut prev = f64::NEG_INFINITY;
                for (&p, &q) in ps.iter().zip(&qs) {
                    assert!(q > prev, "{name} n={n} {path}: Q({p}) = {q} after {prev}");
                    prev = q;
                    let residual = (dist.cdf(q) - p).abs() / (f64::EPSILON * p);
                    assert!(
                        residual <= RESIDUAL_BOUND,
                        "{name} n={n} {path}: |F(Q({p})) − p| = {residual:.1} ε·p"
                    );
                    worst = worst.max(residual);
                }
            }
        }
    }
    println!("worst residual {worst:.2} ε·p");
}

#[test]
fn discretized_pool_supports_keep_every_point_strictly_increasing() {
    for dist in pool_laws() {
        for n in [1000, 5000] {
            let grid = discretize(
                dist.as_ref(),
                DiscretizationScheme::EqualProbability,
                n,
                1e-7,
            )
            .unwrap();
            let values = grid.values();
            assert_eq!(values.len(), n, "{} n={n}: points merged", dist.name());
            assert!(
                values.windows(2).all(|w| w[0] < w[1]),
                "{} n={n}: support not strictly increasing",
                dist.name()
            );
        }
    }
}
