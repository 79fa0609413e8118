//! Theory-level integration tests: the paper's analytic results hold
//! across the crate boundaries (exact solutions vs heuristics vs
//! evaluators).

use reservation_strategies::prelude::*;
use rsj_core::exact::{exp_optimal_cost, exp_optimal_s1};
use rsj_core::exact::{uniform_optimal_cost, uniform_optimal_sequence};
use rsj_core::{expected_cost_analytic, normalized_cost_analytic};
use rsj_dist::{Exponential, Uniform};

/// Theorem 4 + Table 2: every heuristic on Uniform(10, 20) is bounded
/// below by the single-reservation optimum, which Brute-Force and the DP
/// heuristics attain exactly.
#[test]
fn uniform_optimum_attained_by_structured_heuristics() {
    let d = Uniform::new(10.0, 20.0).unwrap();
    let c = CostModel::reservation_only();
    let optimal = uniform_optimal_cost(&d, &c);
    assert_eq!(uniform_optimal_sequence(&d).unwrap().times(), &[20.0]);

    let structured: Vec<Box<dyn Strategy>> = vec![
        Box::new(BruteForce::new(500, 500, EvalMethod::Analytic, 1).unwrap()),
        Box::new(DiscretizedDp::new(DiscretizationScheme::EqualTime, 200, 1e-7).unwrap()),
        Box::new(DiscretizedDp::new(DiscretizationScheme::EqualProbability, 200, 1e-7).unwrap()),
    ];
    for h in &structured {
        let seq = h.sequence(&d, &c).unwrap();
        let e = expected_cost_analytic(&seq, &d, &c);
        assert!((e - optimal).abs() < 1e-6, "{}: {e} vs {optimal}", h.name());
    }

    let simple: Vec<Box<dyn Strategy>> = vec![
        Box::new(MeanByMean::default()),
        Box::new(MeanStdev::default()),
        Box::new(MeanDoubling::default()),
        Box::new(MedianByMedian::default()),
    ];
    for h in &simple {
        let seq = h.sequence(&d, &c).unwrap();
        let e = expected_cost_analytic(&seq, &d, &c);
        assert!(e > optimal, "{} cannot beat Theorem 4", h.name());
    }
}

/// §3.5: the scale-free exponential optimum is matched by Brute-Force and
/// approached by the DP heuristic.
#[test]
fn exponential_optimum_cross_check() {
    let c = CostModel::reservation_only();
    for lambda in [0.5, 1.0, 2.0] {
        let d = Exponential::new(lambda).unwrap();
        let closed = exp_optimal_cost(lambda);
        // Brute-Force (analytic scoring) gets within a few percent.
        let bf = BruteForce::new(1500, 1000, EvalMethod::Analytic, 2).unwrap();
        let r = bf.best(&d, &c).unwrap();
        assert!(
            (r.expected_cost - closed).abs() / closed < 0.05,
            "λ={lambda}: bf {} vs closed {closed}",
            r.expected_cost
        );
        // DP heuristic likewise.
        let dp = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 800, 1e-7).unwrap();
        let seq = dp.sequence(&d, &c).unwrap();
        let e = expected_cost_analytic(&seq, &d, &c);
        assert!(
            (e - closed).abs() / closed < 0.05,
            "λ={lambda}: dp {e} vs closed {closed}"
        );
    }
}

/// Proposition 2's scale law: normalized costs are λ-invariant.
#[test]
fn exponential_normalized_cost_is_scale_free() {
    let c = CostModel::reservation_only();
    let s1 = exp_optimal_s1();
    let mut ratios = Vec::new();
    for lambda in [0.25, 1.0, 4.0] {
        let d = Exponential::new(lambda).unwrap();
        let seq =
            rsj_core::sequence_from_t1(&d, &c, s1 / lambda, &rsj_core::RecurrenceConfig::default())
                .unwrap();
        ratios.push(normalized_cost_analytic(&seq, &d, &c));
    }
    for w in ratios.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-6,
            "normalized costs must match: {ratios:?}"
        );
    }
}

/// Theorem 2: every heuristic's expected cost respects the A₂ bound.
#[test]
fn theorem2_bound_holds_for_all_heuristics() {
    let c = CostModel::new(1.0, 0.5, 0.25).unwrap();
    for (name, spec) in rsj_dist::DistSpec::paper_table1() {
        let dist = spec.build().unwrap();
        if dist.support().is_bounded() {
            continue; // Theorem 2 targets unbounded supports
        }
        let a2 = rsj_core::upper_bound_expected_cost(dist.as_ref(), &c);
        let seq = BruteForce::new(400, 500, EvalMethod::Analytic, 3)
            .unwrap()
            .sequence(dist.as_ref(), &c)
            .unwrap();
        let e = expected_cost_analytic(&seq, dist.as_ref(), &c);
        assert!(e <= a2 + 1e-9, "{name}: {e} exceeds A₂ = {a2}");
    }
}

/// Theorem 5's DP is optimal: no heuristic sequence restricted to the same
/// support beats it on the discrete instance.
#[test]
fn dp_optimality_against_heuristic_projections() {
    use rsj_core::heuristics::{discrete_sequence_cost, optimal_discrete};
    let d = rsj_dist::Exponential::new(1.0).unwrap();
    let c = CostModel::new(1.0, 1.0, 0.5).unwrap();
    let discrete =
        rsj_dist::discretize(&d, DiscretizationScheme::EqualProbability, 60, 1e-6).unwrap();
    let sol = optimal_discrete(&discrete, &c).unwrap();
    let n = discrete.values().len();

    // Project a few hand-built ladders onto the support and compare.
    let ladders: Vec<Vec<usize>> = vec![
        (0..n).collect(),                           // reserve every value
        vec![n - 1],                                // single max reservation
        (0..n).step_by(7).chain([n - 1]).collect(), // coarse ladder
    ];
    for mut ladder in ladders {
        ladder.dedup();
        if *ladder.last().unwrap() != n - 1 {
            ladder.push(n - 1);
        }
        let cost_val = discrete_sequence_cost(&discrete, &c, &ladder);
        assert!(
            sol.expected_cost <= cost_val + 1e-9,
            "DP {} must not exceed ladder {}",
            sol.expected_cost,
            cost_val
        );
    }
}

/// Eq. 4 (analytic) and Eq. 13 (Monte Carlo) agree for every heuristic on
/// a representative distribution.
#[test]
fn analytic_and_monte_carlo_evaluators_agree() {
    use rand::SeedableRng;
    let d = rsj_dist::GammaDist::new(2.0, 2.0).unwrap();
    let c = CostModel::new(0.95, 1.0, 1.05).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let samples = rsj_core::draw_samples(&d, 200_000, &mut rng);
    for h in [
        Box::new(MeanByMean::default()) as Box<dyn Strategy>,
        Box::new(MeanStdev::default()),
        Box::new(MedianByMedian::default()),
    ] {
        let seq = h.sequence(&d, &c).unwrap();
        let a = expected_cost_analytic(&seq, &d, &c);
        let m = rsj_core::expected_cost_monte_carlo(&seq, &c, &samples);
        assert!(
            (a - m).abs() / a < 0.01,
            "{}: analytic {a} vs MC {m}",
            h.name()
        );
    }
}
