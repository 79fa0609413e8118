//! Equivalence suite for the `O(n log n)` monotone DP fast path: whenever
//! the fast path fires, its `DpSolution` must be **bit-for-bit** identical
//! to the exact `O(n²)` pass — cost, values, indices and FNV-1a digest —
//! across the full Table 1 distribution suite and adversarial discrete
//! inputs (exact ties, zero-mass atoms, near-degenerate grids). When the
//! gate declines, the public entry point must fall back to the exact pass
//! and still return the exact answer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsj_core::{
    monotone_gate, optimal_discrete, optimal_discrete_exact, optimal_discrete_monotone,
    CancelToken, CostModel, DpPath, DpSolution,
};
use rsj_dist::{discretize, DiscreteDistribution, DiscretizationScheme, DistSpec};

/// FNV-1a over IEEE-754 bit patterns — the same digest convention as
/// `rsj-bench`'s `perf_gate` and `Planner::plan`, so a mismatch here is
/// exactly a mismatch CI's digest diff would flag.
fn digest(values: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Asserts the two solutions are the same bits, not merely close.
fn assert_bit_identical(fast: &DpSolution, exact: &DpSolution, context: &str) {
    assert_eq!(
        fast.expected_cost.to_bits(),
        exact.expected_cost.to_bits(),
        "{context}: expected_cost {} vs {}",
        fast.expected_cost,
        exact.expected_cost
    );
    assert_eq!(fast.indices, exact.indices, "{context}: indices");
    assert_eq!(
        fast.values.len(),
        exact.values.len(),
        "{context}: sequence length"
    );
    for (i, (a, b)) in fast.values.iter().zip(&exact.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: value[{i}] {a} vs {b}");
    }
    assert_eq!(
        digest(&fast.values),
        digest(&exact.values),
        "{context}: digest"
    );
}

/// Runs both passes on `d`; the fast path must fire (`fire` = true) or at
/// least match when it does. Each solution must name the pass that built
/// it.
fn check_equivalence(d: &DiscreteDistribution, cost: &CostModel, fire: bool, context: &str) {
    let exact = optimal_discrete_exact(d, cost).expect("exact pass solves");
    assert_eq!(exact.path, DpPath::ExactForced, "{context}");
    let fast = optimal_discrete_monotone(d, cost, &CancelToken::none()).expect("no cancellation");
    match &fast {
        Some(fast) => {
            assert_bit_identical(fast, &exact, context);
            assert_eq!(fast.path, DpPath::Monotone, "{context}");
        }
        None => assert!(!fire, "{context}: fast path unexpectedly declined"),
    }
    // The public auto-dispatch entry point must agree with the exact pass
    // regardless of which branch it took, and say which one that was.
    let auto = optimal_discrete(d, cost).expect("auto entry point solves");
    assert_bit_identical(&auto, &exact, context);
    let branch = match fast {
        Some(_) => DpPath::Monotone,
        None => DpPath::ExactDeclined,
    };
    assert_eq!(auto.path, branch, "{context}");
}

/// Each law × both discretization schemes × three cost models at `n`
/// states. The gate must *fire* on every one of these — this is the
/// fleet-wide configuration space, and a silent decline would silently
/// forfeit the speedup.
fn sweep_is_bit_identical(laws: impl IntoIterator<Item = DistSpec>, n: usize) {
    let costs = [
        CostModel::reservation_only(),
        CostModel::new(0.95, 1.0, 1.05).unwrap(),
        CostModel::new(2.0, 0.0, 10.0).unwrap(),
    ];
    for spec in laws {
        let dist = spec.build().unwrap();
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            let d = discretize(dist.as_ref(), scheme, n, 1e-7)
                .unwrap_or_else(|e| panic!("{spec:?}/{scheme:?}: {e}"));
            for (ci, cost) in costs.iter().enumerate() {
                check_equivalence(&d, cost, true, &format!("{spec:?}/{scheme:?}/cost{ci}"));
            }
        }
    }
}

#[test]
fn table1_sweep_is_bit_identical_across_both_schemes() {
    sweep_is_bit_identical(
        DistSpec::paper_table1().into_iter().map(|(_, spec)| spec),
        300,
    );
}

/// The nine Table 1 families with their parameters spread by two unit
/// draws `a` and `b` — the same spread as the benchmark's law pool.
fn spread_law(family: usize, a: f64, b: f64) -> DistSpec {
    match family {
        0 => DistSpec::Exponential {
            lambda: 0.5 + 1.5 * a,
        },
        1 => DistSpec::Weibull {
            lambda: 0.5 + 1.5 * a,
            kappa: 0.4 + 0.4 * b,
        },
        2 => DistSpec::Gamma {
            alpha: 1.5 + 2.0 * a,
            beta: 1.0 + 2.0 * b,
        },
        3 => DistSpec::LogNormal {
            mu: 2.0 + 2.0 * a,
            sigma: 0.3 + 0.5 * b,
        },
        4 => DistSpec::TruncatedNormal {
            mu: 6.0 + 4.0 * a,
            sigma: 1.0 + b,
            a: 0.0,
        },
        5 => DistSpec::Pareto {
            nu: 1.0 + a,
            alpha: 2.5 + b,
        },
        6 => DistSpec::Uniform {
            a: 5.0 + 10.0 * a,
            b: 15.0 + 10.0 * a + 10.0 * b,
        },
        7 => DistSpec::Beta {
            alpha: 1.5 + 1.5 * a,
            beta: 1.5 + 1.5 * b,
        },
        _ => DistSpec::BoundedPareto {
            l: 0.5 + a,
            h: 15.0 + 10.0 * b,
            alpha: 1.8 + 0.6 * a,
        },
    }
}

#[test]
fn jittered_table1_sweep_is_bit_identical_at_paper_scale() {
    // Seeded parameters for each Table 1 family at the paper's n = 1000.
    // Away from the fixed Table 1 parameters the envelope's segments end
    // in other places, so this reaches insertions the fixed sweep does
    // not.
    let mut rng = StdRng::seed_from_u64(20_190_520);
    let laws = (0..9).map(|family| spread_law(family, rng.gen(), rng.gen()));
    sweep_is_bit_identical(laws, 1000);
}

#[test]
fn pinned_near_ties_take_the_fast_path_with_exact_bits() {
    // Instances from a seeded sweep at n = 5000, plus Beta(1.7, 1.8), on
    // which two adjacent candidates land within 1e-12 relative of each
    // other. The rounding bound decides them,
    // and on the Pareto instance the pass evaluates the few states the
    // bound leaves open; every one must take the fast path with the exact
    // pass's bits.
    let cases = [
        (
            DistSpec::Beta {
                alpha: 1.5837675221012322,
                beta: 2.8651581347315425,
            },
            DiscretizationScheme::EqualTime,
            CostModel::new(2.0, 0.0, 10.0).unwrap(),
        ),
        (
            DistSpec::LogNormal {
                mu: 2.073220080378995,
                sigma: 0.6368358144712085,
            },
            DiscretizationScheme::EqualProbability,
            CostModel::new(0.95, 1.0, 1.05).unwrap(),
        ),
        (
            DistSpec::Weibull {
                lambda: 1.863582690801186,
                kappa: 0.41459549517196986,
            },
            DiscretizationScheme::EqualProbability,
            CostModel::reservation_only(),
        ),
        (
            DistSpec::Weibull {
                lambda: 1.5265797078617243,
                kappa: 0.6338323082026163,
            },
            DiscretizationScheme::EqualProbability,
            CostModel::reservation_only(),
        ),
        (
            DistSpec::Weibull {
                lambda: 1.6874896323246626,
                kappa: 0.44154551965519295,
            },
            DiscretizationScheme::EqualProbability,
            CostModel::reservation_only(),
        ),
        (
            DistSpec::BoundedPareto {
                l: 1.0215314253334118,
                h: 23.660403279930563,
                alpha: 2.1129188552000473,
            },
            DiscretizationScheme::EqualTime,
            CostModel::reservation_only(),
        ),
        (
            DistSpec::Pareto {
                nu: 1.6543362734003677,
                alpha: 3.333239430661084,
            },
            DiscretizationScheme::EqualTime,
            CostModel::new(2.0, 0.0, 10.0).unwrap(),
        ),
        (
            DistSpec::Beta {
                alpha: 1.7,
                beta: 1.8,
            },
            DiscretizationScheme::EqualTime,
            CostModel::reservation_only(),
        ),
    ];
    for (spec, scheme, cost) in cases {
        let context = format!("{spec:?}/{scheme:?}");
        let d = discretize(spec.build().unwrap().as_ref(), scheme, 5000, 1e-7).unwrap();
        check_equivalence(&d, &cost, true, &context);
    }
}

#[test]
fn table1_near_ties_at_n10000_take_the_fast_path() {
    // Four of Table 1's own grids compare candidates within 1e-12
    // relative of each other at n = 10⁴ under RESERVATIONONLY (none of
    // the 18 does at n ≤ 5000). They must take the fast path. The exact pass at n = 10⁴ makes 5·10⁷ transitions, too slow
    // for the debug profile, so the bits are compared in release builds
    // (CI's perf-smoke run of this suite); `perf_gate` also gates the
    // Exponential grid's digest.
    let table1: std::collections::HashMap<_, _> = DistSpec::paper_table1().into_iter().collect();
    let cost = CostModel::reservation_only();
    for (name, scheme) in [
        ("Exponential", DiscretizationScheme::EqualProbability),
        ("Weibull", DiscretizationScheme::EqualProbability),
        ("TruncatedNormal", DiscretizationScheme::EqualTime),
        ("Beta", DiscretizationScheme::EqualTime),
    ] {
        let dist = table1[name].build().unwrap();
        let d = discretize(dist.as_ref(), scheme, 10_000, 1e-7).unwrap();
        let fast = optimal_discrete_monotone(&d, &cost, &CancelToken::none())
            .unwrap()
            .unwrap_or_else(|| panic!("{name}/{scheme:?}: the fast path must fire"));
        assert_eq!(fast.path, DpPath::Monotone, "{name}/{scheme:?}");
        if !cfg!(debug_assertions) {
            let exact = optimal_discrete_exact(&d, &cost).unwrap();
            assert_bit_identical(&fast, &exact, &format!("{name}/{scheme:?}"));
        }
    }
}

#[test]
fn large_grid_is_bit_identical() {
    // One deep grid per scheme so the suite also covers spans where the
    // exact pass goes parallel (n > DP_PAR_MIN_SPAN).
    let dist = DistSpec::LogNormal {
        mu: 3.0,
        sigma: 0.5,
    }
    .build()
    .unwrap();
    let cost = CostModel::new(0.95, 1.0, 1.05).unwrap();
    for scheme in [
        DiscretizationScheme::EqualTime,
        DiscretizationScheme::EqualProbability,
    ] {
        let d = discretize(dist.as_ref(), scheme, 6000, 1e-7).unwrap();
        check_equivalence(&d, &cost, true, &format!("large/{scheme:?}"));
    }
}

#[test]
fn exact_tie_keeps_leftmost_index() {
    // v = [1, 2] with equal masses under RESERVATIONONLY ties exactly:
    // reserving 1-then-2 costs 1 + ½·2 = 2, reserving 2 alone costs 2.
    // The serial scan keeps the leftmost argmin, so the optimal ladder is
    // [1, 2] — the fast path must make the same tie call, not abort.
    let d = DiscreteDistribution::new(vec![1.0, 2.0], vec![0.5, 0.5]).unwrap();
    let cost = CostModel::reservation_only();
    let fast = optimal_discrete_monotone(&d, &cost, &CancelToken::none())
        .unwrap()
        .expect("exact ties are decisive, not aborts");
    assert_eq!(fast.indices, vec![0, 1]);
    check_equivalence(&d, &cost, true, "exact-tie");
}

#[test]
fn a_decided_near_tie_takes_the_fast_path() {
    // Perturbing the tie above by 1e-13: the candidates at state 0 differ
    // by ~5e-14 relative, far outside the ~2e-15 rounding bound, so the
    // comparison is decided on the fast path.
    let d = DiscreteDistribution::new(vec![1.0 + 1e-13, 2.0], vec![0.5, 0.5]).unwrap();
    let cost = CostModel::reservation_only();
    check_equivalence(&d, &cost, true, "decided near-tie");
}

#[test]
fn a_perturbed_tie_is_settled_by_evaluating_its_zone() {
    // Integer support and equal masses, each perturbed by a few ulps. Lines
    // 2, 1 and 0 each lose state 0 by under 2e-15 relative, inside the
    // rounding bound, so those probes decide nothing beyond state 0. The
    // pass evaluates the states above, finds losses there too (one run),
    // and keeps the fast path.
    let d = DiscreteDistribution::new(
        vec![
            1.0000000000000002,
            2.000000000000014,
            3.0000000000000018,
            4.000000000000001,
        ],
        vec![
            0.9999999999999967,
            0.9999999999999999,
            0.999999999999998,
            0.9999999999999971,
        ],
    )
    .unwrap();
    check_equivalence(&d, &CostModel::reservation_only(), true, "perturbed tie");
}

#[test]
fn a_zone_whose_outcomes_are_not_one_run_falls_back_to_exact() {
    // Three support values within 3 ulps of each other, with masses far
    // apart: their lines are parallel to within rounding. Against line 3,
    // line 2 wins state 0, loses state 1 and ties state 2 (a tie goes to
    // the smaller index), each by under 2e-16 relative. No envelope of
    // lines reproduces that, so the pass must abort, and the public entry
    // point runs the exact pass. Trusting the probes instead returns a
    // different ladder.
    let d = DiscreteDistribution::new(
        vec![
            0.6712505819984755,
            1.9911274998314725,
            1.9911274998314732,
            1.9911274998314745,
        ],
        vec![
            0.9781665567278883,
            3.184034182001004e-10,
            2.5459359316983368e-5,
            7.089904768816144e-21,
        ],
    )
    .unwrap();
    let cost = CostModel::new(0.95, 1.0, 1.05).unwrap();
    assert!(
        optimal_discrete_monotone(&d, &cost, &CancelToken::none())
            .unwrap()
            .is_none(),
        "a zone that is not one run of wins then losses must abort the fast path"
    );
    check_equivalence(&d, &cost, false, "non-contiguous zone");
    // The label `rsj plan --explain-solver` and the trace args carry.
    let path = optimal_discrete(&d, &cost).unwrap().path;
    assert_eq!(path.as_str(), "exact_gate_declined");
}

#[test]
fn a_non_finite_candidate_falls_back_to_exact() {
    // Reserving 1e308 and then 1.7e308 overflows: the candidate of line 0
    // at state 0 is +inf. The fast path aborts on a non-finite candidate,
    // and the exact pass picks the finite single reservation.
    let d = DiscreteDistribution::new(vec![1e308, 1.7e308], vec![0.5, 0.5]).unwrap();
    let cost = CostModel::reservation_only();
    assert!(optimal_discrete_monotone(&d, &cost, &CancelToken::none())
        .unwrap()
        .is_none());
    check_equivalence(&d, &cost, false, "overflow");
}

#[test]
fn gate_declines_constructed_non_monotone_arrays() {
    // `DiscreteDistribution` cannot represent these shapes (construction
    // validates them away), so the gate is exercised on raw slices: the
    // envelope argument needs increasing values and non-increasing suffix
    // masses, and the gate must refuse anything else rather than trust
    // upstream validation.
    let cost = CostModel::reservation_only();
    // Decreasing values → slopes out of order.
    assert!(!monotone_gate(
        &[4.0, 2.0, 1.0],
        &[0.2, 0.3, 0.5],
        &[1.0, 0.8, 0.5, 0.0],
        &cost
    ));
    // Increasing suffix masses → queries out of order.
    assert!(!monotone_gate(
        &[1.0, 2.0, 4.0],
        &[0.2, 0.3, 0.5],
        &[0.5, 0.8, 1.0, 0.0],
        &cost
    ));
    // NaN values / masses → no trusted comparisons at all.
    assert!(!monotone_gate(
        &[1.0, f64::NAN, 4.0],
        &[0.2, 0.3, 0.5],
        &[1.0, 0.8, 0.5, 0.0],
        &cost
    ));
    // The rounding proof needs every candidate term non-negative: a
    // negative support value, a negative suffix mass, or a negative β or γ
    // (the fields are public, so no constructor stands in the way).
    assert!(!monotone_gate(
        &[-1.0, 2.0, 4.0],
        &[0.2, 0.3, 0.5],
        &[1.0, 0.8, 0.5, 0.0],
        &cost
    ));
    assert!(!monotone_gate(
        &[1.0, 2.0, 4.0],
        &[0.2, 0.3, 0.5],
        &[0.5, 0.3, 0.0, -0.5],
        &cost
    ));
    for (beta, gamma) in [(-1.0, 0.0), (0.0, -1.0)] {
        let cost = CostModel {
            alpha: 1.0,
            beta,
            gamma,
        };
        assert!(!monotone_gate(
            &[1.0, 2.0, 4.0],
            &[0.2, 0.3, 0.5],
            &[1.0, 0.8, 0.5, 0.0],
            &cost
        ));
    }
    // A well-formed instance passes.
    let d = DiscreteDistribution::new(vec![1.0, 2.0, 4.0], vec![0.2, 0.3, 0.5]).unwrap();
    assert!(monotone_gate(
        d.values(),
        d.probs(),
        &d.suffix_masses(),
        &cost
    ));
}

#[test]
fn zero_mass_atoms_and_coarse_spikes_are_bit_identical() {
    // Zero-weight atoms are dropped at construction; what reaches the DP
    // is the compacted support. Spiky mass profiles (mass concentrated on
    // few atoms, long thin tails) stress the envelope's segment shuffling.
    let d = DiscreteDistribution::new(
        vec![0.5, 1.0, 1.5, 2.0, 8.0, 9.0, 100.0],
        vec![0.0, 0.7, 0.0, 0.1, 0.0, 0.15, 0.05],
    )
    .unwrap();
    assert_eq!(d.len(), 4, "zero-mass atoms dropped");
    for cost in [
        CostModel::reservation_only(),
        CostModel::new(1.0, 0.5, 0.25).unwrap(),
    ] {
        check_equivalence(&d, &cost, true, "spiky");
    }
    // Geometric mass decay over a wide dynamic range.
    let values: Vec<f64> = (1..=64).map(|i| (i as f64) * (i as f64)).collect();
    let weights: Vec<f64> = (1..=64).map(|i| 0.7f64.powi(i)).collect();
    let d = DiscreteDistribution::new(values, weights).unwrap();
    check_equivalence(
        &d,
        &CostModel::new(1.5, 0.3, 0.2).unwrap(),
        true,
        "geometric",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized discrete instances: whenever the fast path fires it is
    /// bit-identical to the exact pass, and the auto entry point always
    /// equals the exact pass (fallback included). Steps are mantissa ×
    /// decade so sizes span nine orders of magnitude; the near-tie proptest
    /// below aims at the comparisons rounding decides.
    #[test]
    fn random_instances_match_exact_pass(
        mantissas in proptest::collection::vec(0.1..1.0f64, 2..48),
        decades in proptest::collection::vec(0.0..10.0f64, 2..48),
        raw_weights in proptest::collection::vec(1e-6..1.0f64, 2..48),
        alpha in 0.1..4.0f64,
        beta in 0.0..2.0f64,
        gamma in 0.0..3.0f64,
    ) {
        let n = mantissas.len().min(decades.len()).min(raw_weights.len());
        let mut values = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += mantissas[i] * 10f64.powi(1 - decades[i] as i32);
            values.push(acc);
        }
        // Cumulative sums of tiny steps can collide in f64; skip those
        // draws (DiscreteDistribution would reject them anyway).
        prop_assume!(values.windows(2).all(|w| w[1] > w[0]));
        let d = DiscreteDistribution::new(values, raw_weights[..n].to_vec()).unwrap();
        let cost = CostModel::new(alpha, beta, gamma).unwrap();
        let exact = optimal_discrete_exact(&d, &cost).unwrap();
        if let Some(fast) = optimal_discrete_monotone(&d, &cost, &CancelToken::none()).unwrap() {
            prop_assert_eq!(fast.expected_cost.to_bits(), exact.expected_cost.to_bits());
            prop_assert_eq!(&fast.indices, &exact.indices);
            for (a, b) in fast.values.iter().zip(&exact.values) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let auto = optimal_discrete(&d, &cost).unwrap();
        prop_assert_eq!(auto.expected_cost.to_bits(), exact.expected_cost.to_bits());
        prop_assert_eq!(&auto.indices, &exact.indices);
    }
}

/// Support values and weights for [`near_tie_instances_match_exact_pass`].
/// `shape` 0 perturbs exact ties (integer support, equal weights) by
/// 1e-16 to 1e-12 relative; 1 clusters the support within a few ulps; 2
/// puts heavy weights under an ulp-spaced cluster of tiny ones, so the
/// candidates of one segment span many orders of magnitude.
fn near_tie_instance(shape: u8, start: f64, steps: &[(u64, f64, f64)]) -> (Vec<f64>, Vec<f64>) {
    let next_up = |x: f64, k: u64| f64::from_bits(x.to_bits() + k);
    let mut values = Vec::with_capacity(steps.len());
    let mut weights = Vec::with_capacity(steps.len());
    let mut x = start;
    for (k, &(ulps, u1, u2)) in steps.iter().enumerate() {
        match shape {
            0 => {
                let jitter = |u: f64| (u - 0.5).signum() * 10f64.powf(-12.0 - 4.0 * u.abs());
                values.push((k + 1) as f64 * (1.0 + jitter(u1)));
                weights.push(1.0 + jitter(u2));
            }
            1 => {
                values.push(x);
                weights.push(10f64.powf(-18.0 * u2));
                x = next_up(x, ulps);
            }
            _ => {
                values.push(x);
                if k < steps.len() / 3 {
                    weights.push(0.1 + u2);
                    x += 0.5 + 2.5 * u1;
                } else {
                    weights.push(10f64.powf(-4.0 - 18.0 * u2));
                    x = next_up(x, ulps);
                }
            }
        }
    }
    (values, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Near-ties, where rounding decides comparisons: perturbed exact ties,
    /// support values a few ulps apart and heavy-tailed magnitudes, under
    /// the benchmark's three cost models and random ones. Whenever the fast
    /// path fires it is bit-identical to the exact pass, and the auto entry
    /// point always is, whichever pass it took.
    #[test]
    fn near_tie_instances_match_exact_pass(
        shape in 0u8..3,
        start in 0.01..100.0f64,
        steps in proptest::collection::vec((1u64..8, 0.0..1.0f64, 0.0..1.0f64), 2..40),
        model in 0usize..4,
        rates in (1e-4..4.0f64, 0.0..2.0f64, 0.0..3.0f64),
    ) {
        let (values, weights) = near_tie_instance(shape, start, &steps);
        prop_assume!(values.windows(2).all(|w| w[1] > w[0]));
        let d = DiscreteDistribution::new(values, weights).unwrap();
        let cost = match model {
            0 => CostModel::reservation_only(),
            1 => CostModel::new(0.95, 1.0, 1.05).unwrap(),
            2 => CostModel::new(2.0, 0.0, 10.0).unwrap(),
            _ => CostModel::new(rates.0, rates.1, rates.2).unwrap(),
        };
        let exact = optimal_discrete_exact(&d, &cost).unwrap();
        let fast = optimal_discrete_monotone(&d, &cost, &CancelToken::none()).unwrap();
        if let Some(fast) = &fast {
            prop_assert_eq!(fast.expected_cost.to_bits(), exact.expected_cost.to_bits());
            prop_assert_eq!(&fast.indices, &exact.indices);
            for (a, b) in fast.values.iter().zip(&exact.values) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let auto = optimal_discrete(&d, &cost).unwrap();
        prop_assert_eq!(auto.expected_cost.to_bits(), exact.expected_cost.to_bits());
        prop_assert_eq!(&auto.indices, &exact.indices);
        let path = if fast.is_some() { DpPath::Monotone } else { DpPath::ExactDeclined };
        prop_assert_eq!(auto.path, path);
    }
}
