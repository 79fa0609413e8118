//! Equivalence suite for the `O(n log n)` monotone DP fast path: whenever
//! the fast path fires, its `DpSolution` must be **bit-for-bit** identical
//! to the exact `O(n²)` pass — cost, values, indices and FNV-1a digest —
//! across the full Table 1 distribution suite and adversarial discrete
//! inputs (exact ties, zero-mass atoms, near-degenerate grids). When the
//! gate declines, the public entry point must fall back to the exact pass
//! and still return the exact answer.

use proptest::prelude::*;
use rsj_core::{
    monotone_gate, optimal_discrete, optimal_discrete_exact, optimal_discrete_monotone,
    CancelToken, CostModel, DpPath, DpSolution,
};
use rsj_dist::{discretize, DiscreteDistribution, DiscretizationScheme, DistSpec};

/// FNV-1a over IEEE-754 bit patterns — the same digest convention as
/// `rsj-bench`'s solver baselines and `Planner::plan`, so a mismatch here
/// is exactly a mismatch CI's digest diff would flag.
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

#[test]
fn table1_sweep_is_bit_identical_across_both_schemes() {
    // All nine Table 1 distributions × both discretization schemes × three
    // cost models. The gate must *fire* on every one of these — this is
    // the fleet-wide configuration space, and a silent decline would
    // silently forfeit the speedup.
    let costs = [
        CostModel::reservation_only(),
        CostModel::new(0.95, 1.0, 1.05).unwrap(),
        CostModel::new(2.0, 0.0, 10.0).unwrap(),
    ];
    for (name, spec) in DistSpec::paper_table1() {
        let dist = spec.build().unwrap();
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            let d = discretize(dist.as_ref(), scheme, 300, 1e-7)
                .unwrap_or_else(|e| panic!("{name}/{scheme:?}: {e}"));
            for (ci, cost) in costs.iter().enumerate() {
                check_equivalence(&d, cost, true, &format!("{name}/{scheme:?}/cost{ci}"));
            }
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
fn near_tie_aborts_and_falls_back_to_exact() {
    // Perturbing the tie above by 1e-13 puts the comparison inside the
    // fast path's trust margin: the candidates at state 0 differ by
    // ~5e-14 relative. The gate must decline (runtime abort) and the
    // public entry point must fall back to the exact pass.
    let d = DiscreteDistribution::new(vec![1.0 + 1e-13, 2.0], vec![0.5, 0.5]).unwrap();
    let cost = CostModel::reservation_only();
    assert!(
        optimal_discrete_monotone(&d, &cost, &CancelToken::none())
            .unwrap()
            .is_none(),
        "margin-zone comparison must abort the fast path"
    );
    let exact = optimal_discrete_exact(&d, &cost).unwrap();
    let auto = optimal_discrete(&d, &cost).unwrap();
    assert_bit_identical(&auto, &exact, "near-tie fallback");
    assert_eq!(auto.path, DpPath::ExactDeclined);
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
    /// decade so sizes span nine orders of magnitude — some instances land
    /// comparisons in the margin zone and exercise the abort path.
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
