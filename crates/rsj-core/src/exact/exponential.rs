//! The RESERVATIONONLY optimum for exponential distributions (§3.5).
//!
//! Proposition 2: for `X ~ Exp(1)` the optimal sequence `(sᵢ)` satisfies
//! `s₂ = e^{s₁}`, `sᵢ = e^{sᵢ₋₁ - sᵢ₋₂}`, and minimizes
//! `E₁ = s₁ + 1 + Σᵢ e^{-sᵢ}` — equivalently `E(S) = Σᵢ sᵢ₊₁·e^{-sᵢ}`.
//! The optimum is scale-free: for `Exp(λ)`, `tᵢ = sᵢ/λ` and
//! `E(S_λ) = E₁/λ`. The paper reports `s₁ ≈ 0.74219` from a brute-force
//! search.
//!
//! ## Evaluating `E₁` honestly
//!
//! The recurrence amplifies perturbations of `s₁` doubly exponentially, so
//! every finite-precision trajectory eventually produces a non-increasing
//! step ("breakdown"). Simply truncating the series there *flatters*
//! early-breaking candidates (their unpaid tail is large). Instead, the
//! breakdown remainder is priced as an *optimal restart*: conditioned on
//! `X > s_K`, memorylessness makes the remaining problem a fresh `Exp(1)`
//! instance, so the exact tail contribution is
//!
//! ```text
//! e^{-s_K} · ( s_K·(E₁° - s₁°) + E₁° )
//! ```
//!
//! (`1 + Σ e^{-uᵢ} = E₁° - s₁°` along an optimal restart trajectory
//! `(uᵢ)`). `(s₁°, E₁°)` is obtained by self-consistent iteration: grid
//! minimization with a guessed pair, then re-minimization with the refined
//! pair until fixed.

use std::sync::OnceLock;

/// `E(S)` for the recurrence trajectory started at `s1`, with the optimal
/// restart remainder priced using the reference pair `(s1_ref, e1_ref)`.
fn e1_with_restart(s1: f64, s1_ref: f64, e1_ref: f64) -> f64 {
    debug_assert!(s1 > 0.0);
    let mut total = s1; // t₁·e^{-t₀}, t₀ = 0
    let mut prev2 = 0.0;
    let mut prev1 = s1;
    for _ in 0..500 {
        let surv = (-prev1).exp();
        if surv < 1e-18 {
            return total;
        }
        let gap = prev1 - prev2;
        if gap > 700.0 {
            // The next iterate overflows f64: the trajectory has exploded
            // (valid). That step still costs t_{i+1}·e^{-t_i} = e^{-t_{i-1}}
            // and nothing survives it.
            return total + (-prev2).exp();
        }
        let next = gap.exp();
        if next <= prev1 {
            // Breakdown: price the tail as an optimal restart at prev1.
            return total + surv * (prev1 * (e1_ref - s1_ref) + e1_ref);
        }
        // On-trajectory identity: t_{i+1}·e^{-t_i} = e^{-t_{i-1}}.
        total += (-prev2).exp();
        prev2 = prev1;
        prev1 = next;
    }
    total
}

/// The self-consistent optimal pair `(s₁°, E₁°)` for `Exp(1)`.
fn optimal_pair() -> (f64, f64) {
    static PAIR: OnceLock<(f64, f64)> = OnceLock::new();
    *PAIR.get_or_init(|| {
        let _span = rsj_obs::span!("exact.exp_optimal_pair", "rsj_core_exact_exp_wall_seconds");
        let (mut s1, mut e1) = (0.75, 2.37); // coarse §3.5 guesses
        let mut evals: u64 = 0;
        for _ in 0..6 {
            // Grid scan: E(S) has small jumps where the breakdown depth
            // changes, so a fine scan is more robust than golden section.
            let (lo, hi, n) = (0.3, 1.2, 30_000);
            let mut best = (f64::INFINITY, s1);
            for k in 0..=n {
                let cand = lo + (hi - lo) * k as f64 / n as f64;
                let v = e1_with_restart(cand, s1, e1);
                if v < best.0 {
                    best = (v, cand);
                }
            }
            evals += n as u64 + 1;
            let converged = (best.1 - s1).abs() < 1e-9 && (best.0 - e1).abs() < 1e-9;
            s1 = best.1;
            e1 = best.0;
            if converged {
                break;
            }
        }
        if rsj_obs::metrics_enabled() {
            rsj_obs::global_registry()
                .counter("rsj_core_exact_exp_grid_evals_total")
                .add(evals);
        }
        rsj_obs::debug!("exact exponential optimum: s1 {s1:.6}, E1 {e1:.6} ({evals} grid evals)");
        (s1, e1)
    })
}

/// Evaluates `E₁(s₁)` — the expected RESERVATIONONLY cost on `Exp(1)` of
/// the recurrence trajectory started at `s₁`, with breakdown tails priced
/// as optimal restarts.
pub fn exp_e1(s1: f64) -> f64 {
    assert!(s1 > 0.0, "s1 must be positive, got {s1}");
    let (s1_ref, e1_ref) = optimal_pair();
    e1_with_restart(s1, s1_ref, e1_ref)
}

/// The optimal `s₁` for `Exp(1)` under RESERVATIONONLY.
///
/// The paper's brute-force value is `0.74219`; the self-consistent grid
/// search reproduces it to ~1e-3.
pub fn exp_optimal_s1() -> f64 {
    optimal_pair().0
}

/// The optimal expected cost `E(S_λ) = E₁/λ` for `Exp(λ)` under
/// RESERVATIONONLY (Proposition 2).
pub fn exp_optimal_cost(lambda: f64) -> f64 {
    assert!(lambda > 0.0, "lambda must be positive");
    optimal_pair().1 / lambda
}

/// The first `len` terms of the optimal sequence for `Exp(λ)`:
/// `tᵢ = sᵢ/λ`. Terms stop early at the trajectory's numeric breakdown.
pub fn exp_optimal_sequence(lambda: f64, len: usize) -> Vec<f64> {
    assert!(lambda > 0.0, "lambda must be positive");
    let s1 = exp_optimal_s1();
    let mut out = Vec::with_capacity(len);
    let mut prev2 = 0.0;
    let mut prev1 = s1;
    out.push(s1 / lambda);
    while out.len() < len {
        let next = (prev1 - prev2).exp();
        if next <= prev1 || !next.is_finite() {
            break;
        }
        out.push(next / lambda);
        prev2 = prev1;
        prev1 = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::eval::expected_cost_analytic;
    use crate::sequence::ReservationSequence;
    use rsj_dist::{ContinuousDistribution, Exponential};

    #[test]
    fn optimal_s1_matches_published_value() {
        let s1 = exp_optimal_s1();
        assert!(
            (s1 - 0.74219).abs() < 2e-2,
            "s1 {s1} should be near the published 0.74219"
        );
    }

    #[test]
    fn e1_is_minimal_at_s1() {
        let s1 = exp_optimal_s1();
        let e = exp_e1(s1);
        for &delta in &[-0.2, -0.1, -0.05, 0.05, 0.1, 0.2] {
            assert!(
                exp_e1(s1 + delta) >= e,
                "E1({}) = {} must not beat E1({s1}) = {e}",
                s1 + delta,
                exp_e1(s1 + delta)
            );
        }
    }

    #[test]
    fn first_reservation_is_three_quarters_of_mean() {
        // §3.5: "the first reservation for Exp(λ) should be approximately
        // three quarters of the mean value 1/λ".
        for &lambda in &[0.5, 1.0, 4.0] {
            let seq = exp_optimal_sequence(lambda, 3);
            let ratio = seq[0] * lambda;
            assert!((0.70..0.78).contains(&ratio), "λ={lambda}: ratio {ratio}");
        }
    }

    #[test]
    fn scale_invariance_of_cost() {
        // E(S_λ) = E₁/λ.
        let e1 = exp_optimal_cost(1.0);
        for &lambda in &[0.25, 1.0, 3.0] {
            assert!((exp_optimal_cost(lambda) - e1 / lambda).abs() < 1e-12);
        }
    }

    #[test]
    fn e1_matches_series_evaluation() {
        // The Eq. 4 evaluator on the generated prefix must agree with the
        // closed evaluation up to the restart remainder.
        let lambda = 1.0;
        let d = Exponential::new(lambda).unwrap();
        let c = CostModel::reservation_only();
        let times = exp_optimal_sequence(lambda, 64);
        let last = *times.last().unwrap();
        let s = ReservationSequence::new(times, false).unwrap();
        let series = expected_cost_analytic(&s, &d, &c);
        let closed = exp_optimal_cost(lambda);
        let slack = d.survival(last) * (last * 2.0 + 3.0) + 1e-6;
        assert!(
            (series - closed).abs() < slack,
            "series {series} vs closed {closed} (slack {slack})"
        );
    }

    #[test]
    fn optimal_beats_paper_table3_alternatives() {
        // Table 3 reports cost 2.64 at t₁ = Q(0.75) = 1.39 and 4.83 at
        // t₁ = Q(0.99) = 4.61; the optimum must be cheaper.
        let e1 = exp_optimal_cost(1.0);
        assert!(e1 < 2.64, "E1 = {e1}");
        assert!(exp_e1(1.39) > e1);
        assert!(exp_e1(4.61) > exp_e1(1.39), "cost grows away from optimum");
    }

    #[test]
    fn sequence_is_strictly_increasing() {
        let seq = exp_optimal_sequence(2.0, 16);
        for w in seq.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn restart_pricing_penalizes_early_breakdown() {
        // A mid-gap candidate (Fig. 3a) breaks down early; honest pricing
        // must make it cost more than the optimum.
        let e_gap = exp_e1(0.5);
        let e_opt = exp_optimal_cost(1.0);
        assert!(e_gap > e_opt, "gap candidate {e_gap} vs optimum {e_opt}");
    }
}
