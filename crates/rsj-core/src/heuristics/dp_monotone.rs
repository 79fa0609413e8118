//! O(n log n) fast path for the Theorem 5 backward pass (system S26).
//!
//! ## Why the recurrence is totally monotone
//!
//! Writing the unnormalized candidate cost of picking reservation `j` at
//! state `i` the way `dp.rs` does,
//!
//! ```text
//! cand(i, j) = (α·vⱼ + γ)·sᵢ + β·(a_{j+1} − aᵢ) + β·vⱼ·s_{j+1} + w_{j+1}
//! ```
//!
//! every term is either a function of `j` alone, of `i` alone (`−β·aᵢ`,
//! which shifts all candidates of a state equally and cannot change the
//! argmin), or the product `slope(j)·sᵢ` with `slope(j) = α·vⱼ + γ`. Each
//! candidate is therefore an affine function of the query point `x = sᵢ`,
//! and the per-state minimization is a lower-envelope-of-lines query.
//! Because support values are strictly increasing and `α ≥ 0`, slopes are
//! nondecreasing in `j`; because suffix masses are non-increasing in `i`,
//! the backward pass queries nondecreasing `x`. This is exactly the
//! concave least-weight-subsequence structure (the quadrangle inequality
//! holds *by algebra* — a proven sufficient condition, not an empirical
//! sample of matrix rows), so the Hirschberg–Larmore / Galil–Giancarlo
//! deque of candidate intervals solves all `n` minimizations in
//! `O(n log n)` comparisons.
//!
//! ## Settling an insertion
//!
//! Line `c = i` enters with the smallest slope so far, so against any
//! older line it wins on a (possibly empty) prefix of the remaining states
//! `[0, i]`: its advantage is largest at the lowest state, where `sₚ` is
//! largest. It is settled against the front segment `[lo, hi]` in this
//! order, and on real grids most insertions end after one or two probes:
//!
//! 1. probe `lo`. A loss there is a loss on the whole segment, so `c` owns
//!    only the states earlier pops freed, `[0, lo − 1]` (nothing when
//!    `lo = 0`), and the insertion ends;
//! 2. a one-state segment won at `lo` is popped, and `c` moves on to the
//!    next segment;
//! 3. probe `hi`. A win there too is a win on the whole segment, which is
//!    popped;
//! 4. otherwise the first state `c` loses lies in `(lo, hi]`. Most such
//!    crossings sit right below the top, so probe `hi − 1` before
//!    bisecting what is left.
//!
//! Every boundary the pass writes is therefore fixed either by two probes
//! at adjacent states — a win at `h − 1` and a loss at `h`, both decided
//! outside the margin below — or by a segment end, and the states between
//! probes are implied by the slope order, exactly as any bisection relies
//! on. The worst case stays `O(n log n)`; on the Table 1 grids at
//! `n = 1000` a state costs ~6 candidate evaluations.
//!
//! ## Bit-identity discipline
//!
//! The serial `O(n²)` scan compares *floating-point* candidate values and
//! keeps the leftmost `j` on exact ties. This module reproduces those
//! decisions rather than approximating them:
//!
//! * every comparison evaluates `cand(p, ·)` with the **identical
//!   expression and operation order** as the serial scan, so the numbers
//!   compared are the very bits the serial scan would compare. The terms
//!   that depend on `j` alone are computed once per line, each by the
//!   serial scan's own subexpression (see [`Line`]), and Rust never
//!   contracts `a·b + c` into a fused multiply-add, so hoisting them moves
//!   no bit;
//! * `beats(c, d, p)` (with `c < d`) is `cand(p, c) ≤ cand(p, d)` — an
//!   exact tie is decided in favour of the smaller index, matching the
//!   serial scan's strict-`<` update rule;
//! * whenever a comparison is too close to call — the relative difference
//!   is within [`MONOTONE_MARGIN`], where rounding could order the floats
//!   differently from the envelope's real-arithmetic reasoning — or any
//!   candidate is non-finite, the fast path **aborts** and the caller
//!   falls back to the exact pass, which is correct by definition;
//! * `w[i]` is computed by re-evaluating `cand(i, winner)`, so the stored
//!   value is the same expression the serial scan stores.
//!
//! The equivalence suite (`tests/dp_monotone_equivalence.rs`) and the CI
//! `perf-smoke` digest diff enforce the guarantee end to end.

use super::dp::DP_CANCEL_STRIDE;
use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::Result;
use std::collections::VecDeque;

/// Relative margin below which a cross-candidate comparison is considered
/// too close to trust. f64 evaluation of one candidate is accurate to a
/// few ulps (~1e-16 relative); 1e-12 leaves four orders of magnitude of
/// headroom while staying far below the spacing of genuinely distinct
/// candidates on real grids, so spurious aborts are rare. Exact ties
/// (difference of 0.0) are *not* aborts — they are decided leftmost, the
/// same way the serial scan decides them.
const MONOTONE_MARGIN: f64 = 1e-12;

/// A successful fast-path solve: the unnormalized value table `w`
/// (`w[i] = E*ᵢ·Sᵢ`, length `n + 1`), the per-state argmin `choice`, and
/// the number of candidate evaluations performed (the `O(n log n)` work
/// counter recorded as `rsj_core_dp_monotone_evals_total`).
pub(super) struct MonotoneSolve {
    pub w: Vec<f64>,
    pub choice: Vec<usize>,
    pub evals: u64,
}

/// The runtime gate: `O(n)` verification of the sufficient condition the
/// envelope argument needs — finite strictly increasing values, finite
/// nonnegative masses, finite non-increasing suffix masses and a finite
/// cost model with `α ≥ 0`. Inputs built through [`DiscreteDistribution`]
/// and [`CostModel`] always satisfy this; the gate re-checks the raw
/// arrays so the fast path never *assumes* upstream validation (and so
/// tests can hand it adversarial slices directly).
///
/// [`DiscreteDistribution`]: rsj_dist::DiscreteDistribution
pub fn monotone_gate(values: &[f64], probs: &[f64], suffix: &[f64], cost: &CostModel) -> bool {
    let n = values.len();
    if n == 0 || probs.len() != n || suffix.len() != n + 1 {
        return false;
    }
    if !(cost.alpha.is_finite() && cost.beta.is_finite() && cost.gamma.is_finite())
        || cost.alpha < 0.0
    {
        return false;
    }
    let mut prev = f64::NEG_INFINITY;
    for &v in values {
        if !v.is_finite() || v <= prev {
            return false;
        }
        prev = v;
    }
    if probs.iter().any(|&f| !f.is_finite() || f < 0.0) {
        return false;
    }
    let mut prev = f64::INFINITY;
    for &s in suffix {
        if !s.is_finite() || s > prev {
            return false;
        }
        prev = s;
    }
    true
}

/// The terms of `cand(p, j)` that depend on the line `j` alone, computed
/// once when the line is inserted (`w[j + 1]` is final by then), each with
/// the serial scan's own operations in its order: `slope = α·vⱼ + γ`,
/// `a1 = a[j + 1]`, `tail = β·vⱼ·s[j + 1]` and `w1 = w[j + 1]`.
#[derive(Clone, Copy)]
struct Line {
    slope: f64,
    a1: f64,
    tail: f64,
    w1: f64,
}

/// One contiguous block of *future query states* `[lo, hi]` on which the
/// line `j` is the current envelope minimum, with that line's constants.
/// The deque holds segments in increasing-state order; together they
/// partition the states not yet queried.
struct Seg {
    j: usize,
    lo: usize,
    hi: usize,
    line: Line,
}

/// `cand(p, j)` from the line's constants and state `p`'s `sₚ` and `aₚ`:
/// `(α·vⱼ + γ)·sₚ + β·(a_{j+1} − aₚ) + β·vⱼ·s_{j+1} + w_{j+1}`, the serial
/// scan's expression with its operations in its order, so the value is
/// bit for bit the one the serial scan computes. Every comparison and
/// every stored `w[i]` goes through here.
#[inline]
fn cand(line: &Line, beta: f64, s_p: f64, a_p: f64) -> f64 {
    line.slope * s_p + beta * (line.a1 - a_p) + line.tail + line.w1
}

/// Attempts the fast path. `Ok(None)` means the gate declined or a
/// comparison hit the margin/finiteness abort — the caller must run the
/// exact pass. `Ok(Some(..))` is bit-identical to what the exact pass
/// would produce (see the module docs for the discipline that makes this
/// hold and the test suite that enforces it).
pub(super) fn try_solve(
    v: &[f64],
    f: &[f64],
    s: &[f64],
    a: &[f64],
    cost: &CostModel,
    cancel: &CancelToken,
) -> Result<Option<MonotoneSolve>> {
    if !monotone_gate(v, f, s, cost) {
        return Ok(None);
    }
    let n = v.len();
    let beta = cost.beta;
    let mut w = vec![0.0; n + 1];
    let mut choice = vec![0usize; n];
    let mut evals: u64 = 0;

    // Does line `c` win against line `d` (c < d) at state `p`, in the
    // serial scan's float-level sense? `None` = too close to call.
    let beats = |evals: &mut u64, c: &Line, d: &Line, p: usize| -> Option<bool> {
        let (s_p, a_p) = (s[p], a[p]);
        let ca = cand(c, beta, s_p, a_p);
        let cd = cand(d, beta, s_p, a_p);
        *evals += 2;
        if !ca.is_finite() || !cd.is_finite() {
            return None;
        }
        let delta = ca - cd;
        if delta == 0.0 {
            return Some(true); // exact tie → leftmost index, like the serial scan
        }
        if delta.abs() <= MONOTONE_MARGIN * ca.abs().max(cd.abs()) {
            return None;
        }
        Some(delta < 0.0)
    };

    // Settles the new line `c` against the front segments in the module
    // docs' probe order, popping each one it wins outright. It wins on a
    // prefix of the remaining states [0, i]: returns that prefix's length,
    // or `None` when a comparison is too close to call.
    let settle = |dq: &mut VecDeque<Seg>, evals: &mut u64, c: &Line, i: usize| -> Option<usize> {
        while let Some(front) = dq.front_mut() {
            let (lo, hi, d) = (front.lo, front.hi, front.line);
            if !beats(evals, c, &d, lo)? {
                return Some(lo);
            }
            if lo < hi && !beats(evals, c, &d, hi)? {
                // c wins at lo and loses at hi, so its first loss is in
                // (lo, hi]: try hi − 1, then bisect (lo, hi − 1) keeping a
                // win at l − 1 and a loss at h.
                let mut first_loss = hi;
                if hi - 1 > lo && !beats(evals, c, &d, hi - 1)? {
                    let (mut l, mut h) = (lo + 1, hi - 1);
                    while l < h {
                        let mid = l + (h - l) / 2;
                        if beats(evals, c, &d, mid)? {
                            l = mid + 1;
                        } else {
                            h = mid;
                        }
                    }
                    first_loss = l;
                }
                front.lo = first_loss;
                return Some(first_loss);
            }
            dq.pop_front();
        }
        Some(i + 1)
    };

    let mut dq: VecDeque<Seg> = VecDeque::with_capacity(64);
    for i in (0..n).rev() {
        if (n - i).is_multiple_of(DP_CANCEL_STRIDE) {
            cancel.check()?;
        }
        // Insert line i, the smallest slope so far.
        let line = Line {
            slope: cost.alpha * v[i] + cost.gamma,
            a1: a[i + 1],
            tail: beta * v[i] * s[i + 1],
            w1: w[i + 1],
        };
        let Some(owned) = settle(&mut dq, &mut evals, &line, i) else {
            return Ok(None);
        };
        if owned > 0 {
            dq.push_front(Seg {
                j: i,
                lo: 0,
                hi: owned - 1,
                line,
            });
        }

        // Query state i: the deque partitions [0, i], so the back segment
        // contains i and its line is the envelope minimum there.
        let back = dq.back().expect("deque partitions [0, i]");
        debug_assert!(back.lo <= i && i <= back.hi);
        let best = cand(&back.line, beta, s[i], a[i]);
        evals += 1;
        if !best.is_finite() {
            // The serial scan would propagate this non-finite value into
            // every later comparison; don't try to reproduce that here.
            return Ok(None);
        }
        w[i] = best;
        choice[i] = back.j;

        // State i will never be queried again: shrink the partition to
        // [0, i-1].
        if let Some(back) = dq.back_mut() {
            if back.lo == i {
                dq.pop_back();
            } else {
                back.hi = i - 1;
            }
        }
    }

    Ok(Some(MonotoneSolve { w, choice, evals }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::dp::prefix_weighted_values;
    use crate::heuristics::optimal_discrete_exact;
    use rsj_dist::DiscreteDistribution;

    /// Runs the fast path on the law `values`/`weights` and checks every
    /// `w[i]` and `choice[i]` bit for bit against the exact pass's serial
    /// scan, and `E*₁` against [`optimal_discrete_exact`]. Returns the
    /// chosen indices and the candidate evaluations the pass made: `n`
    /// queries plus two per probe.
    fn solve_matching_exact(values: &[f64], weights: &[f64]) -> (Vec<usize>, u64) {
        let cost = CostModel::reservation_only();
        let d = DiscreteDistribution::new(values.to_vec(), weights.to_vec()).unwrap();
        let (v, f) = (d.values(), d.probs());
        let s = d.suffix_masses();
        let a = prefix_weighted_values(v, f);
        let fast = try_solve(v, f, &s, &a, &cost, &CancelToken::none())
            .unwrap()
            .expect("no comparison is close to a tie");

        // The exact pass's serial scan (`dp::exact_pass` below
        // `DP_PAR_MIN_SPAN`), verbatim.
        let n = v.len();
        let mut w = vec![0.0; n + 1];
        let mut choice = vec![0usize; n];
        for i in (0..n).rev() {
            let cand_at = |j: usize| {
                (cost.alpha * v[j] + cost.gamma) * s[i]
                    + cost.beta * (a[j + 1] - a[i])
                    + cost.beta * v[j] * s[j + 1]
                    + w[j + 1]
            };
            let mut best = f64::INFINITY;
            let mut best_j = i;
            for j in i..n {
                let cand = cand_at(j);
                if cand < best {
                    best = cand;
                    best_j = j;
                }
            }
            w[i] = best;
            choice[i] = best_j;
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast.w), bits(&w), "w");
        assert_eq!(fast.choice, choice, "choice");
        let exact = optimal_discrete_exact(&d, &cost).unwrap();
        assert_eq!((fast.w[0] / s[0]).to_bits(), exact.expected_cost.to_bits());
        (fast.choice, fast.evals)
    }

    #[test]
    fn a_line_that_loses_at_the_lowest_state_is_discarded() {
        // Reserving 13 at once is optimal, so line 3 owns every state.
        // Each of lines 2, 1, 0 loses its one probe at state 0 and is
        // dropped: 4 queries + 3 probes.
        let (choice, evals) = solve_matching_exact(&[10.0, 11.0, 12.0, 13.0], &[1.0; 4]);
        assert_eq!(choice, [3, 3, 3, 3]);
        assert_eq!(evals, 4 + 2 * 3);
    }

    #[test]
    fn a_line_that_wins_a_one_state_segment_pops_it() {
        // Once state 1 is queried, line 1 owns the one-state segment
        // [0, 0]. Line 0 wins it, pops it and takes over the emptied
        // deque: 2 queries + 1 probe.
        let (choice, evals) = solve_matching_exact(&[1.0, 4.0], &[5.0, 7.0]);
        assert_eq!(choice, [0, 1]);
        assert_eq!(evals, 2 + 2);
    }

    #[test]
    fn a_line_that_wins_both_ends_pops_the_segment_and_probes_the_next() {
        // Line 3 takes [0, 1] from line 4 (the bisection below). Line 2
        // then wins line 3's segment at both ends, pops it, and loses
        // line 4's segment [2, 2] at its lowest state, so it owns the
        // freed [0, 1] and state 2 stays with line 4. Lines 1 and 0 each
        // pop what is left. Probes: 4 + 3 + 2 + 1, plus 5 queries.
        let (choice, evals) =
            solve_matching_exact(&[1.0, 3.0, 4.0, 6.0, 7.0], &[7.0, 8.0, 1.0, 2.0, 1.0]);
        assert_eq!(choice, [0, 1, 4, 4, 4]);
        assert_eq!(evals, 5 + 2 * (4 + 3 + 2 + 1));
    }

    #[test]
    fn a_crossing_right_below_the_top_takes_three_probes() {
        // Line 2 wins line 3's segment [0, 2] at 0 and at 1 but loses at
        // 2: probes at lo, hi and hi − 1 settle it with no bisection.
        // Lines 1 and 0 then lose at state 0: 4 queries + 3 + 1 + 1
        // probes.
        let (choice, evals) = solve_matching_exact(&[3.0, 10.0, 12.0, 19.0], &[6.0, 9.0, 6.0, 5.0]);
        assert_eq!(choice, [2, 2, 3, 3]);
        assert_eq!(evals, 4 + 2 * (3 + 1 + 1));
    }

    #[test]
    fn an_interior_crossing_is_bisected() {
        // Line 3 wins line 4's segment [0, 3] at 0 and loses at 3 and 2:
        // the bisection of (0, 2) probes state 1, a win, so line 3 owns
        // [0, 1]. Lines 2, 1 and 0 lose at state 0: 5 queries + 4 + 1 +
        // 1 + 1 probes.
        let (choice, evals) =
            solve_matching_exact(&[1.0, 3.0, 4.0, 5.0, 6.0], &[4.0, 8.0, 2.0, 6.0, 3.0]);
        assert_eq!(choice, [3, 3, 4, 4, 4]);
        assert_eq!(evals, 5 + 2 * (4 + 1 + 1 + 1));
    }

    #[test]
    fn gate_accepts_valid_and_rejects_broken_arrays() {
        let cost = CostModel::reservation_only();
        let v = [1.0, 2.0, 4.0];
        let f = [0.5, 0.3, 0.2];
        let s = [1.0, 0.5, 0.2, 0.0];
        assert!(monotone_gate(&v, &f, &s, &cost));
        // Non-increasing values break the slope ordering.
        assert!(!monotone_gate(&[1.0, 1.0, 4.0], &f, &s, &cost));
        assert!(!monotone_gate(&[4.0, 2.0, 1.0], &f, &s, &cost));
        // Non-monotone suffix masses break the query ordering.
        assert!(!monotone_gate(&v, &f, &[0.2, 0.5, 1.0, 0.0], &cost));
        // Non-finite entries anywhere decline.
        assert!(!monotone_gate(&[1.0, f64::NAN, 4.0], &f, &s, &cost));
        assert!(!monotone_gate(&v, &[0.5, f64::INFINITY, 0.2], &s, &cost));
        // Mismatched shapes decline.
        assert!(!monotone_gate(&v, &f[..2], &s, &cost));
        assert!(!monotone_gate(&[], &[], &[0.0], &cost));
    }
}
