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
//! at adjacent states — a win at `h − 1` and a loss at `h` — or by a
//! segment end, and the states between probes are implied by the slope
//! order, exactly as any bisection relies on. The worst case stays
//! `O(n log n)`; on the Table 1 grids at `n = 1000` a state costs ~6
//! candidate evaluations.
//!
//! ## Bit-identity: a probe is exact, an inference is proven
//!
//! The serial `O(n²)` scan compares *floating-point* candidate values and
//! keeps the leftmost `j` on exact ties. This module reproduces those
//! decisions rather than approximating them.
//!
//! **A probe is exact.** Every comparison evaluates `cand(p, ·)` with the
//! identical expression and operation order as the serial scan, so the
//! numbers compared are the very bits the serial scan compares at state
//! `p`. The terms that depend on `j` alone are computed once per line,
//! each by the serial scan's own subexpression (see [`Line`]), and Rust
//! never contracts `a·b + c` into a fused multiply-add, so hoisting them
//! moves no bit. A probe of `c` against `d` (`c < d`) at `p` is a win when
//! `cand(p, c) ≤ cand(p, d)`: an exact tie goes to the smaller index,
//! matching the serial scan's strict-`<` update. `w[i]` is computed by
//! re-evaluating `cand(i, winner)`, the value the serial scan stores.
//!
//! **An inference is proven.** The pass also decides states it never
//! probes: the states between two wins, and every state above a loss,
//! including those of deeper segments. Write `ĉ(p, j)` for the float
//! candidate and `c(p, j)` for the same expression in exact arithmetic on
//! the same float inputs (the line's constants, `sₚ` and `aₚ`), and
//! `u = 2⁻⁵³`, `ε = 2u` (`f64::EPSILON`).
//!
//! 1. *Every term is non-negative.* The gate guarantees `α, β, γ ≥ 0`,
//!    a non-negative support and non-negative, non-increasing suffix
//!    masses. Then `aₚ`, the float prefix sums of `fₖ·vₖ ≥ 0`, is
//!    non-decreasing, so `a_{j+1} − aₚ ≥ 0` for every `j ≥ p`, and the
//!    slope, the tail `β·vⱼ·s_{j+1}` and `w` are sums and products of
//!    non-negative floats.
//! 2. *Rounding is relative.* Each of the four terms passes through at
//!    most five roundings (`β·(a_{j+1} − aₚ)`: a subtraction, a product
//!    and three additions), so by Higham's γₖ bound for sums of
//!    non-negative terms (*Accuracy and Stability of Numerical
//!    Algorithms*, 2nd ed., §3.1), `|ĉ − c| ≤ γ₅·c` with
//!    `γ₅ = 5u/(1 − 5u)`, plus at most `2⁻¹⁰⁷³` of underflow from the two
//!    products. So `|ĉ − c| < 2.6ε·ĉ + 2⁻¹⁰⁷²`.
//! 3. *Magnitudes shrink with the state.* `sₚ` is non-increasing and `aₚ`
//!    non-decreasing, so `c(q, j) ≤ c(p, j)` for `q ≥ p`: a probe at `p`
//!    bounds the rounding at every state `q ≥ p` by
//!    `2.6ε·(ĉ(p, c) + ĉ(p, d))` plus the underflow term. Rounding is
//!    monotone too, so no evaluation at `q` can overflow where the one at
//!    `p` did not.
//! 4. *The real gap is monotone.* In `g(p) = c(p, c) − c(p, d)` the
//!    `−β·aₚ` cancels, leaving `(slope_c − slope_d)·sₚ` plus terms of `c`
//!    and `d` alone. Rounding is monotone, so `v_c < v_d` and `α ≥ 0` give
//!    `slope_c ≤ slope_d`, and `g` is non-decreasing in `p`.
//! 5. *A decisive probe.* A probe at `p` with float gap `Δ = ĉ(p, c) −
//!    ĉ(p, d)` and mass `M = ĉ(p, c) + ĉ(p, d)` is decisive over states
//!    bounded by a probe of mass `M_b` when
//!    `|Δ| > 4ε·(M + M_b) + f64::MIN_POSITIVE` ([`decisive`]): by steps 2
//!    and 3 the rounding at the probe and at such a state is below
//!    `2.6ε·(M + M_b)` plus the underflow terms, and `4ε` leaves room for
//!    the rounding of `Δ`, of the masses and of the bound itself.
//!    * A decisive **loss** (`M_b = M`) is a loss at every state `q ≥ p`:
//!      `ĉ(q, c) − ĉ(q, d) ≥ g(q) − err(q) ≥ g(p) − err(q) ≥ Δ − err(p) −
//!      err(q) > 0`. That covers the rest of `d`'s segment. A state `q` of
//!      a deeper segment belongs to a line `d′ > d`, the leftmost float
//!      minimum there, so `ĉ(q, d′) < ĉ(q, d) < ĉ(q, c)`: `c` loses it
//!      too.
//!    * A decisive **win** over `[b, p]`, where `b < p` is a probed win of
//!      mass `M_b`, is a win at every state `r` between them:
//!      `ĉ(r, c) − ĉ(r, d) ≤ g(r) + err(r) ≤ g(p) + err(r) ≤ Δ + err(p) +
//!      err(r) < 0`, with `err(r)` bounded by `b`'s magnitudes. The bound
//!      is taken at the nearest win below, never at the probe alone: on a
//!      segment whose low states dwarf the probe's, the probe's own
//!      magnitudes say nothing about the rounding down there.
//!    * An exact float tie (`Δ = 0`) is never decisive: the leftmost rule
//!      decides the tied state itself and nothing else.
//!
//! **Where no bound decides, the pass looks.** The states an undecided
//! probe would have implied form the zone, and the pass evaluates the
//! serial scan's own comparison there, counted in `evals`:
//!
//! * a win at `m` that is not decisive down to the win at `b`: probe the
//!   midpoint `q` of `(b, m)`, then settle `(b, q)` and `(q, m)` the same
//!   way, the upper half against `q`'s smaller magnitudes;
//! * a first loss at `k` that is not decisive upward: evaluate `k + 1,
//!   k + 2, …`, each against its own segment's line, until a decisive loss
//!   covers the rest or the states run out.
//!
//! A zone is accepted only if its outcomes are one run of wins followed by
//! one run of losses, which is then exactly the serial scan's. A loss
//! below a win, or a non-finite candidate, **aborts** the pass, and the
//! caller falls back to the exact pass, which is correct by definition.
//!
//! The equivalence suite (`tests/dp_monotone_equivalence.rs`) and the CI
//! `perf-smoke` digest diff enforce the guarantee end to end.

use super::dp::DP_CANCEL_STRIDE;
use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::Result;
use std::collections::VecDeque;

/// The rounding bound per unit of candidate magnitude: a probe decides
/// the states it implies once its gap exceeds `ROUNDING` times the masses
/// in play. Step 5 of the module docs' proof needs `2.6ε`; `4ε` leaves room
/// for the rounding of the test itself.
const ROUNDING: f64 = 4.0 * f64::EPSILON;

/// A successful fast-path solve: the unnormalized value table `w`
/// (`w[i] = E*ᵢ·Sᵢ`, length `n + 1`), the per-state argmin `choice`, and
/// the number of candidate evaluations performed (the `O(n log n)` work
/// counter recorded as `rsj_core_dp_monotone_evals_total`).
pub(super) struct MonotoneSolve {
    pub w: Vec<f64>,
    pub choice: Vec<usize>,
    pub evals: u64,
}

/// The runtime gate: `O(n)` verification of what the envelope argument
/// and its rounding proof assume — finite, non-negative, strictly
/// increasing values, finite nonnegative masses, finite non-increasing and
/// non-negative suffix masses, and a finite cost model with `α, β, γ ≥ 0`.
/// Inputs built through [`DiscreteDistribution`] and [`CostModel::new`]
/// always satisfy this; the gate re-checks the raw arrays and the public
/// cost fields so the fast path never *assumes* upstream validation (and so
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
        || cost.beta < 0.0
        || cost.gamma < 0.0
    {
        return false;
    }
    if !(values[0] >= 0.0) {
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
    prev >= 0.0
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
#[derive(Clone, Copy)]
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

/// The new line `c` against an older line `d` at one state.
#[derive(Clone, Copy)]
struct Probe {
    /// `cand(p, c) ≤ cand(p, d)`: `c` takes the state, exactly as the
    /// serial scan decides it (the leftmost index on a tie).
    win: bool,
    /// `cand(p, c) − cand(p, d)`.
    gap: f64,
    /// `cand(p, c) + cand(p, d)`, the magnitude rounding scales with.
    mass: f64,
}

/// Whether `probe` decides the states it implies: its gap exceeds the
/// rounding at the probe and at every state whose candidates are bounded
/// by a probe of mass `base` (step 5 of the module docs).
#[inline]
fn decisive(probe: &Probe, base: f64) -> bool {
    probe.gap.abs() > ROUNDING * (probe.mass + base) + f64::MIN_POSITIVE
}

/// One envelope pass over an instance's suffix masses `s` and prefix
/// sums `a`: the deque of segments and the evaluation counter.
struct Envelope<'a> {
    s: &'a [f64],
    a: &'a [f64],
    beta: f64,
    dq: VecDeque<Seg>,
    evals: u64,
}

impl Envelope<'_> {
    /// `c` against `d` at state `p`. `None` when a candidate is not
    /// finite.
    #[inline]
    fn probe(&mut self, c: &Line, d: &Line, p: usize) -> Option<Probe> {
        let (s_p, a_p) = (self.s[p], self.a[p]);
        let cc = cand(c, self.beta, s_p, a_p);
        let cd = cand(d, self.beta, s_p, a_p);
        self.evals += 2;
        if !cc.is_finite() || !cd.is_finite() {
            return None;
        }
        Some(Probe {
            win: cc <= cd,
            gap: cc - cd,
            mass: cc + cd,
        })
    }

    /// Settles the new line `c = i` against the front segments in the
    /// module docs' probe order, popping each one it wins outright. It wins
    /// on a prefix of the remaining states `[0, i]`: returns that prefix's
    /// length, or `None` when the pass must abort.
    fn settle(&mut self, c: &Line, i: usize) -> Option<usize> {
        while let Some(&Seg {
            lo, hi, line: d, ..
        }) = self.dq.front()
        {
            let at_lo = self.probe(c, &d, lo)?;
            if !at_lo.win {
                self.losses_above(c, lo, &at_lo)?;
                return Some(lo);
            }
            if lo < hi {
                let at_hi = self.probe(c, &d, hi)?;
                if !at_hi.win {
                    // c wins at lo and loses at hi, so its first loss is in
                    // (lo, hi]: try hi − 1, then bisect (lo, hi − 1) keeping
                    // a probed win at l − 1 (of mass `l_mass`) and a probed
                    // loss at h.
                    let (mut l, mut l_mass) = (lo + 1, at_lo.mass);
                    let (mut h, mut at_h) = (hi, at_hi);
                    if hi - 1 > lo {
                        let at = self.probe(c, &d, hi - 1)?;
                        if at.win {
                            self.wins_between(c, &d, lo, at_lo.mass, hi - 1, &at)?;
                            (l, l_mass) = (hi, at.mass);
                        } else {
                            (h, at_h) = (hi - 1, at);
                        }
                    }
                    while l < h {
                        let mid = l + (h - l) / 2;
                        let at = self.probe(c, &d, mid)?;
                        if at.win {
                            self.wins_between(c, &d, l - 1, l_mass, mid, &at)?;
                            (l, l_mass) = (mid + 1, at.mass);
                        } else {
                            (h, at_h) = (mid, at);
                        }
                    }
                    self.losses_above(c, h, &at_h)?;
                    self.dq.front_mut().expect("probed segment").lo = h;
                    return Some(h);
                }
                self.wins_between(c, &d, lo, at_lo.mass, hi, &at_hi)?;
            }
            self.dq.pop_front();
        }
        Some(i + 1)
    }

    /// Proves that `c` wins every state strictly between its probed wins
    /// at `b` (of mass `b_mass`) and `m` against the segment line `d`:
    /// directly when `at_m` is decisive down to `b`, otherwise in the zone.
    /// `None` when a state in between is a loss, so that the outcomes are
    /// not a prefix.
    #[inline]
    fn wins_between(
        &mut self,
        c: &Line,
        d: &Line,
        b: usize,
        b_mass: f64,
        m: usize,
        at_m: &Probe,
    ) -> Option<()> {
        if m == b + 1 || decisive(at_m, b_mass) {
            return Some(());
        }
        self.win_zone(c, d, b, b_mass, m, at_m)
    }

    /// [`Self::wins_between`]'s undecided case: probes the midpoint `q`
    /// and settles `(b, q)` and `(q, m)` the same way, the upper half
    /// against `q`'s smaller magnitudes.
    #[cold]
    fn win_zone(
        &mut self,
        c: &Line,
        d: &Line,
        b: usize,
        b_mass: f64,
        m: usize,
        at_m: &Probe,
    ) -> Option<()> {
        let q = b + (m - b) / 2;
        let at_q = self.probe(c, d, q)?;
        if !at_q.win {
            return None;
        }
        self.wins_between(c, d, b, b_mass, q, &at_q)?;
        self.wins_between(c, d, q, at_q.mass, m, at_m)
    }

    /// Proves that `c` loses every state above its probed first loss `k`
    /// (which lies in the front segment), through the deeper segments:
    /// directly when `at_k` is decisive, otherwise in the zone. `None`
    /// when a state above is a win.
    #[inline]
    fn losses_above(&mut self, c: &Line, k: usize, at_k: &Probe) -> Option<()> {
        if decisive(at_k, at_k.mass) {
            return Some(());
        }
        self.loss_zone(c, k)
    }

    /// [`Self::losses_above`]'s undecided case: compares `c` with each
    /// state's own line from `k + 1` upward until a decisive loss covers
    /// the rest.
    #[cold]
    fn loss_zone(&mut self, c: &Line, k: usize) -> Option<()> {
        for seg in 0..self.dq.len() {
            let Seg {
                lo, hi, line: d, ..
            } = self.dq[seg];
            for p in lo.max(k + 1)..=hi {
                let at = self.probe(c, &d, p)?;
                if at.win {
                    return None;
                }
                if decisive(&at, at.mass) {
                    return Some(());
                }
            }
        }
        Some(())
    }
}

/// Attempts the fast path. `Ok(None)` means the gate declined, or the pass
/// aborted on a zone whose outcomes are not one run of wins then losses or
/// on a non-finite candidate — the caller must run the exact pass.
/// `Ok(Some(..))` is bit-identical to what the exact pass would produce
/// (see the module docs for the proof and the test suite that enforces it).
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
    let mut env = Envelope {
        s,
        a,
        beta,
        dq: VecDeque::with_capacity(64),
        evals: 0,
    };

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
        let Some(owned) = env.settle(&line, i) else {
            return Ok(None);
        };
        if owned > 0 {
            env.dq.push_front(Seg {
                j: i,
                lo: 0,
                hi: owned - 1,
                line,
            });
        }

        // Query state i: the deque partitions [0, i], so the back segment
        // contains i and its line is the envelope minimum there.
        let back = env.dq.back().expect("deque partitions [0, i]");
        debug_assert!(back.lo <= i && i <= back.hi);
        let best = cand(&back.line, beta, s[i], a[i]);
        env.evals += 1;
        if !best.is_finite() {
            // The serial scan would propagate this non-finite value into
            // every later comparison; don't try to reproduce that here.
            return Ok(None);
        }
        w[i] = best;
        choice[i] = back.j;

        // State i will never be queried again: shrink the partition to
        // [0, i-1].
        if let Some(back) = env.dq.back_mut() {
            if back.lo == i {
                env.dq.pop_back();
            } else {
                back.hi = i - 1;
            }
        }
    }

    Ok(Some(MonotoneSolve {
        w,
        choice,
        evals: env.evals,
    }))
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
            .expect("the fast path fires");

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
    fn an_undecided_loss_is_extended_by_evaluating_the_states_above() {
        // Integer support and equal masses perturbed by a few ulps. Lines
        // 2 and 1 each lose state 0 by under 2e-15 relative, inside the
        // rounding bound, so the pass evaluates state 1 as well, where the
        // loss is decisive. Line 0 loses state 0 just as narrowly, with no
        // state above it left to check: 4 queries + 3 probes + 2 zone
        // evaluations.
        let (choice, evals) = solve_matching_exact(
            &[
                1.0000000000000002,
                2.000000000000014,
                3.0000000000000018,
                4.000000000000001,
            ],
            &[
                0.9999999999999967,
                0.9999999999999999,
                0.999999999999998,
                0.9999999999999971,
            ],
        );
        assert_eq!(choice, [3, 3, 3, 3]);
        assert_eq!(evals, 4 + 2 * (3 + 2));
    }

    #[test]
    fn a_loss_under_a_win_decided_at_its_own_magnitudes_aborts() {
        // When line 3 enters, line 4 owns states 0–3. Line 3 ties state 0
        // (and takes it), loses state 1 by one ulp, and wins states 2 and
        // 3, state 3 by 1.1e-17: decisive at state 3's own magnitudes, but
        // not at state 0's, ~8,000 times larger. The serial scan gives
        // state 1 to line 4, which no envelope of lines reproduces. A bound
        // taken at the probe alone would pop the segment and hand state 1
        // to line 3; taken at the nearest win below, it leaves the states
        // in between open, and the pass evaluates state 1 and declines.
        let cost =
            CostModel::new(2.0288949126344256e-7, 2.628534233175759, 0.7779673184461704).unwrap();
        let d = DiscreteDistribution::new(
            vec![
                1.4882316740251358,
                2.405250256131548,
                3.598155577587235,
                5.9454809169657645,
                5.9454809184064406,
                15613.724390053705,
            ],
            vec![
                0.47532461074687915,
                0.8786965312401324,
                0.7662886348985852,
                9.280485921378945e-5,
                1.4117027901636909e-18,
                1.2216858633139091e-8,
            ],
        )
        .unwrap();
        let (v, f) = (d.values(), d.probs());
        let s = d.suffix_masses();
        let a = prefix_weighted_values(v, f);
        let solve = try_solve(v, f, &s, &a, &cost, &CancelToken::none()).unwrap();
        assert!(solve.is_none(), "the pass must decline");
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
        // Negative terms void the rounding bound: a negative support value,
        // a negative suffix mass, a negative β or γ.
        assert!(!monotone_gate(&[-1.0, 2.0, 4.0], &f, &s, &cost));
        assert!(!monotone_gate(&v, &f, &[0.5, 0.0, -0.3, -0.5], &cost));
        for (beta, gamma) in [(-0.5, 0.0), (0.0, -0.5)] {
            let cost = CostModel {
                alpha: 1.0,
                beta,
                gamma,
            };
            assert!(!monotone_gate(&v, &f, &s, &cost));
        }
        // Mismatched shapes decline.
        assert!(!monotone_gate(&v, &f[..2], &s, &cost));
        assert!(!monotone_gate(&[], &[], &[0.0], &cost));
    }
}
