//! # rsj-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | target | binary | paper content |
//! |---|---|---|
//! | Table 2 | `table2` | heuristics × distributions, RESERVATIONONLY |
//! | Table 3 | `table3` | Brute-Force `t₁` vs quantile probes |
//! | Table 4 | `table4` | discretization heuristics vs sample count |
//! | Figure 1 | `fig1` | neuroscience trace fits |
//! | Figure 2 | `fig2` | simulated wait-time curve + affine fit |
//! | Figure 3 | `fig3` | `t₁` sweep landscapes |
//! | Figure 4 | `fig4` | NeuroHPC robustness sweep |
//! | §3.5 | `exp_s1` | optimal exponential `s₁ ≈ 0.74219` |
//!
//! All binaries honour `RSJ_FIDELITY=quick|paper` (default `paper`) and
//! `RSJ_RESULTS_DIR` (default `./results`). `perf_gate` is the solver's
//! counter-based CI gate against the committed `results/perf_gate.json`.

#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod report;
pub mod scenarios;

/// Default RNG seed shared by the experiment binaries; fixed for
/// reproducibility of the committed `results/`.
pub const DEFAULT_SEED: u64 = 20190520; // IPDPS 2019 conference date
