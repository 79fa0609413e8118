//! CI perf gate for the solver fast path (`results/perf_gate.json`).
//!
//! Wall-clock is too noisy to gate on in a shared 1-CPU container, so the
//! gate tracks **deterministic iteration counters** instead: the monotone
//! DP's candidate-evaluation count and the exact pass's transition count
//! are pure functions of the workload, so any regression in them is a real
//! algorithmic regression, not scheduler noise.
//!
//! Fixed workload: every Table 1 distribution × both discretization
//! schemes at `n = 400`, RESERVATIONONLY cost, plus one deep case: the
//! LogNormal equal-time grid at `n = 10⁴`. For each case the gate
//! records
//!
//! * the FNV-1a digest of the auto-dispatch solution (and checks it
//!   against a forced exact solve — the bit-identity contract);
//! * whether the monotone gate fired;
//! * the monotone candidate-evaluation count.
//!
//! The deep case also records the exact pass's `n(n+1)/2` transitions,
//! so the log shows the fast path's work ratio on live data every run.
//!
//! Modes:
//!
//! * no arguments — run the workload and (re)write
//!   `results/perf_gate.json`;
//! * `--check` — run the workload and compare against the committed
//!   baseline: any digest mismatch, any case whose gate stops firing, a
//!   total evaluation count over the 18 cases more than 10% above
//!   baseline, or a deep case whose gate does not fire or whose count is
//!   more than 10% above its own baseline fails with exit code 1.

use rsj_bench::perf::{digest_f64s, PERF_SCHEMA_VERSION};
use rsj_bench::report;
use rsj_core::heuristics::{optimal_discrete, optimal_discrete_exact};
use rsj_core::CostModel;
use rsj_dist::{discretize, DiscreteDistribution, DiscretizationScheme, DistSpec};
use serde::{Deserialize, Serialize};

/// Discretization size of the gate workload — fixed (not fidelity-scaled)
/// so the committed baseline is byte-stable across environments.
const GATE_N: usize = 400;
/// Truncation quantile, matching the solver suite's default.
const GATE_EPSILON: f64 = 1e-7;
/// Allowed relative growth of an evaluation count before the gate fails.
const TOLERANCE: f64 = 0.10;
/// Discretization size of the deep case, where the exact pass makes
/// `n(n+1)/2 ≈ 5·10⁷` transitions.
const DEEP_N: usize = 10_000;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GateCase {
    distribution: String,
    scheme: String,
    /// FNV-1a digest of `[expected_cost, values...]` from the auto path.
    digest: String,
    /// The monotone fast path solved this case (no runtime decline).
    monotone_fired: bool,
    /// Candidate evaluations spent by the monotone pass.
    monotone_evals: u64,
}

/// The deep case, gated on its own: at `n = 10⁴` a fast path that stops
/// firing, or whose count grows, costs far more than at `n = 400`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DeepCase {
    n: usize,
    /// Transitions the exact pass makes on the same grid, `n(n+1)/2`.
    exact_transitions: u64,
    case: GateCase,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GateBaseline {
    schema_version: u32,
    n: usize,
    epsilon: f64,
    /// Sum of `monotone_evals` over all cases — the gated quantity.
    total_monotone_evals: u64,
    cases: Vec<GateCase>,
    deep: DeepCase,
}

/// Solves `d` through the auto-dispatch entry point and records it.
fn solve_case(name: &str, tag: &str, d: &DiscreteDistribution, cost: &CostModel) -> GateCase {
    let reg = rsj_obs::global_registry();
    let evals_before = reg.counter("rsj_core_dp_monotone_evals_total").get();
    let solves_before = reg.counter("rsj_core_dp_monotone_solves_total").get();
    let sol = optimal_discrete(d, cost).expect("auto solver succeeds");
    let monotone_evals = reg.counter("rsj_core_dp_monotone_evals_total").get() - evals_before;
    let monotone_fired = reg.counter("rsj_core_dp_monotone_solves_total").get() > solves_before;
    // Digest diff against the forced exact pass: the fast path is only
    // admissible while it is bit-identical.
    let exact = optimal_discrete_exact(d, cost).expect("exact solver succeeds");
    let digest = digest_f64s(std::iter::once(sol.expected_cost).chain(sol.values));
    let exact_digest = digest_f64s(std::iter::once(exact.expected_cost).chain(exact.values));
    assert_eq!(
        digest, exact_digest,
        "{name}/{tag}: monotone solution diverged from the exact pass"
    );
    GateCase {
        distribution: name.to_string(),
        scheme: tag.to_string(),
        digest,
        monotone_fired,
        monotone_evals,
    }
}

fn run_workload() -> GateBaseline {
    let cost = CostModel::reservation_only();
    let mut cases = Vec::new();
    let mut deep = None;
    for (name, spec) in DistSpec::paper_table1() {
        let dist = spec.build().expect("Table 1 specs build");
        for (tag, scheme) in [
            ("equal_time", DiscretizationScheme::EqualTime),
            ("equal_probability", DiscretizationScheme::EqualProbability),
        ] {
            let d = discretize(dist.as_ref(), scheme, GATE_N, GATE_EPSILON)
                .expect("Table 1 discretizations succeed");
            cases.push(solve_case(name, tag, &d, &cost));
        }
        // At n = 10⁴ four Table 1 grids abort the fast path on a near-tie;
        // the LogNormal equal-time grid does not.
        if name == "Lognormal" {
            let d = discretize(
                dist.as_ref(),
                DiscretizationScheme::EqualTime,
                DEEP_N,
                GATE_EPSILON,
            )
            .expect("the deep discretization succeeds");
            deep = Some(DeepCase {
                n: DEEP_N,
                exact_transitions: (DEEP_N * (DEEP_N + 1) / 2) as u64,
                case: solve_case(name, "equal_time", &d, &cost),
            });
        }
    }
    GateBaseline {
        schema_version: PERF_SCHEMA_VERSION,
        n: GATE_N,
        epsilon: GATE_EPSILON,
        total_monotone_evals: cases.iter().map(|c| c.monotone_evals).sum(),
        cases,
        deep: deep.expect("Table 1 has the LogNormal row"),
    }
}

/// Evaluation counts above `baseline` by more than [`TOLERANCE`] fail.
fn eval_limit(baseline: u64) -> u64 {
    (baseline as f64 * (1.0 + TOLERANCE)) as u64
}

fn check(current: &GateBaseline) -> Result<(), String> {
    let path = report::results_dir().join("perf_gate.json");
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline: GateBaseline =
        serde_json::from_str(&body).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let shape = |g: &GateBaseline| (g.n, g.deep.n, g.epsilon);
    if shape(&baseline) != shape(current) {
        return Err(format!(
            "workload shape changed (baseline n, deep n, ε = {:?}, current {:?}); regenerate the baseline",
            shape(&baseline),
            shape(current)
        ));
    }
    let mut failures = Vec::new();
    for base in &baseline.cases {
        let Some(cur) = current
            .cases
            .iter()
            .find(|c| c.distribution == base.distribution && c.scheme == base.scheme)
        else {
            failures.push(format!(
                "{}/{}: case missing from current run",
                base.distribution, base.scheme
            ));
            continue;
        };
        if cur.digest != base.digest {
            failures.push(format!(
                "{}/{}: digest changed {} -> {}",
                base.distribution, base.scheme, base.digest, cur.digest
            ));
        }
        if base.monotone_fired && !cur.monotone_fired {
            failures.push(format!(
                "{}/{}: monotone gate stopped firing (fell back to O(n²))",
                base.distribution, base.scheme
            ));
        }
    }
    let limit = eval_limit(baseline.total_monotone_evals);
    if current.total_monotone_evals > limit {
        failures.push(format!(
            "total monotone evaluations regressed >{:.0}%: {} -> {} (limit {})",
            TOLERANCE * 100.0,
            baseline.total_monotone_evals,
            current.total_monotone_evals,
            limit
        ));
    }
    let (base, cur) = (&baseline.deep.case, &current.deep.case);
    let deep_name = format!(
        "deep {}/{} n={}",
        cur.distribution, cur.scheme, current.deep.n
    );
    let deep_limit = eval_limit(base.monotone_evals);
    if cur.digest != base.digest {
        failures.push(format!(
            "{deep_name}: digest changed {} -> {}",
            base.digest, cur.digest
        ));
    }
    if !cur.monotone_fired {
        failures.push(format!(
            "{deep_name}: monotone gate did not fire (fell back to O(n²))"
        ));
    }
    if cur.monotone_evals > deep_limit {
        failures.push(format!(
            "{deep_name}: monotone evaluations regressed >{:.0}%: {} -> {} (limit {})",
            TOLERANCE * 100.0,
            base.monotone_evals,
            cur.monotone_evals,
            deep_limit
        ));
    }
    if failures.is_empty() {
        println!(
            "perf gate OK: {} cases, {} evaluations (baseline {}, limit {})",
            current.cases.len(),
            current.total_monotone_evals,
            baseline.total_monotone_evals,
            limit
        );
        println!(
            "perf gate OK: {deep_name}: {} evaluations (baseline {}, limit {}), \
             {:.0}x fewer than the exact pass's {} transitions, digest {} equal to it",
            cur.monotone_evals,
            base.monotone_evals,
            deep_limit,
            current.deep.exact_transitions as f64 / cur.monotone_evals as f64,
            current.deep.exact_transitions,
            cur.digest
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> std::io::Result<()> {
    rsj_obs::init_from_env();
    rsj_obs::set_metrics_enabled(true);
    let mode_check = match std::env::args().nth(1).as_deref() {
        Some("--check") => true,
        None => false,
        Some(other) => {
            eprintln!("unknown argument: {other}\nusage: perf_gate [--check]");
            std::process::exit(2);
        }
    };
    let current = run_workload();
    if mode_check {
        if let Err(msg) = check(&current) {
            eprintln!("perf gate FAILED:\n{msg}");
            std::process::exit(1);
        }
    } else {
        let mut body = serde_json::to_string_pretty(&current).expect("gate is serializable");
        body.push('\n');
        let path = report::write_result_file("perf_gate.json", &body)?;
        println!("perf gate baseline written to {}", path.display());
    }
    Ok(())
}
