//! CI perf gate for the solver fast path (`results/perf_gate.json`).
//!
//! Wall-clock is too noisy to gate on in a shared 1-CPU container, so the
//! gate tracks **deterministic iteration counters** instead: the monotone
//! DP's candidate-evaluation count and the exact pass's transition count
//! are pure functions of the workload, so any regression in them is a real
//! algorithmic regression, not scheduler noise.
//!
//! Fixed workload: every Table 1 distribution × both discretization
//! schemes at `n = 400`, RESERVATIONONLY cost; two deep cases at
//! `n = 10⁴` (the LogNormal equal-time and the Exponential
//! equal-probability grids, the latter with candidates within 1e-12
//! relative of each other); and seven pinned near-tie instances at
//! `n = 5000`, each with its own cost model, on which adjacent candidates
//! land within 1e-12 relative of each other, so the envelope pass decides
//! them by its rounding bound and, on the Pareto instance, by evaluating
//! the states the bound leaves open. For each case the gate records
//!
//! * the FNV-1a digest of the auto-dispatch solution (and checks it
//!   against a forced exact solve — the bit-identity contract);
//! * whether the monotone gate fired;
//! * the monotone candidate-evaluation count.
//!
//! Each deep case also records the exact pass's `n(n+1)/2` transitions,
//! so the log shows the fast path's work ratio on live data every run.
//!
//! Cold Beta and Gamma tables and simulated Beta and Gamma jobs spend
//! their time in quantiles, each a Newton loop on an incomplete beta or
//! gamma function. The gate counts those evaluations
//! ([`rsj_dist::special::evaluations`]) for four cases: Table 1's Beta and
//! Gamma equal-probability tables at `n = 1000`, and a 20,000-job
//! `run_batch_seeded` of each law on one thread.
//!
//! Modes:
//!
//! * no arguments — run the workload and (re)write
//!   `results/perf_gate.json`;
//! * `--check` — run the workload and compare against the committed
//!   baseline: any digest mismatch, any case whose gate stops firing, a
//!   total evaluation count over the 18 cases or over the near-tie cases
//!   more than 10% above baseline, a deep case whose count is more than
//!   10% above its own baseline, or a special-function count more than 10%
//!   above its own baseline fails with exit code 1. Deep and near-tie
//!   cases must always take the fast path.

use rsj_bench::perf::{digest_f64s, PERF_SCHEMA_VERSION};
use rsj_bench::report;
use rsj_core::heuristics::{optimal_discrete, optimal_discrete_exact};
use rsj_core::{CostModel, MeanDoubling, Strategy};
use rsj_dist::special::evaluations;
use rsj_dist::{discretize, DiscreteDistribution, DiscretizationScheme, DistSpec};
use rsj_par::Parallelism;
use serde::{Deserialize, Serialize};

/// Discretization size of the gate workload — fixed (not fidelity-scaled)
/// so the committed baseline is byte-stable across environments.
const GATE_N: usize = 400;
/// Truncation quantile, matching the solver suite's default.
const GATE_EPSILON: f64 = 1e-7;
/// Allowed relative growth of an evaluation count before the gate fails.
const TOLERANCE: f64 = 0.10;
/// Discretization size of the deep cases, where the exact pass makes
/// `n(n+1)/2 ≈ 5·10⁷` transitions.
const DEEP_N: usize = 10_000;
/// Discretization size of the pinned near-tie instances.
const NEAR_TIE_N: usize = 5000;
/// Discretization size of the special-function table cases.
const SPECIAL_TABLE_N: usize = 1000;
/// Jobs of each special-function simulate case, as many as a simulated
/// `offline_plan` call draws.
const SPECIAL_JOBS: usize = 20_000;
/// Seed of the simulated jobs.
const SPECIAL_SEED: u64 = 2019;

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

/// A deep case, gated on its own: at `n = 10⁴` a fast path that stops
/// firing, or whose count grows, costs far more than at `n = 400`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DeepCase {
    n: usize,
    /// Transitions the exact pass makes on the same grid, `n(n+1)/2`.
    exact_transitions: u64,
    case: GateCase,
}

/// A pinned near-tie instance with the cost model it is solved under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NearTieCase {
    cost: CostModel,
    case: GateCase,
}

/// Incomplete beta and gamma evaluations of one piece of quantile work on
/// a Table 1 law.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SpecialCase {
    distribution: String,
    /// `equal_probability` (a cold table) or `run_batch_seeded`.
    work: String,
    /// Table points or simulated jobs.
    points: usize,
    evaluations: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GateBaseline {
    schema_version: u32,
    n: usize,
    epsilon: f64,
    /// Sum of `monotone_evals` over the Table 1 cases — the gated quantity.
    total_monotone_evals: u64,
    cases: Vec<GateCase>,
    deep: Vec<DeepCase>,
    near_tie_n: usize,
    /// Sum of `monotone_evals` over the near-tie cases, gated the same way.
    near_tie_monotone_evals: u64,
    near_ties: Vec<NearTieCase>,
    /// Special-function evaluations, each case gated on its own.
    special: Vec<SpecialCase>,
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

/// The gate's two discretization schemes with their record tags.
fn scheme_tag(scheme: DiscretizationScheme) -> &'static str {
    match scheme {
        DiscretizationScheme::EqualTime => "equal_time",
        DiscretizationScheme::EqualProbability => "equal_probability",
    }
}

/// Instances from a seeded sweep at `n = 5000` whose adjacent candidates
/// land within 1e-12 relative of each other (the same seven the
/// `dp_monotone_equivalence` suite pins).
fn near_tie_instances() -> Vec<(DistSpec, DiscretizationScheme, CostModel)> {
    let reservation_only = CostModel::reservation_only();
    let shifted = CostModel::new(0.95, 1.0, 1.05).expect("valid rates");
    let startup = CostModel::new(2.0, 0.0, 10.0).expect("valid rates");
    vec![
        (
            DistSpec::Beta {
                alpha: 1.5837675221012322,
                beta: 2.8651581347315425,
            },
            DiscretizationScheme::EqualTime,
            startup,
        ),
        (
            DistSpec::LogNormal {
                mu: 2.073220080378995,
                sigma: 0.6368358144712085,
            },
            DiscretizationScheme::EqualProbability,
            shifted,
        ),
        (
            DistSpec::Weibull {
                lambda: 1.863582690801186,
                kappa: 0.41459549517196986,
            },
            DiscretizationScheme::EqualProbability,
            reservation_only,
        ),
        (
            DistSpec::Weibull {
                lambda: 1.5265797078617243,
                kappa: 0.6338323082026163,
            },
            DiscretizationScheme::EqualProbability,
            reservation_only,
        ),
        (
            DistSpec::Weibull {
                lambda: 1.6874896323246626,
                kappa: 0.44154551965519295,
            },
            DiscretizationScheme::EqualProbability,
            reservation_only,
        ),
        (
            DistSpec::BoundedPareto {
                l: 1.0215314253334118,
                h: 23.660403279930563,
                alpha: 2.1129188552000473,
            },
            DiscretizationScheme::EqualTime,
            reservation_only,
        ),
        (
            DistSpec::Pareto {
                nu: 1.6543362734003677,
                alpha: 3.333239430661084,
            },
            DiscretizationScheme::EqualTime,
            startup,
        ),
    ]
}

/// The special-function cases: Table 1's Beta and Gamma laws, each as a
/// cold equal-probability table and as a simulated batch on this thread.
fn special_cases() -> Vec<SpecialCase> {
    let cost = CostModel::reservation_only();
    let mut cases = Vec::new();
    for (name, spec) in DistSpec::paper_table1() {
        if !matches!(name, "Beta" | "Gamma") {
            continue;
        }
        let dist = spec.build().expect("Table 1 specs build");
        let before = evaluations();
        discretize(
            dist.as_ref(),
            DiscretizationScheme::EqualProbability,
            SPECIAL_TABLE_N,
            GATE_EPSILON,
        )
        .expect("Table 1 discretizations succeed");
        cases.push(SpecialCase {
            distribution: name.to_string(),
            work: "equal_probability".to_string(),
            points: SPECIAL_TABLE_N,
            evaluations: evaluations() - before,
        });
        let seq = MeanDoubling::default()
            .sequence(dist.as_ref(), &cost)
            .expect("mean doubling plans Table 1 laws");
        let before = evaluations();
        rsj_sim::run_batch_seeded(
            &seq,
            dist.as_ref(),
            &cost,
            SPECIAL_JOBS,
            SPECIAL_SEED,
            &Parallelism::serial(),
        )
        .expect("the batch runs");
        cases.push(SpecialCase {
            distribution: name.to_string(),
            work: "run_batch_seeded".to_string(),
            points: SPECIAL_JOBS,
            evaluations: evaluations() - before,
        });
    }
    cases
}

fn run_workload() -> GateBaseline {
    let cost = CostModel::reservation_only();
    let mut cases = Vec::new();
    let mut deep = Vec::new();
    for (name, spec) in DistSpec::paper_table1() {
        let dist = spec.build().expect("Table 1 specs build");
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            let d = discretize(dist.as_ref(), scheme, GATE_N, GATE_EPSILON)
                .expect("Table 1 discretizations succeed");
            cases.push(solve_case(name, scheme_tag(scheme), &d, &cost));
            // The deep cases: a grid with no near-tie and one with.
            let deep_grid = matches!(
                (name, scheme),
                ("Lognormal", DiscretizationScheme::EqualTime)
                    | ("Exponential", DiscretizationScheme::EqualProbability)
            );
            if deep_grid {
                let d = discretize(dist.as_ref(), scheme, DEEP_N, GATE_EPSILON)
                    .expect("the deep discretizations succeed");
                deep.push(DeepCase {
                    n: DEEP_N,
                    exact_transitions: (DEEP_N * (DEEP_N + 1) / 2) as u64,
                    case: solve_case(name, scheme_tag(scheme), &d, &cost),
                });
            }
        }
    }
    let near_ties: Vec<NearTieCase> = near_tie_instances()
        .into_iter()
        .map(|(spec, scheme, cost)| {
            let dist = spec.build().expect("near-tie specs build");
            let d = discretize(dist.as_ref(), scheme, NEAR_TIE_N, GATE_EPSILON)
                .expect("near-tie discretizations succeed");
            NearTieCase {
                cost,
                case: solve_case(&format!("{spec:?}"), scheme_tag(scheme), &d, &cost),
            }
        })
        .collect();
    GateBaseline {
        schema_version: PERF_SCHEMA_VERSION,
        n: GATE_N,
        epsilon: GATE_EPSILON,
        total_monotone_evals: cases.iter().map(|c| c.monotone_evals).sum(),
        cases,
        deep,
        near_tie_n: NEAR_TIE_N,
        near_tie_monotone_evals: near_ties.iter().map(|c| c.case.monotone_evals).sum(),
        near_ties,
        special: special_cases(),
    }
}

/// Evaluation counts above `baseline` by more than [`TOLERANCE`] fail.
fn eval_limit(baseline: u64) -> u64 {
    (baseline as f64 * (1.0 + TOLERANCE)) as u64
}

/// Compares one case with its baseline: the digest must not move, and a
/// case that took the fast path (or must take it) must still take it.
fn compare_case(
    label: &str,
    base: &GateCase,
    cur: &GateCase,
    must_fire: bool,
    failures: &mut Vec<String>,
) {
    if cur.digest != base.digest {
        failures.push(format!(
            "{label}: digest changed {} -> {}",
            base.digest, cur.digest
        ));
    }
    if (must_fire || base.monotone_fired) && !cur.monotone_fired {
        failures.push(format!(
            "{label}: monotone gate did not fire (fell back to O(n²))"
        ));
    }
}

/// Fails an evaluation count more than [`TOLERANCE`] above its baseline.
fn compare_count(label: &str, base: u64, cur: u64, failures: &mut Vec<String>) {
    let limit = eval_limit(base);
    if cur > limit {
        failures.push(format!(
            "{label}: evaluations regressed >{:.0}%: {base} -> {cur} (limit {limit})",
            TOLERANCE * 100.0
        ));
    }
}

/// The current run's special-function case of `base`'s law and work.
fn find_special<'a>(current: &'a GateBaseline, base: &SpecialCase) -> Option<&'a SpecialCase> {
    current
        .special
        .iter()
        .find(|c| c.distribution == base.distribution && c.work == base.work)
}

/// Matches each baseline case to the current run's case of the same
/// distribution and scheme and compares them.
fn compare_cases<'a>(
    group: &str,
    base: impl IntoIterator<Item = &'a GateCase>,
    current: &[&GateCase],
    must_fire: bool,
    failures: &mut Vec<String>,
) {
    for base in base {
        let label = format!("{group}{}/{}", base.distribution, base.scheme);
        match current
            .iter()
            .find(|c| c.distribution == base.distribution && c.scheme == base.scheme)
        {
            Some(cur) => compare_case(&label, base, cur, must_fire, failures),
            None => failures.push(format!("{label}: case missing from current run")),
        }
    }
}

/// The current run's deep case of `base`'s distribution and scheme.
fn find_deep<'a>(current: &'a GateBaseline, base: &GateCase) -> Option<&'a DeepCase> {
    current
        .deep
        .iter()
        .find(|d| d.case.distribution == base.distribution && d.case.scheme == base.scheme)
}

fn check(current: &GateBaseline) -> Result<(), String> {
    let path = report::results_dir().join("perf_gate.json");
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline: GateBaseline =
        serde_json::from_str(&body).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let shape = |g: &GateBaseline| {
        let deep: Vec<usize> = g.deep.iter().map(|d| d.n).collect();
        let special: Vec<usize> = g.special.iter().map(|c| c.points).collect();
        (g.n, deep, g.near_tie_n, special, g.epsilon)
    };
    if shape(&baseline) != shape(current) {
        return Err(format!(
            "workload shape changed (baseline n, deep n, near-tie n, special-function points, ε = {:?}, current {:?}); regenerate the baseline",
            shape(&baseline),
            shape(current)
        ));
    }
    let mut failures = Vec::new();
    let cases: Vec<&GateCase> = current.cases.iter().collect();
    compare_cases("", &baseline.cases, &cases, false, &mut failures);
    compare_count(
        "total",
        baseline.total_monotone_evals,
        current.total_monotone_evals,
        &mut failures,
    );
    for base in &baseline.deep {
        let label = format!("deep {}/{}", base.case.distribution, base.case.scheme);
        match find_deep(current, &base.case) {
            Some(cur) => {
                compare_case(&label, &base.case, &cur.case, true, &mut failures);
                compare_count(
                    &label,
                    base.case.monotone_evals,
                    cur.case.monotone_evals,
                    &mut failures,
                );
            }
            None => failures.push(format!("{label}: case missing from current run")),
        }
    }
    let near: Vec<&GateCase> = current.near_ties.iter().map(|c| &c.case).collect();
    compare_cases(
        "near-tie ",
        baseline.near_ties.iter().map(|c| &c.case),
        &near,
        true,
        &mut failures,
    );
    compare_count(
        "near-tie total",
        baseline.near_tie_monotone_evals,
        current.near_tie_monotone_evals,
        &mut failures,
    );
    for base in &baseline.special {
        let label = format!("special {}/{}", base.distribution, base.work);
        match find_special(current, base) {
            Some(cur) => compare_count(&label, base.evaluations, cur.evaluations, &mut failures),
            None => failures.push(format!("{label}: case missing from current run")),
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    println!(
        "perf gate OK: {} cases, {} evaluations (baseline {}, limit {})",
        current.cases.len(),
        current.total_monotone_evals,
        baseline.total_monotone_evals,
        eval_limit(baseline.total_monotone_evals)
    );
    for base in &baseline.deep {
        let cur = find_deep(current, &base.case).expect("matched above");
        println!(
            "perf gate OK: deep {}/{} n={}: {} evaluations (baseline {}, limit {}), \
             {:.0}x fewer than the exact pass's {} transitions, digest {} equal to it",
            cur.case.distribution,
            cur.case.scheme,
            cur.n,
            cur.case.monotone_evals,
            base.case.monotone_evals,
            eval_limit(base.case.monotone_evals),
            cur.exact_transitions as f64 / cur.case.monotone_evals as f64,
            cur.exact_transitions,
            cur.case.digest
        );
    }
    println!(
        "perf gate OK: {} near-tie cases at n={} on the fast path with the exact pass's digests, \
         {} evaluations (baseline {}, limit {})",
        current.near_ties.len(),
        current.near_tie_n,
        current.near_tie_monotone_evals,
        baseline.near_tie_monotone_evals,
        eval_limit(baseline.near_tie_monotone_evals)
    );
    for base in &baseline.special {
        let cur = find_special(current, base).expect("matched above");
        println!(
            "perf gate OK: special {}/{} over {} points: {} incomplete-function evaluations, \
             {:.2} per point (baseline {}, limit {})",
            cur.distribution,
            cur.work,
            cur.points,
            cur.evaluations,
            cur.evaluations as f64 / cur.points as f64,
            base.evaluations,
            eval_limit(base.evaluations)
        );
    }
    Ok(())
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
