//! Seeds `results/BENCH_solvers.json`: wall-clock baselines for the
//! solver families (Brute-Force, discretized DP, exact exponential) and
//! the seeded batch simulator over the Table 1 distributions, swept over
//! worker-thread counts, plus the instrumented metrics snapshot.
//!
//! Future performance PRs diff against this file instead of folklore.
//! Each row carries a `digest` of the solver's result (FNV-1a over the
//! IEEE-754 bit patterns): rows that differ only in `threads` must have
//! equal digests — the bit-for-bit determinism contract of `rsj-par`.
//! Eval-table caches are cleared before every timed solve so timings are
//! cold-cache honest; the explicit `*_warm` rows re-solve with the cache
//! primed to expose the caching win.
//!
//! Honours `RSJ_FIDELITY` (`quick` shrinks the grids) and `RSJ_LOG`.
//! `--threads <list>` (comma-separated) overrides the default sweep of
//! {1, 2, 4, ncpu}.

use rsj_bench::perf::{digest_f64s, HostInfo, PERF_SCHEMA_VERSION};
use rsj_bench::scenarios::{paper_distributions, Fidelity, EPSILON};
use rsj_bench::{report, DEFAULT_SEED};
use rsj_core::heuristics::{optimal_discrete, optimal_discrete_exact, optimal_discrete_monotone};
use rsj_core::{BruteForce, CancelToken, CostModel, DiscretizedDp, EvalMethod, Strategy};
use rsj_dist::{discretize, DiscretizationScheme};
use rsj_obs::MetricsSnapshot;
use rsj_par::Parallelism;
use rsj_sim::run_batch_seeded;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// One timed solve: which solver, on which distribution, with how many
/// worker threads, how long, and a digest of what it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SolverTiming {
    solver: String,
    distribution: String,
    threads: usize,
    wall_seconds: f64,
    /// `wall(threads = 1) / wall(threads = t)` for the same
    /// (solver, distribution); `null` on the serial row itself.
    speedup_vs_serial: Option<f64>,
    /// FNV-1a over the result's f64 bit patterns; equal across thread
    /// counts by the determinism contract.
    digest: String,
}

/// The `results/BENCH_solvers.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SolverBaseline {
    schema_version: u32,
    fidelity: String,
    seed: u64,
    /// The machine the sweep ran on; a `speedup_vs_serial ≈ 1` row is
    /// expected when `available_parallelism` is 1 and a regression
    /// otherwise.
    #[serde(default)]
    host: HostInfo,
    /// Worker-thread counts the suite was swept over.
    threads_swept: Vec<usize>,
    /// Serial wall-time ratio `exact / monotone` of the Theorem 5 DP on
    /// the n = 10000 lognormal grid (the `dp_core_*_n10000` rows): the
    /// headline win of the `O(n log n)` fast path. The perf gate fails a
    /// PR that lets this fall below 5.
    #[serde(default)]
    monotone_speedup_n10000: Option<f64>,
    timings: Vec<SolverTiming>,
    /// Global registry after the run: solver wall-time histograms with
    /// p50/p95/p99 plus candidate/state and worker-pool counters.
    metrics: MetricsSnapshot,
}

fn parse_threads() -> Result<Option<Vec<usize>>, String> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--threads") => match args.next() {
            Some(list) => {
                let threads = list
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("--threads: `{list}` is not a list of integers"))?;
                if threads.is_empty() || threads.contains(&0) {
                    return Err("--threads: counts must be >= 1".into());
                }
                Ok(Some(threads))
            }
            None => Err("--threads requires a count or comma-separated list".into()),
        },
        Some(other) => Err(format!("unknown argument: {other}")),
        None => Ok(None),
    }
}

fn main() -> std::io::Result<()> {
    rsj_obs::init_from_env();
    rsj_obs::set_metrics_enabled(true);
    // Captured before the sweep installs its pools, so `pool_threads` is
    // the default this machine would solve with.
    let host = HostInfo::capture();

    let sweep = match parse_threads() {
        Ok(Some(list)) => list,
        Ok(None) => {
            let mut list = vec![1, 2, 4, Parallelism::available().threads()];
            list.sort_unstable();
            list.dedup();
            list
        }
        Err(msg) => {
            rsj_obs::error!("{msg}");
            eprintln!("usage: solver_baseline [--threads <n>[,<n>...]]");
            std::process::exit(2);
        }
    };

    let fidelity = Fidelity::from_env();
    let cost = CostModel::reservation_only();
    let mut timings: Vec<SolverTiming> = Vec::new();
    rsj_obs::info!(
        "timing solver baselines at {fidelity:?} fidelity, threads {:?}",
        sweep
    );

    for &threads in &sweep {
        let par = Parallelism::new(threads).expect("parse rejects zero");
        par.install_global();
        let mut time =
            |solver: &str, distribution: &str, cold: bool, f: &mut dyn FnMut() -> Vec<f64>| {
                if cold {
                    rsj_dist::clear_eval_cache();
                }
                let sw = Instant::now();
                let result = f();
                let wall_seconds = sw.elapsed().as_secs_f64();
                rsj_obs::info!("{solver} on {distribution} ({threads}t): {wall_seconds:.4}s");
                timings.push(SolverTiming {
                    solver: solver.into(),
                    distribution: distribution.into(),
                    threads,
                    wall_seconds,
                    speedup_vs_serial: None,
                    digest: digest_f64s(result),
                });
            };

        let brute = BruteForce::new(
            fidelity.grid(),
            fidelity.samples(),
            EvalMethod::Analytic,
            DEFAULT_SEED,
        )
        .expect("valid brute-force parameters");
        for nd in paper_distributions() {
            time("brute_force_analytic", nd.name, true, &mut || {
                brute
                    .sequence(nd.dist.as_ref(), &cost)
                    .expect("brute force solves the paper distributions")
                    .times()
                    .to_vec()
            });
            for (tag, scheme) in [
                ("dp_equal_time", DiscretizationScheme::EqualTime),
                (
                    "dp_equal_probability",
                    DiscretizationScheme::EqualProbability,
                ),
            ] {
                let dp = DiscretizedDp::new(scheme, fidelity.discretization(), EPSILON)
                    .expect("valid DP parameters");
                let mut solve = || {
                    dp.sequence(nd.dist.as_ref(), &cost)
                        .expect("DP solves the paper distributions")
                        .times()
                        .to_vec()
                };
                time(tag, nd.name, true, &mut solve);
                // Second solve with the eval-table cache primed.
                time(&format!("{tag}_warm"), nd.name, false, &mut solve);
            }
            time("batch_sim_seeded", nd.name, true, &mut || {
                let seq = rsj_core::MeanDoubling::default()
                    .sequence(nd.dist.as_ref(), &cost)
                    .expect("mean-doubling solves the paper distributions");
                let stats = run_batch_seeded(
                    &seq,
                    nd.dist.as_ref(),
                    &cost,
                    fidelity.samples(),
                    DEFAULT_SEED,
                    &par,
                )
                .expect("seeded batch runs");
                vec![
                    stats.mean_cost,
                    stats.p95_cost,
                    stats.max_cost,
                    stats.mean_reservations,
                    stats.max_reservations as f64,
                    stats.mean_waste,
                    stats.waste_fraction,
                ]
            });
        }

        // The closed-form §3.5 optimum only exists for Exponential(1); its
        // direct DP counterpart at the same discretization gives the
        // exact-vs-discretized cost of that special case.
        time("exact_exponential", "Exponential", true, &mut || {
            let s1 = rsj_core::exact::exponential::exp_optimal_s1();
            let c = rsj_core::exact::exponential::exp_optimal_cost(1.0);
            assert!(s1.is_finite() && c.is_finite());
            vec![s1, c]
        });
        // Monotone fast path vs exact O(n²) pass on one deep grid — the
        // core-solver comparison the perf gate tracks. The discretization
        // is built outside the timed region so both rows measure the DP
        // alone; digests must match exactly (bit-identity contract).
        {
            let lognormal = paper_distributions()
                .into_iter()
                .find(|nd| nd.name == "Lognormal")
                .expect("Table 1 has the lognormal row");
            let deep = discretize(
                lognormal.dist.as_ref(),
                DiscretizationScheme::EqualTime,
                10_000,
                EPSILON,
            )
            .expect("deep discretization succeeds");
            let solution_vec = |sol: rsj_core::DpSolution| {
                let mut out = vec![sol.expected_cost];
                out.extend(sol.values);
                out
            };
            time("dp_core_monotone_n10000", "Lognormal", true, &mut || {
                solution_vec(
                    optimal_discrete_monotone(&deep, &cost, &CancelToken::none())
                        .expect("no cancellation")
                        .expect("gate fires on the lognormal grid"),
                )
            });
            time("dp_core_exact_n10000", "Lognormal", true, &mut || {
                solution_vec(optimal_discrete_exact(&deep, &cost).expect("exact pass solves"))
            });
        }

        time("dp_discrete_direct", "Exponential", true, &mut || {
            let dist = paper_distributions()
                .into_iter()
                .find(|nd| nd.name == "Exponential")
                .expect("Table 1 has the exponential row");
            let discrete = discretize(
                dist.dist.as_ref(),
                DiscretizationScheme::EqualProbability,
                fidelity.discretization(),
                EPSILON,
            )
            .expect("discretization succeeds");
            let sol =
                optimal_discrete(&discrete, &cost).expect("DP solves the discretized exponential");
            let mut out = vec![sol.expected_cost];
            out.extend(sol.indices.iter().map(|&i| i as f64));
            out
        });
    }
    Parallelism::clear_global();

    // Speedup columns: serial reference per (solver, distribution).
    let serial: HashMap<(String, String), f64> = timings
        .iter()
        .filter(|t| t.threads == 1)
        .map(|t| ((t.solver.clone(), t.distribution.clone()), t.wall_seconds))
        .collect();
    for t in &mut timings {
        if t.threads == 1 {
            continue;
        }
        if let Some(&base) = serial.get(&(t.solver.clone(), t.distribution.clone())) {
            if t.wall_seconds > 0.0 {
                t.speedup_vs_serial = Some(base / t.wall_seconds);
            }
        }
    }

    // Determinism self-check: a digest that varies with the thread count
    // is a bug worth failing the baseline over.
    let mut digests: HashMap<(String, String), String> = HashMap::new();
    for t in &timings {
        let key = (t.solver.clone(), t.distribution.clone());
        match digests.get(&key) {
            None => {
                digests.insert(key, t.digest.clone());
            }
            Some(d) => assert_eq!(
                d, &t.digest,
                "{} on {} is not deterministic across thread counts",
                t.solver, t.distribution
            ),
        }
    }

    // The monotone fast path must reproduce the exact pass bit-for-bit:
    // a digest difference between the two core rows is a solver bug, not
    // a performance detail.
    let core_digests: Vec<&str> = ["dp_core_monotone_n10000", "dp_core_exact_n10000"]
        .iter()
        .filter_map(|s| timings.iter().find(|t| &t.solver == s))
        .map(|t| t.digest.as_str())
        .collect();
    assert_eq!(
        core_digests[0], core_digests[1],
        "monotone DP digest diverged from the exact pass"
    );
    let serial_wall = |solver: &str| {
        timings
            .iter()
            .find(|t| t.solver == solver && t.threads == *sweep.first().expect("sweep nonempty"))
            .map(|t| t.wall_seconds)
    };
    let monotone_speedup_n10000 = match (
        serial_wall("dp_core_exact_n10000"),
        serial_wall("dp_core_monotone_n10000"),
    ) {
        (Some(exact), Some(fast)) if fast > 0.0 => Some(exact / fast),
        _ => None,
    };
    if let Some(speedup) = monotone_speedup_n10000 {
        rsj_obs::info!("monotone DP speedup on the n=10000 grid: {speedup:.1}x");
    }

    let baseline = SolverBaseline {
        schema_version: PERF_SCHEMA_VERSION,
        fidelity: format!("{fidelity:?}"),
        seed: DEFAULT_SEED,
        host,
        threads_swept: sweep,
        monotone_speedup_n10000,
        timings,
        metrics: rsj_obs::global_registry().snapshot(),
    };
    let mut body = serde_json::to_string_pretty(&baseline).expect("baseline is serializable");
    body.push('\n');
    let path = report::write_result_file("BENCH_solvers.json", &body)?;
    rsj_obs::info!("solver baseline written to {}", path.display());
    Ok(())
}
