//! Command implementations, pure enough to unit-test: each takes a parsed
//! configuration and returns its textual (or JSON) report.

use crate::config::{AdaptiveSpec, EvaluateConfig, PlanConfig, SimulateConfig};
use rand::SeedableRng;
use reservation_strategies::Planner;
use rsj_core::{
    coverage_gap, expected_cost_analytic, expected_cost_monte_carlo, CancelToken, CostModel,
    ReservationSequence,
};
use rsj_dist::ContinuousDistribution;
use rsj_obs::{Timeline, TraceContext};
use rsj_sim::{
    analyze_wait_times, cost_model_from_queue, generate_workload, run_adaptive,
    simulate_with_faults, summarize, AdaptiveReport, ClusterConfig, FaultConfig, SchedulerPolicy,
    WaitTimeAnalysis, WorkloadConfig,
};
use rsj_traces::fit_archive;
use rsj_traces::TraceArchive;
use serde::Serialize;
use serde_json::json;
use std::time::Instant;

/// Renders `value` as pretty JSON (used by `--json`).
fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable reports")
}

/// `rsj plan`: compute a ladder and report costs. Runs entirely through
/// the [`Planner`] facade, so `--json` output is the facade's [`Plan`]
/// (digest included) — byte-comparable with `rsj-serve` responses.
///
/// With `explain_solver` the report also attributes the solve: which DP
/// path fired (the `O(n log n)` monotone envelope vs the exact `O(n²)`
/// pass, and why) and whether the discretized law came warm from the
/// process-wide memo. It reads both from the `solve` stage of the plan's
/// own trace record, the same record a served trace carries. In `--json`
/// mode the explanation wraps the plan as
/// `{"plan": ..., "solver_explanation": ...}` — opt-in, so plain plan
/// output stays byte-comparable.
///
/// [`Plan`]: reservation_strategies::Plan
pub fn run_plan(cfg: &PlanConfig, json: bool, explain_solver: bool) -> Result<String, String> {
    let mut timeline = if explain_solver {
        Timeline::begin(TraceContext::generate(), Instant::now())
    } else {
        Timeline::disabled()
    };
    let plan = Planner::builder()
        .distribution(cfg.distribution.clone())
        .cost_rates(cfg.cost.alpha, cfg.cost.beta, cfg.cost.gamma)
        .solver(cfg.heuristic.clone())
        .build()
        .map_err(|e| e.to_string())?
        .plan_traced(&CancelToken::none(), &mut timeline)
        .map_err(|e| e.to_string())?;
    let record = timeline.finish("plan");
    let solve_arg = |key| record.as_ref().and_then(|r| r.stage_arg("solve", key));
    let (dp_path, eval_source) = (solve_arg("dp_path"), solve_arg("eval_table"));

    if json {
        if explain_solver {
            return Ok(to_json(&json!({
                "plan": plan,
                "solver_explanation": json!({
                    "dp_path": dp_path,
                    "eval_table": eval_source,
                }),
            })));
        }
        return Ok(to_json(&plan));
    }

    let mut out = String::new();
    out.push_str(&format!("distribution:     {}\n", plan.distribution));
    out.push_str(&format!(
        "cost model:       C(R, t) = {}·R + {}·min(R,t) + {}\n",
        cfg.cost.alpha, cfg.cost.beta, cfg.cost.gamma
    ));
    out.push_str(&format!("solver:           {}\n", plan.solver));
    let shown: Vec<String> = plan
        .sequence
        .iter()
        .take(cfg.show)
        .map(|t| format!("{t:.4}"))
        .collect();
    out.push_str(&format!(
        "request ladder:   {}{}\n",
        shown.join(", "),
        if plan.sequence.len() > cfg.show {
            ", …"
        } else {
            ""
        }
    ));
    out.push_str(&format!("ladder length:    {}\n", plan.sequence.len()));
    out.push_str(&format!("expected cost:    {:.4}\n", plan.expected_cost));
    out.push_str(&format!(
        "vs omniscient:    {:.4} (E° = {:.4})\n",
        plan.normalized_cost, plan.omniscient_cost
    ));
    out.push_str(&format!("plan digest:      {}\n", plan.digest));
    if plan.coverage_gap > 0.0 {
        out.push_str(&format!(
            "tail gap:         P(X ≥ last) = {:.2e}\n",
            plan.coverage_gap
        ));
    }
    if explain_solver {
        let path = match dp_path {
            Some("monotone") => "monotone O(n log n) envelope (runtime gate fired)",
            Some("exact_gate_declined") => {
                "exact O(n²) pass (monotone pass declined: gate, undecidable near-tie or non-finite cost)"
            }
            Some("exact_forced") => "exact O(n²) pass (monotone fast path disabled)",
            _ => "no discretized DP (closed-form or sampling heuristic)",
        };
        let table = match eval_source {
            Some("warm") => "warm (process-wide memo hit)",
            Some("cold") => "cold (discretized and last-point tail values computed fresh)",
            _ => "none (solver did not discretize)",
        };
        out.push_str(&format!("solver path:      {path}\n"));
        out.push_str(&format!("eval table:       {table}\n"));
    }
    Ok(out)
}

/// `rsj risk`: the exact cost-risk profile of a planned ladder (quantiles,
/// attempt counts). Reuses the plan configuration.
pub fn run_risk(cfg: &PlanConfig, json: bool) -> Result<String, String> {
    let dist = cfg.distribution.build().map_err(|e| e.to_string())?;
    let cost = cfg.cost.build()?;
    let heuristic = cfg.heuristic.build().map_err(|e| e.to_string())?;
    let seq = heuristic
        .sequence(dist.as_ref(), &cost)
        .map_err(|e| e.to_string())?;
    let profile = rsj_core::risk_profile(&seq, dist.as_ref(), &cost);
    let quantiles: Vec<(f64, f64)> = [0.5, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| (q, profile.cost_quantile(dist.as_ref(), q)))
        .collect();

    if json {
        return Ok(to_json(&json!({
            "heuristic": heuristic.name(),
            "expected_cost": profile.expected_cost(dist.as_ref()),
            "cost_quantiles": quantiles,
            "expected_reservations": profile.expected_reservations(),
            "prob_more_than_2_reservations": profile.prob_more_than(2),
        })));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "risk profile of {} on {}\n",
        heuristic.name(),
        dist.name()
    ));
    out.push_str(&format!(
        "expected cost:        {:.4}\n",
        profile.expected_cost(dist.as_ref())
    ));
    for (q, v) in quantiles {
        out.push_str(&format!(
            "budget at p{:<3}       {v:.4}\n",
            (q * 100.0) as u32
        ));
    }
    out.push_str(&format!(
        "expected attempts:    {:.3}\n",
        profile.expected_reservations()
    ));
    out.push_str(&format!(
        "P(> 2 attempts):      {:.2}%\n",
        profile.prob_more_than(2) * 100.0
    ));
    Ok(out)
}

/// `rsj evaluate`: score an explicit sequence.
pub fn run_evaluate(cfg: &EvaluateConfig, json: bool) -> Result<String, String> {
    let dist = cfg.distribution.build().map_err(|e| e.to_string())?;
    let cost = cfg.cost.build()?;
    let seq =
        ReservationSequence::new(cfg.sequence.clone(), cfg.complete).map_err(|e| e.to_string())?;
    let analytic = expected_cost_analytic(&seq, dist.as_ref(), &cost);
    let omniscient = cost.omniscient(dist.as_ref());
    let mc = if cfg.monte_carlo_samples > 0 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let samples = rsj_core::draw_samples(dist.as_ref(), cfg.monte_carlo_samples, &mut rng);
        Some(expected_cost_monte_carlo(&seq, &cost, &samples))
    } else {
        None
    };

    if json {
        return Ok(to_json(&json!({
            "analytic_expected_cost": analytic,
            "monte_carlo_expected_cost": mc,
            "omniscient_cost": omniscient,
            "normalized_cost": analytic / omniscient,
            "coverage_gap": coverage_gap(&seq, dist.as_ref()),
        })));
    }

    let mut out = String::new();
    out.push_str(&format!("analytic expected cost:  {analytic:.4}\n"));
    if let Some(mc) = mc {
        out.push_str(&format!(
            "monte-carlo ({} samples): {mc:.4}\n",
            cfg.monte_carlo_samples
        ));
    }
    out.push_str(&format!(
        "normalized vs omniscient: {:.4}\n",
        analytic / omniscient
    ));
    Ok(out)
}

/// `rsj fit`: LogNormal fits of a runtime-trace CSV.
pub fn run_fit(csv_text: &str, json: bool) -> Result<String, String> {
    let archive = TraceArchive::from_csv(csv_text)?;
    let reports = fit_archive(&archive)?;
    if reports.is_empty() {
        return Err("archive contains no applications".into());
    }
    if json {
        return Ok(to_json(&reports));
    }
    let mut out = String::new();
    for r in &reports {
        out.push_str(&format!(
            "{}: {} runs → LogNormal(μ={:.4}, σ={:.4}); mean {:.2}s, std {:.2}s; KS {:.4} ({})\n",
            r.app,
            r.runs,
            r.mu,
            r.sigma,
            r.natural_mean,
            r.natural_std,
            r.ks_statistic,
            if r.acceptable() {
                "fit OK"
            } else {
                "REJECTED at 1%"
            },
        ));
    }
    Ok(out)
}

/// `rsj simulate`: queue simulation + Figure 2 analysis.
pub fn run_simulate(cfg: &SimulateConfig, json: bool) -> Result<String, String> {
    let policy = match cfg.policy.as_str() {
        "fcfs" => SchedulerPolicy::Fcfs,
        "easy" => SchedulerPolicy::EasyBackfill,
        "conservative" => SchedulerPolicy::Conservative,
        "slurm" => SchedulerPolicy::SlurmLike(rsj_sim::PriorityConfig {
            high_priority_proc_hours: 100.0,
            upgrade_after: 24.0,
        }),
        other => {
            return Err(format!(
                "unknown policy: {other} (use fcfs|easy|conservative|slurm)"
            ))
        }
    };
    let runtime = cfg.runtime.build().map_err(|e| e.to_string())?;
    let workload = WorkloadConfig {
        arrival_rate: cfg.arrival_rate,
        processor_choices: cfg.widths.clone(),
        overestimate: cfg.overestimate,
        count: cfg.jobs,
    };
    workload.validate()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let jobs = generate_workload(&workload, runtime.as_ref(), &mut rng);
    let cluster = ClusterConfig {
        processors: cfg.processors,
        policy,
    };
    let faults = cfg.faults.unwrap_or_else(FaultConfig::none);
    let records = simulate_with_faults(&cluster, &jobs, &faults).map_err(|e| e.to_string())?;
    let summary = summarize(&records, cfg.processors);

    let mut analyses = Vec::new();
    for &w in &cfg.analyze_widths {
        if let Some(a) = analyze_wait_times(&records, w, cfg.groups) {
            analyses.push(a);
        }
    }

    let adaptive = match &cfg.adaptive {
        Some(spec) => Some(run_adaptive_section(spec, runtime.as_ref(), &analyses)?),
        None => None,
    };

    if json {
        return Ok(to_json(&json!({
            "summary": summary,
            "fits": analyses.iter().map(|a| json!({
                "processors": a.processors,
                "alpha": a.fit.slope,
                "gamma": a.fit.intercept,
                "r_squared": a.fit.r_squared,
            })).collect::<Vec<_>>(),
            "adaptive": adaptive.as_ref().map(|r| json!({
                "jobs": r.jobs.len(),
                "mean_cost_ratio": r.mean_cost_ratio,
                "tail_cost_ratio": r.tail_cost_ratio(r.jobs.len() / 4),
                "cumulative_regret": r.cumulative_regret,
                "replans": r.replans,
                "rejected_refits": r.rejected_refits,
                "fallbacks": r.fallbacks,
                "censored_observations": r.censored_observations,
                "gave_up": r.gave_up,
                "final_model": r.final_model,
            })),
        })));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{} jobs, {} processors, {:?}: utilization {:.1}%, mean wait {:.2} h, max wait {:.2} h\n",
        summary.completed,
        cfg.processors,
        policy,
        summary.utilization * 100.0,
        summary.mean_wait,
        summary.max_wait
    ));
    if !faults.is_fault_free() {
        out.push_str(&format!(
            "faults: {:.1}% of jobs hit by a crash/preemption/walltime kill\n",
            summary.faulted_fraction * 100.0
        ));
    }
    for a in &analyses {
        let cm = cost_model_from_queue(a);
        out.push_str(&format!(
            "{} procs: wait ≈ {:.3}·R + {:.3} h (R² {:.2}) → CostModel(α={:.3}, β=1, γ={:.3})\n",
            a.processors, a.fit.slope, a.fit.intercept, a.fit.r_squared, cm.alpha, cm.gamma
        ));
        if a.fit.r_squared < 0.2 {
            out.push_str(&format!(
                "  warning: R² = {:.2} — the affine wait model explains little here \
                 (saturated or underloaded queues flatten the wait-vs-request relation); \
                 adjust arrival_rate before trusting the cost model\n",
                a.fit.r_squared
            ));
        }
    }
    if let Some(r) = &adaptive {
        out.push_str(&format!(
            "adaptive: {} jobs, cost ratio vs oracle {:.3} (last quarter {:.3}); \
             {} replans, {} rejected, {} fallbacks, {} censored; final model {}\n",
            r.jobs.len(),
            r.mean_cost_ratio,
            r.tail_cost_ratio(r.jobs.len() / 4),
            r.replans,
            r.rejected_refits,
            r.fallbacks,
            r.censored_observations,
            r.final_model
        ));
    }
    Ok(out)
}

/// Runs the `adaptive` section of `rsj simulate`: the S19 replanning loop
/// against the simulation's runtime law, costed either explicitly or by the
/// queue-derived NeuroHPC-style model.
fn run_adaptive_section(
    spec: &AdaptiveSpec,
    truth: &dyn ContinuousDistribution,
    analyses: &[WaitTimeAnalysis],
) -> Result<AdaptiveReport, String> {
    let prior = spec.prior.build().map_err(|e| e.to_string())?;
    let strategy = spec.heuristic.build().map_err(|e| e.to_string())?;
    let cost = match &spec.cost {
        Some(c) => c.build()?,
        None => analyses
            .first()
            .map(cost_model_from_queue)
            .unwrap_or_else(CostModel::reservation_only),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    run_adaptive(
        truth,
        prior.as_ref(),
        strategy.as_ref(),
        &cost,
        spec.jobs,
        &spec.config,
        &mut rng,
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostSpec, HeuristicSpec};
    use rsj_dist::DistSpec;

    fn plan_config(heuristic: HeuristicSpec) -> PlanConfig {
        PlanConfig {
            distribution: DistSpec::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            },
            cost: CostSpec {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
            },
            heuristic,
            show: 5,
        }
    }

    #[test]
    fn plan_text_output() {
        let cfg = plan_config(HeuristicSpec::MeanByMean);
        let out = run_plan(&cfg, false, false).unwrap();
        assert!(out.contains("mean_by_mean"), "{out}");
        assert!(out.contains("request ladder"), "{out}");
        assert!(out.contains("vs omniscient"), "{out}");
        assert!(out.contains("plan digest"), "{out}");
        assert!(!out.contains("solver path"), "{out}");
    }

    #[test]
    fn plan_explain_solver_attributes_the_dp_path() {
        // A DP solve on a lognormal grid: the monotone gate fires and the
        // first build of this table is cold.
        rsj_dist::clear_eval_cache();
        let cfg = plan_config(HeuristicSpec::Dp {
            scheme: rsj_dist::DiscretizationScheme::EqualProbability,
            n: 307,
            epsilon: 1e-7,
            monotone: true,
        });
        let out = run_plan(&cfg, false, true).unwrap();
        assert!(
            out.contains("solver path:      monotone O(n log n)"),
            "{out}"
        );
        assert!(out.contains("eval table:       cold"), "{out}");

        // The same config again: the table now comes from the cache.
        let out = run_plan(&cfg, false, true).unwrap();
        assert!(out.contains("eval table:       warm"), "{out}");

        // Fast path off: the exact pass is attributed as forced.
        let cfg = plan_config(HeuristicSpec::Dp {
            scheme: rsj_dist::DiscretizationScheme::EqualProbability,
            n: 307,
            epsilon: 1e-7,
            monotone: false,
        });
        let out = run_plan(&cfg, false, true).unwrap();
        assert!(
            out.contains("exact O(n²) pass (monotone fast path disabled)"),
            "{out}"
        );

        // A closed-form heuristic never runs the DP or discretizes.
        let cfg = plan_config(HeuristicSpec::MeanByMean);
        let out = run_plan(&cfg, false, true).unwrap();
        assert!(out.contains("no discretized DP"), "{out}");
        assert!(out.contains("eval table:       none"), "{out}");
    }

    #[test]
    fn plan_explain_solver_json_wraps_plan_and_explanation() {
        // No cache clear here: clearing would race the warm-hit assertion
        // of the sibling explain test; this test's n = 211 key is unique
        // in the process, so its first build is cold regardless.
        let cfg = plan_config(HeuristicSpec::Dp {
            scheme: rsj_dist::DiscretizationScheme::EqualTime,
            n: 211,
            epsilon: 1e-7,
            monotone: true,
        });
        let out = run_plan(&cfg, true, true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["plan"]["digest"].as_str().unwrap().len(), 16);
        assert_eq!(
            v["solver_explanation"]["dp_path"].as_str(),
            Some("monotone")
        );
        assert_eq!(v["solver_explanation"]["eval_table"].as_str(), Some("cold"));
        // The unwrapped plan JSON is unchanged by the flag being off.
        let plain = run_plan(&cfg, true, false).unwrap();
        let p: serde_json::Value = serde_json::from_str(&plain).unwrap();
        assert_eq!(p["digest"], v["plan"]["digest"]);
    }

    #[test]
    fn plan_explain_solver_reports_the_monotone_pass_on_a_near_tie_law() {
        // Beta(1.7, 1.8), equal-time, n = 5000 under RESERVATIONONLY
        // compares two candidates within 1e-12 relative of each other; the
        // monotone pass decides them, and the explanation says it ran.
        let cfg = PlanConfig {
            distribution: DistSpec::Beta {
                alpha: 1.7,
                beta: 1.8,
            },
            ..plan_config(HeuristicSpec::Dp {
                scheme: rsj_dist::DiscretizationScheme::EqualTime,
                n: 5000,
                epsilon: 1e-7,
                monotone: true,
            })
        };
        let out = run_plan(&cfg, false, true).unwrap();
        assert!(
            out.contains("monotone O(n log n) envelope (runtime gate fired)"),
            "{out}"
        );
        let out = run_plan(&cfg, true, true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            v["solver_explanation"]["dp_path"].as_str(),
            Some("monotone")
        );
    }

    #[test]
    fn plan_json_output_parses() {
        let cfg = plan_config(HeuristicSpec::Dp {
            scheme: rsj_dist::DiscretizationScheme::EqualTime,
            n: 200,
            epsilon: 1e-7,
            monotone: true,
        });
        let out = run_plan(&cfg, true, false).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["normalized_cost"].as_f64().unwrap() > 1.0);
        assert!(v["sequence"].as_array().unwrap().len() > 2);
        assert_eq!(v["digest"].as_str().unwrap().len(), 16);
    }

    #[test]
    fn evaluate_uniform_optimum() {
        let cfg = EvaluateConfig {
            distribution: DistSpec::Uniform { a: 10.0, b: 20.0 },
            cost: CostSpec {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
            },
            sequence: vec![20.0],
            complete: true,
            monte_carlo_samples: 500,
            seed: 1,
        };
        let out = run_evaluate(&cfg, false).unwrap();
        assert!(out.contains("1.3333"), "{out}");
        let json_out = run_evaluate(&cfg, true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json_out).unwrap();
        assert!((v["analytic_expected_cost"].as_f64().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_rejects_bad_sequence() {
        let cfg = EvaluateConfig {
            distribution: DistSpec::Uniform { a: 10.0, b: 20.0 },
            cost: CostSpec {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
            },
            sequence: vec![20.0, 15.0],
            complete: true,
            monte_carlo_samples: 0,
            seed: 0,
        };
        assert!(run_evaluate(&cfg, false).is_err());
    }

    #[test]
    fn fit_command_round_trip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let archive = rsj_traces::synthesize(&rsj_traces::SynthConfig::vbmqa(2000), &mut rng);
        let out = run_fit(&archive.to_csv(), false).unwrap();
        assert!(out.contains("VBMQA"), "{out}");
        assert!(out.contains("fit OK"), "{out}");
        assert!(run_fit("garbage", false).is_err());
    }

    fn simulate_config() -> SimulateConfig {
        SimulateConfig {
            processors: 256,
            policy: "easy".into(),
            arrival_rate: 4.0,
            widths: vec![(16, 0.5), (64, 0.3), (128, 0.2)],
            runtime: DistSpec::LogNormal {
                mu: 0.5,
                sigma: 0.6,
            },
            overestimate: (1.1, 2.0),
            jobs: 1500,
            analyze_widths: vec![64],
            groups: 8,
            seed: 5,
            faults: None,
            adaptive: None,
        }
    }

    #[test]
    fn simulate_command_smoke() {
        let cfg = simulate_config();
        let out = run_simulate(&cfg, false).unwrap();
        assert!(out.contains("utilization"), "{out}");
        assert!(
            !out.contains("faults:"),
            "fault-free runs stay quiet: {out}"
        );
        let json_out = run_simulate(&cfg, true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json_out).unwrap();
        assert!(v["summary"]["completed"].as_u64().unwrap() == 1500);
        // Bad policy errors.
        let mut bad = cfg;
        bad.policy = "priority".into();
        assert!(run_simulate(&bad, false).is_err());
    }

    #[test]
    fn simulate_command_reports_faults() {
        let mut cfg = simulate_config();
        cfg.faults = Some(rsj_sim::FaultConfig::crashes(2.0, 11));
        let out = run_simulate(&cfg, false).unwrap();
        assert!(out.contains("faults:"), "{out}");
        let json_out = run_simulate(&cfg, true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json_out).unwrap();
        assert!(v["summary"]["faulted_fraction"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn simulate_command_runs_adaptive_section() {
        let mut cfg = simulate_config();
        cfg.adaptive = Some(AdaptiveSpec {
            prior: DistSpec::LogNormal {
                mu: -0.2,
                sigma: 0.6,
            },
            jobs: 60,
            heuristic: HeuristicSpec::MeanByMean,
            cost: None,
            seed: 3,
            config: rsj_sim::AdaptiveConfig {
                censor_after: Some(8),
                ..rsj_sim::AdaptiveConfig::default()
            },
        });
        let out = run_simulate(&cfg, false).unwrap();
        assert!(out.contains("adaptive:"), "{out}");
        let json_out = run_simulate(&cfg, true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json_out).unwrap();
        assert_eq!(v["adaptive"]["jobs"].as_u64().unwrap(), 60);
        let ratio = v["adaptive"]["mean_cost_ratio"].as_f64().unwrap();
        assert!(ratio > 0.5 && ratio < 3.0, "{ratio}");
    }

    #[test]
    fn simulate_command_rejects_bad_adaptive_config() {
        let mut cfg = simulate_config();
        cfg.adaptive = Some(AdaptiveSpec {
            prior: DistSpec::LogNormal {
                mu: -0.2,
                sigma: 0.6,
            },
            jobs: 10,
            heuristic: HeuristicSpec::MeanByMean,
            cost: None,
            seed: 0,
            config: rsj_sim::AdaptiveConfig {
                max_drift: 0.5,
                ..rsj_sim::AdaptiveConfig::default()
            },
        });
        let err = run_simulate(&cfg, false).unwrap_err();
        assert!(err.contains("max_drift"), "error names the field: {err}");
    }

    #[test]
    fn simulate_command_rejects_bad_fault_config() {
        let mut cfg = simulate_config();
        cfg.faults = Some(rsj_sim::FaultConfig::crashes(-3.0, 0));
        let err = run_simulate(&cfg, false).unwrap_err();
        assert!(err.contains("mtbf"), "error names the field: {err}");
    }
}
