//! JSON configuration schemas for the CLI commands.

use rsj_core::{CostModel, SolverSpec};
use rsj_dist::DistSpec;
use rsj_sim::{AdaptiveConfig, FaultConfig};
use serde::{Deserialize, Serialize};

/// Cost-model section (`alpha`, `beta`, `gamma` of Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostSpec {
    /// Price per reserved time unit.
    pub alpha: f64,
    /// Price per used time unit (default 0).
    #[serde(default)]
    pub beta: f64,
    /// Fixed per-reservation cost (default 0).
    #[serde(default)]
    pub gamma: f64,
}

impl CostSpec {
    /// Builds the validated cost model.
    pub(crate) fn build(&self) -> Result<CostModel, String> {
        CostModel::new(self.alpha, self.beta, self.gamma).map_err(|e| e.to_string())
    }
}

/// Which heuristic to run, with its parameters.
///
/// Since the `SolverSpec` unification this is exactly the workspace-wide
/// [`SolverSpec`] — the wire shape (`kind` tag, snake_case names, the same
/// parameter defaults) is unchanged, so existing configs keep parsing, and
/// the same JSON object drives `rsj plan`, the `Planner` facade and
/// `rsj-serve` requests. One behavioral difference: an unknown DP
/// `scheme` is now rejected when the config is parsed (a typed serde
/// error naming the bad value) instead of when the solver is built.
pub(crate) type HeuristicSpec = SolverSpec;

/// `rsj plan` configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// The job-runtime law.
    pub distribution: DistSpec,
    /// The platform cost model.
    pub cost: CostSpec,
    /// Which heuristic to run.
    pub heuristic: HeuristicSpec,
    /// Maximum ladder entries to print (default 10).
    #[serde(default = "default_show")]
    pub show: usize,
}

fn default_show() -> usize {
    10
}

/// `rsj evaluate` configuration: an explicit request ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateConfig {
    /// The job-runtime law.
    pub distribution: DistSpec,
    /// The platform cost model.
    pub cost: CostSpec,
    /// The strictly increasing reservation lengths.
    pub sequence: Vec<f64>,
    /// Whether the last entry covers the whole support.
    #[serde(default)]
    pub complete: bool,
    /// Additional Monte-Carlo cross-check samples (0 to skip).
    #[serde(default)]
    pub monte_carlo_samples: usize,
    /// RNG seed for the cross-check.
    #[serde(default)]
    pub seed: u64,
}

/// `rsj simulate` configuration: batch-queue simulation + Figure 2 fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateConfig {
    /// Cluster size in processors.
    pub processors: usize,
    /// `fcfs` or `easy`.
    pub policy: String,
    /// Mean arrival rate (jobs/hour).
    pub arrival_rate: f64,
    /// Weighted processor-count choices.
    pub widths: Vec<(usize, f64)>,
    /// Actual-runtime law (hours).
    pub runtime: DistSpec,
    /// Uniform over-estimation factor range.
    pub overestimate: (f64, f64),
    /// Number of jobs.
    pub jobs: usize,
    /// Widths to analyze (wait-vs-request groups + affine fit).
    pub analyze_widths: Vec<usize>,
    /// Number of request-size groups (default 20).
    #[serde(default = "default_groups")]
    pub groups: usize,
    /// RNG seed.
    #[serde(default)]
    pub seed: u64,
    /// Optional fault-injection processes (crashes, preemptions,
    /// walltime jitter); omit for a fault-free run.
    #[serde(default)]
    pub faults: Option<FaultConfig>,
    /// Optional online adaptive replanning stream (system S19) driven by
    /// the same runtime law; omit to skip.
    #[serde(default)]
    pub adaptive: Option<AdaptiveSpec>,
}

fn default_groups() -> usize {
    20
}

/// The `adaptive` section of `rsj simulate`: plan on a prior, observe
/// (possibly censored) durations drawn from the config's `runtime` law,
/// refit and replan under guardrails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSpec {
    /// Planning prior; the truth is the simulation's `runtime` law.
    pub prior: DistSpec,
    /// Number of jobs in the adaptive stream.
    pub jobs: usize,
    /// Planning heuristic (default `mean_by_mean`).
    #[serde(default = "default_adaptive_heuristic")]
    pub heuristic: HeuristicSpec,
    /// Explicit Eq. 1 cost model. Omitted → derived from the first queue
    /// fit (`analyze_widths`), or RESERVATIONONLY when no fit exists.
    #[serde(default)]
    pub cost: Option<CostSpec>,
    /// RNG seed for the duration stream (default 0).
    #[serde(default)]
    pub seed: u64,
    /// Refit family and guardrail knobs (`family`, `refit_interval`,
    /// `hysteresis`, `max_drift`, `censor_after`, …); every knob has a
    /// default, so the whole object may be omitted.
    #[serde(default)]
    pub config: AdaptiveConfig,
}

fn default_adaptive_heuristic() -> HeuristicSpec {
    SolverSpec::MeanByMean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_config_parses_minimal_json() {
        let json = r#"{
            "distribution": { "family": "log_normal", "mu": 3.0, "sigma": 0.5 },
            "cost": { "alpha": 1.0 },
            "heuristic": { "kind": "brute_force", "grid": 100, "samples": 200 }
        }"#;
        let cfg: PlanConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.show, 10);
        assert_eq!(cfg.cost.beta, 0.0);
        assert!(cfg.heuristic.build().is_ok());
        assert!(cfg.distribution.build().is_ok());
    }

    #[test]
    fn all_heuristic_kinds_build() {
        for json in [
            r#"{ "kind": "brute_force" }"#,
            r#"{ "kind": "dp", "scheme": "equal_time" }"#,
            r#"{ "kind": "dp", "scheme": "equal_probability", "n": 50 }"#,
            r#"{ "kind": "mean_by_mean" }"#,
            r#"{ "kind": "mean_stdev" }"#,
            r#"{ "kind": "mean_doubling" }"#,
            r#"{ "kind": "median_by_median" }"#,
        ] {
            let spec: HeuristicSpec = serde_json::from_str(json).unwrap();
            assert!(spec.build().is_ok(), "{json}");
        }
    }

    #[test]
    fn bad_scheme_is_rejected_at_parse_time() {
        let err = serde_json::from_str::<HeuristicSpec>(r#"{ "kind": "dp", "scheme": "nope" }"#)
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn cost_spec_validation() {
        assert!(CostSpec {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.0
        }
        .build()
        .is_err());
        assert!(CostSpec {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0
        }
        .build()
        .is_ok());
    }

    #[test]
    fn simulate_config_parses_fault_section() {
        let json = r#"{
            "processors": 64,
            "policy": "fcfs",
            "arrival_rate": 2.0,
            "widths": [[16, 1.0]],
            "runtime": { "family": "log_normal", "mu": 0.5, "sigma": 0.6 },
            "overestimate": [1.1, 2.0],
            "jobs": 100,
            "analyze_widths": [],
            "faults": { "seed": 9, "mtbf": 12.0, "preemption_rate": 0.1 }
        }"#;
        let cfg: SimulateConfig = serde_json::from_str(json).unwrap();
        let faults = cfg.faults.unwrap();
        assert_eq!(faults.mtbf, Some(12.0));
        assert_eq!(faults.preemption_rate, Some(0.1));
        assert_eq!(faults.walltime_jitter, None);
        assert_eq!(faults.seed, 9);
    }

    #[test]
    fn malformed_fault_section_names_the_path() {
        let json = r#"{
            "processors": 64,
            "policy": "fcfs",
            "arrival_rate": 2.0,
            "widths": [[16, 1.0]],
            "runtime": { "family": "log_normal", "mu": 0.5, "sigma": 0.6 },
            "overestimate": [1.1, 2.0],
            "jobs": 100,
            "analyze_widths": [],
            "faults": { "mtbf": "often" }
        }"#;
        let err = serde_json::from_str::<SimulateConfig>(json).unwrap_err();
        assert!(err.to_string().contains("faults"), "{err}");
    }

    #[test]
    fn simulate_config_parses_adaptive_section() {
        let json = r#"{
            "processors": 64,
            "policy": "fcfs",
            "arrival_rate": 2.0,
            "widths": [[16, 1.0]],
            "runtime": { "family": "log_normal", "mu": 0.5, "sigma": 0.6 },
            "overestimate": [1.1, 2.0],
            "jobs": 100,
            "analyze_widths": [],
            "adaptive": {
                "prior": { "family": "log_normal", "mu": 0.1, "sigma": 0.6 },
                "jobs": 50,
                "config": {
                    "family": "weibull",
                    "refit_interval": 5,
                    "censor_after": 6
                }
            }
        }"#;
        let cfg: SimulateConfig = serde_json::from_str(json).unwrap();
        let ad = cfg.adaptive.unwrap();
        assert_eq!(ad.jobs, 50);
        assert_eq!(ad.heuristic, HeuristicSpec::MeanByMean);
        assert_eq!(ad.cost, None);
        assert_eq!(ad.config.family, rsj_sim::ModelFamily::Weibull);
        assert_eq!(ad.config.refit_interval, 5);
        assert_eq!(ad.config.censor_after, Some(6));
        // Defaults of the flattened guardrail knobs survive.
        assert_eq!(ad.config.hysteresis, AdaptiveConfig::default().hysteresis);
    }

    #[test]
    fn evaluate_config_round_trip() {
        let cfg = EvaluateConfig {
            distribution: DistSpec::Exponential { lambda: 1.0 },
            cost: CostSpec {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
            },
            sequence: vec![1.0, 2.0, 4.0],
            complete: false,
            monte_carlo_samples: 100,
            seed: 7,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: EvaluateConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
