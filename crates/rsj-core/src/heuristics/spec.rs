//! Declarative solver specifications.
//!
//! [`SolverSpec`] is the one description of "which heuristic, with which
//! parameters" shared by every entry point: `rsj-cli` JSON configs, the
//! `rsj-serve` wire protocol and the `Planner` facade all deserialize the
//! same shape and call [`SolverSpec::build`]. Short textual names
//! (`brute_force`, `dp_equal_time`, …) parse via [`FromStr`] with the
//! paper's default parameters, so flag-style interfaces share the same
//! vocabulary as the structured configs.
//!
//! [`FromStr`]: std::str::FromStr

use super::{
    BruteForce, DiscretizedDp, EvalMethod, MeanByMean, MeanDoubling, MeanStdev, MedianByMedian,
    Strategy,
};
use crate::error::{CoreError, Result};
use rsj_dist::DiscretizationScheme;
use serde::{Deserialize, Serialize};

/// The paper's brute-force grid size `M`.
pub(crate) const DEFAULT_GRID: usize = 5000;
/// The paper's Monte-Carlo sample count `N` (also the DP's default `n`).
pub(crate) const DEFAULT_SAMPLES: usize = 1000;
/// The paper's truncation quantile ε.
pub const DEFAULT_EPSILON: f64 = 1e-7;

fn default_grid() -> usize {
    DEFAULT_GRID
}
fn default_samples() -> usize {
    DEFAULT_SAMPLES
}
fn default_epsilon() -> f64 {
    DEFAULT_EPSILON
}
fn default_true() -> bool {
    true
}

/// Which reservation strategy to run, with its parameters.
///
/// The serde shape (`kind` tag, snake_case names) is the wire format of
/// both `rsj plan` configs and `rsj-serve` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SolverSpec {
    /// §4.1 Brute-Force.
    BruteForce {
        /// Grid size `M` (default 5000).
        #[serde(default = "default_grid")]
        grid: usize,
        /// Monte-Carlo samples `N` (default 1000).
        #[serde(default = "default_samples")]
        samples: usize,
        /// Score candidates analytically instead of by Monte Carlo.
        #[serde(default)]
        analytic: bool,
        /// RNG seed (default 0).
        #[serde(default)]
        seed: u64,
    },
    /// §4.2 discretization + dynamic programming.
    Dp {
        /// `equal_time` or `equal_probability`.
        scheme: DiscretizationScheme,
        /// Sample count `n` (default 1000).
        #[serde(default = "default_samples")]
        n: usize,
        /// Truncation quantile ε (default 1e-7).
        #[serde(default = "default_epsilon")]
        epsilon: f64,
        /// Whether the `O(n log n)` monotone fast path may be used
        /// (default true). The output is bit-identical either way; set
        /// false to force the exact `O(n²)` pass for A/B runs.
        #[serde(default = "default_true")]
        monotone: bool,
    },
    /// §4.3 Mean-by-Mean.
    MeanByMean,
    /// §4.3 Mean-Stdev.
    MeanStdev,
    /// §4.3 Mean-Doubling.
    MeanDoubling,
    /// §4.3 Median-by-Median.
    MedianByMedian,
}

impl SolverSpec {
    /// Instantiates the described strategy, validating parameters.
    pub fn build(&self) -> Result<Box<dyn Strategy>> {
        Ok(match *self {
            SolverSpec::BruteForce {
                grid,
                samples,
                analytic,
                seed,
            } => {
                let method = if analytic {
                    EvalMethod::Analytic
                } else {
                    EvalMethod::MonteCarlo
                };
                Box::new(BruteForce::new(grid, samples, method, seed)?)
            }
            SolverSpec::Dp {
                scheme,
                n,
                epsilon,
                monotone,
            } => Box::new(DiscretizedDp::new(scheme, n, epsilon)?.with_monotone(monotone)),
            SolverSpec::MeanByMean => Box::new(MeanByMean::default()),
            SolverSpec::MeanStdev => Box::new(MeanStdev::default()),
            SolverSpec::MeanDoubling => Box::new(MeanDoubling::default()),
            SolverSpec::MedianByMedian => Box::new(MedianByMedian::default()),
        })
    }

    /// The solver's canonical short name — what [`FromStr`] accepts and
    /// [`Display`] prints.
    ///
    /// [`FromStr`]: std::str::FromStr
    /// [`Display`]: std::fmt::Display
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::BruteForce { .. } => "brute_force",
            SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualTime,
                ..
            } => "dp_equal_time",
            SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualProbability,
                ..
            } => "dp_equal_probability",
            SolverSpec::MeanByMean => "mean_by_mean",
            SolverSpec::MeanStdev => "mean_stdev",
            SolverSpec::MeanDoubling => "mean_doubling",
            SolverSpec::MedianByMedian => "median_by_median",
        }
    }

    /// A deterministic key encoding the solver *and every parameter* —
    /// two specs produce the same key iff they configure the same solve.
    /// Plan caches (`rsj-serve`) key on this.
    pub fn config_key(&self) -> String {
        match *self {
            SolverSpec::BruteForce {
                grid,
                samples,
                analytic,
                seed,
            } => format!(
                "brute_force(grid={grid},samples={samples},analytic={analytic},seed={seed})"
            ),
            SolverSpec::Dp {
                scheme,
                n,
                epsilon,
                monotone,
            } => format!(
                "{}(n={n},epsilon={epsilon},monotone={monotone})",
                self.name_for(scheme)
            ),
            _ => format!("{}()", self.name()),
        }
    }

    fn name_for(&self, scheme: DiscretizationScheme) -> &'static str {
        match scheme {
            DiscretizationScheme::EqualTime => "dp_equal_time",
            DiscretizationScheme::EqualProbability => "dp_equal_probability",
        }
    }

    /// Re-seeds the solver where a seed applies (Brute-Force's Monte-Carlo
    /// scoring); deterministic solvers are returned unchanged. `rsj-serve`
    /// uses this to honor a request's top-level `seed` field.
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            SolverSpec::BruteForce {
                grid,
                samples,
                analytic,
                ..
            } => SolverSpec::BruteForce {
                grid,
                samples,
                analytic,
                seed,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for SolverSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SolverSpec {
    type Err = CoreError;

    /// Parses a canonical solver name into a spec with the paper's default
    /// parameters (`M = 5000`, `N = n = 1000`, `ε = 1e-7`, seed 0).
    /// Matching is case-insensitive and treats `-` and spaces as `_`.
    fn from_str(s: &str) -> Result<Self> {
        let canon: String = s
            .chars()
            .map(|c| match c {
                '-' | ' ' => '_',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        Ok(match canon.as_str() {
            "brute_force" => SolverSpec::BruteForce {
                grid: DEFAULT_GRID,
                samples: DEFAULT_SAMPLES,
                analytic: false,
                seed: 0,
            },
            "brute_force_analytic" => SolverSpec::BruteForce {
                grid: DEFAULT_GRID,
                samples: DEFAULT_SAMPLES,
                analytic: true,
                seed: 0,
            },
            "dp_equal_time" | "equal_time" => SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualTime,
                n: DEFAULT_SAMPLES,
                epsilon: DEFAULT_EPSILON,
                monotone: true,
            },
            "dp_equal_probability" | "equal_probability" => SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualProbability,
                n: DEFAULT_SAMPLES,
                epsilon: DEFAULT_EPSILON,
                monotone: true,
            },
            "mean_by_mean" => SolverSpec::MeanByMean,
            "mean_stdev" => SolverSpec::MeanStdev,
            "mean_doubling" => SolverSpec::MeanDoubling,
            "median_by_median" => SolverSpec::MedianByMedian,
            _ => {
                return Err(CoreError::UnknownName {
                    what: "solver",
                    input: s.to_string(),
                    expected: "`brute_force[_analytic]`, `dp_equal_time`, \
                               `dp_equal_probability`, `mean_by_mean`, `mean_stdev`, \
                               `mean_doubling` or `median_by_median`",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_dist::DistSpec;

    /// All seven paper solvers with default parameters, in Table 2 column
    /// order.
    fn paper_specs(seed: u64) -> Vec<SolverSpec> {
        vec![
            SolverSpec::BruteForce {
                grid: DEFAULT_GRID,
                samples: DEFAULT_SAMPLES,
                analytic: false,
                seed,
            },
            SolverSpec::MeanByMean,
            SolverSpec::MeanStdev,
            SolverSpec::MeanDoubling,
            SolverSpec::MedianByMedian,
            SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualTime,
                n: DEFAULT_SAMPLES,
                epsilon: DEFAULT_EPSILON,
                monotone: true,
            },
            SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualProbability,
                n: DEFAULT_SAMPLES,
                epsilon: DEFAULT_EPSILON,
                monotone: true,
            },
        ]
    }

    #[test]
    fn wire_shape_matches_legacy_heuristic_configs() {
        // The `kind`-tagged JSON written for the pre-SolverSpec CLI must
        // keep parsing unchanged, defaults included.
        let spec: SolverSpec =
            serde_json::from_str(r#"{ "kind": "brute_force", "grid": 100 }"#).unwrap();
        assert_eq!(
            spec,
            SolverSpec::BruteForce {
                grid: 100,
                samples: DEFAULT_SAMPLES,
                analytic: false,
                seed: 0
            }
        );
        let spec: SolverSpec =
            serde_json::from_str(r#"{ "kind": "dp", "scheme": "equal_time" }"#).unwrap();
        assert_eq!(
            spec,
            SolverSpec::Dp {
                scheme: DiscretizationScheme::EqualTime,
                n: DEFAULT_SAMPLES,
                epsilon: DEFAULT_EPSILON,
                monotone: true,
            }
        );
    }

    #[test]
    fn serde_round_trip() {
        for spec in paper_specs(7) {
            let json = serde_json::to_string(&spec).unwrap();
            let back: SolverSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
    }

    #[test]
    fn unknown_scheme_is_a_typed_parse_error() {
        let err = serde_json::from_str::<SolverSpec>(r#"{ "kind": "dp", "scheme": "nope" }"#)
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for spec in paper_specs(0) {
            let back: SolverSpec = spec.name().parse().unwrap();
            assert_eq!(back.name(), spec.name());
        }
        assert!("warp_drive".parse::<SolverSpec>().is_err());
    }

    #[test]
    fn config_keys_separate_distinct_parameterizations() {
        let a: SolverSpec = "brute_force".parse().unwrap();
        let b = SolverSpec::BruteForce {
            grid: DEFAULT_GRID,
            samples: DEFAULT_SAMPLES,
            analytic: false,
            seed: 1,
        };
        assert_ne!(a.config_key(), b.config_key());
        assert_eq!(
            a.config_key(),
            "brute_force".parse::<SolverSpec>().unwrap().config_key()
        );
    }

    #[test]
    fn every_spec_builds_and_solves() {
        let cost = crate::CostModel::reservation_only();
        let dist = DistSpec::Exponential { lambda: 1.0 }.build().unwrap();
        for name in [
            "mean_by_mean",
            "mean_stdev",
            "mean_doubling",
            "median_by_median",
        ] {
            let solver = name.parse::<SolverSpec>().unwrap().build().unwrap();
            assert!(!solver.sequence(dist.as_ref(), &cost).unwrap().is_empty());
        }
        // Parameterized solvers build; solving at paper scale is exercised
        // by the suite tests.
        assert!("brute_force".parse::<SolverSpec>().unwrap().build().is_ok());
        assert!("dp_equal_time"
            .parse::<SolverSpec>()
            .unwrap()
            .build()
            .is_ok());
    }

    #[test]
    fn eval_method_parses_and_displays() {
        assert_eq!("analytic".parse::<EvalMethod>(), Ok(EvalMethod::Analytic));
        assert_eq!(
            "Monte-Carlo".parse::<EvalMethod>(),
            Ok(EvalMethod::MonteCarlo)
        );
        for m in [EvalMethod::MonteCarlo, EvalMethod::Analytic] {
            assert_eq!(m.to_string().parse::<EvalMethod>(), Ok(m));
        }
        assert!("exact".parse::<EvalMethod>().is_err());
    }
}
