//! Synthetic batch workloads: Poisson arrivals, weighted processor-count
//! choices, runtimes from any [`ContinuousDistribution`] and user walltime
//! over-estimation.
//!
//! This is the substrate replacing the Intrepid logs behind Figure 2 (see
//! DESIGN.md §4.2): the paper only consumes the affine wait-vs-request
//! relation, which the generator + EASY queue reproduce.

use crate::job::{Job, JobId, Time};
use rand::Rng;
use rand::RngCore;
use rsj_dist::ContinuousDistribution;
use serde::{Deserialize, Serialize};

/// Temporal shape of the arrival process.
///
/// The paper's §6 notes that HPC centers dividing resources into *seasons*
/// see users "submit more jobs toward the end of a season causing
/// contention … which results in even longer waiting times"; the
/// [`ArrivalPattern::SeasonEnd`] variant models exactly that with a
/// piecewise-homogeneous Poisson process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum ArrivalPattern {
    /// Homogeneous Poisson arrivals.
    Poisson,
    /// Seasonal arrivals: within each season of `season_length` hours, the
    /// final `rush_fraction` of the season runs at `rush_ratio ×` the base
    /// rate (the rest is scaled down to keep the season's mean rate equal
    /// to the configured `arrival_rate`).
    SeasonEnd {
        /// Season length in hours.
        season_length: Time,
        /// Fraction of the season forming the end-of-season rush, in (0, 1).
        rush_fraction: f64,
        /// Rate multiplier during the rush (`> 1`).
        rush_ratio: f64,
    },
}

impl ArrivalPattern {
    fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalPattern::Poisson => Ok(()),
            ArrivalPattern::SeasonEnd {
                season_length,
                rush_fraction,
                rush_ratio,
            } => {
                if !(season_length > 0.0) {
                    return Err("season_length must be > 0".into());
                }
                if !(0.0 < rush_fraction && rush_fraction < 1.0) {
                    return Err("rush_fraction must be in (0, 1)".into());
                }
                if !(rush_ratio > 1.0) {
                    return Err("rush_ratio must exceed 1".into());
                }
                Ok(())
            }
        }
    }

    /// Instantaneous rate multiplier at time `t` (mean 1 over a season).
    pub(crate) fn intensity(&self, t: Time) -> f64 {
        match *self {
            ArrivalPattern::Poisson => 1.0,
            ArrivalPattern::SeasonEnd {
                season_length,
                rush_fraction,
                rush_ratio,
            } => {
                // Normalize so the season-average multiplier is 1:
                // base·(1-f) + base·r·f = 1.
                let base = 1.0 / (1.0 - rush_fraction + rush_ratio * rush_fraction);
                let phase = (t / season_length).fract();
                if phase >= 1.0 - rush_fraction {
                    base * rush_ratio
                } else {
                    base
                }
            }
        }
    }
}

/// Workload generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Mean job arrival rate (jobs/hour); inter-arrivals are exponential.
    pub arrival_rate: f64,
    /// Weighted processor-count choices, e.g. `[(204, 0.3), (409, 0.2), …]`.
    pub processor_choices: Vec<(usize, f64)>,
    /// Multiplicative walltime over-estimation factor range `[lo, hi]`
    /// (users rarely request exactly their runtime; \[17\] reports heavy
    /// over-estimation). Sampled uniformly per job.
    pub overestimate: (f64, f64),
    /// Number of jobs to generate.
    pub count: usize,
}

impl WorkloadConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrival_rate > 0.0) {
            return Err(format!(
                "arrival_rate must be > 0, got {}",
                self.arrival_rate
            ));
        }
        if self.processor_choices.is_empty()
            || self
                .processor_choices
                .iter()
                .any(|&(p, w)| p == 0 || w < 0.0)
            || self.processor_choices.iter().map(|&(_, w)| w).sum::<f64>() <= 0.0
        {
            return Err("processor_choices must be non-empty with positive total weight".into());
        }
        let (lo, hi) = self.overestimate;
        if !(lo >= 1.0 && hi >= lo) {
            return Err(format!(
                "overestimate range must satisfy 1 ≤ lo ≤ hi, got ({lo}, {hi})"
            ));
        }
        if self.count == 0 {
            return Err("count must be positive".into());
        }
        Ok(())
    }
}

/// Generates a job stream whose *actual* runtimes are drawn from `runtime`
/// with homogeneous Poisson arrivals.
pub fn generate_workload(
    config: &WorkloadConfig,
    runtime: &dyn ContinuousDistribution,
    rng: &mut dyn RngCore,
) -> Vec<Job> {
    generate_workload_with_pattern(config, ArrivalPattern::Poisson, runtime, rng)
}

/// Generates a job stream with a configurable arrival pattern
/// (non-homogeneous arrivals are produced by Lewis–Shedler thinning).
pub(crate) fn generate_workload_with_pattern(
    config: &WorkloadConfig,
    pattern: ArrivalPattern,
    runtime: &dyn ContinuousDistribution,
    rng: &mut dyn RngCore,
) -> Vec<Job> {
    config.validate().expect("invalid workload configuration");
    pattern.validate().expect("invalid arrival pattern");
    let max_intensity = match pattern {
        ArrivalPattern::Poisson => 1.0,
        ArrivalPattern::SeasonEnd {
            rush_fraction,
            rush_ratio,
            ..
        } => rush_ratio / (1.0 - rush_fraction + rush_ratio * rush_fraction),
    };
    let max_rate = config.arrival_rate * max_intensity;
    let total_weight: f64 = config.processor_choices.iter().map(|&(_, w)| w).sum();
    let mut jobs = Vec::with_capacity(config.count);
    let mut clock: Time = 0.0;
    for i in 0..config.count {
        // Next arrival: exponential candidates at the max rate, thinned by
        // the instantaneous intensity.
        loop {
            let u: f64 = rng.gen();
            clock += -(1.0 - u).ln() / max_rate;
            let accept = pattern.intensity(clock) / max_intensity;
            if rng.gen::<f64>() < accept {
                break;
            }
        }

        // Weighted processor choice.
        let mut pick = rng.gen::<f64>() * total_weight;
        let mut processors = config.processor_choices[0].0;
        for &(p, w) in &config.processor_choices {
            if pick < w {
                processors = p;
                break;
            }
            pick -= w;
        }

        let actual = runtime.sample(rng).max(1e-6);
        let (lo, hi) = config.overestimate;
        let factor = lo + rng.gen::<f64>() * (hi - lo);
        jobs.push(Job {
            id: JobId(i as u64),
            arrival: clock,
            processors,
            requested: actual * factor,
            actual,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsj_dist::LogNormal;

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            arrival_rate: 10.0,
            processor_choices: vec![(204, 0.5), (409, 0.5)],
            overestimate: (1.2, 3.0),
            count: 2000,
        }
    }

    #[test]
    fn validates_config() {
        let mut bad = config();
        bad.arrival_rate = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.overestimate = (0.5, 2.0);
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.processor_choices.clear();
        assert!(bad.validate().is_err());
        assert!(config().validate().is_ok());
    }

    #[test]
    fn arrivals_are_increasing_with_poisson_rate() {
        let runtime = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let jobs = generate_workload(&config(), &runtime, &mut rng);
        assert_eq!(jobs.len(), 2000);
        for w in jobs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        // Mean inter-arrival ≈ 1/rate = 0.1 h.
        let span = jobs.last().unwrap().arrival - jobs[0].arrival;
        let mean_gap = span / (jobs.len() - 1) as f64;
        assert!((mean_gap - 0.1).abs() < 0.01, "mean gap {mean_gap}");
    }

    #[test]
    fn requested_always_covers_actual() {
        let runtime = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let jobs = generate_workload(&config(), &runtime, &mut rng);
        for j in &jobs {
            assert!(j.requested >= j.actual);
            assert!(j.processors == 204 || j.processors == 409);
        }
    }

    #[test]
    fn arrival_pattern_validation() {
        assert!(ArrivalPattern::Poisson.validate().is_ok());
        assert!(ArrivalPattern::SeasonEnd {
            season_length: 0.0,
            rush_fraction: 0.2,
            rush_ratio: 3.0
        }
        .validate()
        .is_err());
        assert!(ArrivalPattern::SeasonEnd {
            season_length: 100.0,
            rush_fraction: 1.5,
            rush_ratio: 3.0
        }
        .validate()
        .is_err());
        assert!(ArrivalPattern::SeasonEnd {
            season_length: 100.0,
            rush_fraction: 0.2,
            rush_ratio: 0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn season_intensity_averages_to_one() {
        let p = ArrivalPattern::SeasonEnd {
            season_length: 100.0,
            rush_fraction: 0.25,
            rush_ratio: 4.0,
        };
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|i| p.intensity(i as f64 * 100.0 / n as f64))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean intensity {mean}");
        // The rush really is rush_ratio× the quiet period.
        let quiet = p.intensity(10.0);
        let rush = p.intensity(90.0);
        assert!((rush / quiet - 4.0).abs() < 1e-12);
    }

    #[test]
    fn season_end_concentrates_arrivals() {
        let runtime = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let season = 100.0;
        let pattern = ArrivalPattern::SeasonEnd {
            season_length: season,
            rush_fraction: 0.2,
            rush_ratio: 5.0,
        };
        let mut cfg = config();
        cfg.count = 20_000;
        let jobs = generate_workload_with_pattern(&cfg, pattern, &runtime, &mut rng);
        // The final 20% of each season should hold roughly
        // 5·0.2/(0.8 + 5·0.2) = 55.6% of arrivals.
        let in_rush = jobs
            .iter()
            .filter(|j| (j.arrival / season).fract() >= 0.8)
            .count();
        let frac = in_rush as f64 / jobs.len() as f64;
        assert!(
            (frac - 0.556).abs() < 0.03,
            "rush fraction {frac} should be ≈ 0.556"
        );
        // The paper's §6 observation: end-of-season contention raises waits.
        let records = crate::cluster::simulate(
            &crate::cluster::ClusterConfig {
                processors: 2048,
                policy: crate::scheduler::SchedulerPolicy::EasyBackfill,
            },
            &jobs,
        );
        let mean_wait = |pred: &dyn Fn(f64) -> bool| {
            let sel: Vec<f64> = records
                .iter()
                .filter(|r| pred((r.job.arrival / season).fract()))
                .map(|r| r.wait)
                .collect();
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        let rush_wait = mean_wait(&|phase| phase >= 0.8);
        let quiet_wait = mean_wait(&|phase| phase < 0.8);
        assert!(
            rush_wait > quiet_wait,
            "end-of-season jobs should wait longer: {rush_wait} vs {quiet_wait}"
        );
    }

    #[test]
    fn processor_mix_roughly_balanced() {
        let runtime = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let jobs = generate_workload(&config(), &runtime, &mut rng);
        let big = jobs.iter().filter(|j| j.processors == 409).count();
        let frac = big as f64 / jobs.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "409-proc fraction {frac}");
    }
}
