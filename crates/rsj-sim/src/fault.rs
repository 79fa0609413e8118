//! Fault injection (system S18): deterministic, seed-reproducible failure
//! processes layered over both execution substrates — the discrete-event
//! cluster ([`crate::cluster::simulate_with_faults`]) and the reservation
//! executor ([`crate::resilient`]).
//!
//! Three processes, freely combinable:
//!
//! * **node crashes** — a Poisson process with exponential mean time
//!   between failures (`mtbf`), the classic HPC component-failure model;
//! * **spot preemptions** — a second, independent Poisson process with a
//!   configurable interruption `rate` (events per hour), modelling cloud
//!   spot/preemptible instances being reclaimed;
//! * **walltime jitter** — the platform kills a reservation up to a
//!   fraction `walltime_jitter` *before* its nominal end (real batch
//!   systems enforce limits with non-zero slop, usually early under load).
//!
//! All randomness comes from a dedicated RNG seeded by
//! [`FaultConfig::seed`], never from the workload RNG — so enabling or
//! disabling faults cannot perturb the sampled job durations, and a fixed
//! `(FaultConfig, seed)` pair reproduces the exact same fault trace.

use crate::error::{check_param, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What interrupted a reservation or running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A node crash (exponential-MTBF Poisson process).
    Crash,
    /// A spot-style preemption (rate-based Poisson process).
    Preemption,
    /// The platform killed the reservation before its nominal walltime
    /// (jitter mode).
    WalltimeKill,
}

/// One fault in a resilient run's trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// 0-based index of the interrupted attempt.
    pub attempt: usize,
    /// Sequence slot the attempt was drawn from.
    pub slot: usize,
    /// Elapsed time into the attempt when the fault struck.
    pub at: f64,
    /// What struck.
    pub kind: FaultKind,
}

/// Configuration of the fault processes. The default (all processes off)
/// is fault-free: no RNG draws occur and every simulation reproduces its
/// fault-free counterpart bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the dedicated fault RNG (independent of the workload RNG).
    #[serde(default)]
    pub seed: u64,
    /// Mean time between node crashes (hours); `None` disables crashes.
    #[serde(default)]
    pub mtbf: Option<f64>,
    /// Spot-preemption rate (interruptions per hour); `None` disables
    /// preemptions.
    #[serde(default)]
    pub preemption_rate: Option<f64>,
    /// Maximum early-kill fraction of a reservation's nominal length, in
    /// `[0, 1)`; `None` disables jitter.
    #[serde(default)]
    pub walltime_jitter: Option<f64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultConfig {
    /// The fault-free configuration.
    pub fn none() -> Self {
        Self {
            seed: 0,
            mtbf: None,
            preemption_rate: None,
            walltime_jitter: None,
        }
    }

    /// Crashes only, with the given mean time between failures.
    pub fn crashes(mtbf: f64, seed: u64) -> Self {
        Self {
            seed,
            mtbf: Some(mtbf),
            ..Self::none()
        }
    }

    /// Whether every process is disabled.
    pub fn is_fault_free(&self) -> bool {
        self.mtbf.is_none() && self.preemption_rate.is_none() && self.walltime_jitter.is_none()
    }

    /// Validates all parameters, naming the offending field on failure.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if let Some(m) = self.mtbf {
            check_param("mtbf", m, "must be > 0", m > 0.0)?;
        }
        if let Some(r) = self.preemption_rate {
            check_param("preemption_rate", r, "must be >= 0", r >= 0.0)?;
        }
        if let Some(j) = self.walltime_jitter {
            check_param(
                "walltime_jitter",
                j,
                "must be in [0, 1)",
                (0.0..1.0).contains(&j),
            )?;
        }
        Ok(())
    }
}

/// Deterministic fault-time sampler: owns the dedicated fault RNG and
/// draws in a fixed order, so identical configurations replay identical
/// fault traces regardless of what the simulation does between queries.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    mtbf: Option<f64>,
    preemption_rate: Option<f64>,
    jitter: Option<f64>,
}

impl FaultInjector {
    /// Builds an injector after validating the configuration.
    pub fn new(config: &FaultConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Self {
            rng: StdRng::seed_from_u64(config.seed),
            mtbf: config.mtbf,
            preemption_rate: config.preemption_rate,
            jitter: config.walltime_jitter,
        })
    }

    /// Builds the injector for job `job_index` of a batch, seeding its RNG
    /// from a per-job substream of [`FaultConfig::seed`]
    /// ([`rsj_par::substream_seed`]). Per-job streams make the fault trace
    /// a function of `(config.seed, job_index)` alone — independent of
    /// execution order — so batches can run their jobs in parallel and
    /// still reproduce bit-for-bit at any thread count. Fault-free
    /// configurations never draw, so they are unaffected by the seeding.
    /// The caller validates `config` once, before its batch loop.
    pub(crate) fn for_job_unvalidated(config: &FaultConfig, job_index: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(rsj_par::substream_seed(config.seed, job_index)),
            mtbf: config.mtbf,
            preemption_rate: config.preemption_rate,
            jitter: config.walltime_jitter,
        }
    }

    /// One exponential variate with the given mean (inverse-CDF method).
    fn exp_draw(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        -mean * (1.0 - u).ln()
    }

    /// First crash/preemption within a busy window of length `window`
    /// (hours from the window's start), or `None` if the window completes
    /// undisturbed.
    ///
    /// When a process is enabled its arrival is drawn unconditionally, so
    /// the number of RNG draws per query is independent of `window` — a
    /// prerequisite for trace-stable determinism.
    pub(crate) fn interruption(&mut self, window: f64) -> Option<(f64, FaultKind)> {
        let crash = self.mtbf.map(|m| self.exp_draw(m));
        let preempt = self
            .preemption_rate
            .filter(|&r| r > 0.0)
            .map(|r| self.exp_draw(1.0 / r));
        let mut first: Option<(f64, FaultKind)> = None;
        if let Some(c) = crash {
            first = Some((c, FaultKind::Crash));
        }
        if let Some(p) = preempt {
            if first.is_none_or(|(c, _)| p < c) {
                first = Some((p, FaultKind::Preemption));
            }
        }
        first.filter(|&(t, _)| t < window)
    }

    /// Effective kill time of a reservation of nominal length `nominal`:
    /// uniformly in `[(1 - jitter)·nominal, nominal]`, or exactly
    /// `nominal` when jitter is disabled (no draw).
    pub(crate) fn effective_walltime(&mut self, nominal: f64) -> f64 {
        match self.jitter {
            None => nominal,
            Some(j) => {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                nominal * (1.0 - j * u)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_never_draws() {
        assert!(FaultConfig::none().is_fault_free());
        let mut inj = FaultInjector::new(&FaultConfig::none()).unwrap();
        assert_eq!(inj.interruption(1e12), None);
        assert_eq!(inj.effective_walltime(5.0), 5.0);
    }

    #[test]
    fn validation_names_offending_field() {
        let err = FaultConfig::crashes(-1.0, 0).validate().unwrap_err();
        assert!(err.to_string().contains("mtbf"), "{err}");
        let jitter = FaultConfig {
            walltime_jitter: Some(1.5),
            ..FaultConfig::none()
        };
        let err = jitter.validate().unwrap_err();
        assert!(err.to_string().contains("walltime_jitter"), "{err}");
        let err = FaultConfig::crashes(f64::NAN, 0).validate().unwrap_err();
        assert!(err.to_string().contains("mtbf"), "{err}");
        let no_preemptions = FaultConfig {
            preemption_rate: Some(0.0),
            ..FaultConfig::none()
        };
        assert!(no_preemptions.validate().is_ok());
    }

    #[test]
    fn identical_seeds_replay_identical_traces() {
        let cfg = FaultConfig {
            seed: 42,
            mtbf: Some(3.0),
            preemption_rate: Some(0.5),
            walltime_jitter: Some(0.1),
        };
        let mut a = FaultInjector::new(&cfg).unwrap();
        let mut b = FaultInjector::new(&cfg).unwrap();
        for i in 0..200 {
            let w = 0.5 + (i % 7) as f64;
            assert_eq!(a.interruption(w), b.interruption(w));
            assert_eq!(a.effective_walltime(w), b.effective_walltime(w));
        }
    }

    #[test]
    fn per_job_injectors_replay_and_decorrelate() {
        let cfg = FaultConfig {
            seed: 42,
            mtbf: Some(3.0),
            preemption_rate: Some(0.5),
            walltime_jitter: Some(0.1),
        };
        // Same (seed, job) → identical trace.
        let mut a = FaultInjector::for_job_unvalidated(&cfg, 7);
        let mut b = FaultInjector::for_job_unvalidated(&cfg, 7);
        let trace_a: Vec<_> = (0..50).map(|_| a.interruption(2.0)).collect();
        let trace_b: Vec<_> = (0..50).map(|_| b.interruption(2.0)).collect();
        assert_eq!(trace_a, trace_b);
        // Different job index → different trace.
        let mut c = FaultInjector::for_job_unvalidated(&cfg, 8);
        let trace_c: Vec<_> = (0..50).map(|_| c.interruption(2.0)).collect();
        assert_ne!(trace_a, trace_c);
    }

    #[test]
    fn tiny_mtbf_interrupts_large_windows() {
        let mut inj = FaultInjector::new(&FaultConfig::crashes(0.01, 7)).unwrap();
        let hits = (0..100)
            .filter(|_| inj.interruption(10.0).is_some())
            .count();
        assert!(
            hits > 90,
            "mtbf 0.01 should interrupt ~all 10h windows, hit {hits}"
        );
    }

    #[test]
    fn huge_mtbf_rarely_interrupts() {
        let mut inj = FaultInjector::new(&FaultConfig::crashes(1e6, 7)).unwrap();
        let hits = (0..100).filter(|_| inj.interruption(1.0).is_some()).count();
        assert!(
            hits < 5,
            "mtbf 1e6 should almost never interrupt 1h windows, hit {hits}"
        );
    }

    #[test]
    fn preemption_beats_crash_when_earlier() {
        // With a huge MTBF and a huge preemption rate, essentially every
        // interruption should be a preemption.
        let cfg = FaultConfig {
            seed: 3,
            mtbf: Some(1e9),
            preemption_rate: Some(1e3),
            walltime_jitter: None,
        };
        let mut inj = FaultInjector::new(&cfg).unwrap();
        for _ in 0..50 {
            let (_, kind) = inj
                .interruption(1.0)
                .expect("rate 1e3 interrupts 1h windows");
            assert_eq!(kind, FaultKind::Preemption);
        }
    }

    #[test]
    fn jitter_bounds_hold() {
        let mut inj = FaultInjector::new(&FaultConfig {
            seed: 11,
            walltime_jitter: Some(0.25),
            ..FaultConfig::none()
        })
        .unwrap();
        for _ in 0..500 {
            let w = inj.effective_walltime(8.0);
            assert!(
                (8.0 * 0.75..=8.0).contains(&w),
                "jittered walltime {w} out of bounds"
            );
        }
    }

    #[test]
    fn config_json_round_trip() {
        let cfg = FaultConfig {
            seed: 9,
            mtbf: Some(24.0),
            preemption_rate: None,
            walltime_jitter: Some(0.05),
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Omitted fields default to "off".
        let minimal: FaultConfig = serde_json::from_str(r#"{ "seed": 1 }"#).unwrap();
        assert!(minimal.is_fault_free());
    }
}
