//! Synthetic neuroscience runtime archives (system S12).
//!
//! The paper's Figure 1 fits LogNormal laws to 5000+ archived runs of two
//! medical-imaging applications from Vanderbilt's private database \[14\]:
//! fMRIQA \[10\] and VBMQA \[16\]. We do not have that database; we synthesize
//! archives whose generating process matches the published fits, then run
//! the *same* fit → schedule pipeline the paper does (DESIGN.md §4.1).
//!
//! VBMQA's published fit is `LogNormal(μ=7.1128, σ=0.2039)` (seconds; §5.3).
//! The fMRIQA parameters are displayed only graphically in the paper, so a
//! plausible instance is used — it never feeds a quantitative experiment.

use crate::format::{TraceArchive, TraceRecord};
use rand::Rng;
use rand::RngCore;
use rsj_dist::{ContinuousDistribution, LogNormal};

/// VBMQA's published log-space location (seconds).
pub(crate) const VBMQA_MU: f64 = 7.1128;
/// VBMQA's published log-space scale.
pub(crate) const VBMQA_SIGMA: f64 = 0.2039;
/// fMRIQA synthetic log-space location (plausible instance; see module docs).
pub(crate) const FMRIQA_MU: f64 = 7.60;
/// fMRIQA synthetic log-space scale.
pub(crate) const FMRIQA_SIGMA: f64 = 0.35;
/// Archive span in days (July 2013 – October 2016).
pub(crate) const ARCHIVE_SPAN_DAYS: f64 = 1200.0;

/// Generator configuration for one application's synthetic archive.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Application name recorded in the archive.
    pub app: String,
    /// Generating law (runtimes in seconds).
    pub law: LogNormal,
    /// Number of runs (the paper has "over 5000").
    pub runs: usize,
    /// Fraction of contaminated runs (e.g. stragglers from preempted
    /// nodes), drawn uniformly from `[1, 3]×` the sampled runtime. Zero
    /// reproduces the clean published fit.
    pub contamination: f64,
}

impl SynthConfig {
    /// VBMQA with the paper's published fit parameters.
    pub fn vbmqa(runs: usize) -> Self {
        Self {
            app: "VBMQA".into(),
            law: LogNormal::new(VBMQA_MU, VBMQA_SIGMA).expect("published parameters are valid"),
            runs,
            contamination: 0.0,
        }
    }

    /// fMRIQA with the plausible synthetic parameters.
    pub(crate) fn fmriqa(runs: usize) -> Self {
        Self {
            app: "fMRIQA".into(),
            law: LogNormal::new(FMRIQA_MU, FMRIQA_SIGMA).expect("parameters are valid"),
            runs,
            contamination: 0.0,
        }
    }
}

/// Generates one application's archive.
pub fn synthesize(config: &SynthConfig, rng: &mut dyn RngCore) -> TraceArchive {
    assert!(config.runs > 0, "need at least one run");
    assert!(
        (0.0..=1.0).contains(&config.contamination),
        "contamination must be a fraction"
    );
    let mut records = Vec::with_capacity(config.runs);
    for _ in 0..config.runs {
        let day = rng.gen::<f64>() * ARCHIVE_SPAN_DAYS;
        let mut runtime = config.law.sample(rng);
        if rng.gen::<f64>() < config.contamination {
            runtime *= 1.0 + 2.0 * rng.gen::<f64>();
        }
        records.push(TraceRecord {
            app: config.app.clone(),
            day,
            runtime_secs: runtime,
        });
    }
    records.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("finite days"));
    TraceArchive { records }
}

/// Generates the two-application archive of Figure 1.
pub fn figure1_archive(runs_per_app: usize, rng: &mut dyn RngCore) -> TraceArchive {
    let mut a = synthesize(&SynthConfig::fmriqa(runs_per_app), rng);
    let b = synthesize(&SynthConfig::vbmqa(runs_per_app), rng);
    a.records.extend(b.records);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vbmqa_sample_mean_matches_published() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let archive = synthesize(&SynthConfig::vbmqa(5000), &mut rng);
        let runtimes = archive.runtimes_of("VBMQA");
        let mean = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
        // Published natural mean ≈ 1253.37 s.
        assert!((mean - 1253.37).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn archive_sorted_by_day_within_app() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let archive = synthesize(&SynthConfig::vbmqa(100), &mut rng);
        for w in archive.records.windows(2) {
            assert!(w[0].day <= w[1].day);
        }
        assert!(archive
            .records
            .iter()
            .all(|r| (0.0..=ARCHIVE_SPAN_DAYS).contains(&r.day)));
    }

    #[test]
    fn contamination_raises_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let clean = synthesize(&SynthConfig::vbmqa(4000), &mut rng);
        let mut cfg = SynthConfig::vbmqa(4000);
        cfg.contamination = 0.3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let dirty = synthesize(&cfg, &mut rng);
        let m = |a: &TraceArchive| {
            let r = a.runtimes_of("VBMQA");
            r.iter().sum::<f64>() / r.len() as f64
        };
        assert!(m(&dirty) > m(&clean) * 1.1);
    }

    #[test]
    fn figure1_has_both_apps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let archive = figure1_archive(500, &mut rng);
        assert_eq!(archive.runtimes_of("fMRIQA").len(), 500);
        assert_eq!(archive.runtimes_of("VBMQA").len(), 500);
    }
}
