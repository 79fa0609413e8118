//! The NeuroHPC scenario of §5.3: the VBMQA runtime law (in hours) under
//! the Intrepid-derived waiting-time cost model.
//!
//! Cost of a reservation of `R` hours for a job of `t` hours is
//! `wait(R) + min(R, t)` with `wait(R) = α·R + γ` fitted from Figure 2(b):
//! `α = 0.95`, `γ = 3771.84 s ≈ 1.05 h`, i.e. `CostModel(0.95, 1.0, 1.05)`.

use crate::format::TraceArchive;
use crate::pipeline::fit_archive;
use rsj_core::CostModel;
use rsj_dist::LogNormal;

/// Seconds per hour, for converting the trace fits.
pub(crate) const SECS_PER_HOUR: f64 = 3600.0;

/// The paper's base NeuroHPC moments in hours: mean ≈ 0.348 h,
/// std ≈ 0.072 h.
pub(crate) const BASE_MEAN_HOURS: f64 = 1253.37 / SECS_PER_HOUR;
/// Base standard deviation in hours.
pub(crate) const BASE_STD_HOURS: f64 = 258.261 / SECS_PER_HOUR;

/// A fully-instantiated NeuroHPC experiment: job law (hours) + cost model.
#[derive(Debug, Clone)]
pub struct NeuroHpcScenario {
    /// Job runtime law in hours.
    pub dist: LogNormal,
    /// Waiting-time cost model (`β = 1`).
    pub cost: CostModel,
}

impl NeuroHpcScenario {
    /// The paper's §5.3 instantiation: `LogNormal(7.1128, 0.2039)` seconds
    /// converted to hours, `α = 0.95`, `γ = 1.05`.
    pub fn paper() -> Self {
        // ln(X/3600) = ln X - ln 3600 shifts only the location parameter.
        let mu_hours = crate::synth::VBMQA_MU - SECS_PER_HOUR.ln();
        Self {
            dist: LogNormal::new(mu_hours, crate::synth::VBMQA_SIGMA)
                .expect("published parameters are valid"),
            cost: CostModel::new(0.95, 1.0, 1.05).expect("published cost model is valid"),
        }
    }

    /// The Figure 4 robustness sweep: the base moments scaled by
    /// `mean_factor` and `std_factor` (each up to ×10 in the paper),
    /// re-instantiated by the footnote-4 method of moments.
    pub fn with_scaled_moments(mean_factor: f64, std_factor: f64) -> Result<Self, String> {
        if !(mean_factor > 0.0 && std_factor > 0.0) {
            return Err("scale factors must be positive".into());
        }
        let dist =
            LogNormal::from_moments(BASE_MEAN_HOURS * mean_factor, BASE_STD_HOURS * std_factor)
                .map_err(|e| e.to_string())?;
        Ok(Self {
            dist,
            cost: CostModel::new(0.95, 1.0, 1.05).expect("published cost model is valid"),
        })
    }

    /// Builds the scenario from a runtime archive: fit the named
    /// application's runtimes (Figure 1's pipeline), convert to hours, and
    /// pair with the supplied cost model (e.g. from
    /// `rsj_sim::cost_model_from_queue`).
    pub fn from_archive(
        archive: &TraceArchive,
        app: &str,
        cost: CostModel,
    ) -> Result<Self, String> {
        let report = fit_archive(archive)?
            .into_iter()
            .find(|r| r.app == app)
            .ok_or_else(|| format!("application {app} not found in archive"))?;
        let mu_hours = report.mu - SECS_PER_HOUR.ln();
        let dist = LogNormal::new(mu_hours, report.sigma).map_err(|e| e.to_string())?;
        Ok(Self { dist, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsj_dist::ContinuousDistribution;

    #[test]
    fn paper_scenario_moments_in_hours() {
        let s = NeuroHpcScenario::paper();
        assert!(
            (s.dist.mean() - BASE_MEAN_HOURS).abs() < 1e-4,
            "mean {} vs {}",
            s.dist.mean(),
            BASE_MEAN_HOURS
        );
        assert!((s.dist.std_dev() - BASE_STD_HOURS).abs() < 1e-4);
        assert_eq!(s.cost.alpha, 0.95);
        assert_eq!(s.cost.beta, 1.0);
        assert_eq!(s.cost.gamma, 1.05);
    }

    #[test]
    fn scaled_moments_hit_targets() {
        for &(mf, sf) in &[(1.0, 1.0), (2.0, 5.0), (10.0, 10.0)] {
            let s = NeuroHpcScenario::with_scaled_moments(mf, sf).unwrap();
            assert!(
                (s.dist.mean() - BASE_MEAN_HOURS * mf).abs() < 1e-9,
                "mf={mf}"
            );
            assert!(
                (s.dist.std_dev() - BASE_STD_HOURS * sf).abs() < 1e-9,
                "sf={sf}"
            );
        }
        assert!(NeuroHpcScenario::with_scaled_moments(0.0, 1.0).is_err());
    }

    #[test]
    fn from_archive_round_trips_the_paper_scenario() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let archive = crate::synth::synthesize(&crate::synth::SynthConfig::vbmqa(5000), &mut rng);
        let cost = CostModel::new(0.95, 1.0, 1.05).unwrap();
        let s = NeuroHpcScenario::from_archive(&archive, "VBMQA", cost).unwrap();
        let reference = NeuroHpcScenario::paper();
        assert!(
            (s.dist.mean() - reference.dist.mean()).abs() / reference.dist.mean() < 0.05,
            "fitted mean {} vs paper {}",
            s.dist.mean(),
            reference.dist.mean()
        );
    }

    #[test]
    fn from_archive_missing_app_errors() {
        let archive = TraceArchive { records: vec![] };
        let cost = CostModel::new(0.95, 1.0, 1.05).unwrap();
        assert!(NeuroHpcScenario::from_archive(&archive, "VBMQA", cost).is_err());
    }
}
