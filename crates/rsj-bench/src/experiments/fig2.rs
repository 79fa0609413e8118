//! Figure 2: average queue wait as a function of requested runtime on the
//! simulated Intrepid-like machine, for the paper's two job widths (204 and
//! 409 processors), with the affine fit that feeds the NeuroHPC cost model.

use crate::report::{write_result_file, Table};
use crate::scenarios::Fidelity;
use rand::SeedableRng;
use rsj_dist::LogNormal;
use rsj_sim::{
    analyze_wait_times, cost_model_from_queue, generate_workload, simulate, summarize,
    ClusterConfig, WaitTimeAnalysis, WorkloadConfig,
};

/// The two job widths of Figure 2.
pub(crate) const WIDTHS: [usize; 2] = [204, 409];

/// Full result of the Figure 2 experiment.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Per-width wait-time analyses.
    pub analyses: Vec<WaitTimeAnalysis>,
    /// Queue utilization achieved.
    pub utilization: f64,
}

fn workload(fidelity: Fidelity) -> WorkloadConfig {
    WorkloadConfig {
        // ~93% offered load on the 2048-processor machine. The mix includes
        // 1024-wide jobs: their long shadows are what give the 409-wide
        // class backfill opportunities, and with them the paper's affine
        // wait-vs-request relation emerges for both Figure 2 widths.
        arrival_rate: 1.85,
        processor_choices: vec![(64, 0.25), (128, 0.2), (204, 0.2), (409, 0.15), (1024, 0.2)],
        overestimate: (1.1, 3.0),
        count: match fidelity {
            Fidelity::Paper => 20_000,
            Fidelity::Quick => 6_000,
        },
    }
}

/// Runs the queue simulation and the 20-group analysis for both widths.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Fig2Result {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Actual runtimes: LogNormal with mean 3 h and std 3 h — a wide spread
    // so requested runtimes cover the Figure 2 x-axis.
    let runtime = LogNormal::from_moments(3.0, 3.0).expect("valid moments");
    let cfg = ClusterConfig::intrepid_like();
    let jobs = generate_workload(&workload(fidelity), &runtime, &mut rng);
    let records = simulate(&cfg, &jobs);
    let summary = summarize(&records, cfg.processors);
    let n_groups = match fidelity {
        Fidelity::Paper => 20,
        Fidelity::Quick => 10,
    };
    let analyses = WIDTHS
        .iter()
        .filter_map(|&w| analyze_wait_times(&records, w, n_groups))
        .collect();
    Fig2Result {
        analyses,
        utilization: summary.utilization,
    }
}

/// Runs the experiment; writes per-width group CSVs and a fit summary.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Fig2Result> {
    let result = compute(fidelity, seed);
    let mut summary = Table::new(vec![
        "processors",
        "groups",
        "alpha (slope)",
        "gamma (intercept, h)",
        "R^2",
        "paper (409): alpha",
        "paper (409): gamma",
    ]);
    for a in &result.analyses {
        let mut csv = String::from("mean_requested_h,mean_wait_h,count\n");
        for g in &a.groups {
            csv.push_str(&format!(
                "{},{},{}\n",
                g.mean_requested, g.mean_wait, g.count
            ));
        }
        write_result_file(&format!("fig2_{}procs.csv", a.processors), &csv)?;
        summary.push_row(vec![
            a.processors.to_string(),
            a.groups.len().to_string(),
            format!("{:.3}", a.fit.slope),
            format!("{:.3}", a.fit.intercept),
            format!("{:.3}", a.fit.r_squared),
            "0.95".to_string(),
            "1.05".to_string(),
        ])?;
        let cm = cost_model_from_queue(a);
        println!(
            "{} procs → NeuroHPC cost model: alpha={:.3}, beta=1, gamma={:.3} (utilization {:.2})",
            a.processors, cm.alpha, cm.gamma, result.utilization
        );
    }
    summary.emit(
        "fig2",
        "Figure 2 — simulated wait time vs requested runtime, affine fits (group data in fig2_<w>procs.csv)",
    )?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_grows_affinely_with_request() {
        let result = compute(Fidelity::Quick, 29);
        assert!(
            !result.analyses.is_empty(),
            "need at least one width analyzed"
        );
        for a in &result.analyses {
            // The Figure 2 shape: positive slope, meaningful R².
            assert!(
                a.fit.slope > 0.0,
                "{} procs: slope {} must be positive",
                a.processors,
                a.fit.slope
            );
            assert!(
                a.fit.r_squared > 0.3,
                "{} procs: R² {} too weak for an affine relation",
                a.processors,
                a.fit.r_squared
            );
            // Waits are hours-scale, not pathological.
            for g in &a.groups {
                assert!(g.mean_wait >= 0.0 && g.mean_wait < 500.0);
            }
        }
    }

    #[test]
    fn queue_is_meaningfully_loaded() {
        let result = compute(Fidelity::Quick, 29);
        assert!(
            result.utilization > 0.5,
            "utilization {} too low to produce queueing",
            result.utilization
        );
    }

    #[test]
    fn wider_jobs_wait_longer() {
        let result = compute(Fidelity::Quick, 31);
        if result.analyses.len() == 2 {
            let mean_wait = |a: &WaitTimeAnalysis| {
                a.groups.iter().map(|g| g.mean_wait).sum::<f64>() / a.groups.len() as f64
            };
            let w204 = mean_wait(&result.analyses[0]);
            let w409 = mean_wait(&result.analyses[1]);
            assert!(
                w409 > w204 * 0.8,
                "409-proc jobs ({w409}) should wait at least comparably to 204-proc ({w204})"
            );
        }
    }
}
