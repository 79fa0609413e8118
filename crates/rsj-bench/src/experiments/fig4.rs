//! Figure 4: the NeuroHPC scenario — normalized expected costs of all
//! heuristics on the VBMQA LogNormal (in hours) under the Intrepid
//! waiting-time cost model, with the distribution's mean and standard
//! deviation scaled by up to ×10.

use crate::report::{fmt_ratio, Table};
use crate::scenarios::{heuristic_suite, Fidelity};
use rand::SeedableRng;
use rsj_core::{draw_samples, expected_cost_monte_carlo};
use rsj_dist::ContinuousDistribution;
use rsj_par::Parallelism;
use rsj_traces::NeuroHpcScenario;

/// The `(mean_factor, std_factor)` grid of the robustness sweep.
pub(crate) fn factor_grid(fidelity: Fidelity) -> Vec<(f64, f64)> {
    let factors: &[f64] = match fidelity {
        Fidelity::Paper => &[1.0, 2.0, 4.0, 7.0, 10.0],
        Fidelity::Quick => &[1.0, 10.0],
    };
    let mut grid = Vec::new();
    for &mf in factors {
        for &sf in factors {
            grid.push((mf, sf));
        }
    }
    grid
}

/// One scenario's results.
#[derive(Debug, Clone)]
pub struct Row {
    /// Mean scale factor.
    pub mean_factor: f64,
    /// Standard-deviation scale factor.
    pub std_factor: f64,
    /// `(heuristic, Ẽ(S)/E°)` in suite order.
    pub costs: Vec<(String, Option<f64>)>,
}

/// Computes the Figure 4 sweep.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let grid = factor_grid(fidelity);
    Parallelism::current().par_map(&grid, |i, &(mf, sf)| {
        let scenario = NeuroHpcScenario::with_scaled_moments(mf, sf).expect("positive factors");
        let dist: &dyn ContinuousDistribution = &scenario.dist;
        let cost = scenario.cost;
        let suite = heuristic_suite(fidelity, seed.wrapping_add(i as u64));
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(i as u64));
        let samples = draw_samples(dist, fidelity.samples(), &mut rng);
        let omniscient = cost.omniscient(dist);
        let costs = suite
            .iter()
            .map(|h| {
                let ratio = h
                    .sequence(dist, &cost)
                    .ok()
                    .map(|seq| expected_cost_monte_carlo(&seq, &cost, &samples) / omniscient);
                (h.name().to_string(), ratio)
            })
            .collect();
        Row {
            mean_factor: mf,
            std_factor: sf,
            costs,
        }
    })
}

/// Renders the sweep as a long-format table.
pub(crate) fn render(rows: &[Row]) -> Result<Table, crate::report::ReportError> {
    let mut header = vec!["mean x".to_string(), "std x".to_string()];
    if let Some(first) = rows.first() {
        header.extend(first.costs.iter().map(|(n, _)| n.clone()));
    }
    let mut table = Table::new(header);
    for r in rows {
        let mut cells = vec![format!("{}", r.mean_factor), format!("{}", r.std_factor)];
        cells.extend(r.costs.iter().map(|(_, c)| fmt_ratio(*c)));
        table.push_row(cells)?;
    }
    Ok(table)
}

/// Runs the experiment and writes `results/fig4.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    render(&rows)?.emit(
        "fig4",
        "Figure 4 — NeuroHPC normalized costs (LogNormal VBMQA, α=0.95, β=1, γ=1.05h), moments scaled",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shape() {
        let rows = compute(Fidelity::Quick, 19);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.costs.len(), 7);
        }
    }

    #[test]
    fn structured_heuristics_beat_simple_ones() {
        // Fig. 4's headline: Brute-Force and the two discretization
        // heuristics are significantly better than the §4.3 rules.
        let rows = compute(Fidelity::Quick, 19);
        for r in &rows {
            let get = |idx: usize| r.costs[idx].1.unwrap();
            let structured = get(0).min(get(5)).min(get(6));
            let simple_best = get(1).min(get(2)).min(get(3)).min(get(4));
            assert!(
                structured <= simple_best + 0.05,
                "({}, {}): structured {structured} vs simple {simple_best}",
                r.mean_factor,
                r.std_factor
            );
        }
    }

    #[test]
    fn costs_are_modest_in_base_scenario() {
        // At (1, 1) the job is ~0.35 h with a ~1.05 h per-attempt start-up:
        // normalized costs sit in the low single digits.
        let rows = compute(Fidelity::Quick, 19);
        let base = rows
            .iter()
            .find(|r| r.mean_factor == 1.0 && r.std_factor == 1.0)
            .unwrap();
        for (h, c) in &base.costs {
            let v = c.unwrap();
            assert!((0.95..4.0).contains(&v), "{h}: {v}");
        }
    }
}
