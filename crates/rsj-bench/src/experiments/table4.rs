//! Table 4: the two discretization-based heuristics as a function of the
//! number of samples `n` — the paper's own convergence ablation.

use crate::report::{fmt_ratio, Table};
use crate::scenarios::{paper_distributions, Fidelity, EPSILON};
use rand::SeedableRng;
use rsj_core::{draw_samples, expected_cost_monte_carlo, CostModel, DiscretizedDp, Strategy};
use rsj_dist::DiscretizationScheme;
use rsj_par::Parallelism;

/// The paper's sample-count sweep.
pub(crate) const PAPER_NS: [usize; 7] = [10, 25, 50, 100, 250, 500, 1000];
/// Reduced sweep for smoke runs.
pub(crate) const QUICK_NS: [usize; 4] = [10, 50, 100, 250];

/// One distribution's Table 4 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Distribution label.
    pub distribution: String,
    /// Normalized cost per `n` for Equal-time.
    pub equal_time: Vec<(usize, Option<f64>)>,
    /// Normalized cost per `n` for Equal-probability.
    pub equal_probability: Vec<(usize, Option<f64>)>,
}

fn ns(fidelity: Fidelity) -> Vec<usize> {
    match fidelity {
        Fidelity::Paper => PAPER_NS.to_vec(),
        Fidelity::Quick => QUICK_NS.to_vec(),
    }
}

/// Computes the Table 4 data; both schemes of one distribution are scored
/// on the same Monte-Carlo samples.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let cost = CostModel::reservation_only();
    let sweep = ns(fidelity);
    let dists = paper_distributions();
    Parallelism::current().par_map(&dists, |i, nd| {
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(i as u64));
        let samples = draw_samples(nd.dist.as_ref(), fidelity.samples(), &mut rng);
        let omniscient = cost.omniscient(nd.dist.as_ref());
        let score = |scheme: DiscretizationScheme, n: usize| -> Option<f64> {
            let h = DiscretizedDp::new(scheme, n, EPSILON).ok()?;
            let seq = h.sequence(nd.dist.as_ref(), &cost).ok()?;
            Some(expected_cost_monte_carlo(&seq, &cost, &samples) / omniscient)
        };
        Row {
            distribution: nd.name.to_string(),
            equal_time: sweep
                .iter()
                .map(|&n| (n, score(DiscretizationScheme::EqualTime, n)))
                .collect(),
            equal_probability: sweep
                .iter()
                .map(|&n| (n, score(DiscretizationScheme::EqualProbability, n)))
                .collect(),
        }
    })
}

/// Renders the paper's (wide) layout.
pub(crate) fn render(rows: &[Row]) -> Result<Table, crate::report::ReportError> {
    let sweep: Vec<usize> = rows
        .first()
        .map(|r| r.equal_time.iter().map(|&(n, _)| n).collect())
        .unwrap_or_default();
    let mut header = vec!["Distribution".to_string()];
    for n in &sweep {
        header.push(format!("ET n={n}"));
    }
    for n in &sweep {
        header.push(format!("EP n={n}"));
    }
    let mut table = Table::new(header);
    for row in rows {
        let mut cells = vec![row.distribution.clone()];
        cells.extend(row.equal_time.iter().map(|&(_, c)| fmt_ratio(c)));
        cells.extend(row.equal_probability.iter().map(|&(_, c)| fmt_ratio(c)));
        table.push_row(cells)?;
    }
    Ok(table)
}

/// Runs the experiment and writes `results/table4.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    render(&rows)?.emit(
        "table4",
        "Table 4 — discretization-based heuristics vs number of samples n (ET = Equal-time, EP = Equal-probability)",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shape() {
        let rows = compute(Fidelity::Quick, 13);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert_eq!(r.equal_time.len(), QUICK_NS.len());
            assert_eq!(r.equal_probability.len(), QUICK_NS.len());
        }
    }

    #[test]
    fn uniform_is_flat_at_4_thirds() {
        // Table 4's Uniform row: 1.33 for every n and both schemes.
        let rows = compute(Fidelity::Quick, 13);
        let uniform = rows.iter().find(|r| r.distribution == "Uniform").unwrap();
        for (n, c) in uniform.equal_time.iter().chain(&uniform.equal_probability) {
            let v = c.unwrap();
            assert!((v - 4.0 / 3.0).abs() < 0.05, "n={n}: {v}");
        }
    }

    #[test]
    fn costs_improve_with_more_samples_for_heavy_tails() {
        // Table 4's most dramatic rows: Weibull and Pareto start terrible
        // at n = 10 and converge.
        let rows = compute(Fidelity::Quick, 13);
        for name in ["Weibull", "Pareto"] {
            let row = rows.iter().find(|r| r.distribution == name).unwrap();
            let first = row.equal_time.first().unwrap().1.unwrap();
            let last = row.equal_time.last().unwrap().1.unwrap();
            assert!(
                first > last * 1.5,
                "{name}: n=10 cost {first} should far exceed n=250 cost {last}"
            );
        }
    }

    #[test]
    fn converged_costs_are_moderate() {
        let rows = compute(Fidelity::Quick, 13);
        for r in &rows {
            let last_et = r.equal_time.last().unwrap().1.unwrap();
            let last_ep = r.equal_probability.last().unwrap().1.unwrap();
            assert!(last_et < 4.0, "{}: ET {last_et}", r.distribution);
            assert!(last_ep < 4.0, "{}: EP {last_ep}", r.distribution);
        }
    }
}
