//! Table 2: normalized expected costs of the seven heuristics on the nine
//! Table 1 distributions under RESERVATIONONLY.

use crate::report::{fmt_ratio, Table};
use crate::scenarios::{heuristic_suite, paper_distributions, Fidelity};
use rand::SeedableRng;
use rsj_core::{draw_samples, expected_cost_monte_carlo, CostModel};
use rsj_par::Parallelism;

/// One distribution's row: heuristic name → normalized cost (None when the
/// heuristic failed to produce a sequence).
#[derive(Debug, Clone)]
pub struct Row {
    /// Distribution label.
    pub distribution: String,
    /// `(heuristic, Ẽ(S)/E°)` pairs in suite order.
    pub costs: Vec<(String, Option<f64>)>,
}

/// Computes the Table 2 data. Every heuristic for one distribution is
/// scored on the same `N` Monte-Carlo samples (common random numbers).
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let cost = CostModel::reservation_only();
    let dists = paper_distributions();
    Parallelism::current().par_map(&dists, |i, nd| {
        let suite = heuristic_suite(fidelity, seed.wrapping_add(i as u64));
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i as u64));
        let samples = draw_samples(nd.dist.as_ref(), fidelity.samples(), &mut rng);
        let omniscient = cost.omniscient(nd.dist.as_ref());
        let costs = suite
            .iter()
            .map(|h| {
                let ratio = h
                    .sequence(nd.dist.as_ref(), &cost)
                    .ok()
                    .map(|seq| expected_cost_monte_carlo(&seq, &cost, &samples) / omniscient);
                (h.name().to_string(), ratio)
            })
            .collect();
        Row {
            distribution: nd.name.to_string(),
            costs,
        }
    })
}

/// Renders the paper's layout: each non-brute-force column shows the
/// normalized cost with its ratio to Brute-Force in brackets.
pub(crate) fn render(rows: &[Row]) -> Result<Table, crate::report::ReportError> {
    let mut header = vec!["Distribution".to_string()];
    if let Some(first) = rows.first() {
        header.extend(first.costs.iter().map(|(n, _)| n.clone()));
    }
    let mut table = Table::new(header);
    for row in rows {
        let brute = row.costs[0].1;
        let mut cells = vec![row.distribution.clone()];
        for (i, (_, ratio)) in row.costs.iter().enumerate() {
            if i == 0 {
                cells.push(fmt_ratio(*ratio));
            } else {
                match (*ratio, brute) {
                    (Some(r), Some(b)) if b > 0.0 => cells.push(format!("{r:.2} ({:.2})", r / b)),
                    _ => cells.push(fmt_ratio(*ratio)),
                }
            }
        }
        table.push_row(cells)?;
    }
    Ok(table)
}

/// Runs the experiment and writes `results/table2.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    render(&rows)?.emit(
        "table2",
        "Table 2 — normalized expected costs, RESERVATIONONLY (values in brackets: vs Brute-Force)",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shape_and_sane_values() {
        let rows = compute(Fidelity::Quick, 7);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert_eq!(row.costs.len(), 7);
            for (h, ratio) in &row.costs {
                let r = ratio.unwrap_or_else(|| panic!("{}/{h} missing", row.distribution));
                // All ratios are ≥ ~1 and below the AWS break-even 4
                // (Table 2's headline observation), with slack for the
                // reduced quick fidelity.
                assert!(r > 0.95 && r < 5.0, "{}/{}: ratio {r}", row.distribution, h);
            }
        }
    }

    #[test]
    fn uniform_row_matches_theorem4() {
        let rows = compute(Fidelity::Quick, 7);
        let uniform = rows.iter().find(|r| r.distribution == "Uniform").unwrap();
        // Brute-Force, Equal-time and Equal-probability all find (b):
        // normalized cost 4/3 up to Monte-Carlo noise.
        for idx in [0, 5, 6] {
            let (name, ratio) = &uniform.costs[idx];
            let r = ratio.unwrap();
            assert!((r - 4.0 / 3.0).abs() < 0.05, "{name}: {r}");
        }
    }

    #[test]
    fn brute_force_is_best_or_close_analytically() {
        // Table 2's bracketed values are ≥ 1: Brute-Force wins. The MC
        // estimator is noisy for heavy-tailed laws (its Pareto variance is
        // dominated by rare tail samples), so the property is checked with
        // an analytically-scored Brute-Force against the exact Eq. 4
        // series of every heuristic.
        use crate::scenarios::paper_distributions;
        use rsj_core::normalized_cost_analytic;
        let cost = CostModel::reservation_only();
        for (i, nd) in paper_distributions().iter().enumerate() {
            let mut suite = crate::scenarios::heuristic_suite(Fidelity::Quick, 7 + i as u64);
            suite[0] = Box::new(
                rsj_core::BruteForce::new(400, 1000, rsj_core::EvalMethod::Analytic, 7).unwrap(),
            );
            let ratios: Vec<f64> = suite
                .iter()
                .map(|h| {
                    let seq = h.sequence(nd.dist.as_ref(), &cost).unwrap();
                    normalized_cost_analytic(&seq, nd.dist.as_ref(), &cost)
                })
                .collect();
            let brute = ratios[0];
            for (h, r) in suite.iter().zip(&ratios).skip(1) {
                assert!(
                    *r > brute * 0.98,
                    "{}: {} {r} vs brute {brute}",
                    nd.name,
                    h.name()
                );
            }
        }
    }

    #[test]
    fn render_shape() {
        let rows = compute(Fidelity::Quick, 7);
        let t = render(&rows).unwrap();
        let md = t.to_markdown();
        // Header, separator and one line per Table 1 law.
        assert_eq!(md.lines().count(), 2 + 9);
        assert!(md.contains("Brute-Force"));
        assert!(md.contains("("));
    }
}
