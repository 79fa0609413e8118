//! Table 3: the best `t₁ᵇᶠ` found by Brute-Force versus probing `t₁` at
//! the distribution's 0.25/0.5/0.75/0.99 quantiles (invalid candidates
//! print `-`, the paper's dashes).

use crate::report::Table;
use crate::scenarios::{paper_distributions, Fidelity};
use rsj_core::{BruteForce, CostModel, EvalMethod};
use rsj_par::Parallelism;

/// Quantiles probed by the paper.
pub(crate) const QUANTILES: [f64; 4] = [0.25, 0.5, 0.75, 0.99];

/// One distribution's Table 3 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Distribution label.
    pub distribution: String,
    /// Best first reservation found.
    pub t1_bf: f64,
    /// Its normalized cost.
    pub cost_bf: f64,
    /// Per-quantile `(t₁, normalized cost or None)` probes.
    pub probes: Vec<(f64, Option<f64>)>,
}

/// Computes the Table 3 data.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let cost = CostModel::reservation_only();
    let dists = paper_distributions();
    Parallelism::current().par_map(&dists, |i, nd| {
        let bf = BruteForce::new(
            fidelity.grid(),
            fidelity.samples(),
            EvalMethod::MonteCarlo,
            seed.wrapping_add(i as u64),
        )
        .expect("valid parameters");
        let best = bf
            .best(nd.dist.as_ref(), &cost)
            .expect("every Table 1 distribution has a valid candidate");
        let probes = QUANTILES
            .iter()
            .map(|&q| {
                let t1 = nd.dist.quantile(q);
                (t1, bf.score_t1(nd.dist.as_ref(), &cost, t1))
            })
            .collect();
        Row {
            distribution: nd.name.to_string(),
            t1_bf: best.t1,
            cost_bf: best.normalized_cost,
            probes,
        }
    })
}

/// Renders the paper's layout.
pub(crate) fn render(rows: &[Row]) -> Result<Table, crate::report::ReportError> {
    let mut header = vec!["Distribution".to_string(), "t1_bf (cost)".to_string()];
    header.extend(QUANTILES.iter().map(|q| format!("Q({q})")));
    let mut table = Table::new(header);
    for row in rows {
        let mut cells = vec![
            row.distribution.clone(),
            format!("{:.2} ({:.2})", row.t1_bf, row.cost_bf),
        ];
        for (t1, c) in &row.probes {
            match c {
                Some(v) => cells.push(format!("{t1:.2} ({v:.2})")),
                None => cells.push(format!("{t1:.2} (-)")),
            }
        }
        table.push_row(cells)?;
    }
    Ok(table)
}

/// Runs the experiment and writes `results/table3.{md,csv}`.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Row>> {
    let rows = compute(fidelity, seed);
    render(&rows)?.emit(
        "table3",
        "Table 3 — Brute-Force best t1 vs quantile probes, RESERVATIONONLY ('-' = invalid sequence)",
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shape() {
        let rows = compute(Fidelity::Quick, 11);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert_eq!(r.probes.len(), 4);
            assert!(r.cost_bf >= 0.95, "{}: {}", r.distribution, r.cost_bf);
        }
    }

    #[test]
    fn uniform_probes_are_all_invalid() {
        // Table 3's Uniform row: every quantile probe shows '-'.
        let rows = compute(Fidelity::Quick, 11);
        let uniform = rows.iter().find(|r| r.distribution == "Uniform").unwrap();
        for (t1, c) in &uniform.probes {
            assert!(c.is_none(), "t1={t1} should be invalid for Uniform");
        }
        // And the best t₁ is at the top of the grid, ≈ b = 20.
        assert!(
            (uniform.t1_bf - 20.0).abs() < 0.1,
            "t1_bf {}",
            uniform.t1_bf
        );
    }

    #[test]
    fn valid_probes_never_beat_brute_force_badly() {
        let rows = compute(Fidelity::Quick, 11);
        for r in &rows {
            for (t1, c) in &r.probes {
                if let Some(v) = c {
                    assert!(
                        *v >= r.cost_bf * 0.9,
                        "{}: probe {t1} = {v} far below bf {}",
                        r.distribution,
                        r.cost_bf
                    );
                }
            }
        }
    }

    #[test]
    fn exponential_q99_is_expensive() {
        // Table 3: Exponential at Q(0.99) = 4.61 costs 4.83 ≫ optimum 2.13.
        let rows = compute(Fidelity::Quick, 11);
        let exp = rows
            .iter()
            .find(|r| r.distribution == "Exponential")
            .unwrap();
        let (t1, c) = exp.probes[3];
        assert!((t1 - 4.605).abs() < 0.01);
        let v = c.expect("Q(0.99) is a valid candidate");
        assert!(
            v > exp.cost_bf * 1.5,
            "Q(0.99) cost {v} vs bf {}",
            exp.cost_bf
        );
    }
}
