//! Figure 3: normalized expected cost of the Eq. 11 sequence as a function
//! of the first reservation `t₁`, for each Table 1 distribution — the
//! brute-force landscape, including the invalid-candidate gaps.

use crate::report::{write_result_file, Table};
use crate::scenarios::{paper_distributions, Fidelity};
use rsj_core::{BruteForce, CostModel, EvalMethod, SweepPoint};
use rsj_par::Parallelism;

/// One panel of Figure 3.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Distribution label.
    pub distribution: String,
    /// The sweep points (`normalized_cost = None` in the gaps).
    pub points: Vec<SweepPoint>,
}

/// Computes all nine panels.
pub(crate) fn compute(fidelity: Fidelity, seed: u64) -> Vec<Panel> {
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
        Panel {
            distribution: nd.name.to_string(),
            points: bf.sweep(nd.dist.as_ref(), &cost),
        }
    })
}

/// Writes one CSV per panel (`fig3_<dist>.csv`: `t1,normalized_cost`) plus
/// a summary table of the panels' valid fractions and minima.
pub fn emit(fidelity: Fidelity, seed: u64) -> std::io::Result<Vec<Panel>> {
    let panels = compute(fidelity, seed);
    let mut summary = Table::new(vec![
        "Distribution",
        "grid points",
        "valid",
        "best t1",
        "best cost",
    ]);
    for p in &panels {
        let mut csv = String::from("t1,normalized_cost\n");
        for pt in &p.points {
            match pt.normalized_cost {
                Some(c) => csv.push_str(&format!("{},{}\n", pt.t1, c)),
                None => csv.push_str(&format!("{},\n", pt.t1)),
            }
        }
        write_result_file(&format!("fig3_{}.csv", p.distribution.to_lowercase()), &csv)?;
        let valid: Vec<&SweepPoint> = p
            .points
            .iter()
            .filter(|x| x.normalized_cost.is_some())
            .collect();
        let best = valid
            .iter()
            .min_by(|a, b| {
                a.normalized_cost
                    .partial_cmp(&b.normalized_cost)
                    .expect("finite")
            })
            .expect("at least one valid candidate");
        summary.push_row(vec![
            p.distribution.clone(),
            p.points.len().to_string(),
            valid.len().to_string(),
            format!("{:.3}", best.t1),
            format!("{:.3}", best.normalized_cost.expect("valid")),
        ])?;
    }
    summary.emit(
        "fig3_summary",
        "Figure 3 — t1 sweep summary (per-panel data in fig3_<dist>.csv)",
    )?;
    Ok(panels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_panels_with_valid_minima() {
        let panels = compute(Fidelity::Quick, 17);
        assert_eq!(panels.len(), 9);
        for p in &panels {
            assert!(
                p.points.iter().any(|x| x.normalized_cost.is_some()),
                "{}: no valid candidate",
                p.distribution
            );
        }
    }

    #[test]
    fn exponential_panel_shows_the_gap() {
        let panels = compute(Fidelity::Quick, 17);
        let exp = panels
            .iter()
            .find(|p| p.distribution == "Exponential")
            .unwrap();
        // The paper highlights a gap roughly between 0.25 and 0.75.
        let in_gap = exp
            .points
            .iter()
            .filter(|p| p.t1 > 0.35 && p.t1 < 0.65)
            .collect::<Vec<_>>();
        assert!(!in_gap.is_empty());
        assert!(
            in_gap.iter().all(|p| p.normalized_cost.is_none()),
            "candidates in (0.35, 0.65) must be invalid"
        );
        // And a valid region near zero.
        assert!(exp
            .points
            .iter()
            .filter(|p| p.t1 < 0.2)
            .any(|p| p.normalized_cost.is_some()));
    }

    #[test]
    fn t1_grids_are_increasing() {
        let panels = compute(Fidelity::Quick, 17);
        for p in &panels {
            for w in p.points.windows(2) {
                assert!(w[1].t1 > w[0].t1);
            }
        }
    }
}
