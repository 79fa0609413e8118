//! §3.5 verification: the optimal first reservation `s₁ ≈ 0.74219` for
//! `Exp(1)` under RESERVATIONONLY, and the scale-free structure of the
//! optimal sequence.

use crate::report::Table;
use rsj_core::exact::{exp_e1, exp_optimal_cost, exp_optimal_s1, exp_optimal_sequence};

/// The computed §3.5 quantities.
#[derive(Debug, Clone)]
pub struct S1Report {
    /// Our optimal `s₁`.
    pub s1: f64,
    /// The paper's published value.
    pub published_s1: f64,
    /// Our `E₁` at the optimum.
    pub e1: f64,
    /// The first terms of the optimal `Exp(1)` sequence.
    pub sequence: Vec<f64>,
}

/// Computes the report.
pub(crate) fn compute() -> S1Report {
    S1Report {
        s1: exp_optimal_s1(),
        published_s1: 0.74219,
        e1: exp_optimal_cost(1.0),
        sequence: exp_optimal_sequence(1.0, 8),
    }
}

/// Runs the verification and writes `results/exp_s1.{md,csv}`.
pub fn emit() -> std::io::Result<S1Report> {
    let r = compute();
    let mut table = Table::new(vec!["quantity", "ours", "paper"]);
    table.push_row(vec![
        "s1 (optimal first reservation, Exp(1))".to_string(),
        format!("{:.5}", r.s1),
        format!("{:.5}", r.published_s1),
    ])?;
    table.push_row(vec![
        "E1 (optimal normalized cost)".to_string(),
        format!("{:.5}", r.e1),
        "≈2.36 analytic (2.13 via the paper's N=1000 MC)".to_string(),
    ])?;
    table.push_row(vec![
        "s1 / mean (≈ three quarters)".to_string(),
        format!("{:.3}", r.s1),
        "0.742".to_string(),
    ])?;
    for (i, s) in r.sequence.iter().enumerate() {
        table.push_row(vec![
            format!("s{}", i + 1),
            format!("{s:.5}"),
            if i == 0 {
                "0.74219".to_string()
            } else {
                "-".to_string()
            },
        ])?;
    }
    table.emit(
        "exp_s1",
        "§3.5 — optimal exponential sequence under RESERVATIONONLY",
    )?;

    // Also show the cost landscape around the optimum.
    let mut landscape = String::from("s1,E1\n");
    for k in 1..200 {
        let s1 = k as f64 * 0.01;
        landscape.push_str(&format!("{s1},{}\n", exp_e1(s1)));
    }
    crate::report::write_result_file("exp_s1_landscape.csv", &landscape)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_s1() {
        let r = compute();
        assert!((r.s1 - r.published_s1).abs() < 0.02, "s1 {}", r.s1);
        assert!(r.e1 > 2.0 && r.e1 < 2.5, "E1 {}", r.e1);
        assert!(r.sequence.len() >= 5);
    }
}
