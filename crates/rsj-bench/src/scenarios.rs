//! Shared experiment scenarios: the Table 1 distribution instantiations and
//! the heuristic suites with the paper's parameters.

use rsj_core::{Strategy, SuiteBuilder};
use rsj_dist::{ContinuousDistribution, DistSpec};

/// A named Table 1 distribution.
pub struct NamedDist {
    /// Row label as printed in the paper's tables.
    pub name: &'static str,
    /// The instantiated distribution.
    pub dist: Box<dyn ContinuousDistribution>,
}

/// The nine Table 1 instantiations, in table order.
pub fn paper_distributions() -> Vec<NamedDist> {
    DistSpec::paper_table1()
        .into_iter()
        .map(|(name, spec)| NamedDist {
            name,
            dist: spec.build().expect("paper instantiations are valid"),
        })
        .collect()
}

/// Fidelity of an experiment run: the paper's full parameters or a reduced
/// configuration for smoke tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// `M = 5000`, `N = 1000`, `n = 1000` — the paper's §5 settings.
    Paper,
    /// Small grids for fast smoke runs.
    Quick,
}

impl Fidelity {
    /// Reads `RSJ_FIDELITY=quick|paper` from the environment
    /// (default: paper).
    pub fn from_env() -> Self {
        match std::env::var("RSJ_FIDELITY").as_deref() {
            Ok("quick") => Fidelity::Quick,
            _ => Fidelity::Paper,
        }
    }

    /// Brute-force grid size `M`.
    pub(crate) fn grid(self) -> usize {
        match self {
            Fidelity::Paper => 5000,
            Fidelity::Quick => 300,
        }
    }

    /// Monte-Carlo sample count `N`.
    pub(crate) fn samples(self) -> usize {
        match self {
            Fidelity::Paper => 1000,
            Fidelity::Quick => 400,
        }
    }

    /// Discretization sample count `n`.
    pub(crate) fn discretization(self) -> usize {
        match self {
            Fidelity::Paper => 1000,
            Fidelity::Quick => 200,
        }
    }
}

/// The paper's ε for truncating unbounded supports.
pub(crate) const EPSILON: f64 = 1e-7;

/// The seven-heuristic Table 2 suite at the given fidelity, built through
/// `rsj-core`'s [`SuiteBuilder`] (the benches only adjust the evaluation
/// parameters, never the set of heuristics).
pub(crate) fn heuristic_suite(fidelity: Fidelity, seed: u64) -> Vec<Box<dyn Strategy>> {
    SuiteBuilder::new(seed)
        .grid(fidelity.grid())
        .samples(fidelity.samples())
        .discretization(fidelity.discretization())
        .epsilon(EPSILON)
        .build()
        .expect("valid parameters")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_distributions_in_order() {
        let dists = paper_distributions();
        assert_eq!(dists.len(), 9);
        assert_eq!(dists[0].name, "Exponential");
        assert_eq!(dists[8].name, "BoundedPareto");
    }

    #[test]
    fn suite_order_matches_table2() {
        let suite = heuristic_suite(Fidelity::Quick, 1);
        let names: Vec<&str> = suite.iter().map(|h| h.name()).collect();
        assert_eq!(
            names,
            vec![
                "Brute-Force",
                "Mean-by-Mean",
                "Mean-Stdev",
                "Mean-Doubling",
                "Median-by-Median",
                "Equal-time",
                "Equal-probability"
            ]
        );
    }

    #[test]
    fn fidelity_parameters() {
        assert_eq!(Fidelity::Paper.grid(), 5000);
        assert_eq!(Fidelity::Paper.samples(), 1000);
        assert_eq!(Fidelity::Paper.discretization(), 1000);
        assert!(Fidelity::Quick.grid() < Fidelity::Paper.grid());
    }
}
