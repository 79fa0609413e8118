//! # rsj-traces — neuroscience runtime archives and the NeuroHPC scenario
//!
//! System S12 of `DESIGN.md`: the paper extracts job-runtime distributions
//! from 5000+ archived runs of two Vanderbilt medical-imaging applications
//! (Figure 1) and builds the §5.3 NeuroHPC experiment on the VBMQA fit. The
//! original database is private; this crate synthesizes archives whose
//! generating process matches the published fits and provides the identical
//! fit → schedule pipeline:
//!
//! * `mod@format` — trace records + CSV codec;
//! * `synth` — synthetic fMRIQA / VBMQA archives (optionally
//!   contaminated);
//! * `pipeline` — LogNormal MLE per application with KS goodness checks
//!   (the Figure 1 procedure);
//! * `neurohpc` — the §5.3 scenario: VBMQA law in hours under the
//!   Intrepid waiting-time cost model `CostModel(0.95, 1.0, 1.05)`, plus
//!   the Figure 4 moment-scaling sweep.
//!
//! ## Example
//!
//! ```
//! use rsj_traces::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let archive = synthesize(&SynthConfig::vbmqa(5000), &mut rng);
//! let reports = fit_archive(&archive).unwrap();
//! assert!((reports[0].mu - 7.1128).abs() < 0.05);
//! ```

#![warn(missing_docs)]
// `!(x > 0.0)`-style guards deliberately reject NaN together with
// out-of-range values; clippy's partial_cmp suggestion obscures that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod format;
pub(crate) mod neurohpc;
pub(crate) mod pipeline;
pub(crate) mod synth;

pub use format::TraceArchive;
pub use neurohpc::NeuroHpcScenario;
pub use pipeline::{fit_archive, FitReport};
pub use synth::{figure1_archive, synthesize, SynthConfig};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::format::TraceArchive;
    pub use crate::neurohpc::NeuroHpcScenario;
    pub use crate::pipeline::{fit_archive, FitReport};
    pub use crate::synth::{figure1_archive, synthesize, SynthConfig};
}
