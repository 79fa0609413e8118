//! Extensions beyond the paper's core model, implementing its §7 future
//! work:
//!
//! * `checkpoint` — checkpoint snapshots at the end of reservations,
//!   including an exact DP for discrete distributions;
//! * `multiresource` — reservations as (processors, duration) pairs
//!   under parallel speedup models, reduced to the 1-D problem per width.

pub(crate) mod checkpoint;
pub(crate) mod multiresource;

pub use checkpoint::{
    expected_cost_checkpointed, optimal_discrete_checkpointed, run_job_checkpointed,
    CheckpointConfig,
};
pub use multiresource::{MultiResourcePlanner, SpeedupModel, WidthPolicy};
