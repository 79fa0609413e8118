//! # rsj-sim — platform simulation substrates
//!
//! Systems S9–S11 of `DESIGN.md`: everything the paper's evaluation needed
//! from real platforms, rebuilt as simulators:
//!
//! * `event` / `job` / `scheduler` / `cluster` — a deterministic
//!   discrete-event batch-queue simulator with FCFS and EASY-backfilling
//!   policies, standing in for the Intrepid logs behind Figure 2;
//! * `workload` — synthetic job streams (Poisson arrivals, weighted job
//!   widths, walltime over-estimation);
//! * `wait_time` — the 20-group wait-vs-request analysis and affine fit
//!   of Figure 2;
//! * `cloud` — Reserved-Instance vs On-Demand pricing and the §5.2
//!   break-even analysis;
//! * `runner` — batch execution of reservation strategies with Eq. 2
//!   accounting, and the queue-fit → NeuroHPC cost-model bridge;
//! * `fault` / `resilient` — seed-reproducible failure processes
//!   (exponential-MTBF crashes, spot preemptions, walltime jitter) and the
//!   resilient reservation executor with checkpoint-restart and retry
//!   policies (system S18);
//! * [`adaptive`] — the online learn-while-scheduling loop: plan on a
//!   prior, observe (possibly censored) durations, refit and replan under
//!   guardrails (system S19).
//!
//! ## Example: derive a NeuroHPC cost model from a simulated queue
//!
//! ```
//! use rsj_sim::prelude::*;
//! use rsj_dist::LogNormal;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let runtime = LogNormal::new(0.0, 0.6).unwrap();
//! let workload = WorkloadConfig {
//!     arrival_rate: 40.0,
//!     processor_choices: vec![(204, 0.6), (409, 0.4)],
//!     overestimate: (1.2, 3.0),
//!     count: 3000,
//! };
//! let jobs = generate_workload(&workload, &runtime, &mut rng);
//! let records = simulate(&ClusterConfig::intrepid_like(), &jobs);
//! if let Some(analysis) = analyze_wait_times(&records, 204, 20) {
//!     let cost_model = cost_model_from_queue(&analysis);
//!     assert!(cost_model.alpha > 0.0);
//! }
//! ```

#![warn(missing_docs)]
// `!(x > 0.0)`-style guards deliberately reject NaN together with
// out-of-range values; clippy's partial_cmp suggestion obscures that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod adaptive;
pub(crate) mod cloud;
pub(crate) mod cluster;
pub(crate) mod error;
pub(crate) mod event;
pub(crate) mod fault;
pub(crate) mod job;
pub(crate) mod resilient;
pub(crate) mod runner;
pub(crate) mod scheduler;
pub(crate) mod wait_time;
pub(crate) mod workload;

pub use adaptive::{run_adaptive, AdaptiveConfig, AdaptiveReport, ModelFamily};
pub use cloud::CloudPricing;
pub use cluster::{simulate, simulate_with_faults, summarize, ClusterConfig};
pub use error::SimError;
pub use fault::{FaultConfig, FaultInjector};
pub use job::{Job, JobRecord, Time};
pub use resilient::{run_batch_resilient, run_job_resilient, ResilienceConfig, RetryPolicy};
pub use runner::{aggregate, cost_model_from_queue, run_batch, run_batch_seeded, BatchStats};
pub use scheduler::{PriorityConfig, SchedulerPolicy};
pub use wait_time::{analyze_wait_times, WaitTimeAnalysis};
pub use workload::{generate_workload, WorkloadConfig};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::adaptive::{run_adaptive, AdaptiveConfig, AdaptiveReport};
    pub use crate::cloud::CloudPricing;
    pub use crate::cluster::{simulate, simulate_with_faults, summarize, ClusterConfig};
    pub use crate::fault::FaultConfig;
    pub use crate::job::Job;
    pub use crate::resilient::{run_batch_resilient, ResilienceConfig, RetryPolicy};
    pub use crate::runner::{cost_model_from_queue, run_batch, run_batch_seeded, BatchStats};
    pub use crate::scheduler::SchedulerPolicy;
    pub use crate::wait_time::{analyze_wait_times, WaitTimeAnalysis};
    pub use crate::workload::{generate_workload, WorkloadConfig};
}
