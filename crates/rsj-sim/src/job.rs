//! Batch jobs and their execution records.

use crate::fault::FaultKind;
use serde::{Deserialize, Serialize};

/// Simulation clock time (hours).
pub type Time = f64;

/// Identifier of a job within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A batch job as submitted to the queue.
///
/// The scheduler sees `requested` (the user's walltime request) but never
/// `actual` — exactly the information asymmetry the paper's reservation
/// problem is built on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Submission time (hours).
    pub arrival: Time,
    /// Number of processors required.
    pub processors: usize,
    /// Requested walltime (hours); the job is killed when it elapses.
    pub requested: Time,
    /// Actual runtime (hours), unknown to the scheduler.
    pub actual: Time,
}

impl Job {
    /// Time the job will actually occupy the machine once started:
    /// `min(actual, requested)` — it is killed at the walltime limit.
    pub fn occupancy(&self) -> Time {
        self.actual.min(self.requested)
    }

    /// Whether the job will be killed by the walltime limit.
    pub(crate) fn will_be_killed(&self) -> bool {
        self.actual > self.requested
    }
}

/// The outcome of one job's passage through the simulated queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job as submitted.
    pub job: Job,
    /// Time the job started executing.
    pub start: Time,
    /// Time the job left the machine (completion or kill).
    pub end: Time,
    /// Queue wait `start - arrival`.
    pub wait: Time,
    /// Whether the walltime limit killed it before completion.
    pub killed: bool,
    /// The fault that interrupted it, if any (defaults to `None` when
    /// deserializing pre-fault-layer records).
    #[serde(default)]
    pub fault: Option<FaultKind>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_and_kill() {
        let ok = Job {
            id: JobId(1),
            arrival: 0.0,
            processors: 4,
            requested: 2.0,
            actual: 1.5,
        };
        assert_eq!(ok.occupancy(), 1.5);
        assert!(!ok.will_be_killed());

        let killed = Job {
            id: JobId(2),
            arrival: 0.0,
            processors: 4,
            requested: 1.0,
            actual: 1.5,
        };
        assert_eq!(killed.occupancy(), 1.0);
        assert!(killed.will_be_killed());
    }
}
