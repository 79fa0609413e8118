//! Batch-queue scheduling policies.
//!
//! The paper's Figure 2 comes from logs of Intrepid, whose Cobalt scheduler
//! (like Slurm, §6) runs priority/FCFS queues with backfilling. We implement
//! the two canonical policies:
//!
//! * [`SchedulerPolicy::Fcfs`] — strict first-come-first-served: the queue
//!   head blocks everything behind it;
//! * [`SchedulerPolicy::EasyBackfill`] — EASY backfilling (Mu'alem &
//!   Feitelson \[17\]): the head gets a start-time *reservation* computed from
//!   the running jobs' requested walltimes, and later jobs may jump ahead
//!   when they cannot delay it.

mod conservative;
mod easy;
mod priority;

pub(crate) use conservative::schedule_conservative;
pub(crate) use easy::schedule_easy;
pub(crate) use priority::schedule_priority;
pub use priority::PriorityConfig;

use crate::job::{Job, JobId, Time};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which queueing policy the simulated cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Strict first-come-first-served.
    Fcfs,
    /// FCFS with EASY backfilling (one reservation, for the queue head).
    EasyBackfill,
    /// Conservative backfilling (a reservation for every waiting job).
    Conservative,
    /// Slurm-like two-queue priority scheduling with aging (§6), EASY
    /// backfilling within the reordered queue.
    SlurmLike(PriorityConfig),
}

/// A job currently executing on the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    /// The job.
    pub job: Job,
    /// When it started.
    pub start: Time,
    /// Conservative end the scheduler plans around: `start + requested`.
    pub planned_end: Time,
    /// When it actually leaves: `start + min(actual, requested)`.
    pub actual_end: Time,
}

/// Scheduler state shared by the policies: the waiting queue (FIFO order)
/// and the set of running jobs.
#[derive(Debug, Default)]
pub(crate) struct SchedulerState {
    /// Waiting queue in arrival order.
    pub waiting: VecDeque<Job>,
    /// Jobs currently on the machine.
    pub running: Vec<Running>,
    /// Total processors in the cluster.
    pub total_processors: usize,
}

impl SchedulerState {
    /// Creates an empty state for a cluster of `total_processors`.
    pub(crate) fn new(total_processors: usize) -> Self {
        assert!(total_processors > 0, "cluster must have processors");
        Self {
            waiting: VecDeque::new(),
            running: Vec::new(),
            total_processors,
        }
    }

    /// Processors not currently allocated.
    pub(crate) fn free_processors(&self) -> usize {
        let used: usize = self.running.iter().map(|r| r.job.processors).sum();
        self.total_processors
            .checked_sub(used)
            .expect("allocation never exceeds the cluster")
    }

    /// Starts `job` at `now`, returning the new running entry.
    pub(crate) fn start_job(&mut self, job: Job, now: Time) -> Running {
        debug_assert!(job.processors <= self.free_processors());
        let running = Running {
            job,
            start: now,
            planned_end: now + job.requested,
            actual_end: now + job.occupancy(),
        };
        self.running.push(running);
        running
    }

    /// Removes a finished job from the running set.
    pub(crate) fn remove_running(&mut self, id: JobId) -> Option<Running> {
        let idx = self.running.iter().position(|r| r.job.id == id)?;
        Some(self.running.swap_remove(idx))
    }

    /// Strict FCFS pass: starts queue-head jobs while they fit; returns the
    /// jobs started (in order).
    pub(crate) fn schedule_fcfs(&mut self, now: Time) -> Vec<Running> {
        let mut started = Vec::new();
        while let Some(head) = self.waiting.front() {
            if head.processors <= self.free_processors() {
                let job = self.waiting.pop_front().expect("non-empty");
                started.push(self.start_job(job, now));
            } else {
                break;
            }
        }
        started
    }

    /// Runs the configured policy; returns jobs started at `now`.
    pub(crate) fn schedule(&mut self, policy: SchedulerPolicy, now: Time) -> Vec<Running> {
        match policy {
            SchedulerPolicy::Fcfs => self.schedule_fcfs(now),
            SchedulerPolicy::EasyBackfill => schedule_easy(self, now),
            SchedulerPolicy::Conservative => schedule_conservative(self, now),
            SchedulerPolicy::SlurmLike(config) => schedule_priority(self, &config, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, procs: usize, requested: Time) -> Job {
        Job {
            id: JobId(id),
            arrival: 0.0,
            processors: procs,
            requested,
            actual: requested,
        }
    }

    #[test]
    fn fcfs_starts_in_order_and_blocks() {
        let mut st = SchedulerState::new(10);
        st.waiting.push_back(job(1, 4, 1.0));
        st.waiting.push_back(job(2, 8, 1.0)); // cannot fit beside job 1
        st.waiting.push_back(job(3, 2, 1.0)); // would fit, but FCFS blocks
        let started = st.schedule_fcfs(0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
        assert_eq!(st.free_processors(), 6);
        assert_eq!(st.waiting.len(), 2);
    }

    #[test]
    fn free_processors_tracks_running() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 3, 2.0), 0.0);
        st.start_job(job(2, 5, 2.0), 0.0);
        assert_eq!(st.free_processors(), 2);
        st.remove_running(JobId(1));
        assert_eq!(st.free_processors(), 5);
    }

    #[test]
    fn running_entry_times() {
        let mut st = SchedulerState::new(10);
        let j = Job {
            id: JobId(1),
            arrival: 0.5,
            processors: 1,
            requested: 2.0,
            actual: 3.0, // will be killed at the walltime
        };
        let r = st.start_job(j, 1.0);
        assert_eq!(r.planned_end, 3.0);
        assert_eq!(r.actual_end, 3.0); // killed at requested
        let j2 = Job {
            actual: 1.0,
            id: JobId(2),
            ..j
        };
        let r2 = st.start_job(j2, 1.0);
        assert_eq!(r2.planned_end, 3.0);
        assert_eq!(r2.actual_end, 2.0); // finished early
    }
}
