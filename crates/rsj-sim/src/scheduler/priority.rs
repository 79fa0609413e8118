//! Slurm-like two-queue priority scheduling (paper §6): "the Slurm
//! scheduler uses two queues, one for high-priority jobs and the other for
//! low-priority jobs. A job is placed in a queue based on its resource
//! requirement, generally with long-running jobs that require a large
//! amount of resources having higher priorities. Jobs that are kept in the
//! waiting queue for a long period of time could also be upgraded."
//!
//! Implementation: before every scheduling pass, the waiting queue is
//! stably reordered into (high-priority, low-priority) classes — a job is
//! high-priority if its requested processor-hours exceed a threshold, or
//! if it has aged past the upgrade limit — then the EASY pass runs on the
//! reordered queue (Slurm backfills too).

use super::{schedule_easy, Running, SchedulerState};
use crate::job::{Job, Time};
use serde::{Deserialize, Serialize};

/// Parameters of the two-queue policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityConfig {
    /// Jobs requesting at least this many processor-hours are
    /// high-priority.
    pub high_priority_proc_hours: f64,
    /// Jobs waiting longer than this (hours) are upgraded to high priority.
    pub upgrade_after: Time,
}

impl PriorityConfig {
    /// Whether `job` is (currently) high-priority at time `now`.
    pub(crate) fn is_high_priority(&self, job: &Job, now: Time) -> bool {
        let proc_hours = job.processors as f64 * job.requested;
        proc_hours >= self.high_priority_proc_hours || now - job.arrival >= self.upgrade_after
    }
}

/// One Slurm-like pass: reorder by priority class (stable within a class,
/// preserving arrival order), then EASY-backfill.
pub(crate) fn schedule_priority(
    state: &mut SchedulerState,
    config: &PriorityConfig,
    now: Time,
) -> Vec<Running> {
    let mut high: Vec<Job> = Vec::new();
    let mut low: Vec<Job> = Vec::new();
    for job in state.waiting.drain(..) {
        if config.is_high_priority(&job, now) {
            high.push(job);
        } else {
            low.push(job);
        }
    }
    state.waiting.extend(high);
    state.waiting.extend(low);
    schedule_easy(state, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn job(id: u64, arrival: Time, procs: usize, requested: Time) -> Job {
        Job {
            id: JobId(id),
            arrival,
            processors: procs,
            requested,
            actual: requested,
        }
    }

    fn config() -> PriorityConfig {
        PriorityConfig {
            high_priority_proc_hours: 100.0,
            upgrade_after: 24.0,
        }
    }

    #[test]
    fn classification() {
        let cfg = config();
        // 8 procs × 20 h = 160 proc-hours: high priority.
        assert!(cfg.is_high_priority(&job(1, 0.0, 8, 20.0), 0.0));
        // 2 procs × 10 h = 20: low.
        assert!(!cfg.is_high_priority(&job(2, 0.0, 2, 10.0), 0.0));
        // …until it ages past 24 h.
        assert!(cfg.is_high_priority(&job(2, 0.0, 2, 10.0), 25.0));
    }

    #[test]
    fn big_job_jumps_the_queue() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(0, 0.0, 10, 1.0), 0.0); // machine fully busy until t=1
        st.waiting.push_back(job(1, 0.1, 2, 10.0)); // low (20 proc-h), arrived first
        st.waiting.push_back(job(2, 0.2, 8, 20.0)); // high (160 proc-h)
        schedule_priority(&mut st, &config(), 0.5);
        // Machine is full: nothing starts, but the queue is reordered with
        // the high-priority job at the head.
        let ids: Vec<JobId> = st.waiting.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![JobId(2), JobId(1)]);
    }

    #[test]
    fn aging_upgrades_preserve_arrival_order_within_class() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(0, 0.0, 10, 50.0), 0.0);
        st.waiting.push_back(job(1, 0.0, 1, 1.0)); // low, old
        st.waiting.push_back(job(2, 1.0, 1, 1.0)); // low, newer
        st.waiting.push_back(job(3, 26.0, 8, 20.0)); // high by size
                                                     // At t = 30: job1 (waited 30 h) and job2 (29 h) both upgraded.
        schedule_priority(&mut st, &config(), 30.0);
        let ids: Vec<JobId> = st.waiting.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![JobId(1), JobId(2), JobId(3)]);
    }

    #[test]
    fn low_priority_jobs_still_backfill() {
        // High-priority head blocked; a small low-priority job that cannot
        // delay it backfills (Slurm behaviour the paper describes: "smaller
        // jobs … are usually scheduled quickly thanks to the backfilling").
        let mut st = SchedulerState::new(10);
        st.start_job(job(0, 0.0, 6, 5.0), 0.0); // 6 procs until t=5
        st.waiting.push_back(job(1, 0.0, 8, 20.0)); // high, blocked
        st.waiting.push_back(job(2, 0.1, 4, 3.0)); // low, fits before t=5
        let started = schedule_priority(&mut st, &config(), 0.5);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
    }
}
