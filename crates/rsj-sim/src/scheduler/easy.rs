//! EASY backfilling (aggressive backfilling with one reservation), after
//! Mu'alem & Feitelson, "Utilization, predictability, workloads, and user
//! runtime estimates in scheduling the IBM SP2 with backfilling" (paper
//! reference [17]).
//!
//! Rules, applied whenever the machine state changes:
//!
//! 1. Start queue-head jobs FCFS while they fit.
//! 2. If a head remains blocked, give it a *shadow time* — the earliest
//!    time enough processors free up assuming every running job uses its
//!    full requested walltime — and compute the *extra* processors that
//!    will still be free at the shadow time.
//! 3. A later waiting job may start now iff it fits in the currently free
//!    processors **and** either (a) it will finish (by its request) before
//!    the shadow time, or (b) it uses no more than the extra processors —
//!    either way it cannot delay the head's reservation.

use super::{Running, SchedulerState};
use crate::job::Time;

/// Shadow computation for the blocked queue head: returns
/// `(shadow_time, extra_processors)`.
fn shadow(state: &SchedulerState, head_procs: usize, now: Time) -> (Time, usize) {
    debug_assert!(head_procs > state.free_processors());
    // Sort running jobs by conservative (requested) end time.
    let mut ends: Vec<(Time, usize)> = state
        .running
        .iter()
        .map(|r| (r.planned_end.max(now), r.job.processors))
        .collect();
    ends.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    let mut avail = state.free_processors();
    for (end, procs) in ends {
        avail += procs;
        if avail >= head_procs {
            // Extra = processors free at the shadow beyond the head's need.
            return (end, avail - head_procs);
        }
    }
    unreachable!("head fits the whole machine: it would have started FCFS");
}

/// One EASY scheduling pass at time `now`; returns the jobs started.
pub(crate) fn schedule_easy(state: &mut SchedulerState, now: Time) -> Vec<Running> {
    let mut started = state.schedule_fcfs(now);
    if state.waiting.is_empty() {
        return started;
    }

    // Head is blocked. Repeatedly look for a backfill candidate; recompute
    // the shadow after every start (freed/used processors change it).
    loop {
        let head_procs = state.waiting.front().expect("non-empty").processors;
        if head_procs > state.total_processors {
            // Impossible job: drop it so it cannot wedge the queue forever.
            state.waiting.pop_front();
            if state.waiting.is_empty() {
                return started;
            }
            // Head changed: jobs behind it may now start FCFS.
            started.extend(state.schedule_fcfs(now));
            if state.waiting.is_empty() {
                return started;
            }
            continue;
        }
        let (shadow_time, extra) = shadow(state, head_procs, now);
        let free = state.free_processors();
        let candidate = state
            .waiting
            .iter()
            .skip(1)
            .position(|j| {
                j.processors <= free && (now + j.requested <= shadow_time || j.processors <= extra)
            })
            .map(|pos| pos + 1); // skip(1) offset
        match candidate {
            Some(idx) => {
                let job = state.waiting.remove(idx).expect("index valid");
                started.push(state.start_job(job, now));
                // A start may have freed the head? No — starts only consume
                // processors; but FCFS progress is possible if the head was
                // waiting on a *smaller* count… it wasn't (it's blocked).
                // Recompute the shadow and keep scanning.
            }
            None => return started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};

    fn job(id: u64, procs: usize, requested: Time) -> Job {
        Job {
            id: JobId(id),
            arrival: 0.0,
            processors: procs,
            requested,
            actual: requested,
        }
    }

    /// Machine of 10; a 6-proc job runs until t=5; head needs 8.
    fn blocked_state() -> SchedulerState {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 6, 5.0), 0.0);
        st.waiting.push_back(job(2, 8, 1.0)); // blocked head: shadow t=5, extra 10-8=2... avail=4+6=10, extra=2
        st
    }

    #[test]
    fn backfills_short_job_before_shadow() {
        let mut st = blocked_state();
        // 4-proc job requesting 3h: fits free (4), ends at 3 ≤ shadow 5 → backfill.
        st.waiting.push_back(job(3, 4, 3.0));
        let started = schedule_easy(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(3));
    }

    #[test]
    fn refuses_backfill_that_delays_head() {
        let mut st = blocked_state();
        // 4-proc job requesting 7h: ends after shadow (5) and needs more
        // than the 2 extra processors → would delay the head.
        st.waiting.push_back(job(3, 4, 7.0));
        let started = schedule_easy(&mut st, 0.0);
        assert!(started.is_empty());
    }

    #[test]
    fn allows_long_backfill_within_extra() {
        let mut st = blocked_state();
        // 2-proc job requesting 100h: runs past the shadow but uses only
        // the 2 extra processors → cannot delay the head.
        st.waiting.push_back(job(3, 2, 100.0));
        let started = schedule_easy(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(3));
    }

    #[test]
    fn backfill_preserves_queue_order_for_rest() {
        let mut st = blocked_state();
        st.waiting.push_back(job(3, 4, 7.0)); // not eligible
        st.waiting.push_back(job(4, 4, 2.0)); // eligible
        let started = schedule_easy(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(4));
        // Queue still holds head and the ineligible job, in order.
        let ids: Vec<JobId> = st.waiting.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![JobId(2), JobId(3)]);
    }

    #[test]
    fn multiple_backfills_respect_shrinking_window() {
        let mut st = blocked_state();
        // Two 2-proc 100h jobs: the first consumes the 2 extra processors;
        // the second would then delay the head (free=2 left, extra=0).
        st.waiting.push_back(job(3, 2, 100.0));
        st.waiting.push_back(job(4, 2, 100.0));
        let started = schedule_easy(&mut st, 0.0);
        assert_eq!(started.len(), 1, "only one long backfill fits the extra");
    }

    #[test]
    fn fcfs_progress_before_backfill() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 2, 5.0), 0.0);
        st.waiting.push_back(job(2, 8, 1.0)); // fits: starts FCFS
        st.waiting.push_back(job(3, 1, 1.0)); // head after job 2 starts; blocked (0 free)
        let started = schedule_easy(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
    }

    #[test]
    fn oversized_job_is_dropped_not_wedged() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 6, 5.0), 0.0);
        st.waiting.push_back(job(2, 128, 1.0)); // impossible
        st.waiting.push_back(job(3, 4, 1.0));
        let started = schedule_easy(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(3));
    }
}
