//! Conservative backfilling: *every* waiting job receives a start-time
//! reservation (not just the queue head, as in EASY), and a job may only
//! jump ahead if it delays none of them.
//!
//! Implemented the standard way: rebuild the future availability profile
//! from the running jobs' requested ends, then walk the queue in order,
//! assigning each job the earliest profile slot that fits it for its full
//! requested duration and carving that slot out of the profile. Jobs whose
//! assigned slot begins *now* start immediately.

use super::{Running, SchedulerState};
use crate::job::Time;

/// A step function of free processors over future time: `points[i]` is
/// `(tᵢ, free processors during [tᵢ, tᵢ₊₁))`, with a trailing entry open
/// to infinity.
#[derive(Debug, Clone)]
struct Profile {
    points: Vec<(Time, usize)>,
}

impl Profile {
    /// Builds the profile at time `now` from the running set.
    fn new(state: &SchedulerState, now: Time) -> Self {
        // Capacity change events: running jobs free processors at their
        // *planned* (requested) ends — the scheduler cannot see actuals.
        let mut events: Vec<(Time, usize)> = state
            .running
            .iter()
            .map(|r| (r.planned_end.max(now), r.job.processors))
            .collect();
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut points = vec![(now, state.free_processors())];
        for (t, procs) in events {
            let last = *points.last().expect("non-empty");
            if (t - last.0).abs() < 1e-12 {
                points.last_mut().expect("non-empty").1 = last.1 + procs;
            } else {
                points.push((t, last.1 + procs));
            }
        }
        Self { points }
    }

    /// Earliest start `s ≥ now` such that `procs` processors are free over
    /// the whole window `[s, s + duration)`.
    fn earliest_start(&self, procs: usize, duration: Time) -> Time {
        'candidates: for i in 0..self.points.len() {
            let s = self.points[i].0;
            let end = s + duration;
            for &(t, free) in &self.points[i..] {
                if t >= end {
                    break;
                }
                if free < procs {
                    continue 'candidates;
                }
            }
            return s;
        }
        unreachable!("the final profile segment has the whole machine free")
    }

    /// Removes `procs` processors over `[start, start + duration)`.
    fn reserve(&mut self, procs: usize, start: Time, duration: Time) {
        let end = start + duration;
        // Ensure boundary points exist.
        for boundary in [start, end] {
            let pos = self.points.partition_point(|&(t, _)| t < boundary - 1e-12);
            let exists = self
                .points
                .get(pos)
                .is_some_and(|&(t, _)| (t - boundary).abs() < 1e-12);
            if !exists {
                let free_before = if pos == 0 {
                    self.points[0].1
                } else {
                    self.points[pos - 1].1
                };
                self.points.insert(pos, (boundary, free_before));
            }
        }
        for p in &mut self.points {
            if p.0 >= start - 1e-12 && p.0 < end - 1e-12 {
                p.1 =
                    p.1.checked_sub(procs)
                        .expect("reservation fits the profile");
            }
        }
    }
}

/// One conservative-backfilling pass at time `now`; returns jobs started.
pub(crate) fn schedule_conservative(state: &mut SchedulerState, now: Time) -> Vec<Running> {
    // Drop impossible jobs so they cannot wedge the queue.
    state
        .waiting
        .retain(|j| j.processors <= state.total_processors);

    let mut profile = Profile::new(state, now);
    let mut start_now: Vec<usize> = Vec::new();
    for (idx, job) in state.waiting.iter().enumerate() {
        let s = profile.earliest_start(job.processors, job.requested);
        profile.reserve(job.processors, s, job.requested);
        if (s - now).abs() < 1e-12 {
            start_now.push(idx);
        }
    }
    // Start the selected jobs (remove back-to-front to keep indices valid).
    let mut started = Vec::with_capacity(start_now.len());
    for &idx in start_now.iter().rev() {
        let job = state.waiting.remove(idx).expect("index valid");
        started.push(state.start_job(job, now));
    }
    started.reverse(); // queue order
    started
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

    /// Machine of 10; a 6-proc job runs until t=5; first waiting job needs 8.
    fn blocked_state() -> SchedulerState {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 6, 5.0), 0.0);
        st.waiting.push_back(job(2, 8, 1.0));
        st
    }

    #[test]
    fn starts_fitting_head_immediately() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 2, 5.0), 0.0);
        st.waiting.push_back(job(2, 8, 1.0));
        let started = schedule_conservative(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
    }

    #[test]
    fn backfills_short_narrow_job() {
        let mut st = blocked_state();
        st.waiting.push_back(job(3, 4, 3.0)); // fits now, ends before t=5
        let started = schedule_conservative(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(3));
    }

    #[test]
    fn refuses_backfill_that_delays_any_reservation() {
        let mut st = blocked_state();
        st.waiting.push_back(job(3, 4, 7.0)); // would overlap the head's slot at t=5
        let started = schedule_conservative(&mut st, 0.0);
        assert!(started.is_empty());
    }

    #[test]
    fn protects_second_job_reservation_too() {
        // EASY only reserves for the head; conservative also protects job 3.
        // Machine 10; running: 6 procs until t=5.
        // Queue: job2 (8 procs, 1h → reserved [5,6)), job3 (10 procs, 1h →
        // reserved [6,7)), job4 (2 procs, 1.5h): starting job4 now would end
        // at 1.5 ≤ 5, fine for both → started. job5 (2 procs, 10h): ends at
        // 10, overlapping job3's all-machine slot [6,7) → refused even
        // though EASY's head-only rule (extra = 2 at shadow 5) would allow
        // it via the extra-processors clause… check it is refused here.
        let mut st = blocked_state();
        st.waiting.push_back(job(3, 10, 1.0));
        st.waiting.push_back(job(4, 2, 1.5));
        st.waiting.push_back(job(5, 2, 10.0));
        let started = schedule_conservative(&mut st, 0.0);
        let ids: Vec<JobId> = started.iter().map(|r| r.job.id).collect();
        assert_eq!(ids, vec![JobId(4)]);
    }

    #[test]
    fn drops_impossible_jobs() {
        let mut st = SchedulerState::new(10);
        st.waiting.push_back(job(1, 64, 1.0));
        st.waiting.push_back(job(2, 4, 1.0));
        let started = schedule_conservative(&mut st, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
    }

    #[test]
    fn profile_reserve_and_query() {
        let mut st = SchedulerState::new(10);
        st.start_job(job(1, 6, 5.0), 0.0);
        let mut p = Profile::new(&st, 0.0);
        // 4 free now, 10 free from t=5.
        assert_eq!(p.earliest_start(4, 2.0), 0.0);
        assert_eq!(p.earliest_start(8, 1.0), 5.0);
        p.reserve(8, 5.0, 1.0);
        // After reserving [5,6) for 8 procs, an 8-proc job next fits at 6.
        assert_eq!(p.earliest_start(8, 1.0), 6.0);
        // A 2-proc job still fits at t=0.
        assert_eq!(p.earliest_start(2, 10.0), 0.0);
    }
}
