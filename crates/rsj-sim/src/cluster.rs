//! The event-driven cluster simulation: jobs in, [`JobRecord`]s out.

use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultConfig, FaultInjector, FaultKind};
use crate::job::{Job, JobRecord};
use crate::scheduler::{SchedulerPolicy, SchedulerState};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total processors.
    pub processors: usize,
    /// Scheduling policy.
    pub policy: SchedulerPolicy,
}

impl ClusterConfig {
    /// An Intrepid-like machine scaled down: EASY backfilling, 2048
    /// processors (the Figure 2 job sizes of 204/409 then occupy ~10%/20%
    /// of the machine, as they did relative to partition sizes on the real
    /// system).
    pub fn intrepid_like() -> Self {
        Self {
            processors: 2048,
            policy: SchedulerPolicy::EasyBackfill,
        }
    }
}

/// Runs the discrete-event simulation of `jobs` (any order; they are
/// processed by arrival time) and returns one record per started job,
/// sorted by job id.
pub fn simulate(config: &ClusterConfig, jobs: &[Job]) -> Vec<JobRecord> {
    simulate_with_faults(config, jobs, &FaultConfig::none())
        .expect("the fault-free configuration is always valid")
}

/// [`simulate`] with fault injection: running jobs can be interrupted by
/// node crashes, spot preemptions, or jittered walltime kills, which fire
/// as `EventKind::NodeFailure`/`EventKind::Preemption` events and mark
/// their record's [`JobRecord::fault`].
///
/// Interrupted jobs are *not* resubmitted — every submitted job yields
/// exactly one record, and retries belong to the reservation executor
/// (the `resilient` module). With a fault-free configuration the injector
/// never draws, so this reproduces [`simulate`] bit-for-bit.
pub fn simulate_with_faults(
    config: &ClusterConfig,
    jobs: &[Job],
    faults: &FaultConfig,
) -> Result<Vec<JobRecord>, SimError> {
    let mut injector = FaultInjector::new(faults)?;
    let mut state = SchedulerState::new(config.processors);
    let mut events = EventQueue::new();
    let mut catalogue: HashMap<_, Job> = HashMap::with_capacity(jobs.len());
    for job in jobs {
        assert!(
            job.arrival.is_finite() && job.requested > 0.0 && job.actual >= 0.0,
            "malformed job {:?}",
            job
        );
        // A job wider than the machine can never start and would wedge
        // FCFS forever; real schedulers reject it at submission.
        assert!(
            job.processors <= config.processors,
            "job {:?} requests {} processors on a {}-processor machine",
            job.id,
            job.processors,
            config.processors
        );
        catalogue.insert(job.id, *job);
        events.push(job.arrival, EventKind::Arrival(job.id));
    }

    let mut records = Vec::with_capacity(jobs.len());
    // Fault kind of each scheduled interruption, keyed by job.
    let mut pending: HashMap<crate::job::JobId, FaultKind> = HashMap::new();

    let apply = |state: &mut SchedulerState,
                 records: &mut Vec<JobRecord>,
                 pending: &mut HashMap<crate::job::JobId, FaultKind>,
                 now: f64,
                 kind: EventKind| match kind {
        EventKind::Arrival(id) => state.waiting.push_back(catalogue[&id]),
        EventKind::Departure(id) => {
            if let Some(running) = state.remove_running(id) {
                records.push(JobRecord {
                    job: running.job,
                    start: running.start,
                    end: now,
                    wait: running.start - running.job.arrival,
                    killed: running.job.will_be_killed(),
                    fault: None,
                });
            }
        }
        EventKind::NodeFailure(id) | EventKind::Preemption(id) => {
            if let Some(running) = state.remove_running(id) {
                let fault = pending.remove(&id);
                records.push(JobRecord {
                    job: running.job,
                    start: running.start,
                    end: now,
                    wait: running.start - running.job.arrival,
                    // A jittered walltime kill is still a walltime kill;
                    // crashes and preemptions interrupt the job earlier.
                    killed: fault == Some(FaultKind::WalltimeKill),
                    fault,
                });
            }
        }
    };

    while let Some((now, kind)) = events.pop() {
        apply(&mut state, &mut records, &mut pending, now, kind);
        // Drain every simultaneous event before scheduling, so a batch of
        // same-time departures/arrivals sees one consistent machine state.
        while events.peek_time() == Some(now) {
            let (_, kind) = events.pop().expect("peeked");
            apply(&mut state, &mut records, &mut pending, now, kind);
        }

        for started in state.schedule(config.policy, now) {
            // Fixed per-job draw order (jitter, then crash/preemption)
            // keeps the fault trace deterministic.
            let kill = injector.effective_walltime(started.job.requested);
            let occupancy = started.job.actual.min(kill);
            let fault = if occupancy < started.job.occupancy() {
                Some(FaultKind::WalltimeKill)
            } else {
                None
            };
            let (end, fault) = match injector.interruption(occupancy) {
                Some((offset, kind)) => (started.start + offset, Some(kind)),
                None if fault.is_some() => (started.start + occupancy, fault),
                None => (started.actual_end, None),
            };
            match fault {
                None => events.push(end, EventKind::Departure(started.job.id)),
                Some(FaultKind::Preemption) => {
                    pending.insert(started.job.id, FaultKind::Preemption);
                    events.push(end, EventKind::Preemption(started.job.id));
                }
                Some(kind) => {
                    pending.insert(started.job.id, kind);
                    events.push(end, EventKind::NodeFailure(started.job.id));
                }
            }
        }
    }

    records.sort_by_key(|r| r.job.id);
    Ok(records)
}

/// Aggregate utilization and wait statistics of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Number of completed jobs.
    pub completed: usize,
    /// Mean queue wait (hours).
    pub mean_wait: f64,
    /// Maximum queue wait (hours).
    pub max_wait: f64,
    /// Fraction of jobs killed by their walltime limit.
    pub killed_fraction: f64,
    /// Fraction of jobs interrupted by an injected fault (0 without fault
    /// injection; defaults when deserializing pre-fault-layer summaries).
    #[serde(default)]
    pub faulted_fraction: f64,
    /// Machine utilization over the makespan: busy processor-hours divided
    /// by `processors × makespan`.
    pub utilization: f64,
}

/// Summarizes simulation records for a cluster of `processors`.
pub fn summarize(records: &[JobRecord], processors: usize) -> SimSummary {
    assert!(!records.is_empty(), "no records to summarize");
    let completed = records.len();
    let mean_wait = records.iter().map(|r| r.wait).sum::<f64>() / completed as f64;
    let max_wait = records.iter().map(|r| r.wait).fold(0.0, f64::max);
    let killed = records.iter().filter(|r| r.killed).count();
    let faulted = records.iter().filter(|r| r.fault.is_some()).count();
    let makespan = records.iter().map(|r| r.end).fold(0.0, f64::max)
        - records
            .iter()
            .map(|r| r.job.arrival)
            .fold(f64::INFINITY, f64::min);
    let busy: f64 = records
        .iter()
        .map(|r| (r.end - r.start) * r.job.processors as f64)
        .sum();
    SimSummary {
        completed,
        mean_wait,
        max_wait,
        killed_fraction: killed as f64 / completed as f64,
        faulted_fraction: faulted as f64 / completed as f64,
        utilization: if makespan > 0.0 {
            busy / (processors as f64 * makespan)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, Time};

    fn job(id: u64, arrival: Time, procs: usize, requested: Time, actual: Time) -> Job {
        Job {
            id: JobId(id),
            arrival,
            processors: procs,
            requested,
            actual,
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let cfg = ClusterConfig {
            processors: 4,
            policy: SchedulerPolicy::Fcfs,
        };
        let records = simulate(&cfg, &[job(1, 0.5, 2, 2.0, 1.5)]);
        assert_eq!(records.len(), 1);
        let r = records[0];
        assert_eq!(r.start, 0.5);
        assert_eq!(r.end, 2.0); // 0.5 + min(1.5, 2.0)
        assert_eq!(r.wait, 0.0);
        assert!(!r.killed);
    }

    #[test]
    fn walltime_kill_is_recorded() {
        let cfg = ClusterConfig {
            processors: 4,
            policy: SchedulerPolicy::Fcfs,
        };
        let records = simulate(&cfg, &[job(1, 0.0, 2, 1.0, 3.0)]);
        assert_eq!(records[0].end, 1.0);
        assert!(records[0].killed);
    }

    #[test]
    fn fcfs_queueing_wait() {
        let cfg = ClusterConfig {
            processors: 4,
            policy: SchedulerPolicy::Fcfs,
        };
        // Both jobs need the whole machine; second waits for the first.
        let records = simulate(&cfg, &[job(1, 0.0, 4, 2.0, 2.0), job(2, 0.1, 4, 2.0, 2.0)]);
        assert_eq!(records[1].start, 2.0);
        assert!((records[1].wait - 1.9).abs() < 1e-12);
    }

    #[test]
    fn early_completion_frees_machine_sooner() {
        let cfg = ClusterConfig {
            processors: 4,
            policy: SchedulerPolicy::Fcfs,
        };
        // First job requests 10h but finishes in 1h.
        let records = simulate(&cfg, &[job(1, 0.0, 4, 10.0, 1.0), job(2, 0.0, 4, 1.0, 1.0)]);
        assert_eq!(records[1].start, 1.0, "starts when the machine frees");
    }

    #[test]
    fn easy_beats_fcfs_on_mean_wait() {
        // A blocked wide head plus many narrow short jobs: backfilling
        // should slash their waits.
        let mut jobs = vec![job(1, 0.0, 8, 10.0, 10.0), job(2, 0.01, 10, 5.0, 5.0)];
        for i in 0..20 {
            jobs.push(job(3 + i, 0.02 + i as f64 * 0.001, 1, 0.5, 0.5));
        }
        let fcfs = simulate(
            &ClusterConfig {
                processors: 10,
                policy: SchedulerPolicy::Fcfs,
            },
            &jobs,
        );
        let easy = simulate(
            &ClusterConfig {
                processors: 10,
                policy: SchedulerPolicy::EasyBackfill,
            },
            &jobs,
        );
        let mw_fcfs = summarize(&fcfs, 10).mean_wait;
        let mw_easy = summarize(&easy, 10).mean_wait;
        assert!(
            mw_easy < mw_fcfs * 0.8,
            "easy {mw_easy} should clearly beat fcfs {mw_fcfs}"
        );
    }

    #[test]
    fn all_jobs_complete() {
        let cfg = ClusterConfig {
            processors: 16,
            policy: SchedulerPolicy::EasyBackfill,
        };
        let jobs: Vec<Job> = (0..200)
            .map(|i| {
                job(
                    i,
                    i as f64 * 0.05,
                    1 + (i as usize * 7) % 8,
                    0.5 + (i % 5) as f64,
                    0.3 + (i % 4) as f64,
                )
            })
            .collect();
        let records = simulate(&cfg, &jobs);
        assert_eq!(records.len(), jobs.len(), "every job must complete");
        // Conservation: nothing starts before it arrives.
        for r in &records {
            assert!(r.start >= r.job.arrival);
            assert!(r.end > r.start);
        }
    }

    #[test]
    fn fault_free_config_reproduces_simulate_bitwise() {
        let cfg = ClusterConfig {
            processors: 16,
            policy: SchedulerPolicy::EasyBackfill,
        };
        let jobs: Vec<Job> = (0..100)
            .map(|i| {
                job(
                    i,
                    i as f64 * 0.03,
                    1 + (i as usize * 5) % 8,
                    0.5 + (i % 4) as f64,
                    0.4 + (i % 3) as f64,
                )
            })
            .collect();
        let plain = simulate(&cfg, &jobs);
        let faultless = simulate_with_faults(&cfg, &jobs, &FaultConfig::none()).unwrap();
        assert_eq!(plain, faultless);
    }

    #[test]
    fn crashes_interrupt_jobs_and_are_recorded() {
        let cfg = ClusterConfig {
            processors: 8,
            policy: SchedulerPolicy::Fcfs,
        };
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, i as f64 * 0.1, 2, 5.0, 4.0))
            .collect();
        let faults = FaultConfig::crashes(1.0, 13);
        let records = simulate_with_faults(&cfg, &jobs, &faults).unwrap();
        assert_eq!(
            records.len(),
            jobs.len(),
            "one record per job, no resubmission"
        );
        let crashed: Vec<_> = records
            .iter()
            .filter(|r| r.fault == Some(FaultKind::Crash))
            .collect();
        assert!(!crashed.is_empty(), "mtbf 1h must crash some 4h jobs");
        for r in &crashed {
            assert!(
                r.end - r.start < r.job.occupancy(),
                "crash cuts the run short"
            );
            assert!(!r.killed);
        }
        // Determinism: an identical config+seed replays the same records.
        let replay = simulate_with_faults(&cfg, &jobs, &faults).unwrap();
        assert_eq!(records, replay);
    }

    #[test]
    fn jittered_walltime_kills_come_early_and_are_flagged() {
        let cfg = ClusterConfig {
            processors: 4,
            policy: SchedulerPolicy::Fcfs,
        };
        // Every job overruns its walltime, so every kill is jitter-eligible.
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 0.01, 2, 2.0, 3.0))
            .collect();
        let records = simulate_with_faults(
            &cfg,
            &jobs,
            &FaultConfig {
                seed: 21,
                walltime_jitter: Some(0.3),
                ..FaultConfig::none()
            },
        )
        .unwrap();
        let early: Vec<_> = records
            .iter()
            .filter(|r| r.fault == Some(FaultKind::WalltimeKill))
            .collect();
        assert!(!early.is_empty(), "jitter 0.3 must shave some kills");
        for r in &early {
            let ran = r.end - r.start;
            assert!(
                (2.0 * 0.7..2.0).contains(&ran),
                "jittered kill after {ran}h"
            );
            assert!(r.killed, "a jittered walltime kill is still a kill");
        }
        let s = summarize(&records, cfg.processors);
        assert!(s.faulted_fraction > 0.0);
    }

    #[test]
    fn invalid_fault_config_is_rejected() {
        let cfg = ClusterConfig {
            processors: 4,
            policy: SchedulerPolicy::Fcfs,
        };
        let jobs = [job(1, 0.0, 2, 1.0, 1.0)];
        let err = simulate_with_faults(&cfg, &jobs, &FaultConfig::crashes(0.0, 0)).unwrap_err();
        assert!(err.to_string().contains("mtbf"), "{err}");
    }

    #[test]
    fn utilization_bounded() {
        let cfg = ClusterConfig::intrepid_like();
        let jobs: Vec<Job> = (0..100)
            .map(|i| job(i, i as f64 * 0.01, 204, 1.0, 0.9))
            .collect();
        let records = simulate(&cfg, &jobs);
        let s = summarize(&records, cfg.processors);
        assert!(s.utilization > 0.0 && s.utilization <= 1.0 + 1e-9);
        assert_eq!(s.completed, 100);
    }
}
