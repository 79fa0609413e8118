//! The host-speed probe.
//!
//! On a shared virtual machine the same code runs at different speeds
//! from one minute to the next, for two reasons:
//! - Other tenants' work on the same physical cores slows every
//!   instruction, by up to half on the host the bounds were set on.
//! - The hypervisor now and then runs something else on a virtual CPU
//!   altogether ("steal" time).
//!
//! A run that only timed the program would measure both as much as the
//! program.
//!
//! For the first, the probe runs a fixed calculation, [`kernel`], on
//! every CPU, a few hundred times a second, and records the CPU time each
//! one took. Those threads run under `SCHED_IDLE`: they use time the
//! measured processes leave idle and never preempt them, and CPU time
//! (not wall time) makes a kernel's reading independent of how long it
//! waited to run. The kernel uses none of the repository's code and no
//! memory beyond its registers, so no change to the measured programs
//! moves its readings. For the second, it reads the stolen and total
//! ticks of `/proc/stat` every [`STAT_PERIOD`]. Stolen time counts in no
//! thread's CPU time, the kernel's included, but it does count on the
//! clock.
//!
//! [`Probe::host`] turns both into the factors by which the benchmark
//! divides the times it measured over an interval, and multiplies the
//! rates, which puts every run at the same reference speed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::procfs;

/// CPU nanoseconds one [`kernel`] takes at the reference speed. On the
/// 2-vCPU host the bounds were set on, its interval medians ranged from
/// about 39 to 60 µs, with most near this value.
pub const REFERENCE_NS: f64 = 50_000.0;

/// Pause between two kernels on one CPU.
const PERIOD: Duration = Duration::from_millis(5);

/// Pause between two readings of `/proc/stat`.
const STAT_PERIOD: Duration = Duration::from_millis(50);

/// Readings an interval needs before its own median is used; with fewer
/// the nearest readings around it fill in.
const MIN_READINGS: usize = 50;

/// The largest share of an interval taken as stolen, so that a reading
/// of nearly all stolen cannot blow a factor up.
const MAX_STOLEN: f64 = 0.9;

/// Iterations of [`kernel`]'s loop.
const STEPS: u64 = 12_000;

/// Eight independent lanes of integer multiply, xor and rotate: work
/// that keeps the execution units busy, so it slows the way the
/// measured programs do when another tenant shares the physical core.
/// (A dependent chain of operations barely slows, and a walk through
/// memory would time the measured programs' own use of the caches.)
/// Returns a checksum so the work cannot be optimised away.
fn kernel() -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..STEPS {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ i ^ k as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29);
        }
    }
    black_box(lanes.iter().fold(0, |a, &l| a ^ l))
}

/// One kernel run: when it ended and how much CPU time it took.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    ns: u64,
}

/// One reading of `/proc/stat`: ticks stolen and ticks in all, summed
/// over the CPUs, since boot.
#[derive(Debug, Clone, Copy)]
struct Ticks {
    at: Instant,
    stolen: u64,
    total: u64,
}

/// How the host ran over an interval, as factors above 1 when it ran
/// slower than the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// The median kernel time over [`REFERENCE_NS`]: divides CPU times.
    pub cpu: f64,
    /// `cpu` over the share of the interval not stolen: divides clock
    /// times, multiplies rates.
    pub wall: f64,
    /// The share of the CPUs' time stolen.
    pub stolen: f64,
}

/// Probe threads, one per CPU plus the `/proc/stat` reader, running
/// until dropped.
pub struct Probe {
    stop: Arc<AtomicBool>,
    readings: Arc<Mutex<Vec<Reading>>>,
    ticks: Arc<Mutex<Vec<Ticks>>>,
    threads: Vec<JoinHandle<()>>,
}

/// `struct timespec` of 64-bit Linux, the only ABI the benchmark runs on
/// (it reads `/proc` throughout).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SCHED_IDLE: i32 = 5;

/// CPU nanoseconds of the calling thread.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Pins the calling thread to `cpu` and gives it the idle policy. Both
/// are best effort: a probe that could do neither still reads the speed
/// of whichever CPU it runs on.
fn pin_idle(cpu: usize) {
    let mut mask = [0u64; 16];
    if cpu < 64 * mask.len() {
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` outlives the call and its size is passed with it.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
    let priority: i32 = 0;
    // SAFETY: `priority` is a valid `struct sched_param`.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
}

const POISONED: &str = "a probe thread panicked holding its readings";

impl Probe {
    /// Starts one probe thread per CPU and the `/proc/stat` reader.
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let readings = Arc::new(Mutex::new(Vec::new()));
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let mut threads: Vec<JoinHandle<()>> = (0..cpus)
            .map(|cpu| {
                let (stop, readings) = (stop.clone(), readings.clone());
                std::thread::spawn(move || {
                    pin_idle(cpu);
                    while !stop.load(Ordering::Relaxed) {
                        let started = thread_cpu_ns();
                        kernel();
                        let ns = thread_cpu_ns() - started;
                        let reading = Reading {
                            at: Instant::now(),
                            ns,
                        };
                        readings.lock().expect(POISONED).push(reading);
                        std::thread::sleep(PERIOD);
                    }
                })
            })
            .collect();
        let (stop_stat, ticks_stat) = (stop.clone(), ticks.clone());
        threads.push(std::thread::spawn(move || {
            while !stop_stat.load(Ordering::Relaxed) {
                let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
                // Without `/proc/stat` nothing counts as stolen.
                if let Some((stolen, total)) = procfs::parse_stat_steal(&text) {
                    let reading = Ticks {
                        at: Instant::now(),
                        stolen,
                        total,
                    };
                    ticks_stat.lock().expect(POISONED).push(reading);
                }
                std::thread::sleep(STAT_PERIOD);
            }
        }));
        Self {
            stop,
            readings,
            ticks,
            threads,
        }
    }

    /// How the host ran over `[from, to)`. An interval with fewer than
    /// [`MIN_READINGS`] kernel readings widens to the nearest ones
    /// around it; the stolen share is read between the `/proc/stat`
    /// readings just outside it.
    pub fn host(&self, from: Instant, to: Instant) -> Host {
        let cpu = cpu_factor(&self.readings.lock().expect(POISONED), from, to);
        let stolen = stolen_share(&self.ticks.lock().expect(POISONED), from, to);
        Host {
            cpu,
            wall: cpu / (1.0 - stolen),
            stolen,
        }
    }
}

fn cpu_factor(readings: &[Reading], from: Instant, to: Instant) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    // Readings are pushed in time order, give or take a thread switch.
    let start = readings.partition_point(|r| r.at < from);
    let end = readings.partition_point(|r| r.at < to).max(start);
    let missing = MIN_READINGS.saturating_sub(end - start);
    let lo = start.saturating_sub(missing / 2 + missing % 2);
    let hi = (end + missing / 2).min(readings.len());
    let lo = lo.saturating_sub(MIN_READINGS.saturating_sub(hi - lo));
    let mut ns: Vec<u64> = readings[lo..hi].iter().map(|r| r.ns).collect();
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / REFERENCE_NS
}

fn stolen_share(ticks: &[Ticks], from: Instant, to: Instant) -> f64 {
    if ticks.len() < 2 {
        return 0.0;
    }
    let last = ticks.len() - 1;
    let a = ticks.partition_point(|t| t.at <= from).saturating_sub(1);
    let a = a.min(last - 1);
    let b = ticks.partition_point(|t| t.at < to).clamp(a + 1, last);
    let stolen = ticks[b].stolen.saturating_sub(ticks[a].stolen) as f64;
    let total = ticks[b].total.saturating_sub(ticks[a].total) as f64;
    if total > 0.0 {
        (stolen / total).clamp(0.0, MAX_STOLEN)
    } else {
        0.0
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t0: Instant, m: u64) -> Instant {
        t0 + Duration::from_millis(m)
    }

    #[test]
    fn cpu_factor_is_the_interval_median_over_the_reference() {
        let t0 = Instant::now();
        let ref_ns = REFERENCE_NS as u64;
        // 100 readings at the reference speed, then 100 at half speed.
        let r: Vec<Reading> = (0..200)
            .map(|i| Reading {
                at: ms(t0, i),
                ns: if i < 100 { ref_ns } else { 2 * ref_ns },
            })
            .collect();
        assert_eq!(cpu_factor(&r, ms(t0, 0), ms(t0, 100)), 1.0);
        assert_eq!(cpu_factor(&r, ms(t0, 100), ms(t0, 200)), 2.0);
        // Too few readings inside: the nearest ones around fill in.
        assert_eq!(cpu_factor(&r, ms(t0, 150), ms(t0, 151)), 2.0);
        assert_eq!(cpu_factor(&r, ms(t0, 300), ms(t0, 400)), 2.0);
        assert_eq!(cpu_factor(&[], ms(t0, 0), ms(t0, 1)), 1.0);
    }

    #[test]
    fn stolen_share_spans_the_readings_around_the_interval() {
        let t0 = Instant::now();
        // Every 100 ms, 20 ticks pass: none stolen before 200 ms, 5 of
        // each 20 after.
        let ticks: Vec<Ticks> = (0..6)
            .map(|i| Ticks {
                at: ms(t0, 100 * i),
                stolen: 5 * i.saturating_sub(2),
                total: 20 * i,
            })
            .collect();
        assert_eq!(stolen_share(&ticks, ms(t0, 0), ms(t0, 200)), 0.0);
        assert_eq!(stolen_share(&ticks, ms(t0, 200), ms(t0, 500)), 0.25);
        // An interval inside one gap reads that gap; one past the end
        // reads the last gap.
        assert_eq!(stolen_share(&ticks, ms(t0, 310), ms(t0, 320)), 0.25);
        assert_eq!(stolen_share(&ticks, ms(t0, 900), ms(t0, 950)), 0.25);
        assert_eq!(stolen_share(&ticks[..1], ms(t0, 0), ms(t0, 1)), 0.0);
    }

    #[test]
    fn probe_reads_while_running() {
        let probe = Probe::start();
        std::thread::sleep(Duration::from_millis(200));
        let now = Instant::now();
        let host = probe.host(now - Duration::from_secs(1), now);
        assert!(host.cpu > 0.0 && host.cpu.is_finite(), "{host:?}");
        assert!(host.wall >= host.cpu && (0.0..=MAX_STOLEN).contains(&host.stolen));
    }
}
