//! Scoped fork-join worker pool with deterministic chunked work
//! distribution.
//!
//! # Determinism contract
//!
//! Every entry point partitions its input into chunks whose boundaries
//! depend **only on the input length** — never on the thread count, the
//! claim order, or timing. Chunk results are written back keyed by chunk
//! index and recombined in chunk order, and the single-thread path uses
//! the *same* chunk shape, so for a deterministic per-index task function
//! the output is bit-for-bit identical at any thread count. The pool does
//! no reductions: a caller that folds the results (a floating-point sum,
//! say) does so serially, in index order, so the association is fixed.
//!
//! Work is distributed dynamically: workers claim chunk indices from a
//! shared atomic counter, so an expensive chunk does not stall the rest
//! of the batch. Dynamic claiming affects only *who* computes a chunk,
//! not *what* is computed — determinism is unaffected.

use crate::error::{panic_message, ParError};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on the number of chunks a call is split into. 256 keeps
/// per-chunk claim overhead negligible while leaving enough slack for
/// dynamic load balancing on wide machines (64 threads × 4 chunks each).
const TARGET_CHUNKS: usize = 256;

/// Process-wide thread-count override installed by the CLI `--threads`
/// flag. Zero means "not installed".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Chunk size used for an input of `len` items. Depends only on `len`
/// (see the module-level determinism contract). Public so tests and
/// benchmarks can reason about the chunk shape.
pub(crate) fn chunk_size(len: usize) -> usize {
    (len / TARGET_CHUNKS).max(1)
}

/// A validated degree of parallelism. Construction rejects zero; the
/// fork-join methods never spawn more workers than there are chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly `threads` workers. Errors with [`ParError::ZeroThreads`]
    /// when `threads == 0`.
    pub fn new(threads: usize) -> Result<Self, ParError> {
        NonZeroUsize::new(threads)
            .map(|threads| Parallelism { threads })
            .ok_or(ParError::ZeroThreads)
    }

    /// Single-threaded execution (always valid).
    pub fn serial() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// The machine's available parallelism, or 1 when it cannot be
    /// determined.
    pub(crate) fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// Strict environment lookup: honours `RSJ_THREADS` when set
    /// (rejecting `0` and non-integers with a typed error), otherwise
    /// falls back to `Parallelism::available`. Binaries should call
    /// this once at startup so a bad override fails loudly.
    pub fn from_env() -> Result<Self, ParError> {
        match std::env::var("RSJ_THREADS") {
            Ok(raw) if raw.trim().is_empty() => Ok(Self::available()),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(0) => Err(ParError::ZeroThreads),
                Ok(n) => Self::new(n),
                Err(_) => Err(ParError::InvalidEnv { value: raw }),
            },
            Err(_) => Ok(Self::available()),
        }
    }

    /// The effective parallelism for library call sites: the installed
    /// global override if any, else `RSJ_THREADS`, else the machine
    /// parallelism. A malformed `RSJ_THREADS` logs a warning and degrades
    /// to serial execution rather than silently grabbing every core.
    ///
    /// The env/hardware fallback is resolved once per process: it costs
    /// an environment read plus a syscall, and call sites treat this as
    /// cheap enough for per-request paths. [`Parallelism::install_global`]
    /// still overrides it at any time.
    pub fn current() -> Self {
        let global = GLOBAL_THREADS.load(Ordering::Relaxed);
        if let Some(threads) = NonZeroUsize::new(global) {
            return Parallelism { threads };
        }
        static FALLBACK: std::sync::OnceLock<Parallelism> = std::sync::OnceLock::new();
        *FALLBACK.get_or_init(|| match Self::from_env() {
            Ok(par) => par,
            Err(e) => {
                rsj_obs::warn!("{e}; falling back to serial execution");
                Self::serial()
            }
        })
    }

    /// Installs `self` as the process-wide default returned by
    /// [`Parallelism::current`], overriding `RSJ_THREADS`. Used by the
    /// CLI `--threads` flag and by benchmarks that sweep thread counts.
    pub fn install_global(self) {
        GLOBAL_THREADS.store(self.threads.get(), Ordering::Relaxed);
    }

    /// Removes the process-wide override (tests).
    pub fn clear_global() {
        GLOBAL_THREADS.store(0, Ordering::Relaxed);
    }

    /// The number of worker threads this handle will use at most.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Maps `f` over `0..len` and returns the results in index order.
    /// Bit-for-bit identical to the serial loop for deterministic `f`;
    /// a panicking task surfaces as [`ParError::WorkerPanicked`].
    pub fn try_par_run<R, F>(&self, len: usize, f: F) -> Result<Vec<R>, ParError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunk = chunk_size(len);
        let n_chunks = len.div_ceil(chunk);
        let per_chunk = self.run_chunks(n_chunks, |c| {
            let start = c * chunk;
            let end = (start + chunk).min(len);
            (start..end).map(&f).collect::<Vec<R>>()
        })?;
        record_tasks(len);
        Ok(per_chunk.into_iter().flatten().collect())
    }

    /// Slice variant of [`Parallelism::try_par_run`]; `f` receives the
    /// item index and a reference to the item.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, ParError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_par_run(items.len(), |i| f(i, &items[i]))
    }

    /// Like [`Parallelism::try_par_map`] but re-raises a worker panic in
    /// the caller, mirroring the serial `iter().map()` contract. Use the
    /// `try_` variant where a typed error is wanted.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.try_par_map(items, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Executes `f` once per chunk index and returns the chunk results in
    /// chunk order. This is the scheduling core: workers claim chunk
    /// indices from a shared atomic counter; a captured panic aborts
    /// outstanding claims and surfaces as a typed error.
    fn run_chunks<R, F>(&self, n_chunks: usize, f: F) -> Result<Vec<R>, ParError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n_chunks == 0 {
            return Ok(Vec::new());
        }
        let workers = self.threads.get().min(n_chunks);
        let metrics = rsj_obs::metrics_enabled();
        if workers <= 1 {
            let started = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                (0..n_chunks).map(&f).collect::<Vec<R>>()
            }))
            .map_err(|payload| ParError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            });
            if metrics {
                let reg = rsj_obs::global_registry();
                reg.counter("rsj_par_serial_calls_total").inc();
                reg.counter("rsj_par_chunks_total").add(n_chunks as u64);
                reg.histogram("rsj_par_worker_busy_seconds")
                    .observe(started.elapsed().as_secs_f64());
            }
            return out;
        }

        let next_chunk = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let panic_msg: Mutex<Option<String>> = Mutex::new(None);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
        let steals = AtomicUsize::new(0);
        let mut busy = vec![0.0f64; workers];

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let f = &f;
                let next_chunk = &next_chunk;
                let abort = &abort;
                let panic_msg = &panic_msg;
                let done = &done;
                let steals = &steals;
                handles.push(scope.spawn(move || {
                    let started = Instant::now();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        // Under a static round-robin deal chunk `c` would
                        // belong to worker `c % workers`; claiming someone
                        // else's share is the dynamic-balancing "steal".
                        if c % workers != worker {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(c))) {
                            Ok(result) => {
                                done.lock().expect("result lock").push((c, result));
                            }
                            Err(payload) => {
                                let mut slot = panic_msg.lock().expect("panic lock");
                                slot.get_or_insert_with(|| panic_message(payload.as_ref()));
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    started.elapsed().as_secs_f64()
                }));
            }
            for (worker, handle) in handles.into_iter().enumerate() {
                // Workers never unwind (tasks run under catch_unwind), so
                // join only fails if the runtime itself is broken.
                busy[worker] = handle.join().expect("pool worker exited cleanly");
            }
        });

        if metrics {
            let reg = rsj_obs::global_registry();
            reg.counter("rsj_par_calls_total").inc();
            reg.counter("rsj_par_chunks_total").add(n_chunks as u64);
            reg.counter("rsj_par_steals_total")
                .add(steals.load(Ordering::Relaxed) as u64);
            let hist = reg.histogram("rsj_par_worker_busy_seconds");
            for seconds in &busy {
                hist.observe(*seconds);
            }
        }

        if let Some(message) = panic_msg.into_inner().expect("panic lock") {
            return Err(ParError::WorkerPanicked { message });
        }
        let mut per_chunk = done.into_inner().expect("result lock");
        per_chunk.sort_unstable_by_key(|(c, _)| *c);
        debug_assert_eq!(per_chunk.len(), n_chunks);
        Ok(per_chunk.into_iter().map(|(_, r)| r).collect())
    }
}

/// Shared task-count accounting for the public entry points.
fn record_tasks(len: usize) {
    if rsj_obs::metrics_enabled() {
        rsj_obs::global_registry()
            .counter("rsj_par_tasks_total")
            .add(len as u64);
    }
}
