//! # rsj-par — deterministic fork-join parallelism (system S21)
//!
//! A std-only parallel execution layer for the reservation-strategies
//! workspace: a scoped worker pool ([`Parallelism`]) with chunked work
//! distribution, [`Parallelism::par_map`] / [`Parallelism::try_par_map`] /
//! [`Parallelism::try_par_run`] entry points whose results are
//! **bit-for-bit identical to serial execution at any thread count**,
//! typed panic propagation ([`ParError::WorkerPanicked`]), and an
//! `RSJ_THREADS` environment override (plus `--threads` on the CLI via
//! [`Parallelism::install_global`]).
//!
//! ## Why not rayon
//!
//! The vendoring policy forbids external crates, and — more importantly —
//! work-stealing libraries make no cross-thread-count reproducibility
//! promise for reductions. Here every entry point returns its per-index
//! results in index order and callers fold them serially (see the `pool`
//! module docs), so `RSJ_THREADS=1` and `RSJ_THREADS=64` produce the same
//! bytes. The paper's Monte-Carlo tables (Eq. 13 estimates with
//! common random numbers) stay exactly reproducible while the hot loops
//! scale with the hardware.
//!
//! ## Instrumentation
//!
//! When `rsj-obs` metrics are enabled the pool records
//! `rsj_par_tasks_total`, `rsj_par_chunks_total`, `rsj_par_steals_total`
//! (chunks claimed outside a worker's static round-robin share),
//! `rsj_par_calls_total` / `rsj_par_serial_calls_total`, and a
//! `rsj_par_worker_busy_seconds` histogram.

mod error;
mod pool;
mod stream;

pub use error::ParError;
pub use pool::Parallelism;
pub use stream::substream_seed;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::chunk_size;

    #[test]
    fn zero_threads_is_a_typed_error() {
        assert_eq!(Parallelism::new(0), Err(ParError::ZeroThreads));
        assert_eq!(Parallelism::new(3).unwrap().threads(), 3);
        assert_eq!(Parallelism::serial().threads(), 1);
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = Parallelism::serial()
            .try_par_map(&items, |i, x| (i as u64) * 31 + x * x)
            .unwrap();
        for threads in [2, 3, 4, 8] {
            let par = Parallelism::new(threads)
                .unwrap()
                .try_par_map(&items, |i, x| (i as u64) * 31 + x * x)
                .unwrap();
            assert_eq!(serial, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(
            Parallelism::new(4).unwrap().try_par_map(&empty, |_, x| *x),
            Ok(Vec::new())
        );
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let items: Vec<usize> = (0..500).collect();
        for par in [Parallelism::serial(), Parallelism::new(4).unwrap()] {
            let err = par
                .try_par_map(&items, |_, &x| {
                    if x == 137 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .unwrap_err();
            match err {
                ParError::WorkerPanicked { message } => {
                    assert!(message.contains("boom"), "message: {message}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn chunk_shape_depends_only_on_length() {
        assert_eq!(chunk_size(0), 1);
        assert_eq!(chunk_size(9), 1);
        assert_eq!(chunk_size(256), 1);
        assert_eq!(chunk_size(100_000), 390);
        // More chunks than any realistic worker count, so dynamic
        // claiming can balance load.
        assert!(100_000usize.div_ceil(chunk_size(100_000)) >= 256);
    }

    #[test]
    fn global_override_wins_over_env() {
        // Serialize against other tests touching the global: this test
        // is the only one in this crate that installs it.
        Parallelism::new(3).unwrap().install_global();
        assert_eq!(Parallelism::current().threads(), 3);
        Parallelism::clear_global();
    }

    #[test]
    fn expensive_small_batches_still_fan_out() {
        // 9 items (one per Table 1 distribution) must become 9 chunks so
        // per-distribution experiments can use all workers.
        let items: Vec<usize> = (0..9).collect();
        let out = Parallelism::new(4)
            .unwrap()
            .try_par_map(&items, |i, &x| i + x)
            .unwrap();
        assert_eq!(out, (0..9).map(|i| 2 * i).collect::<Vec<_>>());
    }
}
