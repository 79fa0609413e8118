//! Admission control: a bounded queue with watermark hysteresis between
//! the accept loop and the worker pool.
//!
//! Load shedding happens at admission, not after latency has already
//! collapsed: once the queue depth crosses the **high watermark** the
//! queue enters *shedding* mode and rejects every new item until depth
//! drains back to the **low watermark**. The hard `capacity` is a final
//! backstop above the high watermark. Rejected connections get a typed
//! [`ErrorKind::Overloaded`](crate::ErrorKind::Overloaded) line written
//! by a dedicated shed helper (the accept loop only enqueues the refused
//! stream — a few microseconds, no peer-facing syscalls) instead of
//! parking in an unbounded backlog.
//!
//! The hysteresis band (high → low) prevents shed/admit flapping right
//! at the threshold: once overloaded, the server keeps shedding until it
//! has genuinely caught up, which is what keeps p99 of the *admitted*
//! requests bounded under saturation.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Sizing of an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Hard bound on queued items; admission above it always sheds.
    pub capacity: usize,
    /// Depth at which shedding mode begins.
    pub high_watermark: usize,
    /// Depth at which shedding mode ends (must be ≤ `high_watermark`).
    pub low_watermark: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            high_watermark: 192,
            low_watermark: 64,
        }
    }
}

impl AdmissionConfig {
    /// Clamps the watermarks into a usable shape: `low ≤ high ≤ capacity`,
    /// capacity at least 1.
    pub fn normalized(self) -> Self {
        let capacity = self.capacity.max(1);
        let high = self.high_watermark.min(capacity).max(1);
        let low = self.low_watermark.min(high);
        Self {
            capacity,
            high_watermark: high,
            low_watermark: low,
        }
    }
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    shedding: bool,
    closed: bool,
}

/// Outcome of a [`AdmissionQueue::pop`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An admitted item, in FIFO order.
    Item(T),
    /// The wait timed out with the queue still open and empty.
    TimedOut,
    /// The queue is closed and fully drained; the worker should exit.
    Closed,
}

/// A bounded MPMC queue with watermark-hysteresis shedding. `try_admit`
/// is the producer side (the accept loop); `pop` is the consumer side
/// (workers). Closing the queue lets consumers drain what was already
/// admitted, then observe [`Pop::Closed`].
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    config: AdmissionConfig,
    state: Mutex<State<T>>,
    not_empty: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// An open queue sized by `config` (normalized; see
    /// [`AdmissionConfig::normalized`]).
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config: config.normalized(),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shedding: false,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The normalized sizing in effect.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Admits `item` or hands it back for shedding. Rejection reasons:
    /// shedding mode (entered at the high watermark, left at the low
    /// one), hard capacity, or a closed queue.
    pub fn try_admit(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("admission lock");
        if state.closed {
            return Err(item);
        }
        let depth = state.queue.len();
        if state.shedding && depth <= self.config.low_watermark {
            state.shedding = false;
        }
        if !state.shedding && depth >= self.config.high_watermark {
            state.shedding = true;
        }
        if state.shedding || depth >= self.config.capacity {
            return Err(item);
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Waits up to `timeout` for an item. Items admitted before
    /// [`close`](Self::close) keep being returned after it (drain);
    /// [`Pop::Closed`] only appears once the queue is closed *and* empty.
    pub fn pop(&self, timeout: Duration) -> Pop<T> {
        let mut state = self.state.lock().expect("admission lock");
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let (next, wait) = self
                .not_empty
                .wait_timeout(state, timeout)
                .expect("admission lock");
            state = next;
            if wait.timed_out() && state.queue.is_empty() && !state.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Closes the queue: future admissions shed, consumers drain the
    /// backlog then observe [`Pop::Closed`]. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("admission lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("admission lock").queue.len()
    }

    /// Whether the queue is currently in shedding mode.
    pub fn is_shedding(&self) -> bool {
        self.state.lock().expect("admission lock").shedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, high: usize, low: usize) -> AdmissionConfig {
        AdmissionConfig {
            capacity,
            high_watermark: high,
            low_watermark: low,
        }
    }

    #[test]
    fn admits_until_high_watermark_then_sheds_until_low() {
        let q = AdmissionQueue::new(cfg(10, 4, 2));
        for i in 0..4 {
            q.try_admit(i).unwrap_or_else(|_| panic!("admit {i}"));
        }
        // Depth 4 = high watermark: shedding begins.
        assert_eq!(q.try_admit(99), Err(99));
        assert!(q.is_shedding());
        // Draining to 3 (> low) keeps shedding on.
        assert_eq!(q.pop(Duration::ZERO), Pop::Item(0));
        assert_eq!(q.try_admit(99), Err(99));
        // Draining to 2 (= low) re-opens admission.
        assert_eq!(q.pop(Duration::ZERO), Pop::Item(1));
        q.try_admit(100).expect("below low watermark again");
        assert!(!q.is_shedding());
    }

    #[test]
    fn hard_capacity_sheds_even_without_watermark_transition() {
        // high == capacity: no hysteresis band, pure bounded queue.
        let q = AdmissionQueue::new(cfg(2, 2, 2));
        q.try_admit(1).unwrap();
        q.try_admit(2).unwrap();
        assert_eq!(q.try_admit(3), Err(3));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = AdmissionQueue::new(AdmissionConfig::default());
        q.try_admit(1).unwrap();
        q.try_admit(2).unwrap();
        q.close();
        q.close(); // idempotent
        assert_eq!(q.try_admit(3), Err(3), "closed queue sheds");
        assert_eq!(q.pop(Duration::ZERO), Pop::Item(1));
        assert_eq!(q.pop(Duration::ZERO), Pop::Item(2));
        assert_eq!(q.pop(Duration::ZERO), Pop::Closed);
        assert_eq!(q.pop(Duration::ZERO), Pop::Closed);
    }

    #[test]
    fn pop_times_out_on_an_open_empty_queue() {
        let q = AdmissionQueue::<u32>::new(AdmissionConfig::default());
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::TimedOut);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = std::sync::Arc::new(AdmissionQueue::<u32>::new(AdmissionConfig::default()));
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), Pop::Closed);
    }

    #[test]
    fn degenerate_configs_are_normalized() {
        let c = cfg(0, 0, 9).normalized();
        assert_eq!(c.capacity, 1);
        assert_eq!(c.high_watermark, 1);
        assert_eq!(c.low_watermark, 1);
        let c = cfg(8, 100, 100).normalized();
        assert_eq!(c.high_watermark, 8);
        assert_eq!(c.low_watermark, 8);
    }
}
