//! Admission control: a bounded queue with watermark hysteresis between
//! the reactor thread and the worker pool.
//!
//! Load shedding happens at admission, not after latency has already
//! collapsed: once the queue depth crosses the **high watermark** the
//! queue enters *shedding* mode and rejects every new request until depth
//! drains back to the **low watermark**, so the high watermark is also
//! the queue's bound. The reactor answers a rejected request inline with
//! a typed
//! [`ErrorKind::Overloaded`](crate::ErrorKind::Overloaded) line instead of
//! parking it in an unbounded backlog.
//!
//! The hysteresis band (high → low) prevents shed/admit flapping right
//! at the threshold: once overloaded, the server keeps shedding until it
//! has genuinely caught up, which is what keeps p99 of the *admitted*
//! requests bounded under saturation.
//!
//! Workers block in [`AdmissionQueue::pop`] until there is work:
//! `try_admit` wakes one of them, and `close` wakes them all.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Sizing of an `AdmissionQueue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Depth at which shedding mode begins: no item is admitted at or
    /// above it.
    pub high_watermark: usize,
    /// Depth at which shedding mode ends (must be ≤ `high_watermark`).
    pub low_watermark: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            high_watermark: 192,
            low_watermark: 64,
        }
    }
}

impl AdmissionConfig {
    /// Clamps the watermarks into a usable shape: `low ≤ high`, high at
    /// least 1.
    pub(crate) fn normalized(self) -> Self {
        let high = self.high_watermark.max(1);
        Self {
            high_watermark: high,
            low_watermark: self.low_watermark.min(high),
        }
    }
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    shedding: bool,
    closed: bool,
}

/// A bounded MPMC queue with watermark-hysteresis shedding. `try_admit`
/// is the producer side (the reactor thread); `pop` is the consumer side
/// (workers). Closing the queue lets consumers drain what was already
/// admitted, then see `None`.
#[derive(Debug)]
pub(crate) struct AdmissionQueue<T> {
    config: AdmissionConfig,
    state: Mutex<State<T>>,
    not_empty: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// An open queue sized by `config` (normalized; see
    /// [`AdmissionConfig::normalized`]).
    pub(crate) fn new(config: AdmissionConfig) -> Self {
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
    pub(crate) fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Admits `item` or hands it back for shedding. Rejection reasons:
    /// shedding mode (entered at the high watermark, left at the low
    /// one) or a closed queue.
    pub(crate) fn try_admit(&self, item: T) -> Result<(), T> {
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
        if state.shedding {
            return Err(item);
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available. Items admitted before
    /// [`close`](Self::close) keep being returned after it (drain);
    /// `None` only appears once the queue is closed *and* empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("admission lock");
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("admission lock");
        }
    }

    /// Closes the queue: future admissions shed, consumers drain the
    /// backlog then see `None`. Idempotent.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("admission lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("admission lock").queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(high: usize, low: usize) -> AdmissionConfig {
        AdmissionConfig {
            high_watermark: high,
            low_watermark: low,
        }
    }

    #[test]
    fn admits_until_high_watermark_then_sheds_until_low() {
        let q = AdmissionQueue::new(cfg(4, 2));
        for i in 0..4 {
            q.try_admit(i).unwrap_or_else(|_| panic!("admit {i}"));
        }
        // Depth 4 = high watermark: shedding begins.
        assert_eq!(q.try_admit(99), Err(99));
        // Draining to 3 (> low) keeps shedding on.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.try_admit(99), Err(99));
        // Draining to 2 (= low) re-opens admission.
        assert_eq!(q.pop(), Some(1));
        q.try_admit(100).expect("below low watermark again");
    }

    #[test]
    fn hard_capacity_sheds_even_without_watermark_transition() {
        // high == low: no hysteresis band, pure bounded queue.
        let q = AdmissionQueue::new(cfg(2, 2));
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
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = std::sync::Arc::new(AdmissionQueue::<u32>::new(AdmissionConfig::default()));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.pop()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        // A missed wake-up fails here instead of hanging the suite.
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(None));
        consumer.join().unwrap();
    }

    #[test]
    fn degenerate_configs_are_normalized() {
        let c = cfg(0, 9).normalized();
        assert_eq!(c.high_watermark, 1);
        assert_eq!(c.low_watermark, 1);
        let c = cfg(8, 100).normalized();
        assert_eq!(c.high_watermark, 8);
        assert_eq!(c.low_watermark, 8);
    }
}
