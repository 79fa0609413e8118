//! A fixed-capacity ring buffer of completed request timelines.
//!
//! One mutex guards a queue of at most `capacity` records: `push` evicts
//! the oldest once full, and `recent` clones the newest `Arc`s. A server
//! has one writer (the reactor thread, once a response is flushed) and
//! one occasional reader (the `trace` op), and neither holds the lock
//! across I/O, so the lock is rarely contended.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::timeline::TimelineRecord;

/// A bounded buffer of the most recent [`TimelineRecord`]s, safe to
/// share between threads.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    /// Oldest record at the front, newest at the back.
    records: Mutex<VecDeque<Arc<TimelineRecord>>>,
}

impl TraceRing {
    /// A ring holding the last `capacity` records (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            records: Mutex::new(VecDeque::new()),
        }
    }

    /// How many records the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stores `record`, evicting the oldest entry once full.
    pub fn push(&self, record: TimelineRecord) {
        let record = Arc::new(record);
        let mut records = self.records.lock().expect("trace ring poisoned");
        if records.len() == self.capacity {
            records.pop_front();
        }
        records.push_back(record);
    }

    /// The most recent `n` records, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<TimelineRecord>> {
        let records = self.records.lock().expect("trace ring poisoned");
        records.iter().rev().take(n).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tag: u64) -> TimelineRecord {
        TimelineRecord {
            trace_id: format!("{tag:032x}"),
            op: "test".to_string(),
            total_us: tag,
            stages: Vec::new(),
        }
    }

    #[test]
    fn recent_returns_newest_first() {
        let ring = TraceRing::new(4);
        assert!(ring.recent(10).is_empty());
        for i in 0..3 {
            ring.push(record(i));
        }
        let got = ring.recent(10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].total_us, 2);
        assert_eq!(got[2].total_us, 0);
    }

    #[test]
    fn wraparound_keeps_the_last_capacity_records() {
        let ring = TraceRing::new(3);
        for i in 0..10 {
            ring.push(record(i));
        }
        let got: Vec<u64> = ring.recent(10).iter().map(|r| r.total_us).collect();
        assert_eq!(got, vec![9, 8, 7]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(record(5));
        assert_eq!(ring.recent(1)[0].total_us, 5);
    }
}
