//! Deterministic discrete-event core: a time-ordered event queue with
//! stable FIFO tie-breaking.

use crate::job::{JobId, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens at an event's firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A job enters the waiting queue.
    Arrival(JobId),
    /// A running job leaves the machine (completion or walltime kill).
    Departure(JobId),
    /// A node crash (or early walltime kill) terminates a running job.
    NodeFailure(JobId),
    /// A spot-style preemption reclaims a running job's processors.
    Preemption(JobId),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (time, seq); times are finite by
        // construction (asserted at push).
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of timed events. Events at equal times fire in insertion
/// order, making simulations reproducible.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub(crate) fn push(&mut self, time: Time, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Time, EventKind)> {
        self.heap.pop().map(|e| (e.time, e.kind))
    }

    /// Time of the earliest event without removing it.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::Arrival(JobId(3)));
        q.push(1.0, EventKind::Arrival(JobId(1)));
        q.push(2.0, EventKind::Departure(JobId(2)));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Arrival(JobId(10)));
        q.push(1.0, EventKind::Arrival(JobId(20)));
        q.push(1.0, EventKind::Departure(JobId(30)));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrival(JobId(10)),
                EventKind::Arrival(JobId(20)),
                EventKind::Departure(JobId(30)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::Arrival(JobId(1)));
    }
}
