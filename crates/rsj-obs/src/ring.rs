//! A fixed-capacity ring buffer of completed request timelines.
//!
//! Writers claim a slot with one `fetch_add` on the shared cursor and
//! then swap the record in under that slot's own mutex — the lock guards
//! two word-sized stores, is never held across allocation or I/O, and is
//! only ever contended when two writers are a full lap apart on the same
//! slot. Slots are *versioned* by their claiming ticket: a writer that
//! stalls between claiming and storing long enough to be lapped finds a
//! newer ticket in the slot and drops its stale record instead of
//! clobbering a fresher one. Readers lock each slot just long enough to
//! clone the `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::timeline::TimelineRecord;

/// One versioned slot: the cursor ticket that installed the record
/// (meaningless while `record` is `None`, when `seq` is 0 and any ticket
/// wins).
#[derive(Debug, Default)]
struct Slot {
    seq: u64,
    record: Option<Arc<TimelineRecord>>,
}

/// A bounded, concurrently writable buffer of the most recent
/// [`TimelineRecord`]s. See the module docs for the locking discipline.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Mutex<Slot>]>,
    /// Total records ever pushed; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
}

impl TraceRing {
    /// A ring holding the last `capacity` records (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(Slot::default())).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// How many records the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `record`, evicting the oldest entry once full.
    pub fn push(&self, record: TimelineRecord) {
        let ticket = self.cursor.fetch_add(1, Ordering::AcqRel);
        self.store(ticket, Arc::new(record));
    }

    /// Installs `record` under `ticket` unless the slot already holds a
    /// newer one: a writer lapped between claiming its ticket and
    /// storing loses to the fresher occupants rather than overwriting
    /// them (last-ticket-wins, not last-locker-wins).
    fn store(&self, ticket: u64, record: Arc<TimelineRecord>) {
        let slot = (ticket % self.capacity() as u64) as usize;
        let mut slot = self.slots[slot].lock().expect("trace ring slot poisoned");
        if ticket >= slot.seq {
            slot.seq = ticket;
            slot.record = Some(record);
        }
    }

    /// The most recent `n` records, newest first. Under concurrent
    /// writers this is a best-effort snapshot: each slot is read
    /// atomically, but a racing lap may reorder neighbours.
    pub fn recent(&self, n: usize) -> Vec<Arc<TimelineRecord>> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let take = n.min(self.capacity()).min(cursor as usize);
        let mut out = Vec::with_capacity(take);
        for back in 1..=take as u64 {
            let slot = ((cursor - back) % self.capacity() as u64) as usize;
            let slot = self.slots[slot].lock().expect("trace ring slot poisoned");
            if let Some(record) = &slot.record {
                out.push(Arc::clone(record));
            }
        }
        out
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
    fn lapped_stale_writer_cannot_clobber_newer_records() {
        let ring = TraceRing::new(3);
        for i in 0..4 {
            ring.push(record(i)); // slot 0 now holds ticket 3
        }
        // A writer that claimed ticket 0, then stalled for a full lap,
        // finally stores: it must lose to slot 0's newer occupant.
        ring.store(0, Arc::new(record(99)));
        let got: Vec<u64> = ring.recent(10).iter().map(|r| r.total_us).collect();
        assert_eq!(got, vec![3, 2, 1]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(record(5));
        assert_eq!(ring.recent(1)[0].total_us, 5);
    }
}
