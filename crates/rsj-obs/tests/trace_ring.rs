//! The trace ring under contention, and property tests for the
//! Chrome-trace exporter over arbitrary timelines.

use proptest::prelude::*;
use rsj_obs::{chrome_trace_json, StageRecord, TimelineRecord, TraceRing};
use std::sync::Arc;

fn record(trace_id: String, total_us: u64, stages: Vec<StageRecord>) -> TimelineRecord {
    TimelineRecord {
        trace_id,
        op: "plan".to_string(),
        total_us,
        stages,
    }
}

#[test]
fn concurrent_writers_wrap_without_losing_the_newest_records() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 500;
    const CAPACITY: usize = 64;
    let ring = Arc::new(TraceRing::new(CAPACITY));

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    ring.push(record(
                        format!("w{w}-{i}"),
                        (w * PER_WRITER + i) as u64,
                        vec![],
                    ));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer");
    }

    let recent = ring.recent(CAPACITY * 2);
    assert_eq!(recent.len(), CAPACITY, "a full ring holds exactly capacity");

    // Every slot survived the contention intact: distinct records, each
    // one something a writer actually pushed. (Cross-writer order under
    // racing laps is deliberately unspecified.)
    let ids: Vec<&str> = recent.iter().map(|r| r.trace_id.as_str()).collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "no record may appear twice");
    for id in &ids {
        let (w, i) = id
            .strip_prefix('w')
            .and_then(|rest| rest.split_once('-'))
            .expect("writer-tagged id");
        assert!(w.parse::<usize>().unwrap() < WRITERS, "{id}");
        assert!(i.parse::<usize>().unwrap() < PER_WRITER, "{id}");
    }

    // Once the writers are done, a quiescent lap is fully ordered again:
    // the next `CAPACITY` pushes evict everything and read back exactly
    // newest-first.
    for i in 0..CAPACITY {
        ring.push(record(format!("final-{i}"), i as u64, vec![]));
    }
    let after: Vec<String> = ring
        .recent(CAPACITY)
        .into_iter()
        .map(|r| r.trace_id.clone())
        .collect();
    let expected: Vec<String> = (0..CAPACITY).rev().map(|i| format!("final-{i}")).collect();
    assert_eq!(after, expected);
}

#[test]
fn single_writer_wraparound_keeps_exactly_the_last_capacity() {
    let ring = TraceRing::new(4);
    for i in 0..11u64 {
        ring.push(record(format!("{i}"), i, vec![]));
    }
    let ids: Vec<String> = ring
        .recent(10)
        .into_iter()
        .map(|r| r.trace_id.clone())
        .collect();
    assert_eq!(ids, ["10", "9", "8", "7"]);
}

/// Raw material for one arbitrary timeline: a total and a list of
/// `(name index, gap, length)` stage triples. Stages are laid out
/// sequentially (possibly gapped, possibly zero-length) the way a
/// request records them — but the tail may extend past `total_us`,
/// exercising the exporter's clamping.
type RawRecord = (u64, Vec<(usize, u64, u64)>);

const STAGE_NAMES: [&str; 6] = [
    "queue_wait",
    "decode",
    "build",
    "solve",
    "journal_append",
    "write",
];

fn build_record(index: usize, raw: &RawRecord) -> TimelineRecord {
    let (total_us, ref triples) = *raw;
    let mut cursor = 0u64;
    let stages = triples
        .iter()
        .map(|&(name, gap, len)| {
            let start_us = cursor + gap;
            let end_us = start_us + len;
            cursor = end_us;
            StageRecord {
                name: STAGE_NAMES[name % STAGE_NAMES.len()].to_string(),
                start_us,
                end_us,
                args: Vec::new(),
            }
        })
        .collect();
    record(format!("{index:032x}"), total_us, stages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any batch of timelines the exporter emits valid JSON whose
    /// events are all complete ("X"), have non-negative monotone extents
    /// (`ts + dur <= total` of their request lane), and nest: sorted
    /// within a lane, every event either contains or is disjoint from
    /// the next.
    #[test]
    fn chrome_export_is_valid_and_well_nested(
        raw in proptest::collection::vec(
            (
                0u64..4_000,
                proptest::collection::vec((0usize..64, 0u64..600, 0u64..600), 0..8),
            ),
            0..5,
        )
    ) {
        let records: Vec<TimelineRecord> = raw
            .iter()
            .enumerate()
            .map(|(i, r)| build_record(i, r))
            .collect();
        let text = chrome_trace_json(&records);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("exporter emits valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents is an array");

        // One request event plus one event per stage.
        let expected: usize = records.iter().map(|r| 1 + r.stages.len()).sum();
        prop_assert_eq!(events.len(), expected);

        // Group by lane (tid); each lane's extent is its request event.
        for (index, rec) in records.iter().enumerate() {
            let tid = index as u64 + 1;
            let lane: Vec<_> = events
                .iter()
                .filter(|e| e["tid"].as_u64() == Some(tid))
                .collect();
            prop_assert_eq!(lane.len(), 1 + rec.stages.len());
            let mut intervals = Vec::new();
            for e in &lane {
                prop_assert_eq!(e["ph"].as_str(), Some("X"));
                let ts = e["ts"].as_u64().expect("ts is a non-negative integer");
                let dur = e["dur"].as_u64().expect("dur is a non-negative integer");
                prop_assert!(ts + dur <= rec.total_us, "event escapes its request: {e:?}");
                if e["cat"].as_str() == Some("stage") {
                    intervals.push((ts, ts + dur));
                }
            }
            // The exporter emits stages sorted (start asc, end desc):
            // verify the order and that consecutive intervals nest or
            // are disjoint — never partially overlap.
            for pair in intervals.windows(2) {
                let ((s1, e1), (s2, e2)) = (pair[0], pair[1]);
                prop_assert!(s1 < s2 || (s1 == s2 && e1 >= e2), "stages out of order");
                prop_assert!(
                    e2 <= e1 || s2 >= e1,
                    "partially overlapping stages: [{s1},{e1}) vs [{s2},{e2})"
                );
            }
        }
    }
}
