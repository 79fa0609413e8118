//! The durable plan journal: a CRC32-framed, append-only record log.
//!
//! Every solved `(cache_key, Plan)` pair becomes one framed record:
//!
//! ```text
//! ┌───────────┬──────────┬──────────┬──────────────────┐
//! │ magic (4) │ len (4)  │ crc (4)  │ payload (len)    │
//! │ "RSJ1"    │ u32 LE   │ u32 LE   │ JSON JournalRecord│
//! └───────────┴──────────┴──────────┴──────────────────┘
//! ```
//!
//! The CRC-32 (IEEE, the zlib/PNG polynomial) covers the payload bytes, so
//! any single-byte corruption of a frame — header or body — is detected.
//! Snapshot files (see the `durable` module) reuse the identical framing:
//! one codec, one recovery reader.
//!
//! Decoding is *forensic*, never trusting: the [`RecordScanner`] walks a
//! byte buffer frame by frame, and every way a frame can be damaged maps
//! to a typed [`RecordFault`] — bad magic, implausible length, CRC
//! mismatch, unparsable payload, a plan whose recomputed FNV-1a digest
//! disagrees with the journaled one, or a torn tail (the crash window of
//! an append that never finished). Faulty frames are **skipped with a
//! typed error, never a panic**: after a fault the scanner resynchronizes
//! by searching for the next magic marker, so one flipped bit cannot take
//! out the rest of the log. `"RSJ1"` has no border (no proper prefix that
//! is also a suffix), so a resync scan can never step over a genuine
//! frame start.
//!
//! Durability model: [`JournalWriter::append`] flushes each record to the
//! OS before returning, so everything acknowledged to a client survives
//! `kill -9` (process death). Surviving *machine* death too requires
//! `fsync: true`, which additionally issues `sync_data` per append.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use reservation_strategies::{plan_digest, Plan};
use serde::{Deserialize, Serialize};

/// Frame marker; chosen with no border so resync scans cannot skip a
/// genuine frame start.
pub(crate) const RECORD_MAGIC: [u8; 4] = *b"RSJ1";

/// Frame header size: magic + payload length + payload CRC.
pub(crate) const RECORD_HEADER_BYTES: usize = 12;

/// Upper bound on one record's payload; larger lengths are treated as
/// corruption (a flipped bit in the length field), not as allocations.
pub(crate) const MAX_RECORD_BYTES: usize = 64 << 20;

/// The default journal file name inside a `--journal-dir`.
pub const JOURNAL_FILE: &str = "journal.log";

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the zlib/PNG
/// checksum. Slicing-by-8: eight bytes per step through eight tables
/// built once per process, the same values as the bytewise table loop.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        // t[k][i]: the CRC of byte i followed by k zero bytes.
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            for (slot, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *slot = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// One journaled unit of work: the composite cache key and the plan the
/// solver produced for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// The server's composite cache key (`Planner::cache_key` + simulate
    /// options) — exactly what the warm cache is keyed on.
    pub key: String,
    /// The solved plan, digest included.
    pub plan: Plan,
}

/// A typed decoding fault: one damaged frame, located by byte offset.
/// Recovery skips the frame, counts the fault, and carries on — these are
/// diagnoses, not panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordFault {
    /// The bytes at `offset` are not a frame start (bit rot in the magic,
    /// or garbage between frames).
    BadMagic {
        /// Byte offset of the damaged region.
        offset: u64,
    },
    /// The length field is implausible (> `MAX_RECORD_BYTES`).
    BadLength {
        /// Byte offset of the frame header.
        offset: u64,
        /// The length the damaged header claimed.
        claimed: u32,
    },
    /// The payload does not match its CRC — at least one corrupted byte.
    BadCrc {
        /// Byte offset of the frame header.
        offset: u64,
        /// CRC stored in the header.
        stored: u32,
        /// CRC recomputed over the payload as read.
        computed: u32,
    },
    /// The CRC held but the payload is not a valid `JournalRecord` (a
    /// record written by an incompatible schema, or a CRC collision).
    BadPayload {
        /// Byte offset of the frame header.
        offset: u64,
        /// Parser diagnostic.
        reason: String,
    },
    /// The decoded plan's recomputed FNV-1a sequence digest disagrees
    /// with the digest stored inside it — the plan is internally
    /// inconsistent and must not be served.
    DigestMismatch {
        /// Byte offset of the frame header.
        offset: u64,
        /// The record's cache key, for the operator's log.
        key: String,
    },
    /// The buffer ends mid-frame: the crash window of an unfinished
    /// append. Always the final event of a scan.
    TornTail {
        /// Byte offset where the torn frame starts.
        offset: u64,
        /// How many more bytes the frame needed.
        missing: usize,
    },
}

impl fmt::Display for RecordFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordFault::BadMagic { offset } => write!(f, "bad magic at offset {offset}"),
            RecordFault::BadLength { offset, claimed } => {
                write!(f, "implausible length {claimed} at offset {offset}")
            }
            RecordFault::BadCrc {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "crc mismatch at offset {offset} (stored {stored:08x}, computed {computed:08x})"
            ),
            RecordFault::BadPayload { offset, reason } => {
                write!(f, "unparsable payload at offset {offset}: {reason}")
            }
            RecordFault::DigestMismatch { offset, key } => {
                write!(f, "plan digest mismatch at offset {offset} (key {key})")
            }
            RecordFault::TornTail { offset, missing } => {
                write!(f, "torn tail at offset {offset} ({missing} bytes missing)")
            }
        }
    }
}

/// Initial capacity of a frame: one allocation holds a typical record.
const FRAME_CAPACITY: usize = RECORD_HEADER_BYTES + 1024;

/// Encodes one record as a complete frame (header + payload): the
/// payload streams into the frame buffer behind a placeholder header,
/// whose length and CRC are then filled in. A record that does not
/// serialize, or outgrows `MAX_RECORD_BYTES`, is an `InvalidData` error.
pub fn encode_record(record: &JournalRecord) -> io::Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(FRAME_CAPACITY);
    frame.extend_from_slice(&RECORD_MAGIC);
    frame.resize(RECORD_HEADER_BYTES, 0);
    serde_json::to_writer(&mut frame, record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let (header, payload) = frame.split_at_mut(RECORD_HEADER_BYTES);
    if payload.len() > MAX_RECORD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "record payload {} bytes exceeds MAX_RECORD_BYTES",
                payload.len()
            ),
        ));
    }
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(frame)
}

/// A scanned frame: its header offset and the decoded record.
pub(crate) type ScannedRecord = (u64, JournalRecord);

/// Walks a framed byte buffer, yielding decoded records and typed faults
/// in file order. Never panics on any input; after a fault it
/// resynchronizes on the next `RECORD_MAGIC` occurrence.
///
/// The whole log is scanned from memory: journals are compacted into
/// snapshots every `--snapshot-every` appends, so the tail being replayed
/// stays small (and a snapshot is exactly one compacted journal).
pub struct RecordScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordScanner<'a> {
    /// A scanner over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Finds the next occurrence of [`RECORD_MAGIC`] at or after `from`,
    /// or the end of the buffer.
    fn resync(&self, from: usize) -> usize {
        let mut i = from;
        while i + RECORD_MAGIC.len() <= self.buf.len() {
            if self.buf[i..i + RECORD_MAGIC.len()] == RECORD_MAGIC {
                return i;
            }
            i += 1;
        }
        self.buf.len()
    }
}

impl Iterator for RecordScanner<'_> {
    type Item = Result<ScannedRecord, RecordFault>;

    fn next(&mut self) -> Option<Self::Item> {
        let offset = self.pos;
        let remaining = self.buf.len() - offset;
        if remaining == 0 {
            return None;
        }
        if remaining < RECORD_HEADER_BYTES {
            // Not even a header fits: either a torn append or trailing
            // garbage. If it starts like a frame, call it torn.
            self.pos = self.buf.len();
            if self.buf[offset..].starts_with(&RECORD_MAGIC[..remaining.min(4)]) {
                return Some(Err(RecordFault::TornTail {
                    offset: offset as u64,
                    missing: RECORD_HEADER_BYTES - remaining,
                }));
            }
            return Some(Err(RecordFault::BadMagic {
                offset: offset as u64,
            }));
        }
        if self.buf[offset..offset + 4] != RECORD_MAGIC {
            // Garbage (or a zeroed tail): report once, then hunt for
            // the next frame start.
            self.pos = self.resync(offset + 1);
            return Some(Err(RecordFault::BadMagic {
                offset: offset as u64,
            }));
        }
        let len = u32::from_le_bytes(
            self.buf[offset + 4..offset + 8]
                .try_into()
                .expect("4 bytes"),
        );
        let stored_crc = u32::from_le_bytes(
            self.buf[offset + 8..offset + 12]
                .try_into()
                .expect("4 bytes"),
        );
        if len as usize > MAX_RECORD_BYTES {
            // A flipped bit in the length field; the rest of the header
            // cannot be trusted either, so resync past this magic.
            self.pos = self.resync(offset + 4);
            return Some(Err(RecordFault::BadLength {
                offset: offset as u64,
                claimed: len,
            }));
        }
        let body_start = offset + RECORD_HEADER_BYTES;
        let body_end = body_start + len as usize;
        if body_end > self.buf.len() {
            // The append never finished (crash window) — or a flipped
            // length bit points past the end. A true torn tail is the
            // *last* thing in the file, so if another frame start
            // exists later, the length was lying: skip there instead
            // of abandoning readable records.
            let next = self.resync(offset + 4);
            if next < self.buf.len() {
                self.pos = next;
                return Some(Err(RecordFault::BadLength {
                    offset: offset as u64,
                    claimed: len,
                }));
            }
            self.pos = self.buf.len();
            return Some(Err(RecordFault::TornTail {
                offset: offset as u64,
                missing: body_end - self.buf.len(),
            }));
        }
        let payload = &self.buf[body_start..body_end];
        let computed = crc32(payload);
        if computed != stored_crc {
            // Corrupt payload or corrupt header: trust neither, resync
            // past this magic. (`RSJ1` has no border, so the scan
            // cannot step over a genuine later frame.)
            self.pos = self.resync(offset + 4);
            return Some(Err(RecordFault::BadCrc {
                offset: offset as u64,
                stored: stored_crc,
                computed,
            }));
        }
        // CRC-validated frame: the framing is sound even if the
        // payload semantics are not, so skip frame-aligned from here.
        self.pos = body_end;
        let record: JournalRecord = match serde_json::from_slice(payload) {
            Ok(r) => r,
            Err(e) => {
                return Some(Err(RecordFault::BadPayload {
                    offset: offset as u64,
                    reason: e.to_string(),
                }));
            }
        };
        if plan_digest(record.plan.sequence.iter().copied()) != record.plan.digest {
            return Some(Err(RecordFault::DigestMismatch {
                offset: offset as u64,
                key: record.key,
            }));
        }
        Some(Ok((offset as u64, record)))
    }
}

/// Byte spans of the well-formed frames in `buf`, in order. Used by the
/// chaos corruption injector to aim a fault at "record `i`".
pub fn frame_spans(buf: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut scanner = RecordScanner::new(buf);
    while let Some(item) = scanner.next() {
        if let Ok((offset, _)) = item {
            spans.push(offset as usize..scanner.pos);
        }
    }
    spans
}

/// The append half: an exclusive handle on `journal.log`, flushing each
/// record to the OS before acknowledging it.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    fsync: bool,
}

impl JournalWriter {
    /// Opens (creating if needed) the journal at `path` for appending.
    /// `fsync` additionally issues `sync_data` per append, extending the
    /// durability guarantee from process death to machine death.
    pub fn open(path: impl Into<PathBuf>, fsync: bool) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
            fsync,
        })
    }

    /// Appends one record and flushes it to the OS; returns the frame
    /// size in bytes. After `Ok`, the record survives `kill -9`.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<usize> {
        let frame = encode_record(record)?;
        self.file.write_all(&frame)?;
        self.file.flush()?;
        if self.fsync {
            self.file.get_ref().sync_data()?;
        }
        Ok(frame.len())
    }

    /// Empties the journal — called right after a snapshot compaction has
    /// durably captured everything the journal held. The file is
    /// truncated in place and the handle reopened for appending.
    pub(crate) fn reset(&mut self) -> io::Result<()> {
        self.file.flush()?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        if self.fsync {
            file.sync_all()?;
        }
        drop(file);
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.file = BufWriter::new(file);
        Ok(())
    }

    /// Forces everything buffered out to disk (`sync_data`), regardless
    /// of the per-append `fsync` setting.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }
}

/// Reads a journal (or snapshot) file fully into memory for scanning. A
/// missing file is an empty journal, not an error — the first boot of a
/// fresh `--journal-dir` has nothing to replay.
pub fn read_log_bytes(path: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Records and scratch directories shared by the journal and durability
/// unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// A digest-consistent record keyed `key-{tag}`.
    pub(crate) fn record(tag: &str, seq: &[f64]) -> JournalRecord {
        JournalRecord {
            key: format!("key-{tag}"),
            plan: Plan {
                distribution: format!("dist-{tag}"),
                solver: "mean_by_mean".to_string(),
                sequence: seq.to_vec(),
                complete: true,
                expected_cost: 2.5,
                omniscient_cost: 1.25,
                normalized_cost: 2.0,
                coverage_gap: 0.0,
                digest: plan_digest(seq.iter().copied()),
                simulation: None,
            },
        }
    }

    /// A fresh, empty directory under the system temp dir, unique to
    /// `tag` and this process.
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsj_unit_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{record, temp_dir};
    use super::*;

    fn stream(records: &[JournalRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&encode_record(r).expect("encode"));
        }
        buf
    }

    /// The bytewise table loop slicing-by-8 replaced: the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        // Every length from 0 to 1,999 over random bytes, each from one of
        // 61 start offsets, so every remainder length and every alignment
        // of the 8-byte steps is covered.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let buf: Vec<u8> = (0..2_100)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in 0..2_000 {
            let start = (len * 7) % 61;
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "len {len} start {start}"
            );
        }
    }

    #[test]
    fn records_round_trip_bit_for_bit() {
        let records = vec![
            record("a", &[1.0, 2.5, 10.0]),
            record("b", &[0.125]),
            record("c", &[3.0, 4.0, 5.0, 6.0]),
        ];
        let buf = stream(&records);
        let decoded: Vec<_> = RecordScanner::new(&buf)
            .map(|r| r.expect("clean stream").1)
            .collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn torn_tail_is_typed_and_terminal() {
        let records = vec![record("a", &[1.0]), record("b", &[2.0])];
        let buf = stream(&records);
        // Cut mid-way through the second frame's payload.
        let spans = frame_spans(&buf);
        let cut = spans[1].start + RECORD_HEADER_BYTES + 3;
        let torn = &buf[..cut];
        let items: Vec<_> = RecordScanner::new(torn).collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].as_ref().expect("first intact").1, records[0]);
        assert!(
            matches!(items[1], Err(RecordFault::TornTail { .. })),
            "{:?}",
            items[1]
        );
    }

    #[test]
    fn header_torn_tail_is_typed() {
        let buf = stream(&[record("a", &[1.0])]);
        // Only the first 6 bytes of a header survive.
        let torn = &buf[..6];
        let items: Vec<_> = RecordScanner::new(torn).collect();
        assert_eq!(
            items,
            vec![Err(RecordFault::TornTail {
                offset: 0,
                missing: RECORD_HEADER_BYTES - 6,
            })]
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected_and_skipped() {
        let records = vec![
            record("a", &[1.0, 2.0]),
            record("b", &[3.0, 4.0]),
            record("c", &[5.0, 6.0]),
        ];
        let buf = stream(&records);
        let spans = frame_spans(&buf);
        // Flip one byte somewhere in the middle record — header and body.
        for pos in spans[1].clone() {
            let mut damaged = buf.clone();
            damaged[pos] ^= 0x40;
            let mut ok = Vec::new();
            let mut faults = 0usize;
            for item in RecordScanner::new(&damaged) {
                match item {
                    Ok((_, r)) => ok.push(r),
                    Err(_) => faults += 1,
                }
            }
            assert!(faults >= 1, "flip at {pos} went undetected");
            // The damaged record never resurfaces silently wrong; its
            // neighbors always survive.
            assert!(
                ok.contains(&records[0]) && ok.contains(&records[2]),
                "flip at {pos} took out an undamaged neighbor"
            );
            assert!(
                !ok.iter().any(|r| r.key == "key-b" && *r != records[1]),
                "flip at {pos} produced a silently wrong record"
            );
        }
    }

    #[test]
    fn zeroed_tail_is_one_typed_fault() {
        let records = vec![record("a", &[1.0])];
        let mut buf = stream(&records);
        buf.extend_from_slice(&[0u8; 37]);
        let items: Vec<_> = RecordScanner::new(&buf).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(
            matches!(items[1], Err(RecordFault::BadMagic { .. })),
            "{:?}",
            items[1]
        );
    }

    #[test]
    fn garbage_between_frames_resyncs_to_the_next_record() {
        let a = record("a", &[1.0]);
        let b = record("b", &[2.0]);
        let mut buf = encode_record(&a).unwrap();
        buf.extend_from_slice(b"\x07garbage bytes\xFF\xFE");
        buf.extend_from_slice(&encode_record(&b).unwrap());
        let mut ok = Vec::new();
        let mut faults = Vec::new();
        for item in RecordScanner::new(&buf) {
            match item {
                Ok((_, r)) => ok.push(r),
                Err(f) => faults.push(f),
            }
        }
        assert_eq!(ok, vec![a, b]);
        assert_eq!(faults.len(), 1, "{faults:?}");
    }

    #[test]
    fn duplicate_frames_decode_as_duplicates() {
        let a = record("a", &[1.0]);
        let mut buf = encode_record(&a).unwrap();
        let dup = buf.clone();
        buf.extend_from_slice(&dup);
        let decoded: Vec<_> = RecordScanner::new(&buf)
            .map(|r| r.expect("clean").1)
            .collect();
        assert_eq!(decoded, vec![a.clone(), a]);
    }

    #[test]
    fn forged_digest_is_a_typed_fault() {
        let mut bad = record("a", &[1.0, 2.0]);
        bad.plan.digest = "deadbeefdeadbeef".to_string();
        let buf = encode_record(&bad).unwrap();
        let items: Vec<_> = RecordScanner::new(&buf).collect();
        assert_eq!(items.len(), 1);
        assert!(
            matches!(items[0], Err(RecordFault::DigestMismatch { .. })),
            "{:?}",
            items[0]
        );
    }

    #[test]
    fn writer_appends_flushes_and_resets() {
        // With `fsync` the same calls also run `sync_data` per append and
        // `sync_all` on reset; the bytes read back must not change.
        for fsync in [false, true] {
            let dir = temp_dir(&format!("journal_fsync_{fsync}"));
            let path = dir.join(JOURNAL_FILE);

            let mut writer = JournalWriter::open(&path, fsync).unwrap();
            let a = record("a", &[1.0]);
            let b = record("b", &[2.0]);
            writer.append(&a).unwrap();
            writer.append(&b).unwrap();

            // Readable while the writer handle is still live (flushed per append).
            let bytes = read_log_bytes(&path).unwrap();
            let decoded: Vec<_> = RecordScanner::new(&bytes).map(|r| r.unwrap().1).collect();
            assert_eq!(decoded, vec![a, b.clone()], "fsync {fsync}");

            // Reset empties the file; appends keep working afterwards.
            writer.reset().unwrap();
            assert!(read_log_bytes(&path).unwrap().is_empty(), "fsync {fsync}");
            writer.append(&b).unwrap();
            let bytes = read_log_bytes(&path).unwrap();
            let decoded: Vec<_> = RecordScanner::new(&bytes).map(|r| r.unwrap().1).collect();
            assert_eq!(decoded, vec![b], "fsync {fsync}");

            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn missing_journal_reads_as_empty() {
        let path = std::env::temp_dir().join("rsj_journal_never_created.log");
        assert!(read_log_bytes(&path).unwrap().is_empty());
    }
}
