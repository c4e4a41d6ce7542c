//! Write-ahead logging.
//!
//! "Write-ahead logging ensures atomicity and crash-consistency" (§4), and
//! §7.1 explains how it makes synchronous operations affordable: a
//! synchronous update appends a record to a sequential on-disk log, and the
//! log is *applied* to the object map in batches (about once every 1,000
//! synchronous operations in the LFS benchmark).  The log therefore turns
//! random synchronous writes into sequential appends.
//!
//! The log lives in a reserved region at the start of the simulated disk.
//! The unit of disk I/O is a *frame*: one checksummed blob holding one or
//! more records.  Group commit (§5's "group sync") coalesces concurrent
//! synchronous updates into a single multi-record frame, so N syncs cost
//! one disk write and one flush; a frame is all-or-nothing on recovery,
//! which is exactly the ack boundary — no record in a frame is
//! acknowledged until the whole frame is durable.  Recovery replays every
//! valid frame up to the first corrupt/torn one, reading the region in
//! large chunks rather than record-by-record.

use crate::codec::{frame, unframe, DecodeError, Decoder, Encoder, Wire};
use histar_obs::{Histogram, BATCH_SIZE_EDGES};
use histar_sim::disk::SimDisk;

/// Chunk size for reading the log region at recovery: big enough that a
/// short log costs one or two reads, small enough that recovery of a
/// short log never pays for the whole region.
pub const RECOVER_CHUNK: u64 = 64 * 1024;

/// One logical update captured in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// An object was written or updated: `(object id, serialized bytes)`.
    PutObject(u64, Vec<u8>),
    /// An object was deleted.
    DeleteObject(u64),
    /// A full checkpoint completed; records before this point are obsolete.
    CheckpointMarker {
        /// Sequence number of the checkpoint.
        sequence: u64,
    },
}

/// The tag byte before each kind of record.
const PUT: u8 = 1;
const DELETE: u8 = 2;
const MARKER: u8 = 3;

/// A tag byte, then the record's fields: self-delimiting, so several
/// records can share one frame.  An unknown tag is
/// [`DecodeError::BadValue`].
impl Wire<'_> for LogRecord {
    fn put(&self, e: &mut Encoder) {
        match self {
            LogRecord::PutObject(id, data) => e.put_u8(PUT).put_u64(*id).put_bytes(data),
            LogRecord::DeleteObject(id) => e.put_u8(DELETE).put_u64(*id),
            LogRecord::CheckpointMarker { sequence } => e.put_u8(MARKER).put_u64(*sequence),
        };
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<LogRecord, DecodeError> {
        Ok(match d.get_u8()? {
            PUT => LogRecord::PutObject(d.get_u64()?, d.get_bytes()?),
            DELETE => LogRecord::DeleteObject(d.get_u64()?),
            MARKER => LogRecord::CheckpointMarker {
                sequence: d.get_u64()?,
            },
            _ => return Err(DecodeError::BadValue),
        })
    }
}

impl LogRecord {
    /// Bytes this record occupies inside a frame payload.
    pub fn encoded_len(&self) -> u64 {
        match self {
            // tag + id + length-prefixed body
            LogRecord::PutObject(_, data) => 1 + 8 + 8 + data.len() as u64,
            LogRecord::DeleteObject(_) => 1 + 8,
            LogRecord::CheckpointMarker { .. } => 1 + 8,
        }
    }
}

/// Statistics about log activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalStats {
    /// Logical records appended since creation.
    pub appends: u64,
    /// Physical frames written since creation (each costs one disk write
    /// and one flush — the unit the cost model charges).
    pub frames: u64,
    /// Bytes appended since creation.
    pub bytes_appended: u64,
    /// Number of times the log has been applied (truncated).
    pub applications: u64,
    /// Frames that carried more than one record (group commits).
    pub group_commits: u64,
    /// Records that shared a frame with at least one other record.
    pub records_coalesced: u64,
    /// Records-per-frame distribution.
    pub flush_batch: Histogram<8>,
}

impl Default for WalStats {
    fn default() -> WalStats {
        WalStats {
            appends: 0,
            frames: 0,
            bytes_appended: 0,
            applications: 0,
            group_commits: 0,
            records_coalesced: 0,
            flush_batch: Histogram::new(&BATCH_SIZE_EDGES),
        }
    }
}

impl histar_obs::MetricSource for WalStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("wal.appends", self.appends);
        set.counter("wal.frames", self.frames);
        set.counter("wal.bytes_appended", self.bytes_appended);
        set.counter("wal.applications", self.applications);
        set.counter("wal.group_commits", self.group_commits);
        set.counter("wal.records_coalesced", self.records_coalesced);
        set.histogram("wal.flush_batch", &self.flush_batch);
    }
}

/// A write-ahead log stored in a reserved region of the disk.
#[derive(Debug)]
pub struct WriteAheadLog {
    /// Byte offset of the log region on disk.
    region_start: u64,
    /// Size of the log region in bytes.
    region_len: u64,
    /// Next append position, relative to `region_start`.
    head: u64,
    /// Records appended since the last application (in-memory mirror used
    /// for applying without re-reading the disk).
    pending: Vec<LogRecord>,
    stats: WalStats,
}

impl WriteAheadLog {
    /// Creates an empty log occupying `[region_start, region_start + region_len)`.
    pub fn new(region_start: u64, region_len: u64) -> WriteAheadLog {
        WriteAheadLog {
            region_start,
            region_len,
            head: 0,
            pending: Vec::new(),
            stats: WalStats::default(),
        }
    }

    /// Size of the log region.
    pub fn region_len(&self) -> u64 {
        self.region_len
    }

    /// Bytes of log space currently used.
    pub fn used(&self) -> u64 {
        self.head
    }

    /// Number of records appended but not yet applied.
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// The records appended but not yet applied, oldest first.
    pub fn pending(&self) -> &[LogRecord] {
        &self.pending
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Returns true if appending `approx_bytes` more would overflow the
    /// region (the caller should apply the log first).
    pub fn needs_application(&self, approx_bytes: u64) -> bool {
        self.head + approx_bytes + 64 > self.region_len
    }

    /// Appends a single record; see [`WriteAheadLog::append_frame`].
    pub fn append(&mut self, disk: &mut SimDisk, record: LogRecord) -> u64 {
        self.append_frame(disk, vec![record])
    }

    /// Appends a batch of records as ONE checksummed frame, synchronously
    /// writing it to disk.  The frame is all-or-nothing at recovery, so a
    /// group of coalesced syncs is either entirely durable or entirely
    /// lost — the caller must ack the group only after this returns.
    ///
    /// Returns the number of bytes written.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not fit in the log region; callers must
    /// check [`WriteAheadLog::needs_application`] first.
    pub fn append_frame(&mut self, disk: &mut SimDisk, records: Vec<LogRecord>) -> u64 {
        assert!(!records.is_empty(), "an empty frame is the log terminator");
        let mut e = Encoder::new();
        for record in &records {
            record.put(&mut e);
        }
        let framed = frame(&e.finish());
        let len = framed.len() as u64;
        assert!(
            self.head + len <= self.region_len,
            "log region overflow; apply the log before appending"
        );
        disk.write(self.region_start + self.head, &framed);
        self.head += len;
        // Terminate the log with an empty frame so that recovery never
        // replays stale records left over from before the last truncation.
        let terminator = frame(&[]);
        if self.head + terminator.len() as u64 <= self.region_len {
            disk.write(self.region_start + self.head, &terminator);
        }
        let n = records.len() as u64;
        self.pending.extend(records);
        self.stats.appends += n;
        self.stats.frames += 1;
        self.stats.bytes_appended += len;
        self.stats.flush_batch.record(n);
        if n > 1 {
            self.stats.group_commits += 1;
            self.stats.records_coalesced += n;
        }
        len
    }

    /// Takes every record appended since the last application and resets the
    /// log head.  The caller is responsible for durably applying the records
    /// (writing objects to their home locations) before the next crash point
    /// — in the simulator this ordering is enforced by the store.
    pub fn take_pending(&mut self) -> Vec<LogRecord> {
        self.head = 0;
        self.stats.applications += 1;
        std::mem::take(&mut self.pending)
    }

    /// Adopts the state a crash left behind: `used` bytes of valid log on
    /// disk and the records they decode to.  Recovery continues appending
    /// after the surviving frames instead of rewriting the region, so a
    /// mount performs no log writes at all.
    pub fn resume(&mut self, used: u64, pending: Vec<LogRecord>) {
        self.head = used;
        self.pending = pending;
    }

    /// Replays the log region from disk in [`RECOVER_CHUNK`]-sized reads,
    /// returning every record of every valid frame up to the first torn or
    /// corrupt frame, plus the byte offset where the valid prefix ends
    /// (pass it to [`WriteAheadLog::resume`]).  A torn multi-record frame
    /// contributes none of its records: the frame is the ack boundary.
    pub fn recover(&self, disk: &mut SimDisk) -> (Vec<LogRecord>, u64) {
        self.recover_chunked(disk, RECOVER_CHUNK)
    }

    /// [`WriteAheadLog::recover`] with an explicit chunk size; passing
    /// [`WriteAheadLog::region_len`] reads the whole region in one I/O
    /// (the legacy replay strategy).
    pub fn recover_chunked(&self, disk: &mut SimDisk, chunk: u64) -> (Vec<LogRecord>, u64) {
        let region = self.region_len as usize;
        let chunk = (chunk.max(4096) as usize).min(region.max(1));
        let mut buf: Vec<u8> = Vec::new();
        // Reads chunk-aligned, contiguous (hence seek-free after the
        // first) extents until `buf` covers `upto` bytes of the region.
        let fetch_to = |buf: &mut Vec<u8>, disk: &mut SimDisk, upto: usize| {
            while buf.len() < upto.min(region) {
                let len = chunk.min(region - buf.len());
                let chunk_bytes = disk.read(self.region_start + buf.len() as u64, len as u64);
                buf.extend_from_slice(&chunk_bytes);
            }
        };
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 16 <= region {
            // Peek the length prefix before unframing: a frame may span
            // many chunks, and `unframe` on a truncated buffer cannot
            // distinguish "need more bytes" from "torn".
            fetch_to(&mut buf, disk, pos + 8);
            let plen = Decoder::new(buf.get(pos..).unwrap_or_default()).get_u64();
            let end = plen.map_or(u64::MAX, |plen| plen.saturating_add(pos as u64 + 16));
            if end > region as u64 {
                break;
            }
            fetch_to(&mut buf, disk, end as usize);
            // A frame is all its records or none of them.
            let Ok((payload, consumed)) = unframe(buf.get(pos..).unwrap_or_default()) else {
                break;
            };
            let mut d = Decoder::new(payload);
            let records: Result<Vec<LogRecord>, DecodeError> =
                core::iter::from_fn(|| (d.remaining() > 0).then(|| LogRecord::get(&mut d, ())))
                    .collect();
            match records {
                Ok(records) if !records.is_empty() => out.extend(records),
                _ => break,
            }
            pos += consumed;
        }
        (out, pos as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_sim::{DiskConfig, SimClock};

    fn disk() -> SimDisk {
        SimDisk::new(DiskConfig::default(), SimClock::new())
    }

    #[test]
    fn append_and_recover() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(4096, 1 << 20);
        wal.append(&mut d, LogRecord::PutObject(7, vec![1, 2, 3]));
        wal.append(&mut d, LogRecord::DeleteObject(9));
        wal.append(&mut d, LogRecord::CheckpointMarker { sequence: 4 });
        let (recovered, consumed) = wal.recover(&mut d);
        assert_eq!(
            recovered,
            vec![
                LogRecord::PutObject(7, vec![1, 2, 3]),
                LogRecord::DeleteObject(9),
                LogRecord::CheckpointMarker { sequence: 4 },
            ]
        );
        assert_eq!(consumed, wal.used());
        assert_eq!(wal.stats().appends, 3);
        assert_eq!(wal.stats().frames, 3);
        assert_eq!(wal.stats().group_commits, 0);
    }

    #[test]
    fn grouped_records_share_one_frame() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 1 << 20);
        let frames_before = d.stats().writes;
        wal.append_frame(
            &mut d,
            vec![
                LogRecord::PutObject(1, vec![0xaa; 64]),
                LogRecord::PutObject(2, vec![0xbb; 64]),
                LogRecord::DeleteObject(3),
            ],
        );
        // One frame write plus the terminator.
        assert_eq!(d.stats().writes - frames_before, 2);
        let (recovered, consumed) = wal.recover(&mut d);
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[2], LogRecord::DeleteObject(3));
        assert_eq!(consumed, wal.used());
        let stats = wal.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.group_commits, 1);
        assert_eq!(stats.records_coalesced, 3);
        assert_eq!(stats.flush_batch.total(), 1);
        assert_eq!(stats.flush_batch[stats.flush_batch.bucket_of(3)], 1);
    }

    #[test]
    fn recovery_stops_at_corruption() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 1 << 20);
        wal.append(&mut d, LogRecord::PutObject(1, vec![9; 100]));
        let first_len = wal.used();
        wal.append(&mut d, LogRecord::PutObject(2, vec![8; 100]));
        // Corrupt the second record on disk.
        d.write(first_len + 20, &[0xff, 0xee, 0xdd]);
        let (recovered, consumed) = wal.recover(&mut d);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0], LogRecord::PutObject(1, vec![9; 100]));
        assert_eq!(consumed, first_len);
    }

    #[test]
    fn torn_group_frame_loses_all_its_records() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 1 << 20);
        wal.append(&mut d, LogRecord::PutObject(1, vec![7; 32]));
        let first_len = wal.used();
        wal.append_frame(
            &mut d,
            vec![
                LogRecord::PutObject(2, vec![6; 32]),
                LogRecord::PutObject(3, vec![5; 32]),
            ],
        );
        // Tear the tail of the grouped frame: the whole group must vanish,
        // because neither record was acked before the shared frame landed.
        d.write(wal.used() - 4, &[0u8; 4]);
        let (recovered, consumed) = wal.recover(&mut d);
        assert_eq!(recovered, vec![LogRecord::PutObject(1, vec![7; 32])]);
        assert_eq!(consumed, first_len);
    }

    #[test]
    fn chunked_and_whole_region_recovery_agree() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 1 << 20);
        for i in 0..200u64 {
            wal.append(&mut d, LogRecord::PutObject(i, vec![i as u8; 700]));
        }
        let chunked = wal.recover_chunked(&mut d, 8192);
        let whole = wal.recover_chunked(&mut d, wal.region_len());
        assert_eq!(chunked, whole);
        assert_eq!(chunked.0.len(), 200);
    }

    #[test]
    fn take_pending_resets_head() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 4096);
        for i in 0..10u64 {
            wal.append(&mut d, LogRecord::DeleteObject(i));
        }
        assert_eq!(wal.pending_records(), 10);
        let pending = wal.take_pending();
        assert_eq!(pending.len(), 10);
        assert_eq!(wal.used(), 0);
        assert_eq!(wal.pending_records(), 0);
        assert_eq!(wal.stats().applications, 1);
    }

    #[test]
    fn resume_continues_after_surviving_frames() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 1 << 20);
        wal.append(&mut d, LogRecord::PutObject(1, vec![1; 50]));
        wal.append(&mut d, LogRecord::PutObject(2, vec![2; 50]));
        let (records, consumed) = wal.recover(&mut d);
        let mut resumed = WriteAheadLog::new(0, 1 << 20);
        resumed.resume(consumed, records);
        assert_eq!(resumed.used(), consumed);
        assert_eq!(resumed.pending_records(), 2);
        resumed.append(&mut d, LogRecord::PutObject(3, vec![3; 50]));
        let (after, _) = resumed.recover(&mut d);
        assert_eq!(after.len(), 3, "append lands after the surviving prefix");
    }

    #[test]
    fn needs_application_when_region_fills() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 2048);
        let payload = vec![0u8; 400];
        let mut appended = 0;
        while !wal.needs_application(450) {
            wal.append(&mut d, LogRecord::PutObject(appended, payload.clone()));
            appended += 1;
        }
        assert!(appended >= 3, "several records should fit");
        assert!(wal.needs_application(450));
    }

    #[test]
    #[should_panic(expected = "log region overflow")]
    fn overflowing_append_panics() {
        let mut d = disk();
        let mut wal = WriteAheadLog::new(0, 128);
        wal.append(&mut d, LogRecord::PutObject(1, vec![0u8; 500]));
    }

    #[test]
    fn empty_region_recovers_nothing() {
        let mut d = disk();
        let wal = WriteAheadLog::new(0, 4096);
        let (records, consumed) = wal.recover(&mut d);
        assert!(records.is_empty());
        assert_eq!(consumed, 0);
    }
}
