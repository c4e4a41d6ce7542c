//! A simulated IDE disk with seek, rotation and bandwidth costs.
//!
//! The paper's testbed used a 40 GB, 7,200 RPM Seagate ST340014A EIDE drive;
//! §7.1 cites its 8.3 ms rotational latency (full revolution) and ~58 MB/s
//! sequential bandwidth, and attributes Linux's uncached small-file read
//! advantage to the drive's read look-ahead combined with ext3's directory
//! clustering.  [`SimDisk`] models exactly those effects:
//!
//! * sequential access pays only transfer time;
//! * a random access pays seek + rotational delay;
//! * an optional look-ahead cache makes a read *near* the previous one hit
//!   the track cache instead of paying rotation;
//! * an in-memory store holds block contents so the single-level store can
//!   actually round-trip data through the "disk".

use crate::clock::{SimClock, SimDuration};
use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;

/// Size of one disk sector/block in bytes.
pub const BLOCK_SIZE: u64 = 4096;

/// Configuration for a [`SimDisk`].
#[derive(Clone, Copy, Debug)]
pub struct DiskConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Average seek time for a random access.
    pub seek: SimDuration,
    /// Average rotational delay for a random access (half a revolution of a
    /// 7,200 RPM spindle is ~4.17 ms; the paper quotes the full-revolution
    /// figure of 8.3 ms when discussing worst-case per-file reads).
    pub rotational: SimDuration,
    /// Sequential transfer bandwidth in bytes per second.
    pub bandwidth: u64,
    /// Whether the drive's read look-ahead (track cache) is enabled.
    pub read_lookahead: bool,
    /// How many bytes beyond the last access the look-ahead covers.
    pub lookahead_window: u64,
    /// Whether a volatile write cache absorbs writes until `flush`.
    pub write_cache: bool,
}

impl Default for DiskConfig {
    fn default() -> DiskConfig {
        DiskConfig {
            capacity: 40 * 1024 * 1024 * 1024,
            seek: SimDuration::from_micros(8_500),
            rotational: SimDuration::from_micros(4_170),
            bandwidth: 58 * 1024 * 1024,
            read_lookahead: true,
            lookahead_window: 512 * 1024,
            write_cache: false,
        }
    }
}

impl DiskConfig {
    /// The paper's drive with read look-ahead disabled (the "no IDE disk
    /// prefetch" row of Figure 12).
    pub fn no_lookahead() -> DiskConfig {
        DiskConfig {
            read_lookahead: false,
            ..DiskConfig::default()
        }
    }
}

/// Statistics accumulated by a [`SimDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read operations issued to the device.
    pub reads: u64,
    /// Number of write operations issued to the device.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Read operations satisfied by the look-ahead/track cache.
    pub lookahead_hits: u64,
    /// Number of explicit cache flushes.
    pub flushes: u64,
    /// Total simulated time spent on this device.
    pub busy: SimDuration,
}

impl histar_obs::MetricSource for DiskStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("disk.reads", self.reads);
        set.counter("disk.writes", self.writes);
        set.counter("disk.bytes_read", self.bytes_read);
        set.counter("disk.bytes_written", self.bytes_written);
        set.counter("disk.lookahead_hits", self.lookahead_hits);
        set.counter("disk.flushes", self.flushes);
        set.counter("disk.busy_ns", self.busy.as_nanos());
    }
}

/// A simulated block device.
///
/// All operations advance the machine-wide [`SimClock`] by the simulated
/// service time and record per-device statistics.
#[derive(Debug)]
pub struct SimDisk {
    config: DiskConfig,
    clock: SimClock,
    /// Hashed with a constant key.  `HashMap`'s default hasher draws a seed
    /// per process, a dropped disk frees its blocks in hash order, and that
    /// order decides the host allocator's layout for whatever runs next —
    /// so host time would differ between two runs of one binary.
    blocks: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>>,
    head_pos: u64,
    lookahead_end: u64,
    dirty: u64,
    stats: DiskStats,
}

impl SimDisk {
    /// Creates a disk with the given configuration, charging time to `clock`.
    pub fn new(config: DiskConfig, clock: SimClock) -> SimDisk {
        SimDisk {
            config,
            clock,
            blocks: HashMap::default(),
            head_pos: 0,
            lookahead_end: 0,
            dirty: 0,
            stats: DiskStats::default(),
        }
    }

    /// The disk's configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// The machine clock this disk charges to.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The full on-disk image as `(block number, contents)` pairs, sorted
    /// by block number — every block ever written, without charging any
    /// simulated time.  Two disks holding the same data compare equal
    /// block-for-block; snapshot byte-stability tests rely on this.
    pub fn image(&self) -> Vec<(u64, &[u8])> {
        let mut blocks: Vec<(u64, &[u8])> = self
            .blocks
            .iter()
            .map(|(n, data)| (*n, data.as_slice()))
            .collect();
        blocks.sort_unstable_by_key(|(n, _)| *n);
        blocks
    }

    /// A second device holding the same blocks, with a clock of its own and
    /// zeroed statistics: what a crash harness recovers from while the
    /// original keeps running.
    pub fn crash_copy(&self) -> SimDisk {
        SimDisk {
            blocks: self.blocks.clone(),
            ..SimDisk::new(self.config, SimClock::new())
        }
    }

    fn charge(&mut self, d: SimDuration) {
        self.stats.busy += d;
        self.clock.advance(d);
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.config.bandwidth == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.config.bandwidth as f64)
    }

    fn positioning_time(&mut self, offset: u64, is_read: bool) -> SimDuration {
        let sequential = offset >= self.head_pos && offset - self.head_pos <= BLOCK_SIZE;
        if sequential {
            return SimDuration::ZERO;
        }
        if is_read
            && self.config.read_lookahead
            && offset >= self.head_pos.saturating_sub(self.config.lookahead_window)
            && offset < self.lookahead_end
        {
            self.stats.lookahead_hits += 1;
            // Served from the track cache: a fraction of the rotational
            // delay to shift data out of the buffer.
            return SimDuration::from_nanos(self.config.rotational.as_nanos() / 10);
        }
        self.config.seek + self.config.rotational
    }

    /// Reads `len` bytes starting at byte `offset`.
    ///
    /// Returns the data (zeros for never-written ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn read(&mut self, offset: u64, len: u64) -> Vec<u8> {
        assert!(
            offset + len <= self.config.capacity,
            "read beyond end of device"
        );
        let pos = self.positioning_time(offset, true);
        let xfer = self.transfer_time(len);
        self.charge(pos + xfer);
        self.head_pos = offset + len;
        if self.config.read_lookahead {
            self.lookahead_end = offset + len + self.config.lookahead_window;
        }
        self.stats.reads += 1;
        self.stats.bytes_read += len;

        let mut out = vec![0u8; len as usize];
        let mut cursor = 0u64;
        while cursor < len {
            let abs = offset + cursor;
            let block = abs / BLOCK_SIZE;
            let within = (abs % BLOCK_SIZE) as usize;
            let chunk = core::cmp::min(BLOCK_SIZE - within as u64, len - cursor) as usize;
            if let Some(data) = self.blocks.get(&block) {
                out[cursor as usize..cursor as usize + chunk]
                    .copy_from_slice(&data[within..within + chunk]);
            }
            cursor += chunk as u64;
        }
        out
    }

    /// Writes `data` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        self.write_vectored(offset, &[data]);
    }

    /// Writes the concatenation of `parts` at byte `offset` as ONE device
    /// operation: one positioning charge, one transfer of the summed
    /// length, one `writes` count — exactly what [`SimDisk::write`] of the
    /// joined buffer costs, without the caller having to build it.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn write_vectored(&mut self, offset: u64, parts: &[&[u8]]) {
        let len = parts.iter().map(|p| p.len() as u64).sum::<u64>();
        assert!(
            offset + len <= self.config.capacity,
            "write beyond end of device"
        );
        let cost = if self.config.write_cache {
            // Absorbed by the cache; paid at flush time.
            self.dirty += len;
            self.transfer_time(len)
        } else {
            self.positioning_time(offset, false) + self.transfer_time(len)
        };
        self.charge(cost);
        self.head_pos = offset + len;
        self.stats.writes += 1;
        self.stats.bytes_written += len;

        let mut abs = offset;
        for part in parts {
            let mut rest = *part;
            while !rest.is_empty() {
                let block = abs / BLOCK_SIZE;
                let within = (abs % BLOCK_SIZE) as usize;
                let chunk = rest.len().min(BLOCK_SIZE as usize - within);
                let entry = self
                    .blocks
                    .entry(block)
                    .or_insert_with(|| vec![0u8; BLOCK_SIZE as usize]);
                entry[within..within + chunk].copy_from_slice(&rest[..chunk]);
                rest = &rest[chunk..];
                abs += chunk as u64;
            }
        }
    }

    /// Forces any cached writes to stable storage.
    pub fn flush(&mut self) {
        self.stats.flushes += 1;
        if self.config.write_cache && self.dirty > 0 {
            let cost = self.config.seek + self.config.rotational + self.transfer_time(self.dirty);
            self.dirty = 0;
            self.charge(cost);
        } else {
            // Even an empty flush costs a command round-trip.
            self.charge(SimDuration::from_micros(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskConfig::default(), SimClock::new())
    }

    #[test]
    fn data_round_trips() {
        let mut d = disk();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        d.write(12_345, &payload);
        assert_eq!(d.read(12_345, payload.len() as u64), payload);
        // Unwritten space reads as zeros.
        assert_eq!(d.read(10 * 1024 * 1024, 16), vec![0u8; 16]);
    }

    #[test]
    fn vectored_write_is_one_write_of_the_joined_buffer() {
        let (head, body) = ([0xaau8; 16], vec![0x5bu8; 3 * BLOCK_SIZE as usize + 7]);
        let (mut joined, mut vectored) = (disk(), disk());
        joined.write(4000, &[&head[..], &body[..]].concat());
        vectored.write_vectored(4000, &[&head, &[], &body]);
        assert_eq!(vectored.stats(), joined.stats());
        assert_eq!(vectored.stats().writes, 1);
        assert_eq!(vectored.image(), joined.image());
        assert_eq!(vectored.clock().now(), joined.clock().now());
    }

    #[test]
    fn sequential_reads_avoid_seeks() {
        let mut d = disk();
        d.write(0, &vec![7u8; (BLOCK_SIZE * 64) as usize]);
        d.reset_stats();
        let clock_before = d.clock().now();
        // Sequential scan.
        for i in 0..64 {
            d.read(i * BLOCK_SIZE, BLOCK_SIZE);
        }
        let seq_time = d.clock().now() - clock_before;

        // Defeat the lookahead window by jumping far away each time.
        let mut d2 = SimDisk::new(DiskConfig::no_lookahead(), SimClock::new());
        d2.write(0, &vec![7u8; (BLOCK_SIZE * 64) as usize]);
        let before = d2.clock().now();
        for i in 0..64u64 {
            let offset = (i * 7919 * BLOCK_SIZE) % (1024 * BLOCK_SIZE);
            d2.read(offset, BLOCK_SIZE);
        }
        let rand_time = d2.clock().now() - before;
        assert!(
            rand_time.as_nanos() > seq_time.as_nanos() * 10,
            "random I/O should be far slower: {rand_time} vs {seq_time}"
        );
    }

    #[test]
    fn lookahead_accelerates_nearby_reads() {
        let mut with = SimDisk::new(DiskConfig::default(), SimClock::new());
        let mut without = SimDisk::new(DiskConfig::no_lookahead(), SimClock::new());
        for d in [&mut with, &mut without] {
            d.write(0, &vec![1u8; (BLOCK_SIZE * 256) as usize]);
            d.reset_stats();
        }
        // Read blocks in a directory-clustered pattern: nearby but not
        // strictly sequential (every other block).
        for d in [&mut with, &mut without] {
            let start = d.clock().now();
            for i in 0..128u64 {
                d.read(i * 2 * BLOCK_SIZE, 1024);
            }
            let took = d.clock().now() - start;
            if d.config().read_lookahead {
                assert!(d.stats().lookahead_hits > 100);
                assert!(took.as_millis() < 100);
            } else {
                assert_eq!(d.stats().lookahead_hits, 0);
                assert!(took.as_millis() > 1000);
            }
        }
    }

    #[test]
    fn bandwidth_bounds_sequential_transfer() {
        let mut d = disk();
        let mb100 = 100 * 1024 * 1024u64;
        let before = d.clock().now();
        // Write 100 MB sequentially in 8 KB chunks.
        let chunk = vec![0xabu8; 8192];
        let mut off = 0;
        while off < mb100 {
            d.write(off, &chunk);
            off += 8192;
        }
        let took = (d.clock().now() - before).as_secs_f64();
        // 100 MB at 58 MB/s is ~1.7 s; allow generous slack for the initial
        // positioning but it must be in the low seconds.
        assert!(took > 1.0 && took < 4.0, "sequential write took {took}");
    }

    #[test]
    fn write_cache_defers_cost_to_flush() {
        let cfg = DiskConfig {
            write_cache: true,
            ..DiskConfig::default()
        };
        let mut d = SimDisk::new(cfg, SimClock::new());
        for i in 0..100u64 {
            d.write(i * 1000 * BLOCK_SIZE, &[1u8; 512]);
        }
        let before_flush = d.clock().now();
        assert!(before_flush.as_millis() < 100, "writes absorbed by cache");
        d.flush();
        assert!(d.stats().flushes == 1);
    }

    #[test]
    #[should_panic(expected = "beyond end of device")]
    fn read_past_end_panics() {
        let mut d = SimDisk::new(
            DiskConfig {
                capacity: 1024,
                ..DiskConfig::default()
            },
            SimClock::new(),
        );
        d.read(1000, 100);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        d.write(0, &[1, 2, 3]);
        d.read(0, 3);
        d.flush();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 3);
        assert_eq!(s.bytes_read, 3);
        assert_eq!(s.flushes, 1);
        assert!(s.busy > SimDuration::ZERO);
    }
}
