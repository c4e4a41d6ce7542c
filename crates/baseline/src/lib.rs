//! Baseline operating-system models used as Figure 12/13 comparators.
//!
//! The paper compares HiStar against Fedora Core 5 Linux (ext3) and
//! OpenBSD 3.9 (in-memory mfs).  We obviously cannot run those kernels here,
//! so this crate provides *monolithic-OS cost models* with the structural
//! properties the paper credits for their results: a 9-system-call
//! fork/exec path with a pre-zeroed page pool, in-kernel pipes, an ext3-like
//! journal that synchronously commits only the affected metadata (rather
//! than checkpointing the world), and directory-clustered file layout that
//! benefits from the disk's read look-ahead.  All times are charged to the
//! same simulated disk/clock models as the HiStar side, so the comparison is
//! apples-to-apples at the hardware level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use histar_sim::disk::BLOCK_SIZE;
use histar_sim::{CostModel, DiskConfig, OsFlavor, SimClock, SimDisk, SimDuration};
use std::collections::BTreeMap;

/// A monolithic-kernel Unix model (Linux-like or OpenBSD-like).
#[derive(Debug)]
pub struct BaselineOs {
    /// Which OS this models.
    pub flavor: OsFlavor,
    cost: CostModel,
    clock: SimClock,
    disk: SimDisk,
    /// In-memory page cache: path → contents.
    files: BTreeMap<String, Vec<u8>>,
    /// Next free byte on disk for newly allocated files.
    alloc_cursor: u64,
    /// Journal head (sequential region near the start of the disk).
    journal_cursor: u64,
    /// Path → on-disk offset for files that have been written back.
    layout: BTreeMap<String, u64>,
    /// Whether the file system is in-memory only (OpenBSD mfs in the paper).
    memory_fs: bool,
}

impl BaselineOs {
    /// Creates a Linux-like baseline (ext3 on the simulated IDE disk).
    pub fn linux() -> BaselineOs {
        BaselineOs::new(OsFlavor::LinuxLike, DiskConfig::default(), false)
    }

    /// Creates an OpenBSD-like baseline (in-memory mfs, as benchmarked in
    /// the paper).
    pub fn openbsd() -> BaselineOs {
        BaselineOs::new(OsFlavor::OpenBsdLike, DiskConfig::default(), true)
    }

    /// Creates a baseline with an explicit disk configuration (used by the
    /// "no IDE disk prefetch" row).
    pub fn with_disk(flavor: OsFlavor, disk: DiskConfig) -> BaselineOs {
        BaselineOs::new(flavor, disk, flavor == OsFlavor::OpenBsdLike)
    }

    fn new(flavor: OsFlavor, disk_config: DiskConfig, memory_fs: bool) -> BaselineOs {
        let clock = SimClock::new();
        BaselineOs {
            flavor,
            cost: CostModel::for_flavor(flavor),
            disk: SimDisk::new(disk_config, clock.clone()),
            clock,
            files: BTreeMap::new(),
            alloc_cursor: 128 * 1024 * 1024,
            journal_cursor: 4096,
            layout: BTreeMap::new(),
            memory_fs,
        }
    }

    /// The simulated clock (shared with the disk).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn syscall(&self, n: u64) {
        self.clock.advance(self.cost.syscall * n);
    }

    /// One pipe round trip of `bytes` bytes: 4 system calls (two writes, two
    /// reads), two scheduler wakeups and two context switches, plus copies.
    pub fn pipe_round_trip(&self, bytes: u64) -> SimDuration {
        let start = self.clock.now();
        self.syscall(4);
        self.clock.advance(self.cost.wakeup * 2);
        self.clock.advance(self.cost.context_switch_full * 2);
        self.clock.advance(self.cost.copy(bytes * 2));
        self.clock.now() - start
    }

    /// `fork` + `exec /bin/true` + `exit` + `wait`: 9 system calls on the
    /// monolithic kernels, with copy-on-write page-table setup and a
    /// pre-zeroed page pool for the new image.
    pub fn fork_exec_true(&self) -> SimDuration {
        let start = self.clock.now();
        self.syscall(9);
        // Page-table setup / COW bookkeeping for a small shell-sized parent,
        // plus faulting in a handful of pre-zeroed pages for /bin/true.
        self.clock.advance(self.cost.page_copy * 40);
        self.clock.advance(self.cost.page_zero * 170);
        self.clock.advance(self.cost.page_fault * 10);
        self.clock.advance(self.cost.context_switch_full * 2);
        self.clock.now() - start
    }

    /// With dynamic linking the paper's numbers roughly double; modelled as
    /// extra page faults and relocation work.
    pub fn fork_exec_true_dynamic(&self) -> SimDuration {
        let t = self.fork_exec_true();
        let start = self.clock.now();
        self.clock.advance(self.cost.page_fault * 60);
        self.clock.advance(self.cost.compute(1_200));
        t + (self.clock.now() - start)
    }

    // ----- LFS small-file benchmark ----------------------------------------

    /// Creates one small file of `size` bytes (async: page-cache only).
    pub fn create_file(&mut self, path: &str, size: usize) {
        self.syscall(3); // open, write, close
        self.clock.advance(self.cost.copy(size as u64));
        self.clock.advance(self.cost.compute(40)); // dcache/inode work
        self.files.insert(path.to_string(), vec![0xaa; size]);
    }

    /// `fsync` after creating `path`: an ext3-style journal commit (one
    /// sequential journal write + barrier) plus the data block write-back.
    pub fn fsync_file(&mut self, path: &str) {
        self.syscall(1);
        if self.memory_fs {
            return;
        }
        let size = self.files.get(path).map_or(0, Vec::len) as u64;
        // Journal commit record (sequential-ish but each commit waits for
        // the platter: ~one rotation), then data + inode writeback.
        let journal_off = self.journal_cursor;
        self.journal_cursor = 4096 + (self.journal_cursor + 512) % (32 * 1024 * 1024);
        self.disk.write(journal_off, &vec![0u8; 512]);
        self.disk.flush();
        let data_off = *self.layout.entry(path.to_string()).or_insert_with(|| {
            let off = self.alloc_cursor;
            self.alloc_cursor += size.max(BLOCK_SIZE);
            off
        });
        self.disk
            .write(data_off, &vec![0u8; size.max(512) as usize]);
        self.disk.flush();
    }

    /// Reads a small file back.  `cached` serves it from the page cache;
    /// uncached reads hit the disk, where ext3's directory clustering plus
    /// the drive's read look-ahead make consecutive small files cheap.
    pub fn read_file(&mut self, path: &str, cached: bool) -> Vec<u8> {
        self.syscall(3);
        let data = self.files.get(path).cloned().unwrap_or_default();
        if !cached && !self.memory_fs {
            let off = *self.layout.get(path).unwrap_or(&0);
            self.disk.read(off, data.len().max(1024) as u64);
        } else {
            self.clock.advance(self.cost.copy(data.len() as u64));
        }
        data
    }

    /// Unlinks a small file (async).
    pub fn unlink_file(&mut self, path: &str) {
        self.syscall(1);
        self.clock.advance(self.cost.compute(30));
        self.files.remove(path);
    }

    /// `fsync` of the directory after an unlink: a single journal commit.
    pub fn fsync_unlink(&mut self) {
        self.syscall(1);
        if self.memory_fs {
            return;
        }
        let journal_off = self.journal_cursor;
        self.journal_cursor = 4096 + (self.journal_cursor + 512) % (32 * 1024 * 1024);
        self.disk.write(journal_off, &vec![0u8; 512]);
        self.disk.flush();
    }

    // ----- LFS large-file benchmark -----------------------------------------

    /// Sequentially writes a large file in `chunk`-byte pieces and fsyncs
    /// once at the end.  ext3's block-based allocation costs it a little
    /// extra seeking compared to an extent-based layout.
    pub fn write_large_sequential(&mut self, total: u64, chunk: u64) -> SimDuration {
        let start = self.clock.now();
        let base = self.alloc_cursor;
        let mut off = 0;
        let buf = vec![0x5au8; chunk as usize];
        while off < total {
            self.syscall(1);
            self.clock.advance(self.cost.copy(chunk));
            off += chunk;
        }
        // Write-back at fsync: mostly sequential, with periodic indirect
        // block updates for a block-mapped file system.
        let mut written = 0;
        while written < total {
            let extent = (4 * 1024 * 1024).min(total - written);
            self.disk.write(base + written, &buf[..1]);
            self.disk.write(base + written, &vec![0u8; extent as usize]);
            written += extent;
            if self.flavor == OsFlavor::LinuxLike {
                // Indirect-block update: a short seek away.
                self.disk
                    .write(base + written + 8 * 1024 * 1024, &[0u8; 512]);
            }
        }
        self.disk.flush();
        self.alloc_cursor += total;
        self.clock.now() - start
    }

    /// Random synchronous writes of `chunk` bytes each into an existing
    /// large file: each write flushes two pages in place.
    pub fn write_large_random_sync(
        &mut self,
        total: u64,
        chunk: u64,
        file_size: u64,
    ) -> SimDuration {
        let start = self.clock.now();
        let base = self.alloc_cursor;
        let mut rng = histar_sim::SimRng::new(42);
        let mut written = 0;
        while written < total {
            self.syscall(2);
            let off = rng.next_below(file_size / chunk) * chunk;
            self.disk.write(base + off, &vec![0u8; BLOCK_SIZE as usize]);
            self.disk
                .write(base + off + BLOCK_SIZE, &vec![0u8; BLOCK_SIZE as usize]);
            self.disk.flush();
            written += chunk;
        }
        self.clock.now() - start
    }

    /// Uncached sequential read of a large file.
    pub fn read_large_sequential(&mut self, total: u64, chunk: u64) -> SimDuration {
        let start = self.clock.now();
        let base = 256 * 1024 * 1024;
        let mut off = 0;
        while off < total {
            self.syscall(1);
            self.disk.read(base + off, chunk);
            off += chunk;
        }
        self.clock.now() - start
    }

    // ----- application benchmarks (Figure 13) -------------------------------

    /// Building the HiStar kernel: compile `files` sources of `file_size`
    /// bytes each (fork/exec of cc1 per file plus byte-proportional compute).
    pub fn build_kernel(&mut self, files: usize, file_size: usize) -> SimDuration {
        let start = self.clock.now();
        for i in 0..files {
            self.fork_exec_true();
            self.create_file(&format!("/tmp/obj{i}.o"), file_size / 2);
            self.clock.advance(self.cost.compute(file_size as u64 * 20));
        }
        self.clock.now() - start
    }

    /// Downloading `size` bytes over a 100 Mbps link with wget.
    pub fn wget(&mut self, size: u64) -> SimDuration {
        let start = self.clock.now();
        let mut net =
            histar_sim::SimNetwork::new(histar_sim::NetConfig::default(), self.clock.clone());
        let mut received = 0;
        while received < size {
            let chunk = (32 * 1024).min(size - received);
            net.receive(chunk);
            self.syscall(2);
            self.clock.advance(self.cost.copy(chunk));
            received += chunk;
        }
        self.clock.now() - start
    }

    /// Virus-checking a `size`-byte file (signature matching is
    /// byte-proportional CPU work, identical on every OS).
    pub fn virus_scan(&mut self, size: u64) -> SimDuration {
        let start = self.clock.now();
        self.syscall(size / (64 * 1024) + 3);
        self.clock.advance(self.cost.compute(size));
        self.clock.now() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_round_trip_is_microseconds() {
        let linux = BaselineOs::linux();
        let bsd = BaselineOs::openbsd();
        let tl = linux.pipe_round_trip(8);
        let tb = bsd.pipe_round_trip(8);
        assert!(tl.as_micros_f64() > 1.0 && tl.as_micros_f64() < 20.0);
        assert!(tb < tl, "OpenBSD IPC is faster than Linux in the paper");
    }

    #[test]
    fn fork_exec_is_fraction_of_a_millisecond() {
        let linux = BaselineOs::linux();
        let t = linux.fork_exec_true();
        assert!(
            t.as_micros_f64() > 50.0 && t.as_micros_f64() < 1000.0,
            "{t}"
        );
        let td = linux.fork_exec_true_dynamic();
        assert!(td > t, "dynamic linking costs more");
    }

    #[test]
    fn sync_creates_are_dominated_by_the_disk() {
        let mut linux = BaselineOs::linux();
        let async_time = {
            let start = linux.clock().now();
            for i in 0..100 {
                linux.create_file(&format!("/f{i}"), 1024);
            }
            linux.clock().now() - start
        };
        let sync_time = {
            let start = linux.clock().now();
            for i in 0..100 {
                linux.create_file(&format!("/g{i}"), 1024);
                linux.fsync_file(&format!("/g{i}"));
            }
            linux.clock().now() - start
        };
        assert!(
            sync_time.as_nanos() > async_time.as_nanos() * 100,
            "sync {sync_time} vs async {async_time}"
        );
        // OpenBSD's mfs makes fsync nearly free (the paper could not run it).
        let mut bsd = BaselineOs::openbsd();
        bsd.create_file("/x", 1024);
        let before = bsd.clock().now();
        bsd.fsync_file("/x");
        assert!((bsd.clock().now() - before).as_micros() < 10);
    }

    #[test]
    fn file_contents_round_trip() {
        let mut linux = BaselineOs::linux();
        linux.create_file("/data", 2048);
        assert_eq!(linux.read_file("/data", true).len(), 2048);
        linux.unlink_file("/data");
        assert!(linux.read_file("/data", true).is_empty());
    }

    #[test]
    fn large_file_phases_have_plausible_shape() {
        let mut linux = BaselineOs::linux();
        let seq = linux.write_large_sequential(16 * 1024 * 1024, 8192);
        let rand = linux.write_large_random_sync(1024 * 1024, 8192, 16 * 1024 * 1024);
        let read = linux.read_large_sequential(16 * 1024 * 1024, 8192);
        // Random synchronous writes are far slower per byte than sequential.
        let seq_per_byte = seq.as_nanos() as f64 / (16.0 * 1024.0 * 1024.0);
        let rand_per_byte = rand.as_nanos() as f64 / (1024.0 * 1024.0);
        assert!(rand_per_byte > seq_per_byte * 10.0);
        assert!(read > SimDuration::ZERO);
    }

    #[test]
    fn application_benchmarks_run() {
        let mut linux = BaselineOs::linux();
        let build = linux.build_kernel(20, 20 * 1024);
        let wget = linux.wget(10 * 1024 * 1024);
        let scan = linux.virus_scan(10 * 1024 * 1024);
        assert!(build > SimDuration::ZERO);
        // 10 MB at 100 Mbps is at least 0.8 s.
        assert!(wget.as_millis() > 800, "{wget}");
        // 10 MB at ~170 ns/byte is ~1.7 s.
        assert!(scan.as_millis() > 1000, "{scan}");
    }
}
