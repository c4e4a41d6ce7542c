//! The single-level store: snapshots, recovery, and synchronous updates.
//!
//! On bootup the entire system state is restored from the most recent
//! on-disk snapshot (§3).  All kernel objects are written to disk at each
//! snapshot and can be evicted from memory once stably stored — here a
//! stably stored object holds no memory of its own from then on: its home
//! record is its in-memory copy.  Synchronous
//! operations (the Unix library's `fsync`) either append to the write-ahead
//! log or checkpoint the entire system state, and the paper's "group sync"
//! mode checkpoints once at the end of a batch of operations (§7.1).

use crate::codec::{frame, unframe, DecodeError, Decoder, Encoder, Wire};
use crate::extent::{Extent, ExtentAllocator};
use crate::wal::{LogRecord, WriteAheadLog};
use histar_obs::{Recorder, Span};
use histar_sim::disk::BLOCK_SIZE;
use histar_sim::{DiskConfig, SimClock, SimDisk};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// How recovery rebuilds state from the checkpoint and the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Read the log in large chunks and fold the replayed records per
    /// object.  The default.
    Batched,
    /// Read the whole log region in one I/O and replay it one record at a
    /// time — the legacy strategy, kept so the equivalence harness can
    /// prove both paths recover identical state.
    RecordByRecord,
}

/// Configuration of the store.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Configuration of the underlying simulated disk.
    pub disk: DiskConfig,
    /// Bytes reserved at the start of the disk for the superblock.
    pub superblock_len: u64,
    /// Bytes reserved for the write-ahead log region.  Kept small: the log
    /// only needs to cover the window between checkpoints, and recovery
    /// cost is bounded by how much log can accumulate, so a short region
    /// keeps `recover` fast (a log too full for the next frame is folded
    /// into a checkpoint first, so it never overflows).
    pub log_region_len: u64,
    /// Apply (fold into a checkpoint) the log after this many pending
    /// records, modelling the paper's observation of one application per
    /// ~1,000 synchronous operations.
    pub apply_batch: usize,
    /// Recovery replay strategy.
    pub replay_mode: ReplayMode,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            disk: DiskConfig::default(),
            superblock_len: 4096,
            log_region_len: 128 * 1024,
            apply_batch: 1000,
            replay_mode: ReplayMode::Batched,
        }
    }
}

/// Statistics describing store activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Objects written to their home location.
    pub objects_written: u64,
    /// Objects read from disk (cache misses).
    pub objects_read: u64,
    /// Full checkpoints taken.
    pub checkpoints: u64,
    /// Log applications triggered by batching.
    pub log_applications: u64,
    /// In-place page flushes (large-file sync writes).
    pub inplace_flushes: u64,
}

impl histar_obs::MetricSource for StoreStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("store.objects_written", self.objects_written);
        set.counter("store.objects_read", self.objects_read);
        set.counter("store.checkpoints", self.checkpoints);
        set.counter("store.log_applications", self.log_applications);
        set.counter("store.inplace_flushes", self.inplace_flushes);
    }
}

/// Errors from store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The object is not present in memory or on disk.
    NoSuchObject(u64),
    /// The disk is out of space for the requested allocation.
    OutOfSpace,
    /// The on-disk state is corrupt and cannot be recovered.
    Corrupt(&'static str),
    /// The operation cannot be applied to this object in its current state
    /// (e.g. an in-place flush of an object whose size has changed).
    InvalidOperation(&'static str),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::NoSuchObject(id) => write!(f, "no such object: {id}"),
            StoreError::OutOfSpace => write!(f, "out of disk space"),
            StoreError::Corrupt(what) => write!(f, "corrupt on-disk state: {what}"),
            StoreError::InvalidOperation(what) => write!(f, "invalid store operation: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Header bytes preceding an object's body in its home-location record:
/// 8 bytes of object ID plus the 8-byte body length prefix.
const RECORD_HEADER: u64 = 16;

/// The header of an object's home record: the object's id, then the
/// length of the body that follows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HomeHeader {
    id: u64,
    body_len: u64,
}

impl Wire<'_> for HomeHeader {
    const SIZE: usize = RECORD_HEADER as usize;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.id).put_u64(self.body_len);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<HomeHeader, DecodeError> {
        Ok(HomeHeader {
            id: d.get_u64()?,
            body_len: d.get_u64()?,
        })
    }
}

/// Where one object's record lives on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Home {
    /// Disk offset of the record.
    offset: u64,
    /// Length of the extent allocated there.
    extent_len: u64,
    /// Body length as last written there.
    body_len: u64,
    /// Whether the record is the object's current contents and the
    /// object is resident: a read lends the record's bytes from the disk.
    /// Set by a home write and by a read that misses; cleared by `put`
    /// and `evict_clean`.  Never on disk: a recovered store has nothing
    /// resident.
    clean: bool,
}

impl Home {
    /// A home record of `body_len` bytes of body in `extent`.
    fn new(extent: Extent, body_len: u64, clean: bool) -> Home {
        let (offset, extent_len) = (extent.offset, extent.len);
        Home {
            offset,
            extent_len,
            body_len,
            clean,
        }
    }

    fn extent(&self) -> Extent {
        Extent::new(self.offset, self.extent_len)
    }
}

/// Where each object's record lives on disk, and the allocator the
/// extents come from.  A field group of its own so a home write can borrow
/// it, and the disk, beside the dirty bytes or lent parts the body is
/// copied from.
#[derive(Debug)]
struct HomeMap {
    /// Object ID → its home record.
    by_id: BTreeMap<u64, Home>,
    alloc: ExtentAllocator,
}

impl HomeMap {
    /// Forgets the object's home location and frees its extent.
    fn release(&mut self, id: u64) {
        if let Some(home) = self.by_id.remove(&id) {
            self.alloc.free(home.extent());
        }
    }

    /// Writes one object record to a (possibly new) home location, which
    /// then stands for the object: it is clean.
    ///
    /// Record layout: `object id (8) || body length (8) || body`, the body
    /// being the concatenation of `body`'s parts.  The header and the
    /// borrowed parts reach the disk as one write.
    fn write(&mut self, disk: &mut SimDisk, id: u64, body: &[&[u8]]) {
        let body_len = body.iter().map(|part| part.len() as u64).sum::<u64>();
        let need = RECORD_HEADER + body_len;
        // Reuse the existing extent if the new record still fits; otherwise
        // allocate a fresh one (delayed allocation).
        let offset = match self.by_id.get_mut(&id) {
            Some(home) if home.extent_len >= need => {
                home.body_len = body_len;
                home.clean = true;
                home.offset
            }
            _ => {
                self.release(id);
                let extent = self
                    .alloc
                    .alloc(need.max(BLOCK_SIZE))
                    .expect("simulated disk out of space");
                let home = Home::new(extent, body_len, true);
                self.by_id.insert(id, home);
                home.offset
            }
        };
        let header = HomeHeader { id, body_len }.encode();
        let mut parts = Vec::with_capacity(1 + body.len());
        parts.push(&header[..]);
        parts.extend_from_slice(body);
        disk.write_vectored(offset, &parts);
    }
}

/// An extent as the free list holds it: offset, then length.
impl Wire<'_> for Extent {
    const SIZE: usize = 16;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.offset).put_u64(self.len);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<Extent, DecodeError> {
        Ok(Extent::new(d.get_u64()?, d.get_u64()?))
    }
}

/// The superblock's payload: a magic number, then the latest
/// checkpoint's sequence number and where its metadata frame lies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// The checkpoint's sequence number.
    pub sequence: u64,
    /// Disk offset of the checkpoint's metadata frame.
    pub meta_offset: u64,
    /// Length of the metadata frame.
    pub meta_len: u64,
    /// Length of the extent allocated for it.
    pub meta_extent_len: u64,
}

/// Magic, sequence, offset, frame length, extent length.  What the reader
/// knows is the disk's capacity: a wrong magic, or a frame that does not
/// lie in an extent on the disk, is [`DecodeError::BadValue`].
impl Wire<'_, u64> for Superblock {
    const SIZE: usize = 5 * 8;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(SUPERBLOCK_MAGIC)
            .put_u64(self.sequence)
            .put_u64(self.meta_offset)
            .put_u64(self.meta_len)
            .put_u64(self.meta_extent_len);
    }

    fn get(d: &mut Decoder<'_>, capacity: u64) -> Result<Superblock, DecodeError> {
        let magic = d.get_u64()?;
        let sb = Superblock {
            sequence: d.get_u64()?,
            meta_offset: d.get_u64()?,
            meta_len: d.get_u64()?,
            meta_extent_len: d.get_u64()?,
        };
        let end = sb.meta_offset.checked_add(sb.meta_extent_len);
        let fits = end.is_some_and(|end| end <= capacity) && sb.meta_len <= sb.meta_extent_len;
        (magic == SUPERBLOCK_MAGIC && fits)
            .then_some(sb)
            .ok_or(DecodeError::BadValue)
    }
}

/// A checkpoint's metadata: where each object's home record lies, and
/// the free list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointMap<'m> {
    homes: Cow<'m, BTreeMap<u64, Home>>,
    free: Cow<'m, [Extent]>,
}

/// The home map as three lists — `(id, offset)`, `(id, extent length)`
/// and `(id, body length)` — each a byte string of 16-byte pairs in
/// strictly ascending id order, then the free list as a byte string
/// holding a list of extents.  What the reader knows is the disk's
/// capacity: lists of other lengths are a [`DecodeError`], and lists that
/// name different ids, or a home record that does not fit its extent on
/// the disk, are [`DecodeError::BadValue`].
impl<'m> Wire<'_, u64> for CheckpointMap<'m> {
    fn put(&self, e: &mut Encoder) {
        let fields: [fn(&Home) -> u64; 3] = [|h| h.offset, |h| h.extent_len, |h| h.body_len];
        for field in fields {
            e.put_u64(16 * self.homes.len() as u64);
            for (&id, home) in self.homes.iter() {
                e.put_u64(id).put_u64(field(home));
            }
        }
        e.put_u64(8 + 16 * self.free.len() as u64)
            .put_u64(self.free.len() as u64);
        for extent in self.free.iter() {
            extent.put(e);
        }
    }

    fn get(d: &mut Decoder<'_>, capacity: u64) -> Result<CheckpointMap<'m>, DecodeError> {
        let [mut offsets, mut extent_lens, mut body_lens] =
            [d.get_slice()?, d.get_slice()?, d.get_slice()?].map(Decoder::new);
        let n = offsets.remaining() / 16;
        let pair = |l: &mut Decoder<'_>| Ok::<_, DecodeError>((l.get_u64()?, l.get_u64()?));
        let mut home = || {
            let (id, offset) = pair(&mut offsets)?;
            let (id2, extent_len) = pair(&mut extent_lens)?;
            let (id3, body_len) = pair(&mut body_lens)?;
            let end = offset.checked_add(extent_len);
            let fits = end.is_some_and(|end| end <= capacity)
                && body_len.checked_add(RECORD_HEADER) <= Some(extent_len);
            let home = Home::new(Extent::new(offset, extent_len), body_len, false);
            (id == id2 && id == id3 && fits)
                .then_some((id, home))
                .ok_or(DecodeError::BadValue)
        };
        let mut homes = Vec::with_capacity(n);
        for _ in 0..n {
            homes.push(home()?);
        }
        for list in [offsets, extent_lens, body_lens] {
            list.finish()?;
        }
        if !homes.is_sorted_by(|a: &(u64, Home), b| a.0 < b.0) {
            return Err(DecodeError::BadValue);
        }
        let free = <Vec<Extent>>::decode(d.get_slice()?)?;
        Ok(CheckpointMap {
            homes: Cow::Owned(homes.into_iter().collect()),
            free: Cow::Owned(free),
        })
    }
}

/// The length of a [`CheckpointMap`]'s encoding with `homes` homes and
/// `free` free extents: five length and count words, three 16-byte pairs
/// a home and one an extent.
fn map_len(homes: usize, free: usize) -> usize {
    5 * 8 + 16 * (3 * homes + free)
}

/// The framed checkpoint metadata blob (see [`CheckpointMap`]), encoded
/// into a buffer of its exact size.
fn meta_blob(homes: &BTreeMap<u64, Home>, free: &[Extent]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(map_len(homes.len(), free.len()));
    let map = CheckpointMap {
        homes: Cow::Borrowed(homes),
        free: Cow::Borrowed(free),
    };
    map.put(&mut e);
    frame(&e.finish())
}

/// The single-level store.
///
/// The store holds each durable byte once.  An object `put` since its last
/// home write is *dirty*: the store keeps its serialized bytes, and the
/// next checkpoint writes them home.  A resident object whose home record
/// is its current contents is *clean*: the store keeps only a mark on its
/// home-map entry, and a read lends the bytes from the disk's blocks,
/// charging nothing, since the model counts them as RAM.  Any other object with a home record is
/// on disk only, and a read of it is a charged disk read that leaves it
/// clean.  The kernel's own objects need not be `put` at all: a
/// [`SingleLevelStore::checkpoint_lent`] writes them home from the bytes
/// the kernel lends.  Records reach disk by checkpoints, by the
/// write-ahead log, or by in-place page flushes.
#[derive(Debug)]
pub struct SingleLevelStore {
    config: StoreConfig,
    disk: SimDisk,
    wal: WriteAheadLog,
    homes: HomeMap,
    /// The bytes of every object `put` since its last home write: what the
    /// next checkpoint writes.  (Clean objects are marked in `homes`.)
    dirty: BTreeMap<u64, Vec<u8>>,
    /// Objects deleted since the last checkpoint.
    deleted: BTreeSet<u64>,
    /// Extent holding the metadata blob of the most recent checkpoint; it is
    /// released only once the *next* checkpoint's superblock is durable, so
    /// a crash between checkpoints always finds intact metadata.
    prev_meta: Option<Extent>,
    /// Monotonic checkpoint sequence number.
    sequence: u64,
    /// Group-commit staging: while `Some`, synchronous log appends are
    /// buffered here and flushed as ONE multi-record frame when the group
    /// closes (see [`SingleLevelStore::begin_sync_group`]).
    staged: Option<Vec<LogRecord>>,
    stats: StoreStats,
    /// Flight recorder for WAL/checkpoint/recovery spans (disabled by
    /// default; the kernel hands its own recorder down on attach).
    recorder: Recorder,
}

/// The `(record offset, bytes)` range of each `BLOCK_SIZE` page named in
/// `pages` of a body `len` bytes long, for
/// [`SingleLevelStore::flush_ranges`]: page `p` covers bytes
/// `p·BLOCK_SIZE..` (the last page possibly short; pages past the end are
/// dropped), which `bytes(start, end)` supplies, and sits `base` bytes
/// into the record — `base` being whatever precedes the body in the
/// object's encoding.
pub fn page_ranges<B>(
    len: usize,
    base: u64,
    pages: &[u64],
    bytes: impl Fn(usize, usize) -> B,
) -> Vec<(u64, B)> {
    pages
        .iter()
        .filter_map(|page| {
            let start = page
                .checked_mul(BLOCK_SIZE)
                .filter(|start| *start < len as u64)?;
            let end = len.min((start + BLOCK_SIZE) as usize);
            Some((base + start, bytes(start as usize, end)))
        })
        .collect()
}

/// The disk half of an in-place flush, once nothing refuses it: one write
/// per range into the record at `home`, then one flush.  It is handed the
/// disk and the counters, not the store, so neither caller can mark the
/// object clean here: only the ranges named are known to match home.
fn write_ranges_home(
    disk: &mut SimDisk,
    stats: &mut StoreStats,
    home: u64,
    ranges: &[(u64, &[u8])],
) {
    for (offset, bytes) in ranges {
        disk.write(home + RECORD_HEADER + offset, bytes);
    }
    disk.flush();
    stats.inplace_flushes += 1;
}

/// Magic number identifying a formatted superblock ("HISTAR!!").
const SUPERBLOCK_MAGIC: u64 = 0x4849_5354_4152_2121;

impl SingleLevelStore {
    /// Creates a fresh store (equivalent to formatting the disk).
    pub fn format(config: StoreConfig, clock: SimClock) -> SingleLevelStore {
        let disk = SimDisk::new(config.disk, clock);
        let data_start = config.superblock_len + config.log_region_len;
        SingleLevelStore {
            wal: WriteAheadLog::new(config.superblock_len, config.log_region_len),
            homes: HomeMap {
                by_id: BTreeMap::new(),
                alloc: ExtentAllocator::new(data_start, config.disk.capacity),
            },
            dirty: BTreeMap::new(),
            deleted: BTreeSet::new(),
            prev_meta: None,
            sequence: 0,
            staged: None,
            stats: StoreStats::default(),
            recorder: Recorder::disabled(),
            config,
            disk,
        }
    }

    /// Installs the flight recorder WAL appends, log applications,
    /// checkpoints and recovery replays emit spans into.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Simulated time as seen by the store's disk clock, in nanoseconds.
    fn tick(&self) -> u64 {
        self.disk.clock().now().as_nanos()
    }

    /// Records a store-side span from `start` to now (no-op when the
    /// recorder is disabled; never advances simulated time).
    fn span(&self, cat: &'static str, name: &'static str, start: u64) {
        self.recorder.record(Span {
            cat,
            name,
            start,
            end: self.tick(),
            tid: 0,
            seq: self.sequence,
        });
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// A reference to the underlying simulated disk (for its statistics).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// The underlying disk's operation counters.
    pub fn disk_stats(&self) -> histar_sim::disk::DiskStats {
        self.disk.stats()
    }

    /// The write-ahead log's counters.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.stats()
    }

    /// Bytes of write-ahead-log space used since the last application —
    /// the crash-recovery harness truncates the on-disk log at every
    /// record boundary up to this point.
    pub fn wal_used(&self) -> u64 {
        self.wal.used()
    }

    /// The latest checkpoint sequence number.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Number of objects currently resident, dirty or clean.
    pub fn cached_objects(&self) -> usize {
        self.dirty.len() + self.homes.by_id.values().filter(|h| h.clean).count()
    }

    /// Forgets which objects are clean (memory pressure): they can be
    /// re-read from their home locations on demand, at the price of a
    /// disk read each.
    pub fn evict_clean(&mut self) {
        for home in self.homes.by_id.values_mut() {
            home.clean = false;
        }
    }

    /// Stores (creates or overwrites) an object's serialized bytes.
    pub fn put(&mut self, id: u64, data: Vec<u8>) {
        self.dirty.insert(id, data);
        if let Some(home) = self.homes.by_id.get_mut(&id) {
            home.clean = false;
        }
        self.deleted.remove(&id);
    }

    /// A resident object's bytes without any I/O: a dirty object's,
    /// borrowed, or a clean one's, lent from its home record.  `None` if
    /// the object is not resident.
    fn lend_resident(&self, id: u64) -> Option<Cow<'_, [u8]>> {
        if let Some(data) = self.dirty.get(&id) {
            return Some(Cow::Borrowed(data));
        }
        let home = self.homes.by_id.get(&id).filter(|home| home.clean)?;
        Some(self.disk.lend(home.offset + RECORD_HEADER, home.body_len))
    }

    /// An object's serialized bytes, or `None` if the object does not
    /// exist: every read of the store is this one lookup.  A resident
    /// object's bytes are lent without a charge — borrowed if it is dirty,
    /// lent from its home record if it is clean (borrowed from the disk
    /// block when the record lies in one, assembled otherwise).  A miss
    /// reads the home record from disk (one `objects_read`), returns the
    /// bytes read and leaves the object clean.
    pub fn resident(&mut self, id: u64) -> Result<Option<Cow<'_, [u8]>>, StoreError> {
        // `lend_resident`, spelled out: a hit is the common case, and it
        // takes one map lookup if dirty, two and a block lookup if clean.
        if let Some(data) = self.dirty.get(&id) {
            return Ok(Some(Cow::Borrowed(data)));
        }
        let Some(&home) = self.homes.by_id.get(&id) else {
            return Ok(None);
        };
        if home.clean {
            let body = self.disk.lend(home.offset + RECORD_HEADER, home.body_len);
            return Ok(Some(body));
        }
        if self.deleted.contains(&id) {
            return Ok(None);
        }
        let mut raw = self.disk.read(home.offset, RECORD_HEADER + home.body_len);
        let (stored, body_len) = (HomeHeader::get(&mut Decoder::new(&raw), ()), home.body_len);
        if stored != Ok(HomeHeader { id, body_len }) {
            return Err(StoreError::Corrupt("object header"));
        }
        self.stats.objects_read += 1;
        if let Some(home) = self.homes.by_id.get_mut(&id) {
            home.clean = true;
        }
        raw.drain(..RECORD_HEADER as usize);
        Ok(Some(Cow::Owned(raw)))
    }

    /// Reads an object's serialized bytes, from memory or disk: an owned
    /// copy of [`SingleLevelStore::resident`].
    pub fn get(&mut self, id: u64) -> Result<Vec<u8>, StoreError> {
        self.resident(id)?
            .map(Cow::into_owned)
            .ok_or(StoreError::NoSuchObject(id))
    }

    /// Deletes an object.
    pub fn delete(&mut self, id: u64) {
        self.dirty.remove(&id);
        self.deleted.insert(id);
        self.homes.release(id);
    }

    /// Synchronously logs the current contents of one object (the HiStar
    /// per-file `fsync` path): an append to the sequential write-ahead log,
    /// with the log applied in batches.
    ///
    /// Fails, logging nothing, when the object is not resident: there is
    /// no current contents to log, and the caller must not be told it is
    /// durable.
    pub fn sync_object(&mut self, id: u64) -> Result<(), StoreError> {
        let data = self
            .lend_resident(id)
            .ok_or(StoreError::NoSuchObject(id))?
            .into_owned();
        self.append_log(LogRecord::PutObject(id, data));
        Ok(())
    }

    /// Synchronously logs the *deletion* of an object: the durable
    /// counterpart of [`SingleLevelStore::delete`], used when an unlink
    /// must survive a crash without waiting for the next checkpoint.
    pub fn sync_delete(&mut self, id: u64) {
        self.append_log(LogRecord::DeleteObject(id));
    }

    /// Structural consistency check used by the crash-recovery gates: no
    /// object is both clean and dirty (a clean object's bytes are its home
    /// record, a dirty one's are newer); no resident object is deleted (a
    /// read asks the resident objects before the deletions and a key
    /// listing subtracts the deletions, so the two agree only while the
    /// sets are disjoint); every home record's body fits its extent; the
    /// free list is well formed (see
    /// [`ExtentAllocator::check_invariants`]) and lies above the log; and
    /// no two of the home extents, the free extents and the live
    /// checkpoint's metadata extent overlap.  Returns the first violation
    /// found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let clean = |id: &u64| self.homes.by_id.get(id).is_some_and(|home| home.clean);
        if let Some(id) = self.dirty.keys().find(|id| clean(id)) {
            return Err(format!("object {id:#x} is both clean and dirty"));
        }
        let resident = |id: &&u64| self.dirty.contains_key(id) || clean(id);
        if let Some(id) = self.deleted.iter().find(resident) {
            return Err(format!("object {id:#x} is both resident and deleted"));
        }
        let free = self.homes.alloc.free_list();
        self.homes
            .alloc
            .check_invariants()
            .map_err(|e| format!("free list: {e}"))?;
        let data_start = self.config.superblock_len + self.config.log_region_len;
        if let Some(e) = free.first().filter(|e| e.offset < data_start) {
            return Err(format!(
                "free extent {e:?} starts below the data region at {data_start:#x}"
            ));
        }
        // Every extent in use or free, with what holds it.
        let mut extents: Vec<(Extent, &str, Option<u64>)> = Vec::new();
        for (&id, home) in &self.homes.by_id {
            if home.body_len + RECORD_HEADER > home.extent_len {
                return Err(format!(
                    "object {id:#x}: body length {} does not fit extent {}",
                    home.body_len, home.extent_len
                ));
            }
            extents.push((home.extent(), "object", Some(id)));
        }
        extents.extend(free.iter().map(|&e| (e, "free extent", None)));
        extents.extend(self.prev_meta.map(|e| (e, "checkpoint metadata", None)));
        extents.sort_unstable_by_key(|&(e, ..)| e.offset);
        if let Some(w) = extents.windows(2).find(|w| w[0].0.end() > w[1].0.offset) {
            let name = |&(e, what, id): &(Extent, &str, Option<u64>)| {
                let id = id.map_or(String::new(), |id| format!(" {id:#x}"));
                format!("{what}{id} [{:#x}, {:#x})", e.offset, e.end())
            };
            return Err(format!("{} overlaps {}", name(&w[0]), name(&w[1])));
        }
        Ok(())
    }

    /// Opens a group-commit window: until [`SingleLevelStore::end_sync_group`],
    /// synchronous log appends are staged in memory instead of each paying
    /// for its own disk write and flush.  Idempotent; the kernel brackets
    /// every syscall batch with this pair, so all syncs submitted in one
    /// batch share one WAL frame (§5's group sync).
    pub fn begin_sync_group(&mut self) {
        if self.staged.is_none() {
            self.staged = Some(Vec::new());
        }
    }

    /// Closes the group-commit window, flushing every staged record as ONE
    /// multi-record frame.  Nothing staged in the window is durable — or
    /// acknowledged to callers — until this returns.
    pub fn end_sync_group(&mut self) {
        if let Some(staged) = self.staged.take() {
            if !staged.is_empty() {
                self.flush_records(staged);
            }
        }
    }

    fn append_log(&mut self, record: LogRecord) {
        if let Some(staged) = self.staged.as_mut() {
            staged.push(record);
            return;
        }
        self.flush_records(vec![record]);
    }

    /// Writes a batch of records as one WAL frame: one disk write plus one
    /// flush, regardless of how many records the frame carries — the cost
    /// model charges per flushed frame, not per logical record.
    fn flush_records(&mut self, records: Vec<LogRecord>) {
        let framed_len = 16 + records.iter().map(LogRecord::encoded_len).sum::<u64>();
        // A frame that could never fit the region, even empty (a huge
        // record or a huge group): the records are already reflected in
        // the resident objects, so fold them into a full checkpoint
        // instead — a strictly stronger durability point than the log
        // append.
        if framed_len + 64 > self.config.log_region_len {
            self.checkpoint();
            return;
        }
        if self.wal.needs_application(framed_len)
            || self.wal.pending_records() >= self.config.apply_batch
        {
            self.apply_log();
        }
        let start = self.tick();
        self.wal.append_frame(&mut self.disk, records);
        self.disk.flush();
        self.span("wal", "append", start);
    }

    /// Folds every pending log record into a full checkpoint, truncating
    /// the log.  (Historically this wrote pending objects home and reset
    /// the log head while the maps lived only in memory — a crash
    /// after truncation then lost the maps that located the freshly homed
    /// records.  A checkpoint makes the fold itself durable.)
    pub fn apply_log(&mut self) {
        if self.wal.pending_records() == 0 {
            return;
        }
        let start = self.tick();
        self.stats.log_applications += 1;
        self.checkpoint();
        self.span("wal", "apply", start);
    }

    /// Flushes byte ranges of an already-persistent object's record in
    /// place, without checkpointing the entire system state (the LFS
    /// large-file random-write path, §7.1).  The caller describes the
    /// object's current encoding without building it: its total length,
    /// its first `prefix.len()` bytes, and `(offset into the encoding,
    /// bytes)` for each range to make durable.
    ///
    /// Costs one disk write per range plus one flush.  A dirty object's
    /// bytes are patched with the same ranges, so it is exactly as dirty
    /// afterwards as before; a clean object's bytes *are* its home record,
    /// so it stays clean and nothing but the disk is written.
    ///
    /// Refused, before anything is written, unless the object has a home
    /// record and is resident as exactly `encoded_len` bytes that already
    /// start with `prefix` (a clean object is checked against its home
    /// record, without a charge), no version of it waits in the log, and
    /// every range lies inside it: the caller must then fall back to
    /// [`SingleLevelStore::sync_object`] or a checkpoint.
    ///
    /// The log condition is a cliff, not a one-off: the fallback itself
    /// logs the object, so once one sync of an object has gone through
    /// the log (it grew, its prefix changed, `fsync` named the whole
    /// file) every later page flush of it is refused, and logs the whole
    /// object again, until the next checkpoint folds the log.  Finding
    /// out costs a scan of the pending records (at most `apply_batch`).
    pub fn flush_ranges(
        &mut self,
        id: u64,
        encoded_len: u64,
        prefix: &[u8],
        ranges: &[(u64, &[u8])],
    ) -> Result<(), StoreError> {
        let described = match (self.dirty.get(&id), self.homes.by_id.get(&id)) {
            (Some(data), _) => data.len() as u64 == encoded_len && data.starts_with(prefix),
            (None, Some(home)) if home.clean => {
                home.body_len == encoded_len
                    && prefix.len() as u64 <= home.body_len
                    && *self
                        .disk
                        .lend(home.offset + RECORD_HEADER, prefix.len() as u64)
                        == *prefix
            }
            _ => return Err(StoreError::NoSuchObject(id)),
        };
        if !described {
            return Err(StoreError::InvalidOperation(
                "resident copy is not the encoding described",
            ));
        }
        let home = self.flushable_home(id, encoded_len, ranges)?;
        write_ranges_home(&mut self.disk, &mut self.stats, home, ranges);
        if let Some(data) = self.dirty.get_mut(&id) {
            for (offset, bytes) in ranges {
                data[*offset as usize..][..bytes.len()].copy_from_slice(bytes);
            }
        }
        Ok(())
    }

    /// [`SingleLevelStore::flush_ranges`] for a caller that already `put`
    /// the new contents, or has none newer than the home record: flushes
    /// whole pages (`BLOCK_SIZE`-aligned, the last one possibly short) of
    /// the resident object, skipping pages past its end, and returns how
    /// many it wrote.  A clean object's pages are copied out of its home
    /// record (O(pages), uncharged) and written back over it.
    pub fn sync_pages_in_place(&mut self, id: u64, pages: &[u64]) -> Result<usize, StoreError> {
        if let Some(data) = self.dirty.get(&id) {
            let ranges = page_ranges(data.len(), 0, pages, |s, e| &data[s..e]);
            let home = self.flushable_home(id, data.len() as u64, &ranges)?;
            // `ranges` borrows the dirty bytes; the write borrows the disk.
            write_ranges_home(&mut self.disk, &mut self.stats, home, &ranges);
            return Ok(ranges.len());
        }
        let home = match self.homes.by_id.get(&id) {
            Some(home) if home.clean => *home,
            _ => return Err(StoreError::NoSuchObject(id)),
        };
        let body = home.offset + RECORD_HEADER;
        let owned = page_ranges(home.body_len as usize, 0, pages, |s, e| {
            self.disk.lend(body + s as u64, (e - s) as u64).into_owned()
        });
        let ranges: Vec<(u64, &[u8])> = owned.iter().map(|(o, b)| (*o, &b[..])).collect();
        let home = self.flushable_home(id, home.body_len, &ranges)?;
        write_ranges_home(&mut self.disk, &mut self.stats, home, &ranges);
        Ok(ranges.len())
    }

    /// Every refusal of an in-place flush that does not concern the
    /// resident bytes, checked without writing anything: the disk offset of
    /// the object's home record if that record holds `encoded_len` bytes,
    /// nothing in the log would mask it, and every range lies inside it.
    fn flushable_home(
        &self,
        id: u64,
        encoded_len: u64,
        ranges: &[(u64, &[u8])],
    ) -> Result<u64, StoreError> {
        let home = self
            .homes
            .by_id
            .get(&id)
            .ok_or(StoreError::NoSuchObject(id))?;
        if home.body_len != encoded_len {
            return Err(StoreError::InvalidOperation(
                "object size changed since last home write",
            ));
        }
        // Recovery replays the log over the home copy, so a logged version
        // of this object would mask whatever is flushed here.
        let logged = |r: &LogRecord| matches!(r, LogRecord::PutObject(i, _) | LogRecord::DeleteObject(i) if *i == id);
        if self.wal.pending().iter().any(logged) || self.staged.iter().flatten().any(logged) {
            return Err(StoreError::InvalidOperation(
                "object has log records not yet applied",
            ));
        }
        let inside = |(offset, bytes): &(u64, &[u8])| {
            offset
                .checked_add(bytes.len() as u64)
                .is_some_and(|end| end <= encoded_len)
        };
        if !ranges.iter().all(inside) {
            return Err(StoreError::InvalidOperation(
                "range past the end of the record",
            ));
        }
        Ok(home.offset)
    }

    /// Takes a full checkpoint: every dirty object is written to its home
    /// location, the object map and free list are serialized, and the
    /// superblock is updated.  After a checkpoint the system can recover to
    /// exactly this state.  A [`SingleLevelStore::checkpoint_lent`] with
    /// nothing lent.
    pub fn checkpoint(&mut self) {
        self.checkpoint_lent(std::iter::empty());
    }

    /// [`SingleLevelStore::checkpoint`] with objects lent by the caller:
    /// `lent` yields `(id, parts)` in strictly ascending id order, each
    /// object's serialized bytes being the concatenation of its parts.
    /// Each is written home straight from the parts, as if it had been
    /// `put` just before — merged into the dirty objects in ascending id
    /// order, a lent object superseding a dirty one of the same id — so
    /// the disk sees exactly the writes of `put` then `checkpoint`, while
    /// memory never holds a copy of the lent bytes.  Every object written
    /// is clean afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `lent` is not in strictly ascending id order.
    pub fn checkpoint_lent<'a>(
        &mut self,
        lent: impl IntoIterator<Item = (u64, Vec<Cow<'a, [u8]>>)>,
    ) {
        let start = self.tick();
        // 0. The metadata blob from the previous checkpoint can be recycled
        //    now; the superblock will be rewritten before this call returns.
        if let Some(prev) = self.prev_meta.take() {
            self.homes.alloc.free(prev);
        }

        // 1. Write dirty and lent objects, in ascending id order, and drop
        //    records of deleted objects.
        let mut dirty = std::mem::take(&mut self.dirty).into_iter().peekable();
        let mut lent = lent.into_iter().peekable();
        let mut last = None;
        loop {
            let id = match (dirty.peek(), lent.peek()) {
                (Some((d, _)), Some((l, _))) => *d.min(l),
                (Some((id, _)), None) | (None, Some((id, _))) => *id,
                (None, None) => break,
            };
            assert!(last < Some(id), "lent objects out of ascending id order");
            last = Some(id);
            let stored = dirty.next_if(|(d, _)| *d == id);
            match (lent.next_if(|(l, _)| *l == id), stored) {
                (Some((_, parts)), _) => {
                    let parts: Vec<&[u8]> = parts.iter().map(|part| &part[..]).collect();
                    self.homes.write(&mut self.disk, id, &parts);
                }
                (None, Some((_, data))) => self.homes.write(&mut self.disk, id, &[&data]),
                (None, None) => unreachable!("the id was peeked from one of the two"),
            }
            self.stats.objects_written += 1;
        }
        self.deleted.clear();

        // 2. Serialize metadata (object maps + free list) into a fresh
        //    extent.  The serialized free list must already EXCLUDE the
        //    extent the blob itself occupies — otherwise a recovered
        //    allocator believes the metadata region is free and the next
        //    checkpoint's `free(prev_meta)` double-frees it.  The blob's
        //    size depends on the free list, so it is measured before
        //    allocating (which changes the free list by at most one entry)
        //    and serialized after, with the final free list.
        let free = self.homes.alloc.free_list().len();
        let probe_len = 16 + map_len(self.homes.by_id.len(), free) as u64;
        let meta_extent = self
            .homes
            .alloc
            .alloc((probe_len + 64).max(BLOCK_SIZE))
            .expect("disk out of space for checkpoint metadata");
        let blob = meta_blob(&self.homes.by_id, self.homes.alloc.free_list());
        assert!(
            blob.len() as u64 <= meta_extent.len,
            "checkpoint metadata outgrew its extent"
        );
        self.disk.write(meta_extent.offset, &blob);

        // 3. Superblock points at the metadata blob.
        self.sequence += 1;
        let sb = Superblock {
            sequence: self.sequence,
            meta_offset: meta_extent.offset,
            meta_len: blob.len() as u64,
            meta_extent_len: meta_extent.len,
        };
        self.disk.write(0, &frame(&sb.encode()));
        self.disk.flush();

        // 4. The log contents are now folded into the checkpoint.
        let _ = self.wal.take_pending();
        self.wal.append(
            &mut self.disk,
            LogRecord::CheckpointMarker {
                sequence: self.sequence,
            },
        );
        self.prev_meta = Some(meta_extent);
        self.stats.checkpoints += 1;
        self.span("wal", "checkpoint", start);
    }

    /// Restores a store from the most recent on-disk snapshot plus any log
    /// records appended after it.  This is what "bootup" means in HiStar —
    /// there are no boot scripts, the entire system state simply reappears.
    pub fn recover(config: StoreConfig, disk: SimDisk) -> Result<SingleLevelStore, StoreError> {
        SingleLevelStore::recover_traced(config, disk, Recorder::disabled())
    }

    /// [`SingleLevelStore::recover`] with per-phase flight recording: each
    /// recovery phase (superblock read, object-map and free-list rebuild,
    /// WAL replay) emits a `recover` span into `recorder`, and the recorder
    /// stays installed on the recovered store.  Nothing else is read: an
    /// object's home record is read when it is first asked for.
    pub fn recover_traced(
        config: StoreConfig,
        mut disk: SimDisk,
        recorder: Recorder,
    ) -> Result<SingleLevelStore, StoreError> {
        let phase = |recorder: &Recorder, name: &'static str, start: u64, end: u64| {
            recorder.record(Span {
                cat: "recover",
                name,
                start,
                end,
                tid: 0,
                seq: 0,
            });
        };
        let t0 = disk.clock().now().as_nanos();
        let capacity = config.disk.capacity;
        let raw_sb = disk.read(0, config.superblock_len.min(4096));
        let sb = unframe(&raw_sb)
            .and_then(|(payload, _)| Superblock::decode_with(payload, capacity))
            .map_err(|_| StoreError::Corrupt("superblock"))?;
        let t1 = disk.clock().now().as_nanos();
        phase(&recorder, "superblock", t0, t1);

        let raw_meta = disk.read(sb.meta_offset, sb.meta_len);
        let map = unframe(&raw_meta)
            .and_then(|(payload, _)| CheckpointMap::decode_with(payload, capacity))
            .map_err(|_| StoreError::Corrupt("checkpoint metadata"))?;
        let alloc = ExtentAllocator::from_free_list(capacity, &map.free);
        alloc
            .check_invariants()
            .map_err(|_| StoreError::Corrupt("free list"))?;
        let t2 = disk.clock().now().as_nanos();
        phase(&recorder, "btree_rebuild", t1, t2);

        let wal = WriteAheadLog::new(config.superblock_len, config.log_region_len);
        let mut store = SingleLevelStore {
            config,
            wal,
            homes: HomeMap {
                by_id: map.homes.into_owned(),
                alloc,
            },
            dirty: BTreeMap::new(),
            deleted: BTreeSet::new(),
            prev_meta: Some(Extent::new(sb.meta_offset, sb.meta_extent_len)),
            sequence: sb.sequence,
            staged: None,
            stats: StoreStats::default(),
            recorder,
            disk,
        };

        // Replay any log records appended after the checkpoint marker for
        // this sequence number (records before it are already reflected in
        // the checkpoint).  The log is then RESUMED, not truncated: the
        // surviving frames stay where they are and new appends continue
        // after them, so a mount performs no log writes and a second crash
        // replays the same prefix again.
        let (records, consumed) = match config.replay_mode {
            ReplayMode::Batched => store.wal.recover(&mut store.disk),
            ReplayMode::RecordByRecord => {
                let region = store.wal.region_len();
                store.wal.recover_chunked(&mut store.disk, region)
            }
        };
        let mut after_marker = Vec::new();
        for rec in records {
            match rec {
                LogRecord::CheckpointMarker { sequence: s } if s == sb.sequence => {
                    after_marker.clear();
                }
                other => after_marker.push(other),
            }
        }
        match config.replay_mode {
            ReplayMode::Batched => {
                // Fold to one operation per object.  A DeleteObject's home
                // drop must still happen even when a later put supersedes
                // it — the per-record path frees the extent eagerly, and
                // the allocator state must come out identical.  The
                // resumed log keeps its records until the next checkpoint
                // folds them, so each surviving version is copied into the
                // dirty objects once, straight from the fold.
                let mut fold: BTreeMap<u64, (Option<&[u8]>, bool)> = BTreeMap::new();
                for rec in &after_marker {
                    match rec {
                        LogRecord::PutObject(id, data) => {
                            fold.entry(*id).or_insert((None, false)).0 = Some(data);
                        }
                        LogRecord::DeleteObject(id) => {
                            let slot = fold.entry(*id).or_insert((None, false));
                            slot.0 = None;
                            slot.1 = true;
                        }
                        LogRecord::CheckpointMarker { .. } => {}
                    }
                }
                for (id, (latest, saw_delete)) in fold {
                    if saw_delete {
                        store.homes.release(id);
                    }
                    match latest {
                        Some(data) => {
                            store.deleted.remove(&id);
                            store.dirty.insert(id, data.to_vec());
                        }
                        None => {
                            store.dirty.remove(&id);
                            store.deleted.insert(id);
                        }
                    }
                }
            }
            ReplayMode::RecordByRecord => {
                for rec in &after_marker {
                    match rec {
                        LogRecord::PutObject(id, data) => {
                            store.deleted.remove(id);
                            store.dirty.insert(*id, data.clone());
                        }
                        LogRecord::DeleteObject(id) => {
                            store.dirty.remove(id);
                            store.deleted.insert(*id);
                            store.homes.release(*id);
                        }
                        LogRecord::CheckpointMarker { .. } => {}
                    }
                }
            }
        }
        store.wal.resume(consumed, after_marker);
        store.span("recover", "wal_replay", t2);
        Ok(store)
    }

    /// Consumes the store, returning its disk (for crash/recovery testing).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// All object IDs currently known to the store (in memory or on disk).
    pub fn object_ids(&self) -> Vec<u64> {
        live_keys(
            self.homes.by_id.keys().copied(),
            self.dirty.keys().copied(),
            self.deleted.iter().copied(),
        )
    }
}

/// The keys of two ascending sources (the home map and the dirty
/// objects), merged in one pass into one ascending list without repeats,
/// minus the ascending `deleted` keys.
fn live_keys(
    homed: impl Iterator<Item = u64>,
    dirty: impl Iterator<Item = u64>,
    deleted: impl Iterator<Item = u64>,
) -> Vec<u64> {
    let (mut homed, mut dirty, mut deleted) =
        (homed.peekable(), dirty.peekable(), deleted.peekable());
    let mut out = Vec::new();
    loop {
        let key = match (homed.peek(), dirty.peek()) {
            (Some(&h), Some(&c)) => h.min(c),
            (Some(&k), None) | (None, Some(&k)) => k,
            (None, None) => return out,
        };
        homed.next_if_eq(&key);
        dirty.next_if_eq(&key);
        while deleted.next_if(|&d| d < key).is_some() {}
        if deleted.next_if_eq(&key).is_none() {
            out.push(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key above every object id, like the machine's metadata record.
    const META_KEY: u64 = 1 << 62;

    fn store() -> SingleLevelStore {
        SingleLevelStore::format(StoreConfig::default(), SimClock::new())
    }

    #[test]
    fn put_get_delete() {
        let mut s = store();
        s.put(1, vec![1, 2, 3]);
        s.put(2, vec![4; 10_000]);
        assert_eq!(s.get(1).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.get(2).unwrap().len(), 10_000);
        assert!(s.resident(1).unwrap().is_some());
        s.delete(1);
        assert_eq!(s.resident(1), Ok(None));
        assert_eq!(s.get(1), Err(StoreError::NoSuchObject(1)));
    }

    #[test]
    fn checkpoint_and_recover_round_trip() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        for i in 0..200u64 {
            s.put(i, vec![i as u8; (i as usize % 700) + 1]);
        }
        s.delete(3);
        s.checkpoint();
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        assert_eq!(r.sequence(), 1);
        for i in 0..200u64 {
            if i == 3 {
                assert_eq!(r.resident(i), Ok(None));
            } else {
                assert_eq!(r.get(i).unwrap(), vec![i as u8; (i as usize % 700) + 1]);
            }
        }
    }

    #[test]
    fn unsynced_updates_are_lost_on_crash() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(1, vec![1]);
        s.checkpoint();
        s.put(2, vec![2]); // never synced
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        assert!(r.resident(1).unwrap().is_some());
        assert_eq!(
            r.resident(2),
            Ok(None),
            "unsynced object must not survive the crash"
        );
        assert_eq!(r.get(1).unwrap(), vec![1]);
    }

    #[test]
    fn per_operation_sync_survives_crash_via_log() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.checkpoint();
        for i in 0..50u64 {
            s.put(i, vec![i as u8; 100]);
            s.sync_object(i).unwrap();
        }
        // No checkpoint after the puts; the log alone must carry them.
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        for i in 0..50u64 {
            assert_eq!(r.get(i).unwrap(), vec![i as u8; 100], "object {i}");
        }
    }

    #[test]
    fn synced_updates_survive_two_crashes() {
        // Regression: recovery resets the log head, so records replayed
        // from the log must be folded into a checkpoint before new
        // appends reuse the region — otherwise a second crash loses
        // updates that were durably synced before the first.
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.checkpoint();
        s.put(1, vec![0xa1; 64]);
        s.sync_object(1).unwrap();
        let mut r1 = SingleLevelStore::recover(config, s.into_disk()).unwrap();
        assert_eq!(r1.get(1).unwrap(), vec![0xa1; 64]);
        // New synced work after the first recovery reuses the log region.
        r1.put(2, vec![0xb2; 64]);
        r1.sync_object(2).unwrap();
        let mut r2 = SingleLevelStore::recover(config, r1.into_disk()).unwrap();
        assert_eq!(r2.get(1).unwrap(), vec![0xa1; 64], "first-life sync");
        assert_eq!(r2.get(2).unwrap(), vec![0xb2; 64], "second-life sync");
        r2.check_invariants().unwrap();
    }

    #[test]
    fn sync_delete_makes_removal_durable() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(9, vec![1, 2, 3]);
        s.checkpoint();
        s.delete(9);
        s.sync_delete(9);
        let mut r = SingleLevelStore::recover(config, s.into_disk()).unwrap();
        assert_eq!(
            r.resident(9),
            Ok(None),
            "durably deleted object must not return"
        );
        assert_eq!(r.get(9), Err(StoreError::NoSuchObject(9)));
    }

    #[test]
    fn resident_lends_the_cached_bytes_and_a_miss_reads_once() {
        let mut s = store();
        s.put(42, vec![9u8; 5000]);
        s.checkpoint();
        s.evict_clean();
        assert_eq!(s.resident(42).unwrap().as_deref(), Some(&[9u8; 5000][..]));
        assert_eq!(s.stats().objects_read, 1);
        assert_eq!(
            s.resident(42).unwrap().as_deref().map(<[u8]>::len),
            Some(5000)
        );
        assert_eq!(s.stats().objects_read, 1, "a hit reads nothing");
        s.delete(42);
        assert_eq!(s.resident(42), Ok(None));
        assert_eq!(s.resident(43), Ok(None));
        assert_eq!(s.stats().objects_read, 1);
    }

    #[test]
    fn an_object_both_cached_and_deleted_is_reported() {
        // Object 7 dirty, object 9 clean, object 8 deleted.
        let fresh = || {
            let mut s = store();
            s.put(7, vec![1]);
            s.put(9, vec![2]);
            s.checkpoint();
            s.put(7, vec![3]);
            s.delete(8);
            s.check_invariants().unwrap();
            s
        };
        type Corrupt = fn(&mut SingleLevelStore);
        let broken: [(Corrupt, &str); 3] = [
            (
                |s| _ = s.deleted.insert(7),
                "0x7 is both resident and deleted",
            ),
            (
                |s| _ = s.deleted.insert(9),
                "0x9 is both resident and deleted",
            ),
            (
                |s| s.homes.by_id.get_mut(&7).unwrap().clean = true,
                "0x7 is both clean and dirty",
            ),
        ];
        for (corrupt, what) in broken {
            let mut s = fresh();
            corrupt(&mut s);
            let err = s.check_invariants().unwrap_err();
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn a_free_extent_over_a_home_record_is_reported() {
        let mut s = store();
        s.put(7, vec![1; 100]);
        s.checkpoint();
        s.check_invariants().unwrap();
        let home = s.homes.by_id[&7].extent();
        s.homes.alloc.free(home);
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.contains("object 0x7") && err.contains("free extent"),
            "{err}"
        );
    }

    /// One home list of a [`CheckpointMap`]: `(id, field)` pairs.
    fn home_list(homes: &BTreeMap<u64, Home>, field: impl Fn(&Home) -> u64) -> Vec<u8> {
        let mut e = Encoder::new();
        for (&id, home) in homes {
            e.put_u64(id).put_u64(field(home));
        }
        e.finish()
    }

    /// A checkpoint map's bytes from its three home lists and an empty
    /// free list.
    fn map_bytes(lists: [&[u8]; 3]) -> Vec<u8> {
        let mut e = Encoder::new();
        for list in lists {
            e.put_bytes(list);
        }
        e.put_bytes(&Vec::<Extent>::new().encode());
        e.finish()
    }

    #[test]
    fn home_lists_must_be_whole_ascending_and_agree() {
        let home = |offset| Home {
            offset,
            extent_len: 4096,
            body_len: 10,
            clean: false,
        };
        let capacity = StoreConfig::default().disk.capacity;
        let homes = BTreeMap::from([(3, home(4096)), (9, home(8192))]);
        let decode = |bytes: &[u8]| CheckpointMap::decode_with(bytes, capacity);
        let offsets = home_list(&homes, |h| h.offset);
        let extent_lens = home_list(&homes, |h| h.extent_len);
        let body_lens = home_list(&homes, |h| h.body_len);
        let bytes = map_bytes([&offsets[..], &extent_lens[..], &body_lens[..]]);
        let map = decode(&bytes).unwrap();
        assert_eq!(*map.homes, homes);
        assert_eq!(map.encode(), bytes);
        assert_eq!(bytes.len(), map_len(2, 0));
        // Every list in the other order, or naming object 3 twice: the
        // lists agree, each home fits, and only the order is wrong.
        let swap = |list: &Vec<u8>| [&list[16..], &list[..16]].concat();
        let swapped = [&offsets, &extent_lens, &body_lens].map(swap);
        let twice = BTreeMap::from([(3, home(4096))]);
        let fields: [fn(&Home) -> u64; 3] = [|h| h.offset, |h| h.extent_len, |h| h.body_len];
        let twice = fields.map(|field| home_list(&twice, field).repeat(2));
        let renamed = BTreeMap::from([(3, home(4096)), (10, home(8192))]);
        let renamed = home_list(&renamed, |h| h.body_len);
        let past_disk = home_list(&homes, |_| capacity);
        let too_short = home_list(&homes, |_| 16 + 9);
        for (lists, err) in [
            (
                [&offsets[..31], &extent_lens[..], &body_lens[..]],
                DecodeError::Trailing,
            ),
            (
                [&offsets[..], &extent_lens[..], &body_lens[..16]],
                DecodeError::UnexpectedEnd,
            ),
            (
                [&swapped[0][..], &swapped[1][..], &swapped[2][..]],
                DecodeError::BadValue,
            ),
            (
                [&twice[0][..], &twice[1][..], &twice[2][..]],
                DecodeError::BadValue,
            ),
            (
                [&offsets[..], &extent_lens[..], &body_lens[16..]],
                DecodeError::BadValue,
            ),
            (
                [&offsets[..], &extent_lens[..], &renamed[..]],
                DecodeError::BadValue,
            ),
            (
                [&offsets[..], &past_disk[..], &body_lens[..]],
                DecodeError::BadValue,
            ),
            (
                [&offsets[..], &too_short[..], &body_lens[..]],
                DecodeError::BadValue,
            ),
        ] {
            assert_eq!(decode(&map_bytes(lists)), Err(err));
        }
    }

    #[test]
    fn recover_rejects_home_lists_that_disagree() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(3, vec![3]);
        s.put(9, vec![9]);
        s.checkpoint();
        // The checkpoint's metadata rewritten in place, its body-length
        // list naming object 10 where the other two name 9: correctly
        // framed and just as long, so only the lists are wrong.
        let mut renamed = s.homes.by_id.clone();
        let home = renamed.remove(&9).unwrap();
        renamed.insert(10, home);
        let blob = frame(&map_bytes([
            &home_list(&s.homes.by_id, |h| h.offset),
            &home_list(&s.homes.by_id, |h| h.extent_len),
            &home_list(&renamed, |h| h.body_len),
        ]));
        let meta = s.prev_meta.unwrap();
        let mut disk = s.into_disk();
        disk.write(meta.offset, &blob);
        assert_eq!(
            SingleLevelStore::recover(config, disk).err(),
            Some(StoreError::Corrupt("checkpoint metadata"))
        );
    }

    /// A checkpointed store, its disk, and where its superblock and
    /// metadata frames lie: `(offset, frame length)` each.
    fn checkpointed() -> (StoreConfig, SimDisk, [(u64, usize); 2]) {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(3, vec![3; 100]);
        s.put(9, vec![9; 5000]);
        s.checkpoint();
        let meta = s.prev_meta.unwrap().offset;
        let mut disk = s.into_disk();
        let frame_len = |disk: &mut SimDisk, at: u64| {
            let len = u64::from_le_bytes(disk.read(at, 8).try_into().unwrap());
            16 + len as usize
        };
        let frames = [
            (0, frame_len(&mut disk, 0)),
            (meta, frame_len(&mut disk, meta)),
        ];
        (config, disk, frames)
    }

    #[test]
    fn every_bit_flip_of_the_superblock_or_metadata_frame_is_refused() {
        let (config, mut disk, frames) = checkpointed();
        assert!(SingleLevelStore::recover(config, disk.crash_copy()).is_ok());
        for (at, len) in frames {
            let pristine = disk.read(at, len as u64);
            for bit in 0..len * 8 {
                let mut rotten = pristine.clone();
                rotten[bit / 8] ^= 1 << (bit % 8);
                let mut copy = disk.crash_copy();
                copy.write(at, &rotten);
                match SingleLevelStore::recover(config, copy) {
                    Err(StoreError::Corrupt(_)) => {}
                    other => panic!(
                        "bit {bit} of the frame at {at}: expected Corrupt, got {:?}",
                        other.map(|s| s.sequence())
                    ),
                }
            }
        }
    }

    #[test]
    fn a_superblock_missing_any_of_its_five_fields_is_refused() {
        let (config, disk, [_, (meta, meta_len)]) = checkpointed();
        let fields = [SUPERBLOCK_MAGIC, 1, meta, meta_len as u64, BLOCK_SIZE];
        let with_first = |kept: usize| {
            let mut sb = Encoder::new();
            for &field in &fields[..kept] {
                sb.put_u64(field);
            }
            let mut copy = disk.crash_copy();
            copy.write(0, &frame(&sb.finish()));
            SingleLevelStore::recover(config, copy)
        };
        let whole = with_first(fields.len()).expect("all five fields recover");
        whole.check_invariants().unwrap();
        for kept in 0..fields.len() {
            assert_eq!(
                with_first(kept).err(),
                Some(StoreError::Corrupt("superblock")),
                "{kept} of {} fields",
                fields.len()
            );
        }
    }

    #[test]
    fn log_application_batches() {
        let config = StoreConfig {
            apply_batch: 10,
            ..StoreConfig::default()
        };
        let mut s = SingleLevelStore::format(config, SimClock::new());
        for i in 0..35u64 {
            s.put(i, vec![0u8; 64]);
            s.sync_object(i).unwrap();
        }
        assert!(
            s.stats().log_applications >= 3,
            "expected ~3 applications, got {}",
            s.stats().log_applications
        );
    }

    /// A home record is written only at a checkpoint: a log filled past
    /// three quarters with puts that would each fit their home writes
    /// nothing but the log until the log is applied.
    #[test]
    fn logged_puts_reach_home_only_at_the_checkpoint() {
        const LEN: usize = 1000;
        let config = StoreConfig {
            apply_batch: usize::MAX,
            ..StoreConfig::default()
        };
        let mut s = SingleLevelStore::format(config, SimClock::new());
        for id in 0..200u64 {
            s.put(id, vec![0; LEN]);
        }
        s.checkpoint();
        let home_body = |s: &mut SingleLevelStore, id: u64| {
            let home = s.homes.by_id[&id];
            s.disk.read(home.offset + RECORD_HEADER, home.body_len)
        };
        let written = s.stats().objects_written;
        let (mut writes, mut log_writes) = (s.disk_stats().writes, None);
        let mut logged = 0..0u64;
        let mut past_three_quarters = 0;
        while past_three_quarters < 4 {
            let id = logged.end;
            s.put(id, vec![1; LEN]);
            s.sync_object(id).unwrap();
            logged.end += 1;
            let now = s.disk_stats().writes;
            let expected = *log_writes.get_or_insert(now - writes);
            assert_eq!(now - writes, expected, "append {id} wrote only the log");
            writes = now;
            if s.wal_used() * 4 > config.log_region_len * 3 {
                past_three_quarters += 1;
            }
        }
        assert_eq!(s.stats().objects_written, written);
        assert_eq!(s.stats().log_applications, 0);
        for id in logged.clone() {
            assert_eq!(home_body(&mut s, id), vec![0; LEN], "object {id}");
        }
        s.apply_log();
        assert_eq!(s.stats().objects_written, written + logged.end);
        for id in logged {
            assert_eq!(home_body(&mut s, id), vec![1; LEN], "object {id}");
        }
    }

    #[test]
    fn group_sync_writes_nothing_until_checkpoint() {
        let mut s = store();
        for i in 0..100u64 {
            s.put(i, vec![7u8; 1024]);
        }
        assert_eq!(s.disk().stats().writes, 0, "group sync defers all writes");
        s.checkpoint();
        assert!(s.disk().stats().writes > 0);
        assert_eq!(s.stats().checkpoints, 1);
    }

    /// A lent checkpoint is `put` of every lent object then `checkpoint`,
    /// to the byte and the tick — interleaved with dirty objects, over a
    /// dirty object of the same id, over an object that moves to a larger
    /// extent — and afterwards every written object is clean: read without
    /// a disk operation, holding no bytes in the store.
    #[test]
    fn a_lent_checkpoint_writes_what_put_and_checkpoint_write() {
        let (mut put, mut lent) = (store(), store());
        for s in [&mut put, &mut lent] {
            s.put(2, vec![2; 300]);
            s.put(5, vec![5; 9000]);
            s.put(META_KEY, vec![7; 40]);
            s.checkpoint();
            s.put(3, vec![3; 10]);
            s.put(5, vec![0; 5]); // superseded by the lent version
            s.put(8, vec![8; 70]);
        }
        let objects: [(u64, Vec<u8>); 3] = [
            (1, (0..5000u32).map(|i| i as u8).collect()),
            (5, vec![0x55; 20_000]),
            (9, Vec::new()),
        ];
        for (id, data) in &objects {
            put.put(*id, data.clone());
        }
        put.checkpoint();
        lent.checkpoint_lent(objects.iter().map(|(id, data)| {
            let (head, tail) = data.split_at(data.len() / 3);
            (*id, vec![Cow::Borrowed(head), Cow::Owned(tail.to_vec())])
        }));
        assert_eq!(lent.disk().image(), put.disk().image());
        assert_eq!(lent.disk_stats(), put.disk_stats());
        assert_eq!(lent.stats(), put.stats());
        assert_eq!(lent.disk().clock().now(), put.disk().clock().now());
        assert_eq!(lent.object_ids(), put.object_ids());
        assert!(lent.dirty.is_empty());
        assert_eq!(lent.cached_objects(), 7);
        lent.check_invariants().unwrap();
        let disk = lent.disk_stats();
        for (id, data) in &objects {
            assert_eq!(lent.resident(*id).unwrap().as_deref(), Some(&data[..]));
        }
        assert_eq!(lent.get(8).unwrap(), vec![8; 70]);
        assert_eq!(lent.disk_stats(), disk, "a clean read is no disk operation");
        assert_eq!(lent.stats().objects_read, 0);
    }

    #[test]
    #[should_panic(expected = "ascending id order")]
    fn lent_objects_out_of_order_are_refused() {
        store().checkpoint_lent([(2, vec![]), (1, vec![])]);
    }

    #[test]
    fn eviction_and_reread() {
        let mut s = store();
        s.put(42, vec![9u8; 5000]);
        s.checkpoint();
        s.evict_clean();
        assert_eq!(s.cached_objects(), 0);
        assert_eq!(s.get(42).unwrap(), vec![9u8; 5000]);
        assert_eq!(s.stats().objects_read, 1);
    }

    #[test]
    fn in_place_page_sync() {
        let mut s = store();
        let big = vec![1u8; 1024 * 1024];
        s.put(7, big.clone());
        s.checkpoint();

        // Modify two pages and flush them in place.
        let mut modified = big;
        modified[0] = 0xaa;
        modified[5000] = 0xbb;
        s.put(7, modified.clone());
        let writes_before = s.disk().stats().writes;
        assert_eq!(s.sync_pages_in_place(7, &[0, 1]).unwrap(), 2);
        assert!(s.disk().stats().writes > writes_before);
        assert_eq!(s.stats().inplace_flushes, 1);

        // After eviction the flushed pages are visible from disk.
        s.evict_clean();
        let read_back = s.get(7).unwrap();
        assert_eq!(read_back[0], 0xaa);
        assert_eq!(read_back[5000], 0xbb);

        // An object with no home location is rejected.
        s.put(8, vec![0u8; 10]);
        assert!(s.sync_pages_in_place(8, &[0]).is_err());

        // A resized object is rejected.
        s.put(7, vec![2u8; 100]);
        assert!(matches!(
            s.sync_pages_in_place(7, &[0]),
            Err(StoreError::InvalidOperation(_))
        ));
    }

    /// Regression: an in-place flush used to mark the whole object clean,
    /// so the pages it had *not* flushed were skipped by the next
    /// checkpoint and lost to eviction.
    #[test]
    fn partial_in_place_flush_leaves_the_object_dirty() {
        let mut s = store();
        let v1 = vec![1u8; 8 * BLOCK_SIZE as usize];
        s.put(7, v1.clone());
        s.checkpoint();
        let mut v2 = v1;
        v2[10] = 0xaa;
        v2[5 * BLOCK_SIZE as usize + 10] = 0xbb;
        s.put(7, v2.clone());
        assert_eq!(s.sync_pages_in_place(7, &[0]).unwrap(), 1);
        s.checkpoint();
        s.evict_clean();
        assert_eq!(s.get(7).unwrap(), v2, "page 5 must reach home too");
    }

    #[test]
    fn flush_ranges_patches_home_and_cache_together_or_not_at_all() {
        let mut s = store();
        let mut body = vec![3u8; 20_000];
        body[..4].copy_from_slice(b"HEAD");
        s.put(9, body.clone());
        s.checkpoint();

        // A clean object stays clean: home and cache got the same bytes.
        s.flush_ranges(9, 20_000, b"HEAD", &[(100, b"abc"), (19_997, b"xyz")])
            .unwrap();
        body[100..103].copy_from_slice(b"abc");
        body[19_997..].copy_from_slice(b"xyz");
        assert_eq!(s.get(9).unwrap(), body);
        s.evict_clean();
        assert_eq!(s.cached_objects(), 0);
        assert_eq!(s.get(9).unwrap(), body);

        // Every refusal happens before the first disk operation.
        let before = (s.disk_stats(), s.stats());
        for (len, prefix, range) in [
            (20_001, &b"HEAD"[..], (0, &b"x"[..])),       // size changed
            (20_000, &b"head"[..], (0, &b"x"[..])),       // prefix changed
            (20_000, &b"HEAD"[..], (19_999, &b"xy"[..])), // past the record
            (20_000, &b"HEAD"[..], (u64::MAX, &b"x"[..])),
        ] {
            assert!(matches!(
                s.flush_ranges(9, len, prefix, &[range]),
                Err(StoreError::InvalidOperation(_))
            ));
        }
        s.put(10, vec![0u8; 64]); // no home record yet
        assert_eq!(
            s.flush_ranges(10, 64, b"", &[(0, b"x")]),
            Err(StoreError::NoSuchObject(10))
        );
        assert_eq!(
            s.flush_ranges(11, 64, b"", &[]),
            Err(StoreError::NoSuchObject(11))
        );
        assert_eq!((s.disk_stats(), s.stats()), before);
        assert_eq!(s.get(9).unwrap(), body);
    }

    #[test]
    fn recover_rejects_unformatted_disk() {
        let disk = SimDisk::new(DiskConfig::default(), SimClock::new());
        assert!(matches!(
            SingleLevelStore::recover(StoreConfig::default(), disk),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn object_ids_lists_everything() {
        let mut s = store();
        s.put(5, vec![1]);
        s.put(9, vec![2]);
        s.checkpoint();
        s.put(11, vec![3]);
        s.delete(9);
        assert_eq!(s.object_ids(), vec![5, 11]);
    }

    #[test]
    fn multiple_checkpoints_advance_sequence() {
        let mut s = store();
        s.put(1, vec![1]);
        s.checkpoint();
        s.put(2, vec![2]);
        s.checkpoint();
        assert_eq!(s.sequence(), 2);
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(StoreConfig::default(), disk).unwrap();
        assert_eq!(r.sequence(), 2);
        assert!(r.get(1).is_ok());
        assert!(r.get(2).is_ok());
    }

    #[test]
    fn growing_object_moves_to_new_extent() {
        let mut s = store();
        s.put(1, vec![1u8; 100]);
        s.checkpoint();
        let small_extent = s.homes.by_id[&1].extent_len;
        assert!(small_extent < 100_016);
        s.put(1, vec![2u8; 100_000]);
        s.checkpoint();
        let big_loc = s.homes.by_id[&1].offset;
        assert!(
            s.homes.by_id[&1].extent_len >= 100_016,
            "grown object needs a larger extent"
        );
        s.evict_clean();
        assert_eq!(s.get(1).unwrap(), vec![2u8; 100_000]);
        // Shrinking keeps it in place (the extent is large enough).
        s.put(1, vec![3u8; 50]);
        s.checkpoint();
        assert_eq!(s.homes.by_id[&1].offset, big_loc);
        s.evict_clean();
        assert_eq!(s.get(1).unwrap(), vec![3u8; 50]);
    }

    #[test]
    fn delete_then_recreate_after_recovery() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(1, vec![1]);
        s.checkpoint();
        s.delete(1);
        s.sync_delete(1);
        s.put(1, vec![2]);
        s.sync_object(1).unwrap();
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        assert_eq!(r.get(1).unwrap(), vec![2]);
    }
}
