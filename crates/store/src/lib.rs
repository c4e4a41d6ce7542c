//! The HiStar single-level store.
//!
//! HiStar has no separate file system: on bootup the entire system state is
//! restored from the most recent on-disk snapshot, and the file system is
//! implemented with the same kernel abstractions as virtual memory (§3).
//! This crate implements the storage layer described in §4:
//!
//! * [`store::SingleLevelStore`] — the snapshot/recovery engine tying the
//!   pieces together over a [`histar_sim::SimDisk`].  Its object map (object
//!   ID → home record) is one ordered map in memory and, at each
//!   checkpoint, sorted lists of fixed-size `(id, value)` pairs on disk.
//! * [`extent::ExtentAllocator`] — free disk space as one offset-sorted,
//!   coalesced list of extents, allocated best fit; allocation is delayed
//!   until an object is written so that contiguous extents are easy to
//!   find.
//! * [`wal::WriteAheadLog`] — write-ahead logging for atomicity and crash
//!   consistency; synchronous operations append to a sequential log that is
//!   applied in batches.
//! * [`codec`] — the small binary encoding used for on-disk records.
//! * [`records`] — the persist record namespace: the key bit reserved for
//!   data (such as the `/persist` filesystem's records) that lives
//!   directly in the store, outside the kernel object heap.
//! * [`bptree::BPlusTree`] — a `u64 → u64` map kept only for the
//!   benchmark's `store.bptree_*` probes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bptree;
pub mod codec;
pub mod extent;
pub mod records;
pub mod store;
pub mod wal;

pub use extent::{Extent, ExtentAllocator};
pub use records::{is_persist_key, PERSIST_KEY_BASE};
pub use store::{page_ranges, ReplayMode, SingleLevelStore, StoreConfig, StoreError, StoreStats};
pub use wal::{LogRecord, WalStats, WriteAheadLog};
