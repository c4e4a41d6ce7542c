//! The HiStar single-level store.
//!
//! HiStar has no separate file system: on bootup the entire system state is
//! restored from the most recent on-disk snapshot, and the file system is
//! implemented with the same kernel abstractions as virtual memory (§3).
//! This crate implements the storage layer described in §4:
//!
//! * [`bptree::BPlusTree`] — B+-trees with fixed-size keys and values
//!   (object IDs and disk offsets), used for the object map and for the two
//!   free-extent indexes.
//! * [`extent::ExtentAllocator`] — free disk space tracked by two B+-trees,
//!   one indexed by extent size (for allocation) and one by location (for
//!   coalescing); allocation is delayed until an object is written so that
//!   contiguous extents are easy to find.
//! * [`wal::WriteAheadLog`] — write-ahead logging for atomicity and crash
//!   consistency; synchronous operations append to a sequential log that is
//!   applied in batches.
//! * [`store::SingleLevelStore`] — the snapshot/recovery engine tying the
//!   pieces together over a [`histar_sim::SimDisk`].
//! * [`codec`] — the small binary encoding used for on-disk records.
//! * [`records`] — the typed record namespace: reserved keys for data
//!   (such as the `/persist` filesystem's inodes, directory entries and
//!   extents) that lives directly in the store, outside the kernel object
//!   heap, laid out so range scans enumerate one directory or one file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bptree;
pub mod codec;
pub mod extent;
pub mod records;
pub mod store;
pub mod wal;

pub use bptree::BPlusTree;
pub use extent::{Extent, ExtentAllocator};
pub use records::{is_persist_key, RecordKind, PERSIST_KEY_BASE};
pub use store::{page_ranges, ReplayMode, SingleLevelStore, StoreConfig, StoreError, StoreStats};
pub use wal::{LogRecord, WalStats, WriteAheadLog};
