//! A complete simulated HiStar machine: kernel + single-level store + clock.
//!
//! The machine owns the pieces a real installation would have — the kernel,
//! the disk with its single-level store, the network device, and the machine
//! clock — and provides the boot, snapshot and crash-recovery paths.  On
//! bootup the entire system state is restored from the most recent on-disk
//! snapshot (§3); there are no boot scripts.

use crate::bodies::DeviceBody;
use crate::kernel::Kernel;
use crate::object::ObjectId;
use crate::serialize::{decode_object, encode_object};
use crate::syscall::SyscallError;
use histar_label::Label;
use histar_sim::{SimClock, SimDuration};
use histar_store::codec::{Decoder, Encoder};
use histar_store::records::is_persist_key;
use histar_store::{SingleLevelStore, StoreConfig, StoreError};
use std::collections::BTreeSet;

/// Store key (outside the 61-bit object-ID space) holding machine metadata.
const MACHINE_META_KEY: u64 = 1 << 62;

/// Configuration for booting a [`Machine`].
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Seed for the object-ID and category ciphers.
    pub seed: u64,
    /// Configuration of the single-level store and its disk.
    pub store: StoreConfig,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            seed: 0x5157_4f53_4f31_3337,
            store: StoreConfig::default(),
        }
    }
}

/// Errors raised by machine-level operations (boot, snapshot, recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The store failed.
    Store(StoreError),
    /// A kernel object could not be decoded during recovery.
    Corrupt(String),
    /// A kernel call failed during boot.
    Syscall(SyscallError),
}

impl From<StoreError> for MachineError {
    fn from(e: StoreError) -> MachineError {
        MachineError::Store(e)
    }
}

impl From<SyscallError> for MachineError {
    fn from(e: SyscallError) -> MachineError {
        MachineError::Syscall(e)
    }
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::Store(e) => write!(f, "store error: {e}"),
            MachineError::Corrupt(what) => write!(f, "corrupt machine state: {what}"),
            MachineError::Syscall(e) => write!(f, "boot-time kernel error: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A simulated HiStar machine.
///
/// The single-level store lives *inside* the kernel (attached at boot):
/// the persist-record syscalls and `obj_sync` operate on it directly, so
/// keyed records — the `/persist` filesystem's inodes, dirents and extents
/// — and synced heap objects reach disk through the same dispatch boundary
/// as every other syscall.  The machine is the operator's console beside
/// that boundary: only it can reach the store mutably ([`Machine::store_mut`]),
/// snapshot, or crash.
#[derive(Debug)]
pub struct Machine {
    kernel: Kernel,
    clock: SimClock,
    config: MachineConfig,
    kernel_thread: ObjectId,
    net_device: Option<ObjectId>,
    console_device: Option<ObjectId>,
}

impl Machine {
    /// Boots a fresh machine: formats the disk, creates the root container,
    /// the initial kernel thread and the boot-time devices.
    pub fn boot(config: MachineConfig) -> Machine {
        let clock = SimClock::new();
        let store = SingleLevelStore::format(config.store, clock.clone());
        let mut kernel = Kernel::new(config.seed, Some(clock.clone()));
        kernel.attach_store(store);
        let root = kernel.root_container();
        let kernel_thread = kernel
            .bootstrap_thread(
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                "boot thread",
            )
            .expect("bootstrap thread creation cannot fail on a fresh kernel");

        let mut boot_device = |body, name| {
            kernel
                .boot_create_device(root, Label::unrestricted(), body, name)
                .expect("boot device creation cannot fail on a fresh kernel")
        };
        let net_device = Some(boot_device(
            DeviceBody::network([0x52, 0x54, 0x00, 0x12, 0x34, 0x56]),
            "eth0",
        ));
        let console_device = Some(boot_device(DeviceBody::console(), "console"));

        Machine {
            kernel,
            clock,
            config,
            kernel_thread,
            net_device,
            console_device,
        }
    }

    /// The machine-wide simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated time since boot.
    pub fn uptime(&self) -> SimDuration {
        self.clock.now()
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The kernel, mutably (system calls take `&mut Kernel`).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The single-level store (attached to the kernel).
    pub fn store(&self) -> &SingleLevelStore {
        self.kernel.store().expect("a machine's kernel has a store")
    }

    /// The single-level store, mutably.
    pub fn store_mut(&mut self) -> &mut SingleLevelStore {
        self.kernel
            .store_mut()
            .expect("a machine's kernel has a store")
    }

    /// The initial kernel thread created at boot.
    pub fn kernel_thread(&self) -> ObjectId {
        self.kernel_thread
    }

    /// The boot-time network device, if configured.
    pub fn net_device(&self) -> Option<ObjectId> {
        self.net_device
    }

    /// The boot-time console device, if configured.
    pub fn console_device(&self) -> Option<ObjectId> {
        self.console_device
    }

    /// Serializes the entire object table into the single-level store and
    /// takes a checkpoint.  This is the periodic system-wide snapshot; after
    /// it returns, a crash loses nothing.
    ///
    /// Objects are emitted in ascending ID order, so two snapshots of
    /// identical kernel state produce byte-identical disk images — the
    /// object table is a `HashMap` whose iteration order must never leak
    /// into the persistent layout.
    pub fn snapshot(&mut self) {
        // Write (or refresh) every live object, sorted by ID, one at a
        // time: each encoding moves into the store before the next is
        // built, so the transient footprint is one object, not the machine.
        let live: BTreeSet<u64> = self.kernel.objects().map(|(id, _)| id.raw()).collect();
        for &id in &live {
            let obj = self.kernel.raw_object(ObjectId::from_raw(id));
            let bytes = encode_object(obj.expect("listed as live above"));
            self.store_mut().put(id, bytes);
        }
        // Remove objects that no longer exist in the kernel (sorted, for
        // the same layout-determinism reason).  Keys in the persist record
        // namespace are not kernel objects — they are owned by the store's
        // own clients (the `/persist` filesystem) and must never be swept.
        let mut stale: Vec<u64> = self
            .store()
            .object_ids()
            .into_iter()
            .filter(|id| *id != MACHINE_META_KEY && !is_persist_key(*id) && !live.contains(id))
            .collect();
        stale.sort_unstable();
        for id in stale {
            self.store_mut().delete(id);
        }
        // Machine metadata: root, counters, boot-time object IDs.
        let (id_counter, cat_counter) = self.kernel.allocator_counters();
        let mut e = Encoder::new();
        e.put_u64(self.kernel.root_container().raw())
            .put_u64(id_counter)
            .put_u64(cat_counter)
            .put_u64(self.kernel_thread.raw())
            .put_u64(self.net_device.map_or(u64::MAX, ObjectId::raw))
            .put_u64(self.console_device.map_or(u64::MAX, ObjectId::raw))
            .put_u64(self.config.seed);
        let meta = e.finish();
        self.store_mut().put(MACHINE_META_KEY, meta);
        self.store_mut().checkpoint();
    }

    /// Simulates a crash: the machine is dropped and a new one is recovered
    /// from whatever the disk contains.  Everything since the last
    /// [`Machine::snapshot`] (or synchronous store operation) is lost, which
    /// is exactly the single-level-store semantics of §3.
    pub fn crash_and_recover(self) -> Result<Machine, MachineError> {
        let config = self.config;
        Machine::recover(config, self.into_disk())
    }

    /// [`Machine::crash_and_recover`] with flight recording: the recovery
    /// phases land as spans in `recorder`, which stays installed on the
    /// recovered kernel (see [`Machine::recover_traced`]).
    pub fn crash_and_recover_traced(
        self,
        recorder: histar_obs::Recorder,
    ) -> Result<Machine, MachineError> {
        let config = self.config;
        Machine::recover_traced(config, self.into_disk(), recorder)
    }

    /// Consumes the machine, returning the raw disk image (for crash
    /// harnesses that mutilate the write-ahead log before recovering).
    pub fn into_disk(self) -> histar_sim::SimDisk {
        let mut kernel = self.kernel;
        kernel
            .take_store()
            .expect("a machine's kernel has a store")
            .into_disk()
    }

    /// Recovers a machine from an existing disk image.
    pub fn recover(
        config: MachineConfig,
        disk: histar_sim::SimDisk,
    ) -> Result<Machine, MachineError> {
        Machine::recover_traced(config, disk, histar_obs::Recorder::disabled())
    }

    /// [`Machine::recover`] with flight recording: the store emits a span
    /// per recovery phase (superblock, object-map rebuild, WAL replay), the
    /// machine adds its own object-restore phase, and the recorder stays
    /// installed on the recovered kernel so post-recovery activity lands
    /// in the same trace.
    pub fn recover_traced(
        config: MachineConfig,
        disk: histar_sim::SimDisk,
        recorder: histar_obs::Recorder,
    ) -> Result<Machine, MachineError> {
        let clock = disk.clock().clone();
        let mut store = SingleLevelStore::recover_traced(config.store, disk, recorder.clone())?;
        let restore_start = clock.now().as_nanos();
        let meta_bytes = store
            .resident(MACHINE_META_KEY)?
            .ok_or(StoreError::NoSuchObject(MACHINE_META_KEY))?;
        let mut d = Decoder::new(meta_bytes);
        let read = |d: &mut Decoder<'_>| -> Result<u64, MachineError> {
            d.get_u64()
                .map_err(|e| MachineError::Corrupt(format!("machine metadata: {e}")))
        };
        let root = ObjectId::from_raw(read(&mut d)?);
        let id_counter = read(&mut d)?;
        let cat_counter = read(&mut d)?;
        let kernel_thread = ObjectId::from_raw(read(&mut d)?);
        let net_raw = read(&mut d)?;
        let console_raw = read(&mut d)?;
        let seed = read(&mut d)?;

        let mut objects = Vec::new();
        for id in store.object_ids() {
            // Skip the machine metadata blob and the persist record
            // namespace: persist records are not kernel objects — they are
            // replayed from the write-ahead log by the store itself and
            // re-mounted by the library's `/persist` filesystem.
            if id == MACHINE_META_KEY || is_persist_key(id) {
                continue;
            }
            let bytes = store.resident(id)?.ok_or(StoreError::NoSuchObject(id))?;
            let obj = decode_object(bytes)
                .map_err(|e| MachineError::Corrupt(format!("object {id:#x}: {e}")))?;
            objects.push((ObjectId::from_raw(id), obj));
        }

        let mut kernel = Kernel::new(seed, Some(clock.clone()));
        kernel.restore_objects(root, objects, id_counter, cat_counter, seed);
        kernel.attach_store(store);
        recorder.record(histar_obs::Span {
            cat: "recover",
            name: "object_restore",
            start: restore_start,
            end: clock.now().as_nanos(),
            tid: 0,
            seq: 0,
        });
        kernel.install_recorder(recorder);

        Ok(Machine {
            kernel,
            clock,
            config: MachineConfig { seed, ..config },
            kernel_thread,
            net_device: (net_raw != u64::MAX).then(|| ObjectId::from_raw(net_raw)),
            console_device: (console_raw != u64::MAX).then(|| ObjectId::from_raw(console_raw)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ContainerEntry;
    use histar_label::Level;

    #[test]
    fn boot_creates_devices_and_thread() {
        let m = Machine::boot(MachineConfig::default());
        assert!(m.net_device().is_some());
        assert!(m.console_device().is_some());
        assert_eq!(
            m.kernel().thread_label(m.kernel_thread()).unwrap(),
            Label::unrestricted()
        );
        assert!(m.uptime() >= SimDuration::ZERO);
    }

    #[test]
    fn snapshot_and_recover_preserves_objects_and_labels() {
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let root = m.kernel().root_container();

        // Create a category, a tainted segment and write to it.
        let cat = m.kernel_mut().trap_create_category(tid).unwrap();
        let secret_label = Label::builder().set(cat, Level::L3).build();
        let seg = m
            .kernel_mut()
            .trap_segment_create(tid, root, secret_label.clone(), 64, "secret notes")
            .unwrap();
        let entry = ContainerEntry::new(root, seg);
        m.kernel_mut()
            .trap_segment_write(tid, entry, 0, b"top secret")
            .unwrap();

        m.snapshot();
        let mut m2 = m.crash_and_recover().unwrap();

        // The thread still owns the category and the segment still exists
        // with its label and contents.
        assert!(m2.kernel().thread_label(tid).unwrap().owns(cat));
        let data = m2
            .kernel_mut()
            .trap_segment_read(tid, entry, 0, 10)
            .unwrap();
        assert_eq!(data, b"top secret");
        assert_eq!(
            m2.kernel_mut().trap_obj_get_label(tid, entry).unwrap(),
            secret_label
        );
    }

    #[test]
    fn persist_scan_fetches_no_more_than_max_records() {
        const RECORDS: u64 = 200;
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let base = histar_store::PERSIST_KEY_BASE;
        for i in 0..RECORDS {
            m.kernel_mut()
                .trap_persist_put(
                    tid,
                    base + i,
                    Some(Label::unrestricted()),
                    0,
                    &[i as u8; 32],
                )
                .unwrap();
        }
        m.snapshot();
        // The records are on disk only, so every fetch is a counted
        // object read.
        m.store_mut().evict_clean();
        let reads = m.store().stats().objects_read;
        let checks = m.kernel().stats().label_checks;
        let got = m
            .kernel_mut()
            .trap_persist_scan(tid, base, base + RECORDS, 1)
            .unwrap();
        assert_eq!(got, vec![(base, vec![0u8; 32])]);
        assert_eq!(m.store().stats().objects_read - reads, 1);
        assert_eq!(m.kernel().stats().label_checks - checks, 1);
        // The bound is on records returned: a full scan still sees all.
        let all = m
            .kernel_mut()
            .trap_persist_scan(tid, base, base + RECORDS, u64::MAX)
            .unwrap();
        assert_eq!(all.len() as u64, RECORDS);
    }

    /// A record keeps the label it was created with, and a put that names
    /// another one is refused: otherwise a thread writing its secret into
    /// a record someone planted at `{1}` would publish it.
    #[test]
    fn persist_put_refuses_to_relabel_an_existing_record() {
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let key = histar_store::PERSIST_KEY_BASE + 7;
        let k = m.kernel_mut();
        k.trap_persist_put(tid, key, Some(Label::unrestricted()), 0, b"planted")
            .unwrap();
        let c = k.trap_create_category(tid).unwrap();
        let secret = Label::builder().set(c, Level::L3).build();
        assert_eq!(
            k.trap_persist_put(tid, key, Some(secret), 0, b"secret"),
            Err(SyscallError::InvalidArgument(
                "a persist record keeps the label it was created with"
            ))
        );
        assert_eq!(
            k.trap_persist_get_label(tid, key).unwrap(),
            Label::unrestricted()
        );
        assert_eq!(
            k.trap_persist_read(tid, key, 0, u64::MAX).unwrap(),
            b"planted"
        );
        // Naming the record's own label, or none, still splices: in place,
        // at the end, and past it over a zero gap.
        k.trap_persist_put(tid, key, Some(Label::unrestricted()), 0, b"PL")
            .unwrap();
        k.trap_persist_put(tid, key, None, 7, b"!").unwrap();
        k.trap_persist_put(tid, key, None, 10, b"?").unwrap();
        assert_eq!(
            k.trap_persist_read(tid, key, 0, u64::MAX).unwrap(),
            b"PLanted!\0\0?"
        );
    }

    #[test]
    fn unsnapshotted_changes_are_lost_on_crash() {
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let root = m.kernel().root_container();
        m.snapshot();
        let seg = m
            .kernel_mut()
            .trap_segment_create(tid, root, Label::unrestricted(), 16, "ephemeral")
            .unwrap();
        let mut m2 = m.crash_and_recover().unwrap();
        assert!(
            m2.kernel_mut()
                .trap_segment_read(tid, ContainerEntry::new(root, seg), 0, 1)
                .is_err(),
            "object created after the snapshot must not survive"
        );
    }

    #[test]
    fn category_allocation_continues_after_recovery() {
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let c1 = m.kernel_mut().trap_create_category(tid).unwrap();
        m.snapshot();
        let mut m2 = m.crash_and_recover().unwrap();
        let c2 = m2.kernel_mut().trap_create_category(tid).unwrap();
        assert_ne!(c1, c2, "recovered allocator must not reuse category names");
    }

    #[test]
    fn snapshot_removes_deleted_objects_from_store() {
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let root = m.kernel().root_container();
        let seg = m
            .kernel_mut()
            .trap_segment_create(tid, root, Label::unrestricted(), 16, "tmp")
            .unwrap();
        m.snapshot();
        m.kernel_mut()
            .trap_obj_unref(tid, ContainerEntry::new(root, seg))
            .unwrap();
        m.snapshot();
        let mut m2 = m.crash_and_recover().unwrap();
        assert!(m2
            .kernel_mut()
            .trap_segment_read(tid, ContainerEntry::new(root, seg), 0, 1)
            .is_err());
    }

    #[test]
    fn recovery_without_metadata_fails_cleanly() {
        let m = Machine::boot(MachineConfig::default());
        // No snapshot was ever taken, so the disk has no superblock.
        let err = m.crash_and_recover();
        assert!(err.is_err());
    }

    #[test]
    fn clock_advances_with_kernel_activity() {
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let before = m.uptime();
        for _ in 0..100 {
            m.kernel_mut().trap_self_get_label(tid).unwrap();
        }
        assert!(m.uptime() > before, "syscalls must consume simulated time");
    }
}
