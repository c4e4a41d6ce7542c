//! A complete simulated HiStar machine: kernel + single-level store + clock.
//!
//! The machine owns the pieces a real installation would have — the kernel,
//! the disk with its single-level store, the network device, and the machine
//! clock — and provides the boot, snapshot and crash-recovery paths.  On
//! bootup the entire system state is restored from the most recent on-disk
//! snapshot (§3); there are no boot scripts.

use crate::bodies::{DeviceBody, ObjectBody, ThreadBody};
use crate::kernel::{KObject, Kernel};
use crate::object::ObjectId;
use crate::syscall::SyscallError;
use histar_label::Label;
use histar_sim::{SimClock, SimDuration};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};
use histar_store::records::is_persist_key;
use histar_store::{SingleLevelStore, StoreConfig, StoreError};

/// Store key (outside the 61-bit object-ID space) holding machine metadata.
const MACHINE_META_KEY: u64 = 1 << 62;

/// The machine's own record in the store, beside the kernel objects: what
/// recovery needs before it can restore them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineMeta {
    /// The root container.
    pub root: ObjectId,
    /// The object-ID allocator's counter.
    pub id_counter: u64,
    /// The category allocator's counter.
    pub cat_counter: u64,
    /// The initial kernel thread.
    pub kernel_thread: ObjectId,
    /// The boot-time network device.
    pub net_device: ObjectId,
    /// The boot-time console device.
    pub console_device: ObjectId,
    /// Seed for the object-ID and category ciphers.
    pub seed: u64,
}

/// The seven fields, eight bytes each, in declaration order.
impl Wire<'_> for MachineMeta {
    const SIZE: usize = 7 * 8;

    fn put(&self, e: &mut Encoder) {
        self.root.put(e);
        e.put_u64(self.id_counter).put_u64(self.cat_counter);
        for id in [self.kernel_thread, self.net_device, self.console_device] {
            id.put(e);
        }
        e.put_u64(self.seed);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<MachineMeta, DecodeError> {
        Ok(MachineMeta {
            root: ObjectId::get(d, ())?,
            id_counter: d.get_u64()?,
            cat_counter: d.get_u64()?,
            kernel_thread: ObjectId::get(d, ())?,
            net_device: ObjectId::get(d, ())?,
            console_device: ObjectId::get(d, ())?,
            seed: d.get_u64()?,
        })
    }
}

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
/// keyed records — the `/persist` filesystem's inodes (a directory's with
/// its entries) and extents — and synced heap objects reach disk through
/// the same dispatch boundary as every other syscall.  The machine is the
/// operator's console beside that boundary: only it can reach the store
/// mutably ([`Machine::store_mut`]), snapshot, or crash.
#[derive(Debug)]
pub struct Machine {
    kernel: Kernel,
    clock: SimClock,
    config: MachineConfig,
    kernel_thread: ObjectId,
    net_device: ObjectId,
    console_device: ObjectId,
}

impl Machine {
    /// Boots a fresh machine: formats the disk, creates the root container,
    /// the initial kernel thread and the boot-time devices.
    pub fn boot(config: MachineConfig) -> Machine {
        let clock = SimClock::new();
        let store = SingleLevelStore::format(config.store, clock.clone());
        let thread = ObjectBody::Thread(ThreadBody::new(Label::default_clearance()));
        let net = ObjectBody::Device(DeviceBody::network([0x52, 0x54, 0x00, 0x12, 0x34, 0x56]));
        let console = ObjectBody::Device(DeviceBody::console());
        let boot = [("boot thread", thread), ("eth0", net), ("console", console)];
        let (kernel, [kernel_thread, net_device, console_device]) =
            Kernel::with_root_objects(config.seed, clock.clone(), store, boot);
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

    /// The single-level store (held by the kernel).
    pub fn store(&self) -> &SingleLevelStore {
        self.kernel.store()
    }

    /// The single-level store, mutably.
    pub fn store_mut(&mut self) -> &mut SingleLevelStore {
        self.kernel.store_mut()
    }

    /// The initial kernel thread created at boot.
    pub fn kernel_thread(&self) -> ObjectId {
        self.kernel_thread
    }

    /// The boot-time network device.
    pub fn net_device(&self) -> ObjectId {
        self.net_device
    }

    /// The boot-time console device.
    pub fn console_device(&self) -> ObjectId {
        self.console_device
    }

    /// Writes the entire object table to the single-level store and takes
    /// a checkpoint.  This is the periodic system-wide snapshot; after it
    /// returns, a crash loses nothing.
    ///
    /// Nothing is copied into the store: the checkpoint writes each live
    /// object home from the kernel's own bytes (a segment's contents are
    /// lent as they lie, only its hundred-odd-byte prefix is encoded), and
    /// each is then clean, its home record standing for it.  Objects go
    /// home in ascending ID order, merged with the store's own dirty
    /// records, so two snapshots of identical kernel state produce
    /// byte-identical disk images — the object table is a hash map, whose
    /// order follows the history of its inserts and removes rather than
    /// the state, and must never leak into the persistent layout.
    pub fn snapshot(&mut self) {
        // Remove objects that no longer exist in the kernel (in ascending
        // ID order, as `object_ids` lists them, for the same layout-
        // determinism reason).  Keys in the persist record namespace are
        // not kernel objects — they are owned by the store's own clients
        // (the `/persist` filesystem) and must never be swept.
        let stale: Vec<u64> = self
            .store()
            .object_ids()
            .into_iter()
            .filter(|&id| {
                id != MACHINE_META_KEY
                    && !is_persist_key(id)
                    && ObjectId::try_from_raw(id)
                        .is_none_or(|id| self.kernel.raw_object(id).is_none())
            })
            .collect();
        for id in stale {
            self.store_mut().delete(id);
        }
        // Machine metadata: root, counters, boot-time object IDs.
        let (id_counter, cat_counter) = self.kernel.allocator_counters();
        let meta = MachineMeta {
            root: self.kernel.root_container(),
            id_counter,
            cat_counter,
            kernel_thread: self.kernel_thread,
            net_device: self.net_device,
            console_device: self.console_device,
            seed: self.config.seed,
        };
        self.store_mut().put(MACHINE_META_KEY, meta.encode());
        self.kernel.checkpoint_objects();
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
        self.kernel.into_store().into_disk()
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
        let corrupt = |what: String, e: DecodeError| MachineError::Corrupt(format!("{what}: {e}"));
        let meta = MachineMeta::decode(&store.get(MACHINE_META_KEY)?)
            .map_err(|e| corrupt("machine metadata".into(), e))?;

        let mut objects = Vec::new();
        for id in store.object_ids() {
            // Skip the machine metadata blob and the persist record
            // namespace: persist records are not kernel objects — they are
            // replayed from the write-ahead log by the store itself and
            // re-mounted by the library's `/persist` filesystem.
            if id == MACHINE_META_KEY || is_persist_key(id) {
                continue;
            }
            // A miss: the bytes read are decoded and dropped, and the
            // object is left clean — its home record stands for it.
            let bytes = store.resident(id)?.ok_or(StoreError::NoSuchObject(id))?;
            let obj = KObject::decode(&bytes).map_err(|e| corrupt(format!("object {id:#x}"), e))?;
            if obj.header.id.raw() != id {
                let stored = format!("object {id:#x} stored under the id {}", obj.header.id);
                return Err(MachineError::Corrupt(stored));
            }
            objects.push((obj.header.id, obj));
        }

        let mut kernel = Kernel::new(meta.seed, clock.clone(), store);
        let (root, seed) = (meta.root, meta.seed);
        kernel.restore_objects(root, objects, meta.id_counter, meta.cat_counter, seed);
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
            kernel_thread: meta.kernel_thread,
            net_device: meta.net_device,
            console_device: meta.console_device,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ContainerEntry, ObjectType};
    use histar_label::{Label, Level};

    #[test]
    fn boot_creates_devices_and_thread() {
        let m = Machine::boot(MachineConfig::default());
        for device in [m.net_device(), m.console_device()] {
            let header = &m.kernel().raw_object(device).unwrap().header;
            assert_eq!(header.object_type, ObjectType::Device);
        }
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
            k.trap_persist_read(tid, key, 0, u64::MAX).unwrap(),
            (Label::unrestricted(), b"planted".to_vec())
        );
        // Naming the record's own label, or none, still splices: in place,
        // at the end, and past it over a zero gap.
        k.trap_persist_put(tid, key, Some(Label::unrestricted()), 0, b"PL")
            .unwrap();
        k.trap_persist_put(tid, key, None, 7, b"!").unwrap();
        k.trap_persist_put(tid, key, None, 10, b"?").unwrap();
        assert_eq!(
            k.trap_persist_read(tid, key, 0, u64::MAX).unwrap().1,
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
