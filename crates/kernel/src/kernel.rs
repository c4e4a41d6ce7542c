//! The kernel proper: the object table, the trap, and the console.
//!
//! The state a system call may reach lives in [`Sys`]: the object table,
//! the store, the label cache, the clock, the cost model, the counters and
//! the id and category allocators.  The [`Kernel`] holds a `Sys` beside
//! what no call reaches — the per-row counters, the audit trace, the flight
//! recorder — and is two things to its users.  The *trap* (`Kernel::enter`
//! here and `dispatch_one` in `dispatch.rs`) counts and charges a call,
//! finds its calling thread once as a [`Caller`], and lends the row's
//! handler `&mut Sys`, nothing more.  The *console* (`raw_object`,
//! `objects`, `store`, `thread_label`, the scheduler hooks and the like) is
//! for the machine, the scheduler and tests.
//!
//! The 42 handlers are methods of `Sys` in the sibling module `syscalls`,
//! outside this one, so mediation is a type: a handler cannot name the
//! table or the store (private fields), cannot look an object up by id
//! (the raw accessors are private to this module), and cannot reach the
//! console (it holds a `Sys`, not a `Kernel`).  It reads or writes an
//! object only through the proof its label check returned — see
//! `checked` — or its own thread through the `&Caller`.  A write that
//! spans objects is one trusted helper here, taking the proofs its rule
//! needs: `create_object`, `unlink`, `link`, `move_quota`, `post_alert`,
//! `wake_watchers` and `sync_object`.

use crate::abi::Completion;
use crate::bodies::{
    AddressSpaceBody, Alert, ContainerBody, DeviceBody, GateBody, ObjectBody, SegmentBody,
    ThreadBody, ThreadState,
};
use crate::dispatch::{DispatchStats, SyscallTrace};
use crate::object::{
    ContainerEntry, ObjectHeader, ObjectId, ObjectType, OBJECT_ID_MASK, QUOTA_INFINITE,
};
use crate::serialize::{lend_object, segment_prefix, RecordFrame};
use crate::syscall::{SyscallError, SyscallStats};
use histar_label::category::FeistelCipher;
use histar_label::{Category, CategoryAllocator, Label, LabelCache};
use histar_obs::{MetricSet, Recorder};
use histar_sim::{CostModel, OsFlavor, SimClock, SimDuration, SimHashMap};
use histar_store::codec::Wire;
use histar_store::{page_ranges, SingleLevelStore};

mod checked;

pub(crate) use checked::{Modifiable, Named, Observed, Writable};

/// Size of one page, matching the simulated hardware.
pub const PAGE_SIZE: u64 = 4096;

/// One kernel object: header plus type-specific body, plus the runtime
/// state other threads hang on it.  Runtime fields are never serialized
/// and are gone with the object.
#[derive(Clone, Debug)]
pub struct KObject {
    /// The object's header (identity, label, quota, flags).
    pub header: ObjectHeader,
    /// The object's type-specific payload.
    pub body: ObjectBody,
    /// One-shot readiness watches: threads to notify (with an
    /// `ObjectReady` completion) when this object is next written or
    /// deallocated.  Registered via `segment_watch`; this is how blocking
    /// pipe/socket reads park without polling.
    pub(crate) watchers: Vec<ObjectId>,
}

impl KObject {
    /// An object with no runtime state yet.
    pub fn new(header: ObjectHeader, body: ObjectBody) -> KObject {
        KObject {
            header,
            body,
            watchers: Vec::new(),
        }
    }
}

/// The result of a successful gate invocation: where the thread now runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateEntryResult {
    /// The thread's new label.
    pub label: Label,
    /// The thread's new clearance.
    pub clearance: Label,
    /// The address space the thread switched to (if the gate named one).
    pub address_space: Option<ContainerEntry>,
    /// The gate's entry point.
    pub entry_point: u64,
    /// The gate's initial stack pointer.
    pub stack_pointer: u64,
    /// The gate's closure arguments.
    pub closure_args: Vec<u64>,
}

/// What the scheduler should do with a parked thread, answered by
/// [`Kernel::wake_eligibility`] in one O(1) probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// The thread halted or no longer exists: retire its program.
    Retired,
    /// An undelivered alert is pending: wake it.
    Alert,
    /// An unreaped completion is pending: wake it.
    Completion,
    /// Nothing happened — the dirty mark was spurious; stay parked.
    Parked,
}

/// The calling thread as the trap found it: built only by
/// [`Kernel::enter`], which has already refused a missing, non-thread or
/// halted caller.  Handlers read the caller's label and clearance from
/// here (as they stood on entry), and reach the caller's own thread
/// object through it ([`Sys::caller`], [`Sys::caller_mut`]): a thread may
/// always observe and change itself.
pub(crate) struct Caller {
    tid: ObjectId,
    label: Label,
    clearance: Label,
}

impl Caller {
    /// The calling thread's id.
    pub(crate) fn tid(&self) -> ObjectId {
        self.tid
    }

    /// The caller's label on entry.
    pub(crate) fn label(&self) -> &Label {
        &self.label
    }

    /// The caller's clearance on entry.
    pub(crate) fn clearance(&self) -> &Label {
        &self.clearance
    }
}

/// The kernel state a system call may reach.  Its fields are private to
/// this module and its raw accessors are too, so a handler (a method of
/// `Sys` in `syscalls.rs`) reaches an object only through a proof.
#[derive(Debug)]
pub struct Sys {
    /// A `SimHashMap`: hashed with the unkeyed `SimHasher`, so its order
    /// is the same in every process, yet it is no order any output may
    /// show — `objects()` yields it as is, and every caller that turns it
    /// into bytes or a trace sorts by id first (`Machine::snapshot`).  A
    /// dropped kernel frees its objects in that order, which decides the
    /// host allocator's layout for whatever runs next.  Every trap looks
    /// its caller up here; the ids are Feistel-encrypted, so one multiply
    /// per lookup spreads them.
    ///
    /// Each object is boxed: a bucket is an id and a pointer (17 bytes
    /// with its control byte, against 289 for an inline `KObject`), so
    /// the table's spare capacity costs little and a growth moves
    /// pointers, not objects — inline, the doubling past 57,344 objects
    /// held a 37.9 MB table beside the 18.9 MB one it replaced.
    objects: SimHashMap<ObjectId, Box<KObject>>,
    root: ObjectId,
    categories: CategoryAllocator,
    id_cipher: FeistelCipher,
    id_counter: u64,
    label_cache: LabelCache,
    clock: SimClock,
    cost: CostModel,
    stats: SyscallStats,
    /// The address space of the most recently active thread, used to decide
    /// whether a switch can use the cheap `invlpg` path.
    last_address_space: Option<ContainerEntry>,
    /// Threads whose wake conditions may have changed since the scheduler
    /// last looked (completion pushed, explicitly woken, or deallocated),
    /// in event order.  The scheduler drains this instead of scanning its
    /// whole wait set every quantum, so wakes are O(events) not O(parked).
    /// Only threads enter it: a dead segment or container is nothing the
    /// scheduler waits on.  And only once `sched_parked`: a wake pass
    /// looks only at parked threads, so before any is parked a mark could
    /// only pile up — forever, on a machine no scheduler drains.
    sched_dirty: Vec<ObjectId>,
    /// Dedup set for `sched_dirty`.
    sched_dirty_set: std::collections::BTreeSet<ObjectId>,
    /// Whether a scheduler has ever parked a thread on this kernel
    /// ([`Kernel::sched_park`]).
    sched_parked: bool,
    /// The machine's single-level store.  The persist-record syscalls operate
    /// on it directly — data in the persist namespace bypasses the object
    /// heap entirely — `obj_sync` writes heap objects into it, and having
    /// it here lets those calls ride the same batched submission path (and
    /// audit trace) as every other syscall.
    store: SingleLevelStore,
}

/// The HiStar kernel.
#[derive(Debug)]
pub struct Kernel {
    sys: Sys,
    /// Per-syscall counters for calls crossing the dispatch boundary.
    dispatch_stats: DispatchStats,
    /// The bounded audit trace of dispatched syscalls, when enabled.
    trace: Option<SyscallTrace>,
    /// The flight recorder dispatched syscalls (and the scheduler/store,
    /// which hold clones of this handle) emit spans into.  Disabled by
    /// default — recording charges no simulated time either way, so the
    /// only cost of enabling it is host memory for the ring.
    recorder: Recorder,
    /// Monotonic sequence number tagging dispatch spans, so a trace viewer
    /// can correlate a span with its audit-trace record even after ring
    /// eviction.
    dispatch_seq: u64,
    /// The scheduler's last published counter snapshot (the scheduler
    /// lives outside the kernel, but its counters belong to the machine's
    /// metrics registry so `/metrics/sched` can serve them).
    sched_metrics: MetricSet,
}

/// A body type the object table hands out typed: [`Sys::read`] and
/// [`Sys::write`] return an object's header beside its body as `Self`, or
/// [`SyscallError::WrongType`] — the one place a type mismatch is spelled.
pub(crate) trait Typed: Sized {
    /// The object type whose body this is.
    const TYPE: ObjectType;
    /// The body, if `body` is one of these.
    fn of(body: &ObjectBody) -> Option<&Self>;
    /// The body, mutably, if `body` is one of these.
    fn of_mut(body: &mut ObjectBody) -> Option<&mut Self>;
}

macro_rules! typed {
    ($($Variant:ident($Body:ty),)*) => {$(
        impl Typed for $Body {
            const TYPE: ObjectType = ObjectType::$Variant;
            fn of(body: &ObjectBody) -> Option<&Self> {
                match body {
                    ObjectBody::$Variant(b) => Some(b),
                    _ => None,
                }
            }
            fn of_mut(body: &mut ObjectBody) -> Option<&mut Self> {
                match body {
                    ObjectBody::$Variant(b) => Some(b),
                    _ => None,
                }
            }
        }
    )*};
}

typed! {
    Container(ContainerBody),
    Thread(ThreadBody),
    Segment(SegmentBody),
    AddressSpace(AddressSpaceBody),
    Gate(GateBody),
    Device(DeviceBody),
}

/// Raw access, by id: this module's own, for the console, the trap, the
/// checks in `checked` and the trusted helpers.
impl Sys {
    pub(in crate::kernel) fn obj(&self, id: ObjectId) -> Result<&KObject, SyscallError> {
        self.objects
            .get(&id)
            .map(|o| &**o)
            .ok_or(SyscallError::NoSuchObject(id))
    }

    pub(in crate::kernel) fn obj_mut(
        &mut self,
        id: ObjectId,
    ) -> Result<&mut KObject, SyscallError> {
        self.objects
            .get_mut(&id)
            .map(|o| &mut **o)
            .ok_or(SyscallError::NoSuchObject(id))
    }

    pub(in crate::kernel) fn typed<B: Typed>(
        &self,
        id: ObjectId,
    ) -> Result<(&ObjectHeader, &B), SyscallError> {
        let o = self.obj(id)?;
        match B::of(&o.body) {
            Some(body) => Ok((&o.header, body)),
            None => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: B::TYPE,
            }),
        }
    }

    pub(in crate::kernel) fn typed_mut<B: Typed>(
        &mut self,
        id: ObjectId,
    ) -> Result<(&mut ObjectHeader, &mut B), SyscallError> {
        let o = self.obj_mut(id)?;
        let found = o.header.object_type;
        match B::of_mut(&mut o.body) {
            Some(body) => Ok((&mut o.header, body)),
            None => Err(SyscallError::WrongType {
                found,
                expected: B::TYPE,
            }),
        }
    }

    fn fresh_id(&mut self) -> ObjectId {
        let id = self.id_cipher.encrypt(self.id_counter) & OBJECT_ID_MASK;
        self.id_counter += 1;
        ObjectId::from_raw(id)
    }

    /// Records that `tid`'s wake conditions may have changed, once a
    /// scheduler has parked a thread here (before, nothing waits).
    fn sched_mark_dirty(&mut self, tid: ObjectId) {
        if self.sched_parked && self.sched_dirty_set.insert(tid) {
            self.sched_dirty.push(tid);
        }
    }

    /// Pushes a completion onto `tid`'s completion queue and marks the
    /// thread sched-dirty: if it is parked on an empty queue, the
    /// scheduler's next wake pass finds it without a scan.  A `tid` that
    /// names no live thread has no queue — its completions have nobody to
    /// reap them and are dropped.
    fn push_completion(&mut self, tid: ObjectId, completion: Completion) {
        if let Ok((_, body)) = self.typed_mut::<ThreadBody>(tid) {
            body.runtime.completions.push_back(completion);
            self.sched_mark_dirty(tid);
        }
    }

    /// Wakes every watcher in `watchers` (the list taken off `object`:
    /// watches are one-shot) with an `ObjectReady` completion.  Called on
    /// the success path of `segment_write` and on deallocation; a watcher
    /// that died while parked is skipped by `push_completion`.
    fn notify_watchers(&mut self, object: ObjectId, watchers: Vec<ObjectId>) {
        for tid in watchers {
            self.push_completion(tid, Completion::ObjectReady { object });
        }
    }

    /// Removes an object once its last hard link disappears; containers drop
    /// their whole subtree.
    fn dealloc(&mut self, id: ObjectId) {
        let Some(obj) = self.objects.remove(&id) else {
            return;
        };
        self.stats.objects_deallocated += 1;
        // Threads watching this object wake (reads see EOF / a dead fd
        // rather than sleeping forever), and the scheduler gets a chance
        // to retire the object if it was itself a parked thread.
        self.notify_watchers(id, obj.watchers);
        if obj.header.object_type == ObjectType::Thread {
            self.sched_mark_dirty(id);
        }
        if let ObjectBody::Container(c) = obj.body {
            for child in c.links {
                if let Some(child_obj) = self.objects.get_mut(&child) {
                    child_obj.header.links = child_obj.header.links.saturating_sub(1);
                    if child_obj.header.links == 0 {
                        self.dealloc(child);
                    }
                }
            }
        }
    }

    /// Inserts a new object and links it into `container`, charging the
    /// container `quota`: boot paths and `create_object` alike.
    fn insert_linked(
        &mut self,
        container: ObjectId,
        header: ObjectHeader,
        body: ObjectBody,
    ) -> Result<ObjectId, SyscallError> {
        let (id, quota) = (header.id, header.quota);
        self.objects
            .insert(id, Box::new(KObject::new(header, body)));
        let (cheader, cbody) = self.typed_mut::<ContainerBody>(container)?;
        cheader.usage += quota;
        cbody.link(id);
        self.stats.objects_created += 1;
        Ok(id)
    }
}

/// What a handler may call: accessors that take a proof (or the
/// `&Caller`), the kernel's clock, costs and counters, and the trusted
/// helpers.
impl Sys {
    /// The calling thread's own object.
    pub(crate) fn caller(&self, t: &Caller) -> Result<(&ObjectHeader, &ThreadBody), SyscallError> {
        self.typed(t.tid)
    }

    /// The calling thread's own object, mutably.
    pub(crate) fn caller_mut(
        &mut self,
        t: &Caller,
    ) -> Result<(&mut ObjectHeader, &mut ThreadBody), SyscallError> {
        self.typed_mut(t.tid)
    }

    /// An observed object's header and body (a [`Modifiable`] derefs to
    /// its [`Observed`]: "no write down" includes "no read up").
    pub(crate) fn read<B: Typed>(&self, o: &Observed) -> Result<(&ObjectHeader, &B), SyscallError> {
        self.typed(o.id())
    }

    /// A modifiable object's header and body, mutably.
    pub(crate) fn write<B: Typed>(
        &mut self,
        m: &Modifiable,
    ) -> Result<(&mut ObjectHeader, &mut B), SyscallError> {
        self.typed_mut(m.id())
    }

    /// An observed object's header, whatever its type.
    pub(crate) fn header(&self, o: &Observed) -> Result<&ObjectHeader, SyscallError> {
        Ok(&self.obj(o.id())?.header)
    }

    /// A modifiable object's header, mutably, whatever its type.
    pub(crate) fn header_mut(&mut self, m: &Modifiable) -> Result<&mut ObjectHeader, SyscallError> {
        Ok(&mut self.obj_mut(m.id())?.header)
    }

    /// An observed object's readiness watchers.  Watching is an observe:
    /// a watch on an object the caller cannot read would turn its write
    /// activity into a covert channel.
    pub(crate) fn watchers(&mut self, o: &Observed) -> Result<&mut Vec<ObjectId>, SyscallError> {
        Ok(&mut self.obj_mut(o.id())?.watchers)
    }

    /// The label and type of a named object.  Reading a label through a
    /// readable container is the paper's design (`obj_get_label`): labels
    /// are the metadata a thread needs to decide how to access an object.
    pub(crate) fn named_label(&self, n: &Named) -> Result<(ObjectType, &Label), SyscallError> {
        let header = &self.obj(n.object())?.header;
        Ok((header.object_type, &header.label))
    }

    /// A named gate's label and body: what a thread must know to decide
    /// how to enter it (`gate_enter`, `gate_clearance`).
    pub(crate) fn named_gate(&self, n: &Named) -> Result<(&Label, &GateBody), SyscallError> {
        let (header, gate) = self.typed::<GateBody>(n.object())?;
        Ok((&header.label, gate))
    }

    /// The address space of a named thread: the object `thread_alert`
    /// must be able to write.
    pub(crate) fn named_address_space(
        &self,
        n: &Named,
    ) -> Result<Option<ContainerEntry>, SyscallError> {
        Ok(self.typed::<ThreadBody>(n.object())?.1.address_space)
    }

    /// The root container's id.
    pub(crate) fn root(&self) -> ObjectId {
        self.root
    }

    /// The cost model calls are charged by.
    pub(crate) fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The kernel's activity counters.
    pub(crate) fn stats_mut(&mut self) -> &mut SyscallStats {
        &mut self.stats
    }

    /// Advances the machine clock by `d`.
    pub(crate) fn charge(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Charges one uncached label comparison over `entries` label entries.
    pub(crate) fn charge_label_check(&mut self, entries: usize, cached: bool) {
        self.checks().charge_label_check(entries, cached);
    }

    /// Allocates a fresh category.
    pub(crate) fn alloc_category(&mut self) -> Category {
        self.categories.alloc()
    }

    /// Accounts one context switch onto a thread in address space
    /// `new_as`: the cheap `invlpg` path when it is the one last active.
    pub(crate) fn account_context_switch(&mut self, new_as: Option<ContainerEntry>) {
        self.stats.context_switches += 1;
        let cost = if new_as.is_some() && new_as == self.last_address_space {
            self.stats.invlpg_switches += 1;
            self.cost.context_switch_invlpg
        } else {
            self.cost.context_switch_full
        };
        self.charge(cost);
        self.last_address_space = new_as;
    }

    /// Validates the label of a to-be-created object and the container it
    /// will live in, then inserts it, charging quota.
    pub(crate) fn create_object(
        &mut self,
        t: &Caller,
        container: ObjectId,
        label: Label,
        quota: u64,
        descrip: &str,
        body: ObjectBody,
    ) -> Result<ObjectId, SyscallError> {
        let otype = body.object_type();
        // Only thread and gate labels may contain ⋆.
        if !otype.may_own_categories() && label.contains_star() {
            return Err(SyscallError::OwnershipNotAllowed(otype));
        }
        // The creating thread must be able to write the container...
        let c = self.check_modify(t, container)?;
        // ...and allocate at this label: L_T ⊑ L ⊑ C_T.
        t.label.can_allocate(&t.clearance, &label)?;
        // The container hierarchy may forbid this object type.
        let (cheader, cbody) = self.read::<ContainerBody>(&c)?;
        if !cbody.allows_type(otype) {
            return Err(SyscallError::TypeForbidden(otype));
        }
        let avoid = cbody.avoid_types;
        // Quota check.
        let available = cheader.quota_remaining();
        if quota != QUOTA_INFINITE && available != QUOTA_INFINITE && quota > available {
            return Err(SyscallError::QuotaExceeded {
                container,
                requested: quota,
                available,
            });
        }
        if quota == QUOTA_INFINITE {
            return Err(SyscallError::InvalidArgument(
                "only the root container has an infinite quota",
            ));
        }

        let id = self.fresh_id();
        let mut header = ObjectHeader::new(id, otype, label, quota, descrip);
        header.usage = body.storage_bytes();
        header.links = 1;
        self.insert_linked(container, header, body)?;
        // New containers inherit the avoid mask and record their parent.
        if let Ok((_, c)) = self.typed_mut::<ContainerBody>(id) {
            c.parent = Some(container);
            c.avoid_types |= avoid;
        }
        Ok(id)
    }

    /// Unlinks `object` from the modifiable container `d`, returning its
    /// quota, and deallocates it when that was its last link
    /// (recursively for containers).  Containment is tested first: until
    /// `object` is known to be in `d`, nothing about it may show, not
    /// even whether it exists.
    pub(crate) fn unlink(&mut self, d: &Modifiable, object: ObjectId) -> Result<(), SyscallError> {
        let not_in = SyscallError::NotInContainer {
            container: d.id(),
            object,
        };
        if !self.read::<ContainerBody>(d)?.1.contains(object) {
            return Err(not_in);
        }
        let quota = self.obj(object)?.header.quota;
        let (cheader, cbody) = self.write::<ContainerBody>(d)?;
        cbody.unlink(object);
        cheader.usage = cheader.usage.saturating_sub(quota);
        let o = self.obj_mut(object)?;
        o.header.links = o.header.links.saturating_sub(1);
        if o.header.links == 0 {
            self.dealloc(object);
        }
        Ok(())
    }

    /// Adds a hard link to the named object in the modifiable container
    /// `dst` (§3.3): the caller's clearance must admit the object's label
    /// (`L_O ⊑ C_T`) — tested before anything else about the object shows
    /// — and the object's quota must be fixed; `dst` is charged it again.
    pub(crate) fn link(
        &mut self,
        t: &Caller,
        n: &Named,
        dst: &Modifiable,
    ) -> Result<(), SyscallError> {
        let object = n.object();
        let o = &self.obj(object)?.header;
        let (olabel_ok, quota, fixed) = (o.label.leq(&t.clearance), o.quota, o.flags.fixed_quota);
        self.stats.label_checks += 1;
        if !olabel_ok {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }
        if !fixed {
            return Err(SyscallError::QuotaNotFixed(object));
        }
        // Double-charge the object's quota to the destination container.
        let (dheader, dbody) = self.write::<ContainerBody>(dst)?;
        let available = dheader.quota_remaining();
        if available != QUOTA_INFINITE && quota > available {
            return Err(SyscallError::QuotaExceeded {
                container: dst.id(),
                requested: quota,
                available,
            });
        }
        dheader.usage += quota;
        dbody.link(object);
        self.obj_mut(object)?.header.links += 1;
        Ok(())
    }

    /// `quota_move(D, O, n)` once `D` is modifiable: moves `n` bytes of
    /// quota from `D` to an object it contains (or back, for negative
    /// `n`), subject to `L_T ⊑ L_O ⊑ C_T`; returning quota also reveals
    /// whether `O` has `|n|` spare bytes, so it needs "no read up" on `O`.
    pub(crate) fn move_quota(
        &mut self,
        t: &Caller,
        d: &Modifiable,
        object: ObjectId,
        n: i64,
    ) -> Result<(), SyscallError> {
        let container = d.id();
        if !self.read::<ContainerBody>(d)?.1.contains(object) {
            return Err(SyscallError::NotInContainer { container, object });
        }
        let olabel = self.obj(object)?.header.label.clone();
        self.stats.label_checks += 2;
        t.label.can_allocate(&t.clearance, &olabel)?;
        let (fixed, oquota, ousage) = {
            let o = &self.obj(object)?.header;
            (o.flags.fixed_quota, o.quota, o.usage)
        };
        if fixed {
            return Err(SyscallError::QuotaFixed(object));
        }
        if n >= 0 {
            let n = n as u64;
            let available = self.header(d)?.quota_remaining();
            if available != QUOTA_INFINITE && n > available {
                return Err(SyscallError::QuotaExceeded {
                    container,
                    requested: n,
                    available,
                });
            }
            self.obj_mut(object)?.header.quota = oquota.saturating_add(n);
            let c = self.header_mut(d)?;
            if c.quota != QUOTA_INFINITE {
                c.usage += n;
            } else {
                c.usage = c.usage.saturating_add(n);
            }
        } else {
            let take = n.unsigned_abs();
            self.check_observe(t, object)?;
            if oquota.saturating_sub(ousage) < take {
                return Err(SyscallError::QuotaUnderflow(object));
            }
            self.obj_mut(object)?.header.quota = oquota - take;
            let c = self.header_mut(d)?;
            c.usage = c.usage.saturating_sub(take);
        }
        Ok(())
    }

    /// Posts alert `code` to the named thread whose address space the
    /// caller may write, and announces it on the thread's completion
    /// queue, so a thread blocked on an empty queue wakes without polling
    /// `self_take_alert` every quantum.
    pub(crate) fn post_alert(
        &mut self,
        target: &Named,
        _aspace: &Modifiable,
        code: u64,
    ) -> Result<(), SyscallError> {
        let (_, body) = self.typed_mut::<ThreadBody>(target.object())?;
        body.pending_alerts.push(Alert { code });
        self.push_completion(target.object(), Completion::AlertPending { code });
        Ok(())
    }

    /// Wakes everyone parked on a written object: its watches are
    /// one-shot, so the list is taken off it.
    pub(crate) fn wake_watchers(&mut self, m: &Modifiable) -> Result<(), SyscallError> {
        let watchers = std::mem::take(&mut self.obj_mut(m.id())?.watchers);
        self.notify_watchers(m.id(), watchers);
        Ok(())
    }

    /// Makes a modifiable object durable in the store (`obj_sync`).  With
    /// `pages` — 4 KiB pages of a segment's payload — only those bytes
    /// move: they are borrowed from the segment and flushed into its home
    /// record, where the payload starts one encoded prefix in.  Whenever
    /// the store refuses that, and for every other sync, the whole object
    /// is encoded, stored and logged.  The table and the store are held at
    /// once, as the two disjoint fields they are.
    pub(crate) fn sync_object(
        &mut self,
        m: &Modifiable,
        pages: Option<Vec<u64>>,
    ) -> Result<(), SyscallError> {
        let id = m.id();
        let obj = self
            .objects
            .get(&id)
            .ok_or(SyscallError::NoSuchObject(id))?;
        let store = &mut self.store;
        if let Some((pages, (prefix, seg))) = pages
            .as_deref()
            .and_then(|p| Some((p, segment_prefix(obj)?)))
        {
            let base = prefix.len() as u64;
            let bytes = page_ranges(seg.len(), base, pages, |s, e| seg.range(s, e));
            let ranges: Vec<(u64, &[u8])> = bytes.iter().map(|(o, b)| (*o, &b[..])).collect();
            let encoded_len = base + seg.len() as u64;
            if store
                .flush_ranges(id.raw(), encoded_len, &prefix, &ranges)
                .is_ok()
            {
                return Ok(());
            }
        }
        store.put(id.raw(), obj.encode());
        store
            .sync_object(id.raw())
            .map_err(|_| SyscallError::NoSuchObject(id))
    }

    /// Frames a persist record for the store (see [`RecordFrame`]).
    pub(crate) fn put_record(&mut self, w: &Writable, label: &Label, payload: &[u8]) {
        let label = label.clone();
        self.store
            .put(w.key(), RecordFrame { label, payload }.encode());
    }

    /// Removes a writable persist record.
    pub(crate) fn delete_record(&mut self, w: &Writable) {
        self.store.delete(w.key());
    }

    /// Logs a writable persist record durably.
    pub(crate) fn sync_record(&mut self, w: &Writable) -> Result<(), SyscallError> {
        self.store
            .sync_object(w.key())
            .map_err(|_| SyscallError::NoSuchRecord(w.key()))
    }

    /// Logs the durable deletion of a key that holds no record, so an
    /// unlink followed by a sync cannot resurrect after a crash.  There is
    /// nothing to check: no record, no label.
    pub(crate) fn sync_deleted(&mut self, key: u64) {
        self.store.sync_delete(key);
    }
}

impl Kernel {
    /// Creates a kernel with a fresh root container.
    ///
    /// `seed` keys the object-ID and category-name ciphers (deterministic
    /// for a given seed); `clock` is the machine clock costs are charged to
    /// and `store` the single-level store the persist-record syscalls and
    /// `obj_sync` write into.
    pub fn new(seed: u64, clock: SimClock, store: SingleLevelStore) -> Kernel {
        Kernel::with_root_objects(seed, clock, store, []).0
    }

    /// A kernel as [`Kernel::new`] makes it whose root container also
    /// holds one unrestricted object with one page of quota for each
    /// `(descrip, body)` of `objects`; returns their IDs.  They are linked
    /// into the root before it enters the object table, so no lookup can
    /// fail.  A machine's boot-time thread and devices are made this way,
    /// as is the first thread of a bare kernel, which has no caller to
    /// create it.
    pub fn with_root_objects<const N: usize>(
        seed: u64,
        clock: SimClock,
        mut store: SingleLevelStore,
        objects: [(&str, ObjectBody); N],
    ) -> (Kernel, [ObjectId; N]) {
        let recorder = Recorder::disabled();
        store.set_recorder(recorder.clone());
        let mut sys = Sys {
            objects: Default::default(),
            root: ObjectId::from_raw(0),
            categories: CategoryAllocator::new(seed ^ 0xcafe),
            id_cipher: FeistelCipher::new(seed ^ 0xbeef),
            id_counter: 0,
            label_cache: LabelCache::new(),
            clock,
            cost: CostModel::for_flavor(OsFlavor::HiStar),
            stats: SyscallStats::default(),
            last_address_space: None,
            sched_dirty: Vec::new(),
            sched_dirty_set: std::collections::BTreeSet::new(),
            sched_parked: false,
            store,
        };
        let root_id = sys.fresh_id();
        let mut header = ObjectHeader::new(
            root_id,
            ObjectType::Container,
            Label::unrestricted(),
            QUOTA_INFINITE,
            "root container",
        );
        header.links = 1; // the root is always referenced
        let mut root = ContainerBody::default();
        let objects = objects.map(|(descrip, body)| {
            let id = sys.fresh_id();
            let label = Label::unrestricted();
            let mut child = ObjectHeader::new(id, body.object_type(), label, PAGE_SIZE, descrip);
            child.links = 1;
            header.usage += child.quota;
            root.link(id);
            KObject::new(child, body)
        });
        sys.objects.insert(
            root_id,
            Box::new(KObject::new(header, ObjectBody::Container(root))),
        );
        sys.root = root_id;
        let ids = objects.map(|object| {
            let id = object.header.id;
            sys.objects.insert(id, Box::new(object));
            sys.stats.objects_created += 1;
            id
        });
        let kernel = Kernel {
            sys,
            dispatch_stats: DispatchStats::default(),
            trace: None,
            recorder,
            dispatch_seq: 0,
            sched_metrics: MetricSet::new(),
        };
        (kernel, ids)
    }

    /// The root container's object ID.
    pub fn root_container(&self) -> ObjectId {
        self.sys.root
    }

    /// Kernel activity counters.  The call and error totals are the sums
    /// of the dispatch rows, the one place a call is counted.
    pub fn stats(&self) -> SyscallStats {
        SyscallStats {
            syscalls: self.dispatch_stats.total(),
            errors: self.dispatch_stats.total_errors(),
            ..self.sys.stats
        }
    }

    /// Per-syscall counters for the trapped (dispatched) call stream.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch_stats
    }

    pub(crate) fn dispatch_stats_mut(&mut self) -> &mut DispatchStats {
        &mut self.dispatch_stats
    }

    pub(crate) fn trace_mut(&mut self) -> Option<&mut SyscallTrace> {
        self.trace.as_mut()
    }

    /// Starts recording dispatched syscalls into a ring buffer holding at
    /// most `capacity` records (replacing any previous trace).
    pub fn enable_syscall_trace(&mut self, capacity: usize) {
        self.trace = Some(SyscallTrace::new(capacity));
    }

    /// The current audit trace, if tracing is enabled.
    pub fn syscall_trace(&self) -> Option<&SyscallTrace> {
        self.trace.as_ref()
    }

    /// The kernel's flight recorder (disabled by default).  The scheduler,
    /// store and exporter fabric clone this handle, so enabling it here is
    /// enabled everywhere that shares the kernel.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Starts span recording into a fresh bounded ring of `capacity` spans,
    /// replacing any previous recorder.  Returns a handle to the new ring.
    pub fn enable_flight_recorder(&mut self, capacity: usize) -> Recorder {
        self.recorder = Recorder::with_capacity(capacity);
        self.sys.store.set_recorder(self.recorder.clone());
        self.recorder.clone()
    }

    /// Installs an externally created recorder (e.g. the one that already
    /// holds a machine's recovery spans), replacing any previous one.
    pub fn install_recorder(&mut self, recorder: Recorder) {
        self.sys.store.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Stops span recording and drops the ring.
    pub fn disable_flight_recorder(&mut self) {
        self.install_recorder(Recorder::disabled());
    }

    pub(crate) fn next_dispatch_seq(&mut self) -> u64 {
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        seq
    }

    /// Dispatched-syscall count for one thread (zero if it never trapped,
    /// or was deallocated — the counter is part of the thread).
    pub fn thread_syscalls(&self, tid: ObjectId) -> u64 {
        self.thread(tid)
            .map_or(0, |(_, body)| body.runtime.syscalls)
    }

    /// IDs of every live container, in stable (sorted) order — the
    /// enumeration the per-container metrics filesystem serves, with each
    /// entry's visibility decided by its own label at read time.
    pub fn container_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self
            .sys
            .objects
            .iter()
            .filter(|(_, o)| o.header.object_type == ObjectType::Container)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable_by_key(|id| id.raw());
        ids
    }

    /// One snapshot of every counter the kernel and its attached subsystems
    /// maintain: syscall + dispatch stats, the label-comparison cache, and
    /// store/WAL/disk counters.  Collecting a snapshot charges no simulated
    /// time.
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.collect(&self.stats());
        set.collect(&self.dispatch_stats);
        set.collect(&self.sys.label_cache.stats());
        set.gauge("kernel.objects", self.object_count() as u64);
        if let Some(trace) = &self.trace {
            set.counter("trace.recorded", trace.total_recorded());
            set.counter("trace.dropped", trace.dropped());
        }
        set.counter("spans.recorded", self.recorder.total_recorded());
        set.counter("spans.dropped", self.recorder.dropped());
        set.collect(&self.sys.store.stats());
        set.collect(&self.sys.store.wal_stats());
        set.collect(&self.sys.store.disk_stats());
        set.extend(&self.sched_metrics);
        set
    }

    /// Stores the scheduler's latest counter snapshot (counters plus the
    /// run-queue depth and parked gauges) so `metrics()` — and therefore
    /// `/metrics/sched` — serves scheduling alongside every kernel-owned
    /// source.  The scheduler calls this at the end of every `run`.
    pub fn publish_sched_metrics(&mut self, set: MetricSet) {
        self.sched_metrics = set;
    }

    /// Simulated time since boot.
    pub fn now(&self) -> SimDuration {
        self.sys.clock.now()
    }

    /// Number of live objects (including the root container).
    pub fn object_count(&self) -> usize {
        self.sys.objects.len()
    }

    /// Number of threads in the sched-dirty list, waiting for a scheduler
    /// to drain it.
    pub fn sched_dirty_len(&self) -> usize {
        self.sys.sched_dirty.len()
    }

    /// The label-comparison cache.
    pub fn label_cache(&self) -> &LabelCache {
        &self.sys.label_cache
    }

    /// Sweeps the label-comparison cache now, as the end of a syscall does
    /// once a sweep is due: a label no live object carries at this sweep
    /// or the last leaves the cache, with its pairs.
    pub fn sweep_label_cache(&mut self) {
        let Sys {
            objects,
            label_cache,
            ..
        } = &mut self.sys;
        label_cache.sweep(objects.values().map(|o| &o.header.label));
    }

    /// Sweeps the label-comparison cache if enough labels have been
    /// interned since the last sweep to pay for a walk of every object.
    /// The kernel keeps no label id across syscalls, so between two is
    /// where a sweep may renumber them.
    pub(crate) fn sweep_label_cache_if_due(&mut self) {
        if self.sys.label_cache.sweep_due(self.sys.objects.len()) {
            self.sweep_label_cache();
        }
    }

    // ----- the trap --------------------------------------------------------

    /// The trap's prologue, run once per call before its handler: counts
    /// the call against row `index`, charges the
    /// boundary crossing — the kernel is entered once per batch, so only
    /// the batch's first call pays the full trap cost and the rest the
    /// per-entry decode cost — and looks the calling thread up, once,
    /// counting the call against it and refusing a caller that is missing,
    /// not a thread, or halted.  The handler gets the caller and the
    /// kernel state it may reach, nothing else.
    pub(crate) fn enter(
        &mut self,
        tid: ObjectId,
        index: usize,
        first_of_batch: bool,
    ) -> Result<(Caller, &mut Sys), SyscallError> {
        self.dispatch_stats.invocations[index] += 1;
        let crossing = if first_of_batch {
            self.sys.cost.syscall
        } else {
            self.sys.cost.syscall_batched_entry
        };
        self.sys.charge(crossing);
        let (header, body) = self.sys.typed_mut::<ThreadBody>(tid)?;
        body.runtime.syscalls += 1;
        if body.state == ThreadState::Halted {
            return Err(SyscallError::ThreadHalted(tid));
        }
        let caller = Caller {
            tid,
            label: header.label.clone(),
            clearance: body.clearance.clone(),
        };
        Ok((caller, &mut self.sys))
    }

    /// Counts one failed call against row `index`, like the call itself
    /// in `enter`.
    pub(crate) fn count_error(&mut self, index: usize) {
        self.dispatch_stats.errors[index] += 1;
    }

    /// Opens the store's group-commit window for one boundary crossing, so
    /// every `persist_sync` and logged `obj_sync` in the batch rides one
    /// shared WAL frame.
    pub(crate) fn begin_batch(&mut self) {
        self.sys.store.begin_sync_group();
    }

    /// Closes the store's group-commit window, flushing the coalesced
    /// syncs as one multi-record frame — this runs BEFORE any result is
    /// returned, so a sync is acked only after the shared append is
    /// durable.
    pub(crate) fn end_batch(&mut self) {
        self.sys.store.end_sync_group();
    }

    // ----- the console: threads and the scheduler ------------------------

    fn thread(&self, tid: ObjectId) -> Result<(&ObjectHeader, &ThreadBody), SyscallError> {
        self.sys.typed(tid)
    }

    fn thread_mut(
        &mut self,
        tid: ObjectId,
    ) -> Result<(&mut ObjectHeader, &mut ThreadBody), SyscallError> {
        self.sys.typed_mut(tid)
    }

    /// The label of any thread, unchecked.  Console: tests and harnesses;
    /// library code traps `self_get_label`, and `tests/static_guarantees.rs`
    /// keeps it off this.
    pub fn thread_label(&self, tid: ObjectId) -> Result<Label, SyscallError> {
        Ok(self.thread(tid)?.0.label.clone())
    }

    /// The clearance of any thread, unchecked.  Console: tests and harnesses;
    /// library code traps `self_get_clearance`, and `tests/static_guarantees.rs`
    /// keeps it off this.
    pub fn thread_clearance(&self, tid: ObjectId) -> Result<Label, SyscallError> {
        Ok(self.thread(tid)?.1.clearance.clone())
    }

    /// What the scheduler should do with a parked thread — the single O(1)
    /// wake probe.  The answer is read off the thread object: whether it
    /// halted, then whether its alert list and its completion queue are
    /// empty.  Nothing is derived or cached, so there is nothing to keep in
    /// step.
    pub fn wake_eligibility(&self, tid: ObjectId) -> WakeReason {
        match self.thread(tid) {
            Err(_) => WakeReason::Retired,
            Ok((_, body)) if body.state == ThreadState::Halted => WakeReason::Retired,
            // Alerts outrank completions, preserving the wake priority the
            // scheduler has always applied.
            Ok((_, body)) if !body.pending_alerts.is_empty() => WakeReason::Alert,
            Ok((_, body)) if !body.runtime.completions.is_empty() => WakeReason::Completion,
            Ok(_) => WakeReason::Parked,
        }
    }

    /// Scheduler hook: `tid` was parked.  From the first park on, this
    /// kernel records every thread whose wake conditions may have changed
    /// (the scheduler re-examines exactly these instead of scanning its
    /// whole wait set, which is what keeps 10⁴+ parked clients cheap), and
    /// `tid` itself is recorded, so the next wake pass re-checks it once.
    pub fn sched_park(&mut self, tid: ObjectId) {
        self.sys.sched_parked = true;
        self.sys.sched_mark_dirty(tid);
    }

    /// Drains the set of threads whose wake conditions may have changed
    /// since the last call, in event order (scheduler hook).
    pub fn take_sched_dirty(&mut self) -> Vec<ObjectId> {
        self.sys.sched_dirty_set.clear();
        std::mem::take(&mut self.sys.sched_dirty)
    }

    /// Scheduler hook: accounts the context switch onto `tid` (full TLB
    /// flush, or the cheap `invlpg` path when the incoming thread shares the
    /// outgoing thread's address space) and charges it to the clock.
    pub fn sched_context_switch(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        let new_as = self.thread(tid)?.1.address_space;
        self.sys.account_context_switch(new_as);
        Ok(())
    }

    /// Scheduler hook: charges one scheduling quantum of CPU time to the
    /// machine clock.
    pub fn sched_charge(&mut self, quantum: SimDuration) {
        self.sys.charge(quantum);
    }

    /// Number of unreaped completions for `tid`.
    pub fn completion_count(&self, tid: ObjectId) -> usize {
        self.thread(tid)
            .map_or(0, |(_, body)| body.runtime.completions.len())
    }

    /// Removes and returns all of `tid`'s unreaped completions, oldest
    /// first.
    pub fn reap_completions(&mut self, tid: ObjectId) -> Vec<Completion> {
        self.thread_mut(tid)
            .map(|(_, body)| body.runtime.completions.drain(..).collect())
            .unwrap_or_default()
    }

    // ----- the console: the store, boot and the machine ------------------

    /// Consumes the kernel, returning its store (crash simulation: the
    /// machine keeps the disk, the kernel's memory is lost).
    pub(crate) fn into_store(self) -> SingleLevelStore {
        self.sys.store
    }

    /// The machine's single-level store.
    pub fn store(&self) -> &SingleLevelStore {
        &self.sys.store
    }

    /// The store, mutably.  Crate-private: above the kernel the store is
    /// written through `persist_*` / `obj_sync` traps only, and the
    /// [`Machine`](crate::Machine) is the operator's console.
    pub(crate) fn store_mut(&mut self) -> &mut SingleLevelStore {
        &mut self.sys.store
    }

    /// Takes the store's checkpoint with every live object lent from the
    /// object table, in ascending id order (the table's own order follows
    /// its history, and must never reach the disk's layout): the table and
    /// the store are held at once, as the two disjoint fields of `Sys`
    /// they are, so each object goes home from the kernel's own bytes and
    /// no encoding of a segment's contents is ever built.
    pub(crate) fn checkpoint_objects(&mut self) {
        let Sys { objects, store, .. } = &mut self.sys;
        let mut live: Vec<(u64, &KObject)> =
            objects.iter().map(|(id, obj)| (id.raw(), &**obj)).collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        store.checkpoint_lent(live.into_iter().map(|(id, obj)| (id, lend_object(obj))));
    }

    /// Upper bound on one persist record's payload (a record is one
    /// store object; file data is split into extents far below this).
    pub const PERSIST_RECORD_MAX: u64 = 16 * 1024 * 1024;

    /// Bootstrap path: creates a device object directly in a container.
    /// `Netd::start` uses this for the NIC it brings up (devices are
    /// discovered by the kernel, not created by threads).
    pub fn boot_create_device(
        &mut self,
        container: ObjectId,
        label: Label,
        body: DeviceBody,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let id = self.sys.fresh_id();
        let mut header = ObjectHeader::new(id, ObjectType::Device, label, PAGE_SIZE, descrip);
        header.links = 1;
        self.sys
            .insert_linked(container, header, ObjectBody::Device(body))
    }

    /// Simulation hook (not a system call): delivers a frame "from the
    /// wire" into a device's receive queue.
    pub fn device_inject_rx(
        &mut self,
        device: ObjectId,
        frame: Vec<u8>,
    ) -> Result<(), SyscallError> {
        self.sys
            .typed_mut::<DeviceBody>(device)?
            .1
            .rx_queue
            .push(frame);
        Ok(())
    }

    /// Simulation hook (not a system call): drains frames the machine has
    /// transmitted, as the physical wire would.
    pub fn device_drain_tx(&mut self, device: ObjectId) -> Result<Vec<Vec<u8>>, SyscallError> {
        Ok(std::mem::take(
            &mut self.sys.typed_mut::<DeviceBody>(device)?.1.tx_queue,
        ))
    }

    /// Iterates over all objects in table order, which is no order an
    /// output may show: sort by id first (used by snapshotting).
    pub fn objects(&self) -> impl Iterator<Item = (&ObjectId, &KObject)> {
        self.sys.objects.iter().map(|(id, o)| (id, &**o))
    }

    /// Looks up an object directly (kernel-internal / persistence).
    pub fn raw_object(&self, id: ObjectId) -> Option<&KObject> {
        self.sys.objects.get(&id).map(|o| &**o)
    }

    /// Replaces the entire object table (used by recovery).
    pub fn restore_objects(
        &mut self,
        root: ObjectId,
        objects: Vec<(ObjectId, KObject)>,
        id_counter: u64,
        category_counter: u64,
        seed: u64,
    ) {
        let sys = &mut self.sys;
        sys.objects = objects
            .into_iter()
            .map(|(id, o)| (id, Box::new(o)))
            .collect();
        sys.root = root;
        sys.id_counter = id_counter;
        sys.id_cipher = FeistelCipher::new(seed ^ 0xbeef);
        sys.categories = CategoryAllocator::resume(seed ^ 0xcafe, category_counter);
    }

    /// Counters needed to persist allocator state across snapshots.
    pub fn allocator_counters(&self) -> (u64, u64) {
        (self.sys.id_counter, self.sys.categories.allocated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::Level;
    use histar_store::StoreConfig;

    /// Boots a bare kernel with one unrestricted thread in the root
    /// container and returns `(kernel, thread id)`.
    fn boot() -> (Kernel, ObjectId) {
        let clock = SimClock::new();
        let store = SingleLevelStore::format(StoreConfig::default(), clock.clone());
        let init = (
            "init",
            ObjectBody::Thread(ThreadBody::new(Label::default_clearance())),
        );
        let (k, [tid]) = Kernel::with_root_objects(42, clock, store, [init]);
        (k, tid)
    }

    fn entry(k: &Kernel, o: ObjectId) -> ContainerEntry {
        ContainerEntry::new(k.root_container(), o)
    }

    #[test]
    fn bootstrap_creates_root_and_thread() {
        let (k, tid) = boot();
        assert_eq!(k.object_count(), 2); // root + thread
        assert_eq!(k.thread_label(tid).unwrap(), Label::unrestricted());
        assert_eq!(k.thread_clearance(tid).unwrap(), Label::default_clearance());
    }

    #[test]
    fn create_category_grants_ownership_and_clearance() {
        let (mut k, tid) = boot();
        let c = k.trap_create_category(tid).unwrap();
        let label = k.thread_label(tid).unwrap();
        let clearance = k.thread_clearance(tid).unwrap();
        assert!(label.owns(c));
        assert_eq!(clearance.level(c), Level::L3);
        // Another category is distinct.
        let c2 = k.trap_create_category(tid).unwrap();
        assert_ne!(c, c2);
    }

    #[test]
    fn self_set_label_respects_clearance() {
        let (mut k, tid) = boot();
        let c = k.trap_create_category(tid).unwrap();
        // Tainting to 3 in an owned category is allowed (clearance 3 there).
        let lbl = k.thread_label(tid).unwrap().with(c, Level::L3);
        k.trap_self_set_label(tid, lbl.clone()).unwrap();
        assert_eq!(k.thread_label(tid).unwrap(), lbl);
        // Tainting to 3 in an unowned category exceeds the {2} clearance.
        let other = Category::from_raw(12345);
        let too_high = lbl.with(other, Level::L3);
        assert!(matches!(
            k.trap_self_set_label(tid, too_high),
            Err(SyscallError::Label(_))
        ));
    }

    #[test]
    fn segment_create_read_write() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 100, "data")
            .unwrap();
        let e = entry(&k, seg);
        k.trap_segment_write(tid, e, 10, b"hello").unwrap();
        assert_eq!(k.trap_segment_read(tid, e, 10, 5).unwrap(), b"hello");
        assert_eq!(k.trap_segment_len(tid, e).unwrap(), 100);
        k.trap_segment_resize(tid, e, 200).unwrap();
        assert_eq!(k.trap_segment_len(tid, e).unwrap(), 200);
        // Reads past the end are rejected.
        assert!(k.trap_segment_read(tid, e, 190, 100).is_err());
    }

    #[test]
    fn tainted_segment_is_unreadable_without_taint() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // An owner creates a secret segment tainted in its category.
        let c = k.trap_create_category(tid).unwrap();
        let secret_label = Label::builder().set(c, Level::L3).build();
        let seg = k
            .trap_segment_create(tid, root, secret_label, 10, "secret")
            .unwrap();
        let e = entry(&k, seg);
        // The owner can read it.
        assert!(k.trap_segment_read(tid, e, 0, 1).is_ok());

        // A second, unprivileged thread cannot.
        let other = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other",
            )
            .unwrap();
        assert_eq!(
            k.trap_segment_read(other, e, 0, 1),
            Err(SyscallError::CannotObserve(seg))
        );
        // It can taint itself up to clearance 2... which is still below 3,
        // so even after self-tainting the read fails.
        let tainted = Label::builder().set(c, Level::L2).build();
        k.trap_self_set_label(other, tainted).unwrap();
        assert!(k.trap_segment_read(other, e, 0, 1).is_err());
    }

    #[test]
    fn low_integrity_thread_cannot_write_high_integrity_segment() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let c = k.trap_create_category(tid).unwrap();
        // {c0, 1}: only owners of c may modify.
        let protected = Label::builder().set(c, Level::L0).build();
        let seg = k
            .trap_segment_create(tid, root, protected, 10, "protected")
            .unwrap();
        let e = entry(&k, seg);
        // The owner can write.
        k.trap_segment_write(tid, e, 0, b"x").unwrap();
        // An unprivileged thread can read but not write.
        let other = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other",
            )
            .unwrap();
        assert!(k.trap_segment_read(other, e, 0, 1).is_ok());
        assert_eq!(
            k.trap_segment_write(other, e, 0, b"y"),
            Err(SyscallError::CannotModify(seg))
        );
    }

    #[test]
    fn container_hierarchy_and_unref() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let dir = k
            .trap_container_create(tid, root, Label::unrestricted(), "dir", 0, 1 << 20)
            .unwrap();
        let seg = k
            .trap_segment_create(tid, dir, Label::unrestricted(), 4096, "file")
            .unwrap();
        assert_eq!(k.trap_container_get_parent(tid, dir).unwrap(), root);
        assert!(k.trap_container_list(tid, dir).unwrap().contains(&seg));
        // Unreferencing the directory drops the whole subtree.
        let count_before = k.object_count();
        k.trap_obj_unref(tid, entry(&k, dir)).unwrap();
        assert_eq!(k.object_count(), count_before - 2);
        assert!(k.raw_object(seg).is_none());
    }

    #[test]
    fn no_thread_becomes_sched_dirty_before_a_scheduler_parks_one() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let label = Label::unrestricted();
        let clearance = Label::default_clearance();
        for _ in 0..3 {
            let t = k
                .trap_thread_create(tid, root, label.clone(), clearance.clone(), 0, "t")
                .unwrap();
            k.trap_obj_unref(tid, entry(&k, t)).unwrap();
        }
        assert_eq!(k.sched_dirty_len(), 0, "no scheduler will ever drain these");
        k.sched_park(tid);
        assert_eq!(k.take_sched_dirty(), [tid]);
    }

    #[test]
    fn only_a_dead_thread_becomes_sched_dirty() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        k.sched_park(tid);
        k.take_sched_dirty();
        // With no scheduler to drain it, a freed segment or container
        // (subtree included) must leave nothing behind.
        for _ in 0..3 {
            let seg = k
                .trap_segment_create(tid, root, Label::unrestricted(), 64, "s")
                .unwrap();
            let dir = k
                .trap_container_create(tid, root, Label::unrestricted(), "d", 0, 1 << 20)
                .unwrap();
            k.trap_segment_create(tid, dir, Label::unrestricted(), 64, "leaf")
                .unwrap();
            k.trap_obj_unref(tid, entry(&k, seg)).unwrap();
            k.trap_obj_unref(tid, entry(&k, dir)).unwrap();
        }
        assert_eq!(k.take_sched_dirty(), []);
        // A dead thread is how the scheduler learns to retire a parked one.
        let t = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "t",
            )
            .unwrap();
        k.take_sched_dirty();
        k.trap_obj_unref(tid, entry(&k, t)).unwrap();
        assert_eq!(k.take_sched_dirty(), [t]);
    }

    #[test]
    fn quota_is_charged_and_enforced() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let small = k
            .trap_container_create(tid, root, Label::unrestricted(), "small", 0, 8192)
            .unwrap();
        // A 4-KiB segment fits.
        let _seg = k
            .trap_segment_create(tid, small, Label::unrestricted(), 4096, "a")
            .unwrap();
        // Another 8-KiB segment does not.
        assert!(matches!(
            k.trap_segment_create(tid, small, Label::unrestricted(), 8192, "b"),
            Err(SyscallError::QuotaExceeded { .. })
        ));
        // Moving quota into the container's child makes room... first grow
        // the container itself from the root.
        k.trap_quota_move(tid, root, small, 8192).unwrap();
        assert!(k
            .trap_segment_create(tid, small, Label::unrestricted(), 8192, "b")
            .is_ok());
    }

    #[test]
    fn avoid_types_is_inherited() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let no_threads = k
            .trap_container_create(
                tid,
                root,
                Label::unrestricted(),
                "nothreads",
                ObjectType::Thread.mask_bit(),
                1 << 20,
            )
            .unwrap();
        let sub = k
            .trap_container_create(tid, no_threads, Label::unrestricted(), "sub", 0, 1 << 16)
            .unwrap();
        assert!(matches!(
            k.trap_thread_create(
                tid,
                sub,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "t"
            ),
            Err(SyscallError::TypeForbidden(ObjectType::Thread))
        ));
        // Segments are still allowed.
        assert!(k
            .trap_segment_create(tid, sub, Label::unrestricted(), 16, "s")
            .is_ok());
    }

    #[test]
    fn thread_spawn_rules() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // Clearance above the parent's clearance is rejected.
        let too_high = Label::new(Level::L3);
        assert!(k
            .trap_thread_create(tid, root, Label::unrestricted(), too_high, 0, "t")
            .is_err());
        // A properly bounded child works and inherits the address space.
        let child = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                7,
                "child",
            )
            .unwrap();
        assert_eq!(k.thread_label(child).unwrap(), Label::unrestricted());
    }

    #[test]
    fn gate_transfers_privilege() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // A "daemon" thread owning category d creates a gate granting d.
        let daemon = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "daemon",
            )
            .unwrap();
        let d = k.trap_create_category(daemon).unwrap();
        let gate_label = k.thread_label(daemon).unwrap(); // owns d
        let gate = k
            .trap_gate_create(
                tid_owner(&k, daemon),
                root,
                gate_label,
                Label::default_clearance(),
                None,
                0xdead,
                vec![1, 2, 3],
                "service",
            )
            .unwrap();

        // An unprivileged client invokes the gate, requesting ownership of d.
        let client = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "client",
            )
            .unwrap();
        let requested = Label::builder().own(d).build();
        let res = k
            .trap_gate_enter(
                client,
                entry(&k, gate),
                requested.clone(),
                Label::default_clearance(),
                Label::unrestricted(),
            )
            .unwrap();
        assert_eq!(res.entry_point, 0xdead);
        assert_eq!(res.closure_args, vec![1, 2, 3]);
        assert!(k.thread_label(client).unwrap().owns(d));

        // Requesting ownership of a category the gate does not own fails.
        let bogus = Category::from_raw(999_999);
        let too_much = Label::builder().own(d).own(bogus).build();
        let client2 = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "client2",
            )
            .unwrap();
        assert!(k
            .trap_gate_enter(
                client2,
                entry(&k, gate),
                too_much,
                Label::default_clearance(),
                Label::unrestricted(),
            )
            .is_err());
    }

    /// Helper used by the gate test: the daemon itself creates the gate.
    fn tid_owner(_k: &Kernel, daemon: ObjectId) -> ObjectId {
        daemon
    }

    #[test]
    fn gate_clearance_gates_entry() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let d = k.trap_create_category(tid).unwrap();
        // The gate requires ownership of d to invoke: clearance {d0, 2}.
        let gate_clearance = Label::builder()
            .set(d, Level::L0)
            .default_level(Level::L2)
            .build();
        let gate = k
            .trap_gate_create(
                tid,
                root,
                k.thread_label(tid).unwrap(),
                gate_clearance,
                None,
                1,
                vec![],
                "guarded",
            )
            .unwrap();
        // A thread without d cannot invoke it (its label {1} ⋢ {d0,2}).
        let outsider = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "outsider",
            )
            .unwrap();
        assert_eq!(
            k.trap_gate_enter(
                outsider,
                entry(&k, gate),
                Label::unrestricted(),
                Label::default_clearance(),
                Label::unrestricted(),
            )
            .unwrap_err(),
            SyscallError::GateClearance(gate)
        );
    }

    #[test]
    fn thread_alert_requires_address_space_write() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let aspace = k
            .trap_as_create(tid, root, Label::unrestricted(), "as")
            .unwrap();
        k.trap_self_set_as(tid, entry(&k, aspace)).unwrap();
        let peer = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "peer",
            )
            .unwrap();
        // peer inherits tid's address space, which it can write; alert works.
        k.trap_thread_alert(peer, entry(&k, tid), 15).unwrap();
        assert_eq!(
            k.trap_self_take_alert(tid).unwrap(),
            Some(crate::bodies::Alert { code: 15 })
        );
        assert_eq!(k.trap_self_take_alert(tid).unwrap(), None);
    }

    #[test]
    fn immutable_objects_reject_writes() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 10, "ro")
            .unwrap();
        let e = entry(&k, seg);
        k.trap_obj_set_immutable(tid, e).unwrap();
        assert_eq!(
            k.trap_segment_write(tid, e, 0, b"x"),
            Err(SyscallError::Immutable(seg))
        );
        // Reads still work.
        assert!(k.trap_segment_read(tid, e, 0, 1).is_ok());
    }

    #[test]
    fn hard_link_requires_fixed_quota() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let dir = k
            .trap_container_create(tid, root, Label::unrestricted(), "dir", 0, 1 << 20)
            .unwrap();
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 10, "shared")
            .unwrap();
        let e = entry(&k, seg);
        assert_eq!(
            k.trap_hard_link(tid, e, dir),
            Err(SyscallError::QuotaNotFixed(seg))
        );
        k.trap_obj_set_fixed_quota(tid, e).unwrap();
        k.trap_hard_link(tid, e, dir).unwrap();
        // The object now survives removal of one link.
        k.trap_obj_unref(tid, e).unwrap();
        assert!(k.raw_object(seg).is_some());
        k.trap_obj_unref(tid, ContainerEntry::new(dir, seg))
            .unwrap();
        assert!(k.raw_object(seg).is_none());
    }

    #[test]
    fn two_links_in_one_container_are_charged_and_dropped_one_by_one() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let dir = k
            .trap_container_create(tid, root, Label::unrestricted(), "dir", 0, 1 << 20)
            .unwrap();
        let seg = k
            .trap_segment_create(tid, dir, Label::unrestricted(), 10, "shared")
            .unwrap();
        let e = ContainerEntry::new(dir, seg);
        let spare = k.trap_container_quota_avail(tid, dir).unwrap();
        k.trap_obj_set_fixed_quota(tid, e).unwrap();
        k.trap_hard_link(tid, e, dir).unwrap();
        assert_eq!(k.trap_container_list(tid, dir).unwrap(), [seg, seg]);
        assert_eq!(
            k.trap_container_quota_avail(tid, dir).unwrap(),
            spare - PAGE_SIZE
        );
        k.trap_obj_unref(tid, e).unwrap();
        assert_eq!(k.trap_segment_len(tid, e).unwrap(), 10);
        assert_eq!(k.trap_container_quota_avail(tid, dir).unwrap(), spare);
        k.trap_obj_unref(tid, e).unwrap();
        assert!(k.raw_object(seg).is_none());
        assert_eq!(
            k.trap_container_quota_avail(tid, dir).unwrap(),
            spare + PAGE_SIZE
        );
    }

    #[test]
    fn unref_root_is_rejected() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        assert_eq!(
            k.trap_obj_unref(tid, ContainerEntry::self_entry(root)),
            Err(SyscallError::RootContainer)
        );
    }

    #[test]
    fn network_device_with_taint() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // Create netd-ish categories and the device label {nr3, nw0, i2, 1}.
        let nr = k.trap_create_category(tid).unwrap();
        let nw = k.trap_create_category(tid).unwrap();
        let i = k.trap_create_category(tid).unwrap();
        let dev_label = Label::builder()
            .set(nr, Level::L3)
            .set(nw, Level::L0)
            .set(i, Level::L2)
            .build();
        let dev = k
            .boot_create_device(
                root,
                dev_label,
                DeviceBody::network([1, 2, 3, 4, 5, 6]),
                "eth0",
            )
            .unwrap();
        let de = entry(&k, dev);
        // The owner of nr/nw (which also owns i here) can use the device.
        k.trap_net_transmit(tid, de, vec![0xaa]).unwrap();
        k.device_inject_rx(dev, vec![0xbb]).unwrap();
        assert_eq!(k.trap_net_receive(tid, de).unwrap(), Some(vec![0xbb]));
        assert_eq!(k.device_drain_tx(dev).unwrap(), vec![vec![0xaa]]);
        // An unprivileged thread cannot even observe the device (nr 3).
        let other = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other",
            )
            .unwrap();
        assert!(k.trap_net_receive(other, de).is_err());
        assert!(k.trap_net_transmit(other, de, vec![1]).is_err());
    }

    #[test]
    fn syscall_stats_accumulate() {
        let (mut k, tid) = boot();
        let before = k.stats();
        let root = k.root_container();
        let _ = k.trap_segment_create(tid, root, Label::unrestricted(), 10, "s");
        let _ = k.trap_self_get_label(tid);
        let after = k.stats();
        let delta = after.since(&before);
        assert_eq!(delta.syscalls, 2);
        assert_eq!(delta.objects_created, 1);
        assert!(delta.label_checks >= 1);
    }

    #[test]
    fn observing_requires_container_readability() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // A private container readable only by owners of category c.
        let c = k.trap_create_category(tid).unwrap();
        let private = Label::builder().set(c, Level::L3).build();
        let dir = k
            .trap_container_create(tid, root, private, "private-dir", 0, 1 << 20)
            .unwrap();
        let seg = k
            .trap_segment_create(tid, dir, Label::unrestricted(), 10, "leaf")
            .unwrap();
        // Another thread cannot name the segment through the private
        // container, even though the segment itself is unrestricted.
        let other = k
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other",
            )
            .unwrap();
        assert!(matches!(
            k.trap_segment_read(other, ContainerEntry::new(dir, seg), 0, 1),
            Err(SyscallError::CannotObserve(_))
        ));
    }
}
