//! The kernel proper: object table plus the system-call handlers.
//!
//! Every `sys_*` method is the body of one HiStar system call, run on
//! behalf of the calling thread the trap found (a `Caller`).  A handler
//! performs exactly the label checks the paper specifies before touching
//! any state and charges what its own work costs; everything a call owes
//! for being a call — the boundary crossing, the counters, refusing a
//! halted caller, counting a failure — is the trap's business
//! (`Kernel::enter` here and `dispatch_one` in `dispatch.rs`), so the
//! handlers are reachable only through [`Kernel::dispatch`] and
//! [`Kernel::submit_calls`].

use crate::abi::Completion;
use crate::bodies::{
    AddressSpaceBody, Alert, ContainerBody, DeviceBody, GateBody, Mapping, ObjectBody, SegmentBody,
    ThreadBody, ThreadState,
};
use crate::dispatch::{DispatchStats, SyscallTrace};
use crate::object::{
    ContainerEntry, ObjectHeader, ObjectId, ObjectType, METADATA_LEN, OBJECT_ID_MASK,
    QUOTA_INFINITE,
};
use crate::serialize::{encode_object, segment_prefix};
use crate::syscall::{SyscallError, SyscallStats};
use histar_label::category::FeistelCipher;
use histar_label::{Category, CategoryAllocator, Label, LabelCache, Level};
use histar_obs::{MetricSet, Recorder};
use histar_sim::{CostModel, OsFlavor, SimBuildHasher, SimClock, SimDuration};
use histar_store::codec::{Decoder, Encoder};
use histar_store::records::is_persist_key;
use histar_store::{page_ranges, SingleLevelStore};
// The object table is the one sanctioned HashMap in this crate (hot
// per-syscall lookups; every iteration site sorts before order becomes
// visible) — allowed here and at each use, and listed by flowcheck.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

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
    /// The thread is already runnable again (an external `sched_wake`):
    /// requeue it without charging a wakeup.
    External,
    /// An undelivered alert is pending: wake it.
    Alert,
    /// An unreaped completion is pending: wake it.
    Completion,
    /// Nothing happened — the dirty mark was spurious; stay parked.
    Parked,
}

/// Which access a label check decides.
#[derive(Clone, Copy)]
enum Access {
    /// "No read up": `L_O ⊑ L_T^J`.
    Observe,
    /// "No write down": `L_T ⊑ L_O ⊑ L_T^J`.
    Modify,
}

/// The calling thread as the trap found it: looked up once per call by
/// [`Kernel::enter`], which has already refused a missing, non-thread or
/// halted caller.  Handlers read the caller's label and clearance from
/// here (as they stood on entry) and name its own object by `tid`.
pub(crate) struct Caller {
    pub(crate) tid: ObjectId,
    pub(crate) label: Label,
    pub(crate) clearance: Label,
}

/// The kernel state a label check reads and charges — the comparison
/// cache, the counters and the clock — borrowed apart from the rest of
/// the kernel, so a persist record's label can be checked while its
/// payload is still lent from the store (see [`Kernel::persist_record`]).
struct LabelChecks<'k> {
    cache: &'k mut LabelCache,
    stats: &'k mut SyscallStats,
    cost: &'k CostModel,
    clock: Option<&'k SimClock>,
}

impl LabelChecks<'_> {
    /// Counts, charges and answers one access check of a thread labelled
    /// `tl` on an object labelled `ol`.  An immutable object label takes
    /// its verdict from the comparison cache (§4); a thread object's label
    /// can change, so that check is computed and never cached.
    fn count_label_check(
        &mut self,
        ol: &Label,
        tl: &Label,
        immutable: bool,
        access: Access,
    ) -> bool {
        self.stats.label_checks += 1;
        let direct = || match access {
            Access::Observe => tl.can_observe(ol),
            Access::Modify => tl.can_modify(ol),
        };
        let (verdict, cached) = if immutable {
            let (o, t) = (self.cache.intern(ol), self.cache.intern(tl));
            let memo = match access {
                Access::Observe => self.cache.leq_high_rhs(o, t),
                Access::Modify => self.cache.can_modify(t, o),
            };
            debug_assert_eq!(memo.verdict, direct());
            (memo.verdict, memo.hit)
        } else {
            (direct(), false)
        };
        if cached {
            self.stats.label_cache_hits += 1;
        }
        self.charge_label_check(ol.len() + tl.len(), cached);
        verdict
    }

    /// Charges one label check comparing `entries` label entries (both
    /// operands together) and keeps the largest such total seen.
    fn charge_label_check(&mut self, entries: usize, cached: bool) {
        let seen = &mut self.stats.label_check_max_entries;
        *seen = (*seen).max(entries as u64);
        if let Some(clock) = self.clock {
            clock.advance(self.cost.label_check(entries, cached));
        }
    }

    /// "No read up" for persist records: record labels are immutable, so
    /// the comparison is memoizable exactly like a segment's.
    fn check_record_observe(
        &mut self,
        tl: &Label,
        key: u64,
        rlabel: &Label,
    ) -> Result<(), SyscallError> {
        if self.count_label_check(rlabel, tl, true, Access::Observe) {
            Ok(())
        } else {
            Err(SyscallError::CannotObserveRecord(key))
        }
    }

    /// "No write down" for persist records.
    fn check_record_modify(
        &mut self,
        tl: &Label,
        key: u64,
        rlabel: &Label,
    ) -> Result<(), SyscallError> {
        if self.count_label_check(rlabel, tl, true, Access::Modify) {
            Ok(())
        } else {
            Err(SyscallError::CannotModifyRecord(key))
        }
    }
}

/// One persist record as [`Kernel::persist_record`] finds it — its label
/// and lent payload, if it exists — and the checks to decide on it with.
type PersistRecord<'k> = (Option<(Label, &'k [u8])>, LabelChecks<'k>);

/// The HiStar kernel.
#[derive(Debug)]
pub struct Kernel {
    /// Hashed with the unkeyed `SimHasher`, not `HashMap`'s per-process
    /// seed: a dropped kernel frees its objects in hash order, and that
    /// order decides the host allocator's layout for whatever runs next.
    /// Every trap looks its caller up here; the ids are Feistel-encrypted,
    /// so one multiply per lookup spreads them.
    #[allow(clippy::disallowed_types)]
    objects: HashMap<ObjectId, KObject, SimBuildHasher>,
    root: ObjectId,
    categories: CategoryAllocator,
    id_cipher: FeistelCipher,
    id_counter: u64,
    label_cache: LabelCache,
    clock: Option<SimClock>,
    cost: CostModel,
    stats: SyscallStats,
    /// The address space of the most recently active thread, used to decide
    /// whether a switch can use the cheap `invlpg` path.
    last_address_space: Option<ContainerEntry>,
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
    /// Threads whose wake conditions may have changed since the scheduler
    /// last looked (completion pushed, explicitly woken, or deallocated),
    /// in event order.  The scheduler drains this instead of scanning its
    /// whole wait set every quantum, so wakes are O(events) not O(parked).
    sched_dirty: Vec<ObjectId>,
    /// Dedup set for `sched_dirty`.
    sched_dirty_set: std::collections::BTreeSet<ObjectId>,
    /// The scheduler's last published counter snapshot (the scheduler
    /// lives outside the kernel, but its counters belong to the machine's
    /// metrics registry so `/metrics/sched` can serve them).
    sched_metrics: MetricSet,
    /// The machine's single-level store, when this kernel is part of a
    /// [`Machine`](crate::Machine).  The persist-record syscalls operate
    /// on it directly — data in the persist namespace bypasses the object
    /// heap entirely — `obj_sync` writes heap objects into it, and having
    /// it here lets those calls ride the same batched submission path (and
    /// audit trace) as every other syscall.
    store: Option<SingleLevelStore>,
}

/// The typed views of the object table: `get(id)` and `get_mut(id)` (each
/// generated for the types a handler reads or changes in place) return the
/// object's header beside its body as the row's type, or
/// [`SyscallError::WrongType`] — the one place a type mismatch is spelled.
macro_rules! typed_accessors {
    ($($Variant:ident($Body:ty): $($get:ident)? $(, $get_mut:ident)?;)*) => {
        impl Kernel {$(
            $(
                fn $get(&self, id: ObjectId) -> Result<(&ObjectHeader, &$Body), SyscallError> {
                    let o = self.obj(id)?;
                    match &o.body {
                        ObjectBody::$Variant(body) => Ok((&o.header, body)),
                        _ => Err(SyscallError::WrongType {
                            found: o.header.object_type,
                            expected: ObjectType::$Variant,
                        }),
                    }
                }
            )?
            $(
                fn $get_mut(
                    &mut self,
                    id: ObjectId,
                ) -> Result<(&mut ObjectHeader, &mut $Body), SyscallError> {
                    let o = self.obj_mut(id)?;
                    match &mut o.body {
                        ObjectBody::$Variant(body) => Ok((&mut o.header, body)),
                        _ => Err(SyscallError::WrongType {
                            found: o.header.object_type,
                            expected: ObjectType::$Variant,
                        }),
                    }
                }
            )?
        )*}
    };
}

typed_accessors! {
    Container(ContainerBody): container, container_mut;
    Thread(ThreadBody): thread, thread_mut;
    Segment(SegmentBody): segment, segment_mut;
    AddressSpace(AddressSpaceBody): address_space, address_space_mut;
    Gate(GateBody): gate;
    Device(DeviceBody): , device_mut;
}

impl Kernel {
    /// Creates a kernel with a fresh root container.
    ///
    /// `seed` keys the object-ID and category-name ciphers (deterministic
    /// for a given seed); `clock` is the machine clock costs are charged to
    /// (pass `None` for pure functional tests).
    pub fn new(seed: u64, clock: Option<SimClock>) -> Kernel {
        let mut kernel = Kernel {
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
            dispatch_stats: DispatchStats::default(),
            trace: None,
            recorder: Recorder::disabled(),
            dispatch_seq: 0,
            sched_dirty: Vec::new(),
            sched_dirty_set: std::collections::BTreeSet::new(),
            sched_metrics: MetricSet::new(),
            store: None,
        };
        let root_id = kernel.fresh_id();
        let mut header = ObjectHeader::new(
            root_id,
            ObjectType::Container,
            Label::unrestricted(),
            QUOTA_INFINITE,
            "root container",
        );
        header.links = 1; // the root is always referenced
        kernel.objects.insert(
            root_id,
            KObject::new(header, ObjectBody::Container(ContainerBody::default())),
        );
        kernel.root = root_id;
        kernel
    }

    /// The root container's object ID.
    pub fn root_container(&self) -> ObjectId {
        self.root
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> SyscallStats {
        self.stats
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
        if let Some(store) = self.store.as_mut() {
            store.set_recorder(self.recorder.clone());
        }
        self.recorder.clone()
    }

    /// Installs an externally created recorder (e.g. the one that already
    /// holds a machine's recovery spans), replacing any previous one.
    pub fn install_recorder(&mut self, recorder: Recorder) {
        if let Some(store) = self.store.as_mut() {
            store.set_recorder(recorder.clone());
        }
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
    /// (when a store is attached) store/WAL/disk counters.  Collecting a
    /// snapshot charges no simulated time.
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.collect(&self.stats);
        set.collect(&self.dispatch_stats);
        set.collect(&self.label_cache.stats());
        set.gauge("kernel.objects", self.object_count() as u64);
        if let Some(trace) = &self.trace {
            set.counter("trace.recorded", trace.total_recorded());
            set.counter("trace.dropped", trace.dropped());
        }
        set.counter("spans.recorded", self.recorder.total_recorded());
        set.counter("spans.dropped", self.recorder.dropped());
        if let Some(store) = &self.store {
            set.collect(&store.stats());
            set.collect(&store.wal_stats());
            set.collect(&store.disk_stats());
        }
        set.extend(&self.sched_metrics);
        set
    }

    /// Stores the scheduler's latest counter snapshot (counters plus
    /// per-shard queue-depth gauges) so `metrics()` — and therefore
    /// `/metrics/sched` — serves scheduling alongside every kernel-owned
    /// source.  The scheduler calls this at the end of every `run`.
    pub fn publish_sched_metrics(&mut self, set: MetricSet) {
        self.sched_metrics = set;
    }

    /// Simulated time since boot (zero when no clock is attached).
    pub fn now(&self) -> SimDuration {
        self.clock
            .as_ref()
            .map(|c| c.now())
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of live objects (including the root container).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The label-comparison cache statistics.
    pub fn label_cache_stats(&self) -> histar_label::cache::CacheStats {
        self.label_cache.stats()
    }

    // ----- internal helpers ---------------------------------------------

    fn fresh_id(&mut self) -> ObjectId {
        let id = self.id_cipher.encrypt(self.id_counter) & OBJECT_ID_MASK;
        self.id_counter += 1;
        ObjectId::from_raw(id)
    }

    fn charge(&mut self, d: SimDuration) {
        if let Some(clock) = &self.clock {
            clock.advance(d);
        }
    }

    /// The trap's prologue, run once per call before its handler: counts
    /// the call (kernel total and row `index` together), charges the
    /// boundary crossing — the kernel is entered once per batch, so only
    /// the batch's first call pays the full trap cost and the rest the
    /// per-entry decode cost — and looks the calling thread up, once,
    /// counting the call against it and refusing a caller that is missing,
    /// not a thread, or halted.
    pub(crate) fn enter(
        &mut self,
        tid: ObjectId,
        index: usize,
        first_of_batch: bool,
    ) -> Result<Caller, SyscallError> {
        self.stats.syscalls += 1;
        self.dispatch_stats.invocations[index] += 1;
        let crossing = if first_of_batch {
            self.cost.syscall
        } else {
            self.cost.syscall_batched_entry
        };
        self.charge(crossing);
        let (header, body) = self.thread_mut(tid)?;
        body.runtime.syscalls += 1;
        if body.state == ThreadState::Halted {
            return Err(SyscallError::ThreadHalted(tid));
        }
        Ok(Caller {
            tid,
            label: header.label.clone(),
            clearance: body.clearance.clone(),
        })
    }

    /// Counts one failed call: like the call itself in `enter`, in the
    /// kernel total and the row's own count together, so the two cannot
    /// disagree.
    pub(crate) fn count_error(&mut self, index: usize) {
        self.stats.errors += 1;
        self.dispatch_stats.errors[index] += 1;
    }

    /// Opens the store's group-commit window for one boundary crossing, so
    /// every `persist_sync` and logged `obj_sync` in the batch rides one
    /// shared WAL frame.
    pub(crate) fn begin_batch(&mut self) {
        if let Some(store) = self.store.as_mut() {
            store.begin_sync_group();
        }
    }

    /// Closes the store's group-commit window, flushing the coalesced
    /// syncs as one multi-record frame — this runs BEFORE any result is
    /// returned, so a sync is acked only after the shared append is
    /// durable.
    pub(crate) fn end_batch(&mut self) {
        if let Some(store) = self.store.as_mut() {
            store.end_sync_group();
        }
    }

    fn obj(&self, id: ObjectId) -> Result<&KObject, SyscallError> {
        self.objects.get(&id).ok_or(SyscallError::NoSuchObject(id))
    }

    fn obj_mut(&mut self, id: ObjectId) -> Result<&mut KObject, SyscallError> {
        self.objects
            .get_mut(&id)
            .ok_or(SyscallError::NoSuchObject(id))
    }

    /// The label of any thread, unchecked.  Console: tests and harnesses;
    /// library code is kept off this by flowcheck and traps `self_get_label`.
    pub fn thread_label(&self, tid: ObjectId) -> Result<Label, SyscallError> {
        Ok(self.thread(tid)?.0.label.clone())
    }

    /// The clearance of any thread, unchecked.  Console: tests and harnesses;
    /// library code is kept off this by flowcheck and traps `self_get_clearance`.
    pub fn thread_clearance(&self, tid: ObjectId) -> Result<Label, SyscallError> {
        Ok(self.thread(tid)?.1.clearance.clone())
    }

    /// The scheduling state of any thread (scheduler hook, no checks).
    pub fn thread_state(&self, tid: ObjectId) -> Result<ThreadState, SyscallError> {
        Ok(self.thread(tid)?.1.state)
    }

    /// What the scheduler should do with a parked thread — the single O(1)
    /// wake probe.  The answer is read off the thread object: its
    /// scheduling state, then whether its alert list and its completion
    /// queue are empty.  Nothing is derived or cached, so there is nothing
    /// to keep in step.
    pub fn wake_eligibility(&self, tid: ObjectId) -> WakeReason {
        match self.thread(tid) {
            Err(_) => WakeReason::Retired,
            Ok((_, body)) => match body.state {
                ThreadState::Halted => WakeReason::Retired,
                ThreadState::Runnable => WakeReason::External,
                ThreadState::Blocked => {
                    // Alerts outrank completions, preserving the wake
                    // priority the scheduler has always applied.
                    if !body.pending_alerts.is_empty() {
                        WakeReason::Alert
                    } else if !body.runtime.completions.is_empty() {
                        WakeReason::Completion
                    } else {
                        WakeReason::Parked
                    }
                }
            },
        }
    }

    /// Scheduler hook: marks a blocked thread runnable again (alert arrival
    /// or explicit wake).  Halted threads stay halted.
    pub fn sched_wake(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        self.sched_mark_dirty(tid);
        let (_, body) = self.thread_mut(tid)?;
        if body.state == ThreadState::Blocked {
            body.state = ThreadState::Runnable;
        }
        Ok(())
    }

    /// Records that `tid`'s wake conditions may have changed.  The
    /// scheduler re-examines exactly these threads instead of scanning its
    /// whole wait set, which is what keeps 10⁴+ parked clients cheap.
    pub fn sched_mark_dirty(&mut self, tid: ObjectId) {
        if self.sched_dirty_set.insert(tid) {
            self.sched_dirty.push(tid);
        }
    }

    /// Drains the set of threads whose wake conditions may have changed
    /// since the last call, in event order (scheduler hook).
    pub fn take_sched_dirty(&mut self) -> Vec<ObjectId> {
        self.sched_dirty_set.clear();
        std::mem::take(&mut self.sched_dirty)
    }

    /// Scheduler hook: parks a runnable thread until the next wake.  Halted
    /// threads stay halted.
    pub fn sched_block(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        let (_, body) = self.thread_mut(tid)?;
        if body.state == ThreadState::Runnable {
            body.state = ThreadState::Blocked;
        }
        Ok(())
    }

    /// Scheduler hook: accounts the context switch onto `tid` (full TLB
    /// flush, or the cheap `invlpg` path when the incoming thread shares the
    /// outgoing thread's address space) and charges it to the clock.
    pub fn sched_context_switch(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        let new_as = self.thread(tid)?.1.address_space;
        self.account_context_switch(new_as);
        Ok(())
    }

    /// Scheduler hook: charges one scheduling quantum of CPU time to the
    /// machine clock.
    pub fn sched_charge(&mut self, quantum: SimDuration) {
        self.charge(quantum);
    }

    // ----- completion queues (ABI edge) ---------------------------------

    /// Pushes a completion onto `tid`'s completion queue and marks the
    /// thread sched-dirty: if it is parked on an empty queue, the
    /// scheduler's next wake pass finds it without a scan.  A `tid` that
    /// names no live thread has no queue — its completions have nobody to
    /// reap them and are dropped.
    pub(crate) fn push_completion(&mut self, tid: ObjectId, completion: Completion) {
        if let Ok((_, body)) = self.thread_mut(tid) {
            body.runtime.completions.push_back(completion);
            self.sched_mark_dirty(tid);
        }
    }

    // ----- readiness watches (blocking I/O) -----------------------------

    /// Registers a one-shot readiness watch for the caller on the object
    /// named by `entry`.  When the object is next written (`segment_write`)
    /// or deallocated, the kernel pushes a [`Completion::ObjectReady`]
    /// completion to the caller — the wake half of blocking
    /// `read(2)`/`poll`.
    ///
    /// The watch is observe-checked: watching an object you cannot read
    /// would turn its write activity into a covert channel.
    pub(crate) fn sys_segment_watch(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_observe(&t.label, entry.object)?;
        let list = &mut self.obj_mut(entry.object)?.watchers;
        if !list.contains(&t.tid) {
            list.push(t.tid);
        }
        Ok(())
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

    // ----- the single-level store and persist records -------------------

    /// Attaches the machine's single-level store.  From here on the
    /// persist-record syscalls and `obj_sync` are live; without a store
    /// they fail with [`SyscallError::NoStore`].
    pub fn attach_store(&mut self, store: SingleLevelStore) {
        let mut store = store;
        store.set_recorder(self.recorder.clone());
        self.store = Some(store);
    }

    /// Detaches and returns the store (crash simulation: the machine keeps
    /// the disk, the kernel's memory is lost).
    pub(crate) fn take_store(&mut self) -> Option<SingleLevelStore> {
        self.store.take()
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&SingleLevelStore> {
        self.store.as_ref()
    }

    /// The attached store, mutably, or the [`SyscallError::NoStore`] every
    /// store-backed call refuses with.  Crate-private: above the kernel the
    /// store is written through `persist_*` / `obj_sync` traps only, and
    /// the [`Machine`](crate::Machine) is the operator's console.
    pub(crate) fn store_mut(&mut self) -> Result<&mut SingleLevelStore, SyscallError> {
        self.store.as_mut().ok_or(SyscallError::NoStore)
    }

    /// Upper bound on one persist record's payload (a record is one
    /// store object; file data is split into extents far below this).
    pub const PERSIST_RECORD_MAX: u64 = 16 * 1024 * 1024;

    /// Frames a persist record for the store: label, then length-prefixed
    /// payload.  The label rides inside the record so that every access
    /// after a crash re-checks exactly what was protected before it.
    fn persist_frame(label: &Label, payload: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        crate::serialize::encode_label(&mut e, label);
        e.put_bytes(payload);
        e.finish()
    }

    /// Looks record `key` up once: its label, decoded from the stored
    /// frame, and its payload, lent from the store's cache rather than
    /// copied (`None` if there is no such record) — beside the label
    /// checks, which borrow the rest of the kernel, so a handler checks
    /// the label first and then copies out only the bytes it returns.
    fn persist_record(&mut self, key: u64) -> Result<PersistRecord<'_>, SyscallError> {
        let checks = LabelChecks {
            cache: &mut self.label_cache,
            stats: &mut self.stats,
            cost: &self.cost,
            clock: self.clock.as_ref(),
        };
        let store = self.store.as_mut().ok_or(SyscallError::NoStore)?;
        let corrupt = SyscallError::CorruptRecord(key);
        let record = match store.resident(key) {
            Ok(None) => None,
            Ok(Some(frame)) => {
                let mut d = Decoder::new(frame);
                match (crate::serialize::decode_label(&mut d), d.get_slice()) {
                    (Ok(label), Ok(payload)) => Some((label, payload)),
                    _ => return Err(corrupt),
                }
            }
            Err(_) => return Err(corrupt),
        };
        Ok((record, checks))
    }

    /// Creates or updates a labeled record in the persist namespace.
    ///
    /// An existing record keeps its (immutable) label — the caller must
    /// pass the modify check against it, and a `label` it passes must be
    /// that label; `offset`/`data` splice into the payload, growing it
    /// (zero-filled) as needed.  A new record takes `label`, validated by
    /// the allocation rule `L_T ⊑ L ⊑ C_T`.
    pub(crate) fn sys_persist_put(
        &mut self,
        t: &Caller,
        key: u64,
        label: Option<Label>,
        offset: u64,
        data: &[u8],
    ) -> Result<(), SyscallError> {
        if !is_persist_key(key) {
            return Err(SyscallError::InvalidArgument(
                "key outside the persist record namespace",
            ));
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&e| e <= Self::PERSIST_RECORD_MAX)
            .ok_or(SyscallError::InvalidArgument(
                "persist record write out of range",
            ))?;
        let (record, mut checks) = self.persist_record(key)?;
        let (rlabel, old) = match record {
            Some((rlabel, old)) => {
                checks.check_record_modify(&t.label, key, &rlabel)?;
                if label.is_some_and(|l| l != rlabel) {
                    return Err(SyscallError::InvalidArgument(
                        "a persist record keeps the label it was created with",
                    ));
                }
                (rlabel, old)
            }
            None => {
                let label = label.ok_or(SyscallError::InvalidArgument(
                    "creating a persist record requires a label",
                ))?;
                if label.contains_star() {
                    return Err(SyscallError::OwnershipNotAllowed(ObjectType::Segment));
                }
                t.label.can_allocate(&t.clearance, &label)?;
                (label, &[][..])
            }
        };
        let (offset, end) = (offset as usize, end as usize);
        let mut payload = Vec::with_capacity(end.max(old.len()));
        payload.extend_from_slice(&old[..offset.min(old.len())]);
        payload.resize(offset, 0);
        payload.extend_from_slice(data);
        payload.extend_from_slice(old.get(end..).unwrap_or_default());
        let copy_cost = self.cost.copy(data.len() as u64);
        self.charge(copy_cost);
        let framed = Self::persist_frame(&rlabel, &payload);
        self.store_mut()?.put(key, framed);
        Ok(())
    }

    /// Reads bytes out of a persist record (label-checked against the
    /// label stored *in* the record — the check a tainted reader fails
    /// even after the record was recovered from the write-ahead log).
    /// `len == u64::MAX` reads to the end of the payload.
    pub(crate) fn sys_persist_read(
        &mut self,
        t: &Caller,
        key: u64,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, SyscallError> {
        let (record, mut checks) = self.persist_record(key)?;
        let (rlabel, payload) = record.ok_or(SyscallError::NoSuchRecord(key))?;
        checks.check_record_observe(&t.label, key, &rlabel)?;
        if offset > payload.len() as u64 {
            return Err(SyscallError::InvalidArgument("read beyond end of record"));
        }
        let end = if len == u64::MAX {
            payload.len() as u64
        } else {
            offset
                .checked_add(len)
                .filter(|&e| e <= payload.len() as u64)
                .ok_or(SyscallError::InvalidArgument("read beyond end of record"))?
        };
        let out = payload[offset as usize..end as usize].to_vec();
        let copy_cost = self.cost.copy(end - offset);
        self.charge(copy_cost);
        Ok(out)
    }

    /// Removes a persist record (modify-checked against its label).  The
    /// deletion becomes durable at the next sync of the key or the next
    /// checkpoint.
    pub(crate) fn sys_persist_delete(&mut self, t: &Caller, key: u64) -> Result<(), SyscallError> {
        let (record, mut checks) = self.persist_record(key)?;
        let (rlabel, _) = record.ok_or(SyscallError::NoSuchRecord(key))?;
        checks.check_record_modify(&t.label, key, &rlabel)?;
        self.store_mut()?.delete(key);
        Ok(())
    }

    /// Range-scans the persist namespace, returning `(key, payload)` for
    /// every record in `[lo, hi)` whose label the calling thread may
    /// observe (at most `max` of them).  Records the thread may not
    /// observe are skipped, never partially revealed; keys below the
    /// persist namespace are unreachable through this call by
    /// construction.
    pub(crate) fn sys_persist_scan(
        &mut self,
        t: &Caller,
        lo: u64,
        hi: u64,
        max: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, SyscallError> {
        let keys = self
            .store_mut()?
            .keys_in_range(lo.max(histar_store::PERSIST_KEY_BASE), hi);
        let mut out = Vec::new();
        let mut copied = 0u64;
        // One record at a time, so `max` bounds the records fetched
        // (and disk-read), not just the ones returned.
        for key in keys {
            if out.len() as u64 >= max {
                break;
            }
            let (record, mut checks) = self.persist_record(key)?;
            let Some((rlabel, payload)) = record else {
                continue;
            };
            if checks.check_record_observe(&t.label, key, &rlabel).is_err() {
                continue;
            }
            copied += payload.len() as u64;
            out.push((key, payload.to_vec()));
        }
        let copy_cost = self.cost.copy(copied);
        self.charge(copy_cost);
        Ok(out)
    }

    /// Makes the named records durable: one sequential write-ahead-log
    /// append per record (§7.1's `fsync` path), batched and applied by the
    /// store.  A key with no record logs a durable *deletion*, so an
    /// unlink followed by a sync cannot resurrect after a crash.
    pub(crate) fn sys_persist_sync(
        &mut self,
        t: &Caller,
        keys: &[u64],
    ) -> Result<(), SyscallError> {
        for &key in keys {
            if !is_persist_key(key) {
                return Err(SyscallError::InvalidArgument(
                    "key outside the persist record namespace",
                ));
            }
            let (record, mut checks) = self.persist_record(key)?;
            match record {
                Some((rlabel, _)) => {
                    checks.check_record_modify(&t.label, key, &rlabel)?;
                    self.store_mut()?
                        .sync_object(key)
                        .map_err(|_| SyscallError::NoSuchRecord(key))?;
                }
                None => self.store_mut()?.sync_delete(key),
            }
        }
        Ok(())
    }

    /// Makes one kernel object durable in the single-level store: §7.1's
    /// `fsync`, for data living in the object heap.  Which version of an
    /// object survives a crash is state, so this is a write — the caller
    /// names the object through a container it can read and must pass the
    /// modify check on the object itself, exactly as for `segment_write`.
    ///
    /// With `pages` — 4 KiB pages of a *file*, i.e. of a segment's payload —
    /// only those bytes move: they are borrowed from the segment (past its
    /// written prefix, from the zero page) and flushed into its home
    /// record, where the payload starts one encoded prefix in.
    /// Whenever the store refuses that (no home record yet, the encoding
    /// changed length, a header field changed, a logged or staged version
    /// would mask the flush) and for every other sync, the whole object is
    /// encoded, stored and logged — inside a batch, into the batch's one
    /// group-commit frame.  Beyond the crossing and the two checks it
    /// charges nothing itself: the disk charges the writes and the flush.
    pub(crate) fn sys_obj_sync(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        pages: Option<Vec<u64>>,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        let id = entry.object;
        // The flush writes bytes it borrows from the object: the table and
        // the store are held at once, as the two disjoint fields they are.
        let obj = self
            .objects
            .get(&id)
            .ok_or(SyscallError::NoSuchObject(id))?;
        let store = self.store.as_mut().ok_or(SyscallError::NoStore)?;
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
        store.put(id.raw(), encode_object(obj));
        store
            .sync_object(id.raw())
            .map_err(|_| SyscallError::NoSuchObject(id))
    }

    /// The label a persist record carries.  Like `obj_get_label`, the
    /// label itself is metadata a caller needs in order to make labeling
    /// decisions (e.g. labeling new extents of an existing file), not
    /// protected content.
    // flowcheck: exempt(reads only the record's label, which is the metadata needed to decide labeling; payload stays sealed)
    pub(crate) fn sys_persist_get_label(
        &mut self,
        _t: &Caller,
        key: u64,
    ) -> Result<Label, SyscallError> {
        let (record, _) = self.persist_record(key)?;
        let (rlabel, _) = record.ok_or(SyscallError::NoSuchRecord(key))?;
        Ok(rlabel)
    }

    /// The label checks over this kernel's cache, counters and clock.
    fn label_checks(&mut self) -> LabelChecks<'_> {
        LabelChecks {
            cache: &mut self.label_cache,
            stats: &mut self.stats,
            cost: &self.cost,
            clock: self.clock.as_ref(),
        }
    }

    /// [`LabelChecks::count_label_check`] on this kernel.
    fn count_label_check(
        &mut self,
        ol: &Label,
        tl: &Label,
        immutable: bool,
        access: Access,
    ) -> bool {
        self.label_checks()
            .count_label_check(ol, tl, immutable, access)
    }

    /// [`LabelChecks::charge_label_check`] on this kernel.
    fn charge_label_check(&mut self, entries: usize, cached: bool) {
        self.label_checks().charge_label_check(entries, cached);
    }

    /// "No read up": may a thread labelled `tl` observe object `o`?
    fn check_observe(&mut self, tl: &Label, oid: ObjectId) -> Result<(), SyscallError> {
        let (olabel, immutable) = {
            let o = self.obj(oid)?;
            (
                o.header.label.clone(),
                o.header.object_type != ObjectType::Thread,
            )
        };
        if self.count_label_check(&olabel, tl, immutable, Access::Observe) {
            Ok(())
        } else {
            Err(SyscallError::CannotObserve(oid))
        }
    }

    /// "No write down": may a thread labelled `tl` modify object `o`?
    fn check_modify(&mut self, tl: &Label, oid: ObjectId) -> Result<(), SyscallError> {
        let (olabel, immutable_flag, otype) = {
            let o = self.obj(oid)?;
            (
                o.header.label.clone(),
                o.header.flags.immutable,
                o.header.object_type,
            )
        };
        if immutable_flag {
            return Err(SyscallError::Immutable(oid));
        }
        if self.count_label_check(&olabel, tl, otype != ObjectType::Thread, Access::Modify) {
            Ok(())
        } else {
            Err(SyscallError::CannotModify(oid))
        }
    }

    /// Verifies a container entry `⟨D, O⟩`: the thread must be able to read
    /// `D`, and `D` must hold a link to `O` (or `O == D`, since every
    /// container contains itself).
    fn check_entry(&mut self, tl: &Label, entry: ContainerEntry) -> Result<(), SyscallError> {
        self.check_observe(tl, entry.container)?;
        if entry.container == entry.object {
            // ⟨D, D⟩ is always valid once D is readable.
            self.container(entry.container)?;
            return Ok(());
        }
        let (_, cbody) = self.container(entry.container)?;
        if !cbody.contains(entry.object) {
            return Err(SyscallError::NotInContainer {
                container: entry.container,
                object: entry.object,
            });
        }
        Ok(())
    }

    /// Validates the label of a to-be-created object and the container it
    /// will live in, then inserts it, charging quota.
    #[allow(clippy::too_many_arguments)]
    fn create_object(
        &mut self,
        tl: &Label,
        tc: &Label,
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
        self.check_modify(tl, container)?;
        // ...and allocate at this label: L_T ⊑ L ⊑ C_T.
        tl.can_allocate(tc, &label)?;
        // The container hierarchy may forbid this object type.
        let (cheader, cbody) = self.container(container)?;
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
        self.objects.insert(id, KObject::new(header, body));

        // Charge the container.
        let (cheader, cbody) = self.container_mut(container)?;
        cheader.usage += quota;
        cbody.link(id);
        // New containers inherit the avoid mask and record their parent.
        if let Ok((_, c)) = self.container_mut(id) {
            c.parent = Some(container);
            c.avoid_types |= avoid;
        }
        self.stats.objects_created += 1;
        Ok(id)
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
        self.sched_mark_dirty(id);
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

    // ----- categories and thread labels (§3.1) --------------------------

    /// `cat_t create_category(void)`: allocates a fresh category, granting
    /// the calling thread ownership (`⋆`) and clearance `3` in it.
    // flowcheck: exempt(allocates a fresh category owned by the caller; touches only the caller's own label and clearance)
    pub(crate) fn sys_create_category(&mut self, t: &Caller) -> Result<Category, SyscallError> {
        let cat = self.categories.alloc();
        let (header, body) = self.thread_mut(t.tid)?;
        header.label = t.label.with(cat, Level::Star);
        body.clearance = t.clearance.with(cat, Level::L3);
        Ok(cat)
    }

    /// `self_set_label(L)`: sets the calling thread's label, subject to
    /// `L_T ⊑ L ⊑ C_T`.
    pub(crate) fn sys_self_set_label(
        &mut self,
        t: &Caller,
        new: Label,
    ) -> Result<(), SyscallError> {
        self.stats.label_checks += 2;
        self.charge_label_check(t.label.len() + new.len(), false);
        t.label.check_set_label(&t.clearance, &new)?;
        let (header, _) = self.thread_mut(t.tid)?;
        header.label = new;
        Ok(())
    }

    /// `self_set_clearance(C)`: sets the calling thread's clearance, subject
    /// to `L_T ⊑ C ⊑ (C_T ⊔ L_T^J)`.
    pub(crate) fn sys_self_set_clearance(
        &mut self,
        t: &Caller,
        new: Label,
    ) -> Result<(), SyscallError> {
        self.stats.label_checks += 2;
        self.charge_label_check(t.clearance.len() + new.len(), false);
        t.label.check_set_clearance(&t.clearance, &new)?;
        let (_, body) = self.thread_mut(t.tid)?;
        body.clearance = new;
        Ok(())
    }

    /// Returns the calling thread's own label.
    // flowcheck: exempt(returns the calling thread's own label; self-observation leaks nothing)
    pub(crate) fn sys_self_get_label(&mut self, t: &Caller) -> Result<Label, SyscallError> {
        Ok(t.label.clone())
    }

    /// Returns the calling thread's own clearance.
    // flowcheck: exempt(returns the calling thread's own clearance; self-observation leaks nothing)
    pub(crate) fn sys_self_get_clearance(&mut self, t: &Caller) -> Result<Label, SyscallError> {
        Ok(t.clearance.clone())
    }

    // ----- containers and quotas (§3.2, §3.3) ----------------------------

    /// `container_create(D, L, descrip, avoid_types, quota)`.
    pub(crate) fn sys_container_create(
        &mut self,
        t: &Caller,
        parent: ObjectId,
        label: Label,
        descrip: &str,
        avoid_types: u8,
        quota: u64,
    ) -> Result<ObjectId, SyscallError> {
        let body = ObjectBody::Container(ContainerBody::with_links(
            Vec::new(),
            Some(parent),
            avoid_types,
        ));
        self.create_object(&t.label, &t.clearance, parent, label, quota, descrip, body)
    }

    /// Unreferences an object from a container; the object is deallocated
    /// when its last link disappears (recursively for containers).
    pub(crate) fn sys_obj_unref(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        if entry.object == self.root {
            return Err(SyscallError::RootContainer);
        }
        self.check_modify(&t.label, entry.container)?;
        let quota = self.obj(entry.object)?.header.quota;
        let (cheader, cbody) = self.container_mut(entry.container)?;
        if !cbody.unlink(entry.object) {
            return Err(SyscallError::NotInContainer {
                container: entry.container,
                object: entry.object,
            });
        }
        cheader.usage = cheader.usage.saturating_sub(quota);
        let remaining = {
            let o = self.obj_mut(entry.object)?;
            o.header.links = o.header.links.saturating_sub(1);
            o.header.links
        };
        if remaining == 0 {
            self.dealloc(entry.object);
        }
        Ok(())
    }

    /// Adds an additional hard link to an object (`⟨D_src, O⟩` into `D_dst`).
    ///
    /// The thread must be able to write `D_dst`, its clearance must admit
    /// the object's label, and the object's quota must be fixed (§3.3).
    pub(crate) fn sys_hard_link(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        dst: ObjectId,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, dst)?;
        let (olabel, quota, fixed) = {
            let o = self.obj(entry.object)?;
            (
                o.header.label.clone(),
                o.header.quota,
                o.header.flags.fixed_quota,
            )
        };
        if !fixed {
            return Err(SyscallError::QuotaNotFixed(entry.object));
        }
        // Clearance must be high enough to allocate at the object's
        // label: L_S ⊑ C_T.
        self.stats.label_checks += 1;
        if !olabel.leq(&t.clearance) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }
        // Double-charge the object's quota to the destination container.
        let (dheader, dbody) = self.container_mut(dst)?;
        let available = dheader.quota_remaining();
        if available != QUOTA_INFINITE && quota > available {
            return Err(SyscallError::QuotaExceeded {
                container: dst,
                requested: quota,
                available,
            });
        }
        dheader.usage += quota;
        dbody.link(entry.object);
        self.obj_mut(entry.object)?.header.links += 1;
        Ok(())
    }

    /// Returns a container's spare quota (`quota - usage`), or `u64::MAX`
    /// for the root container.  Requires observe access, since the answer
    /// reveals information about the container's contents.
    pub(crate) fn sys_container_quota_avail(
        &mut self,
        t: &Caller,
        container: ObjectId,
    ) -> Result<u64, SyscallError> {
        self.check_observe(&t.label, container)?;
        let (header, _) = self.container(container)?;
        Ok(header.quota_remaining())
    }

    /// `container_get_parent(D)`: the parent container of `D`.
    pub(crate) fn sys_container_get_parent(
        &mut self,
        t: &Caller,
        container: ObjectId,
    ) -> Result<ObjectId, SyscallError> {
        self.check_observe(&t.label, container)?;
        let (_, body) = self.container(container)?;
        body.parent.ok_or(SyscallError::RootContainer)
    }

    /// Lists the object IDs linked into a container (requires read access).
    pub(crate) fn sys_container_list(
        &mut self,
        t: &Caller,
        container: ObjectId,
    ) -> Result<Vec<ObjectId>, SyscallError> {
        self.check_observe(&t.label, container)?;
        let (_, body) = self.container(container)?;
        Ok(body.links.clone())
    }

    /// `quota_move(D, O, n)`: moves `n` bytes of quota from container `D`
    /// to object `O` (or back, for negative `n`).
    pub(crate) fn sys_quota_move(
        &mut self,
        t: &Caller,
        container: ObjectId,
        object: ObjectId,
        n: i64,
    ) -> Result<(), SyscallError> {
        self.check_modify(&t.label, container)?;
        let (_, cbody) = self.container(container)?;
        if !cbody.contains(object) {
            return Err(SyscallError::NotInContainer { container, object });
        }
        // L_T ⊑ L_O ⊑ C_T.
        let olabel = self.obj(object)?.header.label.clone();
        self.stats.label_checks += 2;
        t.label.can_allocate(&t.clearance, &olabel)?;
        let (fixed, oquota, ousage) = {
            let o = self.obj(object)?;
            (o.header.flags.fixed_quota, o.header.quota, o.header.usage)
        };
        if fixed {
            return Err(SyscallError::QuotaFixed(object));
        }
        if n >= 0 {
            let n = n as u64;
            let (cheader, _) = self.container(container)?;
            let available = cheader.quota_remaining();
            if available != QUOTA_INFINITE && n > available {
                return Err(SyscallError::QuotaExceeded {
                    container,
                    requested: n,
                    available,
                });
            }
            self.obj_mut(object)?.header.quota = oquota.saturating_add(n);
            let c = self.obj_mut(container)?;
            if c.header.quota != QUOTA_INFINITE {
                c.header.usage += n;
            } else {
                c.header.usage = c.header.usage.saturating_add(n);
            }
        } else {
            let take = n.unsigned_abs();
            // Returning quota reveals whether O has |n| spare bytes, so
            // the caller must also be able to observe O.
            self.check_observe(&t.label, object)?;
            if oquota.saturating_sub(ousage) < take {
                return Err(SyscallError::QuotaUnderflow(object));
            }
            self.obj_mut(object)?.header.quota = oquota - take;
            let c = self.obj_mut(container)?;
            c.header.usage = c.header.usage.saturating_sub(take);
        }
        Ok(())
    }

    // ----- object metadata ------------------------------------------------

    /// Reads an object's label through a container entry.
    ///
    /// For non-thread objects, readability of the container suffices; for
    /// threads, the caller must additionally satisfy `L_{T'}^J ⊑ L_T^J`.
    pub(crate) fn sys_obj_get_label(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<Label, SyscallError> {
        self.check_entry(&t.label, entry)?;
        let o = self.obj(entry.object)?;
        let label = o.header.label.clone();
        if o.header.object_type == ObjectType::Thread {
            self.stats.label_checks += 1;
            if !label.leq_high_both(&t.label) {
                return Err(SyscallError::CannotObserve(entry.object));
            }
        }
        Ok(label)
    }

    /// Reads an object's 64-byte metadata area (requires observe).
    pub(crate) fn sys_obj_get_metadata(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<[u8; METADATA_LEN], SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_observe(&t.label, entry.object)?;
        Ok(self.obj(entry.object)?.header.metadata)
    }

    /// Writes an object's 64-byte metadata area (requires modify).
    pub(crate) fn sys_obj_set_metadata(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        metadata: [u8; METADATA_LEN],
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        self.obj_mut(entry.object)?.header.metadata = metadata;
        Ok(())
    }

    /// Irrevocably marks an object immutable (requires modify first).
    pub(crate) fn sys_obj_set_immutable(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        self.obj_mut(entry.object)?.header.flags.immutable = true;
        Ok(())
    }

    /// Irrevocably fixes an object's quota so it may be hard-linked into
    /// additional containers.
    pub(crate) fn sys_obj_set_fixed_quota(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        self.obj_mut(entry.object)?.header.flags.fixed_quota = true;
        Ok(())
    }

    // ----- segments --------------------------------------------------------

    /// Creates a segment of `len` zero bytes in `container`.
    pub(crate) fn sys_segment_create(
        &mut self,
        t: &Caller,
        container: ObjectId,
        label: Label,
        len: u64,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let quota = len
            .max(1)
            .checked_next_multiple_of(PAGE_SIZE)
            .ok_or(SyscallError::InvalidArgument("segment length out of range"))?;
        // The body is demand-zero: a refused create allocates nothing.
        let body = ObjectBody::Segment(SegmentBody::zeroed(len as usize));
        let id = self.create_object(
            &t.label,
            &t.clearance,
            container,
            label,
            quota,
            descrip,
            body,
        )?;
        // Zeroing freshly allocated pages is charged explicitly; HiStar has
        // no pre-zeroed page pool (§7.1).
        let zero_cost = self.cost.page_zero * len.div_ceil(PAGE_SIZE);
        self.charge(zero_cost);
        Ok(id)
    }

    /// Resizes a segment (zero-filling growth), within its quota.
    pub(crate) fn sys_segment_resize(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        len: u64,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        let (header, s) = self.segment_mut(entry.object)?;
        if len > header.quota {
            return Err(SyscallError::QuotaExceeded {
                container: entry.container,
                requested: len,
                available: header.quota,
            });
        }
        let grow_pages = len.saturating_sub(s.len() as u64).div_ceil(PAGE_SIZE);
        s.resize(len as usize);
        header.usage = len;
        let zero_cost = self.cost.page_zero * grow_pages;
        self.charge(zero_cost);
        Ok(())
    }

    /// Reads bytes from a segment (models a load through a mapping; the same
    /// label checks as a read page fault apply).
    pub(crate) fn sys_segment_read(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_observe(&t.label, entry.object)?;
        let (_, s) = self.segment(entry.object)?;
        let end = offset
            .checked_add(len)
            .filter(|end| *end <= s.len() as u64)
            .ok_or(SyscallError::InvalidArgument("read beyond end of segment"))?;
        let bytes = s.range(offset as usize, end as usize).into_owned();
        // Charged once the read is known to happen: a refused length
        // moves no clock.
        let copy_cost = self.cost.copy(len);
        self.charge(copy_cost);
        Ok(bytes)
    }

    /// Writes bytes into a segment (models a store through a mapping).
    pub(crate) fn sys_segment_write(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        offset: u64,
        data: &[u8],
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        let copy_cost = self.cost.copy(data.len() as u64);
        self.charge(copy_cost);
        let (header, s) = self.segment_mut(entry.object)?;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(SyscallError::InvalidArgument("write offset overflows"))?;
        if end > header.quota {
            return Err(SyscallError::QuotaExceeded {
                container: entry.container,
                requested: end,
                available: header.quota,
            });
        }
        if end as usize > s.len() {
            header.usage = end;
        }
        s.write(offset as usize, data);
        // Readiness: wake anyone parked waiting for this segment to make
        // progress (blocked pipe/socket readers and pollers).
        let watchers = std::mem::take(&mut self.obj_mut(entry.object)?.watchers);
        self.notify_watchers(entry.object, watchers);
        Ok(())
    }

    /// Returns the length of a segment (requires observe).
    pub(crate) fn sys_segment_len(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<u64, SyscallError> {
        self.check_entry(&t.label, entry)?;
        self.check_observe(&t.label, entry.object)?;
        Ok(self.segment(entry.object)?.1.len() as u64)
    }

    /// Copies a segment into `dst_container` under a (possibly different)
    /// label — the "efficient copies with different labels" of §3, used for
    /// taint-forking address spaces and segments.
    pub(crate) fn sys_segment_copy(
        &mut self,
        t: &Caller,
        src: ContainerEntry,
        dst_container: ObjectId,
        label: Label,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        self.check_entry(&t.label, src)?;
        self.check_observe(&t.label, src.object)?;
        let body = self.segment(src.object)?.1.clone();
        let len = body.len() as u64;
        let copy_cost = self.cost.page_copy * len.div_ceil(PAGE_SIZE);
        self.charge(copy_cost);
        let quota = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let body = ObjectBody::Segment(body);
        self.create_object(
            &t.label,
            &t.clearance,
            dst_container,
            label,
            quota,
            descrip,
            body,
        )
    }

    // ----- address spaces (§3.4) -------------------------------------------

    /// Creates an empty address space.
    pub(crate) fn sys_as_create(
        &mut self,
        t: &Caller,
        container: ObjectId,
        label: Label,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let body = ObjectBody::AddressSpace(AddressSpaceBody::default());
        self.create_object(
            &t.label,
            &t.clearance,
            container,
            label,
            PAGE_SIZE,
            descrip,
            body,
        )
    }

    /// Adds (or replaces) a mapping in an address space.
    pub(crate) fn sys_as_map(
        &mut self,
        t: &Caller,
        aspace: ContainerEntry,
        mapping: Mapping,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, aspace)?;
        self.check_modify(&t.label, aspace.object)?;
        if !mapping.va.is_multiple_of(PAGE_SIZE) {
            return Err(SyscallError::InvalidArgument("va must be page-aligned"));
        }
        self.address_space_mut(aspace.object)?.1.map(mapping);
        Ok(())
    }

    /// `self_set_as`: switches the calling thread to a different address
    /// space.
    pub(crate) fn sys_self_set_as(
        &mut self,
        t: &Caller,
        aspace: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, aspace)?;
        // Using an address space requires observing it.
        self.check_observe(&t.label, aspace.object)?;
        self.address_space(aspace.object)?;
        self.account_context_switch(Some(aspace));
        let (_, body) = self.thread_mut(t.tid)?;
        body.address_space = Some(aspace);
        Ok(())
    }

    fn account_context_switch(&mut self, new_as: Option<ContainerEntry>) {
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

    // ----- threads ---------------------------------------------------------

    /// Creates a new thread in `container` with the given label and
    /// clearance, subject to `L_T ⊑ L_{T'} ⊑ C_{T'} ⊑ C_T`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_thread_create(
        &mut self,
        t: &Caller,
        container: ObjectId,
        label: Label,
        clearance: Label,
        entry_point: u64,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        self.stats.label_checks += 3;
        t.label.check_spawn(&t.clearance, &label, &clearance)?;
        let mut thread_body = ThreadBody::new(clearance);
        thread_body.entry_point = entry_point;
        // Inherit the parent's address space by default.
        thread_body.address_space = self.thread(t.tid)?.1.address_space;
        self.create_object(
            &t.label,
            &t.clearance,
            container,
            label,
            PAGE_SIZE,
            descrip,
            ObjectBody::Thread(thread_body),
        )
    }

    /// Bootstrap path: creates the first thread of the machine without a
    /// calling thread.  Only the machine boot code uses this.
    pub fn bootstrap_thread(
        &mut self,
        container: ObjectId,
        label: Label,
        clearance: Label,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let id = self.fresh_id();
        let mut header = ObjectHeader::new(id, ObjectType::Thread, label, PAGE_SIZE, descrip);
        header.links = 1;
        let body = ObjectBody::Thread(ThreadBody::new(clearance));
        self.objects.insert(id, KObject::new(header, body));
        // Link it into the container and charge quota.
        let (cheader, cbody) = self.container_mut(container)?;
        cheader.usage += PAGE_SIZE;
        cbody.link(id);
        self.stats.objects_created += 1;
        Ok(id)
    }

    /// Halts the calling thread; it can never run (or make syscalls) again.
    // flowcheck: exempt(halts the calling thread itself; a thread may always give up its own CPU)
    pub(crate) fn sys_self_halt(&mut self, t: &Caller) -> Result<(), SyscallError> {
        let (_, body) = self.thread_mut(t.tid)?;
        body.state = ThreadState::Halted;
        Ok(())
    }

    /// Sends an alert to another thread: the caller must be able to write
    /// the target's address space and observe the target (§3.4).
    pub(crate) fn sys_thread_alert(
        &mut self,
        t: &Caller,
        target: ContainerEntry,
        code: u64,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, target)?;
        let target_as = {
            let (_, tbody) = self.thread(target.object)?;
            tbody.address_space
        };
        if let Some(aspace) = target_as {
            self.check_modify(&t.label, aspace.object)?;
        } else {
            return Err(SyscallError::InvalidArgument(
                "target thread has no address space",
            ));
        }
        // The alert also lets the target learn something about the
        // sender, so the sender must be allowed to convey information to
        // it: L_T ⊑ L_{T'}^J.
        let target_label = self.obj(target.object)?.header.label.clone();
        self.stats.label_checks += 1;
        if !t.label.leq_high_rhs(&target_label) {
            return Err(SyscallError::CannotModify(target.object));
        }
        let (_, body) = self.thread_mut(target.object)?;
        body.pending_alerts.push(Alert { code });
        // The alert is also announced on the target's completion
        // queue, so a thread blocked on an empty queue wakes without
        // polling `self_take_alert` every quantum.
        self.push_completion(target.object, Completion::AlertPending { code });
        Ok(())
    }

    /// Removes and returns the oldest pending alert for the calling thread.
    // flowcheck: exempt(pops the caller's own alert queue; alerts were label-checked when posted by thread_alert)
    pub(crate) fn sys_self_take_alert(
        &mut self,
        t: &Caller,
    ) -> Result<Option<Alert>, SyscallError> {
        let (_, body) = self.thread_mut(t.tid)?;
        if body.pending_alerts.is_empty() {
            Ok(None)
        } else {
            let alert = body.pending_alerts.remove(0);
            // The alert's completion-queue notification is consumed with
            // it; a stale notification would re-wake a blocked thread
            // forever (the busy-poll the completion queue exists to avoid).
            let q = &mut body.runtime.completions;
            if let Some(i) = q
                .iter()
                .position(|c| matches!(c, Completion::AlertPending { .. }))
            {
                q.remove(i);
            }
            Ok(Some(alert))
        }
    }

    /// Reads another thread's label, subject to `L_{T'}^J ⊑ L_T^J`.
    pub(crate) fn sys_thread_get_label(
        &mut self,
        t: &Caller,
        target: ContainerEntry,
    ) -> Result<Label, SyscallError> {
        self.sys_obj_get_label(t, target)
    }

    // ----- gates (§3.5) ------------------------------------------------------

    /// Creates a gate.  The gate's label (which may contain `⋆`) and
    /// clearance must satisfy `L_T ⊑ L_G ⊑ C_G ⊑ C_T`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_gate_create(
        &mut self,
        t: &Caller,
        container: ObjectId,
        label: Label,
        clearance: Label,
        address_space: Option<ContainerEntry>,
        entry_point: u64,
        closure_args: Vec<u64>,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        self.stats.label_checks += 3;
        if !t.label.leq(&label) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelNotMonotonic,
            ));
        }
        if !label.leq(&clearance) {
            return Err(SyscallError::Label(
                histar_label::LabelError::ClearanceBelowLabel,
            ));
        }
        if !clearance.leq(&t.clearance) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }
        let mut gate = GateBody::new(clearance, entry_point);
        gate.address_space = address_space;
        gate.closure_args = closure_args;
        self.create_object(
            &t.label,
            &t.clearance,
            container,
            label,
            PAGE_SIZE,
            descrip,
            ObjectBody::Gate(gate),
        )
    }

    /// Invokes a gate.  The calling thread specifies the label `requested`
    /// and clearance `requested_clearance` it wants on entry, plus a verify
    /// label used only to prove category possession to the gate's code.
    ///
    /// Permitted when `L_T ⊑ C_G`, `L_T ⊑ L_V`, and
    /// `(L_T^J ⊔ L_G^J)^⋆ ⊑ L_R ⊑ C_R ⊑ (C_T ⊔ C_G)`.
    pub(crate) fn sys_gate_enter(
        &mut self,
        t: &Caller,
        gate: ContainerEntry,
        requested: Label,
        requested_clearance: Label,
        verify: Label,
    ) -> Result<GateEntryResult, SyscallError> {
        self.check_entry(&t.label, gate)?;
        let (glabel, gclearance, gbody) = {
            let (header, g) = self.gate(gate.object)?;
            (header.label.clone(), g.clearance.clone(), g.clone())
        };
        self.stats.label_checks += 5;
        self.charge_label_check(t.label.len() + glabel.len(), false);
        if !t.label.leq(&gclearance) {
            return Err(SyscallError::GateClearance(gate.object));
        }
        if !t.label.leq(&verify) {
            return Err(SyscallError::VerifyLabel);
        }
        let floor = t.label.ownership_union(&glabel);
        if !floor.leq(&requested) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelNotMonotonic,
            ));
        }
        if !requested.leq(&requested_clearance) {
            return Err(SyscallError::Label(
                histar_label::LabelError::ClearanceBelowLabel,
            ));
        }
        let clearance_bound = t.clearance.lub(&gclearance);
        if !requested_clearance.leq(&clearance_bound) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }

        self.stats.gate_invocations += 1;
        let gate_cost = self.cost.gate_overhead;
        self.charge(gate_cost);
        self.account_context_switch(gbody.address_space);

        {
            let (header, body) = self.thread_mut(t.tid)?;
            header.label = requested.clone();
            body.clearance = requested_clearance.clone();
            if gbody.address_space.is_some() {
                body.address_space = gbody.address_space;
            }
            body.entry_point = gbody.entry_point;
        }
        Ok(GateEntryResult {
            label: requested,
            clearance: requested_clearance,
            address_space: gbody.address_space,
            entry_point: gbody.entry_point,
            stack_pointer: gbody.stack_pointer,
            closure_args: gbody.closure_args,
        })
    }

    /// Reads a gate's clearance (for callers deciding how to invoke it).
    pub(crate) fn sys_gate_clearance(
        &mut self,
        t: &Caller,
        gate: ContainerEntry,
    ) -> Result<Label, SyscallError> {
        self.check_entry(&t.label, gate)?;
        Ok(self.gate(gate.object)?.1.clearance.clone())
    }

    // ----- devices (§4, §5.7) ------------------------------------------------

    /// Bootstrap path: creates a device object directly in a container.
    /// Only machine boot code uses this (devices are discovered by the
    /// kernel, not created by threads).
    pub fn boot_create_device(
        &mut self,
        container: ObjectId,
        label: Label,
        body: DeviceBody,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let id = self.fresh_id();
        let mut header = ObjectHeader::new(id, ObjectType::Device, label, PAGE_SIZE, descrip);
        header.links = 1;
        self.objects
            .insert(id, KObject::new(header, ObjectBody::Device(body)));
        let (cheader, cbody) = self.container_mut(container)?;
        cheader.usage += PAGE_SIZE;
        cbody.link(id);
        self.stats.objects_created += 1;
        Ok(id)
    }

    /// Queues a frame for transmission (requires modify on the device).
    pub(crate) fn sys_net_transmit(
        &mut self,
        t: &Caller,
        device: ContainerEntry,
        frame: Vec<u8>,
    ) -> Result<(), SyscallError> {
        self.check_entry(&t.label, device)?;
        self.check_modify(&t.label, device.object)?;
        self.device_mut(device.object)?.1.tx_queue.push(frame);
        Ok(())
    }

    /// Takes the next received frame, if any (requires modify on the device,
    /// since consuming a frame changes its state).
    pub(crate) fn sys_net_receive(
        &mut self,
        t: &Caller,
        device: ContainerEntry,
    ) -> Result<Option<Vec<u8>>, SyscallError> {
        self.check_entry(&t.label, device)?;
        self.check_modify(&t.label, device.object)?;
        let (_, d) = self.device_mut(device.object)?;
        if d.rx_queue.is_empty() {
            Ok(None)
        } else {
            Ok(Some(d.rx_queue.remove(0)))
        }
    }

    /// Simulation hook (not a system call): delivers a frame "from the
    /// wire" into a device's receive queue.
    pub fn device_inject_rx(
        &mut self,
        device: ObjectId,
        frame: Vec<u8>,
    ) -> Result<(), SyscallError> {
        self.device_mut(device)?.1.rx_queue.push(frame);
        Ok(())
    }

    /// Simulation hook (not a system call): drains frames the machine has
    /// transmitted, as the physical wire would.
    pub fn device_drain_tx(&mut self, device: ObjectId) -> Result<Vec<Vec<u8>>, SyscallError> {
        Ok(std::mem::take(&mut self.device_mut(device)?.1.tx_queue))
    }

    // ----- introspection used by the store / machine -------------------------

    /// Iterates over all objects (used by snapshotting).
    pub fn objects(&self) -> impl Iterator<Item = (&ObjectId, &KObject)> {
        // flowcheck: exempt(hot object table stays a HashMap; every consumer sorts by id before order becomes visible — see Machine::snapshot)
        self.objects.iter()
    }

    /// Looks up an object directly (kernel-internal / persistence).
    pub fn raw_object(&self, id: ObjectId) -> Option<&KObject> {
        self.objects.get(&id)
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
        self.objects = objects.into_iter().collect();
        self.root = root;
        self.id_counter = id_counter;
        self.id_cipher = FeistelCipher::new(seed ^ 0xbeef);
        self.categories = CategoryAllocator::resume(seed ^ 0xcafe, category_counter);
    }

    /// Counters needed to persist allocator state across snapshots.
    pub fn allocator_counters(&self) -> (u64, u64) {
        (self.id_counter, self.categories.allocated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boots a bare kernel with one unrestricted thread in the root
    /// container and returns `(kernel, thread id)`.
    fn boot() -> (Kernel, ObjectId) {
        let mut k = Kernel::new(42, None);
        let root = k.root_container();
        let tid = k
            .bootstrap_thread(
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                "init",
            )
            .unwrap();
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
