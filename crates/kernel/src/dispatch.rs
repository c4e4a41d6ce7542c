//! Trap-style system-call dispatch: the single choke point between user
//! code and the kernel.
//!
//! Real HiStar threads reach the kernel through one trap instruction; every
//! call crosses the same boundary, where it can be checked, counted and
//! audited.  This module reproduces that boundary for the simulated kernel:
//! a [`Syscall`] value names one of the system calls ([`SYSCALL_COUNT`] of
//! them) together with its arguments, and `dispatch_one` is the only place
//! where the value is decoded and executed.  It is also the only place the
//! protocol of a call is spelled: charge the boundary crossing and count
//! the call, find the calling thread (once) and refuse a missing or halted
//! one, run the row's `sys_*` handler, count a failure — in
//! [`SyscallStats`](crate::syscall::SyscallStats) and per row in
//! [`DispatchStats`], together — and, when tracing is enabled, append a
//! [`TraceRecord`] to a bounded ring buffer, giving the machine a
//! replayable `(tick, thread, syscall, result)` audit stream.  The
//! handlers are crate-private bodies with no prologue of their own, so
//! that stream is the kernel's whole input: no call arrives off it.  That
//! includes durability: the store is written from above the kernel only
//! by the `persist_*` rows and `obj_sync` (`Kernel::store_mut` and
//! `take_store` are crate-private), so what a crash preserves is a
//! function of the stream too — the [`Machine`](crate::Machine)'s
//! `snapshot` being the one operator action beside it.
//!
//! The `trap_*` methods are the user-level calling convention: thin typed
//! wrappers that build the [`Syscall`] value, trap through
//! [`Kernel::dispatch`], and unwrap the typed [`SyscallResult`].  Every
//! layer above the kernel (`histar-unix`, `histar-auth`, `histar-apps`,
//! `histar-net`, `histar-exporter`) and every test uses these.
//!
//! The ABI is spelled once, in the `syscalls!` table below: the [`Syscall`]
//! enum, [`SYSCALL_NAMES`], the dispatch arms and every `trap_*` wrapper are
//! expanded from its rows.

use crate::bodies::{Alert, Mapping};
use crate::kernel::{Caller, GateEntryResult, Kernel, Sys};
use crate::object::{ContainerEntry, ObjectId, METADATA_LEN};
use crate::syscall::SyscallError;
use histar_label::{Category, Label};
use histar_obs::{Histogram, Span};
use std::collections::VecDeque;

/// Expands the syscall table below into everything that has to agree about
/// the ABI: the [`Syscall`] enum, [`SYSCALL_NAMES`] / [`SYSCALL_COUNT`],
/// [`Syscall::index`], `Sys::dispatch_inner`, and every
/// `Kernel::trap_*` wrapper.
///
/// Row grammar:
///
/// ```text
/// /// doc
/// Variant name sys_name trap_name (arg: Ty, arg: Borrowed => Owned, …) -> Result(RetTy);
/// ```
///
/// * `Variant` is the [`Syscall`] variant, `name` the stable string in
///   traces and stats, `sys_name` the hand-written handler — a method of
///   `Sys` in `syscalls.rs`, which reaches objects only through the proofs
///   its label checks return — and `trap_name` the generated wrapper
///   (flowcheck checks the three spellings agree; `macro_rules!` cannot
///   paste identifiers).
/// * A row without an argument list is a *unit* variant.  Each argument is
///   a documented variant field.  `arg: B => O` means the wrapper takes
///   `B` (`&str`, `&[u8]`), the variant owns an `O` built with `O::from`,
///   and the handler borrows it back as `&O`; plain arguments move through
///   unchanged.
/// * `Result` is the [`SyscallResult`] variant carrying the handler's
///   `RetTy` (`Unit(())` for calls that return nothing).
///
/// The row position is the call's ABI index.
macro_rules! syscalls {
    (@owned $ty:ty) => { $ty };
    (@owned $ty:ty, $owned:ty) => { $owned };
    (@lend $arg:ident) => { $arg };
    (@lend $arg:ident, $owned:ty) => { &$arg };
    (@wrap Unit) => { |()| SyscallResult::Unit };
    (@wrap $Res:ident) => { SyscallResult::$Res };
    (@unwrap Unit, $result:expr, $mismatch:expr) => {
        match $result {
            SyscallResult::Unit => Ok(()),
            _ => $mismatch,
        }
    };
    (@unwrap $Res:ident, $result:expr, $mismatch:expr) => {
        match $result {
            SyscallResult::$Res(value) => Ok(value),
            _ => $mismatch,
        }
    };
    ($(
        $(#[$doc:meta])*
        $Variant:ident $name:ident $sys:ident $trap:ident
        $(( $( $(#[$arg_doc:meta])* $arg:ident : $ty:ty $(=> $owned:ty)? ),+ $(,)? ))?
        -> $Res:ident ( $ret:ty );
    )*) => {
        /// One system call with its arguments — what a real thread would
        /// place in registers before trapping.
        ///
        /// Every variant corresponds 1:1 to a `sys_*` handler in `syscalls.rs`;
        /// the calling thread is supplied separately to [`Kernel::dispatch`].
        #[derive(Clone, Debug, PartialEq)]
        pub enum Syscall {$(
            $(#[$doc])*
            $Variant $({$(
                $(#[$arg_doc])*
                $arg: syscalls!(@owned $ty $(, $owned)?),
            )+})?,
        )*}

        /// The table's rows as plain discriminants: `Row::X as usize` is
        /// `X`'s position in the table.
        enum Row {$($Variant,)*}

        /// Number of distinct system calls in the ABI.
        pub const SYSCALL_COUNT: usize = [$(Row::$Variant as usize),*].len();

        /// The names of all system calls, indexed by [`Syscall::index`].
        pub const SYSCALL_NAMES: [&str; SYSCALL_COUNT] = [$(stringify!($name)),*];

        impl Syscall {
            /// The call's index into [`SYSCALL_NAMES`] and the per-syscall
            /// stats.
            pub fn index(&self) -> usize {
                match self {$(
                    Syscall::$Variant { .. } => Row::$Variant as usize,
                )*}
            }

            /// The call's name (stable, used in traces and stats dumps).
            pub fn name(&self) -> &'static str {
                SYSCALL_NAMES[self.index()]
            }
        }

        impl Sys {
            fn dispatch_inner(
                &mut self,
                caller: &Caller,
                call: Syscall,
            ) -> Result<SyscallResult, SyscallError> {
                match call {$(
                    Syscall::$Variant $({ $($arg),+ })? => self
                        .$sys(caller $($(, syscalls!(@lend $arg $(, $owned)?))+)?)
                        .map(syscalls!(@wrap $Res)),
                )*}
            }
        }

        /// The `trap_*` calling convention: typed wrappers over
        /// [`Kernel::dispatch`].
        ///
        /// Each method takes the calling thread's id and the row's
        /// arguments; the call crosses the dispatch boundary, so it is
        /// charged, counted and traced.
        impl Kernel {$(
            #[doc = concat!("Traps `", stringify!($sys), "`.")]
            #[allow(clippy::too_many_arguments)]
            pub fn $trap(
                &mut self,
                tid: ObjectId
                $($(, $arg: $ty)+)?
            ) -> Result<$ret, SyscallError> {
                let call = Syscall::$Variant $({ $($arg $(: <$owned>::from($arg))?),+ })?;
                // The `dispatch_inner` arm expanded from this same row maps
                // `$sys`'s value into `SyscallResult::$Res`, so a successful
                // dispatch of `$Variant` returns no other variant.
                syscalls!(
                    @unwrap $Res,
                    self.dispatch(tid, call)?,
                    unreachable!("dispatch result variant mismatch")
                )
            }
        )*}
    };
}

// The syscall table: the one list of the ABI.  Adding a syscall is one row
// here plus its `sys_*` handler in `syscalls.rs`; the row grammar is
// documented on `syscalls!` above.
syscalls! {
    /// `sys_create_category`.
    CreateCategory create_category sys_create_category trap_create_category -> Category(Category);
    /// `sys_self_set_label`.
    SelfSetLabel self_set_label sys_self_set_label trap_self_set_label (
        /// The requested new thread label.
        label: Label,
    ) -> Unit(());
    /// `sys_self_set_clearance`.
    SelfSetClearance self_set_clearance sys_self_set_clearance trap_self_set_clearance (
        /// The requested new clearance.
        clearance: Label,
    ) -> Unit(());
    /// `sys_self_get_label`.
    SelfGetLabel self_get_label sys_self_get_label trap_self_get_label -> Label(Label);
    /// `sys_self_get_clearance`.
    SelfGetClearance self_get_clearance sys_self_get_clearance trap_self_get_clearance
        -> Label(Label);
    /// `sys_container_create`.
    ContainerCreate container_create sys_container_create trap_container_create (
        /// Parent container.
        parent: ObjectId,
        /// Label of the new container.
        label: Label,
        /// Descriptive string.
        descrip: &str => String,
        /// Object-type mask forbidden under the new container.
        avoid_types: u8,
        /// Quota charged to the parent.
        quota: u64,
    ) -> ObjectId(ObjectId);
    /// `sys_obj_unref`.
    ObjUnref obj_unref sys_obj_unref trap_obj_unref (
        /// The container entry to unlink.
        entry: ContainerEntry,
    ) -> Unit(());
    /// `sys_hard_link`.
    HardLink hard_link sys_hard_link trap_hard_link (
        /// Source container entry.
        entry: ContainerEntry,
        /// Destination container.
        dst: ObjectId,
    ) -> Unit(());
    /// `sys_container_quota_avail`.
    ContainerQuotaAvail container_quota_avail sys_container_quota_avail trap_container_quota_avail (
        /// The container to query.
        container: ObjectId,
    ) -> U64(u64);
    /// `sys_container_get_parent`.
    ContainerGetParent container_get_parent sys_container_get_parent trap_container_get_parent (
        /// The container to query.
        container: ObjectId,
    ) -> ObjectId(ObjectId);
    /// `sys_container_list`.
    ContainerList container_list sys_container_list trap_container_list (
        /// The container to list.
        container: ObjectId,
    ) -> ObjectIds(Vec<ObjectId>);
    /// `sys_quota_move`.
    QuotaMove quota_move sys_quota_move trap_quota_move (
        /// The container quota moves out of (or back into).
        container: ObjectId,
        /// The object quota moves into (or out of).
        object: ObjectId,
        /// Bytes to move (negative moves quota back to the container).
        delta: i64,
    ) -> Unit(());
    /// `sys_obj_get_label`.
    ObjGetLabel obj_get_label sys_obj_get_label trap_obj_get_label (
        /// The object, named through a container entry.
        entry: ContainerEntry,
    ) -> Label(Label);
    /// `sys_obj_get_metadata`.
    ObjGetMetadata obj_get_metadata sys_obj_get_metadata trap_obj_get_metadata (
        /// The object, named through a container entry.
        entry: ContainerEntry,
    ) -> Metadata([u8; METADATA_LEN]);
    /// `sys_obj_set_metadata`.
    ObjSetMetadata obj_set_metadata sys_obj_set_metadata trap_obj_set_metadata (
        /// The object, named through a container entry.
        entry: ContainerEntry,
        /// The new 64-byte metadata area.
        metadata: [u8; METADATA_LEN],
    ) -> Unit(());
    /// `sys_obj_set_immutable`.
    ObjSetImmutable obj_set_immutable sys_obj_set_immutable trap_obj_set_immutable (
        /// The object, named through a container entry.
        entry: ContainerEntry,
    ) -> Unit(());
    /// `sys_obj_set_fixed_quota`.
    ObjSetFixedQuota obj_set_fixed_quota sys_obj_set_fixed_quota trap_obj_set_fixed_quota (
        /// The object, named through a container entry.
        entry: ContainerEntry,
    ) -> Unit(());
    /// `sys_segment_create`.
    SegmentCreate segment_create sys_segment_create trap_segment_create (
        /// The container the segment is created in.
        container: ObjectId,
        /// The segment's label.
        label: Label,
        /// Initial length in bytes.
        len: u64,
        /// Descriptive string.
        descrip: &str => String,
    ) -> ObjectId(ObjectId);
    /// `sys_segment_resize`.
    SegmentResize segment_resize sys_segment_resize trap_segment_resize (
        /// The segment, named through a container entry.
        entry: ContainerEntry,
        /// The new length.
        len: u64,
    ) -> Unit(());
    /// `sys_segment_read`.
    SegmentRead segment_read sys_segment_read trap_segment_read (
        /// The segment, named through a container entry.
        entry: ContainerEntry,
        /// Byte offset of the read.
        offset: u64,
        /// Bytes to read.
        len: u64,
    ) -> Bytes(Vec<u8>);
    /// `sys_segment_write`.
    SegmentWrite segment_write sys_segment_write trap_segment_write (
        /// The segment, named through a container entry.
        entry: ContainerEntry,
        /// Byte offset of the write.
        offset: u64,
        /// The bytes to write.
        data: &[u8] => Vec<u8>,
    ) -> Unit(());
    /// `sys_segment_len`.
    SegmentLen segment_len sys_segment_len trap_segment_len (
        /// The segment, named through a container entry.
        entry: ContainerEntry,
    ) -> U64(u64);
    /// `sys_segment_copy`.
    SegmentCopy segment_copy sys_segment_copy trap_segment_copy (
        /// Source segment.
        src: ContainerEntry,
        /// Destination container.
        dst_container: ObjectId,
        /// Label of the copy.
        label: Label,
        /// Descriptive string.
        descrip: &str => String,
    ) -> ObjectId(ObjectId);
    /// `sys_as_create`.
    AsCreate as_create sys_as_create trap_as_create (
        /// The container the address space is created in.
        container: ObjectId,
        /// The address space's label.
        label: Label,
        /// Descriptive string.
        descrip: &str => String,
    ) -> ObjectId(ObjectId);
    /// `sys_as_map`.
    AsMap as_map sys_as_map trap_as_map (
        /// The address space, named through a container entry.
        aspace: ContainerEntry,
        /// The mapping to insert or replace.
        mapping: Mapping,
    ) -> Unit(());
    /// `sys_self_set_as`.
    SelfSetAs self_set_as sys_self_set_as trap_self_set_as (
        /// The address space to switch to.
        aspace: ContainerEntry,
    ) -> Unit(());
    /// `sys_thread_create`.
    ThreadCreate thread_create sys_thread_create trap_thread_create (
        /// The container the thread is created in.
        container: ObjectId,
        /// The new thread's label.
        label: Label,
        /// The new thread's clearance.
        clearance: Label,
        /// Abstract entry point.
        entry_point: u64,
        /// Descriptive string.
        descrip: &str => String,
    ) -> ObjectId(ObjectId);
    /// `sys_self_halt`.
    SelfHalt self_halt sys_self_halt trap_self_halt -> Unit(());
    /// `sys_thread_alert`.
    ThreadAlert thread_alert sys_thread_alert trap_thread_alert (
        /// The target thread, named through a container entry.
        target: ContainerEntry,
        /// The alert code (Unix signal number, for the library).
        code: u64,
    ) -> Unit(());
    /// `sys_self_take_alert`.
    SelfTakeAlert self_take_alert sys_self_take_alert trap_self_take_alert -> Alert(Option<Alert>);
    /// `sys_thread_get_label`.
    ThreadGetLabel thread_get_label sys_thread_get_label trap_thread_get_label (
        /// The target thread, named through a container entry.
        target: ContainerEntry,
    ) -> Label(Label);
    /// `sys_gate_create`.
    GateCreate gate_create sys_gate_create trap_gate_create (
        /// The container the gate is created in.
        container: ObjectId,
        /// The gate's label (may contain `⋆`).
        label: Label,
        /// The gate's clearance.
        clearance: Label,
        /// Address space entering threads switch to, if any.
        address_space: Option<ContainerEntry>,
        /// Entry point for entering threads.
        entry_point: u64,
        /// Closure arguments passed to the entry point.
        closure_args: Vec<u64>,
        /// Descriptive string.
        descrip: &str => String,
    ) -> ObjectId(ObjectId);
    /// `sys_gate_enter`.
    GateEnter gate_enter sys_gate_enter trap_gate_enter (
        /// The gate to invoke.
        gate: ContainerEntry,
        /// The label the thread requests on entry.
        requested: Label,
        /// The clearance the thread requests on entry.
        requested_clearance: Label,
        /// The verify label proving category possession to the gate code.
        verify: Label,
    ) -> GateEntry(GateEntryResult);
    /// `sys_gate_clearance`.
    GateClearance gate_clearance sys_gate_clearance trap_gate_clearance (
        /// The gate to query.
        gate: ContainerEntry,
    ) -> Label(Label);
    /// `sys_net_transmit`.
    NetTransmit net_transmit sys_net_transmit trap_net_transmit (
        /// The device, named through a container entry.
        device: ContainerEntry,
        /// The frame to queue for transmission.
        frame: Vec<u8>,
    ) -> Unit(());
    /// `sys_net_receive`.
    NetReceive net_receive sys_net_receive trap_net_receive (
        /// The device, named through a container entry.
        device: ContainerEntry,
    ) -> Frame(Option<Vec<u8>>);
    /// `sys_persist_put`: create or update a labeled record in the
    /// single-level store's persist namespace.
    PersistPut persist_put sys_persist_put trap_persist_put (
        /// The record key (must lie in the persist namespace).
        key: u64,
        /// Label for a newly created record.  A record's label is
        /// immutable, like any non-thread kernel object's: for an
        /// existing record it may be omitted, and one that differs is
        /// refused with `InvalidArgument` (after the modify check).
        label: Option<Label>,
        /// Byte offset of the write within the record payload.
        offset: u64,
        /// The bytes to write.
        data: &[u8] => Vec<u8>,
    ) -> Unit(());
    /// `sys_persist_read`: read bytes out of a persist record.
    PersistRead persist_read sys_persist_read trap_persist_read (
        /// The record key.
        key: u64,
        /// Byte offset of the read.
        offset: u64,
        /// Bytes to read (`u64::MAX` reads to the end of the record).
        len: u64,
    ) -> Bytes(Vec<u8>);
    /// `sys_persist_delete`: remove a persist record.
    PersistDelete persist_delete sys_persist_delete trap_persist_delete (
        /// The record key.
        key: u64,
    ) -> Unit(());
    /// `sys_persist_sync`: make the named records durable (a write-ahead
    /// log append per record — HiStar's `fsync` primitive for data living
    /// directly in the store).
    PersistSync persist_sync sys_persist_sync trap_persist_sync (
        /// The record keys to sync; keys with no record log a durable
        /// deletion instead.
        keys: Vec<u64> => Vec<u64>,
    ) -> Unit(());
    /// `sys_persist_get_label`: the label a persist record carries.
    PersistGetLabel persist_get_label sys_persist_get_label trap_persist_get_label (
        /// The record key.
        key: u64,
    ) -> Label(Label);
    /// `sys_segment_watch`: register a one-shot readiness watch on a
    /// segment; the kernel pushes an `ObjectReady` completion when the
    /// segment is next written or deallocated.
    SegmentWatch segment_watch sys_segment_watch trap_segment_watch (
        /// The segment, named through a container entry.
        entry: ContainerEntry,
    ) -> Unit(());
    /// `sys_obj_sync`: make one kernel object durable in the single-level
    /// store — HiStar's `fsync` primitive for data living in the object
    /// heap (a write, so modify-checked).
    ObjSync obj_sync sys_obj_sync trap_obj_sync (
        /// The object, named through a container entry.
        entry: ContainerEntry,
        /// The 4 KiB pages of a segment's payload to flush in place, or
        /// `None` to log the whole object.
        pages: Option<Vec<u64>>,
    ) -> Unit(());
}

/// The typed result of a successful [`Kernel::dispatch`].
#[derive(Clone, Debug, PartialEq)]
pub enum SyscallResult {
    /// The call returns nothing.
    Unit,
    /// A freshly allocated category.
    Category(Category),
    /// A label (thread label, clearance, object label).
    Label(Label),
    /// An object ID (created object, parent container).
    ObjectId(ObjectId),
    /// A plain number (quota, segment length).
    U64(u64),
    /// A list of object IDs (container listing).
    ObjectIds(Vec<ObjectId>),
    /// A 64-byte metadata area.
    Metadata([u8; METADATA_LEN]),
    /// Raw bytes (segment reads).
    Bytes(Vec<u8>),
    /// The outcome of a gate entry.
    GateEntry(GateEntryResult),
    /// An alert, if one was pending.
    Alert(Option<Alert>),
    /// A received frame, if one was queued.
    Frame(Option<Vec<u8>>),
}

impl SyscallResult {
    /// Unwraps an [`ObjectId`] result; panics on any other variant.
    /// Dispatch guarantees the variant matches the submitted call, so the
    /// panic marks a caller/completion pairing bug, not a runtime error.
    pub fn into_object_id(self) -> ObjectId {
        match self {
            SyscallResult::ObjectId(id) => id,
            other => panic!("expected an ObjectId completion, got {other:?}"),
        }
    }

    /// Unwraps a [`Label`] result; panics on any other variant.
    pub fn into_label(self) -> Label {
        match self {
            SyscallResult::Label(l) => l,
            other => panic!("expected a Label completion, got {other:?}"),
        }
    }

    /// Unwraps a [`Category`] result; panics on any other variant.
    pub fn into_category(self) -> Category {
        match self {
            SyscallResult::Category(c) => c,
            other => panic!("expected a Category completion, got {other:?}"),
        }
    }

    /// Unwraps a byte-vector result; panics on any other variant.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            SyscallResult::Bytes(b) => b,
            other => panic!("expected a Bytes completion, got {other:?}"),
        }
    }
}

/// Per-syscall invocation and error counters maintained by
/// [`Kernel::dispatch`].
///
/// These are the one count of calls and failures: `total()` is
/// [`SyscallStats`](crate::syscall::SyscallStats)'s `syscalls`, and
/// `total_errors()` its `errors`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchStats {
    /// Invocations per syscall, indexed like [`SYSCALL_NAMES`].
    pub invocations: [u64; SYSCALL_COUNT],
    /// Errors per syscall, indexed like [`SYSCALL_NAMES`].
    pub errors: [u64; SYSCALL_COUNT],
    /// Boundary crossings: submission batches drained (a single `trap_*`
    /// call is a 1-entry batch).
    pub batches: u64,
    /// Histogram of batch sizes; bucket boundaries are
    /// [`BATCH_HIST_BUCKETS`].
    pub batch_size_hist: Histogram<{ BATCH_HIST_BUCKETS.len() }>,
    /// Audit-trace records evicted from the bounded ring before anyone
    /// read them — silent loss of audit history.  The dispatch-equivalence
    /// tests assert this stays zero when the trace is sized to the run.
    pub trace_dropped: u64,
}

/// Upper bounds (inclusive) of the batch-size histogram buckets; the last
/// bucket is open-ended.  The edges live in `histar-obs` so the dispatch
/// stats and the I/O benchmarks bucket identically.
pub use histar_obs::BATCH_SIZE_EDGES as BATCH_HIST_BUCKETS;

impl Default for DispatchStats {
    fn default() -> DispatchStats {
        DispatchStats {
            invocations: [0; SYSCALL_COUNT],
            errors: [0; SYSCALL_COUNT],
            batches: 0,
            batch_size_hist: Histogram::new(&BATCH_HIST_BUCKETS),
            trace_dropped: 0,
        }
    }
}

impl DispatchStats {
    /// Total dispatched calls.
    pub fn total(&self) -> u64 {
        self.invocations.iter().sum()
    }

    /// Total dispatched calls that returned an error.
    pub fn total_errors(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Invocation count for one syscall by name; `None` for unknown names.
    pub fn count(&self, name: &str) -> Option<u64> {
        SYSCALL_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.invocations[i])
    }

    /// `(name, invocations, errors)` for every syscall that was invoked at
    /// least once, in ABI order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64, u64)> {
        (0..SYSCALL_COUNT)
            .filter(|&i| self.invocations[i] > 0)
            .map(|i| (SYSCALL_NAMES[i], self.invocations[i], self.errors[i]))
            .collect()
    }

    /// Mean submission-batch size (1.0 when everything was single-call).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.total() as f64 / self.batches as f64
        }
    }

    /// Amortized boundary cost per entry, in nanoseconds, given the full
    /// trap cost and the batched-entry decode cost: every batch pays
    /// `trap_ns` once and `entry_ns` for each further entry.
    pub fn amortized_trap_ns(&self, trap_ns: u64, entry_ns: u64) -> f64 {
        let entries = self.total();
        if entries == 0 {
            return trap_ns as f64;
        }
        let total = self.batches * trap_ns + (entries - self.batches) * entry_ns;
        total as f64 / entries as f64
    }

    pub(crate) fn record_batch(&mut self, entries: u64) {
        if entries == 0 {
            return;
        }
        self.batches += 1;
        self.batch_size_hist.record(entries);
    }

    /// Applies `op` to every counter pair of `self` and `other` — the one
    /// place that enumerates the struct's fields, so `since`/`merge` can
    /// never drift apart when a counter is added.
    fn zip_with(&self, other: &DispatchStats, op: impl Fn(u64, u64) -> u64) -> DispatchStats {
        let mut out = DispatchStats::default();
        for i in 0..SYSCALL_COUNT {
            out.invocations[i] = op(self.invocations[i], other.invocations[i]);
            out.errors[i] = op(self.errors[i], other.errors[i]);
        }
        out.batch_size_hist = self.batch_size_hist.zip_with(&other.batch_size_hist, &op);
        out.trace_dropped = op(self.trace_dropped, other.trace_dropped);
        out.batches = op(self.batches, other.batches);
        out
    }

    /// Difference between two snapshots (`self - earlier`).
    pub fn since(&self, earlier: &DispatchStats) -> DispatchStats {
        self.zip_with(earlier, |a, b| a - b)
    }

    /// Element-wise sum of two counter sets (e.g. combining the nodes of a
    /// fabric into one histogram).
    pub fn merge(&self, other: &DispatchStats) -> DispatchStats {
        self.zip_with(other, |a, b| a + b)
    }
}

impl histar_obs::MetricSource for DispatchStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("dispatch.calls", self.total());
        set.counter("dispatch.errors", self.total_errors());
        set.counter("dispatch.batches", self.batches);
        set.counter("dispatch.batch_entries", self.total());
        set.counter("dispatch.trace_dropped", self.trace_dropped);
        set.histogram("dispatch.batch_size", &self.batch_size_hist);
    }
}

/// One entry of the syscall audit trace: which thread trapped, with what
/// call, at what simulated time, and whether it succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic sequence number (survives ring-buffer eviction, so gaps
    /// are detectable).
    pub seq: u64,
    /// Simulated time at call completion, in nanoseconds since boot.
    pub tick: u64,
    /// The calling thread.
    pub tid: ObjectId,
    /// The syscall's name (from [`SYSCALL_NAMES`]).
    pub syscall: &'static str,
    /// Whether the call succeeded.
    pub ok: bool,
}

/// A bounded ring buffer of [`TraceRecord`]s — the machine's auditable,
/// replayable syscall stream.  When full, the oldest record is dropped (and
/// counted), so enabling tracing never grows memory without bound.
#[derive(Clone, Debug, Default)]
pub struct SyscallTrace {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    records: VecDeque<TraceRecord>,
}

impl SyscallTrace {
    /// Creates an empty trace holding at most `capacity` records.
    pub fn new(capacity: usize) -> SyscallTrace {
        SyscallTrace {
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            records: VecDeque::with_capacity(capacity.clamp(1, 4096)),
        }
    }

    /// Appends a record, evicting the oldest if full.  Returns whether a
    /// record was evicted, so the dispatcher can mirror silent audit loss
    /// into [`DispatchStats::trace_dropped`].
    fn push(&mut self, tick: u64, tid: ObjectId, syscall: &'static str, ok: bool) -> bool {
        let evicted = self.records.len() == self.capacity;
        if evicted {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            tick,
            tid,
            syscall,
            ok,
        });
        self.next_seq += 1;
        evicted
    }

    /// The buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever appended.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }
}

impl Kernel {
    /// Executes one trapped system call on behalf of thread `tid`: the
    /// call crosses the boundary alone, pays the full trap cost, and its
    /// result is returned directly.  Per-call label checks,
    /// [`DispatchStats`] counters and audit-trace records are identical to
    /// the same call inside a [`Kernel::submit_calls`] batch.
    pub fn dispatch(
        &mut self,
        tid: ObjectId,
        call: Syscall,
    ) -> Result<SyscallResult, SyscallError> {
        self.begin_batch();
        let result = self.dispatch_one(tid, call, true);
        self.end_batch();
        self.dispatch_stats_mut().record_batch(1);
        result
    }

    /// Submits `calls` as one batch and returns their results directly, in
    /// submission order.  Every call executes against the same label
    /// checks, per-syscall counters and audit trace as a one-per-trap
    /// stream, but the whole batch pays the kernel entry/exit (trap) cost
    /// once — each call after the first is charged only the cheap decode
    /// cost.  A batch does not stop on errors (each call carries its own
    /// result), so calls with user-level data dependencies belong in
    /// separate batches.
    ///
    /// The thread's completion queue is not involved, so notifications
    /// already queued (or pushed by an alert *inside* this batch) stay
    /// queued, and a batch that tears down the calling thread (a call
    /// unrefs the thread's last link) still reports every call's result.
    pub fn submit_calls(
        &mut self,
        tid: ObjectId,
        calls: Vec<Syscall>,
    ) -> Vec<Result<SyscallResult, SyscallError>> {
        self.begin_batch();
        let span_start = self.recorder().is_enabled().then(|| self.now().as_nanos());
        let done: Vec<_> = calls
            .into_iter()
            .enumerate()
            .map(|(i, call)| self.dispatch_one(tid, call, i == 0))
            .collect();
        self.end_batch();
        self.dispatch_stats_mut().record_batch(done.len() as u64);
        if let Some(start) = span_start {
            let batch_id = self.dispatch_stats().batches;
            self.recorder().record(Span {
                cat: "dispatch",
                name: "batch",
                start,
                end: self.now().as_nanos(),
                tid: tid.raw(),
                seq: batch_id,
            });
        }
        done
    }

    /// One call, start to finish — the only way into a `sys_*` handler.
    /// [`Kernel::enter`] counts the call, charges the crossing (the full
    /// trap for the first call of a batch, the decode cost after) and
    /// produces the calling thread or refuses it; the row's handler runs;
    /// a failure from either is counted once, against the row; the audit
    /// record and span are appended.
    fn dispatch_one(
        &mut self,
        tid: ObjectId,
        call: Syscall,
        first_of_batch: bool,
    ) -> Result<SyscallResult, SyscallError> {
        let index = call.index();
        let name = call.name();
        let span_start = self.recorder().is_enabled().then(|| self.now().as_nanos());
        let result = self
            .enter(tid, index, first_of_batch)
            .and_then(|(caller, sys)| sys.dispatch_inner(&caller, call));
        if result.is_err() {
            self.count_error(index);
        }
        let tick = self.now().as_nanos();
        let ok = result.is_ok();
        if let Some(trace) = self.trace_mut() {
            if trace.push(tick, tid, name, ok) {
                self.dispatch_stats_mut().trace_dropped += 1;
            }
        }
        if let Some(start) = span_start {
            let seq = self.next_dispatch_seq();
            self.recorder().record(Span {
                cat: "dispatch",
                name,
                start,
                end: tick,
                tid: tid.raw(),
                seq,
            });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::Level;

    fn boot() -> (Kernel, ObjectId) {
        let clock = histar_sim::SimClock::new();
        let store = histar_store::SingleLevelStore::format(Default::default(), clock.clone());
        let mut k = Kernel::new(42, clock, store);
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

    #[test]
    fn dispatch_counts_per_syscall() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 64, "s")
            .unwrap();
        let entry = ContainerEntry::new(root, seg);
        k.trap_segment_write(tid, entry, 0, b"hello").unwrap();
        assert_eq!(k.trap_segment_read(tid, entry, 0, 5).unwrap(), b"hello");
        // A failing call is counted as both an invocation and an error.
        assert!(k.trap_segment_read(tid, entry, 60, 100).is_err());

        let stats = k.dispatch_stats();
        assert_eq!(stats.count("segment_create"), Some(1));
        assert_eq!(stats.count("segment_write"), Some(1));
        assert_eq!(stats.count("segment_read"), Some(2));
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.total_errors(), 1);
        assert!(stats
            .nonzero()
            .iter()
            .any(|(n, i, e)| *n == "segment_read" && *i == 2 && *e == 1));
    }

    #[test]
    fn trace_ring_buffer_is_bounded_and_ordered() {
        let (mut k, tid) = boot();
        k.enable_syscall_trace(4);
        for _ in 0..6 {
            let _ = k.trap_self_get_label(tid);
        }
        let trace = k.syscall_trace().expect("trace enabled");
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 2);
        assert_eq!(trace.total_recorded(), 6);
        // Evictions are mirrored into the dispatch stats so monitoring can
        // spot silent audit loss without holding a reference to the trace.
        assert_eq!(k.dispatch_stats().trace_dropped, 2);
        let seqs: Vec<u64> = trace.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        for r in trace.records() {
            assert_eq!(r.syscall, "self_get_label");
            assert_eq!(r.tid, tid);
            assert!(r.ok);
        }
    }

    #[test]
    fn trace_records_failures() {
        let (mut k, tid) = boot();
        k.enable_syscall_trace(16);
        let bogus = ContainerEntry::new(k.root_container(), ObjectId::from_raw(0x1234));
        assert!(k.trap_segment_read(tid, bogus, 0, 1).is_err());
        let rec = *k.syscall_trace().unwrap().records().next().unwrap();
        assert_eq!(rec.syscall, "segment_read");
        assert!(!rec.ok);
    }

    #[test]
    fn syscall_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = SYSCALL_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SYSCALL_COUNT, "names must be unique");
        assert_eq!(SYSCALL_COUNT, 43);
        // Row position is the index; `tests/dispatch_equivalence.rs` checks
        // index and name for a value of every variant.
        assert_eq!(Syscall::CreateCategory.index(), 0);
        let last = Syscall::ObjSync {
            entry: ContainerEntry::self_entry(ObjectId::from_raw(1)),
            pages: None,
        };
        assert_eq!(last.index(), SYSCALL_COUNT - 1);
        assert_eq!(last.name(), "obj_sync");
    }

    #[test]
    fn every_result_variant_is_exercised() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let cat = k.trap_create_category(tid).unwrap();
        let lbl = Label::builder().own(cat).build();
        let _ = lbl;
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 32, "s")
            .unwrap();
        let se = ContainerEntry::new(root, seg);
        assert_eq!(k.trap_segment_len(tid, se).unwrap(), 32);
        assert!(k.trap_container_list(tid, root).unwrap().contains(&seg));
        assert_eq!(k.trap_self_take_alert(tid).unwrap(), None);
        let meta = k.trap_obj_get_metadata(tid, se).unwrap();
        assert_eq!(meta, [0u8; METADATA_LEN]);
        // Self-label round trip through the dispatcher.
        let l = k.trap_self_get_label(tid).unwrap();
        assert!(l.owns(cat));
        assert_eq!(
            k.trap_self_get_clearance(tid).unwrap().level(cat),
            Level::L3
        );
    }
}
