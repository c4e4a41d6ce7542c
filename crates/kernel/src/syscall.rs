//! System-call errors and statistics.
//!
//! HiStar's kernel interface is deliberately narrow; every call either
//! succeeds or fails with one of the errors below.  The kernel also counts
//! system calls, label checks and page faults so the benchmark harness can
//! report the structural numbers the paper quotes (e.g. 317 system calls per
//! fork/exec versus 127 per spawn).

use crate::object::{ObjectId, ObjectType};
use histar_label::LabelError;

/// An error returned by a HiStar system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallError {
    /// The named object does not exist (or has been deallocated).
    NoSuchObject(ObjectId),
    /// The object exists but has a different type than the call requires.
    WrongType {
        /// The object's actual type.
        found: ObjectType,
        /// The type the call expected.
        expected: ObjectType,
    },
    /// The container entry's container does not hold a link to the object.
    NotInContainer {
        /// The container named by the entry.
        container: ObjectId,
        /// The object named by the entry.
        object: ObjectId,
    },
    /// A label check failed: the calling thread may not observe the object.
    CannotObserve(ObjectId),
    /// A label check failed: the calling thread may not modify the object.
    CannotModify(ObjectId),
    /// A label rule was violated (allocation, clearance or gate rules).
    Label(LabelError),
    /// The object's label may not contain `⋆` (only threads and gates may).
    OwnershipNotAllowed(ObjectType),
    /// The container (or an ancestor) forbids creating this object type.
    TypeForbidden(ObjectType),
    /// The container does not have enough spare quota.
    QuotaExceeded {
        /// The container charged for the allocation.
        container: ObjectId,
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// The object's quota is fixed and cannot be changed.
    QuotaFixed(ObjectId),
    /// A quota adjustment would make usage exceed the object's own quota,
    /// or reduce a quota below current usage.
    QuotaUnderflow(ObjectId),
    /// The object is immutable.
    Immutable(ObjectId),
    /// The object must have its quota fixed before being hard-linked again.
    QuotaNotFixed(ObjectId),
    /// The gate's clearance does not admit the calling thread.
    GateClearance(ObjectId),
    /// The verify label supplied at gate invocation is not below the
    /// thread's label.
    VerifyLabel,
    /// The thread is halted and cannot perform system calls.
    ThreadHalted(ObjectId),
    /// The root container cannot be unreferenced or given a finite quota.
    RootContainer,
    /// The call is malformed (bad argument, out-of-range offset, ...).
    InvalidArgument(&'static str),
    /// A persist-record call or `obj_sync` reached a kernel with no
    /// single-level store attached (standalone kernels used in pure label
    /// tests).
    NoStore,
    /// The named persist record does not exist in the store.
    NoSuchRecord(u64),
    /// A label check failed: the calling thread may not observe the
    /// persist record.
    CannotObserveRecord(u64),
    /// A label check failed: the calling thread may not modify the
    /// persist record.
    CannotModifyRecord(u64),
    /// A persist record's on-store framing (label prefix) failed to
    /// decode.
    CorruptRecord(u64),
}

impl From<LabelError> for SyscallError {
    fn from(e: LabelError) -> SyscallError {
        SyscallError::Label(e)
    }
}

impl core::fmt::Display for SyscallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyscallError::NoSuchObject(id) => write!(f, "no such object: {id}"),
            SyscallError::WrongType { found, expected } => {
                write!(
                    f,
                    "wrong object type: found {}, expected {}",
                    found.name(),
                    expected.name()
                )
            }
            SyscallError::NotInContainer { container, object } => {
                write!(f, "container {container} has no link to {object}")
            }
            SyscallError::CannotObserve(id) => write!(f, "label check: cannot observe {id}"),
            SyscallError::CannotModify(id) => write!(f, "label check: cannot modify {id}"),
            SyscallError::Label(e) => write!(f, "label rule violated: {e}"),
            SyscallError::OwnershipNotAllowed(t) => {
                write!(f, "{} labels may not contain ownership", t.name())
            }
            SyscallError::TypeForbidden(t) => {
                write!(f, "container forbids creating {} objects", t.name())
            }
            SyscallError::QuotaExceeded {
                container,
                requested,
                available,
            } => write!(
                f,
                "quota exceeded in {container}: requested {requested}, available {available}"
            ),
            SyscallError::QuotaFixed(id) => write!(f, "quota of {id} is fixed"),
            SyscallError::QuotaUnderflow(id) => write!(f, "quota adjustment underflows {id}"),
            SyscallError::Immutable(id) => write!(f, "object {id} is immutable"),
            SyscallError::QuotaNotFixed(id) => {
                write!(f, "object {id} must have a fixed quota before linking")
            }
            SyscallError::GateClearance(id) => {
                write!(f, "gate {id} clearance does not admit the calling thread")
            }
            SyscallError::VerifyLabel => write!(f, "verify label exceeds the thread label"),
            SyscallError::ThreadHalted(id) => write!(f, "thread {id} is halted"),
            SyscallError::RootContainer => {
                write!(f, "operation not permitted on the root container")
            }
            SyscallError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            SyscallError::NoStore => write!(f, "no single-level store attached to this kernel"),
            SyscallError::NoSuchRecord(k) => write!(f, "no such persist record: {k:#x}"),
            SyscallError::CannotObserveRecord(k) => {
                write!(f, "label check: cannot observe persist record {k:#x}")
            }
            SyscallError::CannotModifyRecord(k) => {
                write!(f, "label check: cannot modify persist record {k:#x}")
            }
            SyscallError::CorruptRecord(k) => write!(f, "corrupt persist record: {k:#x}"),
        }
    }
}

impl std::error::Error for SyscallError {}

/// Counters describing kernel activity, used by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// Total system calls executed (including failed ones).
    pub syscalls: u64,
    /// System calls that returned an error.
    pub errors: u64,
    /// Label comparisons performed.
    pub label_checks: u64,
    /// Label comparisons answered by the immutable-label cache.
    pub label_cache_hits: u64,
    /// Objects created.
    pub objects_created: u64,
    /// Objects deallocated.
    pub objects_deallocated: u64,
    /// Gate invocations.
    pub gate_invocations: u64,
    /// Context switches (address-space changes).
    pub context_switches: u64,
    /// Context switches that used the cheap `invlpg` path.
    pub invlpg_switches: u64,
    /// The most label entries (both operands together) any one charged
    /// label check compared: a level, not a count.  A daemon whose label
    /// grows with the clients it has served shows here.
    pub label_check_max_entries: u64,
}

impl histar_obs::MetricSource for SyscallStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("kernel.syscalls", self.syscalls);
        set.counter("kernel.errors", self.errors);
        set.counter("kernel.label_checks", self.label_checks);
        set.counter("kernel.label_cache_hits", self.label_cache_hits);
        set.counter("kernel.objects_created", self.objects_created);
        set.counter("kernel.objects_deallocated", self.objects_deallocated);
        set.counter("kernel.gate_invocations", self.gate_invocations);
        set.counter("kernel.context_switches", self.context_switches);
        set.counter("kernel.invlpg_switches", self.invlpg_switches);
        set.gauge(
            "kernel.label_check_max_entries",
            self.label_check_max_entries,
        );
    }
}

impl SyscallStats {
    /// Difference between two snapshots (`self - earlier`), for measuring a
    /// region of execution.  `label_check_max_entries` is a level and
    /// carries the later value.
    pub fn since(&self, earlier: &SyscallStats) -> SyscallStats {
        SyscallStats {
            syscalls: self.syscalls - earlier.syscalls,
            errors: self.errors - earlier.errors,
            label_checks: self.label_checks - earlier.label_checks,
            label_cache_hits: self.label_cache_hits - earlier.label_cache_hits,
            objects_created: self.objects_created - earlier.objects_created,
            objects_deallocated: self.objects_deallocated - earlier.objects_deallocated,
            gate_invocations: self.gate_invocations - earlier.gate_invocations,
            context_switches: self.context_switches - earlier.context_switches,
            invlpg_switches: self.invlpg_switches - earlier.invlpg_switches,
            label_check_max_entries: self.label_check_max_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SyscallError::QuotaExceeded {
            container: ObjectId::from_raw(3),
            requested: 100,
            available: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("quota"));
        assert!(msg.contains("100"));
        assert!(SyscallError::RootContainer.to_string().contains("root"));
    }

    #[test]
    fn label_error_converts() {
        let e: SyscallError = LabelError::LabelExceedsClearance.into();
        assert!(matches!(e, SyscallError::Label(_)));
    }

    #[test]
    fn stats_difference() {
        let a = SyscallStats {
            syscalls: 10,
            label_checks: 5,
            ..Default::default()
        };
        let b = SyscallStats {
            syscalls: 25,
            label_checks: 11,
            objects_created: 2,
            label_check_max_entries: 78,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.label_check_max_entries, 78, "a level, not a difference");
        assert_eq!(d.syscalls, 15);
        assert_eq!(d.label_checks, 6);
        assert_eq!(d.objects_created, 2);
    }
}
