//! Proofs: what a label check hands a system call, and the only way a
//! handler reaches an object or a persist record.
//!
//! | proof | minted by | unlocks |
//! |---|---|---|
//! | [`Observed`] | [`Sys::check_observe`] | the object's header and body, read |
//! | [`Modifiable`] | [`Sys::check_modify`] | the same, written; derefs to [`Observed`] |
//! | [`Named`] | [`Sys::check_entry`] | the entry's label; a gate's label and body; a thread's address space |
//! | [`Sealed`] | [`Sys::persist_record`] | the record's label only |
//! | a payload | [`LabelChecks::check_record_observe`] / [`LabelChecks::check_record_modify`] | the record's bytes |
//! | [`Writable`] | [`LabelChecks::check_record_modify`] / [`LabelChecks::check_record_create`] | putting, deleting and syncing the record |
//!
//! Each proof carries a `Grant`, and a `Grant` has one maker: the allowed
//! branch of `count_label_check` (or of the allocation rule, for a record
//! created at a label the caller chose).  The maker sits in a module of
//! its own, so a check that drops its verdict, or a `check_*` helper that
//! compares nothing, has no grant to build a proof from: forging one is a
//! compile error (E0603), and so is building a proof anywhere outside this
//! module (E0423: its fields are private).

use super::{Caller, Sys};
use crate::bodies::ContainerBody;
use crate::object::{ContainerEntry, ObjectId, ObjectType};
use crate::syscall::{SyscallError, SyscallStats};
use histar_label::{Label, LabelCache};
use histar_sim::{CostModel, SimClock};
use histar_store::codec::Decoder;
use verdict::Grant;

/// "No read up" passed on this object: `L_O ⊑ L_T^J`.
pub(crate) struct Observed(ObjectId, Grant);

/// "No write down" passed on this object: `L_T ⊑ L_O ⊑ L_T^J`.  The
/// object may be read as well ([`Observed`] is its deref target).
pub(crate) struct Modifiable(Observed);

/// A verified container entry `⟨D, O⟩`: the caller observes `D`, and `D`
/// holds a link to `O` (or `O == D`, since every container contains
/// itself).
pub(crate) struct Named(ContainerEntry, Grant);

/// A persist record as the store holds it: its label, which is public
/// metadata (`persist_get_label` returns it unchecked, like
/// `obj_get_label`), and its payload, lent from the store and sealed until
/// a record check opens it.  A check on the label read would not close the
/// channel a record's existence is: `persist_read` and `persist_put` reveal
/// it too.
pub(crate) struct Sealed<'s> {
    key: u64,
    label: Label,
    payload: &'s [u8],
}

/// A persist record the caller may put, delete or sync.
pub(crate) struct Writable(u64, Grant);

impl Observed {
    /// The observed object's id.
    pub(crate) fn id(&self) -> ObjectId {
        self.0
    }
}

impl std::ops::Deref for Modifiable {
    type Target = Observed;
    fn deref(&self) -> &Observed {
        &self.0
    }
}

impl Named {
    /// The named object.
    pub(crate) fn object(&self) -> ObjectId {
        self.0.object
    }
}

impl Sealed<'_> {
    /// The record's label.
    pub(crate) fn label(&self) -> &Label {
        &self.label
    }

    /// The record's label, owned.
    pub(crate) fn into_label(self) -> Label {
        self.label
    }
}

impl Writable {
    /// The record's key.
    pub(crate) fn key(&self) -> u64 {
        self.0
    }
}

/// Which access a label check decides.
#[derive(Clone, Copy)]
enum Access {
    /// "No read up": `L_O ⊑ L_T^J`.
    Observe,
    /// "No write down": `L_T ⊑ L_O ⊑ L_T^J`.
    Modify,
}

/// The one maker of a [`Grant`]: a grant exists only where a label
/// comparison allowed the access.
mod verdict {
    use super::{Access, LabelChecks};
    use crate::syscall::SyscallError;
    use histar_label::Label;

    /// An allowed verdict.  Its field is private to this module.
    pub(super) struct Grant(());

    impl LabelChecks<'_> {
        /// Counts, charges and decides one access check of a thread
        /// labelled `tl` on an object labelled `ol`.  An immutable object
        /// label takes its verdict from the comparison cache (§4); a
        /// thread object's label can change, so that check is computed and
        /// never cached.
        pub(super) fn count_label_check(
            &mut self,
            ol: &Label,
            tl: &Label,
            immutable: bool,
            access: Access,
        ) -> Option<Grant> {
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
            verdict.then_some(Grant(()))
        }
    }

    /// The allocation rule `L_T ⊑ L ⊑ C_T`, for an object or record a
    /// thread creates at label `l`.
    pub(super) fn allocation(tl: &Label, tc: &Label, l: &Label) -> Result<Grant, SyscallError> {
        tl.can_allocate(tc, l)?;
        Ok(Grant(()))
    }
}

/// The kernel state a label check reads and charges — the comparison
/// cache, the counters and the clock — borrowed apart from the rest of
/// the kernel, so a persist record's label can be checked while its
/// payload is still lent from the store (see [`Sys::persist_record`]).
pub(crate) struct LabelChecks<'k> {
    cache: &'k mut LabelCache,
    stats: &'k mut SyscallStats,
    cost: &'k CostModel,
    clock: &'k SimClock,
}

impl LabelChecks<'_> {
    /// Charges one label check comparing `entries` label entries (both
    /// operands together) and keeps the largest such total seen.
    pub(super) fn charge_label_check(&mut self, entries: usize, cached: bool) {
        let seen = &mut self.stats.label_check_max_entries;
        *seen = (*seen).max(entries as u64);
        self.clock.advance(self.cost.label_check(entries, cached));
    }

    /// "No read up" for a persist record: record labels are immutable, so
    /// the comparison is memoizable exactly like a segment's.  Unseals the
    /// payload.
    pub(crate) fn check_record_observe<'s>(
        &mut self,
        t: &Caller,
        record: &Sealed<'s>,
    ) -> Result<&'s [u8], SyscallError> {
        let verdict = self.count_label_check(&record.label, t.label(), true, Access::Observe);
        verdict.ok_or(SyscallError::CannotObserveRecord(record.key))?;
        Ok(record.payload)
    }

    /// "No write down" for a persist record.  Unseals the payload and
    /// grants the write.
    pub(crate) fn check_record_modify<'s>(
        &mut self,
        t: &Caller,
        record: &Sealed<'s>,
    ) -> Result<(Writable, &'s [u8]), SyscallError> {
        let verdict = self.count_label_check(&record.label, t.label(), true, Access::Modify);
        let grant = verdict.ok_or(SyscallError::CannotModifyRecord(record.key))?;
        Ok((Writable(record.key, grant), record.payload))
    }

    /// A new record at `label`: no `⋆` (a record is data, like a
    /// segment), and the allocation rule `L_T ⊑ L ⊑ C_T`.
    pub(crate) fn check_record_create(
        &mut self,
        t: &Caller,
        key: u64,
        label: &Label,
    ) -> Result<Writable, SyscallError> {
        if label.contains_star() {
            return Err(SyscallError::OwnershipNotAllowed(ObjectType::Segment));
        }
        let grant = verdict::allocation(t.label(), t.clearance(), label)?;
        Ok(Writable(key, grant))
    }
}

/// One persist record as [`Sys::persist_record`] finds it, sealed, if it
/// exists — and the checks to open it with.
pub(crate) type PersistRecord<'k> = (Option<Sealed<'k>>, LabelChecks<'k>);

impl Sys {
    /// The label checks over this kernel's cache, counters and clock.
    pub(super) fn checks(&mut self) -> LabelChecks<'_> {
        LabelChecks {
            cache: &mut self.label_cache,
            stats: &mut self.stats,
            cost: &self.cost,
            clock: &self.clock,
        }
    }

    /// "No read up": may the caller observe object `oid`?
    pub(crate) fn check_observe(
        &mut self,
        t: &Caller,
        oid: ObjectId,
    ) -> Result<Observed, SyscallError> {
        let (olabel, immutable) = {
            let o = self.obj(oid)?;
            (
                o.header.label.clone(),
                o.header.object_type != ObjectType::Thread,
            )
        };
        let verdict =
            self.checks()
                .count_label_check(&olabel, t.label(), immutable, Access::Observe);
        let grant = verdict.ok_or(SyscallError::CannotObserve(oid))?;
        Ok(Observed(oid, grant))
    }

    /// "No write down": may the caller modify object `oid`?  An immutable
    /// object refuses every write before any comparison.
    pub(crate) fn check_modify(
        &mut self,
        t: &Caller,
        oid: ObjectId,
    ) -> Result<Modifiable, SyscallError> {
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
        let immutable = otype != ObjectType::Thread;
        let verdict =
            self.checks()
                .count_label_check(&olabel, t.label(), immutable, Access::Modify);
        let grant = verdict.ok_or(SyscallError::CannotModify(oid))?;
        Ok(Modifiable(Observed(oid, grant)))
    }

    /// Verifies a container entry `⟨D, O⟩`: the caller must be able to
    /// read `D`, and `D` must hold a link to `O` (or `O == D`).
    pub(crate) fn check_entry(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<Named, SyscallError> {
        let Observed(_, grant) = self.check_observe(t, entry.container)?;
        let (_, cbody) = self.typed::<ContainerBody>(entry.container)?;
        if entry.container != entry.object && !cbody.contains(entry.object) {
            return Err(SyscallError::NotInContainer {
                container: entry.container,
                object: entry.object,
            });
        }
        Ok(Named(entry, grant))
    }

    /// Looks record `key` up once: its label, decoded from the stored
    /// frame, and its payload, lent from the store's cache rather than
    /// copied and sealed (`None` if there is no such record) — beside the
    /// label checks, which borrow the rest of the kernel, so a handler
    /// checks the label first and then copies out only the bytes it
    /// returns.
    pub(crate) fn persist_record(&mut self, key: u64) -> Result<PersistRecord<'_>, SyscallError> {
        let checks = LabelChecks {
            cache: &mut self.label_cache,
            stats: &mut self.stats,
            cost: &self.cost,
            clock: &self.clock,
        };
        let corrupt = SyscallError::CorruptRecord(key);
        let record = match self.store.resident(key) {
            Ok(None) => None,
            Ok(Some(frame)) => {
                let mut d = Decoder::new(frame);
                match (crate::serialize::decode_label(&mut d), d.get_slice()) {
                    (Ok(label), Ok(payload)) => Some(Sealed {
                        key,
                        label,
                        payload,
                    }),
                    _ => return Err(corrupt),
                }
            }
            Err(_) => return Err(corrupt),
        };
        Ok((record, checks))
    }
}
