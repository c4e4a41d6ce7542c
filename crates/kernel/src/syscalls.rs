//! The system-call handlers: one `sys_*` method of [`Sys`] per row of the
//! `syscalls!` table in `dispatch.rs`.
//!
//! Each is the body of one HiStar system call, run on behalf of the
//! calling thread the trap found (a [`Caller`]).  A handler performs
//! exactly the label checks the paper specifies before touching any state
//! and charges what its own work costs; everything a call owes for being a
//! call — the boundary crossing, the counters, refusing a halted caller,
//! counting a failure — is the trap's business, so the handlers are
//! reachable only through `Kernel::dispatch` and `Kernel::submit_calls`.
//!
//! This module is outside `kernel`, so the checks are types: a handler
//! holds `&mut Sys`, whose table and store are private fields and whose
//! lookups by id are private methods, and reaches an object only through
//! the proof its check returned (`Observed`, `Modifiable`, `Named`, a
//! sealed persist record) or its own thread through `&Caller`.  A
//! handler declared `pub fn` fails the crate's `private_interfaces` lint:
//! `Caller` is crate-private, so nothing outside the crate can skip the
//! trap.

use crate::abi::Completion;
use crate::bodies::{
    AddressSpaceBody, Alert, ContainerBody, DeviceBody, GateBody, Mapping, ObjectBody, SegmentBody,
    ThreadBody, ThreadState,
};
use crate::kernel::{Caller, GateEntryResult, Kernel, Sys, PAGE_SIZE};
use crate::object::{ContainerEntry, ObjectId, ObjectType, METADATA_LEN};
use crate::syscall::SyscallError;
use histar_label::{Category, Label, LabelError, Level};
use histar_store::records::is_persist_key;

impl Sys {
    // ----- readiness watches (blocking I/O) -----------------------------

    /// Registers a one-shot readiness watch for the caller on the object
    /// named by `entry`.  When the object is next written (`segment_write`)
    /// or deallocated, the kernel pushes a `Completion::ObjectReady`
    /// completion to the caller — the wake half of blocking
    /// `read(2)`/`poll`.  The watch is observe-checked.
    pub(crate) fn sys_segment_watch(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, entry)?;
        let o = self.check_observe(t, entry.object)?;
        let list = self.watchers(&o)?;
        if !list.contains(&t.tid()) {
            list.push(t.tid());
        }
        Ok(())
    }

    // ----- the single-level store and persist records -------------------

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
            .filter(|&e| e <= Kernel::PERSIST_RECORD_MAX)
            .ok_or(SyscallError::InvalidArgument(
                "persist record write out of range",
            ))?;
        let (record, mut checks) = self.persist_record(key)?;
        let (w, rlabel, old) = match record {
            Some(record) => {
                let (w, old) = checks.check_record_modify(t, &record)?;
                if label.is_some_and(|l| l != *record.label()) {
                    return Err(SyscallError::InvalidArgument(
                        "a persist record keeps the label it was created with",
                    ));
                }
                (w, record.into_label(), old)
            }
            None => {
                let label = label.ok_or(SyscallError::InvalidArgument(
                    "creating a persist record requires a label",
                ))?;
                (checks.check_record_create(t, key, &label)?, label, &[][..])
            }
        };
        let (offset, end) = (offset as usize, end as usize);
        let mut payload = Vec::with_capacity(end.max(old.len()));
        payload.extend_from_slice(&old[..offset.min(old.len())]);
        payload.resize(offset, 0);
        payload.extend_from_slice(data);
        payload.extend_from_slice(old.get(end..).unwrap_or_default());
        let copy_cost = self.cost().copy(data.len() as u64);
        self.charge(copy_cost);
        self.put_record(&w, &rlabel, &payload);
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
        let record = record.ok_or(SyscallError::NoSuchRecord(key))?;
        let payload = checks.check_record_observe(t, &record)?;
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
        let copy_cost = self.cost().copy(end - offset);
        self.charge(copy_cost);
        Ok(out)
    }

    /// Removes a persist record (modify-checked against its label).  The
    /// deletion becomes durable at the next sync of the key or the next
    /// checkpoint.
    pub(crate) fn sys_persist_delete(&mut self, t: &Caller, key: u64) -> Result<(), SyscallError> {
        let (record, mut checks) = self.persist_record(key)?;
        let record = record.ok_or(SyscallError::NoSuchRecord(key))?;
        let (w, _) = checks.check_record_modify(t, &record)?;
        self.delete_record(&w);
        Ok(())
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
                Some(record) => {
                    let (w, _) = checks.check_record_modify(t, &record)?;
                    self.sync_record(&w)?;
                }
                None => self.sync_deleted(key),
            }
        }
        Ok(())
    }

    /// Makes one kernel object durable in the single-level store: §7.1's
    /// `fsync`, for data living in the object heap.  Which version of an
    /// object survives a crash is state, so this is a write — the caller
    /// names the object through a container it can read and must pass the
    /// modify check on the object itself, exactly as for `segment_write`.
    /// Beyond the crossing and the two checks it charges nothing itself:
    /// the disk charges the writes and the flush.
    pub(crate) fn sys_obj_sync(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        pages: Option<Vec<u64>>,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, entry)?;
        let m = self.check_modify(t, entry.object)?;
        self.sync_object(&m, pages)
    }

    /// The label a persist record carries.  Like `obj_get_label`, the
    /// label itself is metadata a caller needs in order to make labeling
    /// decisions (e.g. labeling new extents of an existing file), not
    /// protected content, and a sealed record shows it without a check;
    /// the payload stays sealed.
    pub(crate) fn sys_persist_get_label(
        &mut self,
        _t: &Caller,
        key: u64,
    ) -> Result<Label, SyscallError> {
        let (record, _) = self.persist_record(key)?;
        Ok(record.ok_or(SyscallError::NoSuchRecord(key))?.into_label())
    }

    // ----- categories and thread labels (§3.1) --------------------------

    /// `cat_t create_category(void)`: allocates a fresh category, granting
    /// the calling thread ownership (`⋆`) and clearance `3` in it.  It
    /// needs no proof: the category is new, and only the caller's own
    /// label and clearance change.
    pub(crate) fn sys_create_category(&mut self, t: &Caller) -> Result<Category, SyscallError> {
        let cat = self.alloc_category();
        let (header, body) = self.caller_mut(t)?;
        header.label = t.label().with(cat, Level::Star);
        body.clearance = t.clearance().with(cat, Level::L3);
        Ok(cat)
    }

    /// `self_set_label(L)`: sets the calling thread's label, subject to
    /// `L_T ⊑ L ⊑ C_T`.
    pub(crate) fn sys_self_set_label(
        &mut self,
        t: &Caller,
        new: Label,
    ) -> Result<(), SyscallError> {
        self.stats_mut().label_checks += 2;
        self.charge_label_check(t.label().len() + new.len(), false);
        t.label().check_set_label(t.clearance(), &new)?;
        self.caller_mut(t)?.0.label = new;
        Ok(())
    }

    /// `self_set_clearance(C)`: sets the calling thread's clearance, subject
    /// to `L_T ⊑ C ⊑ (C_T ⊔ L_T^J)`.
    pub(crate) fn sys_self_set_clearance(
        &mut self,
        t: &Caller,
        new: Label,
    ) -> Result<(), SyscallError> {
        self.stats_mut().label_checks += 2;
        self.charge_label_check(t.clearance().len() + new.len(), false);
        t.label().check_set_clearance(t.clearance(), &new)?;
        self.caller_mut(t)?.1.clearance = new;
        Ok(())
    }

    /// Returns the calling thread's own label: observing yourself leaks
    /// nothing.
    pub(crate) fn sys_self_get_label(&mut self, t: &Caller) -> Result<Label, SyscallError> {
        Ok(t.label().clone())
    }

    /// Returns the calling thread's own clearance: observing yourself
    /// leaks nothing.
    pub(crate) fn sys_self_get_clearance(&mut self, t: &Caller) -> Result<Label, SyscallError> {
        Ok(t.clearance().clone())
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
        self.create_object(t, parent, label, quota, descrip, body)
    }

    /// Unreferences an object from a container; the object is deallocated
    /// when its last link disappears (recursively for containers).
    pub(crate) fn sys_obj_unref(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        if entry.object == self.root() {
            return Err(SyscallError::RootContainer);
        }
        let d = self.check_modify(t, entry.container)?;
        self.unlink(&d, entry.object)
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
        let n = self.check_entry(t, entry)?;
        let d = self.check_modify(t, dst)?;
        self.link(t, &n, &d)
    }

    /// Returns a container's spare quota (`quota - usage`), or `u64::MAX`
    /// for the root container.  Requires observe access, since the answer
    /// reveals information about the container's contents.
    pub(crate) fn sys_container_quota_avail(
        &mut self,
        t: &Caller,
        container: ObjectId,
    ) -> Result<u64, SyscallError> {
        let d = self.check_observe(t, container)?;
        let (header, _) = self.read::<ContainerBody>(&d)?;
        Ok(header.quota_remaining())
    }

    /// `container_get_parent(D)`: the parent container of `D`.
    pub(crate) fn sys_container_get_parent(
        &mut self,
        t: &Caller,
        container: ObjectId,
    ) -> Result<ObjectId, SyscallError> {
        let d = self.check_observe(t, container)?;
        let (_, body) = self.read::<ContainerBody>(&d)?;
        body.parent.ok_or(SyscallError::RootContainer)
    }

    /// Lists the object IDs linked into a container (requires read access).
    pub(crate) fn sys_container_list(
        &mut self,
        t: &Caller,
        container: ObjectId,
    ) -> Result<Vec<ObjectId>, SyscallError> {
        let d = self.check_observe(t, container)?;
        let (_, body) = self.read::<ContainerBody>(&d)?;
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
        let d = self.check_modify(t, container)?;
        self.move_quota(t, &d, object, n)
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
        let n = self.check_entry(t, entry)?;
        let (otype, label) = self.named_label(&n)?;
        let label = label.clone();
        if otype == ObjectType::Thread {
            self.stats_mut().label_checks += 1;
            if !label.leq_high_both(t.label()) {
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
        self.check_entry(t, entry)?;
        let o = self.check_observe(t, entry.object)?;
        Ok(self.header(&o)?.metadata)
    }

    /// Writes an object's 64-byte metadata area (requires modify).
    pub(crate) fn sys_obj_set_metadata(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
        metadata: [u8; METADATA_LEN],
    ) -> Result<(), SyscallError> {
        self.check_entry(t, entry)?;
        let m = self.check_modify(t, entry.object)?;
        self.header_mut(&m)?.metadata = metadata;
        Ok(())
    }

    /// Irrevocably marks an object immutable (requires modify first).
    pub(crate) fn sys_obj_set_immutable(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, entry)?;
        let m = self.check_modify(t, entry.object)?;
        self.header_mut(&m)?.flags.immutable = true;
        Ok(())
    }

    /// Irrevocably fixes an object's quota so it may be hard-linked into
    /// additional containers.
    pub(crate) fn sys_obj_set_fixed_quota(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, entry)?;
        let m = self.check_modify(t, entry.object)?;
        self.header_mut(&m)?.flags.fixed_quota = true;
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
        let id = self.create_object(t, container, label, quota, descrip, body)?;
        // Zeroing freshly allocated pages is charged explicitly; HiStar has
        // no pre-zeroed page pool (§7.1).
        let zero_cost = self.cost().page_zero * len.div_ceil(PAGE_SIZE);
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
        self.check_entry(t, entry)?;
        let m = self.check_modify(t, entry.object)?;
        let (header, s) = self.write::<SegmentBody>(&m)?;
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
        let zero_cost = self.cost().page_zero * grow_pages;
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
        self.check_entry(t, entry)?;
        let o = self.check_observe(t, entry.object)?;
        let (_, s) = self.read::<SegmentBody>(&o)?;
        let end = offset
            .checked_add(len)
            .filter(|end| *end <= s.len() as u64)
            .ok_or(SyscallError::InvalidArgument("read beyond end of segment"))?;
        let bytes = s.range(offset as usize, end as usize).into_owned();
        // Charged once the read is known to happen: a refused length
        // moves no clock.
        let copy_cost = self.cost().copy(len);
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
        self.check_entry(t, entry)?;
        let m = self.check_modify(t, entry.object)?;
        let copy_cost = self.cost().copy(data.len() as u64);
        self.charge(copy_cost);
        let (header, s) = self.write::<SegmentBody>(&m)?;
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
        self.wake_watchers(&m)
    }

    /// Returns the length of a segment (requires observe).
    pub(crate) fn sys_segment_len(
        &mut self,
        t: &Caller,
        entry: ContainerEntry,
    ) -> Result<u64, SyscallError> {
        self.check_entry(t, entry)?;
        let o = self.check_observe(t, entry.object)?;
        Ok(self.read::<SegmentBody>(&o)?.1.len() as u64)
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
        self.check_entry(t, src)?;
        let o = self.check_observe(t, src.object)?;
        let body = self.read::<SegmentBody>(&o)?.1.clone();
        let len = body.len() as u64;
        let copy_cost = self.cost().page_copy * len.div_ceil(PAGE_SIZE);
        self.charge(copy_cost);
        let quota = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let body = ObjectBody::Segment(body);
        self.create_object(t, dst_container, label, quota, descrip, body)
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
        self.create_object(t, container, label, PAGE_SIZE, descrip, body)
    }

    /// Adds (or replaces) a mapping in an address space.
    pub(crate) fn sys_as_map(
        &mut self,
        t: &Caller,
        aspace: ContainerEntry,
        mapping: Mapping,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, aspace)?;
        let m = self.check_modify(t, aspace.object)?;
        if !mapping.va.is_multiple_of(PAGE_SIZE) {
            return Err(SyscallError::InvalidArgument("va must be page-aligned"));
        }
        self.write::<AddressSpaceBody>(&m)?.1.map(mapping);
        Ok(())
    }

    /// `self_set_as`: switches the calling thread to a different address
    /// space.
    pub(crate) fn sys_self_set_as(
        &mut self,
        t: &Caller,
        aspace: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, aspace)?;
        // Using an address space requires observing it.
        let o = self.check_observe(t, aspace.object)?;
        self.read::<AddressSpaceBody>(&o)?;
        self.account_context_switch(Some(aspace));
        self.caller_mut(t)?.1.address_space = Some(aspace);
        Ok(())
    }

    // ----- threads ---------------------------------------------------------

    /// Creates a new thread in `container` with the given label and
    /// clearance, subject to `L_T ⊑ L_{T'} ⊑ C_{T'} ⊑ C_T`.
    pub(crate) fn sys_thread_create(
        &mut self,
        t: &Caller,
        container: ObjectId,
        label: Label,
        clearance: Label,
        entry_point: u64,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        self.stats_mut().label_checks += 3;
        t.label().check_spawn(t.clearance(), &label, &clearance)?;
        let mut thread_body = ThreadBody::new(clearance);
        thread_body.entry_point = entry_point;
        // Inherit the parent's address space by default.
        thread_body.address_space = self.caller(t)?.1.address_space;
        let body = ObjectBody::Thread(thread_body);
        self.create_object(t, container, label, PAGE_SIZE, descrip, body)
    }

    /// Halts the calling thread; it can never run (or make syscalls)
    /// again.  A thread may always give up its own CPU.
    pub(crate) fn sys_self_halt(&mut self, t: &Caller) -> Result<(), SyscallError> {
        self.caller_mut(t)?.1.state = ThreadState::Halted;
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
        let n = self.check_entry(t, target)?;
        let aspace = self
            .named_address_space(&n)?
            .ok_or(SyscallError::InvalidArgument(
                "target thread has no address space",
            ))?;
        let m = self.check_modify(t, aspace.object)?;
        // The alert also lets the target learn something about the
        // sender, so the sender must be allowed to convey information to
        // it: L_T ⊑ L_{T'}^J.
        let target_label = self.named_label(&n)?.1.clone();
        self.stats_mut().label_checks += 1;
        if !t.label().leq_high_rhs(&target_label) {
            return Err(SyscallError::CannotModify(target.object));
        }
        self.post_alert(&n, &m, code)
    }

    /// Removes and returns the oldest pending alert for the calling
    /// thread: its own queue, whose alerts were label-checked when
    /// `thread_alert` posted them.
    pub(crate) fn sys_self_take_alert(
        &mut self,
        t: &Caller,
    ) -> Result<Option<Alert>, SyscallError> {
        let (_, body) = self.caller_mut(t)?;
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
        self.stats_mut().label_checks += 3;
        if !t.label().leq(&label) {
            return Err(SyscallError::Label(LabelError::LabelNotMonotonic));
        }
        if !label.leq(&clearance) {
            return Err(SyscallError::Label(LabelError::ClearanceBelowLabel));
        }
        if !clearance.leq(t.clearance()) {
            return Err(SyscallError::Label(LabelError::LabelExceedsClearance));
        }
        let mut gate = GateBody::new(clearance, entry_point);
        gate.address_space = address_space;
        gate.closure_args = closure_args;
        let body = ObjectBody::Gate(gate);
        self.create_object(t, container, label, PAGE_SIZE, descrip, body)
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
        let n = self.check_entry(t, gate)?;
        let (glabel, gclearance, gbody) = {
            let (label, g) = self.named_gate(&n)?;
            (label.clone(), g.clearance.clone(), g.clone())
        };
        self.stats_mut().label_checks += 5;
        self.charge_label_check(t.label().len() + glabel.len(), false);
        if !t.label().leq(&gclearance) {
            return Err(SyscallError::GateClearance(gate.object));
        }
        if !t.label().leq(&verify) {
            return Err(SyscallError::VerifyLabel);
        }
        let floor = t.label().ownership_union(&glabel);
        if !floor.leq(&requested) {
            return Err(SyscallError::Label(LabelError::LabelNotMonotonic));
        }
        if !requested.leq(&requested_clearance) {
            return Err(SyscallError::Label(LabelError::ClearanceBelowLabel));
        }
        let clearance_bound = t.clearance().lub(&gclearance);
        if !requested_clearance.leq(&clearance_bound) {
            return Err(SyscallError::Label(LabelError::LabelExceedsClearance));
        }

        self.stats_mut().gate_invocations += 1;
        let gate_cost = self.cost().gate_overhead;
        self.charge(gate_cost);
        self.account_context_switch(gbody.address_space);

        let (header, body) = self.caller_mut(t)?;
        header.label = requested.clone();
        body.clearance = requested_clearance.clone();
        if gbody.address_space.is_some() {
            body.address_space = gbody.address_space;
        }
        body.entry_point = gbody.entry_point;
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
        let n = self.check_entry(t, gate)?;
        Ok(self.named_gate(&n)?.1.clearance.clone())
    }

    // ----- devices (§4, §5.7) ------------------------------------------------

    /// Queues a frame for transmission (requires modify on the device).
    pub(crate) fn sys_net_transmit(
        &mut self,
        t: &Caller,
        device: ContainerEntry,
        frame: Vec<u8>,
    ) -> Result<(), SyscallError> {
        self.check_entry(t, device)?;
        let m = self.check_modify(t, device.object)?;
        self.write::<DeviceBody>(&m)?.1.tx_queue.push(frame);
        Ok(())
    }

    /// Takes the next received frame, if any (requires modify on the device,
    /// since consuming a frame changes its state).
    pub(crate) fn sys_net_receive(
        &mut self,
        t: &Caller,
        device: ContainerEntry,
    ) -> Result<Option<Vec<u8>>, SyscallError> {
        self.check_entry(t, device)?;
        let m = self.check_modify(t, device.object)?;
        let (_, d) = self.write::<DeviceBody>(&m)?;
        if d.rx_queue.is_empty() {
            Ok(None)
        } else {
            Ok(Some(d.rx_queue.remove(0)))
        }
    }
}
