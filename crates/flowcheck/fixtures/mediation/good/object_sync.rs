//! Must pass: an object handler may write the object into the store once
//! the entry is verified and the object modify-checked — the governing
//! label is the object's, so no `check_record_*` is owed.
syscalls! {
    ObjSync obj_sync sys_obj_sync trap_obj_sync (entry: ContainerEntry) -> Unit(());
}

impl Kernel {
    pub(crate) fn sys_obj_sync(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.check_entry(&t.label, entry)?;
        self.check_modify(&t.label, entry.object)?;
        let obj = self.objects.get(&entry.object).ok_or(E::NoSuchObject)?;
        let store = self.store.as_mut().ok_or(E::NoStore)?;
        store.put(entry.object.raw(), encode_object(obj));
        store.sync_object(entry.object.raw())
    }
}
