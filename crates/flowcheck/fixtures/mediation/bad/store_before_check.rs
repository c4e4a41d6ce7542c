//! Must fail: writes an object into the store with no label check at all
//! — the library's deleted back door around the trap, had it been a
//! handler.
syscalls! {
    ObjSync obj_sync sys_obj_sync trap_obj_sync (id: ObjectId) -> Unit(());
}

impl Kernel {
    pub(crate) fn sys_obj_sync(&mut self, _t: &Caller, id: ObjectId) -> R {
        let store = self.store.as_mut().ok_or(E::NoStore)?;
        store.sync_object(id.raw())
    }
}
