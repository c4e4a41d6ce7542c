//! Must pass: record syscalls fetch the record first (the label rides
//! inside it), then check before the payload flows out.
syscalls! {
    PersistRead persist_read sys_persist_read trap_persist_read (key: u64) -> Bytes(Vec<u8>);
}

impl Kernel {
    fn sys_persist_read(&mut self, tid: ObjectId, key: u64) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        let bytes = self.persist_record(key)?.ok_or(E::NoSuchRecord(key))?;
        let (rlabel, payload) = Self::persist_unframe(key, &bytes)?;
        self.check_record_observe(&tl, &rlabel)?;
        Ok(payload.to_vec())
    }
}
