//! Must pass: record syscalls fetch the record first (the label rides
//! inside it), then check before the payload flows out.
syscalls! {
    PersistRead persist_read sys_persist_read trap_persist_read (key: u64) -> Bytes(Vec<u8>);
}

impl Kernel {
    pub(crate) fn sys_persist_read(&mut self, t: &Caller, key: u64) -> R {
        let bytes = self.persist_record(key)?.ok_or(E::NoSuchRecord(key))?;
        let (rlabel, payload) = Self::persist_unframe(key, &bytes)?;
        self.check_record_observe(&t.label, &rlabel)?;
        Ok(payload.to_vec())
    }
}
