//! Must pass: record syscalls fetch the record first (the label rides
//! inside it), then check before the payload flows out.
syscalls! {
    PersistRead persist_read sys_persist_read trap_persist_read (key: u64) -> Bytes(Vec<u8>);
}

impl Kernel {
    pub(crate) fn sys_persist_read(&mut self, t: &Caller, key: u64) -> R {
        let (record, mut checks) = self.persist_record(key)?;
        let (rlabel, payload) = record.ok_or(E::NoSuchRecord(key))?;
        checks.check_record_observe(&t.label, key, &rlabel)?;
        Ok(payload.to_vec())
    }
}
