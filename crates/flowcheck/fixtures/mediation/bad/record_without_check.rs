//! Must fail: returns a persist record's payload without any
//! check_record_* call.
syscalls! {
    PersistPeek persist_peek sys_persist_peek trap_persist_peek (key: u64) -> Bytes(Vec<u8>);
}

impl Kernel {
    fn sys_persist_peek(&mut self, t: &Caller, key: u64) -> R {
        let bytes = self.persist_record(key)?.ok_or(E::NoSuchRecord(key))?;
        let (_, payload) = Self::persist_unframe(key, &bytes)?;
        Ok(payload.to_vec())
    }
}
