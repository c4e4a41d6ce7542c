//! Must pass: a check-free self-only syscall carrying its marker.
syscalls! {
    Whoami whoami sys_whoami trap_whoami -> ObjectId(ObjectId);
}

impl Kernel {
    // flowcheck: exempt(returns the caller's own id; self-only metadata)
    pub(crate) fn sys_whoami(&mut self, t: &Caller) -> R {
        Ok(t.tid)
    }
}
