//! Must fail: a check-free self-only syscall without an exempt marker.
//! Check-free is sometimes legitimate, but it must be *declared* so the
//! exemption list stays the complete audit surface.
syscalls! {
    Whoami whoami sys_whoami trap_whoami -> ObjectId(ObjectId);
}

impl Kernel {
    fn sys_whoami(&mut self, t: &Caller) -> R {
        Ok(t.tid)
    }
}
