//! Must fail: the syscall reads the object table before its label check.
syscalls! {
    Peek peek sys_peek trap_peek (entry: ContainerEntry) -> Bytes(Vec<u8>);
}

impl Kernel {
    fn sys_peek(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        let data = self.obj(entry.object)?.payload.clone();
        self.check_observe(&t.label, entry.object)?;
        Ok(data)
    }
}
