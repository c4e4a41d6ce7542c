//! Must fail: the syscall reads the object table before its label check.
syscalls! {
    Peek peek sys_peek trap_peek (entry: ContainerEntry) -> Bytes(Vec<u8>);
}

impl Kernel {
    fn sys_peek(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        let data = self.obj(entry.object)?.payload.clone();
        self.check_observe(&tl, entry.object)?;
        Ok(data)
    }
}
