//! Must pass: an alias syscall that delegates to a mediated one.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
    ReadAlias read_alias sys_read_alias trap_read_alias (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    fn sys_read_alias(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        self.sys_read(tid, entry)
    }

    fn sys_read(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }
}
