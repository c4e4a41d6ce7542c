//! Must pass: an alias syscall that delegates to a mediated one.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
    ReadAlias read_alias sys_read_alias trap_read_alias (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    pub(crate) fn sys_read_alias(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.sys_read(t, entry)
    }

    pub(crate) fn sys_read(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.check_observe(&t.label, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }
}
