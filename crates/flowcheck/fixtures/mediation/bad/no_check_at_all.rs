//! Must fail: object-table access with no label check anywhere.
syscalls! {
    Steal steal sys_steal trap_steal (entry: ContainerEntry) -> Unit(());
}

impl Kernel {
    fn sys_steal(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        let (_, body) = self.obj_mut(entry.object)?;
        body.owner = t.tid;
        Ok(())
    }
}
