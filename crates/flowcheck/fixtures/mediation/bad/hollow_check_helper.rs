//! Must fail: the trusted helper `check_observe` compares no labels —
//! a mediation rule that trusts it would be circular.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    fn sys_read(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.check_observe(&t.label, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }

    fn check_observe(&mut self, _tl: &Label, _object: ObjectId) -> Result<(), E> {
        Ok(())
    }
}
