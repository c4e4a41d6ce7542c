//! Must fail: the trusted helper `check_observe` compares no labels —
//! a mediation rule that trusts it would be circular.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    fn sys_read(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }

    fn check_observe(&mut self, _tl: &Label, _object: ObjectId) -> Result<(), E> {
        Ok(())
    }
}
