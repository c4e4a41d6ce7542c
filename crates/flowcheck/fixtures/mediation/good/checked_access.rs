//! Must pass: the canonical shape — label check dominates the access.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    pub(crate) fn sys_read(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.check_entry(&t.label, entry)?;
        self.check_observe(&t.label, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }

    fn check_entry(&mut self, tl: &Label, entry: ContainerEntry) -> Result<(), E> {
        self.check_observe(tl, entry.container)
    }

    fn check_observe(&mut self, tl: &Label, object: ObjectId) -> Result<(), E> {
        let olabel = self.label_of(object)?;
        if self.count_label_check(&olabel, tl, true, Access::Observe) {
            Ok(())
        } else {
            Err(E::LabelDenied)
        }
    }
}
