//! Must fail: the handler is checked, but it is `pub fn` — code outside
//! the crate could call it without trapping, so the call would be neither
//! charged, counted, refused for a halted caller, nor audited.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    pub fn sys_read(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.check_observe(&t.label, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
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
