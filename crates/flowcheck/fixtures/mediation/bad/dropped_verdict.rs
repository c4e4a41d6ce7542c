//! Must fail: the arm counts and charges a label check on the object but
//! drops the verdict `count_label_check` returns, so the read can never be
//! refused on the object's own label. (The container check keeps the arm
//! clean under the check-before-access rule; only the dropped verdict is
//! wrong.)
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    fn sys_read(&mut self, t: &Caller, entry: ContainerEntry) -> R {
        self.check_observe(&t.label, entry.container)?;
        let olabel = self.label_of(entry.object)?;
        self.count_label_check(&olabel, &t.label, true, Access::Observe);
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
