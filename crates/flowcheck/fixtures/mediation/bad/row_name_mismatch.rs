//! Must fail: a copy-pasted row routes `trap_peek` to `sys_read` — the
//! wrapper's name promises one call and the dispatch arm runs another.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
    Peek peek sys_read trap_peek (entry: ContainerEntry) -> U64(u64);
}

impl Kernel {
    fn sys_read(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, entry.object)?;
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
