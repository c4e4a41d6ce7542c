//! Must pass: runtime state reached through the calling thread's own
//! object (`thread_mut(t.tid)`) is self access;
//! the ownership test (`owns`) mediates the object-table access.
syscalls! {
    Take take sys_take trap_take -> Alert(Option<Alert>);
    Retire retire sys_retire trap_retire (category: Category, id: ObjectId) -> Unit(());
}

impl Kernel {
    // flowcheck: exempt(pops the caller's own completion queue)
    pub(crate) fn sys_take(&mut self, t: &Caller) -> R {
        let (_, body) = self.thread_mut(t.tid)?;
        Ok(body.runtime.completions.pop_front())
    }

    pub(crate) fn sys_retire(&mut self, t: &Caller, category: Category, id: ObjectId) -> R {
        if !t.label.owns(category) {
            return Err(E::NotOwner);
        }
        self.objects.remove(&id);
        Ok(())
    }
}
