//! Must pass: runtime state reached through the calling thread's own
//! object (`thread_mut(tid)`) is self access;
//! the ownership test (`owns`) mediates the object-table access.
syscalls! {
    Take take sys_take trap_take -> Alert(Option<Alert>);
    Retire retire sys_retire trap_retire (category: Category, id: ObjectId) -> Unit(());
}

impl Kernel {
    // flowcheck: exempt(pops the caller's own completion queue)
    fn sys_take(&mut self, tid: ObjectId) -> R {
        let (_, body) = self.thread_mut(tid)?;
        Ok(body.runtime.completions.pop_front())
    }

    fn sys_retire(&mut self, tid: ObjectId, category: Category, id: ObjectId) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        if !tl.owns(category) {
            return Err(E::NotOwner);
        }
        self.objects.remove(&id);
        Ok(())
    }
}
