//! Must pass: ABI-edge state keyed by the calling thread is self access;
//! the ownership test (`owns`) mediates the category bind.
syscalls! {
    Take take sys_take trap_take -> Alert(Option<Alert>);
    Bind bind sys_bind trap_bind (category: Category, name: Name) -> Unit(());
}

impl Kernel {
    // flowcheck: exempt(pops the caller's own completion queue)
    fn sys_take(&mut self, tid: ObjectId) -> R {
        let queue = self.completions.get_mut(&tid);
        Ok(queue.and_then(|q| q.pop_front()))
    }

    fn sys_bind(&mut self, tid: ObjectId, category: Category, name: Name) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        if !tl.owns(category) {
            return Err(E::NotOwner);
        }
        self.remote_bindings.insert(category, name);
        Ok(())
    }
}
