//! Must fail: a gate-call helper reads the caller's label off the kernel
//! instead of asking for it — no crossing charged, no audit record, and
//! nothing stops the id from being another thread's.
pub fn create_service_gate(kernel: &mut Kernel, thread: ObjectId, container: ObjectId) -> Result<ObjectId> {
    let label = kernel.thread_label(thread)?;
    kernel.trap_gate_create(thread, container, label, Label::default_clearance(), None, 0, vec![], "service")
}
