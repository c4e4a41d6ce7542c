//! Must fail: the console read spelled as a path is the same read as the
//! method call — unchecked, uncharged and off the audit stream.
pub fn create_service_gate(kernel: &mut Kernel, thread: ObjectId, container: ObjectId) -> Result<ObjectId> {
    let label = Kernel::thread_label(kernel, thread)?;
    kernel.trap_gate_create(thread, container, label, Label::default_clearance(), None, 0, vec![], "service")
}
