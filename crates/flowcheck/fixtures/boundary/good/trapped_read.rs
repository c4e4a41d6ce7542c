//! Must pass: the library asks the kernel for its own label by trap; the
//! console read appears only in the test, which is an observer.
pub fn create_service_gate(kernel: &mut Kernel, thread: ObjectId, container: ObjectId) -> Result<ObjectId> {
    let label = kernel.trap_self_get_label(thread)?;
    kernel.trap_gate_create(thread, container, label, Label::default_clearance(), None, 0, vec![], "service")
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_gate_carries_the_creators_label() {
        let gate = create_service_gate(&mut kernel, thread, container).unwrap();
        assert_eq!(kernel.raw_object(gate).unwrap().header.label, kernel.thread_label(thread).unwrap());
    }
}
