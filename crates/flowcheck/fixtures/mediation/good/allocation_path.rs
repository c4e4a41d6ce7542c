//! Must pass: object creation mediated by create_object (which performs
//! check_modify + quota charging internally).
syscalls! {
    SegmentCreate segment_create sys_segment_create trap_segment_create (
        container: ObjectId,
        label: Label,
    ) -> ObjectId(ObjectId);
}

impl Kernel {
    pub(crate) fn sys_segment_create(&mut self, t: &Caller, container: ObjectId, label: Label) -> R {
        let id = self.create_object(&t.label, &t.clearance, container, label, KObjectBody::segment())?;
        Ok(id)
    }
}
