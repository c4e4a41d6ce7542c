//! Must pass: object creation mediated by create_object (which performs
//! check_modify + quota charging internally).
syscalls! {
    SegmentCreate segment_create sys_segment_create trap_segment_create (
        container: ObjectId,
        label: Label,
    ) -> ObjectId(ObjectId);
}

impl Kernel {
    fn sys_segment_create(&mut self, tid: ObjectId, container: ObjectId, label: Label) -> R {
        let (tl, tc) = self.calling_thread(tid)?;
        let id = self.create_object(&tl, &tc, container, label, KObjectBody::segment())?;
        Ok(id)
    }
}
