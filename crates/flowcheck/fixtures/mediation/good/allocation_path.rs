//! Must pass: object creation mediated by create_object (which performs
//! check_modify + quota charging internally).
syscalls! {
    /// Creates a segment.
    SegmentCreate {
        /// The container the segment is created in.
        container: ObjectId,
        /// The segment's label.
        label: Label,
    } => sys_segment_create, trap_segment_create -> ObjectId(ObjectId);
}

impl Kernel {
    fn sys_segment_create(&mut self, tid: ObjectId, container: ObjectId, label: Label) -> R {
        let (tl, tc) = self.calling_thread(tid)?;
        let id = self.create_object(&tl, &tc, container, label, KObjectBody::segment())?;
        Ok(id)
    }
}
