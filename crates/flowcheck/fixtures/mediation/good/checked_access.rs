//! Must pass: the canonical shape — label check dominates the access.
syscalls! {
    /// Reads an object's size.
    Read { entry: ContainerEntry } => sys_read, trap_read -> U64(u64);
}

impl Kernel {
    fn sys_read(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_observe(&tl, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }

    fn check_entry(&mut self, tl: &Label, entry: ContainerEntry) -> Result<(), E> {
        self.check_observe(tl, entry.container)
    }

    fn check_observe(&mut self, tl: &Label, object: ObjectId) -> Result<(), E> {
        let olabel = self.label_of(object)?;
        if olabel.leq_high_rhs(tl) {
            Ok(())
        } else {
            Err(E::LabelDenied)
        }
    }
}
