//! Must fail: a table row's sys_* target reaches `self.objects` before
//! any label check — the rows, not a hand-written dispatch match, feed
//! the mediation rule.
syscalls! {
    /// Returns an object's size.
    Size { entry: ContainerEntry } => sys_size, trap_size -> U64(u64);
}

impl Kernel {
    fn sys_size(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        let size = self.objects.get(&entry.object).map(|o| o.size());
        self.check_observe(&tl, entry.object)?;
        size.ok_or(E::NoSuchObject(entry.object))
    }
}
