//! Must fail: `Quietly` is declared in the syscall table but its row
//! never routes it to a sys_* method (completeness violation).
syscalls! {
    /// Reads an object's size.
    Loudly { entry: ContainerEntry } => sys_loudly, trap_loudly -> U64(u64);
    /// Does nothing, outside the sys_* surface.
    Quietly { entry: ContainerEntry } => quietly, trap_quietly -> U64(u64);
}

impl Kernel {
    fn sys_loudly(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }

    fn quietly(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        self.sys_loudly(tid, entry)
    }
}
