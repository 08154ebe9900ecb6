//! Must pass: an alias syscall that delegates to a mediated one.
syscalls! {
    /// Reads an object's size.
    Read { entry: ContainerEntry } => sys_read, trap_read -> U64(u64);
    /// Same as `Read`, under another name.
    ReadAlias { entry: ContainerEntry } => sys_read_alias, trap_read_alias -> U64(u64);
}

impl Kernel {
    fn sys_read_alias(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        self.sys_read(tid, entry)
    }

    fn sys_read(&mut self, tid: ObjectId, entry: ContainerEntry) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, entry.object)?;
        self.obj(entry.object).map(|o| o.size())
    }
}
