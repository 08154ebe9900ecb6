//! Must fail: the table generator's dispatch arm pokes kernel state
//! inline instead of delegating to the row's sys_* method.
macro_rules! syscalls {
    ($($variant:ident { $($field:ident: $ty:ty),* } => $sys:ident, $trap:ident -> $res:ident($out:ty);)*) => {
        impl Kernel {
            fn dispatch_inner(&mut self, tid: ObjectId, call: Syscall) -> R {
                match call {
                    Syscall::Fast { id } => Ok(self.objects.get(&id).unwrap().size()),
                    $(Syscall::$variant { $($field),* } => self.$sys(tid $(, $field)*),)*
                }
            }
        }
    };
}

syscalls! {
    /// Reads an object's size.
    Slow { id: ObjectId } => sys_slow, trap_slow -> U64(u64);
}

impl Kernel {
    fn sys_slow(&mut self, tid: ObjectId, id: ObjectId) -> R {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, id)?;
        self.obj(id).map(|o| o.size())
    }
}
