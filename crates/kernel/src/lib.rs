//! The HiStar kernel: six object types and explicit information flow.
//!
//! This crate implements Sections 3 and 4 of *Making Information Flow
//! Explicit in HiStar* (OSDI 2006).  All operating-system abstractions are
//! layered on top of six low-level kernel object types — segments, threads,
//! address spaces, containers, gates and devices — and every object carries
//! an immutable label.  The kernel interface is designed so that:
//!
//! > The contents of object A can only affect object B if, for every
//! > category c in which A is more tainted than B, a thread owning c takes
//! > part in the process.
//!
//! The kernel here is a *user-space reproduction*: threads are driven
//! cooperatively by the caller (the untrusted Unix library in
//! `histar-unix`), and hardware is simulated by `histar-sim`.  What is
//! preserved exactly is the object model, the system-call surface, and the
//! label checks performed on every operation.
//!
//! # Module map
//!
//! * [`object`] — object IDs, headers, flags, container entries.
//! * [`bodies`] — the per-type payloads of the six object types.
//! * [`syscall`] — the syscall error type.
//! * [`kernel`] — the [`Kernel`] itself: object table plus the syscall
//!   implementations with their label checks.
//! * [`serialize`] — binary encoding of kernel objects for the single-level
//!   store.
//! * [`machine`] — a [`machine::Machine`] bundles a kernel with a
//!   single-level store and a simulated clock, providing boot, snapshot and
//!   recovery.
//! * [`dispatch`] — the trap-style syscall ABI: a [`dispatch::Syscall`]
//!   value per entry point, decoded and executed only by
//!   [`Kernel::dispatch`](kernel::Kernel::dispatch) /
//!   [`Kernel::dispatch_batch`](kernel::Kernel::dispatch_batch), with
//!   the kernel's one stats struct ([`KernelStats`]) and a bounded audit
//!   trace.
//! * [`abi`] — the batched submission/completion lanes over dispatch
//!   (io_uring-style: one trap cost per batch) and per-thread capability
//!   [`abi::Handle`]s installed via reachability-checked resolution.
//! * [`sched`] — a deterministic round-robin [`sched::Scheduler`] stepping
//!   user-level programs one quantum at a time over any
//!   [`sched::SchedContext`], plus `Machine::run_until`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod bodies;
pub mod dispatch;
#[cfg(test)]
mod dispatch_equivalence;
pub mod kernel;
pub mod machine;
pub mod object;
pub mod sched;
pub mod serialize;
pub mod syscall;

pub use abi::{
    Completion, CompletionKind, Handle, HandleTable, SqEntry, SqOp, SubmissionQueue,
    KERNEL_USER_DATA,
};
pub use dispatch::{KernelStats, Syscall, SyscallResult, TraceRecord};
pub use kernel::Kernel;
pub use machine::{Machine, MachineConfig};
pub use object::{ContainerEntry, ObjectFlags, ObjectId, ObjectType};
pub use sched::{
    RunLimit, SchedConfig, SchedContext, SchedStats, ScheduleReport, Scheduler, Step, StopReason,
};
pub use syscall::SyscallError;

/// Convenience result alias for kernel operations.
pub type Result<T> = core::result::Result<T, SyscallError>;
