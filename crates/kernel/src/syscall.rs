//! System-call errors.
//!
//! HiStar's kernel interface is deliberately narrow; every call either
//! succeeds or fails with one of the errors below.  What the kernel counts
//! (system calls, label checks, page faults — the structural numbers the
//! paper quotes, e.g. 317 system calls per fork/exec versus 127 per spawn)
//! lives in [`KernelStats`](crate::dispatch::KernelStats).

use crate::object::{ObjectId, ObjectType};
use histar_label::LabelError;

/// An error returned by a HiStar system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallError {
    /// The named object does not exist (or has been deallocated).
    NoSuchObject(ObjectId),
    /// The object exists but has a different type than the call requires.
    WrongType {
        /// The object's actual type.
        found: ObjectType,
        /// The type the call expected.
        expected: ObjectType,
    },
    /// The container entry's container does not hold a link to the object.
    NotInContainer {
        /// The container named by the entry.
        container: ObjectId,
        /// The object named by the entry.
        object: ObjectId,
    },
    /// A label check failed: the calling thread may not observe the object.
    CannotObserve(ObjectId),
    /// A label check failed: the calling thread may not modify the object.
    CannotModify(ObjectId),
    /// A label rule was violated (allocation, clearance or gate rules).
    Label(LabelError),
    /// The object's label may not contain `⋆` (only threads and gates may).
    OwnershipNotAllowed(ObjectType),
    /// The container (or an ancestor) forbids creating this object type.
    TypeForbidden(ObjectType),
    /// The container does not have enough spare quota.
    QuotaExceeded {
        /// The container charged for the allocation.
        container: ObjectId,
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// The object's quota is fixed and cannot be changed.
    QuotaFixed(ObjectId),
    /// A quota adjustment would make usage exceed the object's own quota,
    /// or reduce a quota below current usage.
    QuotaUnderflow(ObjectId),
    /// The object is immutable.
    Immutable(ObjectId),
    /// The object must have its quota fixed before being hard-linked again.
    QuotaNotFixed(ObjectId),
    /// The gate's clearance does not admit the calling thread.
    GateClearance(ObjectId),
    /// The verify label supplied at gate invocation is not below the
    /// thread's label.
    VerifyLabel,
    /// Access to memory that no mapping covers, or with the wrong
    /// permission; the user-level page-fault handler decides what happens.
    PageFault {
        /// Faulting virtual address.
        va: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// The thread is halted and cannot perform system calls.
    ThreadHalted(ObjectId),
    /// The calling thread does not own (`⋆`) the category the call needs
    /// ownership of (e.g. binding a category to its global exporter name).
    NotCategoryOwner(histar_label::Category),
    /// The root container cannot be unreferenced or given a finite quota.
    RootContainer,
    /// The call is malformed (bad argument, out-of-range offset, ...).
    InvalidArgument(&'static str),
    /// A handle-encoded argument names no live handle in the calling
    /// thread's handle table (never installed, closed, or revoked when the
    /// link it was resolved through was unreferenced).
    BadHandle(u32),
    /// A persist-record call reached a kernel with no single-level store
    /// attached (standalone kernels used in pure label tests).
    NoStore,
    /// The named persist record does not exist in the store.
    NoSuchRecord(u64),
    /// A label check failed: the calling thread may not observe the
    /// persist record.
    CannotObserveRecord(u64),
    /// A label check failed: the calling thread may not modify the
    /// persist record.
    CannotModifyRecord(u64),
    /// A persist record's on-store framing (label prefix) failed to
    /// decode.
    CorruptRecord(u64),
}

impl From<LabelError> for SyscallError {
    fn from(e: LabelError) -> SyscallError {
        SyscallError::Label(e)
    }
}

impl core::fmt::Display for SyscallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyscallError::NoSuchObject(id) => write!(f, "no such object: {id}"),
            SyscallError::WrongType { found, expected } => {
                write!(
                    f,
                    "wrong object type: found {}, expected {}",
                    found.name(),
                    expected.name()
                )
            }
            SyscallError::NotInContainer { container, object } => {
                write!(f, "container {container} has no link to {object}")
            }
            SyscallError::CannotObserve(id) => write!(f, "label check: cannot observe {id}"),
            SyscallError::CannotModify(id) => write!(f, "label check: cannot modify {id}"),
            SyscallError::Label(e) => write!(f, "label rule violated: {e}"),
            SyscallError::OwnershipNotAllowed(t) => {
                write!(f, "{} labels may not contain ownership", t.name())
            }
            SyscallError::TypeForbidden(t) => {
                write!(f, "container forbids creating {} objects", t.name())
            }
            SyscallError::QuotaExceeded {
                container,
                requested,
                available,
            } => write!(
                f,
                "quota exceeded in {container}: requested {requested}, available {available}"
            ),
            SyscallError::QuotaFixed(id) => write!(f, "quota of {id} is fixed"),
            SyscallError::QuotaUnderflow(id) => write!(f, "quota adjustment underflows {id}"),
            SyscallError::Immutable(id) => write!(f, "object {id} is immutable"),
            SyscallError::QuotaNotFixed(id) => {
                write!(f, "object {id} must have a fixed quota before linking")
            }
            SyscallError::GateClearance(id) => {
                write!(f, "gate {id} clearance does not admit the calling thread")
            }
            SyscallError::VerifyLabel => write!(f, "verify label exceeds the thread label"),
            SyscallError::PageFault { va, write } => {
                write!(
                    f,
                    "page fault at {va:#x} ({})",
                    if *write { "write" } else { "read" }
                )
            }
            SyscallError::ThreadHalted(id) => write!(f, "thread {id} is halted"),
            SyscallError::NotCategoryOwner(c) => {
                write!(f, "calling thread does not own category {c}")
            }
            SyscallError::RootContainer => {
                write!(f, "operation not permitted on the root container")
            }
            SyscallError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            SyscallError::BadHandle(h) => write!(f, "stale or unknown handle h{h}"),
            SyscallError::NoStore => write!(f, "no single-level store attached to this kernel"),
            SyscallError::NoSuchRecord(k) => write!(f, "no such persist record: {k:#x}"),
            SyscallError::CannotObserveRecord(k) => {
                write!(f, "label check: cannot observe persist record {k:#x}")
            }
            SyscallError::CannotModifyRecord(k) => {
                write!(f, "label check: cannot modify persist record {k:#x}")
            }
            SyscallError::CorruptRecord(k) => write!(f, "corrupt persist record: {k:#x}"),
        }
    }
}

impl std::error::Error for SyscallError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::KernelStats;

    #[test]
    fn display_is_informative() {
        let e = SyscallError::QuotaExceeded {
            container: ObjectId::from_raw(3),
            requested: 100,
            available: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("quota"));
        assert!(msg.contains("100"));
        assert!(SyscallError::RootContainer.to_string().contains("root"));
        assert!(SyscallError::PageFault {
            va: 0x1000,
            write: true
        }
        .to_string()
        .contains("write"));
    }

    #[test]
    fn label_error_converts() {
        let e: SyscallError = LabelError::LabelExceedsClearance.into();
        assert!(matches!(e, SyscallError::Label(_)));
    }

    #[test]
    fn stats_difference() {
        let mut a = KernelStats {
            label_checks: 5,
            ..Default::default()
        };
        a.invocations[0] = 10;
        let mut b = KernelStats {
            label_checks: 11,
            objects_created: 2,
            ..Default::default()
        };
        b.invocations[0] = 25;
        let d = b.since(&a);
        assert_eq!(d.total(), 15);
        assert_eq!(d.label_checks, 6);
        assert_eq!(d.objects_created, 2);
    }
}
