//! Trap-style system-call dispatch: the single choke point between user
//! code and the kernel.
//!
//! Real HiStar threads reach the kernel through one trap instruction; every
//! call crosses the same boundary, where it can be checked, counted and
//! audited.  This module reproduces that boundary for the simulated kernel:
//! a [`Syscall`] value names one of the `sys_*` entry points ([`SYSCALL_COUNT`] of them) together
//! with its arguments, and [`Kernel::dispatch`] is the only place where the
//! value is decoded and executed.  Dispatch charges the call's CPU cost
//! (via the underlying `sys_*` implementation), maintains per-syscall
//! counters in [`KernelStats`], and — when tracing is enabled — appends a
//! [`TraceRecord`] to a bounded [`Ring`](histar_obs::Ring), giving the
//! machine an auditable `(tick, thread, syscall, ok)` stream.
//!
//! The ABI is written down once, in the `syscalls!` table below: one row
//! per syscall names its [`Syscall`] variant and typed fields, the
//! `sys_*` body that implements it, its `trap_*` wrapper and its
//! [`SyscallResult`] variant.  Everything else — the enum, the name list,
//! the dispatch match and the wrappers — is generated from the rows.
//!
//! The `trap_*` methods are the user-level calling convention: thin typed
//! wrappers that build the [`Syscall`] value, trap through
//! [`Kernel::dispatch`], and unwrap the typed [`SyscallResult`].  The
//! `sys_*` bodies are crate-private, so every library layer
//! (`histar-unix`, `histar-auth`, `histar-apps`, `histar-net`,
//! `histar-exporter`) reaches the kernel through dispatch and the whole
//! system's kernel interaction is visible in one stream.

use crate::abi::{Completion, CompletionKind, SqEntry, SqOp, SubmissionQueue};
use crate::bodies::{Alert, Mapping};
use crate::kernel::{GateEntryResult, Kernel, PageFaultResolution, RemoteCategoryName};
use crate::object::{ContainerEntry, ObjectId, ObjectType, METADATA_LEN};
use crate::syscall::SyscallError;
use histar_label::{Category, Label};
use histar_obs::{Histogram, Span};

/// Generates the syscall ABI from one table.  Each row reads
///
/// ```text
/// /// docs
/// Variant { /// docs
///           field: Type [as WrapperParam], … }
///     => sys_body, trap_wrapper -> ResultVariant(Output);
/// ```
///
/// and yields a [`Syscall`] variant with those fields, an entry in
/// [`SYSCALL_NAMES`] (the body's name without `sys_`), an arm of
/// `dispatch_inner` calling `self.sys_body(tid, field, …)` and wrapping
/// its `Output` into `SyscallResult::ResultVariant`, and the public
/// `trap_wrapper(tid, field, …) -> Result<Output, SyscallError>`.  A
/// wrapper takes each field as its own type, or as `WrapperParam` when
/// given, converted with `Into`.  Unit variants omit the braces.
macro_rules! syscalls {
    (@param $ty:ty as $param:ty) => { $param };
    (@param $ty:ty) => { $ty };
    (@wrap Unit) => { |()| SyscallResult::Unit };
    (@wrap Info) => {
        |(object_type, descrip, quota)| SyscallResult::Info { object_type, descrip, quota }
    };
    (@wrap $res:ident) => { SyscallResult::$res };
    (@unwrap Unit, $result:expr) => {
        match $result {
            SyscallResult::Unit => (),
            other => result_mismatch(other),
        }
    };
    (@unwrap Info, $result:expr) => {
        match $result {
            SyscallResult::Info { object_type, descrip, quota } => (object_type, descrip, quota),
            other => result_mismatch(other),
        }
    };
    (@unwrap $res:ident, $result:expr) => {
        match $result {
            SyscallResult::$res(value) => value,
            other => result_mismatch(other),
        }
    };
    ($(
        $(#[$doc:meta])*
        $variant:ident $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty $(as $param:ty)?),* $(,)? })?
            => $sys:ident, $trap:ident -> $res:ident($out:ty);
    )*) => {
        /// One system call with its arguments — what a real thread would place in
        /// registers before trapping.
        ///
        /// Every variant corresponds 1:1 to a `sys_*` method on [`Kernel`]; the
        /// calling thread is supplied separately to [`Kernel::dispatch`].
        #[derive(Clone, Debug, PartialEq)]
        pub enum Syscall {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        /// Number of distinct system calls in the ABI.
        pub const SYSCALL_COUNT: usize = [$(stringify!($sys)),*].len();

        /// The names of all system calls, indexed by [`Syscall::index`].
        pub const SYSCALL_NAMES: [&str; SYSCALL_COUNT] = [$(stringify!($sys).split_at(4).1),*];

        impl Syscall {
            /// The call's index into [`SYSCALL_NAMES`] and the per-syscall stats.
            pub fn index(&self) -> usize {
                enum Index { $($variant),* }
                match self {
                    $(Syscall::$variant { .. } => Index::$variant as usize,)*
                }
            }

            /// The call's name (stable, used in traces and stats dumps).
            pub fn name(&self) -> &'static str {
                SYSCALL_NAMES[self.index()]
            }

            /// Applies `visit` to every container-entry argument, in field
            /// order, stopping at the first error.
            fn visit_entries(&mut self, visit: &mut EntryVisitor<'_>) -> Result<(), SyscallError> {
                match self {
                    $(Syscall::$variant { $($($field),*)? } => {
                        $($(EntryArgs::visit($field, visit)?;)*)?
                    })*
                }
                Ok(())
            }
        }

        impl Kernel {
            fn dispatch_inner(
                &mut self,
                tid: ObjectId,
                call: Syscall,
            ) -> Result<SyscallResult, SyscallError> {
                match call {
                    $(Syscall::$variant { $($($field),*)? } => {
                        self.$sys(tid $($(, $field)*)?).map(syscalls!(@wrap $res))
                    })*
                }
            }
        }

        /// The `trap_*` calling convention: typed wrappers over
        /// [`Kernel::dispatch`].  Each call crosses the dispatch boundary,
        /// so it is counted and traced.
        #[allow(clippy::too_many_arguments)]
        impl Kernel {
            $(
                #[doc = concat!("Traps `", stringify!($sys), "`.")]
                pub fn $trap(
                    &mut self,
                    tid: ObjectId
                    $($(, $field: syscalls!(@param $ty $(as $param)?))*)?
                ) -> Result<$out, SyscallError> {
                    let call = Syscall::$variant { $($($field: $field.into()),*)? };
                    Ok(syscalls!(@unwrap $res, self.dispatch(tid, call)?))
                }
            )*
        }
    };
}

/// A dispatch result whose variant does not match its call's table row.
fn result_mismatch(result: SyscallResult) -> ! {
    unreachable!("dispatch result variant mismatch: {result:?}")
}

/// Visitor over a call's container-entry arguments.
type EntryVisitor<'a> = dyn FnMut(&mut ContainerEntry) -> Result<(), SyscallError> + 'a;

/// Syscall argument types, by the container entries they carry: those
/// entries may be handle-encoded, and dispatch resolves them before the
/// `sys_*` body runs.
trait EntryArgs {
    fn visit(&mut self, _visit: &mut EntryVisitor<'_>) -> Result<(), SyscallError> {
        Ok(())
    }
}

impl EntryArgs for ContainerEntry {
    fn visit(&mut self, visit: &mut EntryVisitor<'_>) -> Result<(), SyscallError> {
        visit(self)
    }
}

impl EntryArgs for Option<ContainerEntry> {
    fn visit(&mut self, visit: &mut EntryVisitor<'_>) -> Result<(), SyscallError> {
        self.as_mut().map_or(Ok(()), visit)
    }
}

impl EntryArgs for Mapping {
    fn visit(&mut self, visit: &mut EntryVisitor<'_>) -> Result<(), SyscallError> {
        visit(&mut self.segment)
    }
}

impl EntryArgs for bool {}
impl EntryArgs for u8 {}
impl EntryArgs for u64 {}
impl EntryArgs for i64 {}
impl EntryArgs for [u8; METADATA_LEN] {}
impl EntryArgs for Vec<u8> {}
impl EntryArgs for Vec<u64> {}
impl EntryArgs for String {}
impl EntryArgs for ObjectId {}
impl EntryArgs for Category {}
impl EntryArgs for Label {}
impl EntryArgs for Option<Label> {}
impl EntryArgs for RemoteCategoryName {}

syscalls! {
    /// `sys_create_category`.
    CreateCategory => sys_create_category, trap_create_category -> Category(Category);
    /// `sys_self_set_label`.
    SelfSetLabel {
        /// The requested new thread label.
        label: Label,
    } => sys_self_set_label, trap_self_set_label -> Unit(());
    /// `sys_self_set_clearance`.
    SelfSetClearance {
        /// The requested new clearance.
        clearance: Label,
    } => sys_self_set_clearance, trap_self_set_clearance -> Unit(());
    /// `sys_self_get_label`.
    SelfGetLabel => sys_self_get_label, trap_self_get_label -> Label(Label);
    /// `sys_self_get_clearance`.
    SelfGetClearance => sys_self_get_clearance, trap_self_get_clearance -> Label(Label);
    /// `sys_container_create`.
    ContainerCreate {
        /// Parent container.
        parent: ObjectId,
        /// Label of the new container.
        label: Label,
        /// Descriptive string.
        descrip: String as &str,
        /// Object-type mask forbidden under the new container.
        avoid_types: u8,
        /// Quota charged to the parent.
        quota: u64,
    } => sys_container_create, trap_container_create -> ObjectId(ObjectId);
    /// `sys_obj_unref`.
    ObjUnref {
        /// The container entry to unlink.
        entry: ContainerEntry,
    } => sys_obj_unref, trap_obj_unref -> Unit(());
    /// `sys_hard_link`.
    HardLink {
        /// Source container entry.
        entry: ContainerEntry,
        /// Destination container.
        dst: ObjectId,
    } => sys_hard_link, trap_hard_link -> Unit(());
    /// `sys_container_quota_avail`.
    ContainerQuotaAvail {
        /// The container to query.
        container: ObjectId,
    } => sys_container_quota_avail, trap_container_quota_avail -> U64(u64);
    /// `sys_container_get_parent`.
    ContainerGetParent {
        /// The container to query.
        container: ObjectId,
    } => sys_container_get_parent, trap_container_get_parent -> ObjectId(ObjectId);
    /// `sys_container_list`.
    ContainerList {
        /// The container to list.
        container: ObjectId,
    } => sys_container_list, trap_container_list -> ObjectIds(Vec<ObjectId>);
    /// `sys_quota_move`.
    QuotaMove {
        /// The container quota moves out of (or back into).
        container: ObjectId,
        /// The object quota moves into (or out of).
        object: ObjectId,
        /// Bytes to move (negative moves quota back to the container).
        delta: i64,
    } => sys_quota_move, trap_quota_move -> Unit(());
    /// `sys_obj_get_label`.
    ObjGetLabel {
        /// The object, named through a container entry.
        entry: ContainerEntry,
    } => sys_obj_get_label, trap_obj_get_label -> Label(Label);
    /// `sys_obj_get_info`.
    ObjGetInfo {
        /// The object, named through a container entry.
        entry: ContainerEntry,
    } => sys_obj_get_info, trap_obj_get_info -> Info((ObjectType, String, u64));
    /// `sys_obj_get_metadata`.
    ObjGetMetadata {
        /// The object, named through a container entry.
        entry: ContainerEntry,
    } => sys_obj_get_metadata, trap_obj_get_metadata -> Metadata([u8; METADATA_LEN]);
    /// `sys_obj_set_metadata`.
    ObjSetMetadata {
        /// The object, named through a container entry.
        entry: ContainerEntry,
        /// The new 64-byte metadata area.
        metadata: [u8; METADATA_LEN],
    } => sys_obj_set_metadata, trap_obj_set_metadata -> Unit(());
    /// `sys_obj_set_immutable`.
    ObjSetImmutable {
        /// The object, named through a container entry.
        entry: ContainerEntry,
    } => sys_obj_set_immutable, trap_obj_set_immutable -> Unit(());
    /// `sys_obj_set_fixed_quota`.
    ObjSetFixedQuota {
        /// The object, named through a container entry.
        entry: ContainerEntry,
    } => sys_obj_set_fixed_quota, trap_obj_set_fixed_quota -> Unit(());
    /// `sys_segment_create`.
    SegmentCreate {
        /// The container the segment is created in.
        container: ObjectId,
        /// The segment's label.
        label: Label,
        /// Initial length in bytes.
        len: u64,
        /// Descriptive string.
        descrip: String as &str,
    } => sys_segment_create, trap_segment_create -> ObjectId(ObjectId);
    /// `sys_segment_resize`.
    SegmentResize {
        /// The segment, named through a container entry.
        entry: ContainerEntry,
        /// The new length.
        len: u64,
    } => sys_segment_resize, trap_segment_resize -> Unit(());
    /// `sys_segment_read`.
    SegmentRead {
        /// The segment, named through a container entry.
        entry: ContainerEntry,
        /// Byte offset of the read.
        offset: u64,
        /// Bytes to read.
        len: u64,
    } => sys_segment_read, trap_segment_read -> Bytes(Vec<u8>);
    /// `sys_segment_write`.
    SegmentWrite {
        /// The segment, named through a container entry.
        entry: ContainerEntry,
        /// Byte offset of the write.
        offset: u64,
        /// The bytes to write.
        data: Vec<u8> as &[u8],
    } => sys_segment_write, trap_segment_write -> Unit(());
    /// `sys_segment_len`.
    SegmentLen {
        /// The segment, named through a container entry.
        entry: ContainerEntry,
    } => sys_segment_len, trap_segment_len -> U64(u64);
    /// `sys_segment_copy`.
    SegmentCopy {
        /// Source segment.
        src: ContainerEntry,
        /// Destination container.
        dst_container: ObjectId,
        /// Label of the copy.
        label: Label,
        /// Descriptive string.
        descrip: String as &str,
    } => sys_segment_copy, trap_segment_copy -> ObjectId(ObjectId);
    /// `sys_as_create`.
    AsCreate {
        /// The container the address space is created in.
        container: ObjectId,
        /// The address space's label.
        label: Label,
        /// Descriptive string.
        descrip: String as &str,
    } => sys_as_create, trap_as_create -> ObjectId(ObjectId);
    /// `sys_as_copy`.
    AsCopy {
        /// Source address space.
        src: ContainerEntry,
        /// Destination container.
        dst_container: ObjectId,
        /// Label of the copy.
        label: Label,
        /// Descriptive string.
        descrip: String as &str,
    } => sys_as_copy, trap_as_copy -> ObjectId(ObjectId);
    /// `sys_as_map`.
    AsMap {
        /// The address space, named through a container entry.
        aspace: ContainerEntry,
        /// The mapping to insert or replace.
        mapping: Mapping,
    } => sys_as_map, trap_as_map -> Unit(());
    /// `sys_as_unmap`.
    AsUnmap {
        /// The address space, named through a container entry.
        aspace: ContainerEntry,
        /// Virtual address of the mapping to remove.
        va: u64,
    } => sys_as_unmap, trap_as_unmap -> Unit(());
    /// `sys_self_set_as`.
    SelfSetAs {
        /// The address space to switch to.
        aspace: ContainerEntry,
    } => sys_self_set_as, trap_self_set_as -> Unit(());
    /// `sys_page_fault`.
    PageFault {
        /// The faulting virtual address.
        va: u64,
        /// Whether the access was a write.
        write: bool,
    } => sys_page_fault, trap_page_fault -> PageFault(PageFaultResolution);
    /// `sys_thread_create`.
    ThreadCreate {
        /// The container the thread is created in.
        container: ObjectId,
        /// The new thread's label.
        label: Label,
        /// The new thread's clearance.
        clearance: Label,
        /// Abstract entry point.
        entry_point: u64,
        /// Descriptive string.
        descrip: String as &str,
    } => sys_thread_create, trap_thread_create -> ObjectId(ObjectId);
    /// `sys_self_local_segment`.
    SelfLocalSegment => sys_self_local_segment, trap_self_local_segment -> ObjectId(ObjectId);
    /// `sys_self_halt`.
    SelfHalt => sys_self_halt, trap_self_halt -> Unit(());
    /// `sys_thread_alert`.
    ThreadAlert {
        /// The target thread, named through a container entry.
        target: ContainerEntry,
        /// The alert code (Unix signal number, for the library).
        code: u64,
    } => sys_thread_alert, trap_thread_alert -> Unit(());
    /// `sys_self_take_alert`.
    SelfTakeAlert => sys_self_take_alert, trap_self_take_alert -> Alert(Option<Alert>);
    /// `sys_thread_get_label`.
    ThreadGetLabel {
        /// The target thread, named through a container entry.
        target: ContainerEntry,
    } => sys_thread_get_label, trap_thread_get_label -> Label(Label);
    /// `sys_gate_create`.
    GateCreate {
        /// The container the gate is created in.
        container: ObjectId,
        /// The gate's label (may contain `⋆`).
        label: Label,
        /// The gate's clearance.
        clearance: Label,
        /// Address space entering threads switch to, if any.
        address_space: Option<ContainerEntry>,
        /// Entry point for entering threads.
        entry_point: u64,
        /// Closure arguments passed to the entry point.
        closure_args: Vec<u64>,
        /// Descriptive string.
        descrip: String as &str,
    } => sys_gate_create, trap_gate_create -> ObjectId(ObjectId);
    /// `sys_gate_enter`.
    GateEnter {
        /// The gate to invoke.
        gate: ContainerEntry,
        /// The label the thread requests on entry.
        requested: Label,
        /// The clearance the thread requests on entry.
        requested_clearance: Label,
        /// The verify label proving category possession to the gate code.
        verify: Label,
    } => sys_gate_enter, trap_gate_enter -> GateEntry(GateEntryResult);
    /// `sys_gate_clearance`.
    GateClearance {
        /// The gate to query.
        gate: ContainerEntry,
    } => sys_gate_clearance, trap_gate_clearance -> Label(Label);
    /// `sys_category_bind_remote`.
    CategoryBindRemote {
        /// The local category.
        category: Category,
        /// Its self-certifying global name.
        name: RemoteCategoryName,
    } => sys_category_bind_remote, trap_category_bind_remote -> Unit(());
    /// `sys_category_get_remote`.
    CategoryGetRemote {
        /// The local category.
        category: Category,
    } => sys_category_get_remote, trap_category_get_remote -> RemoteName(Option<RemoteCategoryName>);
    /// `sys_category_resolve_remote`.
    CategoryResolveRemote {
        /// The global name to resolve.
        name: RemoteCategoryName,
    } => sys_category_resolve_remote, trap_category_resolve_remote -> ResolvedCategory(Option<Category>);
    /// `sys_net_mac`.
    NetMac {
        /// The device, named through a container entry.
        device: ContainerEntry,
    } => sys_net_mac, trap_net_mac -> Mac([u8; 6]);
    /// `sys_net_transmit`.
    NetTransmit {
        /// The device, named through a container entry.
        device: ContainerEntry,
        /// The frame to queue for transmission.
        frame: Vec<u8>,
    } => sys_net_transmit, trap_net_transmit -> Unit(());
    /// `sys_net_receive`.
    NetReceive {
        /// The device, named through a container entry.
        device: ContainerEntry,
    } => sys_net_receive, trap_net_receive -> Frame(Option<Vec<u8>>);
    /// `sys_persist_put`: create or update a labeled record in the
    /// single-level store's persist namespace.
    PersistPut {
        /// The record key (must lie in the persist namespace).
        key: u64,
        /// Label for a newly created record (ignored when the record
        /// exists — a record's label is immutable, like any non-thread
        /// kernel object's).
        label: Option<Label>,
        /// Byte offset of the write within the record payload.
        offset: u64,
        /// The bytes to write.
        data: Vec<u8> as &[u8],
    } => sys_persist_put, trap_persist_put -> Unit(());
    /// `sys_persist_read`: read bytes out of a persist record.
    PersistRead {
        /// The record key.
        key: u64,
        /// Byte offset of the read.
        offset: u64,
        /// Bytes to read (`u64::MAX` reads to the end of the record).
        len: u64,
    } => sys_persist_read, trap_persist_read -> Bytes(Vec<u8>);
    /// `sys_persist_delete`: remove a persist record.
    PersistDelete {
        /// The record key.
        key: u64,
    } => sys_persist_delete, trap_persist_delete -> Unit(());
    /// `sys_persist_scan`: range-scan the persist namespace, returning
    /// each observable record's key and payload.
    PersistScan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Exclusive upper key bound.
        hi: u64,
        /// Maximum number of records to return.
        max: u64,
    } => sys_persist_scan, trap_persist_scan -> Records(Vec<(u64, Vec<u8>)>);
    /// `sys_persist_sync`: make the named records durable (a write-ahead
    /// log append per record — HiStar's `fsync` primitive for data living
    /// directly in the store).
    PersistSync {
        /// The record keys to sync; keys with no record log a durable
        /// deletion instead.
        keys: Vec<u64>,
    } => sys_persist_sync, trap_persist_sync -> Unit(());
    /// `sys_persist_get_label`: the label a persist record carries.
    PersistGetLabel {
        /// The record key.
        key: u64,
    } => sys_persist_get_label, trap_persist_get_label -> Label(Label);
    /// `sys_segment_watch`: register a one-shot readiness watch on a
    /// segment; the kernel pushes an `ObjectReady` completion when the
    /// segment is next written or deallocated.
    SegmentWatch {
        /// The segment, named through a container entry.
        entry: ContainerEntry,
    } => sys_segment_watch, trap_segment_watch -> Unit(());
}

/// The typed result of a successful [`Kernel::dispatch`].
#[derive(Clone, Debug, PartialEq)]
pub enum SyscallResult {
    /// The call returns nothing.
    Unit,
    /// A freshly allocated category.
    Category(Category),
    /// A label (thread label, clearance, object label).
    Label(Label),
    /// An object ID (created object, parent container, local segment).
    ObjectId(ObjectId),
    /// A plain number (quota, segment length).
    U64(u64),
    /// A list of object IDs (container listing).
    ObjectIds(Vec<ObjectId>),
    /// Object type, description and quota (`obj_get_info`).
    Info {
        /// The object's type.
        object_type: ObjectType,
        /// The object's descriptive string.
        descrip: String,
        /// The object's quota.
        quota: u64,
    },
    /// A 64-byte metadata area.
    Metadata([u8; METADATA_LEN]),
    /// Raw bytes (segment reads).
    Bytes(Vec<u8>),
    /// A resolved page fault.
    PageFault(PageFaultResolution),
    /// The outcome of a gate entry.
    GateEntry(GateEntryResult),
    /// An alert, if one was pending.
    Alert(Option<Alert>),
    /// A category's global name, if bound.
    RemoteName(Option<RemoteCategoryName>),
    /// The local category a global name resolves to, if any.
    ResolvedCategory(Option<Category>),
    /// A device MAC address.
    Mac([u8; 6]),
    /// A received frame, if one was queued.
    Frame(Option<Vec<u8>>),
    /// Persist records from a range scan: `(key, payload)` pairs.
    Records(Vec<(u64, Vec<u8>)>),
}

impl SyscallResult {
    /// Unwraps an [`ObjectId`] result; panics on any other variant.
    /// Dispatch guarantees the variant matches the submitted call, so the
    /// panic marks a caller/completion pairing bug, not a runtime error.
    pub fn into_object_id(self) -> ObjectId {
        match self {
            SyscallResult::ObjectId(id) => id,
            other => panic!("expected an ObjectId completion, got {other:?}"),
        }
    }

    /// Unwraps a [`Label`] result; panics on any other variant.
    pub fn into_label(self) -> Label {
        match self {
            SyscallResult::Label(l) => l,
            other => panic!("expected a Label completion, got {other:?}"),
        }
    }

    /// Unwraps a [`Category`] result; panics on any other variant.
    pub fn into_category(self) -> Category {
        match self {
            SyscallResult::Category(c) => c,
            other => panic!("expected a Category completion, got {other:?}"),
        }
    }

    /// Unwraps a byte-vector result; panics on any other variant.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            SyscallResult::Bytes(b) => b,
            other => panic!("expected a Bytes completion, got {other:?}"),
        }
    }

    /// Unwraps a received-frame result; panics on any other variant.
    pub fn into_frame(self) -> Option<Vec<u8>> {
        match self {
            SyscallResult::Frame(f) => f,
            other => panic!("expected a Frame completion, got {other:?}"),
        }
    }
}

/// The kernel's activity counters: one struct, read through
/// [`Kernel::stats`].
///
/// The per-syscall, batch and handle counters are maintained by
/// [`Kernel::dispatch`]; the label-check, object, gate, fault and
/// context-switch counters by the `sys_*` bodies behind it.  Exported as
/// `dispatch.*` and `kernel.*` metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelStats {
    /// Invocations per syscall, indexed like [`SYSCALL_NAMES`].
    pub invocations: [u64; SYSCALL_COUNT],
    /// Errors per syscall, indexed like [`SYSCALL_NAMES`].
    pub errors: [u64; SYSCALL_COUNT],
    /// Boundary crossings: submission batches drained (a single `trap_*`
    /// call is a 1-entry batch).
    pub batches: u64,
    /// Total submission entries across all batches (syscalls plus handle
    /// operations).
    pub batch_entries: u64,
    /// Histogram of batch sizes; bucket boundaries are
    /// [`BATCH_HIST_BUCKETS`].
    pub batch_size_hist: Histogram<{ BATCH_HIST_BUCKETS.len() }>,
    /// Capability handles installed.
    pub handle_opens: u64,
    /// Capability handles explicitly closed.
    pub handle_closes: u64,
    /// Capability handles revoked by `obj_unref`/deallocation.
    pub handle_revocations: u64,
    /// Handle-encoded syscall arguments resolved at dispatch (how often
    /// the hot path named objects by handle instead of raw entry).
    pub handle_resolutions: u64,
    /// Handle-open requests satisfied by an already-installed handle for
    /// the same container link (the fd hot path's steady state).
    pub handle_reuses: u64,
    /// Label comparisons performed (the label cache counts how many it
    /// answered).
    pub label_checks: u64,
    /// Page faults handled.
    pub page_faults: u64,
    /// Objects created.
    pub objects_created: u64,
    /// Objects deallocated.
    pub objects_deallocated: u64,
    /// Gate invocations.
    pub gate_invocations: u64,
    /// Context switches (address-space changes).
    pub context_switches: u64,
    /// Context switches that used the cheap `invlpg` path.
    pub invlpg_switches: u64,
}

/// Upper bounds (inclusive) of the batch-size histogram buckets; the last
/// bucket is open-ended.  The edges live in `histar-obs` so the kernel
/// stats and the I/O benchmarks bucket identically.
pub use histar_obs::BATCH_SIZE_EDGES as BATCH_HIST_BUCKETS;

impl Default for KernelStats {
    fn default() -> KernelStats {
        KernelStats {
            invocations: [0; SYSCALL_COUNT],
            errors: [0; SYSCALL_COUNT],
            batches: 0,
            batch_entries: 0,
            batch_size_hist: Histogram::new(&BATCH_HIST_BUCKETS),
            handle_opens: 0,
            handle_closes: 0,
            handle_revocations: 0,
            handle_resolutions: 0,
            handle_reuses: 0,
            label_checks: 0,
            page_faults: 0,
            objects_created: 0,
            objects_deallocated: 0,
            gate_invocations: 0,
            context_switches: 0,
            invlpg_switches: 0,
        }
    }
}

impl KernelStats {
    /// Total dispatched calls.
    pub fn total(&self) -> u64 {
        self.invocations.iter().sum()
    }

    /// Total dispatched calls that returned an error.
    pub fn total_errors(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Invocation count for one syscall by name; `None` for unknown names.
    pub fn count(&self, name: &str) -> Option<u64> {
        SYSCALL_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.invocations[i])
    }

    /// `(name, invocations, errors)` for every syscall that was invoked at
    /// least once, in ABI order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64, u64)> {
        (0..SYSCALL_COUNT)
            .filter(|&i| self.invocations[i] > 0)
            .map(|i| (SYSCALL_NAMES[i], self.invocations[i], self.errors[i]))
            .collect()
    }

    /// Mean submission-batch size (1.0 when everything was single-call).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_entries as f64 / self.batches as f64
        }
    }

    /// Amortized boundary cost per entry, in nanoseconds, given the full
    /// trap cost and the batched-entry decode cost: every batch pays
    /// `trap_ns` once and `entry_ns` for each further entry.
    pub fn amortized_trap_ns(&self, trap_ns: u64, entry_ns: u64) -> f64 {
        if self.batch_entries == 0 {
            return trap_ns as f64;
        }
        let total = self.batches * trap_ns + (self.batch_entries - self.batches) * entry_ns;
        total as f64 / self.batch_entries as f64
    }

    pub(crate) fn record_batch(&mut self, entries: u64) {
        if entries == 0 {
            return;
        }
        self.batches += 1;
        self.batch_entries += entries;
        self.batch_size_hist.record(entries);
    }

    /// Applies `op` to every counter pair of `self` and `other` — the one
    /// place that enumerates the struct's fields, so `since`/`merge` can
    /// never drift apart when a counter is added.
    fn zip_with(&self, other: &KernelStats, op: impl Fn(u64, u64) -> u64) -> KernelStats {
        let mut out = KernelStats::default();
        for i in 0..SYSCALL_COUNT {
            out.invocations[i] = op(self.invocations[i], other.invocations[i]);
            out.errors[i] = op(self.errors[i], other.errors[i]);
        }
        out.batch_size_hist = self.batch_size_hist.zip_with(&other.batch_size_hist, &op);
        out.batches = op(self.batches, other.batches);
        out.batch_entries = op(self.batch_entries, other.batch_entries);
        out.handle_opens = op(self.handle_opens, other.handle_opens);
        out.handle_closes = op(self.handle_closes, other.handle_closes);
        out.handle_revocations = op(self.handle_revocations, other.handle_revocations);
        out.handle_resolutions = op(self.handle_resolutions, other.handle_resolutions);
        out.handle_reuses = op(self.handle_reuses, other.handle_reuses);
        out.label_checks = op(self.label_checks, other.label_checks);
        out.page_faults = op(self.page_faults, other.page_faults);
        out.objects_created = op(self.objects_created, other.objects_created);
        out.objects_deallocated = op(self.objects_deallocated, other.objects_deallocated);
        out.gate_invocations = op(self.gate_invocations, other.gate_invocations);
        out.context_switches = op(self.context_switches, other.context_switches);
        out.invlpg_switches = op(self.invlpg_switches, other.invlpg_switches);
        out
    }

    /// Difference between two snapshots (`self - earlier`), for measuring
    /// a region of execution.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        self.zip_with(earlier, |a, b| a - b)
    }

    /// Element-wise sum of two counter sets (e.g. combining the nodes of a
    /// fabric into one histogram).
    pub fn merge(&self, other: &KernelStats) -> KernelStats {
        self.zip_with(other, |a, b| a + b)
    }
}

impl histar_obs::MetricSource for KernelStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("dispatch.calls", self.total());
        set.counter("dispatch.errors", self.total_errors());
        set.counter("dispatch.batches", self.batches);
        set.counter("dispatch.batch_entries", self.batch_entries);
        set.counter("dispatch.handle_opens", self.handle_opens);
        set.counter("dispatch.handle_closes", self.handle_closes);
        set.counter("dispatch.handle_revocations", self.handle_revocations);
        set.counter("dispatch.handle_resolutions", self.handle_resolutions);
        set.counter("dispatch.handle_reuses", self.handle_reuses);
        set.histogram("dispatch.batch_size", &self.batch_size_hist);
        set.counter("kernel.label_checks", self.label_checks);
        set.counter("kernel.page_faults", self.page_faults);
        set.counter("kernel.objects_created", self.objects_created);
        set.counter("kernel.objects_deallocated", self.objects_deallocated);
        set.counter("kernel.gate_invocations", self.gate_invocations);
        set.counter("kernel.context_switches", self.context_switches);
        set.counter("kernel.invlpg_switches", self.invlpg_switches);
    }
}

/// One entry of the syscall audit trace: which thread trapped, with what
/// call, at what simulated time, and whether it succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// The record's index in the trace since it was enabled (survives
    /// ring eviction, so gaps are detectable).
    pub seq: u64,
    /// Simulated time at call completion, in nanoseconds since boot.
    pub tick: u64,
    /// The calling thread.
    pub tid: ObjectId,
    /// The syscall's name (from [`SYSCALL_NAMES`]).
    pub syscall: &'static str,
    /// Whether the call succeeded.
    pub ok: bool,
}

impl Kernel {
    /// Executes one trapped system call on behalf of thread `tid`.
    ///
    /// Since the batched ABI landed, this is a shim over a 1-entry
    /// submission batch: the call crosses the boundary alone, pays the
    /// full trap cost, and its result is returned directly instead of
    /// being pushed onto the completion queue.  Per-call label checks,
    /// [`KernelStats`] counters and audit-trace records are identical
    /// either way.
    pub fn dispatch(
        &mut self,
        tid: ObjectId,
        call: Syscall,
    ) -> Result<SyscallResult, SyscallError> {
        self.begin_batch();
        let result = self.dispatch_one(tid, call);
        self.end_batch();
        self.stats_mut().record_batch(1);
        result
    }

    /// Drains one submission batch for thread `tid`: every entry executes
    /// in submission order against the same label checks, per-syscall
    /// counters and audit trace as a one-per-trap stream, but the whole
    /// batch pays the kernel entry/exit (trap) cost once — each entry
    /// after the first is charged only the cheap decode cost.  One
    /// [`Completion`] per entry is pushed onto the thread's completion
    /// queue, in order, once the batch finishes.  A batch does not stop on
    /// errors (each entry's completion carries its own result), so entries
    /// with user-level data dependencies belong in separate batches.
    ///
    /// Returns the number of entries processed.  If the batch itself tears
    /// the calling thread down (an entry unrefs the thread's last link),
    /// its completions die with the thread — nobody is left to reap them.
    pub fn dispatch_batch<I>(&mut self, tid: ObjectId, entries: I) -> usize
    where
        I: IntoIterator<Item = SqEntry>,
    {
        let done = self.dispatch_batch_collect(tid, entries);
        let n = done.len();
        // A deallocated thread's queue was dropped by `dealloc`; do not
        // resurrect it for completions nobody can reap.
        if self.thread_state(tid).is_ok() {
            for completion in done {
                self.push_completion(tid, completion);
            }
        }
        n
    }

    /// The batch execution loop, returning the completions directly
    /// instead of routing them through the thread's completion queue —
    /// the queue can vanish mid-batch if an entry deallocates the calling
    /// thread, so synchronous callers take results from here.
    fn dispatch_batch_collect<I>(&mut self, tid: ObjectId, entries: I) -> Vec<Completion>
    where
        I: IntoIterator<Item = SqEntry>,
    {
        self.begin_batch();
        let span_start = self.recorder().is_enabled().then(|| self.now().as_nanos());
        let mut done = Vec::new();
        for SqEntry { user_data, op } in entries {
            let kind = match op {
                SqOp::Call(call) => CompletionKind::Call(self.dispatch_one(tid, call)),
                SqOp::HandleOpen { entry } => {
                    CompletionKind::HandleOpened(self.handle_open(tid, entry))
                }
                SqOp::HandleClose { handle } => {
                    CompletionKind::HandleClosed(self.handle_close(tid, handle))
                }
            };
            done.push(Completion { user_data, kind });
        }
        self.end_batch();
        self.stats_mut().record_batch(done.len() as u64);
        if let Some(start) = span_start {
            let batch_id = self.stats().batches;
            self.recorder().record(Span {
                cat: "dispatch",
                name: "batch",
                start,
                end: self.now().as_nanos(),
                tid: tid.raw(),
                seq: batch_id,
            });
        }
        done
    }

    /// Drains a user-side [`SubmissionQueue`] in one boundary crossing.
    /// Completions land on `tid`'s completion queue and are reaped with
    /// [`Kernel::reap_completion`]/[`Kernel::reap_completions`].
    pub fn submit(&mut self, tid: ObjectId, sq: &mut SubmissionQueue) -> usize {
        self.dispatch_batch(tid, sq.drain())
    }

    /// Submits `calls` as one batch and returns their results directly,
    /// in submission order — the synchronous multi-call pattern library
    /// hot paths use for argument spills.  The thread's completion queue
    /// is bypassed entirely, so completions already queued (e.g. alert
    /// notifications, or ones pushed by an alert *inside* this batch)
    /// stay queued, and a batch that tears down the calling thread still
    /// reports every entry's result.
    pub fn submit_calls(
        &mut self,
        tid: ObjectId,
        calls: Vec<Syscall>,
    ) -> Vec<Result<SyscallResult, SyscallError>> {
        let entries: Vec<SqEntry> = calls
            .into_iter()
            .enumerate()
            .map(|(i, call)| SqEntry {
                user_data: i as u64,
                op: SqOp::Call(call),
            })
            .collect();
        self.dispatch_batch_collect(tid, entries)
            .into_iter()
            .map(Completion::into_call_result)
            .collect()
    }

    /// One submitted entry, executed under the current batch's cost
    /// accounting: handle-encoded arguments are resolved against `tid`'s
    /// handle table, the per-syscall counters are bumped, the `sys_*`
    /// implementation runs, and the audit trace is appended.
    fn dispatch_one(
        &mut self,
        tid: ObjectId,
        call: Syscall,
    ) -> Result<SyscallResult, SyscallError> {
        let mut call = call;
        let index = call.index();
        let name = call.name();
        // A dispatch span is tagged with the call's index in `dispatch.calls`.
        let span_start = self
            .recorder()
            .is_enabled()
            .then(|| (self.now().as_nanos(), self.stats().total()));
        self.stats_mut().invocations[index] += 1;
        self.note_thread_syscall(tid);
        let result = match self.resolve_handle_args(tid, &mut call) {
            Ok(()) => self.dispatch_inner(tid, call),
            Err(e) => Err(e),
        };
        if result.is_err() {
            self.stats_mut().errors[index] += 1;
        }
        let tick = self.now().as_nanos();
        if let Some(trace) = self.trace_mut() {
            trace.push(TraceRecord {
                seq: trace.total_recorded(),
                tick,
                tid,
                syscall: name,
                ok: result.is_ok(),
            });
        }
        if let Some((start, seq)) = span_start {
            self.recorder().record(Span {
                cat: "dispatch",
                name,
                start,
                end: tick,
                tid: tid.raw(),
                seq,
            });
        }
        result
    }

    /// Substitutes handle-encoded `ContainerEntry` arguments with the
    /// entries installed in `tid`'s handle table.  A stale or unknown
    /// handle fails the call with [`SyscallError::BadHandle`] before any
    /// state is touched; the substituted entry is still re-validated by
    /// the `sys_*` implementation like any raw entry, so handles add a
    /// naming indirection, never a checking shortcut.
    fn resolve_handle_args(
        &mut self,
        tid: ObjectId,
        call: &mut Syscall,
    ) -> Result<(), SyscallError> {
        let mut resolved = 0;
        call.visit_entries(&mut |entry| {
            if let Some(h) = entry.as_handle() {
                *entry = self
                    .handle_entry(tid, h)
                    .ok_or(SyscallError::BadHandle(h.raw()))?;
                resolved += 1;
            }
            Ok(())
        })?;
        self.stats_mut().handle_resolutions += resolved;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::Level;

    fn boot() -> (Kernel, ObjectId) {
        let mut k = Kernel::new(42, None);
        let root = k.root_container();
        let tid = k
            .bootstrap_thread(
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                "init",
            )
            .unwrap();
        (k, tid)
    }

    #[test]
    fn dispatch_counts_per_syscall() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 64, "s")
            .unwrap();
        let entry = ContainerEntry::new(root, seg);
        k.trap_segment_write(tid, entry, 0, b"hello").unwrap();
        assert_eq!(k.trap_segment_read(tid, entry, 0, 5).unwrap(), b"hello");
        // A failing call is counted as both an invocation and an error.
        assert!(k.trap_segment_read(tid, entry, 60, 100).is_err());

        let stats = k.stats();
        assert_eq!(stats.count("segment_create"), Some(1));
        assert_eq!(stats.count("segment_write"), Some(1));
        assert_eq!(stats.count("segment_read"), Some(2));
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.total_errors(), 1);
        assert!(stats
            .nonzero()
            .iter()
            .any(|(n, i, e)| *n == "segment_read" && *i == 2 && *e == 1));
    }

    #[test]
    fn dispatch_equals_direct_call() {
        let (mut ka, tida) = boot();
        let (mut kb, tidb) = boot();
        let ra = ka.sys_create_category(tida).unwrap();
        let rb = kb.trap_create_category(tidb).unwrap();
        assert_eq!(ra, rb, "same seed, same allocation stream");
        assert_eq!(
            ka.thread_label(tida).unwrap(),
            kb.thread_label(tidb).unwrap()
        );
        // The label-check and object counters agree; the syscall totals
        // are dispatch counters, so only the trapped call shows up there.
        let (sa, sb) = (ka.stats(), kb.stats());
        assert_eq!(sa.label_checks, sb.label_checks);
        assert_eq!(sa.objects_created, sb.objects_created);
        assert_eq!((sa.total(), sb.total()), (0, 1));
    }

    #[test]
    fn trace_ring_buffer_is_bounded_and_ordered() {
        let (mut k, tid) = boot();
        let _ = k.trap_self_get_label(tid);
        k.enable_syscall_trace(4);
        let recorder = k.enable_flight_recorder(64);
        for _ in 0..6 {
            let _ = k.trap_self_get_label(tid);
        }
        // Dispatch spans carry the call's index in `dispatch.calls`, which
        // counts from boot, not from when tracing was enabled.
        let span_seqs: Vec<u64> = recorder
            .snapshot()
            .iter()
            .filter(|s| s.name == "self_get_label")
            .map(|s| s.seq)
            .collect();
        assert_eq!(span_seqs, vec![1, 2, 3, 4, 5, 6]);
        let trace = k.syscall_trace().expect("trace enabled");
        assert_eq!(trace.iter().count(), 4);
        assert_eq!(trace.dropped(), 2);
        assert_eq!(trace.total_recorded(), 6);
        let seqs: Vec<u64> = trace.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        for r in trace.iter() {
            assert_eq!(r.syscall, "self_get_label");
            assert_eq!(r.tid, tid);
            assert!(r.ok);
        }
        k.disable_syscall_trace();
        assert!(k.syscall_trace().is_none());
    }

    #[test]
    fn trace_records_failures() {
        let (mut k, tid) = boot();
        k.enable_syscall_trace(16);
        let bogus = ContainerEntry::new(k.root_container(), ObjectId::from_raw(0x1234));
        assert!(k.trap_segment_read(tid, bogus, 0, 1).is_err());
        let rec = *k.syscall_trace().unwrap().iter().next().unwrap();
        assert_eq!(rec.syscall, "segment_read");
        assert!(!rec.ok);
    }

    #[test]
    fn syscall_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = SYSCALL_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SYSCALL_COUNT, "names must be unique");
        assert_eq!(Syscall::CreateCategory.name(), "create_category");
        assert_eq!(
            Syscall::NetReceive {
                device: ContainerEntry::self_entry(ObjectId::from_raw(1))
            }
            .name(),
            "net_receive"
        );
        assert_eq!(
            Syscall::SegmentWatch {
                entry: ContainerEntry::self_entry(ObjectId::from_raw(1))
            }
            .index(),
            SYSCALL_COUNT - 1
        );
    }

    #[test]
    fn every_result_variant_is_exercised() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let cat = k.trap_create_category(tid).unwrap();
        let lbl = Label::builder().own(cat).build();
        let _ = lbl;
        let seg = k
            .trap_segment_create(tid, root, Label::unrestricted(), 32, "s")
            .unwrap();
        let se = ContainerEntry::new(root, seg);
        assert_eq!(k.trap_segment_len(tid, se).unwrap(), 32);
        let (ty, descrip, quota) = k.trap_obj_get_info(tid, se).unwrap();
        assert_eq!(ty, ObjectType::Segment);
        assert_eq!(descrip, "s");
        assert!(quota >= 32);
        assert!(k.trap_container_list(tid, root).unwrap().contains(&seg));
        assert_eq!(k.trap_self_take_alert(tid).unwrap(), None);
        assert_eq!(k.trap_category_get_remote(tid, cat).unwrap(), None);
        let meta = k.trap_obj_get_metadata(tid, se).unwrap();
        assert_eq!(meta, [0u8; METADATA_LEN]);
        // Self-label round trip through the dispatcher.
        let l = k.trap_self_get_label(tid).unwrap();
        assert!(l.owns(cat));
        assert_eq!(
            k.trap_self_get_clearance(tid).unwrap().level(cat),
            Level::L3
        );
    }
}
