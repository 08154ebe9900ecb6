//! The kernel proper: object table plus the system-call surface.
//!
//! Every `sys_*` method corresponds to a HiStar system call and is
//! invoked on behalf of a *calling thread* named by its object ID.  The
//! methods are crate-private: user code reaches them only through
//! [`Kernel::dispatch`] and the `trap_*` wrappers, which count and audit
//! each call.  Each call performs exactly the label checks the paper
//! specifies before touching any state, counts its label checks in
//! [`KernelStats`], and charges its CPU cost to the machine clock (when
//! one is attached).

use crate::abi::{Completion, CompletionKind, Handle, HandleTable, KERNEL_USER_DATA};
use crate::bodies::{
    AddressSpaceBody, Alert, ContainerBody, DeviceBody, GateBody, Mapping, ObjectBody, SegmentBody,
    ThreadBody, ThreadState, WAKE_ALERT, WAKE_COMPLETION,
};
use crate::dispatch::{KernelStats, TraceRecord};
use crate::object::{
    ContainerEntry, ObjectHeader, ObjectId, ObjectType, METADATA_LEN, OBJECT_ID_MASK,
    QUOTA_INFINITE,
};
use crate::syscall::SyscallError;
use histar_label::category::FeistelCipher;
use histar_label::{Category, CategoryAllocator, Label, LabelCache, Level};
use histar_obs::{MetricSet, Recorder, Ring};
use histar_sim::{CostModel, OsFlavor, SimClock, SimDuration};
use histar_store::codec::{Decoder, Encoder};
use histar_store::records::is_persist_key;
use histar_store::SingleLevelStore;
// The object table is the one sanctioned HashMap in this crate (hot
// per-syscall lookups; every iteration site sorts before order becomes
// visible) — allowed here and at each use, and listed by flowcheck.
#[allow(clippy::disallowed_types)]
use std::collections::{BTreeMap, HashMap};

/// Size of one page, matching the simulated hardware.
pub const PAGE_SIZE: u64 = 4096;

/// One kernel object: header plus type-specific body.
#[derive(Clone, Debug)]
pub struct KObject {
    /// The object's header (identity, label, quota, flags).
    pub header: ObjectHeader,
    /// The object's type-specific payload.
    pub body: ObjectBody,
}

/// The result of a successful gate invocation: where the thread now runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateEntryResult {
    /// The thread's new label.
    pub label: Label,
    /// The thread's new clearance.
    pub clearance: Label,
    /// The address space the thread switched to (if the gate named one).
    pub address_space: Option<ContainerEntry>,
    /// The gate's entry point.
    pub entry_point: u64,
    /// The gate's initial stack pointer.
    pub stack_pointer: u64,
    /// The gate's closure arguments.
    pub closure_args: Vec<u64>,
}

/// What the scheduler should do with a parked thread, answered by
/// [`Kernel::wake_eligibility`] in one O(1) probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// The thread halted or no longer exists: retire its program.
    Retired,
    /// The thread is already runnable again (an external `sched_wake`):
    /// requeue it without charging a wakeup.
    External,
    /// An undelivered alert is pending: wake it.
    Alert,
    /// An unreaped completion is pending: wake it.
    Completion,
    /// Nothing happened — the dirty mark was spurious; stay parked.
    Parked,
}

/// Where a page fault resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageFaultResolution {
    /// The mapped segment.
    pub segment: ContainerEntry,
    /// Byte offset within the segment corresponding to the faulting address.
    pub offset: u64,
    /// Whether the mapping permits writes.
    pub writable: bool,
}

/// The globally meaningful name of a category as exported off-machine: the
/// hash of the owning exporter's public key plus a per-exporter identifier.
/// The pair is self-certifying — it names both the category and the only
/// exporter entitled to speak for it — so label checks survive the network
/// hop without a trusted naming authority.
pub type RemoteCategoryName = (u64, u64);

/// The HiStar kernel.
#[derive(Debug)]
pub struct Kernel {
    #[allow(clippy::disallowed_types)]
    objects: HashMap<ObjectId, KObject>,
    root: ObjectId,
    categories: CategoryAllocator,
    id_cipher: FeistelCipher,
    id_counter: u64,
    label_cache: LabelCache,
    clock: Option<SimClock>,
    cost: CostModel,
    /// Every kernel activity counter, dispatch's and the bodies' alike.
    stats: KernelStats,
    /// The address space of the most recently active thread, used to decide
    /// whether a switch can use the cheap `invlpg` path.
    last_address_space: Option<ContainerEntry>,
    /// Category-translation table maintained for exporters: local category →
    /// self-certifying global name.  Bindings are immutable once set, so a
    /// label translated out and back can never silently change category.
    remote_bindings: BTreeMap<Category, RemoteCategoryName>,
    /// Reverse index of `remote_bindings` (global name → local category).
    remote_index: BTreeMap<RemoteCategoryName, Category>,
    /// The bounded audit trace of dispatched syscalls, when enabled.
    trace: Option<Ring<TraceRecord>>,
    /// The flight recorder dispatched syscalls (and the scheduler/store,
    /// which hold clones of this handle) emit spans into.  Disabled by
    /// default — recording charges no simulated time either way, so the
    /// only cost of enabling it is host memory for the ring.
    recorder: Recorder,
    /// Dispatched-syscall counts per calling thread, for the per-activity
    /// metrics filesystem.  Entries die with their thread.
    per_thread_syscalls: BTreeMap<ObjectId, u64>,
    /// Per-thread capability handle tables (ABI-edge state, not persisted).
    handles: BTreeMap<ObjectId, HandleTable>,
    /// Reverse index over every thread's handle table: object → the
    /// threads holding live handles naming it (with a refcount per
    /// thread).  Unref/dealloc revocation sweeps visit exactly the holder
    /// threads instead of every thread that ever opened a handle, so
    /// severing one link stays O(holders) with 10⁵ threads resident.
    handle_holders: BTreeMap<ObjectId, BTreeMap<ObjectId, u64>>,
    /// Per-thread completion queues (ABI-edge state, not persisted).
    completions: BTreeMap<ObjectId, std::collections::VecDeque<Completion>>,
    /// One-shot readiness watches: object → threads to notify (with an
    /// `ObjectReady` completion) when the object is next written or
    /// deallocated.  Registered via `segment_watch`; this is how blocking
    /// pipe/socket reads park without polling.
    watchers: BTreeMap<ObjectId, Vec<ObjectId>>,
    /// Threads whose wake conditions may have changed since the scheduler
    /// last looked (completion pushed, explicitly woken, or deallocated),
    /// in event order.  The scheduler drains this instead of scanning its
    /// whole wait set every quantum, so wakes are O(events) not O(parked).
    sched_dirty: Vec<ObjectId>,
    /// Dedup set for `sched_dirty`.
    sched_dirty_set: std::collections::BTreeSet<ObjectId>,
    /// The scheduler's last published counter snapshot (the scheduler
    /// lives outside the kernel, but its counters belong to the machine's
    /// metrics registry so `/metrics/sched` can serve them).
    sched_metrics: MetricSet,
    /// True while a submission batch is being drained: the first call
    /// charges the full trap cost, the rest only the batched decode cost.
    in_batch: bool,
    /// Whether the current batch has charged its trap cost yet.
    batch_trap_charged: bool,
    /// The machine's single-level store, when this kernel is part of a
    /// [`Machine`](crate::Machine).  The persist-record syscalls operate
    /// on it directly — data in the persist namespace bypasses the object
    /// heap entirely — and having it here lets those calls ride the same
    /// batched submission path (and audit trace) as every other syscall.
    store: Option<SingleLevelStore>,
}

impl Kernel {
    /// Creates a kernel with a fresh root container.
    ///
    /// `seed` keys the object-ID and category-name ciphers (deterministic
    /// for a given seed); `clock` is the machine clock costs are charged to
    /// (pass `None` for pure functional tests).
    pub fn new(seed: u64, clock: Option<SimClock>) -> Kernel {
        let mut kernel = Kernel {
            objects: Default::default(),
            root: ObjectId::from_raw(0),
            categories: CategoryAllocator::new(seed ^ 0xcafe),
            id_cipher: FeistelCipher::new(seed ^ 0xbeef),
            id_counter: 0,
            label_cache: LabelCache::new(),
            clock,
            cost: CostModel::for_flavor(OsFlavor::HiStar),
            stats: KernelStats::default(),
            last_address_space: None,
            remote_bindings: BTreeMap::new(),
            remote_index: BTreeMap::new(),
            trace: None,
            recorder: Recorder::disabled(),
            per_thread_syscalls: BTreeMap::new(),
            handles: BTreeMap::new(),
            handle_holders: BTreeMap::new(),
            completions: BTreeMap::new(),
            watchers: BTreeMap::new(),
            sched_dirty: Vec::new(),
            sched_dirty_set: std::collections::BTreeSet::new(),
            sched_metrics: MetricSet::new(),
            in_batch: false,
            batch_trap_charged: false,
            store: None,
        };
        let root_id = kernel.fresh_id();
        let mut header = ObjectHeader::new(
            root_id,
            ObjectType::Container,
            Label::unrestricted(),
            QUOTA_INFINITE,
            "root container",
        );
        header.links = 1; // the root is always referenced
        kernel.objects.insert(
            root_id,
            KObject {
                header,
                body: ObjectBody::Container(ContainerBody::default()),
            },
        );
        kernel.root = root_id;
        kernel
    }

    /// The root container's object ID.
    pub fn root_container(&self) -> ObjectId {
        self.root
    }

    /// Kernel activity counters: per-syscall invocations and errors,
    /// submission batches, handle traffic, label checks, objects, gates,
    /// faults and context switches.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut KernelStats {
        &mut self.stats
    }

    pub(crate) fn trace_mut(&mut self) -> Option<&mut Ring<TraceRecord>> {
        self.trace.as_mut()
    }

    /// Starts recording dispatched syscalls into a ring buffer holding at
    /// most `capacity` records (replacing any previous trace).
    pub fn enable_syscall_trace(&mut self, capacity: usize) {
        self.trace = Some(Ring::new(capacity));
    }

    /// Stops tracing and discards the buffer.
    pub fn disable_syscall_trace(&mut self) {
        self.trace = None;
    }

    /// The current audit trace, if tracing is enabled.
    pub fn syscall_trace(&self) -> Option<&Ring<TraceRecord>> {
        self.trace.as_ref()
    }

    /// The kernel's flight recorder (disabled by default).  The scheduler,
    /// store and exporter fabric clone this handle, so enabling it here is
    /// enabled everywhere that shares the kernel.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Starts span recording into a fresh bounded ring of `capacity` spans,
    /// replacing any previous recorder.  Returns a handle to the new ring.
    pub fn enable_flight_recorder(&mut self, capacity: usize) -> Recorder {
        self.recorder = Recorder::with_capacity(capacity);
        if let Some(store) = self.store.as_mut() {
            store.set_recorder(self.recorder.clone());
        }
        self.recorder.clone()
    }

    /// Installs an externally created recorder (e.g. the one that already
    /// holds a machine's recovery spans), replacing any previous one.
    pub fn install_recorder(&mut self, recorder: Recorder) {
        if let Some(store) = self.store.as_mut() {
            store.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// Stops span recording and drops the ring.
    pub fn disable_flight_recorder(&mut self) {
        self.install_recorder(Recorder::disabled());
    }

    pub(crate) fn note_thread_syscall(&mut self, tid: ObjectId) {
        *self.per_thread_syscalls.entry(tid).or_insert(0) += 1;
    }

    /// Dispatched-syscall count for one thread (zero if it never trapped,
    /// or was deallocated — the counter dies with the thread).
    pub fn thread_syscalls(&self, tid: ObjectId) -> u64 {
        self.per_thread_syscalls.get(&tid).copied().unwrap_or(0)
    }

    /// IDs of every live container, in stable (sorted) order — the
    /// enumeration the per-container metrics filesystem serves, with each
    /// entry's visibility decided by its own label at read time.
    pub fn container_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self
            .objects
            .iter()
            .filter(|(_, o)| o.header.object_type == ObjectType::Container)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable_by_key(|id| id.raw());
        ids
    }

    /// One snapshot of every counter the kernel and its attached subsystems
    /// maintain: the kernel stats, the label-comparison cache, and
    /// (when a store is attached) store/WAL/disk counters.  Collecting a
    /// snapshot charges no simulated time.
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.collect(&self.stats);
        set.collect(&self.label_cache.stats());
        set.gauge("kernel.objects", self.object_count() as u64);
        set.gauge("kernel.threads_with_handles", self.handles.len() as u64);
        if let Some(trace) = &self.trace {
            set.counter("trace.recorded", trace.total_recorded());
            set.counter("trace.dropped", trace.dropped());
        }
        set.counter("spans.recorded", self.recorder.total_recorded());
        set.counter("spans.dropped", self.recorder.dropped());
        if let Some(store) = &self.store {
            set.collect(&store.stats());
            set.collect(&store.wal_stats());
            set.collect(&store.disk_stats());
        }
        set.extend(&self.sched_metrics);
        set
    }

    /// Stores the scheduler's latest counter snapshot (counters plus
    /// per-shard queue-depth gauges) so `metrics()` — and therefore
    /// `/metrics/sched` — serves scheduling alongside every kernel-owned
    /// source.  The scheduler calls this at the end of every `run`.
    pub fn publish_sched_metrics(&mut self, set: MetricSet) {
        self.sched_metrics = set;
    }

    /// Simulated time since boot (zero when no clock is attached).
    pub fn now(&self) -> SimDuration {
        self.clock
            .as_ref()
            .map(|c| c.now())
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of live objects (including the root container).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    // ----- internal helpers ---------------------------------------------

    fn fresh_id(&mut self) -> ObjectId {
        loop {
            let id = self.id_cipher.encrypt(self.id_counter) & OBJECT_ID_MASK;
            self.id_counter += 1;
            // The all-ones ID is reserved as the handle namespace (see
            // `object::HANDLE_NAMESPACE`); no real object may carry it.
            if id != crate::object::HANDLE_NAMESPACE.raw() {
                return ObjectId::from_raw(id);
            }
        }
    }

    fn charge(&mut self, d: SimDuration) {
        if let Some(clock) = &self.clock {
            clock.advance(d);
        }
    }

    /// Charges one boundary crossing.  Inside a submission batch the
    /// kernel is entered once: the first operation pays the full trap
    /// cost, the rest only the per-entry decode cost.  Counters are
    /// unaffected — only charged time amortizes.
    fn charge_boundary(&mut self) {
        let c = if self.in_batch && self.batch_trap_charged {
            self.cost.syscall_batched_entry
        } else {
            self.batch_trap_charged = true;
            self.cost.syscall
        };
        self.charge(c);
    }

    /// Enters batch mode: the next `charge_boundary` pays the full trap
    /// cost, subsequent ones only the decode cost, until `end_batch`.
    /// The store opens a group-commit window for the same span, so every
    /// `persist_sync` in the batch rides one shared WAL frame.
    pub(crate) fn begin_batch(&mut self) {
        self.in_batch = true;
        self.batch_trap_charged = false;
        if let Some(store) = self.store.as_mut() {
            store.begin_sync_group();
        }
    }

    /// Leaves batch mode.  Closing the store's group-commit window flushes
    /// the coalesced syncs as one multi-record frame — this runs BEFORE
    /// any completion is delivered, so a sync is acked only after the
    /// shared append is durable.
    pub(crate) fn end_batch(&mut self) {
        self.in_batch = false;
        self.batch_trap_charged = false;
        if let Some(store) = self.store.as_mut() {
            store.end_sync_group();
        }
    }

    fn obj(&self, id: ObjectId) -> Result<&KObject, SyscallError> {
        self.objects.get(&id).ok_or(SyscallError::NoSuchObject(id))
    }

    fn obj_mut(&mut self, id: ObjectId) -> Result<&mut KObject, SyscallError> {
        self.objects
            .get_mut(&id)
            .ok_or(SyscallError::NoSuchObject(id))
    }

    /// Returns the object if it has the expected type.
    fn typed(&self, id: ObjectId, expected: ObjectType) -> Result<&KObject, SyscallError> {
        let o = self.obj(id)?;
        if o.header.object_type != expected {
            return Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected,
            });
        }
        Ok(o)
    }

    fn container(&self, id: ObjectId) -> Result<(&ObjectHeader, &ContainerBody), SyscallError> {
        let o = self.typed(id, ObjectType::Container)?;
        match &o.body {
            ObjectBody::Container(c) => Ok((&o.header, c)),
            _ => unreachable!("typed() checked the object type"),
        }
    }

    fn thread(&self, id: ObjectId) -> Result<(&ObjectHeader, &ThreadBody), SyscallError> {
        let o = self.typed(id, ObjectType::Thread)?;
        match &o.body {
            ObjectBody::Thread(t) => Ok((&o.header, t)),
            _ => unreachable!("typed() checked the object type"),
        }
    }

    fn thread_mut(
        &mut self,
        id: ObjectId,
    ) -> Result<(&mut ObjectHeader, &mut ThreadBody), SyscallError> {
        let o = self.obj_mut(id)?;
        match &mut o.body {
            ObjectBody::Thread(t) => Ok((&mut o.header, t)),
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Thread,
            }),
        }
    }

    /// Fetches the calling thread's label and clearance, verifying the
    /// thread exists and is runnable.  Also charges the boundary crossing.
    fn calling_thread(&mut self, tid: ObjectId) -> Result<(Label, Label), SyscallError> {
        self.charge_boundary();
        let (header, body) = self.thread(tid)?;
        if body.state == ThreadState::Halted {
            return Err(SyscallError::ThreadHalted(tid));
        }
        Ok((header.label.clone(), body.clearance.clone()))
    }

    /// The label of any thread (kernel-internal, no checks).
    pub fn thread_label(&self, tid: ObjectId) -> Result<Label, SyscallError> {
        Ok(self.thread(tid)?.0.label.clone())
    }

    /// The clearance of any thread (kernel-internal, no checks).
    pub fn thread_clearance(&self, tid: ObjectId) -> Result<Label, SyscallError> {
        Ok(self.thread(tid)?.1.clearance.clone())
    }

    /// The scheduling state of any thread (scheduler hook, no checks).
    pub fn thread_state(&self, tid: ObjectId) -> Result<ThreadState, SyscallError> {
        Ok(self.thread(tid)?.1.state)
    }

    /// What the scheduler should do with a parked thread — the single O(1)
    /// wake probe.  The answer is read from the thread's scheduling state
    /// and its wake-state bits, which the kernel maintains at the moment
    /// an alert is posted or taken and a completion is pushed or reaped;
    /// no queue is inspected here.  This replaced the three-call probe
    /// (`thread_state` + pending-alert scan + completion-queue scan) the
    /// scheduler used to make per dirty thread.
    pub fn wake_eligibility(&self, tid: ObjectId) -> WakeReason {
        match self.thread(tid) {
            Err(_) => WakeReason::Retired,
            Ok((_, body)) => match body.state {
                ThreadState::Halted => WakeReason::Retired,
                ThreadState::Runnable => WakeReason::External,
                ThreadState::Blocked => {
                    // Alerts outrank completions, preserving the wake
                    // priority the scheduler has always applied.
                    if body.wake_flags & WAKE_ALERT != 0 {
                        WakeReason::Alert
                    } else if body.wake_flags & WAKE_COMPLETION != 0 {
                        WakeReason::Completion
                    } else {
                        WakeReason::Parked
                    }
                }
            },
        }
    }

    /// Scheduler hook: marks a blocked thread runnable again (alert arrival
    /// or explicit wake).  Halted threads stay halted.
    pub fn sched_wake(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        self.sched_mark_dirty(tid);
        let (_, body) = self.thread_mut(tid)?;
        if body.state == ThreadState::Blocked {
            body.state = ThreadState::Runnable;
        }
        Ok(())
    }

    /// Records that `tid`'s wake conditions may have changed.  The
    /// scheduler re-examines exactly these threads instead of scanning its
    /// whole wait set, which is what keeps 10⁴+ parked clients cheap.
    pub fn sched_mark_dirty(&mut self, tid: ObjectId) {
        if self.sched_dirty_set.insert(tid) {
            self.sched_dirty.push(tid);
        }
    }

    /// Drains the set of threads whose wake conditions may have changed
    /// since the last call, in event order (scheduler hook).
    pub fn take_sched_dirty(&mut self) -> Vec<ObjectId> {
        self.sched_dirty_set.clear();
        std::mem::take(&mut self.sched_dirty)
    }

    /// Scheduler hook: parks a runnable thread until the next wake.  Halted
    /// threads stay halted.
    pub fn sched_block(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        let (_, body) = self.thread_mut(tid)?;
        if body.state == ThreadState::Runnable {
            body.state = ThreadState::Blocked;
        }
        Ok(())
    }

    /// Scheduler hook: accounts the context switch onto `tid` (full TLB
    /// flush, or the cheap `invlpg` path when the incoming thread shares the
    /// outgoing thread's address space) and charges it to the clock.
    pub fn sched_context_switch(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        let new_as = self.thread(tid)?.1.address_space;
        self.account_context_switch(new_as);
        Ok(())
    }

    /// Scheduler hook: charges one scheduling quantum of CPU time to the
    /// machine clock.
    pub fn sched_charge(&mut self, quantum: SimDuration) {
        self.charge(quantum);
    }

    // ----- capability handles and completion queues (ABI edge) ----------

    /// Resolves a container entry into a capability handle for thread
    /// `tid`, performing the standard reachability check: the thread must
    /// be able to observe the entry's container and the container must
    /// hold a link to the object.  A thread can therefore never install a
    /// handle for an object it could not traverse to.
    pub fn handle_open(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<Handle, SyscallError> {
        // Handle installation is a ring operation, not a syscall: it is
        // not counted in `dispatch.calls`, but the reachability
        // check below performs (and counts) a real label check.
        let (header, body) = self.thread(tid)?;
        if body.state == ThreadState::Halted {
            return Err(SyscallError::ThreadHalted(tid));
        }
        let tl = header.label.clone();
        self.charge_boundary();
        self.check_entry(&tl, entry)?;
        self.stats.handle_opens += 1;
        let handle = self.handles.entry(tid).or_default().install(entry);
        self.holders_note_install(entry.object, tid);
        Ok(handle)
    }

    /// Records one more live handle `tid` holds for `object`.
    fn holders_note_install(&mut self, object: ObjectId, tid: ObjectId) {
        *self
            .handle_holders
            .entry(object)
            .or_default()
            .entry(tid)
            .or_insert(0) += 1;
    }

    /// Releases `n` of the live handles `tid` held for `object`, dropping
    /// empty index entries so the map stays proportional to live holders.
    fn holders_release(&mut self, object: ObjectId, tid: ObjectId, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(holders) = self.handle_holders.get_mut(&object) {
            if let Some(count) = holders.get_mut(&tid) {
                *count = count.saturating_sub(n);
                if *count == 0 {
                    holders.remove(&tid);
                }
            }
            if holders.is_empty() {
                self.handle_holders.remove(&object);
            }
        }
    }

    /// Like [`Kernel::handle_open`], but reuses an already-installed live
    /// handle when `tid` holds one for exactly this entry, skipping the
    /// redundant reachability check (the installed handle is proof the
    /// check passed, and it is revoked the moment the link is severed).
    /// The fd hot path calls this on every descriptor operation, so the
    /// steady state costs one table probe instead of a label check.
    pub fn handle_open_reuse(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<Handle, SyscallError> {
        if let Some(h) = self.handles.get(&tid).and_then(|t| t.find(entry)) {
            self.stats.handle_reuses += 1;
            return Ok(h);
        }
        self.handle_open(tid, entry)
    }

    /// Drops a handle from `tid`'s handle table.  Returns whether the
    /// handle was live.
    // flowcheck: exempt(drops an entry from the calling thread's own handle table; revoking your own capability observes nothing)
    pub fn handle_close(&mut self, tid: ObjectId, handle: Handle) -> bool {
        self.charge_boundary();
        self.stats.handle_closes += 1;
        match self.handles.get_mut(&tid).and_then(|t| t.revoke(handle)) {
            Some(entry) => {
                self.holders_release(entry.object, tid, 1);
                true
            }
            None => false,
        }
    }

    /// The entry a handle currently resolves to for `tid`, if live.
    pub fn handle_entry(&self, tid: ObjectId, handle: Handle) -> Option<ContainerEntry> {
        self.handles.get(&tid).and_then(|t| t.resolve(handle))
    }

    /// Number of live handles installed for `tid`.
    pub fn handle_count(&self, tid: ObjectId) -> usize {
        self.handles.get(&tid).map_or(0, |t| t.len())
    }

    /// Revokes, across every thread, handles installed through exactly
    /// this severed container link.  Served from the holder index: only
    /// the threads actually holding a handle for this object are visited,
    /// so the sweep is O(holders), not O(threads) — with 10⁵ resident
    /// threads an unref touching nobody's handles costs one map probe.
    fn revoke_handles_for_entry(&mut self, entry: ContainerEntry) {
        let Some(holders) = self.handle_holders.get(&entry.object) else {
            return;
        };
        let tids: Vec<ObjectId> = holders.keys().copied().collect();
        for tid in tids {
            let revoked = self
                .handles
                .get_mut(&tid)
                .map_or(0, |t| t.revoke_entry(entry));
            self.stats.handle_revocations += revoked as u64;
            // The thread may still hold handles for the same object
            // through a different link, so release only what was revoked.
            self.holders_release(entry.object, tid, revoked as u64);
        }
    }

    /// Revokes, across every thread, handles naming a deallocated object
    /// through any link.  O(holders), like the by-entry sweep.
    fn revoke_handles_for_object(&mut self, object: ObjectId) {
        let Some(holders) = self.handle_holders.remove(&object) else {
            return;
        };
        for tid in holders.keys() {
            if let Some(table) = self.handles.get_mut(tid) {
                self.stats.handle_revocations += table.revoke_object(object) as u64;
            }
        }
    }

    /// Pushes a completion onto `tid`'s completion queue.  The thread is
    /// marked sched-dirty (if it is parked on an empty completion queue,
    /// the scheduler's next wake pass will find it without a scan) and its
    /// completion wake-state bit is set, so `wake_eligibility` never has
    /// to look at the queue itself.
    pub(crate) fn push_completion(&mut self, tid: ObjectId, completion: Completion) {
        self.sched_mark_dirty(tid);
        if let Ok((_, body)) = self.thread_mut(tid) {
            body.wake_flags |= WAKE_COMPLETION;
        }
        self.completions
            .entry(tid)
            .or_default()
            .push_back(completion);
    }

    // ----- readiness watches (blocking I/O) -----------------------------

    /// Registers a one-shot readiness watch for `tid` on the object named
    /// by `entry`.  When the object is next written (`segment_write`) or
    /// deallocated, the kernel pushes an [`CompletionKind::ObjectReady`]
    /// completion to `tid` — the wake half of blocking `read(2)`/`poll`.
    ///
    /// The watch is observe-checked: watching an object you cannot read
    /// would turn its write activity into a covert channel.
    pub(crate) fn sys_segment_watch(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        self.charge_boundary();
        let tl = self.thread_label(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_observe(&tl, entry.object)?;
        let list = self.watchers.entry(entry.object).or_default();
        if !list.contains(&tid) {
            list.push(tid);
        }
        Ok(())
    }

    /// Wakes every watcher of `object` with an `ObjectReady` completion
    /// and clears the watch list (watches are one-shot).  Called on the
    /// success path of `segment_write` and on deallocation.
    fn notify_watchers(&mut self, object: ObjectId) {
        if let Some(list) = self.watchers.remove(&object) {
            for tid in list {
                if !self.objects.contains_key(&tid) {
                    continue; // the watcher died while parked
                }
                self.push_completion(
                    tid,
                    Completion {
                        user_data: KERNEL_USER_DATA,
                        kind: CompletionKind::ObjectReady { object },
                    },
                );
            }
        }
    }

    /// Whether `tid` has unreaped completions (scheduler wake condition: a
    /// thread blocked on an empty completion queue is woken when one
    /// arrives).
    pub fn completion_pending(&self, tid: ObjectId) -> bool {
        self.completions.get(&tid).is_some_and(|q| !q.is_empty())
    }

    /// Number of unreaped completions for `tid`.
    pub fn completion_count(&self, tid: ObjectId) -> usize {
        self.completions.get(&tid).map_or(0, |q| q.len())
    }

    /// Removes and returns `tid`'s oldest unreaped completion.
    pub fn reap_completion(&mut self, tid: ObjectId) -> Option<Completion> {
        let taken = self.completions.get_mut(&tid).and_then(|q| q.pop_front());
        if taken.is_some() && !self.completion_pending(tid) {
            self.clear_wake_flag(tid, WAKE_COMPLETION);
        }
        taken
    }

    /// Removes and returns all of `tid`'s unreaped completions, oldest
    /// first.
    pub fn reap_completions(&mut self, tid: ObjectId) -> Vec<Completion> {
        let taken: Vec<Completion> = self
            .completions
            .get_mut(&tid)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default();
        if !taken.is_empty() {
            self.clear_wake_flag(tid, WAKE_COMPLETION);
        }
        taken
    }

    /// Clears a wake-state bit once the matching queue drained.
    fn clear_wake_flag(&mut self, tid: ObjectId, flag: u8) {
        if let Ok((_, body)) = self.thread_mut(tid) {
            body.wake_flags &= !flag;
        }
    }

    // ----- the single-level store and persist records -------------------

    /// Attaches the machine's single-level store.  From here on the
    /// persist-record syscalls are live; without a store they fail with
    /// [`SyscallError::NoStore`].
    pub fn attach_store(&mut self, store: SingleLevelStore) {
        let mut store = store;
        store.set_recorder(self.recorder.clone());
        self.store = Some(store);
    }

    /// Detaches and returns the store (crash simulation: the machine keeps
    /// the disk, the kernel's memory is lost).
    pub fn take_store(&mut self) -> Option<SingleLevelStore> {
        self.store.take()
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&SingleLevelStore> {
        self.store.as_ref()
    }

    /// The attached store, mutably.
    pub fn store_mut(&mut self) -> Option<&mut SingleLevelStore> {
        self.store.as_mut()
    }

    /// Upper bound on one persist record's payload (a record is one
    /// B+-tree value; file data is split into extents far below this).
    pub const PERSIST_RECORD_MAX: u64 = 16 * 1024 * 1024;

    /// Frames a persist record for the store: label, then length-prefixed
    /// payload.  The label rides inside the record so that every access
    /// after a crash re-checks exactly what was protected before it.
    fn persist_frame(label: &Label, payload: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        crate::serialize::encode_label(&mut e, label);
        e.put_bytes(payload);
        e.finish()
    }

    fn persist_unframe(key: u64, bytes: &[u8]) -> Result<(Label, Vec<u8>), SyscallError> {
        let mut d = Decoder::new(bytes);
        let label =
            crate::serialize::decode_label(&mut d).map_err(|_| SyscallError::CorruptRecord(key))?;
        let payload = d
            .get_bytes()
            .map_err(|_| SyscallError::CorruptRecord(key))?;
        Ok((label, payload))
    }

    /// Reads a record's raw framed bytes, or `None` if absent.
    fn persist_record(&mut self, key: u64) -> Result<Option<Vec<u8>>, SyscallError> {
        let store = self.store.as_mut().ok_or(SyscallError::NoStore)?;
        if !store.contains(key) {
            return Ok(None);
        }
        store
            .get(key)
            .map(Some)
            .map_err(|_| SyscallError::CorruptRecord(key))
    }

    /// "No read up" for persist records: record labels are immutable, so
    /// the comparison is memoizable exactly like a segment's.
    fn check_record_observe(
        &mut self,
        tl: &Label,
        key: u64,
        rlabel: &Label,
    ) -> Result<(), SyscallError> {
        self.count_label_check(rlabel, tl, true);
        if rlabel.leq_high_rhs(tl) {
            Ok(())
        } else {
            Err(SyscallError::CannotObserveRecord(key))
        }
    }

    /// "No write down" for persist records.
    fn check_record_modify(
        &mut self,
        tl: &Label,
        key: u64,
        rlabel: &Label,
    ) -> Result<(), SyscallError> {
        self.count_label_check(rlabel, tl, true);
        if tl.leq(rlabel) && rlabel.leq_high_rhs(tl) {
            Ok(())
        } else {
            Err(SyscallError::CannotModifyRecord(key))
        }
    }

    /// Creates or updates a labeled record in the persist namespace.
    ///
    /// An existing record keeps its (immutable) label — the caller must
    /// pass the modify check against it; `offset`/`data` splice into the
    /// payload, growing it (zero-filled) as needed.  A new record takes
    /// `label`, validated by the allocation rule `L_T ⊑ L ⊑ C_T`.
    pub(crate) fn sys_persist_put(
        &mut self,
        tid: ObjectId,
        key: u64,
        label: Option<Label>,
        offset: u64,
        data: Vec<u8>,
    ) -> Result<(), SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        if !is_persist_key(key) {
            return Err(SyscallError::InvalidArgument(
                "key outside the persist record namespace",
            ));
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&e| e <= Self::PERSIST_RECORD_MAX)
            .ok_or(SyscallError::InvalidArgument(
                "persist record write out of range",
            ))?;
        let (rlabel, mut payload) = match self.persist_record(key)? {
            Some(bytes) => {
                let (rlabel, payload) = Self::persist_unframe(key, &bytes)?;
                self.check_record_modify(&tl, key, &rlabel)?;
                (rlabel, payload)
            }
            None => {
                let label = label.ok_or(SyscallError::InvalidArgument(
                    "creating a persist record requires a label",
                ))?;
                if label.contains_star() {
                    return Err(SyscallError::OwnershipNotAllowed(ObjectType::Segment));
                }
                tl.can_allocate(&tc, &label)?;
                (label, Vec::new())
            }
        };
        if end as usize > payload.len() {
            payload.resize(end as usize, 0);
        }
        payload[offset as usize..end as usize].copy_from_slice(&data);
        let copy_cost = self.cost.copy(data.len() as u64);
        self.charge(copy_cost);
        let framed = Self::persist_frame(&rlabel, &payload);
        self.store
            .as_mut()
            .expect("persist_record verified the store")
            .put(key, framed);
        Ok(())
    }

    /// Reads bytes out of a persist record (label-checked against the
    /// label stored *in* the record — the check a tainted reader fails
    /// even after the record was recovered from the write-ahead log).
    /// `len == u64::MAX` reads to the end of the payload.
    pub(crate) fn sys_persist_read(
        &mut self,
        tid: ObjectId,
        key: u64,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        let bytes = self
            .persist_record(key)?
            .ok_or(SyscallError::NoSuchRecord(key))?;
        let (rlabel, payload) = Self::persist_unframe(key, &bytes)?;
        self.check_record_observe(&tl, key, &rlabel)?;
        if offset > payload.len() as u64 {
            return Err(SyscallError::InvalidArgument("read beyond end of record"));
        }
        let end = if len == u64::MAX {
            payload.len() as u64
        } else {
            offset
                .checked_add(len)
                .filter(|&e| e <= payload.len() as u64)
                .ok_or(SyscallError::InvalidArgument("read beyond end of record"))?
        };
        let copy_cost = self.cost.copy(end - offset);
        self.charge(copy_cost);
        Ok(payload[offset as usize..end as usize].to_vec())
    }

    /// Removes a persist record (modify-checked against its label).  The
    /// deletion becomes durable at the next sync of the key or the next
    /// checkpoint.
    pub(crate) fn sys_persist_delete(
        &mut self,
        tid: ObjectId,
        key: u64,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        let bytes = self
            .persist_record(key)?
            .ok_or(SyscallError::NoSuchRecord(key))?;
        let (rlabel, _) = Self::persist_unframe(key, &bytes)?;
        self.check_record_modify(&tl, key, &rlabel)?;
        self.store
            .as_mut()
            .expect("persist_record verified the store")
            .delete(key);
        Ok(())
    }

    /// Range-scans the persist namespace, returning `(key, payload)` for
    /// every record in `[lo, hi)` whose label the calling thread may
    /// observe (at most `max` of them).  Records the thread may not
    /// observe are skipped, never partially revealed; keys below the
    /// persist namespace are unreachable through this call by
    /// construction.
    pub(crate) fn sys_persist_scan(
        &mut self,
        tid: ObjectId,
        lo: u64,
        hi: u64,
        max: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        let store = self.store.as_mut().ok_or(SyscallError::NoStore)?;
        let lo = lo.max(histar_store::PERSIST_KEY_BASE);
        let keys = store.keys_in_range(lo, hi);
        let mut raw = Vec::with_capacity(keys.len());
        for key in keys {
            match store.get(key) {
                Ok(bytes) => raw.push((key, bytes)),
                Err(_) => return Err(SyscallError::CorruptRecord(key)),
            }
        }
        let mut out = Vec::new();
        let mut copied = 0u64;
        for (key, bytes) in raw {
            if out.len() as u64 >= max {
                break;
            }
            let (rlabel, payload) = Self::persist_unframe(key, &bytes)?;
            if self.check_record_observe(&tl, key, &rlabel).is_err() {
                continue;
            }
            copied += payload.len() as u64;
            out.push((key, payload));
        }
        let copy_cost = self.cost.copy(copied);
        self.charge(copy_cost);
        Ok(out)
    }

    /// Makes the named records durable: one sequential write-ahead-log
    /// append per record (§7.1's `fsync` path), batched and applied by the
    /// store.  A key with no record logs a durable *deletion*, so an
    /// unlink followed by a sync cannot resurrect after a crash.
    pub(crate) fn sys_persist_sync(
        &mut self,
        tid: ObjectId,
        keys: Vec<u64>,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        for key in keys {
            if !is_persist_key(key) {
                return Err(SyscallError::InvalidArgument(
                    "key outside the persist record namespace",
                ));
            }
            match self.persist_record(key)? {
                Some(bytes) => {
                    let (rlabel, _) = Self::persist_unframe(key, &bytes)?;
                    self.check_record_observe(&tl, key, &rlabel)?;
                    self.store
                        .as_mut()
                        .expect("persist_record verified the store")
                        .sync_object(key);
                }
                None => self
                    .store
                    .as_mut()
                    .expect("persist_record verified the store")
                    .sync_delete(key),
            }
        }
        Ok(())
    }

    /// The label a persist record carries.  Like `obj_get_label`, the
    /// label itself is metadata a caller needs in order to make labeling
    /// decisions (e.g. labeling new extents of an existing file), not
    /// protected content.
    // flowcheck: exempt(reads only the record's label, which is the metadata needed to decide labeling; payload stays sealed)
    pub(crate) fn sys_persist_get_label(
        &mut self,
        tid: ObjectId,
        key: u64,
    ) -> Result<Label, SyscallError> {
        self.calling_thread(tid)?;
        let bytes = self
            .persist_record(key)?
            .ok_or(SyscallError::NoSuchRecord(key))?;
        let (rlabel, _) = Self::persist_unframe(key, &bytes)?;
        Ok(rlabel)
    }

    fn count_label_check(&mut self, a: &Label, b: &Label, immutable: bool) {
        self.stats.label_checks += 1;
        let cached = if immutable {
            // Memoize comparisons between immutable labels (§4).
            let ia = self.label_cache.intern(a);
            let ib = self.label_cache.intern(b);
            let before = self.label_cache.stats().hits;
            let _ = self.label_cache.leq_high_rhs(ia, ib);
            self.label_cache.stats().hits > before
        } else {
            false
        };
        let c = self.cost.label_check(a.len() + b.len(), cached);
        self.charge(c);
    }

    /// "No read up": may a thread labelled `tl` observe object `o`?
    fn check_observe(&mut self, tl: &Label, oid: ObjectId) -> Result<(), SyscallError> {
        let (olabel, immutable) = {
            let o = self.obj(oid)?;
            (
                o.header.label.clone(),
                o.header.object_type != ObjectType::Thread,
            )
        };
        self.count_label_check(&olabel, tl, immutable);
        if olabel.leq_high_rhs(tl) {
            Ok(())
        } else {
            Err(SyscallError::CannotObserve(oid))
        }
    }

    /// "No write down": may a thread labelled `tl` modify object `o`?
    fn check_modify(&mut self, tl: &Label, oid: ObjectId) -> Result<(), SyscallError> {
        let (olabel, immutable_flag, otype) = {
            let o = self.obj(oid)?;
            (
                o.header.label.clone(),
                o.header.flags.immutable,
                o.header.object_type,
            )
        };
        if immutable_flag {
            return Err(SyscallError::Immutable(oid));
        }
        self.count_label_check(&olabel, tl, otype != ObjectType::Thread);
        if tl.leq(&olabel) && olabel.leq_high_rhs(tl) {
            Ok(())
        } else {
            Err(SyscallError::CannotModify(oid))
        }
    }

    /// Verifies a container entry `⟨D, O⟩`: the thread must be able to read
    /// `D`, and `D` must hold a link to `O` (or `O == D`, since every
    /// container contains itself).
    fn check_entry(&mut self, tl: &Label, entry: ContainerEntry) -> Result<(), SyscallError> {
        self.check_observe(tl, entry.container)?;
        if entry.container == entry.object {
            // ⟨D, D⟩ is always valid once D is readable.
            self.typed(entry.container, ObjectType::Container)?;
            return Ok(());
        }
        let (_, cbody) = self.container(entry.container)?;
        if !cbody.contains(entry.object) {
            return Err(SyscallError::NotInContainer {
                container: entry.container,
                object: entry.object,
            });
        }
        Ok(())
    }

    /// Validates the label of a to-be-created object and the container it
    /// will live in, then inserts it, charging quota.
    #[allow(clippy::too_many_arguments)]
    fn create_object(
        &mut self,
        tl: &Label,
        tc: &Label,
        container: ObjectId,
        label: Label,
        quota: u64,
        descrip: &str,
        body: ObjectBody,
    ) -> Result<ObjectId, SyscallError> {
        let otype = body.object_type();
        // Only thread and gate labels may contain ⋆.
        if !otype.may_own_categories() && label.contains_star() {
            return Err(SyscallError::OwnershipNotAllowed(otype));
        }
        // The creating thread must be able to write the container...
        self.check_modify(tl, container)?;
        // ...and allocate at this label: L_T ⊑ L ⊑ C_T.
        tl.can_allocate(tc, &label)?;
        // The container hierarchy may forbid this object type.
        let (cheader, cbody) = self.container(container)?;
        if !cbody.allows_type(otype) {
            return Err(SyscallError::TypeForbidden(otype));
        }
        let avoid = cbody.avoid_types;
        // Quota check.
        let available = cheader.quota_remaining();
        if quota != QUOTA_INFINITE && available != QUOTA_INFINITE && quota > available {
            return Err(SyscallError::QuotaExceeded {
                container,
                requested: quota,
                available,
            });
        }
        if quota == QUOTA_INFINITE {
            return Err(SyscallError::InvalidArgument(
                "only the root container has an infinite quota",
            ));
        }

        let id = self.fresh_id();
        let mut header = ObjectHeader::new(id, otype, label, quota, descrip);
        header.usage = body.storage_bytes();
        header.links = 1;
        self.objects.insert(id, KObject { header, body });

        // Charge the container.
        let parent_container = container;
        {
            let cobj = self.obj_mut(parent_container)?;
            cobj.header.usage += quota;
            match &mut cobj.body {
                ObjectBody::Container(c) => c.link(id),
                _ => unreachable!("container() checked the type"),
            }
        }
        // New containers inherit the avoid mask and record their parent.
        if let Ok(o) = self.obj_mut(id) {
            if let ObjectBody::Container(c) = &mut o.body {
                c.parent = Some(parent_container);
                c.avoid_types |= avoid;
            }
        }
        self.stats.objects_created += 1;
        Ok(id)
    }

    /// Removes an object once its last hard link disappears; containers drop
    /// their whole subtree.
    fn dealloc(&mut self, id: ObjectId) {
        let Some(obj) = self.objects.remove(&id) else {
            return;
        };
        self.stats.objects_deallocated += 1;
        self.revoke_handles_for_object(id);
        // Threads watching this object wake (reads see EOF / a dead fd
        // rather than sleeping forever), and the scheduler gets a chance
        // to retire the object if it was itself a parked thread.
        self.notify_watchers(id);
        self.sched_mark_dirty(id);
        if obj.header.object_type == ObjectType::Thread {
            // A dead thread's ABI-edge state dies with it — including its
            // slots in the holder index, or the index would pin ghost
            // threads forever.
            if let Some(table) = self.handles.remove(&id) {
                for (object, count) in table.live_holdings() {
                    self.holders_release(object, id, count);
                }
            }
            self.completions.remove(&id);
            self.per_thread_syscalls.remove(&id);
        }
        if let ObjectBody::Container(c) = obj.body {
            for child in c.links {
                if let Some(child_obj) = self.objects.get_mut(&child) {
                    child_obj.header.links = child_obj.header.links.saturating_sub(1);
                    if child_obj.header.links == 0 {
                        self.dealloc(child);
                    }
                }
            }
        }
    }

    // ----- categories and thread labels (§3.1) --------------------------

    /// `cat_t create_category(void)`: allocates a fresh category, granting
    /// the calling thread ownership (`⋆`) and clearance `3` in it.
    // flowcheck: exempt(allocates a fresh category owned by the caller; touches only the caller's own label and clearance)
    pub(crate) fn sys_create_category(&mut self, tid: ObjectId) -> Result<Category, SyscallError> {
        let (label, clearance) = self.calling_thread(tid)?;
        let cat = self.categories.alloc();
        let new_label = label.with(cat, Level::Star);
        let new_clearance = clearance.with(cat, Level::L3);
        let (header, body) = self.thread_mut(tid)?;
        header.label = new_label;
        body.clearance = new_clearance;
        Ok(cat)
    }

    /// `self_set_label(L)`: sets the calling thread's label, subject to
    /// `L_T ⊑ L ⊑ C_T`.
    pub(crate) fn sys_self_set_label(
        &mut self,
        tid: ObjectId,
        new: Label,
    ) -> Result<(), SyscallError> {
        let (label, clearance) = self.calling_thread(tid)?;
        self.stats.label_checks += 2;
        let c = self.cost.label_check(label.len() + new.len(), false);
        self.charge(c);
        label.check_set_label(&clearance, &new)?;
        let (header, _) = self.thread_mut(tid)?;
        header.label = new;
        Ok(())
    }

    /// `self_set_clearance(C)`: sets the calling thread's clearance, subject
    /// to `L_T ⊑ C ⊑ (C_T ⊔ L_T^J)`.
    pub(crate) fn sys_self_set_clearance(
        &mut self,
        tid: ObjectId,
        new: Label,
    ) -> Result<(), SyscallError> {
        let (label, clearance) = self.calling_thread(tid)?;
        self.stats.label_checks += 2;
        let c = self.cost.label_check(clearance.len() + new.len(), false);
        self.charge(c);
        label.check_set_clearance(&clearance, &new)?;
        let (_, body) = self.thread_mut(tid)?;
        body.clearance = new;
        Ok(())
    }

    /// Returns the calling thread's own label.
    // flowcheck: exempt(returns the calling thread's own label; self-observation leaks nothing)
    pub(crate) fn sys_self_get_label(&mut self, tid: ObjectId) -> Result<Label, SyscallError> {
        let (label, _) = self.calling_thread(tid)?;
        Ok(label)
    }

    /// Returns the calling thread's own clearance.
    // flowcheck: exempt(returns the calling thread's own clearance; self-observation leaks nothing)
    pub(crate) fn sys_self_get_clearance(&mut self, tid: ObjectId) -> Result<Label, SyscallError> {
        let (_, clearance) = self.calling_thread(tid)?;
        Ok(clearance)
    }

    // ----- containers and quotas (§3.2, §3.3) ----------------------------

    /// `container_create(D, L, descrip, avoid_types, quota)`.
    pub(crate) fn sys_container_create(
        &mut self,
        tid: ObjectId,
        parent: ObjectId,
        label: Label,
        descrip: String,
        avoid_types: u8,
        quota: u64,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        let body = ObjectBody::Container(ContainerBody::with_links(
            Vec::new(),
            Some(parent),
            avoid_types,
        ));
        self.create_object(&tl, &tc, parent, label, quota, &descrip, body)
    }

    /// Unreferences an object from a container; the object is deallocated
    /// when its last link disappears (recursively for containers).
    pub(crate) fn sys_obj_unref(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        if entry.object == self.root {
            return Err(SyscallError::RootContainer);
        }
        self.check_modify(&tl, entry.container)?;
        let quota = self.obj(entry.object)?.header.quota;
        {
            let cobj = self.obj_mut(entry.container)?;
            let unlinked = match &mut cobj.body {
                ObjectBody::Container(c) => c.unlink(entry.object),
                _ => {
                    return Err(SyscallError::WrongType {
                        found: cobj.header.object_type,
                        expected: ObjectType::Container,
                    })
                }
            };
            if !unlinked {
                return Err(SyscallError::NotInContainer {
                    container: entry.container,
                    object: entry.object,
                });
            }
            cobj.header.usage = cobj.header.usage.saturating_sub(quota);
        }
        let remaining = {
            let o = self.obj_mut(entry.object)?;
            o.header.links = o.header.links.saturating_sub(1);
            o.header.links
        };
        // The link is severed: every capability handle installed
        // through it is revoked, so no thread can keep naming the
        // object along a path that no longer exists.
        self.revoke_handles_for_entry(entry);
        if remaining == 0 {
            self.dealloc(entry.object);
        }
        Ok(())
    }

    /// Adds an additional hard link to an object (`⟨D_src, O⟩` into `D_dst`).
    ///
    /// The thread must be able to write `D_dst`, its clearance must admit
    /// the object's label, and the object's quota must be fixed (§3.3).
    pub(crate) fn sys_hard_link(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
        dst: ObjectId,
    ) -> Result<(), SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_modify(&tl, dst)?;
        let (olabel, quota, fixed) = {
            let o = self.obj(entry.object)?;
            (
                o.header.label.clone(),
                o.header.quota,
                o.header.flags.fixed_quota,
            )
        };
        if !fixed {
            return Err(SyscallError::QuotaNotFixed(entry.object));
        }
        // Clearance must be high enough to allocate at the object's
        // label: L_S ⊑ C_T.
        self.stats.label_checks += 1;
        if !olabel.leq(&tc) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }
        // Double-charge the object's quota to the destination container.
        let (dheader, _) = self.container(dst)?;
        let available = dheader.quota_remaining();
        if available != QUOTA_INFINITE && quota > available {
            return Err(SyscallError::QuotaExceeded {
                container: dst,
                requested: quota,
                available,
            });
        }
        {
            let dobj = self.obj_mut(dst)?;
            dobj.header.usage += quota;
            match &mut dobj.body {
                ObjectBody::Container(c) => c.link(entry.object),
                _ => unreachable!("container() checked the type"),
            }
        }
        self.obj_mut(entry.object)?.header.links += 1;
        Ok(())
    }

    /// Returns a container's spare quota (`quota - usage`), or `u64::MAX`
    /// for the root container.  Requires observe access, since the answer
    /// reveals information about the container's contents.
    pub(crate) fn sys_container_quota_avail(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
    ) -> Result<u64, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, container)?;
        let (header, _) = self.container(container)?;
        Ok(header.quota_remaining())
    }

    /// `container_get_parent(D)`: the parent container of `D`.
    pub(crate) fn sys_container_get_parent(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, container)?;
        let (_, body) = self.container(container)?;
        body.parent.ok_or(SyscallError::RootContainer)
    }

    /// Lists the object IDs linked into a container (requires read access).
    pub(crate) fn sys_container_list(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
    ) -> Result<Vec<ObjectId>, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_observe(&tl, container)?;
        let (_, body) = self.container(container)?;
        Ok(body.links.clone())
    }

    /// `quota_move(D, O, n)`: moves `n` bytes of quota from container `D`
    /// to object `O` (or back, for negative `n`).
    pub(crate) fn sys_quota_move(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
        object: ObjectId,
        n: i64,
    ) -> Result<(), SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.check_modify(&tl, container)?;
        let (_, cbody) = self.container(container)?;
        if !cbody.contains(object) {
            return Err(SyscallError::NotInContainer { container, object });
        }
        // L_T ⊑ L_O ⊑ C_T.
        let olabel = self.obj(object)?.header.label.clone();
        self.stats.label_checks += 2;
        tl.can_allocate(&tc, &olabel)?;
        let (fixed, oquota, ousage) = {
            let o = self.obj(object)?;
            (o.header.flags.fixed_quota, o.header.quota, o.header.usage)
        };
        if fixed {
            return Err(SyscallError::QuotaFixed(object));
        }
        if n >= 0 {
            let n = n as u64;
            let (cheader, _) = self.container(container)?;
            let available = cheader.quota_remaining();
            if available != QUOTA_INFINITE && n > available {
                return Err(SyscallError::QuotaExceeded {
                    container,
                    requested: n,
                    available,
                });
            }
            self.obj_mut(object)?.header.quota = oquota.saturating_add(n);
            let c = self.obj_mut(container)?;
            if c.header.quota != QUOTA_INFINITE {
                c.header.usage += n;
            } else {
                c.header.usage = c.header.usage.saturating_add(n);
            }
        } else {
            let take = n.unsigned_abs();
            // Returning quota reveals whether O has |n| spare bytes, so
            // the caller must also be able to observe O.
            self.check_observe(&tl, object)?;
            if oquota.saturating_sub(ousage) < take {
                return Err(SyscallError::QuotaUnderflow(object));
            }
            self.obj_mut(object)?.header.quota = oquota - take;
            let c = self.obj_mut(container)?;
            c.header.usage = c.header.usage.saturating_sub(take);
        }
        Ok(())
    }

    // ----- object metadata ------------------------------------------------

    /// Reads an object's label through a container entry.
    ///
    /// For non-thread objects, readability of the container suffices; for
    /// threads, the caller must additionally satisfy `L_{T'}^J ⊑ L_T^J`.
    pub(crate) fn sys_obj_get_label(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<Label, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        let o = self.obj(entry.object)?;
        let label = o.header.label.clone();
        if o.header.object_type == ObjectType::Thread {
            self.stats.label_checks += 1;
            if !label.leq_high_both(&tl) {
                return Err(SyscallError::CannotObserve(entry.object));
            }
        }
        Ok(label)
    }

    /// Reads an object's descriptive string and type through a container
    /// entry.
    pub(crate) fn sys_obj_get_info(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<(ObjectType, String, u64), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        let o = self.obj(entry.object)?;
        Ok((
            o.header.object_type,
            o.header.descrip.clone(),
            o.header.quota,
        ))
    }

    /// Reads an object's 64-byte metadata area (requires observe).
    pub(crate) fn sys_obj_get_metadata(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<[u8; METADATA_LEN], SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_observe(&tl, entry.object)?;
        Ok(self.obj(entry.object)?.header.metadata)
    }

    /// Writes an object's 64-byte metadata area (requires modify).
    pub(crate) fn sys_obj_set_metadata(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
        metadata: [u8; METADATA_LEN],
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_modify(&tl, entry.object)?;
        self.obj_mut(entry.object)?.header.metadata = metadata;
        Ok(())
    }

    /// Irrevocably marks an object immutable (requires modify first).
    pub(crate) fn sys_obj_set_immutable(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_modify(&tl, entry.object)?;
        self.obj_mut(entry.object)?.header.flags.immutable = true;
        Ok(())
    }

    /// Irrevocably fixes an object's quota so it may be hard-linked into
    /// additional containers.
    pub(crate) fn sys_obj_set_fixed_quota(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_modify(&tl, entry.object)?;
        self.obj_mut(entry.object)?.header.flags.fixed_quota = true;
        Ok(())
    }

    // ----- segments --------------------------------------------------------

    /// Creates a segment of `len` zero bytes in `container`.
    pub(crate) fn sys_segment_create(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
        label: Label,
        len: u64,
        descrip: String,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        // Zeroing freshly allocated pages is charged explicitly; HiStar has
        // no pre-zeroed page pool (§7.1).
        let pages = len.div_ceil(PAGE_SIZE);
        let zero_cost = self.cost.page_zero * pages;
        self.charge(zero_cost);
        let quota = (len.max(1)).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let body = ObjectBody::Segment(SegmentBody::zeroed(len as usize));
        self.create_object(&tl, &tc, container, label, quota, &descrip, body)
    }

    /// Resizes a segment (zero-filling growth), within its quota.
    pub(crate) fn sys_segment_resize(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
        len: u64,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, entry)?;
        self.check_modify(&tl, entry.object)?;
        let grow_pages;
        {
            let o = self.obj_mut(entry.object)?;
            let quota = o.header.quota;
            match &mut o.body {
                ObjectBody::Segment(s) => {
                    if len > quota {
                        return Err(SyscallError::QuotaExceeded {
                            container: entry.container,
                            requested: len,
                            available: quota,
                        });
                    }
                    let old = s.len() as u64;
                    grow_pages = len.saturating_sub(old).div_ceil(PAGE_SIZE);
                    s.resize(len as usize);
                    o.header.usage = len;
                }
                _ => {
                    return Err(SyscallError::WrongType {
                        found: o.header.object_type,
                        expected: ObjectType::Segment,
                    })
                }
            }
        }
        let zero_cost = self.cost.page_zero * grow_pages;
        self.charge(zero_cost);
        Ok(())
    }

    /// Reads bytes from a segment (models a load through a mapping; the same
    /// label checks as a read page fault apply).
    pub(crate) fn sys_segment_read(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        let local = self.thread(tid)?.1.local_segment;
        if local != Some(entry.object) {
            self.check_entry(&tl, entry)?;
            self.check_observe(&tl, entry.object)?;
        }
        let copy_cost = self.cost.copy(len);
        self.charge(copy_cost);
        let o = self.obj(entry.object)?;
        match &o.body {
            ObjectBody::Segment(s) => {
                let start = offset as usize;
                let end = (offset + len) as usize;
                if end > s.len() {
                    return Err(SyscallError::InvalidArgument("read beyond end of segment"));
                }
                Ok(s.bytes[start..end].to_vec())
            }
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Segment,
            }),
        }
    }

    /// Writes bytes into a segment (models a store through a mapping).
    ///
    /// The calling thread's local segment is always writable by that thread,
    /// regardless of its current taint (§3.4).
    pub(crate) fn sys_segment_write(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
        offset: u64,
        data: Vec<u8>,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        let result = (|| -> Result<(), SyscallError> {
            let local = self.thread(tid)?.1.local_segment;
            if local != Some(entry.object) {
                self.check_entry(&tl, entry)?;
                self.check_modify(&tl, entry.object)?;
            }
            let copy_cost = self.cost.copy(data.len() as u64);
            self.charge(copy_cost);
            let o = self.obj_mut(entry.object)?;
            let quota = o.header.quota;
            match &mut o.body {
                ObjectBody::Segment(s) => {
                    let end = offset + data.len() as u64;
                    if end > quota {
                        return Err(SyscallError::QuotaExceeded {
                            container: entry.container,
                            requested: end,
                            available: quota,
                        });
                    }
                    if end as usize > s.len() {
                        s.resize(end as usize);
                        o.header.usage = end;
                    }
                    s.bytes[offset as usize..end as usize].copy_from_slice(&data);
                    Ok(())
                }
                _ => Err(SyscallError::WrongType {
                    found: o.header.object_type,
                    expected: ObjectType::Segment,
                }),
            }
        })();
        if result.is_ok() {
            // Readiness: wake anyone parked waiting for this segment to
            // make progress (blocked pipe/socket readers and pollers).
            self.notify_watchers(entry.object);
        }
        result
    }

    /// Returns the length of a segment (requires observe).
    pub(crate) fn sys_segment_len(
        &mut self,
        tid: ObjectId,
        entry: ContainerEntry,
    ) -> Result<u64, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        let local = self.thread(tid)?.1.local_segment;
        if local != Some(entry.object) {
            self.check_entry(&tl, entry)?;
            self.check_observe(&tl, entry.object)?;
        }
        let o = self.obj(entry.object)?;
        match &o.body {
            ObjectBody::Segment(s) => Ok(s.len() as u64),
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Segment,
            }),
        }
    }

    /// Copies a segment into `dst_container` under a (possibly different)
    /// label — the "efficient copies with different labels" of §3, used for
    /// taint-forking address spaces and segments.
    pub(crate) fn sys_segment_copy(
        &mut self,
        tid: ObjectId,
        src: ContainerEntry,
        dst_container: ObjectId,
        label: Label,
        descrip: String,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.check_entry(&tl, src)?;
        self.check_observe(&tl, src.object)?;
        let bytes = {
            let o = self.obj(src.object)?;
            match &o.body {
                ObjectBody::Segment(s) => s.bytes.clone(),
                _ => {
                    return Err(SyscallError::WrongType {
                        found: o.header.object_type,
                        expected: ObjectType::Segment,
                    })
                }
            }
        };
        let pages = (bytes.len() as u64).div_ceil(PAGE_SIZE);
        let copy_cost = self.cost.page_copy * pages;
        self.charge(copy_cost);
        let quota = (bytes.len().max(1) as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let body = ObjectBody::Segment(SegmentBody { bytes });
        self.create_object(&tl, &tc, dst_container, label, quota, &descrip, body)
    }

    // ----- address spaces (§3.4) -------------------------------------------

    /// Creates an empty address space.
    pub(crate) fn sys_as_create(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
        label: Label,
        descrip: String,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        let body = ObjectBody::AddressSpace(AddressSpaceBody::default());
        self.create_object(&tl, &tc, container, label, PAGE_SIZE, &descrip, body)
    }

    /// Copies an address space (and its mapping list) under a new label —
    /// used when a tainted thread forks a writable copy of its environment.
    pub(crate) fn sys_as_copy(
        &mut self,
        tid: ObjectId,
        src: ContainerEntry,
        dst_container: ObjectId,
        label: Label,
        descrip: String,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.check_entry(&tl, src)?;
        self.check_observe(&tl, src.object)?;
        let mappings = {
            let o = self.obj(src.object)?;
            match &o.body {
                ObjectBody::AddressSpace(a) => a.mappings.clone(),
                _ => {
                    return Err(SyscallError::WrongType {
                        found: o.header.object_type,
                        expected: ObjectType::AddressSpace,
                    })
                }
            }
        };
        let body = ObjectBody::AddressSpace(AddressSpaceBody { mappings });
        self.create_object(&tl, &tc, dst_container, label, PAGE_SIZE, &descrip, body)
    }

    /// Adds (or replaces) a mapping in an address space.
    pub(crate) fn sys_as_map(
        &mut self,
        tid: ObjectId,
        aspace: ContainerEntry,
        mapping: Mapping,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, aspace)?;
        self.check_modify(&tl, aspace.object)?;
        if !mapping.va.is_multiple_of(PAGE_SIZE) {
            return Err(SyscallError::InvalidArgument("va must be page-aligned"));
        }
        let o = self.obj_mut(aspace.object)?;
        match &mut o.body {
            ObjectBody::AddressSpace(a) => {
                a.map(mapping);
                Ok(())
            }
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::AddressSpace,
            }),
        }
    }

    /// Removes a mapping from an address space.
    pub(crate) fn sys_as_unmap(
        &mut self,
        tid: ObjectId,
        aspace: ContainerEntry,
        va: u64,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, aspace)?;
        self.check_modify(&tl, aspace.object)?;
        let o = self.obj_mut(aspace.object)?;
        match &mut o.body {
            ObjectBody::AddressSpace(a) => {
                a.unmap(va);
                Ok(())
            }
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::AddressSpace,
            }),
        }
    }

    /// `self_set_as`: switches the calling thread to a different address
    /// space.
    pub(crate) fn sys_self_set_as(
        &mut self,
        tid: ObjectId,
        aspace: ContainerEntry,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, aspace)?;
        // Using an address space requires observing it.
        self.check_observe(&tl, aspace.object)?;
        self.typed(aspace.object, ObjectType::AddressSpace)?;
        self.account_context_switch(Some(aspace));
        let (_, body) = self.thread_mut(tid)?;
        body.address_space = Some(aspace);
        Ok(())
    }

    fn account_context_switch(&mut self, new_as: Option<ContainerEntry>) {
        self.stats.context_switches += 1;
        let cost = if new_as.is_some() && new_as == self.last_address_space {
            self.stats.invlpg_switches += 1;
            self.cost.context_switch_invlpg
        } else {
            self.cost.context_switch_full
        };
        self.charge(cost);
        self.last_address_space = new_as;
    }

    /// Simulates a memory access by the thread at virtual address `va`,
    /// walking its address space exactly as the page-fault handler would.
    pub(crate) fn sys_page_fault(
        &mut self,
        tid: ObjectId,
        va: u64,
        write: bool,
    ) -> Result<PageFaultResolution, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.stats.page_faults += 1;
        let fault_cost = self.cost.page_fault;
        self.charge(fault_cost);
        let aspace_entry = self
            .thread(tid)?
            .1
            .address_space
            .ok_or(SyscallError::PageFault { va, write })?;
        self.check_observe(&tl, aspace_entry.object)?;
        let mapping = {
            let o = self.obj(aspace_entry.object)?;
            match &o.body {
                ObjectBody::AddressSpace(a) => a.lookup(va).copied(),
                _ => None,
            }
        }
        .ok_or(SyscallError::PageFault { va, write })?;
        if write && !mapping.flags.write || !write && !mapping.flags.read {
            return Err(SyscallError::PageFault { va, write });
        }
        // The kernel checks that T can read D and O; for writes it also
        // checks that T can modify O.
        self.check_observe(&tl, mapping.segment.container)
            .map_err(|_| SyscallError::PageFault { va, write })?;
        self.check_observe(&tl, mapping.segment.object)
            .map_err(|_| SyscallError::PageFault { va, write })?;
        if write {
            let olabel = self.obj(mapping.segment.object)?.header.label.clone();
            self.stats.label_checks += 1;
            if !tl.leq(&olabel) {
                return Err(SyscallError::PageFault { va, write });
            }
        }
        Ok(PageFaultResolution {
            segment: mapping.segment,
            offset: mapping.offset + (va - mapping.va),
            writable: mapping.flags.write,
        })
    }

    // ----- threads ---------------------------------------------------------

    /// Creates a new thread in `container` with the given label and
    /// clearance, subject to `L_T ⊑ L_{T'} ⊑ C_{T'} ⊑ C_T`.
    ///
    /// The new thread gets a one-page thread-local segment in the same
    /// container.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_thread_create(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
        label: Label,
        clearance: Label,
        entry_point: u64,
        descrip: String,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.stats.label_checks += 3;
        tl.check_spawn(&tc, &label, &clearance)?;
        let mut thread_body = ThreadBody::new(clearance);
        thread_body.entry_point = entry_point;
        // Inherit the parent's address space by default.
        thread_body.address_space = self.thread(tid)?.1.address_space;
        let new_tid = self.create_object(
            &tl,
            &tc,
            container,
            label.clone(),
            PAGE_SIZE,
            &descrip,
            ObjectBody::Thread(thread_body),
        )?;
        // Thread-local segment: one page, private to the thread.
        let local_label = label.drop_ownership(Level::L1);
        let local = self.create_object(
            &tl,
            &tc,
            container,
            local_label,
            PAGE_SIZE,
            &format!("tls:{descrip}"),
            ObjectBody::Segment(SegmentBody::zeroed(PAGE_SIZE as usize)),
        )?;
        if let Ok((_, body)) = self.thread_mut(new_tid) {
            body.local_segment = Some(local);
        }
        Ok(new_tid)
    }

    /// Bootstrap path: creates the first thread of the machine without a
    /// calling thread.  Only the machine boot code uses this.
    pub fn bootstrap_thread(
        &mut self,
        container: ObjectId,
        label: Label,
        clearance: Label,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let id = self.fresh_id();
        let mut header =
            ObjectHeader::new(id, ObjectType::Thread, label.clone(), PAGE_SIZE, descrip);
        header.links = 1;
        let mut body = ThreadBody::new(clearance);
        // Thread-local segment for the bootstrap thread.
        let local_id = self.fresh_id();
        let mut local_header = ObjectHeader::new(
            local_id,
            ObjectType::Segment,
            label.drop_ownership(Level::L1),
            PAGE_SIZE,
            &format!("tls:{descrip}"),
        );
        local_header.links = 1;
        body.local_segment = Some(local_id);
        self.objects.insert(
            local_id,
            KObject {
                header: local_header,
                body: ObjectBody::Segment(SegmentBody::zeroed(PAGE_SIZE as usize)),
            },
        );
        self.objects.insert(
            id,
            KObject {
                header,
                body: ObjectBody::Thread(body),
            },
        );
        // Link both into the container and charge quota.
        let cobj = self.obj_mut(container)?;
        cobj.header.usage += 2 * PAGE_SIZE;
        match &mut cobj.body {
            ObjectBody::Container(c) => {
                c.link(id);
                c.link(local_id);
            }
            _ => {
                return Err(SyscallError::WrongType {
                    found: cobj.header.object_type,
                    expected: ObjectType::Container,
                })
            }
        }
        self.stats.objects_created += 2;
        Ok(id)
    }

    /// The calling thread's thread-local segment.
    // flowcheck: exempt(returns the id of the caller's own thread-local segment; self-only metadata)
    pub(crate) fn sys_self_local_segment(
        &mut self,
        tid: ObjectId,
    ) -> Result<ObjectId, SyscallError> {
        self.calling_thread(tid)?;
        self.thread(tid)?
            .1
            .local_segment
            .ok_or(SyscallError::InvalidArgument("thread has no local segment"))
    }

    /// Halts the calling thread; it can never run (or make syscalls) again.
    // flowcheck: exempt(halts the calling thread itself; a thread may always give up its own CPU)
    pub(crate) fn sys_self_halt(&mut self, tid: ObjectId) -> Result<(), SyscallError> {
        self.calling_thread(tid)?;
        let (_, body) = self.thread_mut(tid)?;
        body.state = ThreadState::Halted;
        Ok(())
    }

    /// Sends an alert to another thread: the caller must be able to write
    /// the target's address space and observe the target (§3.4).
    pub(crate) fn sys_thread_alert(
        &mut self,
        tid: ObjectId,
        target: ContainerEntry,
        code: u64,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, target)?;
        let target_as = {
            let (_, tbody) = self.thread(target.object)?;
            tbody.address_space
        };
        if let Some(aspace) = target_as {
            self.check_modify(&tl, aspace.object)?;
        } else {
            return Err(SyscallError::InvalidArgument(
                "target thread has no address space",
            ));
        }
        // The alert also lets the target learn something about the
        // sender, so the sender must be allowed to convey information to
        // it: L_T ⊑ L_{T'}^J.
        let target_label = self.obj(target.object)?.header.label.clone();
        self.stats.label_checks += 1;
        if !tl.leq_high_rhs(&target_label) {
            return Err(SyscallError::CannotModify(target.object));
        }
        let (_, body) = self.thread_mut(target.object)?;
        body.pending_alerts.push(Alert { code });
        body.wake_flags |= WAKE_ALERT;
        // The alert is also announced on the target's completion
        // queue, so a thread blocked on an empty queue wakes without
        // polling `self_take_alert` every quantum.
        self.push_completion(
            target.object,
            Completion {
                user_data: KERNEL_USER_DATA,
                kind: CompletionKind::AlertPending { code },
            },
        );
        Ok(())
    }

    /// Removes and returns the oldest pending alert for the calling thread.
    // flowcheck: exempt(pops the caller's own alert queue; alerts were label-checked when posted by thread_alert)
    pub(crate) fn sys_self_take_alert(
        &mut self,
        tid: ObjectId,
    ) -> Result<Option<Alert>, SyscallError> {
        self.calling_thread(tid)?;
        let (_, body) = self.thread_mut(tid)?;
        if body.pending_alerts.is_empty() {
            Ok(None)
        } else {
            let alert = body.pending_alerts.remove(0);
            if body.pending_alerts.is_empty() {
                body.wake_flags &= !WAKE_ALERT;
            }
            // The alert's completion-queue notification is consumed with
            // it; a stale notification would re-wake a blocked thread
            // forever (the busy-poll the completion queue exists to avoid).
            if let Some(q) = self.completions.get_mut(&tid) {
                if let Some(i) = q
                    .iter()
                    .position(|c| matches!(c.kind, CompletionKind::AlertPending { .. }))
                {
                    q.remove(i);
                }
            }
            if !self.completion_pending(tid) {
                self.clear_wake_flag(tid, WAKE_COMPLETION);
            }
            Ok(Some(alert))
        }
    }

    /// Reads another thread's label, subject to `L_{T'}^J ⊑ L_T^J`.
    pub(crate) fn sys_thread_get_label(
        &mut self,
        tid: ObjectId,
        target: ContainerEntry,
    ) -> Result<Label, SyscallError> {
        self.sys_obj_get_label(tid, target)
    }

    // ----- gates (§3.5) ------------------------------------------------------

    /// Creates a gate.  The gate's label (which may contain `⋆`) and
    /// clearance must satisfy `L_T ⊑ L_G ⊑ C_G ⊑ C_T`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_gate_create(
        &mut self,
        tid: ObjectId,
        container: ObjectId,
        label: Label,
        clearance: Label,
        address_space: Option<ContainerEntry>,
        entry_point: u64,
        closure_args: Vec<u64>,
        descrip: String,
    ) -> Result<ObjectId, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.stats.label_checks += 3;
        if !tl.leq(&label) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelNotMonotonic,
            ));
        }
        if !label.leq(&clearance) {
            return Err(SyscallError::Label(
                histar_label::LabelError::ClearanceBelowLabel,
            ));
        }
        if !clearance.leq(&tc) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }
        let mut gate = GateBody::new(clearance, entry_point);
        gate.address_space = address_space;
        gate.closure_args = closure_args;
        self.create_object(
            &tl,
            &tc,
            container,
            label,
            PAGE_SIZE,
            &descrip,
            ObjectBody::Gate(gate),
        )
    }

    /// Invokes a gate.  The calling thread specifies the label `requested`
    /// and clearance `requested_clearance` it wants on entry, plus a verify
    /// label used only to prove category possession to the gate's code.
    ///
    /// Permitted when `L_T ⊑ C_G`, `L_T ⊑ L_V`, and
    /// `(L_T^J ⊔ L_G^J)^⋆ ⊑ L_R ⊑ C_R ⊑ (C_T ⊔ C_G)`.
    pub(crate) fn sys_gate_enter(
        &mut self,
        tid: ObjectId,
        gate: ContainerEntry,
        requested: Label,
        requested_clearance: Label,
        verify: Label,
    ) -> Result<GateEntryResult, SyscallError> {
        let (tl, tc) = self.calling_thread(tid)?;
        self.check_entry(&tl, gate)?;
        let (glabel, gclearance, gbody) = {
            let o = self.typed(gate.object, ObjectType::Gate)?;
            match &o.body {
                ObjectBody::Gate(g) => (o.header.label.clone(), g.clearance.clone(), g.clone()),
                _ => unreachable!("typed() checked the object type"),
            }
        };
        self.stats.label_checks += 5;
        let lc = self.cost.label_check(tl.len() + glabel.len(), false);
        self.charge(lc);
        if !tl.leq(&gclearance) {
            return Err(SyscallError::GateClearance(gate.object));
        }
        if !tl.leq(&verify) {
            return Err(SyscallError::VerifyLabel);
        }
        let floor = tl.ownership_union(&glabel);
        if !floor.leq(&requested) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelNotMonotonic,
            ));
        }
        if !requested.leq(&requested_clearance) {
            return Err(SyscallError::Label(
                histar_label::LabelError::ClearanceBelowLabel,
            ));
        }
        let clearance_bound = tc.lub(&gclearance);
        if !requested_clearance.leq(&clearance_bound) {
            return Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance,
            ));
        }

        self.stats.gate_invocations += 1;
        let gate_cost = self.cost.gate_overhead;
        self.charge(gate_cost);
        self.account_context_switch(gbody.address_space);

        {
            let (header, body) = self.thread_mut(tid)?;
            header.label = requested.clone();
            body.clearance = requested_clearance.clone();
            if gbody.address_space.is_some() {
                body.address_space = gbody.address_space;
            }
            body.entry_point = gbody.entry_point;
        }
        Ok(GateEntryResult {
            label: requested,
            clearance: requested_clearance,
            address_space: gbody.address_space,
            entry_point: gbody.entry_point,
            stack_pointer: gbody.stack_pointer,
            closure_args: gbody.closure_args,
        })
    }

    /// Reads a gate's clearance (for callers deciding how to invoke it).
    pub(crate) fn sys_gate_clearance(
        &mut self,
        tid: ObjectId,
        gate: ContainerEntry,
    ) -> Result<Label, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, gate)?;
        let o = self.typed(gate.object, ObjectType::Gate)?;
        match &o.body {
            ObjectBody::Gate(g) => Ok(g.clearance.clone()),
            _ => unreachable!("typed() checked the object type"),
        }
    }

    // ----- category translation (exporter support) ---------------------------

    /// Binds a local category to its self-certifying global name, so that
    /// label checks survive the network hop between machines.
    ///
    /// Only a thread *owning* the category may assert its global identity —
    /// this is what keeps the translation table trustworthy: an exporter can
    /// only export categories whose owners granted it `⋆`, and a malicious
    /// process cannot re-point someone else's category at a name it controls.
    /// Bindings are write-once; rebinding to a different name (or binding a
    /// second local category to an already-claimed name) is refused, which
    /// guarantees that translation is a partial bijection.
    pub(crate) fn sys_category_bind_remote(
        &mut self,
        tid: ObjectId,
        category: Category,
        name: RemoteCategoryName,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        if !tl.owns(category) {
            return Err(SyscallError::NotCategoryOwner(category));
        }
        match self.remote_bindings.get(&category) {
            Some(existing) if *existing == name => return Ok(()), // idempotent
            Some(_) => {
                return Err(SyscallError::InvalidArgument(
                    "category is already bound to a different global name",
                ))
            }
            None => {}
        }
        if let Some(other) = self.remote_index.get(&name) {
            if *other != category {
                return Err(SyscallError::InvalidArgument(
                    "global name is already bound to a different category",
                ));
            }
        }
        self.remote_bindings.insert(category, name);
        self.remote_index.insert(name, category);
        Ok(())
    }

    /// Looks up a category's global name.  Global names are self-certifying
    /// and deliberately public (they are what appears on the wire), so no
    /// label check is needed beyond the calling thread being runnable.
    // flowcheck: exempt(global names are self-certifying public handles; the binding table carries no payload)
    pub(crate) fn sys_category_get_remote(
        &mut self,
        tid: ObjectId,
        category: Category,
    ) -> Result<Option<RemoteCategoryName>, SyscallError> {
        self.calling_thread(tid)?;
        Ok(self.remote_bindings.get(&category).copied())
    }

    /// Resolves a global name back to the local category bound to it.
    // flowcheck: exempt(reverse lookup of a self-certifying public name; the binding table carries no payload)
    pub(crate) fn sys_category_resolve_remote(
        &mut self,
        tid: ObjectId,
        name: RemoteCategoryName,
    ) -> Result<Option<Category>, SyscallError> {
        self.calling_thread(tid)?;
        Ok(self.remote_index.get(&name).copied())
    }

    /// All category ↔ global-name bindings (persistence, diagnostics).
    pub fn remote_bindings(&self) -> impl Iterator<Item = (Category, RemoteCategoryName)> + '_ {
        self.remote_bindings.iter().map(|(c, n)| (*c, *n))
    }

    /// Restores the translation table after recovery.  Crate-internal: it
    /// bypasses the ownership check and the write-once rule, which is only
    /// sound when replaying bindings that were validated when first created
    /// into a freshly recovered kernel — exactly what machine recovery does.
    pub(crate) fn restore_remote_bindings(
        &mut self,
        bindings: impl IntoIterator<Item = (Category, RemoteCategoryName)>,
    ) {
        for (c, n) in bindings {
            self.remote_bindings.insert(c, n);
            self.remote_index.insert(n, c);
        }
    }

    // ----- devices (§4, §5.7) ------------------------------------------------

    /// Bootstrap path: creates a device object directly in a container.
    /// Only machine boot code uses this (devices are discovered by the
    /// kernel, not created by threads).
    pub fn boot_create_device(
        &mut self,
        container: ObjectId,
        label: Label,
        body: DeviceBody,
        descrip: &str,
    ) -> Result<ObjectId, SyscallError> {
        let id = self.fresh_id();
        let mut header = ObjectHeader::new(id, ObjectType::Device, label, PAGE_SIZE, descrip);
        header.links = 1;
        self.objects.insert(
            id,
            KObject {
                header,
                body: ObjectBody::Device(body),
            },
        );
        let cobj = self.obj_mut(container)?;
        cobj.header.usage += PAGE_SIZE;
        match &mut cobj.body {
            ObjectBody::Container(c) => c.link(id),
            _ => {
                return Err(SyscallError::WrongType {
                    found: cobj.header.object_type,
                    expected: ObjectType::Container,
                })
            }
        }
        self.stats.objects_created += 1;
        Ok(id)
    }

    /// Returns the MAC address of a network device (requires observe).
    pub(crate) fn sys_net_mac(
        &mut self,
        tid: ObjectId,
        device: ContainerEntry,
    ) -> Result<[u8; 6], SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, device)?;
        self.check_observe(&tl, device.object)?;
        let o = self.typed(device.object, ObjectType::Device)?;
        match &o.body {
            ObjectBody::Device(d) => Ok(d.mac),
            _ => unreachable!("typed() checked the object type"),
        }
    }

    /// Queues a frame for transmission (requires modify on the device).
    pub(crate) fn sys_net_transmit(
        &mut self,
        tid: ObjectId,
        device: ContainerEntry,
        frame: Vec<u8>,
    ) -> Result<(), SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, device)?;
        self.check_modify(&tl, device.object)?;
        let o = self.obj_mut(device.object)?;
        match &mut o.body {
            ObjectBody::Device(d) => {
                d.tx_queue.push(frame);
                Ok(())
            }
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Device,
            }),
        }
    }

    /// Takes the next received frame, if any (requires modify on the device,
    /// since consuming a frame changes its state).
    pub(crate) fn sys_net_receive(
        &mut self,
        tid: ObjectId,
        device: ContainerEntry,
    ) -> Result<Option<Vec<u8>>, SyscallError> {
        let (tl, _) = self.calling_thread(tid)?;
        self.check_entry(&tl, device)?;
        self.check_modify(&tl, device.object)?;
        let o = self.obj_mut(device.object)?;
        match &mut o.body {
            ObjectBody::Device(d) => {
                if d.rx_queue.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(d.rx_queue.remove(0)))
                }
            }
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Device,
            }),
        }
    }

    /// Simulation hook (not a system call): delivers a frame "from the
    /// wire" into a device's receive queue.
    pub fn device_inject_rx(
        &mut self,
        device: ObjectId,
        frame: Vec<u8>,
    ) -> Result<(), SyscallError> {
        let o = self.obj_mut(device)?;
        match &mut o.body {
            ObjectBody::Device(d) => {
                d.rx_queue.push(frame);
                Ok(())
            }
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Device,
            }),
        }
    }

    /// Simulation hook (not a system call): drains frames the machine has
    /// transmitted, as the physical wire would.
    pub fn device_drain_tx(&mut self, device: ObjectId) -> Result<Vec<Vec<u8>>, SyscallError> {
        let o = self.obj_mut(device)?;
        match &mut o.body {
            ObjectBody::Device(d) => Ok(std::mem::take(&mut d.tx_queue)),
            _ => Err(SyscallError::WrongType {
                found: o.header.object_type,
                expected: ObjectType::Device,
            }),
        }
    }

    // ----- introspection used by the store / machine -------------------------

    /// Iterates over all objects (used by snapshotting).
    pub fn objects(&self) -> impl Iterator<Item = (&ObjectId, &KObject)> {
        // flowcheck: exempt(hot object table stays a HashMap; every consumer sorts by id before order becomes visible — see Machine::snapshot)
        self.objects.iter()
    }

    /// Looks up an object directly (kernel-internal / persistence).
    pub fn raw_object(&self, id: ObjectId) -> Option<&KObject> {
        self.objects.get(&id)
    }

    /// Replaces the entire object table (used by recovery).
    #[allow(clippy::disallowed_types)]
    pub fn restore_objects(
        &mut self,
        root: ObjectId,
        objects: HashMap<ObjectId, KObject>,
        id_counter: u64,
        category_counter: u64,
        seed: u64,
    ) {
        self.objects = objects;
        self.root = root;
        self.id_counter = id_counter;
        self.id_cipher = FeistelCipher::new(seed ^ 0xbeef);
        self.categories = CategoryAllocator::resume(seed ^ 0xcafe, category_counter);
    }

    /// Counters needed to persist allocator state across snapshots.
    pub fn allocator_counters(&self) -> (u64, u64) {
        (self.id_counter, self.categories.allocated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boots a bare kernel with one unrestricted thread in the root
    /// container and returns `(kernel, thread id)`.
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

    fn entry(k: &Kernel, o: ObjectId) -> ContainerEntry {
        ContainerEntry::new(k.root_container(), o)
    }

    #[test]
    fn bootstrap_creates_root_and_thread() {
        let (k, tid) = boot();
        assert_eq!(k.object_count(), 3); // root + thread + tls
        assert_eq!(k.thread_label(tid).unwrap(), Label::unrestricted());
        assert_eq!(k.thread_clearance(tid).unwrap(), Label::default_clearance());
    }

    #[test]
    fn create_category_grants_ownership_and_clearance() {
        let (mut k, tid) = boot();
        let c = k.sys_create_category(tid).unwrap();
        let label = k.thread_label(tid).unwrap();
        let clearance = k.thread_clearance(tid).unwrap();
        assert!(label.owns(c));
        assert_eq!(clearance.level(c), Level::L3);
        // Another category is distinct.
        let c2 = k.sys_create_category(tid).unwrap();
        assert_ne!(c, c2);
    }

    #[test]
    fn self_set_label_respects_clearance() {
        let (mut k, tid) = boot();
        let c = k.sys_create_category(tid).unwrap();
        // Tainting to 3 in an owned category is allowed (clearance 3 there).
        let lbl = k.thread_label(tid).unwrap().with(c, Level::L3);
        k.sys_self_set_label(tid, lbl.clone()).unwrap();
        assert_eq!(k.thread_label(tid).unwrap(), lbl);
        // Tainting to 3 in an unowned category exceeds the {2} clearance.
        let other = Category::from_raw(12345);
        let too_high = lbl.with(other, Level::L3);
        assert!(matches!(
            k.sys_self_set_label(tid, too_high),
            Err(SyscallError::Label(_))
        ));
    }

    #[test]
    fn segment_create_read_write() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .sys_segment_create(tid, root, Label::unrestricted(), 100, "data".into())
            .unwrap();
        let e = entry(&k, seg);
        k.sys_segment_write(tid, e, 10, b"hello".to_vec()).unwrap();
        assert_eq!(k.sys_segment_read(tid, e, 10, 5).unwrap(), b"hello");
        assert_eq!(k.sys_segment_len(tid, e).unwrap(), 100);
        k.sys_segment_resize(tid, e, 200).unwrap();
        assert_eq!(k.sys_segment_len(tid, e).unwrap(), 200);
        // Reads past the end are rejected.
        assert!(k.sys_segment_read(tid, e, 190, 100).is_err());
    }

    #[test]
    fn tainted_segment_is_unreadable_without_taint() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // An owner creates a secret segment tainted in its category.
        let c = k.sys_create_category(tid).unwrap();
        let secret_label = Label::builder().set(c, Level::L3).build();
        let seg = k
            .sys_segment_create(tid, root, secret_label, 10, "secret".into())
            .unwrap();
        let e = entry(&k, seg);
        // The owner can read it.
        assert!(k.sys_segment_read(tid, e, 0, 1).is_ok());

        // A second, unprivileged thread cannot.
        let other = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other".into(),
            )
            .unwrap();
        assert_eq!(
            k.sys_segment_read(other, e, 0, 1),
            Err(SyscallError::CannotObserve(seg))
        );
        // It can taint itself up to clearance 2... which is still below 3,
        // so even after self-tainting the read fails.
        let tainted = Label::builder().set(c, Level::L2).build();
        k.sys_self_set_label(other, tainted).unwrap();
        assert!(k.sys_segment_read(other, e, 0, 1).is_err());
    }

    #[test]
    fn low_integrity_thread_cannot_write_high_integrity_segment() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let c = k.sys_create_category(tid).unwrap();
        // {c0, 1}: only owners of c may modify.
        let protected = Label::builder().set(c, Level::L0).build();
        let seg = k
            .sys_segment_create(tid, root, protected, 10, "protected".into())
            .unwrap();
        let e = entry(&k, seg);
        // The owner can write.
        k.sys_segment_write(tid, e, 0, b"x".to_vec()).unwrap();
        // An unprivileged thread can read but not write.
        let other = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other".into(),
            )
            .unwrap();
        assert!(k.sys_segment_read(other, e, 0, 1).is_ok());
        assert_eq!(
            k.sys_segment_write(other, e, 0, b"y".to_vec()),
            Err(SyscallError::CannotModify(seg))
        );
    }

    #[test]
    fn container_hierarchy_and_unref() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let dir = k
            .sys_container_create(tid, root, Label::unrestricted(), "dir".into(), 0, 1 << 20)
            .unwrap();
        let seg = k
            .sys_segment_create(tid, dir, Label::unrestricted(), 4096, "file".into())
            .unwrap();
        assert_eq!(k.sys_container_get_parent(tid, dir).unwrap(), root);
        assert!(k.sys_container_list(tid, dir).unwrap().contains(&seg));
        // Unreferencing the directory drops the whole subtree.
        let count_before = k.object_count();
        k.sys_obj_unref(tid, entry(&k, dir)).unwrap();
        assert_eq!(k.object_count(), count_before - 2);
        assert!(k.raw_object(seg).is_none());
    }

    #[test]
    fn quota_is_charged_and_enforced() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let small = k
            .sys_container_create(tid, root, Label::unrestricted(), "small".into(), 0, 8192)
            .unwrap();
        // A 4-KiB segment fits.
        let _seg = k
            .sys_segment_create(tid, small, Label::unrestricted(), 4096, "a".into())
            .unwrap();
        // Another 8-KiB segment does not.
        assert!(matches!(
            k.sys_segment_create(tid, small, Label::unrestricted(), 8192, "b".into()),
            Err(SyscallError::QuotaExceeded { .. })
        ));
        // Moving quota into the container's child makes room... first grow
        // the container itself from the root.
        k.sys_quota_move(tid, root, small, 8192).unwrap();
        assert!(k
            .sys_segment_create(tid, small, Label::unrestricted(), 8192, "b".into())
            .is_ok());
    }

    #[test]
    fn avoid_types_is_inherited() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let no_threads = k
            .sys_container_create(
                tid,
                root,
                Label::unrestricted(),
                "nothreads".into(),
                ObjectType::Thread.mask_bit(),
                1 << 20,
            )
            .unwrap();
        let sub = k
            .sys_container_create(
                tid,
                no_threads,
                Label::unrestricted(),
                "sub".into(),
                0,
                1 << 16,
            )
            .unwrap();
        assert!(matches!(
            k.sys_thread_create(
                tid,
                sub,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "t".into()
            ),
            Err(SyscallError::TypeForbidden(ObjectType::Thread))
        ));
        // Segments are still allowed.
        assert!(k
            .sys_segment_create(tid, sub, Label::unrestricted(), 16, "s".into())
            .is_ok());
    }

    #[test]
    fn thread_spawn_rules() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // Clearance above the parent's clearance is rejected.
        let too_high = Label::new(Level::L3);
        assert!(k
            .sys_thread_create(tid, root, Label::unrestricted(), too_high, 0, "t".into())
            .is_err());
        // A properly bounded child works and inherits the address space.
        let child = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                7,
                "child".into(),
            )
            .unwrap();
        assert_eq!(k.thread_label(child).unwrap(), Label::unrestricted());
    }

    #[test]
    fn address_space_and_page_fault() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .sys_segment_create(tid, root, Label::unrestricted(), 8192, "text".into())
            .unwrap();
        let aspace = k
            .sys_as_create(tid, root, Label::unrestricted(), "as".into())
            .unwrap();
        let ae = entry(&k, aspace);
        k.sys_as_map(
            tid,
            ae,
            Mapping {
                va: 0x10_0000,
                segment: entry(&k, seg),
                offset: 0,
                npages: 2,
                flags: crate::bodies::MappingFlags::rw(),
            },
        )
        .unwrap();
        k.sys_self_set_as(tid, ae).unwrap();
        let r = k.sys_page_fault(tid, 0x10_1000, false).unwrap();
        assert_eq!(r.segment.object, seg);
        assert_eq!(r.offset, 4096);
        assert!(r.writable);
        // An unmapped address faults to the user handler.
        assert!(matches!(
            k.sys_page_fault(tid, 0x20_0000, false),
            Err(SyscallError::PageFault { .. })
        ));
        // A write fault on a read-only mapping is refused.
        k.sys_as_map(
            tid,
            ae,
            Mapping {
                va: 0x20_0000,
                segment: entry(&k, seg),
                offset: 0,
                npages: 1,
                flags: crate::bodies::MappingFlags::ro(),
            },
        )
        .unwrap();
        assert!(matches!(
            k.sys_page_fault(tid, 0x20_0000, true),
            Err(SyscallError::PageFault { write: true, .. })
        ));
    }

    #[test]
    fn gate_transfers_privilege() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // A "daemon" thread owning category d creates a gate granting d.
        let daemon = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "daemon".into(),
            )
            .unwrap();
        let d = k.sys_create_category(daemon).unwrap();
        let gate_label = k.thread_label(daemon).unwrap(); // owns d
        let gate = k
            .sys_gate_create(
                tid_owner(&k, daemon),
                root,
                gate_label,
                Label::default_clearance(),
                None,
                0xdead,
                vec![1, 2, 3],
                "service".into(),
            )
            .unwrap();

        // An unprivileged client invokes the gate, requesting ownership of d.
        let client = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "client".into(),
            )
            .unwrap();
        let requested = Label::builder().own(d).build();
        let res = k
            .sys_gate_enter(
                client,
                entry(&k, gate),
                requested.clone(),
                Label::default_clearance(),
                Label::unrestricted(),
            )
            .unwrap();
        assert_eq!(res.entry_point, 0xdead);
        assert_eq!(res.closure_args, vec![1, 2, 3]);
        assert!(k.thread_label(client).unwrap().owns(d));

        // Requesting ownership of a category the gate does not own fails.
        let bogus = Category::from_raw(999_999);
        let too_much = Label::builder().own(d).own(bogus).build();
        let client2 = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "client2".into(),
            )
            .unwrap();
        assert!(k
            .sys_gate_enter(
                client2,
                entry(&k, gate),
                too_much,
                Label::default_clearance(),
                Label::unrestricted(),
            )
            .is_err());
    }

    /// Helper used by the gate test: the daemon itself creates the gate.
    fn tid_owner(_k: &Kernel, daemon: ObjectId) -> ObjectId {
        daemon
    }

    #[test]
    fn gate_clearance_gates_entry() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let d = k.sys_create_category(tid).unwrap();
        // The gate requires ownership of d to invoke: clearance {d0, 2}.
        let gate_clearance = Label::builder()
            .set(d, Level::L0)
            .default_level(Level::L2)
            .build();
        let gate = k
            .sys_gate_create(
                tid,
                root,
                k.thread_label(tid).unwrap(),
                gate_clearance,
                None,
                1,
                vec![],
                "guarded".into(),
            )
            .unwrap();
        // A thread without d cannot invoke it (its label {1} ⋢ {d0,2}).
        let outsider = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "outsider".into(),
            )
            .unwrap();
        assert_eq!(
            k.sys_gate_enter(
                outsider,
                entry(&k, gate),
                Label::unrestricted(),
                Label::default_clearance(),
                Label::unrestricted(),
            )
            .unwrap_err(),
            SyscallError::GateClearance(gate)
        );
    }

    #[test]
    fn thread_alert_requires_address_space_write() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let aspace = k
            .sys_as_create(tid, root, Label::unrestricted(), "as".into())
            .unwrap();
        k.sys_self_set_as(tid, entry(&k, aspace)).unwrap();
        let peer = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "peer".into(),
            )
            .unwrap();
        // peer inherits tid's address space, which it can write; alert works.
        k.sys_thread_alert(peer, entry(&k, tid), 15).unwrap();
        assert_eq!(
            k.sys_self_take_alert(tid).unwrap(),
            Some(crate::bodies::Alert { code: 15 })
        );
        assert_eq!(k.sys_self_take_alert(tid).unwrap(), None);
    }

    #[test]
    fn immutable_objects_reject_writes() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let seg = k
            .sys_segment_create(tid, root, Label::unrestricted(), 10, "ro".into())
            .unwrap();
        let e = entry(&k, seg);
        k.sys_obj_set_immutable(tid, e).unwrap();
        assert_eq!(
            k.sys_segment_write(tid, e, 0, b"x".to_vec()),
            Err(SyscallError::Immutable(seg))
        );
        // Reads still work.
        assert!(k.sys_segment_read(tid, e, 0, 1).is_ok());
    }

    #[test]
    fn hard_link_requires_fixed_quota() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        let dir = k
            .sys_container_create(tid, root, Label::unrestricted(), "dir".into(), 0, 1 << 20)
            .unwrap();
        let seg = k
            .sys_segment_create(tid, root, Label::unrestricted(), 10, "shared".into())
            .unwrap();
        let e = entry(&k, seg);
        assert_eq!(
            k.sys_hard_link(tid, e, dir),
            Err(SyscallError::QuotaNotFixed(seg))
        );
        k.sys_obj_set_fixed_quota(tid, e).unwrap();
        k.sys_hard_link(tid, e, dir).unwrap();
        // The object now survives removal of one link.
        k.sys_obj_unref(tid, e).unwrap();
        assert!(k.raw_object(seg).is_some());
        k.sys_obj_unref(tid, ContainerEntry::new(dir, seg)).unwrap();
        assert!(k.raw_object(seg).is_none());
    }

    #[test]
    fn unref_root_is_rejected() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        assert_eq!(
            k.sys_obj_unref(tid, ContainerEntry::self_entry(root)),
            Err(SyscallError::RootContainer)
        );
    }

    #[test]
    fn network_device_with_taint() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // Create netd-ish categories and the device label {nr3, nw0, i2, 1}.
        let nr = k.sys_create_category(tid).unwrap();
        let nw = k.sys_create_category(tid).unwrap();
        let i = k.sys_create_category(tid).unwrap();
        let dev_label = Label::builder()
            .set(nr, Level::L3)
            .set(nw, Level::L0)
            .set(i, Level::L2)
            .build();
        let dev = k
            .boot_create_device(
                root,
                dev_label,
                DeviceBody::network([1, 2, 3, 4, 5, 6]),
                "eth0",
            )
            .unwrap();
        let de = entry(&k, dev);
        // The owner of nr/nw (which also owns i here) can use the device.
        k.sys_net_transmit(tid, de, vec![0xaa]).unwrap();
        k.device_inject_rx(dev, vec![0xbb]).unwrap();
        assert_eq!(k.sys_net_receive(tid, de).unwrap(), Some(vec![0xbb]));
        assert_eq!(k.sys_net_mac(tid, de).unwrap(), [1, 2, 3, 4, 5, 6]);
        assert_eq!(k.device_drain_tx(dev).unwrap(), vec![vec![0xaa]]);
        // An unprivileged thread cannot even observe the device (nr 3).
        let other = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other".into(),
            )
            .unwrap();
        assert!(k.sys_net_mac(other, de).is_err());
        assert!(k.sys_net_transmit(other, de, vec![1]).is_err());
    }

    #[test]
    fn syscall_stats_accumulate() {
        let (mut k, tid) = boot();
        let before = k.stats();
        let root = k.root_container();
        let _ = k.trap_segment_create(tid, root, Label::unrestricted(), 10, "s");
        let _ = k.trap_self_get_label(tid);
        let after = k.stats();
        let delta = after.since(&before);
        assert_eq!(delta.total(), 2);
        assert_eq!(delta.objects_created, 1);
        assert!(delta.label_checks >= 1);
    }

    #[test]
    fn halted_thread_cannot_syscall() {
        let (mut k, tid) = boot();
        k.sys_self_halt(tid).unwrap();
        assert_eq!(
            k.sys_self_get_label(tid),
            Err(SyscallError::ThreadHalted(tid))
        );
    }

    #[test]
    fn thread_local_segment_is_always_writable() {
        let (mut k, tid) = boot();
        let local = k.sys_self_local_segment(tid).unwrap();
        // Even after tainting itself, the thread can use its local segment.
        let c = k.sys_create_category(tid).unwrap();
        let tainted = k.thread_label(tid).unwrap().with(c, Level::L3);
        k.sys_self_set_label(tid, tainted).unwrap();
        let e = ContainerEntry::new(k.root_container(), local);
        k.sys_segment_write(tid, e, 0, b"scratch".to_vec()).unwrap();
        assert_eq!(k.sys_segment_read(tid, e, 0, 7).unwrap(), b"scratch");
    }

    #[test]
    fn category_binding_requires_ownership() {
        let (mut k, tid) = boot();
        let c = k.sys_create_category(tid).unwrap();
        let name = (0xabcd, 7);
        // A thread that does not own the category cannot bind it.
        let root = k.root_container();
        let other = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other".into(),
            )
            .unwrap();
        assert_eq!(
            k.sys_category_bind_remote(other, c, name),
            Err(SyscallError::NotCategoryOwner(c))
        );
        // The owner can, and the binding resolves both ways.
        k.sys_category_bind_remote(tid, c, name).unwrap();
        assert_eq!(k.sys_category_get_remote(tid, c).unwrap(), Some(name));
        assert_eq!(k.sys_category_resolve_remote(tid, name).unwrap(), Some(c));
        // Idempotent rebinding is fine; changing the name is not.
        k.sys_category_bind_remote(tid, c, name).unwrap();
        assert!(matches!(
            k.sys_category_bind_remote(tid, c, (0xabcd, 8)),
            Err(SyscallError::InvalidArgument(_))
        ));
        // A second category cannot claim an already-bound name.
        let c2 = k.sys_create_category(tid).unwrap();
        assert!(matches!(
            k.sys_category_bind_remote(tid, c2, name),
            Err(SyscallError::InvalidArgument(_))
        ));
    }

    #[test]
    fn observing_requires_container_readability() {
        let (mut k, tid) = boot();
        let root = k.root_container();
        // A private container readable only by owners of category c.
        let c = k.sys_create_category(tid).unwrap();
        let private = Label::builder().set(c, Level::L3).build();
        let dir = k
            .sys_container_create(tid, root, private, "private-dir".into(), 0, 1 << 20)
            .unwrap();
        let seg = k
            .sys_segment_create(tid, dir, Label::unrestricted(), 10, "leaf".into())
            .unwrap();
        // Another thread cannot name the segment through the private
        // container, even though the segment itself is unrestricted.
        let other = k
            .sys_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                "other".into(),
            )
            .unwrap();
        assert!(matches!(
            k.sys_segment_read(other, ContainerEntry::new(dir, seg), 0, 1),
            Err(SyscallError::CannotObserve(_))
        ));
    }
}
