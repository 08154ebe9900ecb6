//! Property-style equivalence test: for every [`Syscall`] variant,
//! trapping through `Kernel::dispatch` and calling the corresponding
//! `sys_*` method directly produce identical results, identical label-check
//! outcomes and identical kernel state evolution.
//!
//! Two kernels are built from the same seed with the same deterministic
//! setup script, so their object IDs, category names and labels coincide
//! exactly.  Each case then executes one call — direct on kernel A,
//! dispatched on kernel B — and the test compares the (typed) results, the
//! [`KernelStats`] the `sys_*` bodies keep (which count every label
//! comparison), and the resulting object counts.  A coverage check guarantees no syscall variant
//! is left untested.

use crate::abi::{CompletionKind, SqEntry, SqOp, SubmissionQueue};
use crate::bodies::{DeviceBody, Mapping, MappingFlags};
use crate::dispatch::{Syscall, SyscallResult, SYSCALL_COUNT};
use crate::kernel::RemoteCategoryName;
use crate::object::{ContainerEntry, ObjectId, METADATA_LEN};
use crate::syscall::SyscallError;
use crate::{Kernel, KernelStats};
use histar_label::{Category, Label, Level};
use histar_sim::SimClock;
use histar_store::records::inode_key;
use histar_store::{SingleLevelStore, StoreConfig, PERSIST_KEY_BASE};

/// Deterministic fixture shared by both kernels of every case.
struct Fx {
    root: ObjectId,
    boot: ObjectId,
    peer: ObjectId,
    cat: Category,
    cat_unbound: Category,
    bound_name: RemoteCategoryName,
    dir: ObjectId,
    seg: ObjectId,
    fixed: ObjectId,
    aspace: ObjectId,
    gate: ObjectId,
    gate_label: Label,
    dev: ObjectId,
    /// A pre-created persist record (the store is attached in setup).
    pkey: u64,
}

fn entry(fx: &Fx, o: ObjectId) -> ContainerEntry {
    ContainerEntry::new(fx.root, o)
}

/// Builds one kernel with a rich, fully deterministic state touching every
/// object type.
fn setup() -> (Kernel, Fx) {
    let mut k = Kernel::new(0x0d15_ea5e, None);
    // A deterministic store so the persist-record syscalls are live.
    k.attach_store(SingleLevelStore::format(
        StoreConfig::default(),
        SimClock::new(),
    ));
    let root = k.root_container();
    let boot = k
        .bootstrap_thread(
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            "init",
        )
        .unwrap();
    let cat = k.sys_create_category(boot).unwrap();
    let cat_unbound = k.sys_create_category(boot).unwrap();
    let bound_name: RemoteCategoryName = (0xaaaa, 1);
    k.sys_category_bind_remote(boot, cat, bound_name).unwrap();
    let dir = k
        .sys_container_create(boot, root, Label::unrestricted(), "dir".into(), 0, 1 << 20)
        .unwrap();
    let seg = k
        .sys_segment_create(boot, root, Label::unrestricted(), 256, "seg".into())
        .unwrap();
    k.sys_segment_write(
        boot,
        ContainerEntry::new(root, seg),
        0,
        b"deterministic".to_vec(),
    )
    .unwrap();
    let fixed = k
        .sys_segment_create(boot, root, Label::unrestricted(), 64, "fixed".into())
        .unwrap();
    k.sys_obj_set_fixed_quota(boot, ContainerEntry::new(root, fixed))
        .unwrap();
    let aspace = k
        .sys_as_create(boot, root, Label::unrestricted(), "as".into())
        .unwrap();
    k.sys_as_map(
        boot,
        ContainerEntry::new(root, aspace),
        Mapping {
            va: 0x10_0000,
            segment: ContainerEntry::new(root, seg),
            offset: 0,
            npages: 1,
            flags: MappingFlags::rw(),
        },
    )
    .unwrap();
    k.sys_self_set_as(boot, ContainerEntry::new(root, aspace))
        .unwrap();
    let gate_label = k.thread_label(boot).unwrap();
    let gate = k
        .sys_gate_create(
            boot,
            root,
            gate_label.clone(),
            Label::default_clearance(),
            None,
            0x40,
            vec![7, 8],
            "gate".into(),
        )
        .unwrap();
    // The peer inherits boot's address space, so alerts can reach both.
    let peer = k
        .sys_thread_create(
            boot,
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            0,
            "peer".into(),
        )
        .unwrap();
    // One pending alert for boot, so SelfTakeAlert has something to take.
    k.sys_thread_alert(peer, ContainerEntry::new(root, boot), 5)
        .unwrap();
    let dev = k
        .boot_create_device(
            root,
            Label::unrestricted(),
            DeviceBody::network([2, 2, 2, 2, 2, 2]),
            "eth0",
        )
        .unwrap();
    k.device_inject_rx(dev, vec![0xcc, 0xdd]).unwrap();
    let pkey = inode_key(42);
    k.sys_persist_put(
        boot,
        pkey,
        Some(Label::unrestricted()),
        0,
        b"persist-fixture".to_vec(),
    )
    .unwrap();
    (
        k,
        Fx {
            root,
            boot,
            peer,
            cat,
            cat_unbound,
            bound_name,
            dir,
            seg,
            fixed,
            aspace,
            gate,
            gate_label,
            dev,
            pkey,
        },
    )
}

/// The kernel's counters without those dispatch keeps (per-syscall counts,
/// batches, handle resolutions), which see only the trapped path.
fn body_stats(k: &Kernel) -> KernelStats {
    let zero = KernelStats::default();
    KernelStats {
        invocations: zero.invocations,
        errors: zero.errors,
        batches: 0,
        batch_entries: 0,
        batch_size_hist: zero.batch_size_hist,
        handle_resolutions: 0,
        ..k.stats()
    }
}

type Direct = Box<dyn Fn(&mut Kernel, &Fx) -> Result<SyscallResult, SyscallError>>;

/// One equivalence case: the trapped call and the equivalent direct call,
/// with the direct result wrapped into the same typed envelope.
fn cases(fx: &Fx) -> Vec<(Syscall, Direct)> {
    use SyscallResult as R;
    let e_seg = entry(fx, fx.seg);
    let e_fixed = entry(fx, fx.fixed);
    let e_dir = entry(fx, fx.dir);
    let e_as = entry(fx, fx.aspace);
    let e_gate = entry(fx, fx.gate);
    let e_dev = entry(fx, fx.dev);
    let e_peer = entry(fx, fx.peer);
    let tainted = Label::builder()
        .own(fx.cat)
        .set(fx.cat_unbound, Level::L2)
        .build();
    let raised_clearance = Label::default_clearance().with(fx.cat_unbound, Level::L3);
    let gate_request = fx.gate_label.clone();
    let new_mapping = Mapping {
        va: 0x20_0000,
        segment: e_seg,
        offset: 0,
        npages: 1,
        flags: MappingFlags::ro(),
    };

    vec![
        (
            Syscall::CreateCategory,
            Box::new(|k, fx| k.sys_create_category(fx.boot).map(R::Category)),
        ),
        (
            Syscall::SelfSetLabel {
                label: tainted.clone(),
            },
            {
                let l = tainted.clone();
                Box::new(move |k, fx| k.sys_self_set_label(fx.boot, l.clone()).map(|()| R::Unit))
            },
        ),
        (
            Syscall::SelfSetClearance {
                clearance: raised_clearance.clone(),
            },
            {
                let c = raised_clearance.clone();
                Box::new(move |k, fx| {
                    k.sys_self_set_clearance(fx.boot, c.clone())
                        .map(|()| R::Unit)
                })
            },
        ),
        (
            Syscall::SelfGetLabel,
            Box::new(|k, fx| k.sys_self_get_label(fx.boot).map(R::Label)),
        ),
        (
            Syscall::SelfGetClearance,
            Box::new(|k, fx| k.sys_self_get_clearance(fx.boot).map(R::Label)),
        ),
        (
            Syscall::ContainerCreate {
                parent: fx.root,
                label: Label::unrestricted(),
                descrip: "c2".into(),
                avoid_types: 0,
                quota: 1 << 16,
            },
            Box::new(|k, fx| {
                k.sys_container_create(
                    fx.boot,
                    fx.root,
                    Label::unrestricted(),
                    "c2".into(),
                    0,
                    1 << 16,
                )
                .map(R::ObjectId)
            }),
        ),
        (
            Syscall::ObjUnref { entry: e_dir },
            Box::new(move |k, fx| k.sys_obj_unref(fx.boot, e_dir).map(|()| R::Unit)),
        ),
        (
            Syscall::HardLink {
                entry: e_fixed,
                dst: fx.dir,
            },
            Box::new(move |k, fx| k.sys_hard_link(fx.boot, e_fixed, fx.dir).map(|()| R::Unit)),
        ),
        (
            Syscall::ContainerQuotaAvail { container: fx.dir },
            Box::new(|k, fx| k.sys_container_quota_avail(fx.boot, fx.dir).map(R::U64)),
        ),
        (
            Syscall::ContainerGetParent { container: fx.dir },
            Box::new(|k, fx| k.sys_container_get_parent(fx.boot, fx.dir).map(R::ObjectId)),
        ),
        (
            Syscall::ContainerList { container: fx.root },
            Box::new(|k, fx| k.sys_container_list(fx.boot, fx.root).map(R::ObjectIds)),
        ),
        (
            Syscall::QuotaMove {
                container: fx.root,
                object: fx.dir,
                delta: 4096,
            },
            Box::new(|k, fx| {
                k.sys_quota_move(fx.boot, fx.root, fx.dir, 4096)
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::ObjGetLabel { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_get_label(fx.boot, e_seg).map(R::Label)),
        ),
        (
            Syscall::ObjGetInfo { entry: e_seg },
            Box::new(move |k, fx| {
                k.sys_obj_get_info(fx.boot, e_seg)
                    .map(|(object_type, descrip, quota)| R::Info {
                        object_type,
                        descrip,
                        quota,
                    })
            }),
        ),
        (
            Syscall::ObjGetMetadata { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_get_metadata(fx.boot, e_seg).map(R::Metadata)),
        ),
        (
            Syscall::ObjSetMetadata {
                entry: e_seg,
                metadata: [7; METADATA_LEN],
            },
            Box::new(move |k, fx| {
                k.sys_obj_set_metadata(fx.boot, e_seg, [7; METADATA_LEN])
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::ObjSetImmutable { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_set_immutable(fx.boot, e_seg).map(|()| R::Unit)),
        ),
        (
            Syscall::ObjSetFixedQuota { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_set_fixed_quota(fx.boot, e_seg).map(|()| R::Unit)),
        ),
        (
            Syscall::SegmentCreate {
                container: fx.root,
                label: Label::unrestricted(),
                len: 64,
                descrip: "new".into(),
            },
            Box::new(|k, fx| {
                k.sys_segment_create(fx.boot, fx.root, Label::unrestricted(), 64, "new".into())
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::SegmentResize {
                entry: e_seg,
                len: 512,
            },
            Box::new(move |k, fx| k.sys_segment_resize(fx.boot, e_seg, 512).map(|()| R::Unit)),
        ),
        (
            Syscall::SegmentRead {
                entry: e_seg,
                offset: 0,
                len: 13,
            },
            Box::new(move |k, fx| k.sys_segment_read(fx.boot, e_seg, 0, 13).map(R::Bytes)),
        ),
        (
            Syscall::SegmentWrite {
                entry: e_seg,
                offset: 4,
                data: b"xyz".to_vec(),
            },
            Box::new(move |k, fx| {
                k.sys_segment_write(fx.boot, e_seg, 4, b"xyz".to_vec())
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::SegmentLen { entry: e_seg },
            Box::new(move |k, fx| k.sys_segment_len(fx.boot, e_seg).map(R::U64)),
        ),
        (
            Syscall::SegmentCopy {
                src: e_seg,
                dst_container: fx.root,
                label: Label::unrestricted(),
                descrip: "copy".into(),
            },
            Box::new(move |k, fx| {
                k.sys_segment_copy(
                    fx.boot,
                    e_seg,
                    fx.root,
                    Label::unrestricted(),
                    "copy".into(),
                )
                .map(R::ObjectId)
            }),
        ),
        (
            Syscall::AsCreate {
                container: fx.root,
                label: Label::unrestricted(),
                descrip: "as2".into(),
            },
            Box::new(|k, fx| {
                k.sys_as_create(fx.boot, fx.root, Label::unrestricted(), "as2".into())
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::AsCopy {
                src: e_as,
                dst_container: fx.root,
                label: Label::unrestricted(),
                descrip: "asc".into(),
            },
            Box::new(move |k, fx| {
                k.sys_as_copy(fx.boot, e_as, fx.root, Label::unrestricted(), "asc".into())
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::AsMap {
                aspace: e_as,
                mapping: new_mapping,
            },
            Box::new(move |k, fx| k.sys_as_map(fx.boot, e_as, new_mapping).map(|()| R::Unit)),
        ),
        (
            Syscall::AsUnmap {
                aspace: e_as,
                va: 0x10_0000,
            },
            Box::new(move |k, fx| k.sys_as_unmap(fx.boot, e_as, 0x10_0000).map(|()| R::Unit)),
        ),
        (
            Syscall::SelfSetAs { aspace: e_as },
            Box::new(move |k, fx| k.sys_self_set_as(fx.boot, e_as).map(|()| R::Unit)),
        ),
        (
            Syscall::PageFault {
                va: 0x10_0000,
                write: false,
            },
            Box::new(|k, fx| {
                k.sys_page_fault(fx.boot, 0x10_0000, false)
                    .map(R::PageFault)
            }),
        ),
        (
            Syscall::ThreadCreate {
                container: fx.root,
                label: Label::unrestricted(),
                clearance: Label::default_clearance(),
                entry_point: 9,
                descrip: "t2".into(),
            },
            Box::new(|k, fx| {
                k.sys_thread_create(
                    fx.boot,
                    fx.root,
                    Label::unrestricted(),
                    Label::default_clearance(),
                    9,
                    "t2".into(),
                )
                .map(R::ObjectId)
            }),
        ),
        (
            Syscall::SelfLocalSegment,
            Box::new(|k, fx| k.sys_self_local_segment(fx.boot).map(R::ObjectId)),
        ),
        (
            Syscall::SelfHalt,
            Box::new(|k, fx| k.sys_self_halt(fx.boot).map(|()| R::Unit)),
        ),
        (
            Syscall::ThreadAlert {
                target: e_peer,
                code: 3,
            },
            Box::new(move |k, fx| k.sys_thread_alert(fx.boot, e_peer, 3).map(|()| R::Unit)),
        ),
        (
            Syscall::SelfTakeAlert,
            Box::new(|k, fx| k.sys_self_take_alert(fx.boot).map(R::Alert)),
        ),
        (
            Syscall::ThreadGetLabel { target: e_peer },
            Box::new(move |k, fx| k.sys_thread_get_label(fx.boot, e_peer).map(R::Label)),
        ),
        (
            Syscall::GateCreate {
                container: fx.root,
                label: fx.gate_label.clone(),
                clearance: Label::default_clearance(),
                address_space: None,
                entry_point: 0x44,
                closure_args: vec![1],
                descrip: "g2".into(),
            },
            {
                let gl = fx.gate_label.clone();
                Box::new(move |k, fx| {
                    k.sys_gate_create(
                        fx.boot,
                        fx.root,
                        gl.clone(),
                        Label::default_clearance(),
                        None,
                        0x44,
                        vec![1],
                        "g2".into(),
                    )
                    .map(R::ObjectId)
                })
            },
        ),
        (
            Syscall::GateEnter {
                gate: e_gate,
                requested: gate_request.clone(),
                requested_clearance: Label::default_clearance(),
                verify: Label::unrestricted(),
            },
            {
                let req = gate_request.clone();
                Box::new(move |k, fx| {
                    k.sys_gate_enter(
                        fx.boot,
                        e_gate,
                        req.clone(),
                        Label::default_clearance(),
                        Label::unrestricted(),
                    )
                    .map(R::GateEntry)
                })
            },
        ),
        (
            Syscall::GateClearance { gate: e_gate },
            Box::new(move |k, fx| k.sys_gate_clearance(fx.boot, e_gate).map(R::Label)),
        ),
        (
            Syscall::CategoryBindRemote {
                category: fx.cat_unbound,
                name: (0xbbbb, 2),
            },
            Box::new(|k, fx| {
                k.sys_category_bind_remote(fx.boot, fx.cat_unbound, (0xbbbb, 2))
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::CategoryGetRemote { category: fx.cat },
            Box::new(|k, fx| {
                k.sys_category_get_remote(fx.boot, fx.cat)
                    .map(R::RemoteName)
            }),
        ),
        (
            Syscall::CategoryResolveRemote {
                name: fx.bound_name,
            },
            Box::new(|k, fx| {
                k.sys_category_resolve_remote(fx.boot, fx.bound_name)
                    .map(R::ResolvedCategory)
            }),
        ),
        (
            Syscall::NetMac { device: e_dev },
            Box::new(move |k, fx| k.sys_net_mac(fx.boot, e_dev).map(R::Mac)),
        ),
        (
            Syscall::NetTransmit {
                device: e_dev,
                frame: vec![0xee],
            },
            Box::new(move |k, fx| {
                k.sys_net_transmit(fx.boot, e_dev, vec![0xee])
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::NetReceive { device: e_dev },
            Box::new(move |k, fx| k.sys_net_receive(fx.boot, e_dev).map(R::Frame)),
        ),
        (
            Syscall::PersistPut {
                key: inode_key(43),
                label: Some(Label::unrestricted()),
                offset: 4,
                data: b"spliced".to_vec(),
            },
            Box::new(|k, fx| {
                k.sys_persist_put(
                    fx.boot,
                    inode_key(43),
                    Some(Label::unrestricted()),
                    4,
                    b"spliced".to_vec(),
                )
                .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::PersistRead {
                key: fx.pkey,
                offset: 0,
                len: u64::MAX,
            },
            Box::new(|k, fx| {
                k.sys_persist_read(fx.boot, fx.pkey, 0, u64::MAX)
                    .map(R::Bytes)
            }),
        ),
        (
            Syscall::PersistDelete { key: fx.pkey },
            Box::new(|k, fx| k.sys_persist_delete(fx.boot, fx.pkey).map(|()| R::Unit)),
        ),
        (
            Syscall::PersistScan {
                lo: PERSIST_KEY_BASE,
                hi: u64::MAX,
                max: 64,
            },
            Box::new(|k, fx| {
                k.sys_persist_scan(fx.boot, PERSIST_KEY_BASE, u64::MAX, 64)
                    .map(R::Records)
            }),
        ),
        (
            Syscall::PersistSync {
                keys: vec![fx.pkey],
            },
            Box::new(|k, fx| k.sys_persist_sync(fx.boot, vec![fx.pkey]).map(|()| R::Unit)),
        ),
        (
            Syscall::PersistGetLabel { key: fx.pkey },
            Box::new(|k, fx| k.sys_persist_get_label(fx.boot, fx.pkey).map(R::Label)),
        ),
        (
            Syscall::SegmentWatch { entry: e_seg },
            Box::new(|k, fx| {
                k.sys_segment_watch(fx.boot, entry(fx, fx.seg))
                    .map(|()| R::Unit)
            }),
        ),
    ]
}

#[test]
fn every_syscall_dispatches_identically_to_its_direct_call() {
    let (_, fx_probe) = setup();
    let all = cases(&fx_probe);

    // Coverage: the case list must touch every ABI index exactly once.
    let mut seen = [false; SYSCALL_COUNT];
    for (call, _) in &all {
        assert!(!seen[call.index()], "duplicate case for {}", call.name());
        seen[call.index()] = true;
    }
    assert!(
        seen.iter().all(|s| *s),
        "missing cases: {:?}",
        (0..SYSCALL_COUNT)
            .filter(|&i| !seen[i])
            .map(|i| crate::dispatch::SYSCALL_NAMES[i])
            .collect::<Vec<_>>()
    );

    for (call, direct) in all {
        let name = call.name();
        let (mut ka, fxa) = setup();
        let (mut kb, fxb) = setup();
        assert_eq!(fxa.seg, fxb.seg, "setup must be deterministic");

        let direct_result = direct(&mut ka, &fxa);
        let dispatched_result = kb.dispatch(fxb.boot, call);
        assert_eq!(
            direct_result, dispatched_result,
            "{name}: result must be identical"
        );
        assert_eq!(
            body_stats(&ka),
            body_stats(&kb),
            "{name}: label checks and kernel counters must be identical"
        );
        assert_eq!(
            ka.object_count(),
            kb.object_count(),
            "{name}: object-table evolution must be identical"
        );
        assert_eq!(
            kb.stats().count(name),
            Some(1),
            "{name}: dispatch must count exactly one invocation"
        );
    }
}

/// Everything one execution of the full call sequence observed: per-call
/// results, the kernel counters except the batch shape (they include every
/// label check and per-syscall count), the object-table size, and the audit-trace contents (tick
/// excluded — batching amortizes charged time by design; everything else
/// must be bit-identical).
#[derive(Debug, PartialEq)]
struct SequenceObservation {
    results: Vec<Result<SyscallResult, SyscallError>>,
    stats: KernelStats,
    objects: usize,
    trace: Vec<(u64, ObjectId, &'static str, bool)>,
}

/// Runs the full every-variant call sequence against a fresh kernel, split
/// into submission batches of the given (cycled) sizes.  `sizes = [1]`
/// with `via_trap = true` is the classic one-call-per-trap stream.
fn run_sequence_in_batches(sizes: &[usize], via_trap: bool) -> SequenceObservation {
    let (mut k, fx) = setup();
    let calls: Vec<Syscall> = cases(&fx).into_iter().map(|(call, _)| call).collect();
    assert_eq!(calls.len(), SYSCALL_COUNT);
    k.enable_syscall_trace(4 * SYSCALL_COUNT);
    // The setup's thread_alert left a notification on boot's completion
    // queue; drain it so only this sequence's completions are reaped.
    let _ = k.reap_completions(fx.boot);

    let mut results = Vec::with_capacity(calls.len());
    let mut sizes_cycle = sizes.iter().copied().cycle();
    let mut remaining = &calls[..];
    while !remaining.is_empty() {
        let n = sizes_cycle.next().unwrap().clamp(1, remaining.len());
        let (chunk, rest) = remaining.split_at(n);
        remaining = rest;
        if via_trap {
            for call in chunk {
                results.push(k.dispatch(fx.boot, call.clone()));
            }
        } else {
            let entries: Vec<SqEntry> = chunk
                .iter()
                .enumerate()
                .map(|(i, call)| SqEntry {
                    user_data: i as u64,
                    op: SqOp::Call(call.clone()),
                })
                .collect();
            assert_eq!(k.dispatch_batch(fx.boot, entries), n);
            for completion in k.reap_completions(fx.boot) {
                results.push(completion.into_call_result());
            }
        }
    }

    let trace: Vec<(u64, ObjectId, &'static str, bool)> = k
        .syscall_trace()
        .expect("trace enabled")
        .iter()
        .map(|r| (r.seq, r.tid, r.syscall, r.ok))
        .collect();
    // The ring was sized to hold the whole sequence: any eviction here
    // means the comparison below would silently cover a truncated trace.
    assert_eq!(
        k.syscall_trace().expect("trace enabled").dropped(),
        0,
        "audit trace must not drop records during the equivalence sweep"
    );
    SequenceObservation {
        results,
        // The batch shape is exactly what the splits vary.
        stats: KernelStats {
            batches: 0,
            batch_entries: 0,
            batch_size_hist: KernelStats::default().batch_size_hist,
            ..k.stats()
        },
        objects: k.object_count(),
        trace,
    }
}

#[test]
fn any_batch_split_is_equivalent_to_one_call_per_trap() {
    // The property the batched ABI must preserve: for the full every-variant
    // sequence, results, label-check counts (inside `KernelStats`), audit
    // trace and object-table evolution are identical whether the calls
    // trap one at a time or in arbitrary batch splits.
    let reference = run_sequence_in_batches(&[1], true);
    assert_eq!(reference.results.len(), SYSCALL_COUNT);
    // The trace is continuous from seq 0 with one record per call.
    for (i, rec) in reference.trace.iter().enumerate() {
        assert_eq!(rec.0, i as u64, "TraceRecord.seq must be continuous");
    }

    for sizes in [
        vec![1],                      // 1-entry batches (the trap_* shim path)
        vec![SYSCALL_COUNT],          // one giant batch
        vec![2],                      // pairs
        vec![3, 1, 4, 1, 5, 9, 2, 6], // arbitrary mixed splits
        vec![7, 13],
    ] {
        let split = run_sequence_in_batches(&sizes, false);
        assert_eq!(
            split, reference,
            "batch split {sizes:?} must observe exactly the sequential stream"
        );
    }
}

#[test]
fn handle_encoded_calls_are_equivalent_to_raw_entries() {
    let (mut ka, fxa) = setup();
    let (mut kb, fxb) = setup();
    let e_seg_a = entry(&fxa, fxa.seg);
    let e_seg_b = entry(&fxb, fxb.seg);

    // Kernel B resolves the segment into a capability handle; the install
    // performs the same reachability check every syscall performs, hence
    // exactly one extra label check relative to kernel A.
    let checks_before = kb.stats().label_checks - ka.stats().label_checks;
    assert_eq!(checks_before, 0, "identical setups");
    let h = kb.handle_open(fxb.boot, e_seg_b).unwrap();
    let install_checks = kb.stats().label_checks - ka.stats().label_checks;
    assert!(
        install_checks >= 1,
        "handle install is reachability-checked"
    );

    let ra = ka.dispatch(
        fxa.boot,
        Syscall::SegmentRead {
            entry: e_seg_a,
            offset: 0,
            len: 13,
        },
    );
    let rb = kb.dispatch(
        fxb.boot,
        Syscall::SegmentRead {
            entry: h.entry(),
            offset: 0,
            len: 13,
        },
    );
    assert_eq!(ra, rb, "handle naming must not change the result");
    assert_eq!(
        kb.stats().label_checks - ka.stats().label_checks,
        install_checks,
        "the dispatched call performs identical label checks either way"
    );

    // A thread that could not traverse to an object cannot install a
    // handle for it: reachability is checked at install time.
    let secret = Label::builder().set(fxb.cat_unbound, Level::L3).build();
    let hidden_dir = kb
        .sys_container_create(fxb.boot, fxb.root, secret, "hidden".into(), 0, 1 << 16)
        .unwrap();
    let peer_err = kb
        .handle_open(fxb.peer, ContainerEntry::new(hidden_dir, fxb.seg))
        .unwrap_err();
    assert!(
        matches!(peer_err, SyscallError::CannotObserve(_)),
        "unreachable container must be refused, got {peer_err:?}"
    );
}

#[test]
fn handle_open_reuse_hits_the_reverse_index_not_a_rescan() {
    let (mut k, fx) = setup();
    // Fill the thread's table with many unrelated handles (one per
    // sibling object), the regime where the old linear slot scan hurt.
    let mut others = Vec::new();
    for i in 0..64 {
        let seg = k
            .sys_segment_create(fx.boot, fx.root, Label::unrestricted(), 16, format!("s{i}"))
            .unwrap();
        others.push(k.handle_open(fx.boot, entry(&fx, seg)).unwrap());
    }
    let e_seg = entry(&fx, fx.seg);
    let reuses_before = k.stats().handle_reuses;
    let first = k.handle_open_reuse(fx.boot, e_seg).unwrap();
    assert_eq!(
        k.stats().handle_reuses,
        reuses_before,
        "first resolution installs, it does not reuse"
    );
    // Every subsequent resolution of the same entry reuses the installed
    // handle — the `handle_reuses` stat counts exactly those index hits.
    for round in 1..=10 {
        let again = k.handle_open_reuse(fx.boot, e_seg).unwrap();
        assert_eq!(again, first);
        assert_eq!(k.stats().handle_reuses, reuses_before + round);
    }
    // Closing the handle empties the index slot; the next open installs
    // fresh instead of reusing a stale one.
    assert!(k.handle_close(fx.boot, first));
    let fresh = k.handle_open_reuse(fx.boot, e_seg).unwrap();
    assert_eq!(
        k.stats().handle_reuses,
        reuses_before + 10,
        "a closed handle must not be reused"
    );
    assert_eq!(k.handle_entry(fx.boot, fresh), Some(e_seg));
}

#[test]
fn handles_are_revoked_on_unref() {
    let (mut k, fx) = setup();
    let e_seg = entry(&fx, fx.seg);
    let h = k.handle_open(fx.boot, e_seg).unwrap();
    assert_eq!(k.handle_entry(fx.boot, h), Some(e_seg));

    // Unreferencing the link revokes every handle installed through it.
    k.trap_obj_unref(fx.boot, e_seg).unwrap();
    assert_eq!(k.handle_entry(fx.boot, h), None);
    let err = k
        .dispatch(fx.boot, Syscall::SegmentLen { entry: h.entry() })
        .unwrap_err();
    assert_eq!(err, SyscallError::BadHandle(h.raw()));
    // The failed call is still audited/counted like any other error.
    assert_eq!(k.stats().count("segment_len"), Some(1));
    assert_eq!(k.stats().total_errors(), 1);
}

#[test]
fn revocation_reaches_every_holder_through_the_holder_index() {
    // The kernel keeps a reverse index from object to the threads holding
    // handles on it, so a revocation sweep visits the holders instead of
    // every thread in the system.  The sweep must stay exact under the
    // index's edge cases: multiple handles from one thread, holders on
    // other threads, closed handles, and holder threads that died.
    let (mut k, fx) = setup();
    let e_seg = entry(&fx, fx.seg);
    let boot_h1 = k.handle_open(fx.boot, e_seg).unwrap();
    let boot_h2 = k.handle_open(fx.boot, e_seg).unwrap();
    let peer_h = k.handle_open(fx.peer, e_seg).unwrap();

    // Closing one of boot's handles must not release the other.
    assert!(k.handle_close(fx.boot, boot_h1));
    assert_eq!(k.handle_entry(fx.boot, boot_h2), Some(e_seg));

    // Unref revokes the survivors on BOTH holder threads.
    k.trap_obj_unref(fx.boot, e_seg).unwrap();
    assert_eq!(k.handle_entry(fx.boot, boot_h2), None);
    assert_eq!(k.handle_entry(fx.peer, peer_h), None);

    // A holder thread that dies drops out of the index: revoking the
    // object afterwards must not trip over the dead thread's entries.
    let seg2 = k
        .sys_segment_create(fx.boot, fx.root, Label::unrestricted(), 16, "s2".into())
        .unwrap();
    let e_seg2 = entry(&fx, seg2);
    let _peer_h2 = k.handle_open(fx.peer, e_seg2).unwrap();
    k.trap_obj_unref(fx.boot, ContainerEntry::new(fx.root, fx.peer))
        .unwrap();
    k.trap_obj_unref(fx.boot, e_seg2).unwrap();
    let boot_h3_err = k.handle_open(fx.boot, e_seg2).unwrap_err();
    assert!(
        matches!(boot_h3_err, SyscallError::NotInContainer { .. }),
        "the unref severed the segment's link, got {boot_h3_err:?}"
    );
}

#[test]
fn mixed_batches_interleave_calls_and_handle_ops() {
    let (mut k, fx) = setup();
    let _ = k.reap_completions(fx.boot);
    let mut sq = SubmissionQueue::new();
    let open_token = sq.open_handle(entry(&fx, fx.seg));
    let read_token = sq.call(Syscall::SegmentRead {
        entry: entry(&fx, fx.seg),
        offset: 0,
        len: 13,
    });
    assert_eq!(k.submit(fx.boot, &mut sq), 2);
    let completions = k.reap_completions(fx.boot);
    assert_eq!(completions.len(), 2);
    assert_eq!(completions[0].user_data, open_token);
    let h = match &completions[0].kind {
        CompletionKind::HandleOpened(Ok(h)) => *h,
        other => panic!("expected a handle, got {other:?}"),
    };
    assert_eq!(completions[1].user_data, read_token);

    // Use the fresh handle in a follow-up batch, then close it.
    let mut sq = SubmissionQueue::new();
    sq.call(Syscall::SegmentLen { entry: h.entry() });
    sq.close_handle(h);
    k.submit(fx.boot, &mut sq);
    let completions = k.reap_completions(fx.boot);
    assert_eq!(
        completions[0].kind,
        CompletionKind::Call(Ok(SyscallResult::U64(256))),
    );
    assert_eq!(completions[1].kind, CompletionKind::HandleClosed(true));
    assert_eq!(k.handle_count(fx.boot), 0);
}

#[test]
fn submit_calls_skips_kernel_notifications_pushed_mid_batch() {
    // An entry inside the batch can alert the submitting thread itself,
    // interleaving a kernel-originated AlertPending completion between
    // the batch's own completions.  submit_calls must still hand back
    // exactly the submitted calls' results, in order, and leave the
    // notification queued for the thread to reap.
    let (mut k, fx) = setup();
    let _ = k.reap_completions(fx.boot);
    let results = k.submit_calls(
        fx.boot,
        vec![
            Syscall::CreateCategory,
            Syscall::ThreadAlert {
                target: ContainerEntry::new(fx.root, fx.boot),
                code: 7,
            },
            Syscall::SelfGetLabel,
        ],
    );
    assert_eq!(results.len(), 3);
    assert!(matches!(results[0], Ok(SyscallResult::Category(_))));
    assert_eq!(results[1], Ok(SyscallResult::Unit));
    assert!(matches!(results[2], Ok(SyscallResult::Label(_))));
    let left = k.reap_completions(fx.boot);
    assert_eq!(left.len(), 1, "the alert notification stays queued");
    assert!(matches!(
        left[0].kind,
        CompletionKind::AlertPending { code: 7 }
    ));
}

#[test]
fn batch_that_tears_down_its_own_thread_still_reports_every_result() {
    // An entry may unref the calling thread's last link, deallocating the
    // thread (and its completion queue) mid-batch.  submit_calls must
    // still return one aligned result per entry, and the dead thread's
    // queue must not be resurrected for completions nobody can reap.
    let (mut k, fx) = setup();
    let objects_before = k.object_count();
    let results = k.submit_calls(
        fx.boot,
        vec![
            Syscall::CreateCategory,
            Syscall::ObjUnref {
                entry: ContainerEntry::new(fx.root, fx.boot),
            },
            Syscall::SelfGetLabel,
        ],
    );
    assert_eq!(results.len(), 3);
    assert!(matches!(results[0], Ok(SyscallResult::Category(_))));
    assert_eq!(results[1], Ok(SyscallResult::Unit));
    assert_eq!(
        results[2],
        Err(SyscallError::NoSuchObject(fx.boot)),
        "entries after the teardown fail like any call from a dead thread"
    );
    assert_eq!(k.object_count(), objects_before - 1, "the thread is gone");
    assert_eq!(k.completion_count(fx.boot), 0, "no resurrected queue");
}

#[test]
fn taking_an_alert_consumes_its_notification() {
    let (mut k, fx) = setup();
    let _ = k.reap_completions(fx.boot);
    k.trap_thread_alert(fx.boot, entry(&fx, fx.boot), 9)
        .unwrap();
    assert!(k.completion_pending(fx.boot));
    // Claiming the alert removes the notification with it — otherwise a
    // blocked thread would be re-woken by the stale completion forever.
    // (The fixture queued one alert during setup; drain both.)
    assert!(k.trap_self_take_alert(fx.boot).unwrap().is_some());
    assert!(k.trap_self_take_alert(fx.boot).unwrap().is_some());
    assert!(!k.completion_pending(fx.boot));
}

#[test]
fn failing_calls_dispatch_identically_too() {
    let failures: Vec<(&str, Syscall, Direct)> = {
        let (_, fx) = setup();
        let e_seg = entry(&fx, fx.seg);
        let bogus = ContainerEntry::new(fx.root, ObjectId::from_raw(0x7777));
        vec![
            (
                "read beyond end",
                Syscall::SegmentRead {
                    entry: e_seg,
                    offset: 1000,
                    len: 10,
                },
                Box::new(move |k: &mut Kernel, fx: &Fx| {
                    k.sys_segment_read(fx.boot, e_seg, 1000, 10)
                        .map(SyscallResult::Bytes)
                }),
            ),
            (
                "unref root",
                Syscall::ObjUnref {
                    entry: ContainerEntry::self_entry(fx.root),
                },
                Box::new(move |k: &mut Kernel, fx: &Fx| {
                    k.sys_obj_unref(fx.boot, ContainerEntry::self_entry(fx.root))
                        .map(|()| SyscallResult::Unit)
                }),
            ),
            (
                "no such object",
                Syscall::SegmentLen { entry: bogus },
                Box::new(move |k: &mut Kernel, fx: &Fx| {
                    k.sys_segment_len(fx.boot, bogus).map(SyscallResult::U64)
                }),
            ),
            (
                "over-privileged gate entry",
                Syscall::GateEnter {
                    gate: entry(&fx, fx.gate),
                    requested: Label::builder().own(Category::from_raw(999_999)).build(),
                    requested_clearance: Label::default_clearance(),
                    verify: Label::unrestricted(),
                },
                {
                    let g = entry(&fx, fx.gate);
                    Box::new(move |k: &mut Kernel, fx: &Fx| {
                        k.sys_gate_enter(
                            fx.boot,
                            g,
                            Label::builder().own(Category::from_raw(999_999)).build(),
                            Label::default_clearance(),
                            Label::unrestricted(),
                        )
                        .map(SyscallResult::GateEntry)
                    })
                },
            ),
        ]
    };
    for (what, call, direct) in failures {
        let (mut ka, fxa) = setup();
        let (mut kb, fxb) = setup();
        let a = direct(&mut ka, &fxa);
        let b = kb.dispatch(fxb.boot, call);
        assert!(a.is_err(), "{what}: expected failure");
        assert_eq!(a, b, "{what}: identical error through both paths");
        assert_eq!(
            body_stats(&ka),
            body_stats(&kb),
            "{what}: identical kernel counters"
        );
        assert_eq!(
            kb.stats().total_errors(),
            1,
            "{what}: the trapped failure counts"
        );
    }
}
