//! The batched submission/completion ABI in action: capability handles,
//! multi-call batches, and the amortized trap cost.
//!
//! A thread resolves its hot objects into typed `Handle`s once, then pushes
//! whole argument spills through one boundary crossing per batch.  Every
//! per-call label check and audit record is identical to the one-trap-per-
//! call stream — only the charged kernel entry/exit cost amortizes.
//!
//! Run with `cargo run --release --example batched_io`.

use histar::prelude::*;

fn main() {
    let mut machine = Machine::boot(MachineConfig::default());
    let tid = machine.kernel_thread();
    let root = machine.kernel().root_container();
    machine.kernel_mut().enable_syscall_trace(64);

    // One trap: create two segments (a log and a scratch buffer).
    let kernel = machine.kernel_mut();
    let results = kernel.submit_calls(
        tid,
        vec![
            Syscall::SegmentCreate {
                container: root,
                label: Label::unrestricted(),
                len: 64,
                descrip: "log".into(),
            },
            Syscall::SegmentCreate {
                container: root,
                label: Label::unrestricted(),
                len: 64,
                descrip: "scratch".into(),
            },
        ],
    );
    let ids: Vec<ObjectId> = results
        .into_iter()
        .map(|r| r.expect("creation succeeds").into_object_id())
        .collect();
    let (log, scratch) = (ids[0], ids[1]);

    // One more trap: resolve both into capability handles.  The kernel
    // performs the reachability check (observe the container, link
    // present) at install time; a thread can never install a handle for
    // an object it could not traverse to.
    let mut sq = SubmissionQueue::new();
    sq.open_handle(ContainerEntry::new(root, log));
    sq.open_handle(ContainerEntry::new(root, scratch));
    kernel.submit(tid, &mut sq);
    let handles: Vec<Handle> = kernel
        .reap_completions(tid)
        .into_iter()
        .map(|c| c.into_handle_result().expect("reachable entries"))
        .collect();
    let (log_h, scratch_h) = (handles[0], handles[1]);
    println!("handles installed: log={log_h}, scratch={scratch_h}");

    // A whole write/read spill as one batch, naming objects by handle.
    let results = kernel.submit_calls(
        tid,
        vec![
            Syscall::SegmentWrite {
                entry: log_h.entry(),
                offset: 0,
                data: b"batched".to_vec(),
            },
            Syscall::SegmentWrite {
                entry: scratch_h.entry(),
                offset: 0,
                data: b"abi".to_vec(),
            },
            Syscall::SegmentRead {
                entry: log_h.entry(),
                offset: 0,
                len: 7,
            },
        ],
    );
    assert_eq!(
        results[2],
        Ok(SyscallResult::Bytes(b"batched".to_vec())),
        "the read observes the write submitted earlier in the same batch"
    );

    // Revocation: unref the scratch segment; its handle dies with the link.
    kernel
        .trap_obj_unref(tid, ContainerEntry::new(root, scratch))
        .unwrap();
    let stale = kernel.dispatch(
        tid,
        Syscall::SegmentLen {
            entry: scratch_h.entry(),
        },
    );
    assert!(matches!(stale, Err(SyscallError::BadHandle(_))));
    println!("stale handle refused: {:?}", stale.unwrap_err());

    let stats = kernel.stats();
    println!(
        "batches: {}, entries: {}, mean batch size: {:.2}",
        stats.batches,
        stats.batch_entries,
        stats.mean_batch_size()
    );
    println!("audit trace records one entry per call, seq continuous across batches:");
    for r in machine.kernel().syscall_trace().unwrap().iter() {
        println!("  seq {:>2}  {:<16} ok={}", r.seq, r.syscall, r.ok);
    }
}
