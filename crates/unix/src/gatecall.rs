//! The gate-call convention (§5.5, Figure 7).
//!
//! Gates have no implicit return mechanism, so the Unix library implements
//! RPC-style calls as follows: the caller allocates a *return category* `r`
//! and creates a *return gate* (clearance `{r 0, 2}`, so only a thread
//! owning `r` can invoke it) that restores all of the caller's privileges.
//! It then invokes the service gate, granting `r` so the thread can come
//! back.  To keep its arguments private from the service, the caller may
//! additionally allocate a taint category `t` and enter the service tainted
//! `t 3`, donating a resource container labelled `{t 3, r 0, 1}` for any
//! allocations the tainted call needs.

use crate::env::{UnixEnv, UnixError};
use crate::process::Pid;
use histar_kernel::kernel::GateEntryResult;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::{Syscall, SyscallResult};
use histar_label::{Category, Label, Level};

type Result<T> = core::result::Result<T, UnixError>;

/// A service gate exported by a daemon process.
#[derive(Clone, Copy, Debug)]
pub struct ServiceGate {
    /// Container entry through which clients name the gate.
    pub gate: ContainerEntry,
    /// The daemon process that owns the service.
    pub provider: Pid,
}

/// Creates a service gate in a daemon's process container.  The gate label
/// carries the daemon's ownership (its `pr`/`pw` and any user categories),
/// which is what the invoking client thread temporarily gains.
pub fn create_service_gate(
    env: &mut UnixEnv,
    provider: Pid,
    entry_point: u64,
    descrip: &str,
) -> Result<ServiceGate> {
    let (thread, container) = {
        let p = env.process(provider)?;
        (p.thread, p.process_container)
    };
    let kernel = env.machine_mut().kernel_mut();
    let label = kernel.thread_label(thread)?;
    let gate = kernel.trap_gate_create(
        thread,
        container,
        label,
        Label::default_clearance(),
        None,
        entry_point,
        vec![],
        descrip,
    )?;
    Ok(ServiceGate {
        gate: ContainerEntry::new(container, gate),
        provider,
    })
}

/// State saved across a gate call so the caller can return to itself.
#[derive(Debug)]
pub struct GateSession {
    caller: Pid,
    caller_thread: ObjectId,
    saved_label: Label,
    saved_clearance: Label,
    return_category: Category,
    return_gate: ContainerEntry,
    /// The taint category protecting the caller's arguments, if any.
    pub taint: Option<Category>,
    /// Resource container donated for tainted allocations, if any.
    pub resource_container: Option<ContainerEntry>,
    /// What the kernel handed back when the service gate was entered.
    pub entry: GateEntryResult,
}

/// Invokes a service gate on behalf of `caller`, optionally tainting the
/// call so the service cannot leak the caller's arguments.
///
/// Returns a [`GateSession`] which must be passed to
/// [`return_from_service`] to restore the caller's privileges.
pub fn enter_service(
    env: &mut UnixEnv,
    caller: Pid,
    service: &ServiceGate,
    taint_call: bool,
) -> Result<GateSession> {
    enter_service_inner(env, caller, service, taint_call, &[])
}

/// Invokes a service gate entering *tainted* in pre-existing categories the
/// caller currently owns: the caller's label keeps ownership until the gate
/// entry, at which point the requested label drops each listed category to
/// the given numeric level — the same move a Figure 7 caller makes with its
/// own fresh taint category, generalized to categories allocated elsewhere.
///
/// This is the cross-node plumbing: an exporter worker owns the local
/// shadows of a remote request's taint categories (so the gate's clearance
/// check sees `⋆`, treated low, exactly as for a local caller) and runs the
/// service tainted in them, unable to untaint until the call returns.
pub fn enter_service_tainted(
    env: &mut UnixEnv,
    caller: Pid,
    service: &ServiceGate,
    taint_entries: &[(Category, Level)],
) -> Result<GateSession> {
    enter_service_inner(env, caller, service, false, taint_entries)
}

fn enter_service_inner(
    env: &mut UnixEnv,
    caller: Pid,
    service: &ServiceGate,
    taint_call: bool,
    taint_entries: &[(Category, Level)],
) -> Result<GateSession> {
    let (caller_thread, internal_container, caller_container) = {
        let p = env.process(caller)?;
        (p.thread, p.internal_container, p.process_container)
    };
    let kernel = env.machine_mut().kernel_mut();
    let saved_label = kernel.thread_label(caller_thread)?;
    let saved_clearance = kernel.thread_clearance(caller_thread)?;

    // Return category, and — for a private call — the taint category,
    // allocated up front so the return gate's clearance can admit the
    // tainted thread on its way back.
    let return_category = kernel.trap_create_category(caller_thread)?;
    let taint = if taint_call {
        Some(kernel.trap_create_category(caller_thread)?)
    } else {
        None
    };

    // Return gate (Figure 7): label carries everything the caller owns, and
    // the clearance requires the return category to invoke it.
    let label_with_r = kernel.thread_label(caller_thread)?;
    let mut return_gate_clearance_builder = Label::builder()
        .set(return_category, Level::L0)
        .default_level(Level::L2);
    if let Some(t) = taint {
        return_gate_clearance_builder = return_gate_clearance_builder.set(t, Level::L3);
    }
    for &(c, lvl) in taint_entries {
        return_gate_clearance_builder = return_gate_clearance_builder.set(c, lvl);
    }
    // A caller that is already tainted needs that taint admitted by the
    // return gate too, or the gate cannot even be created (`L_G ⊑ C_G`).
    for (c, lvl) in label_with_r.entries() {
        if !lvl.is_star() && c != return_category {
            return_gate_clearance_builder = return_gate_clearance_builder.set(c, lvl);
        }
    }
    // The per-call argument spill — the return gate, the donated resource
    // container, and the two reads of the service gate — has no internal
    // data dependencies, so it crosses the trap boundary as ONE submission
    // batch (one trap cost, every label check unchanged).
    let mut spill = vec![Syscall::GateCreate {
        container: caller_container,
        label: label_with_r.clone(),
        clearance: return_gate_clearance_builder.build(),
        address_space: None,
        entry_point: 0,
        closure_args: vec![],
        descrip: "return gate".to_string(),
    }];
    if let Some(t) = taint {
        let rc_label = Label::builder()
            .set(t, Level::L3)
            .set(return_category, Level::L0)
            .build();
        spill.push(Syscall::ContainerCreate {
            parent: internal_container,
            label: rc_label,
            descrip: "gate call resources".to_string(),
            avoid_types: 0,
            quota: 1 << 20,
        });
    }
    spill.push(Syscall::ObjGetLabel {
        entry: service.gate,
    });
    spill.push(Syscall::GateClearance { gate: service.gate });
    let mut results = kernel.submit_calls(caller_thread, spill).into_iter();
    let mut next = || results.next().expect("one completion per submitted call");

    let gate_result = next();
    let rc_result = taint.map(|_| next());
    let label_result = next();
    let clearance_result = next();
    // The batch does not stop on errors, so an entry may have created an
    // object even though an earlier one failed; release anything the
    // aborted call would orphan before propagating the first error.
    let created = |r: &core::result::Result<SyscallResult, histar_kernel::SyscallError>| match r {
        Ok(SyscallResult::ObjectId(id)) => Some(*id),
        _ => None,
    };
    if gate_result.is_err()
        || rc_result.as_ref().is_some_and(|r| r.is_err())
        || label_result.is_err()
        || clearance_result.is_err()
    {
        if let Some(gate) = created(&gate_result) {
            let _ =
                kernel.trap_obj_unref(caller_thread, ContainerEntry::new(caller_container, gate));
        }
        if let Some(rc) = rc_result.as_ref().and_then(created) {
            let _ =
                kernel.trap_obj_unref(caller_thread, ContainerEntry::new(internal_container, rc));
        }
        // First error in sequential order, matching the old fail-stop path.
        for r in [
            Some(gate_result),
            rc_result,
            Some(label_result),
            Some(clearance_result),
        ]
        .into_iter()
        .flatten()
        {
            r?;
        }
        unreachable!("at least one result was an error");
    }
    let ok = "errors handled above";
    let return_gate = gate_result.expect(ok).into_object_id();
    let resource_container =
        rc_result.map(|r| ContainerEntry::new(internal_container, r.expect(ok).into_object_id()));
    // Request label: keep everything we own (including r and t ownership at
    // this point), add the gate's ownership, and drop to taint level 3 in t.
    let gate_label = label_result.expect(ok).into_label();
    let gate_clearance = clearance_result.expect(ok).into_label();
    let current_label = kernel.thread_label(caller_thread)?;
    let mut requested = current_label.ownership_union(&gate_label);
    if let Some(t) = taint {
        requested = requested.with(t, Level::L3);
    }
    for &(c, lvl) in taint_entries {
        requested = requested.with(c, lvl);
    }
    let requested_clearance = kernel.thread_clearance(caller_thread)?.lub(&gate_clearance);
    let entry = kernel.trap_gate_enter(
        caller_thread,
        service.gate,
        requested,
        requested_clearance,
        saved_label.clone(),
    )?;

    Ok(GateSession {
        caller,
        caller_thread,
        saved_label,
        saved_clearance,
        return_category,
        return_gate: ContainerEntry::new(caller_container, return_gate),
        taint,
        resource_container,
        entry,
    })
}

/// Returns from a gate call: the thread invokes the return gate (which only
/// holders of the return category can do), regaining the caller's original
/// label and clearance, and the per-call objects are released.
pub fn return_from_service(env: &mut UnixEnv, session: GateSession) -> Result<()> {
    let GateSession {
        caller,
        caller_thread,
        saved_label,
        saved_clearance,
        return_category,
        return_gate,
        resource_container,
        ..
    } = session;
    let kernel = env.machine_mut().kernel_mut();

    // Invoke the return gate; the floor of the entry label is the union of
    // the current (service-side) ownership and the return gate's ownership,
    // which includes everything the caller originally owned plus r.
    let gate_label = kernel.trap_obj_get_label(caller_thread, return_gate)?;
    let current = kernel.thread_label(caller_thread)?;
    let requested = current.ownership_union(&gate_label);
    let requested_clearance = kernel
        .thread_clearance(caller_thread)?
        .lub(&saved_clearance);
    kernel.trap_gate_enter(
        caller_thread,
        return_gate,
        requested,
        requested_clearance,
        current,
    )?;

    // Back home: drop the per-call categories and objects.  Taint acquired
    // during the call in categories the caller does not own cannot be
    // dropped (that would be an information leak), so the restored label is
    // the saved label raised by any such residual taint.
    let after_return = kernel.thread_label(caller_thread)?;
    let mut restore_label = saved_label.clone();
    let mut restore_clearance = saved_clearance.clone();
    for (c, lvl) in after_return.entries() {
        if lvl.is_star() || after_return.owns(c) {
            continue;
        }
        if lvl.as_low() > saved_label.level(c).as_low() {
            restore_label = restore_label.with(c, lvl);
            if restore_clearance.level(c).as_low() < lvl.as_low() {
                restore_clearance = restore_clearance.with(c, lvl);
            }
        }
    }
    if restore_clearance.level(return_category) == Level::L2 {
        restore_clearance = restore_clearance.without(return_category);
    }
    // Label restoration and per-call cleanup ride one submission batch.
    // Cleanup is best-effort: a thread that acquired persistent taint during
    // the call may no longer be able to modify its own (untainted) process
    // container, in which case the per-call objects are reclaimed when the
    // process itself is deallocated.  This is the paper's §5.8 trade-off —
    // reclaiming tainted resources needs an explicit untainting gate.
    let mut cleanup = vec![
        Syscall::SelfSetLabel {
            label: restore_label,
        },
        Syscall::SelfSetClearance {
            clearance: restore_clearance,
        },
        Syscall::ObjUnref { entry: return_gate },
    ];
    if let Some(rc) = resource_container {
        cleanup.push(Syscall::ObjUnref { entry: rc });
    }
    let results = kernel.submit_calls(caller_thread, cleanup);
    // The label restorations must succeed; the unrefs are best-effort.
    for restore in &results[..2] {
        if let Err(e) = restore {
            return Err(e.clone().into());
        }
    }
    let _ = caller;
    Ok(())
}

/// Transfers ownership of `categories` from `from`'s thread to `to`'s thread
/// through a single-use grant gate — the same mechanism the authentication
/// service's grant gate uses (Figure 9), packaged for reuse.
///
/// The kernel checks everything: `from` must actually own the categories
/// (gate creation fails otherwise, since the gate label must satisfy
/// `L_T ⊑ L_G`), and `to` gains exactly the requested `⋆` entries because the
/// gate-entry floor `(L_T^J ⊔ L_G^J)^⋆` admits them.  Exporters use this on
/// both sides of a cross-node RPC: a client grants its exporter the
/// categories it exports, and the receiving exporter grants a worker the
/// delegated privileges a remote caller proved it holds.
pub fn grant_categories(
    env: &mut UnixEnv,
    from: Pid,
    to: Pid,
    categories: &[Category],
) -> Result<()> {
    if categories.is_empty() {
        return Ok(());
    }
    let from_container = env.process(from)?.process_container;
    let entry = create_grant_gate(env, from, from_container, categories, None)?;
    enter_grant_gate(env, from, entry, to, categories)
}

/// The creation half of [`grant_categories`], for grants where the two
/// sides run at different times: builds the single-use grant gate in
/// `container` and returns its entry, without anyone entering it yet.
/// netd uses this at connect time — the acceptor only shows up later.
///
/// A gate that *waits* to be entered is a stealable capability unless it
/// is guarded: passing `guard` pins that category to `0` in the gate's
/// clearance, so only threads owning `guard` pass the kernel's
/// `L_T ⊑ C_G` entry check — everyone else's default `1` is refused.
pub fn create_grant_gate(
    env: &mut UnixEnv,
    from: Pid,
    container: ObjectId,
    categories: &[Category],
    guard: Option<Category>,
) -> Result<ContainerEntry> {
    let from_thread = env.process(from)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let mut gate_label = kernel.thread_label(from_thread)?;
    let mut gate_clearance = Label::default_clearance();
    for &c in categories {
        gate_label = gate_label.with(c, Level::Star);
        gate_clearance = gate_clearance.with(c, Level::L3);
    }
    if let Some(g) = guard {
        gate_clearance = gate_clearance.with(g, Level::L0);
    }
    let gate = kernel.trap_gate_create(
        from_thread,
        container,
        gate_label,
        gate_clearance,
        None,
        0,
        vec![],
        "category grant gate",
    )?;
    Ok(ContainerEntry::new(container, gate))
}

/// The entry half of [`grant_categories`]: `to`'s thread enters a grant
/// gate made by [`create_grant_gate`], gaining `⋆` for `categories` while
/// keeping its current label otherwise, and `owner`'s thread unrefs the
/// single-use gate.
pub fn enter_grant_gate(
    env: &mut UnixEnv,
    owner: Pid,
    entry: ContainerEntry,
    to: Pid,
    categories: &[Category],
) -> Result<()> {
    let owner_thread = env.process(owner)?.thread;
    let to_thread = env.process(to)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let mut requested = kernel.thread_label(to_thread)?;
    let mut requested_clearance = kernel.thread_clearance(to_thread)?;
    for &c in categories {
        requested = requested.with(c, Level::Star);
        requested_clearance = requested_clearance.with(c, Level::L3);
    }
    let verify = kernel.thread_label(to_thread)?;
    kernel.trap_gate_enter(to_thread, entry, requested, requested_clearance, verify)?;
    // The grant gate is single-use.
    let _ = kernel.trap_obj_unref(owner_thread, entry);

    let proc = env.process_record_mut(to)?;
    for &c in categories {
        if !proc.extra_ownership.contains(&c) {
            proc.extra_ownership.push(c);
        }
    }
    Ok(())
}

/// Renounces ownership of `categories`: drops their `⋆` from `pid`'s
/// thread label (back to the default `1`) and their `3` from its
/// clearance (back to the default `2`).  Both transitions are ordinary
/// `self_set_label`/`self_set_clearance` calls the kernel validates.
///
/// Long-running daemons must shed per-connection categories once they
/// are handed off, or their labels grow without bound — and every label
/// check they ever make scales with that size.
pub fn drop_categories(env: &mut UnixEnv, pid: Pid, categories: &[Category]) -> Result<()> {
    if categories.is_empty() {
        return Ok(());
    }
    let thread = env.process(pid)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let mut label = kernel.thread_label(thread)?;
    let mut clearance = kernel.thread_clearance(thread)?;
    for &c in categories {
        label = label.without(c);
        clearance = clearance.without(c);
    }
    kernel.trap_self_set_label(thread, label)?;
    kernel.trap_self_set_clearance(thread, clearance)?;
    let proc = env.process_record_mut(pid)?;
    proc.extra_ownership.retain(|c| !categories.contains(c));
    Ok(())
}

/// Raises a process's taint so it can observe data labelled `target` —
/// `self_set_label(raise_for_observe)`, bounded by the thread's clearance
/// exactly as the kernel demands.  Cross-node replies arrive in segments
/// carrying translated taint; this is how a client accepts that taint.
pub fn raise_taint_for(env: &mut UnixEnv, pid: Pid, target: &Label) -> Result<()> {
    let thread = env.process(pid)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let current = kernel.thread_label(thread)?;
    let raised = current.raise_for_observe(target);
    if raised != current {
        kernel.trap_self_set_label(thread, raised)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_kernel::syscall::SyscallError;

    fn setup() -> (UnixEnv, Pid, Pid, ServiceGate) {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let client = env.spawn(init, "/bin/client", None).unwrap();
        let daemon = env.spawn(init, "/usr/bin/timestampd", None).unwrap();
        let service = create_service_gate(&mut env, daemon, 0x4000, "timestamp service").unwrap();
        (env, init, client, service)
    }

    #[test]
    fn gate_call_grants_and_returns_privilege() {
        let (mut env, _init, client, service) = setup();
        let daemon_pr = env.process(service.provider).unwrap().read_cat;
        let client_pr = env.process(client).unwrap().read_cat;
        let client_thread = env.process(client).unwrap().thread;

        let before = env.machine().kernel().thread_label(client_thread).unwrap();
        assert!(!before.owns(daemon_pr));

        let session = enter_service(&mut env, client, &service, false).unwrap();
        // Inside the service the client's thread owns the daemon's
        // categories (it can act as the daemon) while keeping its own.
        let during = env.machine().kernel().thread_label(client_thread).unwrap();
        assert!(during.owns(daemon_pr));
        assert!(during.owns(client_pr));
        assert_eq!(session.entry.entry_point, 0x4000);

        return_from_service(&mut env, session).unwrap();
        let after = env.machine().kernel().thread_label(client_thread).unwrap();
        assert_eq!(after, before, "the caller gets exactly its old label back");
    }

    #[test]
    fn tainted_gate_call_cannot_write_daemon_state() {
        let (mut env, _init, client, service) = setup();
        let client_thread = env.process(client).unwrap().thread;
        let daemon = env.process(service.provider).unwrap().clone();

        let session = enter_service(&mut env, client, &service, true).unwrap();
        let t = session.taint.unwrap();
        let label = env.machine().kernel().thread_label(client_thread).unwrap();
        assert_eq!(label.level(t), Level::L3, "the call runs tainted in t");

        // Tainted in t, the thread may read the daemon's segments but not
        // modify them: that would leak the caller's data into daemon state.
        let heap_entry = ContainerEntry::new(daemon.internal_container, daemon.heap_segment);
        let kernel = env.machine_mut().kernel_mut();
        assert!(kernel
            .trap_segment_read(client_thread, heap_entry, 0, 8)
            .is_ok());
        assert!(matches!(
            kernel.trap_segment_write(client_thread, heap_entry, 0, b"leak"),
            Err(SyscallError::CannotModify(_))
        ));

        // It can, however, allocate in the donated resource container.
        let rc = session.resource_container.unwrap();
        let scratch_label = Label::builder()
            .set(t, Level::L3)
            .set(
                session.entry.label.owned_categories().next().unwrap_or(t),
                Level::L3,
            )
            .build();
        let _ = scratch_label;
        let tainted_label = Label::builder().set(t, Level::L3).build();
        assert!(kernel
            .trap_segment_create(client_thread, rc.object, tainted_label, 128, "scratch")
            .is_ok());

        return_from_service(&mut env, session).unwrap();
        // Back outside, the caller owns t again and is not tainted.
        let after = env.machine().kernel().thread_label(client_thread).unwrap();
        assert_ne!(after.level(t), Level::L3);
    }

    #[test]
    fn grant_categories_transfers_ownership_via_gate() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let alice = env.spawn(init, "/bin/alice", None).unwrap();
        let bob = env.spawn(init, "/bin/bob", None).unwrap();
        let alice_thread = env.process(alice).unwrap().thread;
        let bob_thread = env.process(bob).unwrap().thread;
        let c = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(alice_thread)
            .unwrap();

        assert!(!env
            .machine()
            .kernel()
            .thread_label(bob_thread)
            .unwrap()
            .owns(c));
        grant_categories(&mut env, alice, bob, &[c]).unwrap();
        let label = env.machine().kernel().thread_label(bob_thread).unwrap();
        assert!(label.owns(c));
        assert!(env.process(bob).unwrap().extra_ownership.contains(&c));

        // A process that does not own the category cannot grant it: the
        // kernel refuses to create the gate.
        let mallory = env.spawn(init, "/bin/mallory", None).unwrap();
        let victim = env.spawn(init, "/bin/victim", None).unwrap();
        let other_thread = env.process(init).unwrap().thread;
        let d = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(other_thread)
            .unwrap();
        assert!(grant_categories(&mut env, mallory, victim, &[d]).is_err());
    }

    #[test]
    fn raise_taint_for_permits_reading_tainted_segments() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let reader = env.spawn(init, "/bin/reader", None).unwrap();
        let init_thread = env.process(init).unwrap().thread;
        let kroot = env.machine().kernel().root_container();
        let kernel = env.machine_mut().kernel_mut();
        let c = kernel.trap_create_category(init_thread).unwrap();
        let secret = Label::builder().set(c, Level::L2).build();
        let seg = kernel
            .trap_segment_create(init_thread, kroot, secret.clone(), 16, "tainted reply")
            .unwrap();
        kernel
            .trap_segment_write(init_thread, ContainerEntry::new(kroot, seg), 0, b"reply")
            .unwrap();

        let reader_thread = env.process(reader).unwrap().thread;
        let entry = ContainerEntry::new(kroot, seg);
        assert!(env
            .machine_mut()
            .kernel_mut()
            .trap_segment_read(reader_thread, entry, 0, 5)
            .is_err());
        raise_taint_for(&mut env, reader, &secret).unwrap();
        assert_eq!(
            env.machine_mut()
                .kernel_mut()
                .trap_segment_read(reader_thread, entry, 0, 5)
                .unwrap(),
            b"reply"
        );
        // The taint sticks: the reader is now tainted in c.
        let label = env.machine().kernel().thread_label(reader_thread).unwrap();
        assert_eq!(label.level(c), Level::L2);
    }

    #[test]
    fn failed_gate_call_releases_partially_created_spill_objects() {
        // The spill batch does not stop on errors, so the return gate and
        // the resource container may exist even though a later read of
        // the (here: dangling) service gate failed; the error path must
        // release them instead of leaking quota on every failed call.
        let (mut env, _init, client, service) = setup();
        let bogus = ServiceGate {
            gate: ContainerEntry::new(service.gate.container, ObjectId::from_raw(0x5add)),
            provider: service.provider,
        };
        let objects_before = env.machine().kernel().object_count();
        assert!(enter_service(&mut env, client, &bogus, true).is_err());
        assert_eq!(
            env.machine().kernel().object_count(),
            objects_before,
            "failed gate calls must not leak spill objects"
        );
    }

    #[test]
    fn return_gate_requires_the_return_category() {
        let (mut env, init, client, service) = setup();
        let session = enter_service(&mut env, client, &service, false).unwrap();
        let return_gate = session.return_gate;
        // Some other process (without r) cannot invoke the return gate.
        let outsider = env.spawn(init, "/bin/evil", None).unwrap();
        let outsider_thread = env.process(outsider).unwrap().thread;
        let kernel = env.machine_mut().kernel_mut();
        let tl = kernel.thread_label(outsider_thread).unwrap();
        let tc = kernel.thread_clearance(outsider_thread).unwrap();
        assert!(matches!(
            kernel.trap_gate_enter(outsider_thread, return_gate, tl.clone(), tc, tl),
            Err(SyscallError::GateClearance(_))
        ));
        return_from_service(&mut env, session).unwrap();
    }
}
