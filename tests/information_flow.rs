//! Cross-crate integration tests: the end-to-end information-flow
//! guarantees the paper's applications rely on.

use histar::apps::{deploy_clamav, wrap_scan};
use histar::auth::{AuthService, AuthSystem, LoginOutcome};
use histar::kernel::syscall::SyscallError;
use histar::label::{Label, Level};
use histar::net::{Netd, VpnIsolation};
use histar::unix::gatecall::{create_service_gate, enter_service, return_from_service};
use histar::unix::process::ExitStatus;
use histar::unix::{UnixEnv, UnixError};

/// Figure 6: the process structure exposes only the exit segment and signal
/// gate; internals are unreachable by other processes.
#[test]
fn process_structure_matches_figure6() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let a = env.spawn(init, "/bin/a", None).unwrap();
    let b = env.spawn(init, "/bin/b", None).unwrap();
    let a_proc = env.process(a).unwrap().clone();
    let b_thread = env.process(b).unwrap().thread;

    // b may read a's exit status segment (it is {pw 0, 1})...
    let kernel = env.machine_mut().kernel_mut();
    let exit_entry =
        histar::kernel::object::ContainerEntry::new(a_proc.process_container, a_proc.exit_segment);
    assert!(kernel.trap_segment_read(b_thread, exit_entry, 0, 8).is_ok());
    // ...but not write it...
    assert!(matches!(
        kernel.trap_segment_write(b_thread, exit_entry, 0, &[1]),
        Err(SyscallError::CannotModify(_))
    ));
    // ...and cannot observe a's internal container at all.
    assert!(matches!(
        kernel.trap_container_list(b_thread, a_proc.internal_container),
        Err(SyscallError::CannotObserve(_))
    ));
}

/// Figure 7: a gate call grants the daemon's privilege for the duration of
/// the call and the return gate restores the caller exactly.
#[test]
fn gate_call_round_trip() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let client = env.spawn(init, "/bin/client", None).unwrap();
    let daemon = env.spawn(init, "/usr/bin/signd", None).unwrap();
    let service = create_service_gate(&mut env, daemon, 0x1000, "timestamp signer").unwrap();

    let client_thread = env.process(client).unwrap().thread;
    let before = env.machine().kernel().thread_label(client_thread).unwrap();
    let session = enter_service(&mut env, client, &service, true).unwrap();
    let daemon_pr = env.process(daemon).unwrap().read_cat;
    let during = env.machine().kernel().thread_label(client_thread).unwrap();
    assert!(during.owns(daemon_pr));
    assert_eq!(during.level(session.taint.unwrap()), Level::L3);
    return_from_service(&mut env, session).unwrap();
    let after = env.machine().kernel().thread_label(client_thread).unwrap();
    assert_eq!(after, before);
}

/// Figures 8–10: authentication grants exactly one user's privilege, and
/// only on a correct password.
#[test]
fn authentication_flow() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let bob = env.create_user("bob").unwrap();
    let mut auth = AuthSystem::new();
    auth.register(AuthService::new(bob.clone(), "s3cret"));
    let login = env.spawn(init, "/bin/login", None).unwrap();

    assert_eq!(
        auth.login(&mut env, login, "bob", "wrong").unwrap(),
        LoginOutcome::BadPassword
    );
    assert_eq!(
        auth.login(&mut env, login, "bob", "s3cret").unwrap(),
        LoginOutcome::Granted
    );
    let thread = env.process(login).unwrap().thread;
    assert!(env
        .machine()
        .kernel()
        .thread_label(thread)
        .unwrap()
        .owns(bob.read_cat));
}

/// Figure 11: VPN isolation keeps the two networks apart end to end.
#[test]
fn vpn_isolation_end_to_end() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let vpn = VpnIsolation::start(&mut env, init).unwrap();
    vpn.internet
        .wire_deliver(&mut env, b"from the internet".to_vec())
        .unwrap();
    assert!(vpn.pump_inbound(&mut env).unwrap());
    let app = env.spawn(init, "/bin/app", None).unwrap();
    let payload = vpn.vpn.recv(&mut env, app).unwrap().unwrap();
    assert_eq!(payload, b"from the internet");
    assert!(vpn.internet.send(&mut env, app, b"leak").is_err());
}

/// Figures 1/2/4: the whole ClamAV scenario, including the attacks listed in
/// the introduction.
#[test]
fn clamav_end_to_end() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();
    let deployment = deploy_clamav(&mut env, "bob").unwrap();
    env.mkdir(init, "/home", None).unwrap();
    env.write_file_as(
        init,
        "/home/secrets.db",
        b"ssn=123-45-6789 EICAR-STANDARD-ANTIVIRUS-TEST",
        Some(deployment.user.private_file_label()),
    )
    .unwrap();

    let report = wrap_scan(&mut env, &deployment, &["/home/secrets.db"]).unwrap();
    assert!(report.results[0].1, "the test signature is detected");
    assert!(!report.leak_detected);
    // Attack 1: direct TCP exfiltration.
    assert!(netd.send(&mut env, deployment.scanner, b"ssn").is_err());
    // Attack 4: drop the data in /tmp for the update daemon.
    assert!(env
        .write_file_as(deployment.scanner, "/tmp-x", b"ssn", None)
        .is_err());
    // The update daemon itself can never read the user data.
    assert!(env
        .read_file_as(deployment.update_daemon, "/home/secrets.db")
        .is_err());
}

/// Unix semantics over the untrusted library: fork/exec/wait, pipes and the
/// file system all work while every access stays label-checked.
#[test]
fn unix_environment_smoke() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/etc-motd", b"welcome to histar", None)
        .unwrap();
    // The pipe is created before forking so the child inherits both ends.
    let (r, w) = env.pipe(init).unwrap();
    let child = env.fork(init).unwrap();
    assert_eq!(
        env.read_file_as(child, "/etc-motd").unwrap(),
        b"welcome to histar"
    );
    env.write(init, w, b"ping").unwrap();
    assert_eq!(env.read(child, r, 4).unwrap(), b"ping");
    env.exit(child, ExitStatus::Exited(0)).unwrap();
    assert!(env.wait(init, child).unwrap().success());
}

/// The single-level store: a snapshot survives a crash with labels intact,
/// and unsynced work is lost — there is no trusted boot script to rebuild
/// anything.
#[test]
fn persistence_across_crash() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let secret_label = {
        let user = env.create_user("carol").unwrap();
        user.private_file_label()
    };
    env.write_file_as(init, "/persistent", b"survives", Some(secret_label.clone()))
        .unwrap();
    env.sync_all();
    env.write_file_as(init, "/ephemeral", b"lost", None)
        .unwrap();

    let machine = {
        let m = env.machine_mut();
        std::mem::replace(m, histar::kernel::Machine::boot(Default::default()))
    };
    let recovered = machine.crash_and_recover().unwrap();
    let segments: Vec<(Label, Vec<u8>)> = recovered
        .kernel()
        .objects()
        .filter_map(|(_, o)| match &o.body {
            histar::kernel::bodies::ObjectBody::Segment(s) => {
                Some((o.header.label.clone(), s.bytes.clone()))
            }
            _ => None,
        })
        .collect();
    let persistent = segments
        .iter()
        .find(|(_, bytes)| bytes.windows(8).any(|w| w == b"survives"))
        .expect("synced file survives the crash");
    assert_eq!(persistent.0, secret_label, "labels persist with the data");
    assert!(!segments
        .iter()
        .any(|(_, b)| b.windows(4).any(|w| w == b"lost")));
}

/// Labels can express Unix permission bits, but also policies Unix cannot:
/// a single thread holding two users' privilege at once.
#[test]
fn multi_user_privilege() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let alice = env.create_user("alice").unwrap();
    let bob = env.create_user("bob").unwrap();
    env.write_file_as(init, "/af", b"a", Some(alice.private_file_label()))
        .unwrap();
    env.write_file_as(init, "/bf", b"b", Some(bob.private_file_label()))
        .unwrap();
    // init owns both users' categories (it created the accounts), so it can
    // read both files; a process with only bob's privilege cannot read
    // alice's.
    assert!(env.read_file_as(init, "/af").is_ok());
    assert!(env.read_file_as(init, "/bf").is_ok());
    let bob_shell = env.spawn(init, "/bin/sh", Some("bob")).unwrap();
    assert!(env.read_file_as(bob_shell, "/bf").is_ok());
    assert!(matches!(
        env.read_file_as(bob_shell, "/af"),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));
}

/// §5 over the VFS: `/proc` entries are label-filtered by the kernel.  A
/// tainted observer cannot stat an untainted process's `/proc` entry —
/// entering the PID directory requires observing that process's internal
/// container (`{pr 3, pw 0, 1}`), which the kernel denies — while the
/// process itself (whose label owns `pr`) reads its own entry freely.
#[test]
fn proc_entries_are_label_filtered() {
    use histar::label::Level;

    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // A taint category owned by init; the observer starts tainted in it.
    let init_thread = env.process(init).unwrap().thread;
    let taint = env.kernel_mut().trap_create_category(init_thread).unwrap();
    env.process_record_mut(init)
        .unwrap()
        .extra_ownership
        .push(taint);
    let observer = env
        .spawn_with_label(init, "/bin/observer", vec![], vec![(taint, Level::L3)])
        .unwrap();
    let victim = env.spawn(init, "/bin/victim", None).unwrap();

    // PIDs are public: anyone can list /proc.
    let pids = env.readdir(observer, "/proc").unwrap();
    assert!(pids.iter().any(|e| e.name == victim.to_string()));

    // The tainted observer cannot stat (or read) the victim's entry.
    assert!(matches!(
        env.stat(observer, &format!("/proc/{victim}/status")),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));
    assert!(matches!(
        env.read_file_as(observer, &format!("/proc/{victim}/status")),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));

    // An untainted stranger is denied just the same: the gate is the
    // victim's `pr` category, not the observer's taint.
    let stranger = env.spawn(init, "/bin/stranger", None).unwrap();
    assert!(env
        .stat(stranger, &format!("/proc/{victim}/status"))
        .is_err());

    // Labels that admit the entry open it: the victim reads its own.
    let status = env
        .read_file_as(victim, &format!("/proc/{victim}/status"))
        .unwrap();
    assert!(String::from_utf8(status)
        .unwrap()
        .contains("state:\trunning"));
}

/// §6.1's web-server isolation, attacked directly: a worker holding
/// *alice's* privilege (it legitimately serves her files) obtains a
/// descriptor for **bob's** connection and tries to write her secret to
/// it.  Descriptor state is just numbers — the protection is the label on
/// the connection segment, and the kernel stops the write cold.  The
/// denial lands in the syscall audit trace, and the only process that
/// could have bridged the two users is the launcher, the one piece of
/// code trusted with the network taint category.
#[test]
fn compromised_worker_cannot_leak_alice_files_to_bobs_connection() {
    use histar::kernel::TraceRecord;
    use histar::unix::fdtable::{FdKind, FdState, FLAG_SOCK_SERVER};
    use histar::unix::gatecall;

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();

    // Two users with private home pages under /persist/home.
    let mut auth = AuthSystem::new();
    let alice = env.create_user("alice").unwrap();
    env.create_user("bob").unwrap();
    auth.register(AuthService::new(alice.clone(), "a-pass"));
    env.mkdir(init, "/persist/home", None).unwrap();
    env.mkdir(init, "/persist/home/alice", None).unwrap();
    let alice_shell = env.spawn(init, "/bin/sh", Some("alice")).unwrap();
    env.write_file_as(
        alice_shell,
        "/persist/home/alice/secret.html",
        b"<html>alice's diary</html>",
        Some(alice.private_file_label()),
    )
    .unwrap();

    // The launcher: the single trusted component, owning the network
    // taint category.  It authenticates as alice (the auth gates grant it
    // her categories, like any login) so it can spawn her worker.
    let launcher = env
        .spawn_with_label(init, "/usr/sbin/httpd", vec![netd.taint], vec![])
        .unwrap();
    let listener = netd.listen(&mut env, launcher).unwrap();
    assert_eq!(
        auth.login(&mut env, launcher, "alice", "a-pass").unwrap(),
        LoginOutcome::Granted
    );

    // Alice and bob connect; the launcher accepts both connections and
    // thereby owns each connection's `c_r`/`c_w` pair.
    let alice_client = netd
        .spawn_tainted(&mut env, init, "/usr/bin/alice-browser")
        .unwrap();
    let bob_client = netd
        .spawn_tainted(&mut env, init, "/usr/bin/bob-browser")
        .unwrap();
    let alice_client_fd = netd.connect(&mut env, alice_client, &listener).unwrap();
    netd.connect(&mut env, bob_client, &listener).unwrap();
    let alice_conn = netd
        .accept(&mut env, launcher, listener.fd)
        .unwrap()
        .unwrap();
    let bob_conn = netd
        .accept(&mut env, launcher, listener.fd)
        .unwrap()
        .unwrap();

    // Alice's worker: her categories, net-tainted from birth, granted
    // *her* connection only.
    let worker = env
        .spawn_with_label(
            launcher,
            "/usr/bin/worker-alice",
            vec![alice.read_cat, alice.write_cat],
            vec![(netd.taint, Level::L2)],
        )
        .unwrap();
    gatecall::grant_categories(
        &mut env,
        launcher,
        worker,
        &[alice_conn.taint_cat, alice_conn.write_cat],
    )
    .unwrap();
    let alice_state = env.fd_snapshot(launcher, alice_conn.fd).unwrap();
    let worker_alice_fd = env
        .install_descriptor(
            worker,
            FdState {
                kind: FdKind::Socket,
                target: alice_state.target,
                target_container: alice_state.target_container,
                position: 0,
                flags: FLAG_SOCK_SERVER,
                refs: 1,
            },
        )
        .unwrap();

    // The legitimate path works end to end: the worker reads alice's
    // secret (it owns her read category) and serves it to alice.
    let secret = env
        .read_file_as(worker, "/persist/home/alice/secret.html")
        .unwrap();
    assert_eq!(secret, b"<html>alice's diary</html>");
    env.write(worker, worker_alice_fd, &secret).unwrap();
    assert_eq!(env.read(alice_client, alice_client_fd, 64).unwrap(), secret);

    // Now the worker goes rogue.  It forges a descriptor for bob's
    // connection — the numbers are no secret — and tries to exfiltrate
    // the page it just read.  Audit tracing is on for the attempt.
    env.kernel_mut().enable_syscall_trace(1 << 16);
    let bob_state = env.fd_snapshot(launcher, bob_conn.fd).unwrap();
    let stolen_fd = env
        .install_descriptor(
            worker,
            FdState {
                kind: FdKind::Socket,
                target: bob_state.target,
                target_container: bob_state.target_container,
                position: 0,
                flags: FLAG_SOCK_SERVER,
                refs: 1,
            },
        )
        .unwrap();

    // Trusted-code surface: of every process in the scenario, exactly one
    // — the launcher — owns the network taint category `i`.  Everything
    // else (netd, workers, clients) runs without cross-user privilege.
    let mut trusted = 0;
    for pid in [netd.pid, launcher, worker, alice_client, bob_client] {
        let thread = env.process(pid).unwrap().thread;
        let label = env.machine().kernel().thread_label(thread).unwrap();
        if label.owns(netd.taint) {
            trusted += 1;
        }
    }
    assert_eq!(
        trusted, 1,
        "trusted surface: {trusted} of 5 server-side processes own the \
         network taint category; only the launcher may"
    );

    // The leak attempt fails closed.  The worker owns neither of bob's
    // connection categories: it cannot even observe the connection ring
    // (`c_r 3` in the connection label), so the descriptor write dies on
    // the very first label check.
    assert!(matches!(
        env.read(worker, stolen_fd, 64),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));
    let err = env.write(worker, stolen_fd, &secret).unwrap_err();
    assert!(
        matches!(
            err,
            UnixError::Kernel(SyscallError::CannotObserve(_) | SyscallError::CannotModify(_))
        ),
        "expected a label-check denial on bob's connection, got {err:?}"
    );
    // Even aiming the raw segment-write syscall straight at bob's
    // connection segment — skipping the descriptor layer entirely — the
    // kernel refuses: `c_w 0` in the connection label, and the worker's
    // level is 1.
    let worker_thread = env.process(worker).unwrap().thread;
    let bob_ring =
        histar::kernel::object::ContainerEntry::new(bob_state.target_container, bob_state.target);
    let raw = env
        .kernel_mut()
        .trap_segment_write(worker_thread, bob_ring, 0, &secret);
    assert!(
        matches!(
            raw,
            Err(SyscallError::CannotModify(_) | SyscallError::CannotObserve(_))
        ),
        "raw segment write must be refused, got {raw:?}"
    );

    // The denial is visible in the audit trace: failed segment syscalls
    // from the worker's thread, with no successful write of bob's
    // connection anywhere.
    let records: Vec<TraceRecord> = env
        .machine()
        .kernel()
        .syscall_trace()
        .expect("tracing enabled")
        .iter()
        .copied()
        .collect();
    assert!(
        records
            .iter()
            .any(|r| r.tid == worker_thread && r.syscall == "segment_write" && !r.ok),
        "the refused write must appear in the audit trace"
    );
    // From the worker's first denial onward, none of its segment writes
    // succeeded: the attack window contains denials only.
    let first_denial = records
        .iter()
        .find(|r| r.tid == worker_thread && !r.ok)
        .expect("a denial from the worker's thread")
        .seq;
    assert!(
        !records.iter().any(|r| {
            r.tid == worker_thread && r.syscall == "segment_write" && r.ok && r.seq > first_denial
        }),
        "the worker must not have written any segment after its first denial"
    );
}
