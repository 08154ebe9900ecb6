//! Integration test for the trap-dispatch + scheduler stack: a hundred
//! interleaved untrusted login processes on one node complete
//! deterministically, every kernel interaction crossing `Kernel::dispatch`.

use histar::apps::multilogin::{run_multilogin, MultiLoginParams};
use histar::auth::LoginOutcome;
use histar::kernel::sched::StopReason;
use histar::kernel::{Kernel, TraceRecord};

fn trace_of(world: &histar::apps::multilogin::LoginWorld) -> Vec<TraceRecord> {
    world
        .env
        .machine()
        .kernel()
        .syscall_trace()
        .expect("tracing enabled")
        .iter()
        .copied()
        .collect()
}

/// FNV-1a over every audit record's `(seq, tick, tid, syscall, ok)` and
/// the per-syscall dispatch counters.  The digest pins the whole trapped
/// stream, so a change that moves one charge or one call shows up against
/// the committed constants.
fn audit_digest(kernel: &Kernel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in kernel.syscall_trace().expect("tracing enabled").iter() {
        eat(&r.seq.to_le_bytes());
        eat(&r.tick.to_le_bytes());
        eat(&r.tid.raw().to_le_bytes());
        eat(r.syscall.as_bytes());
        eat(&[u8::from(r.ok)]);
    }
    let stats = kernel.stats();
    for n in stats.invocations.iter().chain(stats.errors.iter()) {
        eat(&n.to_le_bytes());
    }
    h
}

#[test]
fn hundred_interleaved_logins_replay_identically() {
    for (shards, golden) in [(1usize, GOLDEN_SHARDS_1), (4, GOLDEN_SHARDS_4)] {
        hundred_logins_at(shards, golden);
    }
}

/// Audit-trace digests of the seed-`0xfeed` login run, committed from the
/// code as it stood before the syscall table was generated: the trapped
/// stream must stay byte-identical across refactors.
const GOLDEN_SHARDS_1: u64 = 6640857815070766345;
const GOLDEN_SHARDS_4: u64 = 5645947317814302066;

fn hundred_logins_at(shards: usize, golden: u64) {
    let params = MultiLoginParams {
        processes: 100,
        users: 10,
        seed: 0xfeed,
        shards,
        wrong_every: 9,
        trace_capacity: 1 << 20,
        recorder_capacity: 0,
    };
    let (w1, r1) = run_multilogin(params).expect("scenario");
    let (w2, r2) = run_multilogin(params).expect("scenario");

    assert_eq!(r1.schedule.stop, StopReason::AllComplete);
    assert!(w1.failures.is_empty(), "failures: {:?}", w1.failures);
    assert_eq!(w1.outcomes.len(), 100);
    let granted = w1
        .outcomes
        .iter()
        .filter(|(_, o)| *o == LoginOutcome::Granted)
        .count();
    assert_eq!(granted, 100 - 100 / 9);

    // Multiprogramming really happened: far more context switches than
    // processes, and a dense trapped syscall stream.
    assert!(r1.schedule.stats.context_switches > 200);
    assert!(r1.dispatch.total() > 5_000);

    // Determinism: same seed ⇒ identical outcome list, identical schedule,
    // identical audit trace, tick for tick.
    assert_eq!(w1.outcomes, w2.outcomes);
    assert_eq!(r1.schedule.stats.quanta, r2.schedule.stats.quanta);
    assert_eq!(r1.elapsed, r2.elapsed);
    let (t1, t2) = (trace_of(&w1), trace_of(&w2));
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);

    let kernel = w1.env.machine().kernel();
    assert_eq!(kernel.syscall_trace().unwrap().dropped(), 0);
    assert_eq!(
        audit_digest(kernel),
        golden,
        "shards={shards}: audit trace drifted from the committed digest"
    );
}

/// The sharded run queues keep the determinism contract at every width:
/// for a fixed `(seed, shards)` pair the full login workload replays the
/// identical audit trace, at one shard (the classic global round-robin),
/// four and sixteen.
#[test]
fn shard_width_one_four_sixteen_each_replays_identically() {
    for shards in [1usize, 4, 16] {
        let params = MultiLoginParams {
            processes: 40,
            users: 5,
            seed: 0x54a2d,
            shards,
            wrong_every: 0,
            trace_capacity: 1 << 20,
            recorder_capacity: 0,
        };
        let (w1, r1) = run_multilogin(params).expect("scenario");
        let (w2, r2) = run_multilogin(params).expect("scenario");
        assert_eq!(r1.schedule.stop, StopReason::AllComplete);
        assert!(w1.failures.is_empty(), "failures: {:?}", w1.failures);
        assert_eq!(w1.outcomes, w2.outcomes, "shards={shards}");
        assert_eq!(r1.schedule.stats.quanta, r2.schedule.stats.quanta);
        assert_eq!(r1.elapsed, r2.elapsed);
        let (t1, t2) = (trace_of(&w1), trace_of(&w2));
        assert!(!t1.is_empty());
        assert_eq!(
            t1, t2,
            "shards={shards}: same (seed, shards) must replay the identical trace"
        );
    }
}

/// The web-server burst under the same scheduler stack: wake order is a
/// pure function of the seed.  Two runs with the same seed produce the
/// same audit trace tick for tick (every park, wake and label check in
/// the same order), while a different seed reorders the interleaving
/// without changing what is served.
#[test]
fn web_server_wake_order_is_deterministic_per_seed() {
    use histar::httpd::{run_httpd, HttpdParams, HttpdWorld};

    fn httpd_trace(world: &HttpdWorld) -> Vec<TraceRecord> {
        world
            .env
            .machine()
            .kernel()
            .syscall_trace()
            .expect("tracing enabled")
            .iter()
            .copied()
            .collect()
    }

    let params = HttpdParams {
        clients: 48,
        users: 4,
        wrong_every: 0,
        seed: 0xd1ce,
        trace_capacity: 1 << 20,
        recorder_capacity: 0,
    };
    let (w1, r1) = run_httpd(params).expect("httpd scenario");
    let (w2, r2) = run_httpd(params).expect("httpd scenario");

    assert_eq!(r1.stop, StopReason::AllComplete);
    assert!(w1.failures.is_empty(), "failures: {:?}", w1.failures);
    assert_eq!(r1.served, 48);

    // Same seed: identical latencies, identical quanta bill, identical
    // audit trace — blocked-thread wakes included, since every wake's
    // subsequent syscalls land in the same trace slots.
    assert_eq!(w1.latencies, w2.latencies);
    assert_eq!(r1.sched.quanta, r2.sched.quanta);
    assert_eq!(r1.elapsed, r2.elapsed);
    let (t1, t2) = (httpd_trace(&w1), httpd_trace(&w2));
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);

    // A different seed reorders the wake interleaving but serves exactly
    // the same burst.
    let (w3, r3) = run_httpd(HttpdParams {
        seed: params.seed ^ 0xffff,
        ..params
    })
    .expect("httpd scenario");
    assert_eq!(r3.served, 48);
    assert!(w3.failures.is_empty(), "failures: {:?}", w3.failures);
    let t3 = httpd_trace(&w3);
    assert!(
        t1 != t3 || w1.latencies != w3.latencies,
        "a different seed should produce a different interleaving"
    );
}

/// A thread blocked on a socket is still killable while parked: the
/// signal-gate alert lands on its completion queue, the scheduler wakes
/// it (an alert wake, not a readiness wake), and it retires even though
/// the socket never becomes readable.
#[test]
fn thread_blocked_on_a_socket_is_killable_while_parked() {
    use histar::kernel::sched::{RunLimit, SchedConfig, SchedContext, Scheduler, Step};
    use histar::kernel::Kernel;
    use histar::net::Netd;
    use histar::unix::UnixEnv;

    struct ParkWorld {
        env: UnixEnv,
        surfer_turns: u64,
        watchdog_turns: u64,
        taken: Option<u64>,
    }
    impl SchedContext for ParkWorld {
        fn sched_kernel(&mut self) -> &mut Kernel {
            self.env.machine_mut().kernel_mut()
        }
    }

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();
    // The server owns the network taint (the launcher's trust) but never
    // accepts or writes anything — the surfer will wait forever.
    let server = env
        .spawn_with_label(init, "/usr/sbin/httpd", vec![netd.taint], vec![])
        .unwrap();
    let listener = netd.listen(&mut env, server).unwrap();
    let surfer = netd
        .spawn_tainted(&mut env, init, "/usr/bin/surfer")
        .unwrap();
    let conn = netd.connect(&mut env, surfer, &listener).unwrap();

    let surfer_thread = env.process(surfer).unwrap().thread;
    let server_thread = env.process(server).unwrap().thread;

    let mut sched: Scheduler<ParkWorld> = Scheduler::new(SchedConfig::new().seed(0x5106));
    sched.spawn(
        surfer_thread,
        Box::new(move |world: &mut ParkWorld, _tid| {
            world.surfer_turns += 1;
            if let Some(sig) = world.env.take_signal(surfer).unwrap() {
                world.taken = Some(sig);
                return Step::Done;
            }
            match world.env.read_blocking(surfer, conn, 128).unwrap() {
                None => Step::Block,
                Some(data) => panic!("no server ever writes this connection: {data:?}"),
            }
        }),
    );
    const WATCHDOG_PATIENCE: u64 = 8;
    sched.spawn(
        server_thread,
        Box::new(move |world: &mut ParkWorld, _tid| {
            world.watchdog_turns += 1;
            if world.watchdog_turns <= WATCHDOG_PATIENCE {
                return Step::Yield;
            }
            // The trusted component gives up on the stalled connection and
            // kills its client — which is parked, not runnable.
            world.env.kill(server, surfer, 9).unwrap();
            Step::Done
        }),
    );

    let mut world = ParkWorld {
        env,
        surfer_turns: 0,
        watchdog_turns: 0,
        taken: None,
    };
    let report = sched.run(&mut world, RunLimit::to_completion());

    // The run completed: the parked surfer was woken by the alert and
    // retired, even though its socket never had a byte to read.
    assert_eq!(report.stop, StopReason::AllComplete);
    assert_eq!(
        world.taken,
        Some(9),
        "the signal must reach the parked thread"
    );
    assert_eq!(
        world.surfer_turns, 2,
        "the surfer runs once to park and once to die; parked turns cost nothing"
    );
    assert!(
        sched.stats().alert_wakeups >= 1,
        "the wake must be counted as an alert wake: {:?}",
        sched.stats()
    );
}
