//! The metric names the repository benchmark (`perfbench/`) reads from
//! `Kernel::metrics()` stay exported.  perfbench treats a missing counter
//! as zero, so a rename would silently zero its per-layer numbers instead
//! of failing; this test fails instead.

use histar::kernel::sched::{RunLimit, SchedConfig, SchedContext, Scheduler, Step, StopReason};
use histar::kernel::Kernel;
use histar::unix::UnixEnv;

/// Every counter perfbench's probes read.
const READ_BY_PERFBENCH: [&str; 23] = [
    "dispatch.calls",
    "dispatch.errors",
    "dispatch.batches",
    "dispatch.batch_entries",
    "kernel.objects",
    "label_cache.hits",
    "label_cache.misses",
    "disk.writes",
    "disk.flushes",
    "disk.bytes_written",
    "disk.busy_ns",
    "disk.lookahead_hits",
    "wal.frames",
    "wal.appends",
    "store.checkpoints",
    "store.inplace_flushes",
    "sched.quanta",
    "sched.context_switches",
    "sched.wake_examined",
    "sched.completion_wakeups",
    "sched.alert_wakeups",
    "sched.external_wakeups",
    "sched.parked_high_water",
];

/// Names that duplicated another exported number and are exported no
/// more: each fact has one name.
const REMOVED_DUPLICATES: [&str; 4] = [
    "kernel.syscalls",
    "kernel.errors",
    "kernel.label_cache_hits",
    "dispatch.trace_dropped",
];

#[test]
fn benchmark_metric_names_stay_exported() {
    struct World {
        env: UnixEnv,
    }
    impl SchedContext for World {
        fn sched_kernel(&mut self) -> &mut Kernel {
            self.env.machine_mut().kernel_mut()
        }
    }

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/persist/log", b"one durable line", None)
        .unwrap();
    env.fsync_path(init, "/persist/log").unwrap();
    let worker = env.spawn(init, "/bin/worker", None).unwrap();
    let thread = env.process(worker).unwrap().thread;

    let mut sched: Scheduler<World> = Scheduler::new(SchedConfig::new().seed(1));
    sched.spawn(thread, Box::new(|_w: &mut World, _tid| Step::Done));
    let mut world = World { env };
    let report = sched.run(&mut world, RunLimit::to_completion());
    assert_eq!(report.stop, StopReason::AllComplete);

    let metrics = world.env.machine().kernel().metrics();
    for name in READ_BY_PERFBENCH {
        assert!(metrics.get(name).is_some(), "{name} is not exported");
    }
    for name in REMOVED_DUPLICATES {
        assert!(metrics.get(name).is_none(), "{name} is exported again");
    }
    assert!(metrics.get("dispatch.calls").unwrap() > 0);
    assert!(metrics.get("wal.appends").unwrap() > 0);
}
