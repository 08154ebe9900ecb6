//! The multiprogramming benchmark: N concurrent untrusted logins
//! interleaved by the deterministic scheduler, on one node and across the
//! two-node exporter fabric.
//!
//! Reported numbers are *simulated* time, like every other harness in this
//! crate: syscalls per simulated second through the dispatch boundary, and
//! the mean context-switch cost actually charged (a mix of full TLB
//! flushes and HiStar's cheap `invlpg` switches, depending on how often
//! adjacent quanta share an address space).

use crate::report::{BenchJson, Row, Table};
use histar_apps::multilogin::{run_multilogin, MultiLoginParams};
use histar_auth::{AuthService, AuthSystem, LoginOutcome};
use histar_exporter::Fabric;
use histar_kernel::sched::{
    Program, RunLimit, SchedConfig, SchedContext, Scheduler, Step, StopReason, DEFAULT_SHARDS,
};
use histar_kernel::{Kernel, KernelStats};
use histar_sim::{CostModel, OsFlavor, SimDuration};
use histar_unix::process::Pid;

/// Parameters of the scheduler benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SchedBenchParams {
    /// Concurrent login processes on the single node.
    pub processes: usize,
    /// Distinct user accounts.
    pub users: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Login processes per node in the fabric variant.
    pub fabric_processes: usize,
    /// Simulated users admitted in the `max_users` phase (mostly parked).
    pub max_users: usize,
    /// Users in the `max_users` phase that actually run a small workload.
    pub max_users_working: usize,
    /// Parked users the `max_users` phase wakes individually at the end.
    pub max_users_wakes: usize,
}

impl SchedBenchParams {
    /// Quick parameters for tests and CI smoke runs.
    pub fn smoke() -> SchedBenchParams {
        SchedBenchParams {
            processes: 24,
            users: 4,
            seed: 0xded,
            fabric_processes: 6,
            max_users: 2_000,
            max_users_working: 32,
            max_users_wakes: 8,
        }
    }

    /// The parameters the `sched_bench` binary reports.
    pub fn full() -> SchedBenchParams {
        SchedBenchParams {
            processes: 200,
            users: 16,
            seed: 0xded,
            fabric_processes: 24,
            max_users: 100_000,
            max_users_working: 512,
            max_users_wakes: 64,
        }
    }
}

/// Mean context-switch cost implied by the kernel's switch counters: the
/// blend of full-flush and `invlpg` switches the run actually performed.
fn mean_switch_cost(stats: &KernelStats) -> SimDuration {
    let cost = CostModel::for_flavor(OsFlavor::HiStar);
    if stats.context_switches == 0 {
        return SimDuration::ZERO;
    }
    let full = stats.context_switches - stats.invlpg_switches;
    let total_ns = full * cost.context_switch_full.as_nanos()
        + stats.invlpg_switches * cost.context_switch_invlpg.as_nanos();
    SimDuration::from_nanos(total_ns / stats.context_switches)
}

/// One measured variant.
#[derive(Clone, Copy, Debug)]
pub struct SchedMeasurement {
    /// Processes that ran to completion.
    pub completed: u64,
    /// Syscalls through the dispatch boundary.
    pub syscalls: u64,
    /// Scheduler quanta executed.
    pub quanta: u64,
    /// Context switches charged.
    pub context_switches: u64,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
    /// Mean charged context-switch cost.
    pub switch_cost: SimDuration,
    /// Kernel counters over the run, including the submission-batch size
    /// histogram.
    pub dispatch: KernelStats,
}

impl SchedMeasurement {
    /// Dispatched syscalls per simulated second.
    pub fn syscalls_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.syscalls as f64 / secs
        }
    }

    /// Amortized boundary-crossing cost per dispatched entry, in
    /// nanoseconds: one full trap per batch plus the decode cost for every
    /// further entry, divided over all entries.
    pub fn amortized_trap_ns(&self) -> f64 {
        let cost = CostModel::for_flavor(OsFlavor::HiStar);
        self.dispatch.amortized_trap_ns(
            cost.syscall.as_nanos(),
            cost.syscall_batched_entry.as_nanos(),
        )
    }
}

/// Runs the single-node multiprogrammed-login scenario.
pub fn measure_single_node(params: SchedBenchParams) -> SchedMeasurement {
    let (_world, report) = run_multilogin(MultiLoginParams {
        processes: params.processes,
        users: params.users,
        seed: params.seed,
        shards: DEFAULT_SHARDS,
        wrong_every: 7,
        trace_capacity: 0,
        recorder_capacity: 0,
    })
    .expect("multilogin scenario");
    SchedMeasurement {
        completed: report.schedule.stats.completed,
        syscalls: report.dispatch.total(),
        quanta: report.schedule.stats.quanta,
        context_switches: report.schedule.stats.context_switches,
        elapsed: report.elapsed,
        switch_cost: mean_switch_cost(&report.dispatch),
        dispatch: report.dispatch,
    }
}

/// Runs a flight-recorder-enabled single-node pass and returns its
/// chrome-trace JSON dump — the `TRACE_sched.json` artifact CI uploads so
/// a regression can be inspected span-by-span in a trace viewer.
pub fn chrome_trace(params: SchedBenchParams) -> String {
    let (world, _report) = run_multilogin(MultiLoginParams {
        // A bounded slice of the workload: the trace is for inspection,
        // not measurement, and the viewer does not need 200 logins.
        processes: params.processes.min(24),
        users: params.users,
        seed: params.seed,
        shards: DEFAULT_SHARDS,
        wrong_every: 7,
        trace_capacity: 0,
        recorder_capacity: 1 << 16,
    })
    .expect("multilogin scenario");
    world.env.machine().kernel().recorder().chrome_trace_json()
}

// ----- the two-node fabric variant ---------------------------------------

/// The shared world of the fabric variant: two nodes, each with its own
/// auth system and its own scheduler; `active` names the node whose CPU is
/// currently running (the driver alternates them like two machines).
struct FabricWorld {
    fabric: Fabric,
    auths: Vec<AuthSystem>,
    active: usize,
    outcomes: Vec<(usize, Pid, LoginOutcome)>,
    failures: Vec<String>,
}

impl SchedContext for FabricWorld {
    fn sched_kernel(&mut self) -> &mut Kernel {
        self.fabric.nodes[self.active]
            .env
            .machine_mut()
            .kernel_mut()
    }
}

enum FabricPhase {
    Login,
    RemoteEcho,
}

fn fabric_login_program(node: usize, pid: Pid, username: String) -> Program<FabricWorld> {
    let mut phase = FabricPhase::Login;
    Box::new(move |world: &mut FabricWorld, _tid| match phase {
        FabricPhase::Login => {
            let env = &mut world.fabric.nodes[node].env;
            match world.auths[node].login(env, pid, &username, &format!("pw-{username}")) {
                Ok(outcome) => {
                    let granted = outcome == LoginOutcome::Granted;
                    world.outcomes.push((node, pid, outcome));
                    if granted {
                        phase = FabricPhase::RemoteEcho;
                        Step::Yield
                    } else {
                        Step::Done
                    }
                }
                Err(e) => {
                    world.failures.push(format!("node{node} pid{pid}: {e}"));
                    Step::Done
                }
            }
        }
        FabricPhase::RemoteEcho => {
            // One label-checked RPC to the peer node's echo service: the
            // cross-node leg of the scenario.
            let peer = 1 - node;
            let payload = format!("hello from node{node} pid{pid}");
            let result = world
                .fabric
                .remote_call(node, pid, peer, "echo", payload.as_bytes(), None, &[])
                .and_then(|reply| world.fabric.read_reply(node, pid, &reply));
            match result {
                Ok(bytes) if bytes == payload.as_bytes() => Step::Done,
                Ok(_) => {
                    world
                        .failures
                        .push(format!("node{node} pid{pid}: bad echo"));
                    Step::Done
                }
                Err(e) => {
                    world.failures.push(format!("node{node} pid{pid}: {e}"));
                    Step::Done
                }
            }
        }
    })
}

/// Runs logins + cross-node echo RPCs on both nodes of a two-node fabric,
/// alternating the nodes' schedulers like two CPUs.  Returns the
/// measurement over node 0's clock plus the total completions across both
/// nodes.
pub fn measure_fabric(params: SchedBenchParams) -> SchedMeasurement {
    let mut fabric = Fabric::new(2);
    let mut auths = Vec::new();
    let mut scheds: Vec<Scheduler<FabricWorld>> = Vec::new();
    let mut spawned: Vec<Vec<(usize, Pid, histar_kernel::ObjectId, String)>> = Vec::new();
    for node in 0..2 {
        let mut auth = AuthSystem::new();
        let env = &mut fabric.nodes[node].env;
        let init = env.init_pid();
        env.mkdir(init, "/home", None).expect("mkdir /home");
        let mut jobs = Vec::new();
        for u in 0..params.users.max(1) {
            let name = format!("n{node}user{u}");
            let user = env.create_user(&name).expect("create user");
            auth.register(AuthService::new(user, &format!("pw-{name}")));
        }
        for i in 0..params.fabric_processes {
            let name = format!("n{node}user{}", i % params.users.max(1));
            let pid = env
                .spawn(init, &format!("/bin/login-{i}"), None)
                .expect("spawn login process");
            let thread = env.process(pid).expect("process").thread;
            jobs.push((node, pid, thread, name));
        }
        auths.push(auth);
        spawned.push(jobs);
        scheds.push(Scheduler::new(
            SchedConfig::new().seed(params.seed + node as u64),
        ));
    }
    // Each node provides an echo service the other node's logins call.
    for node in 0..2 {
        let provider = {
            let env = &mut fabric.nodes[node].env;
            let init = env.init_pid();
            env.spawn(init, "/usr/bin/echod", None)
                .expect("spawn echod")
        };
        fabric
            .register_service(node, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
            .expect("register echo service");
    }
    for (sched, jobs) in scheds.iter_mut().zip(spawned) {
        for (node, pid, thread, username) in jobs {
            sched.spawn(thread, fabric_login_program(node, pid, username));
        }
    }

    let mut world = FabricWorld {
        fabric,
        auths,
        active: 0,
        outcomes: Vec::new(),
        failures: Vec::new(),
    };
    let before_clock = world.fabric.nodes[0].env.machine().uptime();
    let node_stats =
        |world: &FabricWorld, n: usize| world.fabric.nodes[n].env.machine().kernel().stats();
    let before: Vec<KernelStats> = (0..2).map(|n| node_stats(&world, n)).collect();

    // Alternate the two nodes' CPUs until both run dry.
    let mut rounds = 0;
    loop {
        let mut remaining = 0;
        for (node, sched) in scheds.iter_mut().enumerate() {
            world.active = node;
            let r = sched.run(&mut world, RunLimit::quanta(8));
            remaining += r.remaining;
        }
        rounds += 1;
        if remaining == 0 || rounds > 100_000 {
            break;
        }
    }
    assert!(
        world.failures.is_empty(),
        "fabric failures: {:?}",
        world.failures
    );

    let elapsed = world.fabric.nodes[0].env.machine().uptime() - before_clock;
    // Combine both nodes' deltas into one set of counters.
    let dispatch = before
        .iter()
        .enumerate()
        .fold(KernelStats::default(), |sum, (n, b)| {
            sum.merge(&node_stats(&world, n).since(b))
        });
    SchedMeasurement {
        completed: (scheds[0].stats().completed + scheds[1].stats().completed),
        syscalls: dispatch.total(),
        quanta: scheds[0].stats().quanta + scheds[1].stats().quanta,
        context_switches: dispatch.context_switches,
        elapsed,
        switch_cost: mean_switch_cost(&dispatch),
        dispatch,
    }
}

// ----- the max-users variant ----------------------------------------------

/// What the `max_users` phase measured: a population of mostly-parked
/// simulated users, a small working subset, then a handful of targeted
/// wakes — the scaling story of the sharded scheduler in numbers.
#[derive(Clone, Copy, Debug)]
pub struct MaxUsersMeasurement {
    /// Users admitted (each parks after its first quantum unless working).
    pub users: u64,
    /// Most threads parked at once.
    pub parked_high_water: u64,
    /// Quanta spent admitting and parking the whole population.
    pub admit_quanta: u64,
    /// Quanta spent waking and retiring the targeted users.
    pub wake_quanta: u64,
    /// Parked threads re-examined during the targeted-wake phase.  The
    /// O(events) claim: this must scale with the wakes, not the parked
    /// population.
    pub wake_examined: u64,
    /// Targeted wakes issued.
    pub wakes: u64,
    /// Simulated time for the whole phase.
    pub elapsed: SimDuration,
}

impl MaxUsersMeasurement {
    /// Parked threads examined per targeted wake (≈1 when wakes are O(1)).
    pub fn examined_per_wake(&self) -> f64 {
        if self.wakes == 0 {
            0.0
        } else {
            self.wake_examined as f64 / self.wakes as f64
        }
    }

    /// Fraction of examined threads that actually woke (1.0 when every
    /// wake pass touches only dirtied threads).  Higher is better, so CI
    /// can gate it directly: any rescan of the parked mass drags it
    /// toward zero.
    pub fn wake_efficiency(&self) -> f64 {
        if self.wake_examined == 0 {
            1.0
        } else {
            self.wakes as f64 / self.wake_examined as f64
        }
    }
}

/// Admits `params.max_users` threads on a raw machine — a working subset
/// runs a few labeled syscalls and retires, the rest park — then wakes
/// `params.max_users_wakes` parked users one by one via the external-wake
/// path and measures what each wake cost the scheduler.
pub fn measure_max_users(params: SchedBenchParams) -> MaxUsersMeasurement {
    use histar_kernel::{Machine, MachineConfig};
    use histar_label::Label;

    let mut m = Machine::boot(MachineConfig::default());
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    let mut sched: Scheduler<Machine> = Scheduler::new(SchedConfig::new().seed(params.seed));

    let users = params.max_users.max(1);
    let working_stride = (users / params.max_users_working.max(1)).max(1);
    let mut parked_tids = Vec::new();
    for i in 0..users {
        let tid = m
            .kernel_mut()
            .trap_thread_create(
                boot,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                &format!("u{i}"),
            )
            .expect("create user thread");
        if i % working_stride == 0 {
            // The working subset: a couple of real syscalls, then done.
            sched.spawn(
                tid,
                Box::new(move |m: &mut Machine, tid| {
                    let _ = m.kernel_mut().trap_self_get_label(tid);
                    Step::Done
                }),
            );
        } else {
            // The idle mass: park on the first quantum, retire if woken.
            parked_tids.push(tid);
            let mut parked = false;
            sched.spawn(
                tid,
                Box::new(move |_m: &mut Machine, _tid| {
                    if parked {
                        Step::Done
                    } else {
                        parked = true;
                        Step::Block
                    }
                }),
            );
        }
    }

    let start = m.kernel().now();
    let admit = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(admit.stop, StopReason::AllBlocked, "the idle mass parks");

    // Wake a spread of parked users, one targeted event each.
    let wakes = params.max_users_wakes.min(parked_tids.len());
    let wake_stride = (parked_tids.len() / wakes.max(1)).max(1);
    for w in 0..wakes {
        let tid = parked_tids[w * wake_stride];
        m.kernel_mut().sched_wake(tid).expect("wake parked user");
    }
    let wake = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(wake.stop, StopReason::AllBlocked, "the rest stay parked");
    assert_eq!(wake.stats.completed, wakes as u64, "each wake retires one");

    MaxUsersMeasurement {
        users: users as u64,
        parked_high_water: sched.stats().parked_high_water,
        admit_quanta: admit.stats.quanta,
        wake_quanta: wake.stats.quanta,
        wake_examined: wake.stats.wake_examined,
        wakes: wakes as u64,
        elapsed: m.kernel().now() - start,
    }
}

/// Runs both variants and renders the table plus the machine-readable
/// report.
pub fn run(params: SchedBenchParams) -> (Table, BenchJson) {
    let single = measure_single_node(params);
    let fabric = measure_fabric(params);
    let max_users = measure_max_users(params);

    let mut table = Table::new(&format!(
        "Scheduler: {} multiprogrammed untrusted logins (quantum 50us)",
        params.processes
    ));
    table.push(Row::new("single node: total simulated time").measure("HiStar", single.elapsed));
    table.push(
        Row::new("single node: mean context-switch cost").measure("HiStar", single.switch_cost),
    );
    table.push(Row::new("two-node fabric: total simulated time").measure("HiStar", fabric.elapsed));
    table.push(
        Row::new("two-node fabric: mean context-switch cost").measure("HiStar", fabric.switch_cost),
    );

    table.push(
        Row::new("single node: amortized boundary cost/call").measure(
            "HiStar",
            SimDuration::from_nanos(single.amortized_trap_ns() as u64),
        ),
    );
    table.push(
        Row::new(&format!(
            "max users: {} admitted, {} targeted wakes",
            max_users.users, max_users.wakes
        ))
        .measure("HiStar", max_users.elapsed),
    );

    let mut json = BenchJson::new("sched");
    json.metric(
        "single_node.syscalls_per_sec",
        single.syscalls_per_sec(),
        single.elapsed.as_nanos(),
    );
    json.metric(
        "single_node.mean_batch_size",
        single.dispatch.mean_batch_size(),
        single.elapsed.as_nanos(),
    );
    json.metric(
        "single_node.amortized_trap_ns_per_call",
        single.amortized_trap_ns(),
        single.elapsed.as_nanos(),
    );
    json.metric(
        "single_node.batches",
        single.dispatch.batches as f64,
        single.elapsed.as_nanos(),
    );
    json.histogram(
        "single_node.batch_hist",
        &single.dispatch.batch_size_hist,
        single.elapsed.as_nanos(),
    );
    json.metric(
        "single_node.context_switch_cost_ns",
        single.switch_cost.as_nanos() as f64,
        single.elapsed.as_nanos(),
    );
    json.metric(
        "single_node.syscalls",
        single.syscalls as f64,
        single.elapsed.as_nanos(),
    );
    json.metric(
        "single_node.completed",
        single.completed as f64,
        single.elapsed.as_nanos(),
    );
    json.metric(
        "fabric.syscalls_per_sec",
        fabric.syscalls_per_sec(),
        fabric.elapsed.as_nanos(),
    );
    json.metric(
        "fabric.context_switch_cost_ns",
        fabric.switch_cost.as_nanos() as f64,
        fabric.elapsed.as_nanos(),
    );
    json.metric(
        "fabric.completed",
        fabric.completed as f64,
        fabric.elapsed.as_nanos(),
    );
    json.metric(
        "fabric.mean_batch_size",
        fabric.dispatch.mean_batch_size(),
        fabric.elapsed.as_nanos(),
    );
    json.metric(
        "fabric.handle_resolutions",
        fabric.dispatch.handle_resolutions as f64,
        fabric.elapsed.as_nanos(),
    );
    json.metric(
        "max_users.users",
        max_users.users as f64,
        max_users.elapsed.as_nanos(),
    );
    json.metric(
        "max_users.parked_high_water",
        max_users.parked_high_water as f64,
        max_users.elapsed.as_nanos(),
    );
    json.metric(
        "max_users.examined_per_wake",
        max_users.examined_per_wake(),
        max_users.elapsed.as_nanos(),
    );
    json.metric(
        "max_users.wake_efficiency",
        max_users.wake_efficiency(),
        max_users.elapsed.as_nanos(),
    );
    json.metric(
        "max_users.wake_quanta",
        max_users.wake_quanta as f64,
        max_users.elapsed.as_nanos(),
    );
    (table, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_smoke_measures_throughput() {
        let m = measure_single_node(SchedBenchParams::smoke());
        assert_eq!(m.completed, 24);
        assert!(m.syscalls > 500);
        assert!(m.syscalls_per_sec() > 0.0);
        assert!(m.switch_cost > SimDuration::ZERO);
        assert!(m.context_switches >= 24);
    }

    #[test]
    fn fabric_smoke_completes_all_logins_and_echoes() {
        let m = measure_fabric(SchedBenchParams::smoke());
        assert_eq!(m.completed, 12, "6 logins per node across 2 nodes");
        assert!(m.syscalls > 0);
        assert!(m.elapsed > SimDuration::ZERO);
        // The echo RPCs ride netd, whose packet path names the device and
        // buffers by capability handle.
        assert!(
            m.dispatch.handle_resolutions > 0,
            "netd's hot path must resolve handle-encoded arguments"
        );
    }

    #[test]
    fn run_emits_table_and_json() {
        let (table, json) = run(SchedBenchParams::smoke());
        let rendered = table.render();
        assert!(rendered.contains("single node"));
        assert!(rendered.contains("two-node fabric"));
        assert!(rendered.contains("max users"));
        let j = json.render();
        assert!(j.contains("\"name\": \"sched\""));
        assert!(j.contains("single_node.syscalls_per_sec"));
        assert!(j.contains("fabric.completed"));
        assert!(j.contains("single_node.mean_batch_size"));
        assert!(j.contains("single_node.amortized_trap_ns_per_call"));
        assert!(j.contains("single_node.batch_hist.1"));
        assert!(j.contains("max_users.examined_per_wake"));
    }

    #[test]
    fn max_users_wakes_are_o_of_events() {
        let m = measure_max_users(SchedBenchParams::smoke());
        assert_eq!(m.users, 2_000);
        assert!(
            m.parked_high_water >= m.users - 40,
            "nearly everyone parks; high water {}",
            m.parked_high_water
        );
        assert_eq!(m.wakes, 8);
        // The wake pass must examine only the dirtied threads, never the
        // parked population.
        assert!(
            m.wake_examined <= 2 * m.wakes,
            "examined {} for {} wakes",
            m.wake_examined,
            m.wakes
        );
        assert!(m.wake_quanta <= 2 * m.wakes);
    }

    #[test]
    fn batching_amortizes_the_trap_cost() {
        let m = measure_single_node(SchedBenchParams::smoke());
        // The login workload batches its gate-call spills, so batches are
        // smaller in number than entries and the amortized boundary cost
        // is strictly below the full trap cost.
        assert!(m.dispatch.batches > 0);
        assert!(m.dispatch.mean_batch_size() > 1.0);
        let full_trap = CostModel::for_flavor(OsFlavor::HiStar).syscall.as_nanos() as f64;
        assert!(m.amortized_trap_ns() < full_trap);
        // The histogram sees both single-call traps and multi-call batches.
        assert!(m.dispatch.batch_size_hist[0] > 0, "1-entry batches");
        assert!(
            m.dispatch.batch_size_hist.counts()[1..].iter().sum::<u64>() > 0,
            "multi-entry batches"
        );
    }
}
