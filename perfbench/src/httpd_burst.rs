//! `httpd_burst`: the §6.1 label-isolated web server under a closed
//! burst.  Every client arrives at t=0 and sends one request; a fixed
//! share present a wrong password, so the launcher's refusal path runs.
//! Kernel dispatch, label checks, scheduler wakes, netd and gate calls do
//! nearly all the work; the store does almost none.

use histar_httpd::{build_httpd, run_httpd, HttpdParams};
use histar_kernel::sched::StopReason;
use histar_unix::UnixEnv;

use crate::host::cpu_timed;
use crate::probe::{self_times, sim_now, Counters, Inputs, Rep, Window};
use crate::report::{common_layers, recover_phase_layers};

/// The burst's shape.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Fewest clients a seed may draw.
    pub clients_min: usize,
    /// The seed adds up to this many clients.
    pub clients_spread: usize,
    /// User accounts the clients spread over (one worker each).
    pub users: usize,
    /// Every `wrong_every`-th client presents a wrong password.
    pub wrong_every: usize,
}

/// The measured size: 2,000-2,020 clients.  Host cost per request grows
/// with the burst (0.85 ms at 500 clients, 1.7 ms at 2,000), so the burst
/// must be this large for that growth to show; the seed varies it by 1%
/// so that the access log, and with it recovery, differs by seed.
/// A wrong password every 97th client gives at most two per user, under
/// the auth service's retry budget of five.
pub const FULL: Size = Size {
    clients_min: 2_000,
    clients_spread: 20,
    users: 16,
    wrong_every: 97,
};

/// Where the burst's access log is made durable before the crash.
const ACCESS_LOG: &str = "/persist/access.log";

/// Span ring capacity for the traced repetition: far above the spans a
/// full-size burst records, so none are dropped.
const RECORDER_CAPACITY: usize = 1 << 26;

/// One burst: a separate `build_httpd` (timed as set-up), then
/// `run_httpd` as a whole call (which builds the same world again, so
/// the build's time is subtracted from it), then a durable access log,
/// a crash, recovery and remount of the machine the burst left behind.
pub fn rep(seed: u64, traced: bool, size: &Size) -> Rep {
    let mut inputs = Inputs::new(seed, 1);
    let clients = size.clients_min + inputs.below(size.clients_spread as u64 + 1) as usize;
    let params = HttpdParams {
        clients,
        users: size.users,
        wrong_every: size.wrong_every,
        seed: inputs.next_u64(),
        trace_capacity: 0,
        recorder_capacity: if traced { RECORDER_CAPACITY } else { 0 },
    };
    let mut rep = Rep {
        attempted: clients as u64,
        ..Rep::default()
    };

    // build_httpd is deterministic, so this world is the one run_httpd
    // starts from: its counters and clock are the run's baseline.
    let (built, setup_cpu_s) = cpu_timed(|| build_httpd(params));
    let (world0, sched0) = match built {
        Ok(b) => b,
        Err(e) => {
            rep.violation(format!("httpd_burst: build_httpd failed: {e}"));
            return rep;
        }
    };
    let before = world0.env.machine().kernel().metrics();
    let start_tick = sim_now(&world0.env);
    let netd_thread = world0.env.process(world0.netd.pid).ok().map(|p| p.thread);
    let netd_syscalls_before =
        netd_thread.map_or(0, |t| world0.env.machine().kernel().thread_syscalls(t));
    drop((world0, sched0));

    let (ran, whole_cpu_s) = cpu_timed(|| run_httpd(params));
    rep.setup_cpu_s = setup_cpu_s;
    rep.run_cpu_s = whole_cpu_s - setup_cpu_s;
    let (world, report) = match ran {
        Ok(r) => r,
        Err(e) => {
            rep.violation(format!("httpd_burst: run_httpd failed: {e}"));
            return rep;
        }
    };

    let wrong = (0..clients)
        .filter(|i| i % size.wrong_every == size.wrong_every - 1)
        .count() as u64;
    let resolved = report.served + report.denied;
    for (pid, error) in &world.failures {
        eprintln!(
            "perfbench: httpd_burst: unexpected failure in client or server pid {pid:?}: {error}"
        );
    }
    rep.failed = (clients as u64).saturating_sub(resolved);
    rep.latencies_ns = world.latencies.clone();
    rep.latencies_ns
        .extend(std::iter::repeat_n(u64::MAX, rep.failed as usize));
    rep.sim_run_ns = report.elapsed.as_nanos();
    if report.stop != StopReason::AllComplete {
        rep.violation(format!(
            "httpd_burst: scheduler stopped with {:?}",
            report.stop
        ));
    }
    if !world.failures.is_empty() {
        rep.violation(format!(
            "httpd_burst: {} program failures",
            world.failures.len()
        ));
    }
    if resolved != clients as u64 {
        rep.violation(format!(
            "httpd_burst: served {} + denied {} != {clients} clients",
            report.served, report.denied
        ));
    }
    if report.denied != wrong || report.refused != wrong {
        rep.violation(format!(
            "httpd_burst: denied {} and clients refused {}, but {wrong} presented wrong passwords",
            report.denied, report.refused
        ));
    }

    if traced {
        let kernel = world.env.machine().kernel();
        let mut counters = Counters::default();
        counters.add(&before, &kernel.metrics());
        let end_tick = kernel.now().as_nanos();
        let spans = self_times(
            &kernel.recorder().snapshot(),
            &[Window {
                start: start_tick,
                end: end_tick,
            }],
        );
        let layers = &mut rep.layers;
        common_layers(layers, &counters, &spans, resolved, rep.run_cpu_s, 0);
        let per_request = |v: f64| v / clients as f64;
        let frames = ["net_transmit", "net_receive"]
            .iter()
            .map(|n| report.dispatch.count(n).unwrap_or(0))
            .sum::<u64>();
        layers.insert("net.packets_per_request", per_request(frames as f64));
        let netd_syscalls =
            netd_thread.map_or(0, |t| kernel.thread_syscalls(t)) - netd_syscalls_before;
        layers.insert(
            "net.netd_syscalls_per_request",
            per_request(netd_syscalls as f64),
        );
        layers.insert(
            "httpd.host_ms_per_request",
            per_request(rep.run_cpu_s * 1e3),
        );
        layers.insert("httpd.high_water", report.high_water as f64);
        layers.insert("httpd.denied", report.denied as f64);
        layers.insert("obs.spans_dropped", kernel.recorder().dropped() as f64);
    }

    recover(&mut rep, world.env, &world.latencies, traced);
    rep
}

/// Writes the burst's access log (one line per served request, with its
/// simulated latency) to `/persist` and fsyncs it, crashes the machine,
/// recovers it, remounts the Unix environment and reads the log back,
/// checking it.  Recovery time runs from the crash to the end of that
/// read: the boot snapshot the recovery restores is the same for every
/// seed, the log is not.
fn recover(rep: &mut Rep, mut env: UnixEnv, latencies: &[u64], traced: bool) {
    let init = env.init_pid();
    let log: String = latencies
        .iter()
        .map(|ns| format!("GET /persist/home/index.html 200 {ns}\n"))
        .collect();
    let logged = env
        .write_file_as(init, ACCESS_LOG, log.as_bytes(), None)
        .and_then(|()| env.fsync_path(init, ACCESS_LOG));
    if let Err(e) = logged {
        rep.violation(format!("httpd_burst: writing the access log failed: {e}"));
        return;
    }
    let start = sim_now(&env);
    let recorder = env.machine().kernel().recorder().clone();
    let machine = env.into_machine();
    let (recovered, host_s) = cpu_timed(|| {
        machine
            .crash_and_recover_traced(recorder)
            .map(UnixEnv::on_machine)
    });
    let mut env = match recovered {
        Ok(env) => env,
        Err(e) => {
            rep.violation(format!("httpd_burst: recovery failed: {e}"));
            return;
        }
    };
    if traced {
        rep.layers.insert("store.recover_host_ms", host_s * 1e3);
        let spans = self_times(&env.machine().kernel().recorder().snapshot(), &[]);
        recover_phase_layers(&mut rep.layers, &spans, 1);
    }
    // The server is back once its durable state reads back: the
    // simulated recovery time runs until the log has been read.
    let init = env.init_pid();
    let read = env.read_file_as(init, ACCESS_LOG);
    let end = sim_now(&env);
    rep.recover_ns.push(end - start);
    rep.final_tick = end;
    match read {
        Ok(bytes) if bytes == log.as_bytes() => {}
        Ok(_) => rep.violation("httpd_burst: the recovered access log differs".to_string()),
        Err(e) => rep.violation(format!("httpd_burst: the access log did not recover: {e}")),
    }
}
