//! A tour of the §6.1 web server: a burst of clients over blocking
//! sockets, per-user workers behind a single trusted launcher, and the
//! label check that makes a cross-user leak impossible.
//!
//! The scenario is the paper's: netd taints every connection `{i 2}` and
//! mints per-connection categories, the launcher (the only code owning
//! the network taint `i`) authenticates each request through the auth
//! gates, and a per-user worker — holding exactly one user's privilege —
//! serves that user's files back through the granted connection.
//!
//! Run with `cargo run --release --example httpd_tour`.

use histar::httpd::{run_httpd, HttpdParams};
use histar::kernel::sched::StopReason;

fn main() {
    let params = HttpdParams {
        clients: 120,
        users: 6,
        wrong_every: 10,
        seed: 0x70_75,
        trace_capacity: 1 << 18,
        recorder_capacity: 0,
    };
    println!(
        "booting httpd: {} clients across {} users (every {}th password wrong)\n",
        params.clients, params.users, params.wrong_every
    );

    let (world, report) = run_httpd(params).expect("httpd scenario");
    assert_eq!(report.stop, StopReason::AllComplete);
    assert!(world.failures.is_empty(), "failures: {:?}", world.failures);

    println!("served      : {:>6} requests (200 OK)", report.served);
    println!(
        "denied      : {:>6} requests (403, wrong password)",
        report.denied
    );
    println!(
        "workers     : {:>6} (one per authenticated user)",
        world.workers.len()
    );
    println!(
        "peak clients: {:>6} concurrently connected",
        report.high_water
    );
    println!();
    println!("simulated time : {}", report.elapsed);
    println!(
        "requests/sec   : {:.0} (simulated)",
        report.requests_per_sec
    );
    println!("p50 latency    : {}", report.p50_latency);
    println!("p99 latency    : {}", report.p99_latency);
    println!();

    // The blocking-I/O story, read off the scheduler counters: parked
    // threads cost nothing, and every wake is a kernel completion.
    let quanta_per_request = report.sched.quanta as f64 / report.served.max(1) as f64;
    println!(
        "quanta             : {} ({quanta_per_request:.1} per request — no busy-waiting)",
        report.sched.quanta
    );
    println!("completion wakeups : {}", report.sched.completion_wakeups);
    println!("context switches   : {}", report.sched.context_switches);
    println!("syscalls dispatched: {}", report.dispatch.total());
    println!("label checks       : {}", report.dispatch.label_checks);
    println!();

    // The trusted surface: of every process in the run, only the
    // launcher owns the network taint category.  netd, the workers and
    // all the clients run without cross-user privilege.
    let kernel = world.env.machine().kernel();
    let launcher_thread = world.env.process(world.launcher).expect("launcher").thread;
    let launcher_label = kernel.thread_label(launcher_thread).expect("label");
    assert!(launcher_label.owns(world.netd.taint));
    let mut owners = 0;
    for worker in world.workers.values() {
        let thread = world.env.process(worker.pid).expect("worker").thread;
        if kernel
            .thread_label(thread)
            .expect("label")
            .owns(world.netd.taint)
        {
            owners += 1;
        }
    }
    println!(
        "trusted surface: the launcher owns the network taint; {owners} of {} workers do",
        world.workers.len()
    );
    println!(
        "audit trace    : {} records retained",
        kernel
            .syscall_trace()
            .expect("tracing enabled")
            .iter()
            .count()
    );
    println!();
    println!("A compromised worker holds neither another user's read category");
    println!("nor another connection's write category — the kernel refuses the");
    println!("leak at the label check (see tests/information_flow.rs).");
}
