//! The §6.1 label-isolated dynamic web server, under load, on real
//! blocking I/O.
//!
//! The paper's web server splits into components so that almost none of
//! them need to be trusted with cross-user privilege:
//!
//! * **netd** delivers every connection tainted `{i 2}` and mints two
//!   fresh categories per connection (the paper's `ssl_r`/`ssl_w`): the
//!   connection segment is labelled `{i 2, c_r 3, c_w 0, 1}`, so only
//!   owners of `c_r` may observe the request bytes and only owners of
//!   `c_w` may write the response.
//! * the **launcher** is the small trusted component: it owns the network
//!   taint category `i` (the declassification privilege) and, after a
//!   user's first authenticated request, the user's own `ur`/`uw`
//!   categories — acquired through the auth service's gates, exactly like
//!   any login.  It accepts connections, reads the request line,
//!   authenticates, and hands the connection to that user's worker.
//! * each **worker** runs with one user's privilege only — it owns that
//!   user's `ur`/`uw`, is tainted `{i 2}` from birth, and serves files
//!   from `/persist/home/<user>` back through the connection it was
//!   granted.  A compromised worker cannot emit another user's secrets:
//!   it holds neither the other user's `ur` (cannot read the files
//!   untainted) nor the other connection's `c_w` (cannot write the
//!   socket), and any taint it picks up from another user's data makes
//!   every connection write fail the kernel's label check.
//!
//! Everything runs as programs under the deterministic scheduler on
//! *real blocking I/O*: a client parked on an empty connection, a worker
//! parked on an empty job pipe and the launcher parked on an empty accept
//! queue all sit in the scheduler's wait set consuming zero quanta until
//! a kernel readiness completion wakes them — `read(2)`/`accept(2)`
//! semantics, with `poll` over the launcher's pending connections issued
//! as one batched syscall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};

use histar_auth::{AuthService, AuthSystem, LoginOutcome};
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::sched::{
    Program, RunLimit, SchedConfig, SchedContext, SchedStats, Scheduler, Step, StopReason,
};
use histar_kernel::{Kernel, KernelStats};
use histar_label::{Category, Label, Level};
use histar_net::{Listener, Netd};
use histar_obs::Span;
use histar_sim::SimDuration;
use histar_unix::fdtable::{FdKind, FdState, FLAG_RDONLY, FLAG_SOCK_SERVER, FLAG_WRONLY};
use histar_unix::process::Pid;
use histar_unix::vnode::{PIPE_CAPACITY, PIPE_HEADER};
use histar_unix::{gatecall, Fd, UnixEnv, UnixError};

/// Result alias for web-server operations.
pub type Result<T> = core::result::Result<T, UnixError>;

/// Connections accepted per launcher quantum before yielding the CPU.
const ACCEPT_BATCH: usize = 256;
/// Ready connections dispatched per launcher quantum before yielding.
const SERVE_BATCH: usize = 256;

/// One per-user worker process, as the launcher tracks it.
#[derive(Clone, Copy, Debug)]
pub struct WorkerHandle {
    /// The worker process (owns exactly one user's `ur`/`uw`).
    pub pid: Pid,
    /// The launcher's write end of the worker's job pipe.
    pub job_wfd: Fd,
}

/// The shared world the scheduled server, workers and clients mutate.
pub struct HttpdWorld {
    /// The Unix environment (one machine).
    pub env: UnixEnv,
    /// The network daemon the connections ride.
    pub netd: Netd,
    /// The authentication system the launcher logs users in through.
    pub auth: AuthSystem,
    /// The trusted launcher process.
    pub launcher: Pid,
    /// The launcher's listening socket.
    pub listener: Listener,
    /// Per-user workers, spawned lazily on first authenticated request.
    pub workers: HashMap<String, WorkerHandle>,
    /// Passwords of users the launcher has authenticated (first request
    /// per user goes through the auth gates; later requests are checked
    /// against the cached credential).
    creds: HashMap<String, String>,
    /// Programs spawned by running programs, admitted to the scheduler
    /// between run slices (a program cannot reach the scheduler itself).
    spawned: Vec<(ObjectId, Program<HttpdWorld>)>,
    /// Set by the driver once all expected requests resolved; the woken
    /// launcher then hangs up the job pipes and retires.
    pub shutdown: bool,
    /// Requests the run expects to resolve (one per client).
    pub expected: u64,
    /// Responses fully written by workers (200 and 404 alike).
    pub served: u64,
    /// Requests the launcher refused at authentication (403).
    pub denied: u64,
    /// Client-observed non-`200` outcomes.
    pub refused: u64,
    /// Clients currently connected and awaiting their response.
    pub active: usize,
    /// High-water mark of concurrently connected clients.
    pub high_water: usize,
    /// Per-request latency in simulated nanoseconds (successful requests).
    pub latencies: Vec<u64>,
    /// Errors hit by scheduled programs (empty on a healthy run).
    pub failures: Vec<(Pid, String)>,
}

impl SchedContext for HttpdWorld {
    fn sched_kernel(&mut self) -> &mut Kernel {
        self.env.kernel_mut()
    }
}

impl HttpdWorld {
    fn fail(&mut self, pid: Pid, err: UnixError) {
        self.failures.push((pid, err.to_string()));
    }
}

/// Parameters of the web-server scenario.
#[derive(Clone, Copy, Debug)]
pub struct HttpdParams {
    /// Number of concurrent clients (one request each).
    pub clients: usize,
    /// Number of distinct user accounts they request files of.
    pub users: usize,
    /// Every `wrong_every`-th client presents a wrong password (0 = none),
    /// exercising the 403 path under load.  Keep the per-user wrong count
    /// under the auth service's retry budget of 5.
    pub wrong_every: usize,
    /// Scheduler seed (fixes the interleaving).
    pub seed: u64,
    /// Keep a syscall audit trace of this capacity (0 = tracing off).
    pub trace_capacity: usize,
    /// Keep a flight-recorder span ring of this capacity (0 = off).
    pub recorder_capacity: usize,
}

impl Default for HttpdParams {
    fn default() -> HttpdParams {
        HttpdParams {
            clients: 200,
            users: 8,
            wrong_every: 0,
            seed: 0x60_1d,
            trace_capacity: 0,
            recorder_capacity: 0,
        }
    }
}

/// What the scenario measured.
#[derive(Clone, Copy, Debug)]
pub struct HttpdReport {
    /// Why the final scheduler slice stopped.
    pub stop: StopReason,
    /// Aggregate scheduler counters over the whole run.
    pub sched: SchedStats,
    /// Responses fully written by workers.
    pub served: u64,
    /// Requests refused at authentication.
    pub denied: u64,
    /// Client-observed non-`200` outcomes.
    pub refused: u64,
    /// High-water mark of concurrently connected clients.
    pub high_water: usize,
    /// Resolved requests per simulated second.
    pub requests_per_sec: f64,
    /// Median latency of successful requests.
    pub p50_latency: SimDuration,
    /// 99th-percentile latency of successful requests.
    pub p99_latency: SimDuration,
    /// Simulated time the run consumed.
    pub elapsed: SimDuration,
    /// Kernel counters delta during the run (per-syscall dispatch counts,
    /// label checks, context switches, ...).
    pub dispatch: KernelStats,
}

// ----- the launcher: the trusted component ---------------------------------

/// One accepted connection the launcher has not yet read a request from.
#[derive(Clone, Copy)]
struct PendingConn {
    fd: Fd,
    taint_cat: Category,
    write_cat: Category,
}

fn launcher_program(launcher: Pid, listen_fd: Fd) -> Program<HttpdWorld> {
    let mut pending: Vec<PendingConn> = Vec::new();
    Box::new(move |world: &mut HttpdWorld, _tid| {
        if world.shutdown {
            let wfds: Vec<Fd> = world.workers.values().map(|w| w.job_wfd).collect();
            for wfd in wfds {
                // Hanging up a job pipe writes its ring header, which wakes
                // the worker parked on it into reading EOF.
                if let Err(e) = world.env.close(launcher, wfd) {
                    world.fail(launcher, e);
                }
            }
            return Step::Done;
        }

        // Drain the accept queue, bounded per quantum.  The final
        // `Ok(None)` registers a readiness watch on the queue segment, so
        // a later connect wakes the parked launcher.
        let mut queue_drained = false;
        for _ in 0..ACCEPT_BATCH {
            match world.netd.accept(&mut world.env, launcher, listen_fd) {
                Ok(Some(acc)) => {
                    pending.push(PendingConn {
                        fd: acc.fd,
                        taint_cat: acc.taint_cat,
                        write_cat: acc.write_cat,
                    });
                }
                Ok(None) => {
                    queue_drained = true;
                    break;
                }
                Err(e) => {
                    world.fail(launcher, e);
                    queue_drained = true;
                    break;
                }
            }
        }

        if pending.is_empty() {
            return if queue_drained {
                Step::Block
            } else {
                Step::Yield
            };
        }

        // One batched syscall decides readiness of every pending
        // connection; if none is ready the same batch parks us with a
        // watch per connection.
        let fds: Vec<Fd> = pending.iter().map(|p| p.fd).collect();
        let ready = match world.env.poll_block(launcher, &fds) {
            Ok(Some(ready)) => ready,
            Ok(None) => {
                return if queue_drained {
                    Step::Block
                } else {
                    Step::Yield
                };
            }
            Err(e) => {
                world.fail(launcher, e);
                return Step::Done;
            }
        };

        // Dispatch the ready connections, bounded per quantum.  Descending
        // index order keeps `swap_remove` from disturbing unprocessed
        // entries.
        let ready_idx: Vec<usize> = (0..pending.len())
            .rev()
            .filter(|&i| ready[i])
            .take(SERVE_BATCH)
            .collect();
        for i in ready_idx {
            let conn = pending[i];
            match handle_request(world, launcher, conn) {
                Ok(true) => {
                    pending.swap_remove(i);
                }
                Ok(false) => {} // spurious readiness: stays pending
                Err(e) => {
                    world.fail(launcher, e);
                    pending.swap_remove(i);
                }
            }
        }
        Step::Yield
    })
}

/// Reads one pending connection's request line and either dispatches it to
/// the user's worker or refuses it, then *sheds* the connection's two
/// categories from the launcher's own label — by response time they are
/// the worker's business, and a launcher that kept `⋆` for every
/// connection it ever handled would grow its label without bound.
/// Returns `Ok(false)` when the connection turned out not to have a full
/// request yet.
fn handle_request(world: &mut HttpdWorld, launcher: Pid, conn: PendingConn) -> Result<bool> {
    let data = match world.env.read_blocking(launcher, conn.fd, 512)? {
        Some(data) => data,
        None => return Ok(false), // spurious readiness; watch re-registered
    };
    if data.is_empty() {
        // Client hung up before sending a request.
        world.env.close(launcher, conn.fd)?;
        return Ok(true);
    }
    let line = String::from_utf8_lossy(&data);
    let line = line.trim_end_matches('\n');
    let mut parts = line.splitn(3, ' ');
    let (user, password, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(u), Some(p), Some(path)) if !u.is_empty() => (u.to_string(), p, path.to_string()),
        _ => {
            refuse(world, launcher, conn.fd, b"400 bad request\n")?;
            gatecall::drop_categories(&mut world.env, launcher, &[conn.taint_cat, conn.write_cat])?;
            return Ok(true);
        }
    };

    // Authentication: the first request for a user walks the auth
    // service's gates (the launcher's thread gains the user's ur/uw
    // ownership exactly like a login); later requests are checked against
    // the credential that succeeded.
    let authenticated = match world.creds.get(&user) {
        Some(known) => known == password,
        None => {
            let HttpdWorld { env, auth, .. } = world;
            match auth.login(env, launcher, &user, password)? {
                LoginOutcome::Granted => {
                    world.creds.insert(user.clone(), password.to_string());
                    true
                }
                _ => false,
            }
        }
    };
    if !authenticated {
        refuse(world, launcher, conn.fd, b"403 forbidden\n")?;
        gatecall::drop_categories(&mut world.env, launcher, &[conn.taint_cat, conn.write_cat])?;
        return Ok(true);
    }

    let worker = ensure_worker(world, launcher, &user)?;
    // Hand the connection to the worker: grant it the connection's two
    // categories, give it its own descriptor for the connection segment
    // (a fresh descriptor in the worker's own tainted container — the
    // worker could not update descriptor state living in the launcher's
    // untainted one), and queue the job.
    gatecall::grant_categories(
        &mut world.env,
        launcher,
        worker.pid,
        &[conn.taint_cat, conn.write_cat],
    )?;
    let state = world.env.fd_snapshot(launcher, conn.fd)?;
    let wfd = world.env.install_descriptor(
        worker.pid,
        FdState {
            kind: FdKind::Socket,
            target: state.target,
            target_container: state.target_container,
            position: 0,
            flags: FLAG_SOCK_SERVER,
            refs: 1,
        },
    )?;
    let job = format!(
        "{wfd} {} {} {path}\n",
        conn.taint_cat.raw(),
        conn.write_cat.raw()
    );
    world.env.write(launcher, worker.job_wfd, job.as_bytes())?;
    // Handed off: the worker owns the pair now, the launcher renounces it.
    gatecall::drop_categories(&mut world.env, launcher, &[conn.taint_cat, conn.write_cat])?;
    Ok(true)
}

/// Writes a refusal on a connection and closes the launcher's descriptor,
/// hanging up the response direction so the client sees the status and
/// then EOF.
fn refuse(world: &mut HttpdWorld, launcher: Pid, fd: Fd, status: &[u8]) -> Result<()> {
    world.env.write(launcher, fd, status)?;
    world.env.close(launcher, fd)?;
    world.denied += 1;
    Ok(())
}

/// Returns the user's worker, spawning it on first use: a process owning
/// exactly this user's `ur`/`uw`, tainted `{i 2}` from birth (so its own
/// containers carry the taint and it can maintain descriptor state), fed
/// through a job pipe labelled `{i 2, uw 0, 1}` — writable only with the
/// user's privilege, so no other user can forge jobs for this worker.
fn ensure_worker(world: &mut HttpdWorld, launcher: Pid, user: &str) -> Result<WorkerHandle> {
    if let Some(w) = world.workers.get(user) {
        return Ok(*w);
    }
    let account = world.env.user(user)?;
    let worker = world.env.spawn_with_label(
        launcher,
        &format!("/usr/lib/httpd/worker-{user}"),
        vec![account.read_cat, account.write_cat],
        vec![(world.netd.taint, Level::L2)],
    )?;

    let launcher_thread = world.env.process(launcher)?.thread;
    let conns = world.netd.conns;
    let pipe_label = Label::builder()
        .set(world.netd.taint, Level::L2)
        .set(account.write_cat, Level::L0)
        .build();
    let kernel = world.env.machine_mut().kernel_mut();
    let pipe_seg = kernel.trap_segment_create(
        launcher_thread,
        conns,
        pipe_label,
        PIPE_HEADER + PIPE_CAPACITY,
        &format!("job pipe {user}"),
    )?;
    // Ring header (rpos 0, wpos 0, writers 1): the launcher is the single
    // writer, so an empty pipe blocks the worker rather than reading EOF —
    // until the launcher hangs up at shutdown.
    let mut header = [0u8; PIPE_HEADER as usize];
    header[16] = 1;
    kernel.trap_segment_write(
        launcher_thread,
        ContainerEntry::new(conns, pipe_seg),
        0,
        &header,
    )?;
    let job_wfd = world.env.install_descriptor(
        launcher,
        FdState {
            kind: FdKind::PipeWrite,
            target: pipe_seg,
            target_container: conns,
            position: 0,
            flags: FLAG_WRONLY,
            refs: 1,
        },
    )?;
    let job_rfd = world.env.install_descriptor(
        worker,
        FdState {
            kind: FdKind::PipeRead,
            target: pipe_seg,
            target_container: conns,
            position: 0,
            flags: FLAG_RDONLY,
            refs: 1,
        },
    )?;

    let thread = world.env.process(worker)?.thread;
    world.spawned.push((
        thread,
        worker_program(worker, job_rfd, format!("/persist/home/{user}")),
    ));
    let handle = WorkerHandle {
        pid: worker,
        job_wfd,
    };
    world.workers.insert(user.to_string(), handle);
    Ok(handle)
}

// ----- the worker: one user's privilege only -------------------------------

/// One job as the worker parses it off the pipe: the granted connection
/// descriptor, the connection's two categories (to renounce once the
/// response is out), and the request path.
struct Job {
    fd: Fd,
    taint_cat: Category,
    write_cat: Category,
    path: String,
}

/// Closes a finished connection and sheds its two categories from the
/// worker's label: the worker serves thousands of connections over its
/// lifetime, and keeping every pair would grow its label — and the cost
/// of every label check it makes — without bound.
fn finish_conn(world: &mut HttpdWorld, pid: Pid, job: &Job) -> Result<()> {
    world.env.close(pid, job.fd)?;
    world.served += 1;
    gatecall::drop_categories(&mut world.env, pid, &[job.taint_cat, job.write_cat])
}

fn worker_program(pid: Pid, job_rfd: Fd, home: String) -> Program<HttpdWorld> {
    let mut inbox: Vec<u8> = Vec::new();
    let mut jobs: VecDeque<Job> = VecDeque::new();
    // A response mid-write when the connection ring filled: resume here.
    let mut partial: Option<(Job, Vec<u8>, usize)> = None;
    Box::new(move |world: &mut HttpdWorld, _tid| {
        // Finish a partially written response first.
        if let Some((job, data, mut off)) = partial.take() {
            match world.env.write_blocking(pid, job.fd, &data[off..]) {
                Ok(Some(n)) => {
                    off += n as usize;
                    if off < data.len() {
                        partial = Some((job, data, off));
                        return Step::Yield;
                    }
                    if let Err(e) = finish_conn(world, pid, &job) {
                        world.fail(pid, e);
                        return Step::Done;
                    }
                }
                Ok(None) => {
                    partial = Some((job, data, off));
                    return Step::Block;
                }
                Err(e) => {
                    world.fail(pid, e);
                    return Step::Done;
                }
            }
        }

        // Serve queued jobs: read the user's file through the VFS and
        // write the response back through the granted connection.
        while let Some(job) = jobs.pop_front() {
            let response = match world.env.read_file_as(pid, &format!("{home}/{}", job.path)) {
                Ok(body) => {
                    let mut r = b"200 ".to_vec();
                    r.extend_from_slice(&body);
                    r
                }
                Err(_) => b"404 not found\n".to_vec(),
            };
            match world.env.write_blocking(pid, job.fd, &response) {
                Ok(Some(n)) if n as usize == response.len() => {
                    // Closing our descriptor hangs up the response
                    // direction: the client reads the bytes, then EOF.
                    if let Err(e) = finish_conn(world, pid, &job) {
                        world.fail(pid, e);
                        return Step::Done;
                    }
                }
                Ok(Some(n)) => {
                    partial = Some((job, response, n as usize));
                    return Step::Yield;
                }
                Ok(None) => {
                    partial = Some((job, response, 0));
                    return Step::Block;
                }
                Err(e) => {
                    world.fail(pid, e);
                    return Step::Done;
                }
            }
        }

        // Pull more jobs off the pipe; an empty pipe parks us (zero
        // quanta) until the launcher's next job write wakes us, and EOF —
        // the launcher hung up at shutdown — retires us.
        match world.env.read_blocking(pid, job_rfd, 4096) {
            Ok(None) => Step::Block,
            Ok(Some(data)) if data.is_empty() => {
                let _ = world.env.close(pid, job_rfd);
                Step::Done
            }
            Ok(Some(data)) => {
                inbox.extend_from_slice(&data);
                while let Some(nl) = inbox.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = inbox.drain(..=nl).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    let mut parts = line.splitn(4, ' ');
                    if let (Some(fd), Some(cr), Some(cw), Some(path)) = (
                        parts.next().and_then(|s| s.parse::<Fd>().ok()),
                        parts.next().and_then(|s| s.parse::<u64>().ok()),
                        parts.next().and_then(|s| s.parse::<u64>().ok()),
                        parts.next(),
                    ) {
                        jobs.push_back(Job {
                            fd,
                            taint_cat: Category::from_raw(cr),
                            write_cat: Category::from_raw(cw),
                            path: path.to_string(),
                        });
                    }
                }
                Step::Yield
            }
            Err(e) => {
                world.fail(pid, e);
                Step::Done
            }
        }
    })
}

// ----- the client ----------------------------------------------------------

enum ClientPhase {
    Connect,
    Await { fd: Fd, start: u64 },
}

fn client_program(pid: Pid, listener: Listener, request: String) -> Program<HttpdWorld> {
    let mut phase = ClientPhase::Connect;
    Box::new(move |world: &mut HttpdWorld, tid| match phase {
        ClientPhase::Connect => {
            let netd = world.netd;
            let fd = match netd.connect(&mut world.env, pid, &listener) {
                Ok(fd) => fd,
                Err(e) => {
                    world.fail(pid, e);
                    return Step::Done;
                }
            };
            if let Err(e) = world.env.write(pid, fd, request.as_bytes()) {
                world.fail(pid, e);
                return Step::Done;
            }
            world.active += 1;
            world.high_water = world.high_water.max(world.active);
            let start = world.env.machine().kernel().now().as_nanos();
            phase = ClientPhase::Await { fd, start };
            Step::Yield
        }
        ClientPhase::Await { fd, start } => {
            match world.env.read_blocking(pid, fd, 4096) {
                // Nothing yet: park until the response write wakes us.
                Ok(None) => Step::Block,
                Ok(Some(data)) => {
                    let end = world.env.machine().kernel().now().as_nanos();
                    world.active -= 1;
                    let ok = data.starts_with(b"200 ");
                    if ok {
                        world.latencies.push(end - start);
                    } else {
                        world.refused += 1;
                    }
                    world.env.machine().kernel().recorder().record(Span {
                        cat: "httpd",
                        name: if ok { "request" } else { "refused" },
                        start,
                        end,
                        tid: tid.raw(),
                        seq: (world.latencies.len() + world.refused as usize) as u64,
                    });
                    let _ = world.env.close(pid, fd);
                    Step::Done
                }
                Err(e) => {
                    world.active -= 1;
                    world.fail(pid, e);
                    Step::Done
                }
            }
        }
    })
}

// ----- building and running the scenario -----------------------------------

/// Builds the world: one machine, `users` accounts with private home pages
/// under `/persist/home`, netd, the trusted launcher listening, and
/// `clients` request programs scheduled but not yet run.
pub fn build_httpd(params: HttpdParams) -> Result<(HttpdWorld, Scheduler<HttpdWorld>)> {
    build_on(params, SchedConfig::new().seed(params.seed))
}

/// [`build_httpd`] under an explicit scheduler configuration.
fn build_on(
    params: HttpdParams,
    config: SchedConfig,
) -> Result<(HttpdWorld, Scheduler<HttpdWorld>)> {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let mut auth = AuthSystem::new();
    let netd = Netd::start(&mut env, init, "internet")?;

    env.mkdir(init, "/persist/home", None)?;
    let mut usernames = Vec::new();
    for u in 0..params.users.max(1) {
        let name = format!("user{u}");
        let user = env.create_user(&name)?;
        auth.register(AuthService::new(user.clone(), &format!("pw-{name}")));
        env.mkdir(init, &format!("/persist/home/{name}"), None)?;
        env.write_file_as(
            init,
            &format!("/persist/home/{name}/index.html"),
            format!("<html>{name}'s private page</html>").as_bytes(),
            Some(user.private_file_label()),
        )?;
        usernames.push(name);
    }

    // The launcher is the trusted component: it owns the network taint
    // category (granted by the boot environment, which allocated it), so
    // it can run untainted while looking at network data — and therefore
    // spawn workers, create job pipes and authenticate.  That ownership
    // IS its trust: everything else in the server runs without any
    // cross-user privilege.
    let launcher = env.spawn_with_label(init, "/usr/sbin/httpd", vec![netd.taint], vec![])?;
    // The launcher keeps a server-side descriptor per live connection
    // (one page of container quota each); provision its process container
    // for the full burst up front.  The launcher's own thread moves the
    // quota down from the root's infinite pool — it owns its container's
    // write-protect category, which init (label restored after spawn)
    // does not.
    {
        let pc = env.process(launcher)?.process_container;
        let launcher_thread = env.process(launcher)?.thread;
        let kernel = env.kernel_mut();
        let kroot = kernel.root_container();
        kernel.trap_quota_move(launcher_thread, kroot, pc, 256 * 1024 * 1024)?;
    }
    let listener = netd.listen(&mut env, launcher)?;

    if params.trace_capacity > 0 {
        env.kernel_mut().enable_syscall_trace(params.trace_capacity);
    }
    if params.recorder_capacity > 0 {
        env.kernel_mut()
            .enable_flight_recorder(params.recorder_capacity);
    }

    let mut sched: Scheduler<HttpdWorld> = Scheduler::new(config);
    let launcher_thread = env.process(launcher)?.thread;
    sched.spawn(launcher_thread, launcher_program(launcher, listener.fd));

    let mut world = HttpdWorld {
        env,
        netd,
        auth,
        launcher,
        listener,
        workers: HashMap::new(),
        creds: HashMap::new(),
        spawned: Vec::new(),
        shutdown: false,
        expected: params.clients as u64,
        served: 0,
        denied: 0,
        refused: 0,
        active: 0,
        high_water: 0,
        latencies: Vec::new(),
        failures: Vec::new(),
    };
    for i in 0..params.clients {
        let username = usernames[i % usernames.len()].clone();
        let password = if params.wrong_every > 0 && i % params.wrong_every == params.wrong_every - 1
        {
            "wrong-password".to_string()
        } else {
            format!("pw-{username}")
        };
        let pid =
            world
                .netd
                .spawn_tainted(&mut world.env, init, &format!("/usr/bin/client-{i}"))?;
        let thread = world.env.process(pid)?.thread;
        let request = format!("{username} {password} index.html\n");
        sched.spawn(thread, client_program(pid, world.listener, request));
    }
    Ok((world, sched))
}

fn percentile(sorted: &[u64], q: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    SimDuration::from_nanos(sorted[idx.min(sorted.len() - 1)])
}

/// Runs the full scenario to completion and reports what happened.
///
/// The scheduler is run in slices: a program cannot admit the programs it
/// spawned (the launcher spawning a worker) to the scheduler itself, so
/// each slice ends with newly spawned programs admitted, and once every
/// expected request resolved, the driver flips `shutdown` and wakes the
/// parked launcher (the external-wake path: a parked thread is still
/// reachable), which hangs up the job pipes so the workers retire.
pub fn run_httpd(params: HttpdParams) -> Result<(HttpdWorld, HttpdReport)> {
    run_on(params, SchedConfig::new().seed(params.seed))
}

/// [`run_httpd`] under an explicit scheduler configuration.
fn run_on(params: HttpdParams, config: SchedConfig) -> Result<(HttpdWorld, HttpdReport)> {
    let (mut world, mut sched) = build_on(params, config)?;
    let before = world.env.machine().kernel().stats();
    let start = world.env.machine().kernel().now();

    let stop = loop {
        let report = sched.run(&mut world, RunLimit::to_completion());
        let newly: Vec<(ObjectId, Program<HttpdWorld>)> = world.spawned.drain(..).collect();
        let admitted = newly.len();
        for (tid, program) in newly {
            sched.spawn(tid, program);
        }
        if admitted > 0 {
            continue;
        }
        match report.stop {
            StopReason::AllBlocked
                if !world.shutdown && world.served + world.denied >= world.expected =>
            {
                world.shutdown = true;
                let launcher_thread = world.env.process(world.launcher)?.thread;
                world.env.kernel_mut().sched_wake(launcher_thread)?;
            }
            // AllComplete is the healthy exit; anything else is a genuine
            // deadlock or exhaustion, surfaced rather than spun on.
            stop => break stop,
        }
    };

    let elapsed = world.env.machine().kernel().now() - start;
    let dispatch = world.env.machine().kernel().stats().since(&before);
    let mut sorted = world.latencies.clone();
    sorted.sort_unstable();
    let resolved = world.served + world.denied;
    let secs = elapsed.as_secs_f64();
    let report = HttpdReport {
        stop,
        sched: sched.stats(),
        served: world.served,
        denied: world.denied,
        refused: world.refused,
        high_water: world.high_water,
        requests_per_sec: if secs > 0.0 {
            resolved as f64 / secs
        } else {
            0.0
        },
        p50_latency: percentile(&sorted, 0.50),
        p99_latency: percentile(&sorted, 0.99),
        elapsed,
        dispatch,
    };
    Ok((world, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_kernel::TraceRecord;

    /// FNV-1a over every audit record's `(seq, tick, tid, syscall, ok)`
    /// and the per-syscall dispatch counters.
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

    /// Audit-trace digests of the seed-42 burst at one and four shards,
    /// committed from the code as it stood before the syscall table was
    /// generated: the trapped stream must stay byte-identical across
    /// refactors.
    const GOLDEN: [(usize, u64); 2] = [(1, 18094579843698159164), (4, 12574589261950585337)];

    #[test]
    fn serves_every_client_its_own_users_page() {
        let params = HttpdParams {
            clients: 60,
            users: 4,
            wrong_every: 0,
            seed: 7,
            trace_capacity: 0,
            recorder_capacity: 0,
        };
        let (world, report) = run_httpd(params).unwrap();
        assert!(world.failures.is_empty(), "failures: {:?}", world.failures);
        assert_eq!(report.stop, StopReason::AllComplete);
        assert_eq!(report.served, 60);
        assert_eq!(report.denied, 0);
        assert_eq!(report.refused, 0);
        assert_eq!(world.latencies.len(), 60);
        assert_eq!(world.workers.len(), 4, "one worker per user, reused");
        assert!(report.requests_per_sec > 0.0);
        assert!(report.p99_latency >= report.p50_latency);
        // All clients connect before the first response lands, so the
        // high-water mark shows genuine concurrency.
        assert!(report.high_water >= 30, "got {}", report.high_water);
    }

    #[test]
    fn wrong_passwords_are_refused_not_served() {
        let params = HttpdParams {
            clients: 24,
            users: 8,
            wrong_every: 8, // 3 wrong clients, spread over distinct users
            seed: 11,
            trace_capacity: 0,
            recorder_capacity: 0,
        };
        let (world, report) = run_httpd(params).unwrap();
        assert!(world.failures.is_empty(), "failures: {:?}", world.failures);
        assert_eq!(report.denied, 3);
        assert_eq!(report.served, 21);
        assert_eq!(report.refused, 3, "clients observe their 403s");
        assert_eq!(world.latencies.len(), 21);
    }

    #[test]
    fn parked_clients_consume_zero_quanta() {
        let params = HttpdParams {
            clients: 40,
            users: 4,
            wrong_every: 0,
            seed: 3,
            trace_capacity: 0,
            recorder_capacity: 0,
        };
        let (world, report) = run_httpd(params).unwrap();
        assert!(world.failures.is_empty(), "failures: {:?}", world.failures);
        // Every blocked wait (client awaiting its response, worker on an
        // empty job pipe, launcher on an empty accept queue) parks in the
        // wait set: the quanta bill stays linear in the work, not in time
        // spent waiting.
        assert!(
            report.sched.quanta <= 12 * 40 + 200,
            "busy-waiting detected: {} quanta for 40 requests",
            report.sched.quanta
        );
        assert!(
            report.sched.completion_wakeups > 0,
            "wakes must be event-driven"
        );
    }

    #[test]
    fn same_seed_replays_identical_run() {
        let params = HttpdParams {
            clients: 30,
            users: 3,
            wrong_every: 0,
            seed: 42,
            trace_capacity: 1 << 20,
            recorder_capacity: 0,
        };
        let (w1, r1) = run_httpd(params).unwrap();
        let (w2, r2) = run_httpd(params).unwrap();
        assert_eq!(w1.latencies, w2.latencies);
        assert_eq!(r1.sched.quanta, r2.sched.quanta);
        let t1: Vec<TraceRecord> = w1
            .env
            .machine()
            .kernel()
            .syscall_trace()
            .unwrap()
            .iter()
            .copied()
            .collect();
        let t2: Vec<TraceRecord> = w2
            .env
            .machine()
            .kernel()
            .syscall_trace()
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "same seed must replay the identical syscall stream");

        for (shards, golden) in GOLDEN {
            let (world, _) =
                run_on(params, SchedConfig::new().seed(params.seed).shards(shards)).unwrap();
            let kernel = world.env.machine().kernel();
            assert_eq!(kernel.syscall_trace().unwrap().dropped(), 0);
            assert_eq!(
                audit_digest(kernel),
                golden,
                "shards={shards}: audit trace drifted from the committed digest"
            );
        }
    }
}
