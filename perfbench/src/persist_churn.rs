//! `persist_churn`: one long-lived process runs a seeded mix of file
//! operations on `/persist` across several directories — create+write,
//! overwrite, `fsync_path`, batched `fsync_paths`, read, readdir and
//! unlink — and every few hundred operations the machine crashes,
//! recovers and remounts, and every write acknowledged by an fsync must
//! read back with its bytes and its label.  The store (WAL group commit,
//! pre-apply, checkpoint, B+-tree, recovery) and the disk model do the
//! work; the scheduler and the network sit idle.

use std::collections::{BTreeMap, BTreeSet};

use histar_kernel::machine::MachineError;
use histar_kernel::{Machine, MachineConfig, SyscallError};
use histar_obs::Recorder;
use histar_unix::{OpenFlags, Pid, UnixEnv, UnixError, User};

use crate::host::{cpu_timed, thread_cpu_s};
use crate::probe::{self_times, sim_now, Counters, Inputs, Rep, UnixProbe, Window};
use crate::report::{common_layers, recover_phase_layers};

/// The traffic.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Directories under `/persist`.
    pub dirs: usize,
    /// Files the fixture creates and syncs before the timed region.
    pub initial_files: usize,
    /// Operations in the timed region.
    pub ops: usize,
    /// Operations between two crashes.
    pub ops_per_crash: usize,
    /// Largest file written, in bytes (files span several 4 KiB extents).
    pub max_file_bytes: usize,
    /// Most paths in one `fsync_paths` batch.
    pub max_batch: usize,
}

/// The measured size: 2,400 operations over 8 directories of about 64
/// files, with a crash every 300.  That is enough operations for a p99
/// with 24 samples beyond it, enough fsync traffic to fill the 128 KiB
/// log region and force checkpoints between crashes, and eight
/// recoveries per repetition.  A process opens at most one descriptor
/// per operation, so one machine lifetime opens about 200: far from the
/// roughly 8,000 at which the descriptor-segment leak exhausts a
/// process's quota, which `kernel.objects_growth` shows instead.
pub const FULL: Size = Size {
    dirs: 8,
    initial_files: 64,
    ops: 24_000,
    ops_per_crash: 400,
    max_file_bytes: 12 << 10,
    max_batch: 8,
};

const RECORDER_CAPACITY: usize = 1 << 24;

/// The operation kinds of the churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Create,
    Overwrite,
    Fsync,
    FsyncBatch,
    Read,
    Readdir,
    Unlink,
}

/// The mix: operations of each kind per 50.  Creates and unlinks balance,
/// so the population stays near the fixture's.
const MIX: [(Op, usize); 7] = [
    (Op::Create, 7),
    (Op::Overwrite, 7),
    (Op::Fsync, 6),
    (Op::FsyncBatch, 4),
    (Op::Read, 14),
    (Op::Readdir, 5),
    (Op::Unlink, 7),
];

/// The workload's model of one file.
#[derive(Clone, Debug)]
struct File {
    dir: usize,
    /// What a read must return now.
    content: Vec<u8>,
    /// The content an fsync acknowledged (None: never acknowledged).
    acked: Option<Vec<u8>>,
    /// Versions written since the last acknowledgement; after a crash the
    /// file may hold any of them, or the acknowledged one.
    unacked: Vec<Vec<u8>>,
    /// The machine lifetime whose user write-protects the file (`{uw 0, 1}`);
    /// None for unlabelled files.  After a crash init no longer owns that
    /// user's categories, so the file is read-only from then on.
    protected_in: Option<u32>,
}

/// The workload's state: the model of the tree and the machine under it.
struct Churn {
    env: UnixEnv,
    init: Pid,
    user: User,
    epoch: u32,
    files: BTreeMap<String, File>,
    next_name: u64,
    unix: UnixProbe,
    /// Recovered write-protected files the new init process could write.
    reissued_owner_writes: u64,
    /// File bytes the timed operations asked to write.
    user_bytes: u64,
    /// Operation kinds left in the current round of the mix.
    deck: Vec<Op>,
}

impl Churn {
    fn writable(&self, f: &File) -> bool {
        f.protected_in.is_none_or(|e| e == self.epoch)
    }

    fn pick(&self, inputs: &mut Inputs, writable_only: bool) -> Option<String> {
        let candidates: Vec<&String> = self
            .files
            .iter()
            .filter(|(_, f)| !writable_only || self.writable(f))
            .map(|(p, _)| p)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[inputs.below(candidates.len() as u64) as usize].clone())
        }
    }

    fn write_file(&mut self, path: &str, data: &[u8], protected: bool) -> Result<(), UnixError> {
        let (init, unix) = (self.init, &mut self.unix);
        let label = protected.then(|| self.user.protected_file_label());
        self.user_bytes += data.len() as u64;
        let fd = unix.call(&mut self.env, "open", |env| {
            env.open_labeled(init, path, OpenFlags::write_create(), label)
        })?;
        unix.call(&mut self.env, "write", |env| env.write(init, fd, data))?;
        self.env.close(init, fd)
    }

    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, UnixError> {
        let (init, unix) = (self.init, &mut self.unix);
        let fd = unix.call(&mut self.env, "open", |env| {
            env.open(init, path, OpenFlags::read_only())
        })?;
        let len = self.env.fstat(init, fd)?.len;
        let data = unix.call(&mut self.env, "read", |env| env.read(init, fd, len))?;
        self.env.close(init, fd)?;
        Ok(data)
    }

    fn acknowledge(&mut self, path: &str) {
        if let Some(f) = self.files.get_mut(path) {
            f.acked = Some(f.content.clone());
            f.unacked.clear();
        }
    }

    /// The next operation kind: every 50 operations run the fixed [`MIX`]
    /// in a seeded order, so the file population holds steady and seeds
    /// differ in which files and bytes they touch, not in the mix.
    fn next_op(&mut self, inputs: &mut Inputs) -> Op {
        if self.deck.is_empty() {
            self.deck = MIX
                .iter()
                .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
                .collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, inputs.below(i as u64 + 1) as usize);
            }
        }
        self.deck.pop().expect("refilled above")
    }

    /// One seeded operation.  Returns `Err((op, error))` on an unexpected
    /// failure and records a violation when a read disagrees with the
    /// model.
    fn step(
        &mut self,
        inputs: &mut Inputs,
        size: &Size,
        rep: &mut Rep,
    ) -> Result<(), (&'static str, UnixError)> {
        let mut op = self.next_op(inputs);
        let writable = match op {
            Op::Overwrite | Op::Fsync | Op::FsyncBatch | Op::Unlink => self.pick(inputs, true),
            _ => None,
        };
        if writable.is_none()
            && matches!(op, Op::Overwrite | Op::Fsync | Op::FsyncBatch | Op::Unlink)
        {
            op = Op::Create;
        }
        match op {
            Op::Create => {
                let dir = inputs.below(size.dirs as u64) as usize;
                let path = format!("/persist/d{dir}/f{}", self.next_name);
                self.next_name += 1;
                let data = inputs.content(size.max_file_bytes);
                let protected = inputs.below(4) == 0;
                self.write_file(&path, &data, protected)
                    .map_err(|e| ("create", e))?;
                self.files.insert(
                    path,
                    File {
                        dir,
                        content: data.clone(),
                        acked: None,
                        unacked: vec![data],
                        protected_in: protected.then_some(self.epoch),
                    },
                );
            }
            Op::Overwrite => {
                let path = writable.expect("checked above");
                let data = inputs.content(size.max_file_bytes);
                let protected = self.files[&path].protected_in.is_some();
                self.write_file(&path, &data, protected)
                    .map_err(|e| ("overwrite", e))?;
                let f = self.files.get_mut(&path).expect("picked from the model");
                f.content = data.clone();
                f.unacked.push(data);
            }
            Op::Fsync => {
                let path = writable.expect("checked above");
                let init = self.init;
                self.unix
                    .call(&mut self.env, "fsync", |env| env.fsync_path(init, &path))
                    .map_err(|e| ("fsync_path", e))?;
                self.acknowledge(&path);
            }
            Op::FsyncBatch => {
                let n = 2 + inputs.below(size.max_batch as u64 - 1) as usize;
                let batch: BTreeSet<String> =
                    (0..n).filter_map(|_| self.pick(inputs, true)).collect();
                let paths: Vec<&str> = batch.iter().map(String::as_str).collect();
                let init = self.init;
                self.unix
                    .call(&mut self.env, "fsync", |env| env.fsync_paths(init, &paths))
                    .map_err(|e| ("fsync_paths", e))?;
                for path in &batch {
                    self.acknowledge(path);
                }
            }
            Op::Read => {
                let Some(path) = self.pick(inputs, false) else {
                    return Ok(());
                };
                let data = self.read_file(&path).map_err(|e| ("read", e))?;
                if data != self.files[&path].content {
                    rep.violation(format!(
                        "persist_churn: read of {path} differs from what was written"
                    ));
                }
            }
            Op::Unlink => {
                let path = writable.expect("checked above");
                let init = self.init;
                self.unix
                    .call(&mut self.env, "unlink", |env| env.unlink(init, &path))
                    .map_err(|e| ("unlink", e))?;
                self.files.remove(&path);
            }
            Op::Readdir => {
                let dir = inputs.below(size.dirs as u64) as usize;
                let init = self.init;
                let path = format!("/persist/d{dir}");
                let entries = self
                    .unix
                    .call(&mut self.env, "readdir", |env| env.readdir(init, &path))
                    .map_err(|e| ("readdir", e))?;
                let got: BTreeSet<String> = entries
                    .into_iter()
                    .map(|e| format!("{path}/{}", e.name))
                    .collect();
                let want: BTreeSet<String> = self
                    .files
                    .iter()
                    .filter(|(_, f)| f.dir == dir)
                    .map(|(p, _)| p.clone())
                    .collect();
                if got != want {
                    rep.violation(format!(
                        "persist_churn: readdir of {path} disagrees with the model"
                    ));
                }
            }
        }
        Ok(())
    }

    /// After a crash: every acknowledged file must be there with its
    /// bytes (an unacknowledged one may be absent or hold any version
    /// written since its last acknowledgement), nothing unlinked may come
    /// back, and a write-protected file must refuse a process that owns
    /// no category.  The model then adopts what survived.
    fn check_recovered(&mut self, size: &Size, rep: &mut Rep) {
        let init = self.init;
        let mut present = BTreeSet::new();
        for dir in 0..size.dirs {
            let path = format!("/persist/d{dir}");
            match self.env.readdir(init, &path) {
                Ok(entries) => {
                    present.extend(entries.into_iter().map(|e| format!("{path}/{}", e.name)))
                }
                Err(e) => rep.violation(format!("persist_churn: {path} did not recover: {e}")),
            }
        }
        for path in &present {
            if !self.files.contains_key(path) {
                rep.violation(format!("persist_churn: {path} came back after its unlink"));
            }
        }
        let paths: Vec<String> = self.files.keys().cloned().collect();
        for path in paths {
            let f = self.files[&path].clone();
            if !present.contains(&path) {
                if f.acked.is_some() {
                    rep.violation(format!(
                        "persist_churn: acknowledged {path} lost in the crash"
                    ));
                }
                self.files.remove(&path);
                continue;
            }
            let data = match self.env.read_file_as(init, &path) {
                Ok(d) => d,
                Err(e) => {
                    rep.violation(format!("persist_churn: recovered {path} unreadable: {e}"));
                    self.files.remove(&path);
                    continue;
                }
            };
            let allowed = f.unacked.iter().chain(f.acked.iter()).any(|v| *v == data);
            if !allowed {
                rep.violation(format!(
                    "persist_churn: recovered {path} holds bytes never written to it"
                ));
            }
            if f.protected_in.is_some() && self.owner_can_rewrite(&path, &data) {
                self.reissued_owner_writes += 1;
            }
            if f.protected_in.is_some() && !self.refuses_unprivileged_write(&path) {
                rep.violation(format!(
                    "persist_churn: recovered {path} lost its write-protecting label"
                ));
            }
            let f = self.files.get_mut(&path).expect("present in the model");
            f.content = data.clone();
            f.acked = Some(data);
            f.unacked.clear();
        }
    }

    /// True when the recovered init process can write `path`, a file
    /// write-protected by a previous lifetime's user whose categories it
    /// was never given.  The probe rewrites the file's first byte with
    /// itself, so the content stays as it was either way.
    fn owner_can_rewrite(&mut self, path: &str, data: &[u8]) -> bool {
        let init = self.init;
        let flags = OpenFlags {
            read: true,
            write: true,
            ..OpenFlags::default()
        };
        let Ok(fd) = self.env.open(init, path, flags) else {
            return false;
        };
        let written = self.env.write(init, fd, &data[..1]).is_ok();
        let _ = self.env.close(init, fd);
        written
    }

    /// True when a process that owns no category cannot write `path`:
    /// the file's `{uw 0, 1}` label survived.
    fn refuses_unprivileged_write(&mut self, path: &str) -> bool {
        let init = self.init;
        let Ok(snoop) = self.env.spawn(init, "/bin/snoop", None) else {
            return false;
        };
        let flags = OpenFlags {
            read: true,
            write: true,
            ..OpenFlags::default()
        };
        let refused = match self.env.open(snoop, path, flags) {
            Ok(fd) => self.env.write(snoop, fd, b"x").is_err_and(is_label_refusal),
            Err(e) => is_label_refusal(e),
        };
        let _ = self.env.exit(snoop, histar_unix::ExitStatus::Exited(0));
        refused
    }
}

fn is_label_refusal(e: UnixError) -> bool {
    matches!(
        e,
        UnixError::Kernel(SyscallError::CannotModifyRecord(_) | SyscallError::CannotModify(_))
    )
}

/// One churn: set-up (boot, directories, synced initial files), then the
/// timed operations with a crash, recovery and durability check every
/// `ops_per_crash`.
pub fn rep(seed: u64, traced: bool, size: &Size) -> Rep {
    let mut inputs = Inputs::new(seed, 2);
    let config = MachineConfig {
        seed: inputs.next_u64(),
        ..MachineConfig::default()
    };
    let mut rep = Rep::default();
    let (setup, setup_cpu_s) = cpu_timed(|| setup(config, size, &mut inputs, traced));
    rep.setup_cpu_s = setup_cpu_s;
    let mut churn = match setup {
        Ok(c) => c,
        Err(e) => {
            rep.violation(format!("persist_churn: set-up failed: {e}"));
            return rep;
        }
    };
    let recorder = churn.env.machine().kernel().recorder().clone();
    let mut counters = Counters::default();
    let mut windows = Vec::new();
    let mut recover_host_s = Vec::new();
    let mut done = 0;
    while done < size.ops {
        let before = churn.env.machine().kernel().metrics();
        let start_tick = sim_now(&churn.env);
        let cpu0 = thread_cpu_s();
        for _ in 0..size.ops_per_crash.min(size.ops - done) {
            rep.attempted += 1;
            let op_start = sim_now(&churn.env);
            match churn.step(&mut inputs, size, &mut rep) {
                Ok(()) => rep.latencies_ns.push(sim_now(&churn.env) - op_start),
                Err((op, e)) => rep.fail("persist_churn", op, &e),
            }
            done += 1;
        }
        rep.run_cpu_s += thread_cpu_s() - cpu0;
        let end_tick = sim_now(&churn.env);
        rep.sim_run_ns += end_tick - start_tick;
        windows.push(Window {
            start: start_tick,
            end: end_tick,
        });
        if traced {
            counters.add(&before, &churn.env.machine().kernel().metrics());
        }

        let (recovered, host_s) = cpu_timed(|| crash(churn.env, &recorder));
        recover_host_s.push(host_s);
        let mut env = match recovered {
            Ok(env) => env,
            Err(e) => {
                rep.violation(format!("persist_churn: recovery failed: {e}"));
                return rep;
            }
        };
        rep.recover_ns.push(sim_now(&env) - end_tick);
        churn.epoch += 1;
        churn.init = env.init_pid();
        churn.user = match env.create_user(&format!("owner{}", churn.epoch)) {
            Ok(u) => u,
            Err(e) => {
                rep.violation(format!(
                    "persist_churn: user creation after recovery failed: {e}"
                ));
                return rep;
            }
        };
        churn.env = env;
        churn.check_recovered(size, &mut rep);
    }
    rep.final_tick = sim_now(&churn.env);

    if traced {
        let spans = self_times(&recorder.snapshot(), &windows);
        let ops = rep.succeeded();
        let layers = &mut rep.layers;
        common_layers(
            layers,
            &counters,
            &spans,
            ops,
            rep.run_cpu_s,
            churn.user_bytes,
        );
        churn.unix.export(layers);
        recover_phase_layers(layers, &spans, rep.recover_ns.len());
        layers.insert(
            "store.recover_host_ms",
            crate::probe::median(&recover_host_s) * 1e3,
        );
        layers.insert("obs.spans_dropped", recorder.dropped() as f64);
        layers.insert(
            "label.reissued_owner_writes",
            churn.reissued_owner_writes as f64,
        );
    }
    rep
}

fn setup(
    config: MachineConfig,
    size: &Size,
    inputs: &mut Inputs,
    traced: bool,
) -> Result<Churn, UnixError> {
    let mut env = UnixEnv::on_machine(Machine::boot(config));
    if traced {
        env.kernel_mut().enable_flight_recorder(RECORDER_CAPACITY);
    }
    let init = env.init_pid();
    let user = env.create_user("owner0")?;
    let mut churn = Churn {
        env,
        init,
        user,
        epoch: 0,
        files: BTreeMap::new(),
        next_name: 0,
        unix: UnixProbe::new(traced),
        reissued_owner_writes: 0,
        user_bytes: 0,
        deck: Vec::new(),
    };
    let mut synced = Vec::new();
    for dir in 0..size.dirs {
        let path = format!("/persist/d{dir}");
        churn.env.mkdir(init, &path, None)?;
        synced.push(path);
    }
    for i in 0..size.initial_files {
        let dir = i % size.dirs;
        let path = format!("/persist/d{dir}/f{}", churn.next_name);
        churn.next_name += 1;
        let data = inputs.content(size.max_file_bytes);
        churn.env.write_file_as(init, &path, &data, None)?;
        churn.files.insert(
            path.clone(),
            File {
                dir,
                content: data.clone(),
                acked: Some(data),
                unacked: Vec::new(),
                protected_in: None,
            },
        );
        synced.push(path);
    }
    let paths: Vec<&str> = synced.iter().map(String::as_str).collect();
    churn.env.fsync_paths(init, &paths)?;
    Ok(churn)
}

/// Crashes the machine under `env` and remounts a Unix environment on
/// the recovered one; recovery spans land in `recorder` (a disabled
/// recorder makes this `Machine::crash_and_recover`).
fn crash(env: UnixEnv, recorder: &Recorder) -> Result<UnixEnv, MachineError> {
    env.into_machine()
        .crash_and_recover_traced(recorder.clone())
        .map(UnixEnv::on_machine)
}
