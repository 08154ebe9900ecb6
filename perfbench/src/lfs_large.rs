//! `lfs_large`: the Figure 12 large-file phase through the Unix library
//! on a segfs file — a sequential write then `sync_all`, random 8 KiB
//! writes each made durable with `fsync_pages`, then a sequential
//! re-read.  On segfs every `fsync_pages` re-encodes the whole file
//! object and the store clones it again before flushing the pages, so
//! this workload's host time tracks the file size.

use histar_kernel::bodies::ObjectBody;
use histar_kernel::{Machine, MachineConfig, ObjectId};
use histar_unix::{OpenFlags, UnixEnv};

use crate::host::{cpu_timed, thread_cpu_s};
use crate::probe::{self_times, sim_now, Counters, Inputs, Rep, UnixProbe, Window};
use crate::report::{common_layers, recover_phase_layers};

/// The file and its traffic.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// File size in bytes.
    pub file_bytes: u64,
    /// Mean bytes per write and per read (the paper's 8 KB); each length
    /// is drawn from half to one and a half times this.
    pub chunk: u64,
    /// Random synchronous writes.
    pub random_writes: u64,
}

/// The measured size: a 16 MiB file and 1,024 random writes.  Host cost
/// per `fsync_pages` has a cliff between 16 MiB (2.7 ms) and 32 MiB
/// (40 ms), so 16 MiB is the largest power of two that keeps a run
/// within seconds while still copying megabytes per sync.
pub const FULL: Size = Size {
    file_bytes: 8 << 20,
    chunk: 8 << 10,
    random_writes: 1_024,
};

const PAGE: u64 = 4096;
const PATH: &str = "/big";
const RECORDER_CAPACITY: usize = 1 << 24;

/// The paper's Figure 12 large-file rows, in seconds per 100 MB
/// (taken as 100 × 2^20 bytes) of file data: sequential write, random
/// synchronous write, uncached sequential read.
const PAPER_SEQ_WRITE_S: f64 = 2.14;
const PAPER_RANDOM_SYNC_WRITE_S: f64 = 93.0;
const PAPER_READ_S: f64 = 1.96;
const PAPER_BYTES: f64 = 100.0 * 1048576.0;

/// Runs one operation of the timed region, recording its simulated
/// latency; an error is an unexpected failure.
fn op<T>(
    rep: &mut Rep,
    env: &mut UnixEnv,
    what: &str,
    f: impl FnOnce(&mut UnixEnv) -> Result<T, histar_unix::UnixError>,
) -> Option<T> {
    rep.attempted += 1;
    let start = sim_now(env);
    match f(env) {
        Ok(v) => {
            rep.latencies_ns.push(sim_now(env) - start);
            Some(v)
        }
        Err(e) => {
            rep.fail("lfs_large", what, &e);
            None
        }
    }
}

/// Seeded lengths of half to one and a half times `mean`, summing to
/// exactly `total`.
fn lengths(inputs: &mut Inputs, mean: u64, total: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut left = total;
    while left > 0 {
        let len = (mean / 2 + inputs.below(mean + 1)).min(left);
        out.push(len);
        left -= len;
    }
    out
}

/// One pass over the file: boot (set-up), then the timed phases, then a
/// crash, recovery and remount that must bring back every synced byte.
pub fn rep(seed: u64, traced: bool, size: &Size) -> Rep {
    let mut inputs = Inputs::new(seed, 3);
    let config = MachineConfig {
        seed: inputs.next_u64(),
        ..MachineConfig::default()
    };
    let mut rep = Rep::default();
    let (mut env, setup_cpu_s) = cpu_timed(|| UnixEnv::on_machine(Machine::boot(config)));
    rep.setup_cpu_s = setup_cpu_s;
    if traced {
        env.kernel_mut().enable_flight_recorder(RECORDER_CAPACITY);
    }
    let init = env.init_pid();
    let mut shadow = inputs.bytes(size.file_bytes as usize);
    let seq_lens = lengths(&mut inputs, size.chunk, size.file_bytes);
    let random: Vec<(u64, Vec<u8>)> = (0..size.random_writes)
        .map(|_| {
            let len = size.chunk / 2 + inputs.below(size.chunk + 1);
            let off = inputs.below((size.file_bytes - len) / PAGE + 1) * PAGE;
            (off, inputs.bytes(len as usize))
        })
        .collect();
    let read_lens = lengths(&mut inputs, size.chunk, size.file_bytes);
    let mut unix = UnixProbe::new(traced);
    let before = env.machine().kernel().metrics();
    let start_tick = sim_now(&env);
    let cpu0 = thread_cpu_s();

    // Sequential write, then one whole-machine sync.
    let Some(fd) = op(&mut rep, &mut env, "open", |env| {
        unix.call(env, "open", |env| {
            env.open(init, PATH, OpenFlags::read_write_create())
        })
    }) else {
        return rep;
    };
    let mut at = 0;
    for len in &seq_lens {
        let piece = &shadow[at..at + *len as usize];
        at += *len as usize;
        op(&mut rep, &mut env, "write", |env| {
            unix.call(env, "write", |env| env.write(init, fd, piece))
        });
    }
    let sync_start = thread_cpu_s();
    op(&mut rep, &mut env, "sync_all", |env| {
        env.sync_all();
        Ok(())
    });
    let sync_all_s = thread_cpu_s() - sync_start;
    let seq_ns = sim_now(&env) - start_tick;

    // Random synchronous writes: each an overwrite made durable by
    // flushing just its pages.
    let random_start = sim_now(&env);
    for (off, data) in &random {
        let (off, end) = (*off, *off + data.len() as u64);
        let pages: Vec<u64> = (off / PAGE..end.div_ceil(PAGE)).collect();
        let done = op(&mut rep, &mut env, "random write", |env| {
            env.lseek(init, fd, off)?;
            unix.call(env, "write", |env| env.write(init, fd, data))?;
            unix.call(env, "fsync_pages", |env| env.fsync_pages(init, fd, &pages))
        });
        if done.is_some() {
            shadow[off as usize..end as usize].copy_from_slice(data);
        }
    }
    let random_ns = sim_now(&env) - random_start;

    // Sequential re-read, checked against the shadow copy.
    let read_start = sim_now(&env);
    let mut reread = Vec::with_capacity(shadow.len());
    if op(&mut rep, &mut env, "lseek", |env| env.lseek(init, fd, 0)).is_some() {
        for len in &read_lens {
            if let Some(data) = op(&mut rep, &mut env, "read", |env| {
                unix.call(env, "read", |env| env.read(init, fd, *len))
            }) {
                reread.extend_from_slice(&data);
            }
        }
    }
    let read_ns = sim_now(&env) - read_start;
    let file = env.fstat(init, fd).map(|st| st.object);
    op(&mut rep, &mut env, "close", |env| env.close(init, fd));
    rep.run_cpu_s = thread_cpu_s() - cpu0;
    let end_tick = sim_now(&env);
    rep.sim_run_ns = end_tick - start_tick;
    if reread != shadow {
        rep.violation("lfs_large: the re-read differs from the shadow copy".to_string());
    }

    if traced {
        let kernel = env.machine().kernel();
        let mut counters = Counters::default();
        counters.add(&before, &kernel.metrics());
        let spans = self_times(
            &kernel.recorder().snapshot(),
            &[Window {
                start: start_tick,
                end: end_tick,
            }],
        );
        let random_bytes: u64 = random.iter().map(|(_, d)| d.len() as u64).sum();
        let user_bytes = size.file_bytes + random_bytes;
        let ops = rep.succeeded();
        common_layers(
            &mut rep.layers,
            &counters,
            &spans,
            ops,
            rep.run_cpu_s,
            user_bytes,
        );
        unix.export(&mut rep.layers);
        let per_paper = |ns: u64, bytes: u64, paper_s: f64| {
            ns as f64 / 1e9 * PAPER_BYTES / bytes as f64 / paper_s
        };
        let layers = &mut rep.layers;
        layers.insert("store.checkpoint_host_ms", sync_all_s * 1e3);
        layers.insert(
            "fidelity.seq_write_vs_paper",
            per_paper(seq_ns, size.file_bytes, PAPER_SEQ_WRITE_S),
        );
        layers.insert(
            "fidelity.random_sync_write_vs_paper",
            per_paper(random_ns, random_bytes, PAPER_RANDOM_SYNC_WRITE_S),
        );
        layers.insert(
            "fidelity.reread_vs_paper",
            per_paper(read_ns, size.file_bytes, PAPER_READ_S),
        );
    }

    match file {
        Ok(file) => recover_and_check(&mut rep, env, file, &shadow, traced),
        Err(e) => rep.violation(format!("lfs_large: fstat failed: {e}")),
    }
    rep
}

/// Crashes the machine, recovers it and remounts.  Only `/persist` is
/// remounted by name after a crash (the root segfs is formatted afresh),
/// so the recovered file is found by its object ID, and its bytes are
/// compared with the shadow copy: the sequential write was made durable
/// by `sync_all` and every random write by its `fsync_pages`.
fn recover_and_check(rep: &mut Rep, env: UnixEnv, file: ObjectId, shadow: &[u8], traced: bool) {
    let start = sim_now(&env);
    let recorder = env.machine().kernel().recorder().clone();
    let machine = env.into_machine();
    let (recovered, host_s) = cpu_timed(|| {
        machine
            .crash_and_recover_traced(recorder.clone())
            .map(UnixEnv::on_machine)
    });
    let env = match recovered {
        Ok(env) => env,
        Err(e) => {
            rep.violation(format!("lfs_large: recovery failed: {e}"));
            return;
        }
    };
    rep.recover_ns.push(sim_now(&env) - start);
    rep.final_tick = sim_now(&env);
    let lost = match env.machine().kernel().raw_object(file).map(|o| &o.body) {
        Some(ObjectBody::Segment(seg)) => {
            let differing = seg.bytes.iter().zip(shadow).filter(|(a, b)| a != b).count();
            differing + seg.bytes.len().abs_diff(shadow.len())
        }
        _ => shadow.len(),
    };
    if traced {
        rep.layers.insert("store.recover_host_ms", host_s * 1e3);
        let spans = self_times(&recorder.snapshot(), &[]);
        recover_phase_layers(&mut rep.layers, &spans, 1);
        rep.layers
            .insert("obs.spans_dropped", recorder.dropped() as f64);
        rep.layers.insert("store.synced_bytes_lost", lost as f64);
    }
}
