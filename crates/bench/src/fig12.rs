//! Figure 12: microbenchmarks.
//!
//! Every row of the paper's Figure 12 has a generator here, for HiStar
//! (running the real Unix library over the real kernel and single-level
//! store) and for the Linux-like / OpenBSD-like baseline models.

use histar_apps as _;
use histar_baseline::BaselineOs;
use histar_sim::{DiskConfig, OsFlavor, SimClock, SimDuration, SimRng};
use histar_store::{SingleLevelStore, StoreConfig, SyncPolicy};
use histar_unix::fs::OpenFlags;
use histar_unix::process::ExitStatus;
use histar_unix::UnixEnv;

use crate::report::{Row, Table};

/// How the LFS small-file phases are synchronized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// No synchronization (page cache / object cache only).
    Async,
    /// `fsync` after every operation.
    PerFile,
    /// A single whole-system sync at the end of the phase (HiStar only).
    Group,
}

/// The IPC benchmark: average simulated time per 8-byte pipe round trip.
pub fn histar_ipc_rtt(rounds: u64) -> SimDuration {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    // Two unidirectional pipes, created before the fork so both processes
    // share the descriptor segments (as the paper's benchmark does).
    let (r1, w1) = env.pipe(init).expect("pipe 1");
    let (r2, w2) = env.pipe(init).expect("pipe 2");
    let child = env.fork(init).expect("fork for the IPC benchmark");
    let start = env.machine().clock().now();
    for _ in 0..rounds {
        env.write(init, w1, b"12345678").expect("parent write");
        let m = env.read(child, r1, 8).expect("child read");
        env.write(child, w2, &m).expect("child write");
        env.read(init, r2, 8).expect("parent read");
    }
    let total = env.machine().clock().now() - start;
    SimDuration::from_nanos(total.as_nanos() / rounds)
}

/// fork + exec `/bin/true` + exit + wait, per iteration.
pub fn histar_fork_exec(iterations: u64) -> SimDuration {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/bin_true", &vec![0u8; 16 * 1024], None)
        .expect("install /bin/true");
    let start = env.machine().clock().now();
    for _ in 0..iterations {
        let child = env.fork(init).expect("fork");
        env.exec(child, "/bin_true").expect("exec");
        env.exit(child, ExitStatus::Exited(0)).expect("exit");
        env.wait(init, child).expect("wait");
    }
    let total = env.machine().clock().now() - start;
    SimDuration::from_nanos(total.as_nanos() / iterations)
}

/// The `spawn` fast path (build the process directly), per iteration.
pub fn histar_spawn(iterations: u64) -> SimDuration {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/bin_true", &vec![0u8; 16 * 1024], None)
        .expect("install /bin/true");
    let start = env.machine().clock().now();
    for _ in 0..iterations {
        let child = env.spawn(init, "/bin_true", None).expect("spawn");
        env.exit(child, ExitStatus::Exited(0)).expect("exit");
        env.wait(init, child).expect("wait");
    }
    let total = env.machine().clock().now() - start;
    SimDuration::from_nanos(total.as_nanos() / iterations)
}

/// Results of one LFS small-file run.
#[derive(Clone, Copy, Debug)]
pub struct LfsSmallResult {
    /// Time for the create phase.
    pub create: SimDuration,
    /// Time for the (cached) read phase.
    pub read: SimDuration,
    /// Time for the unlink phase.
    pub unlink: SimDuration,
}

/// The LFS small-file benchmark on HiStar: create, read and unlink `files`
/// files of `size` bytes under the given durability mode.
pub fn histar_lfs_small(files: usize, size: usize, mode: SyncMode) -> LfsSmallResult {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/lfs", None).expect("mkdir /lfs");
    if mode == SyncMode::PerFile {
        env.machine_mut()
            .store_mut()
            .set_sync_policy(SyncPolicy::PerOperation);
    }
    let payload = vec![0x42u8; size];

    let start = env.machine().clock().now();
    for i in 0..files {
        let path = format!("/lfs/f{i}");
        env.write_file_as(init, &path, &payload, None)
            .expect("create");
        if mode == SyncMode::PerFile {
            env.fsync_path(init, &path).expect("fsync");
        }
    }
    if mode == SyncMode::Group {
        env.sync_all();
    }
    let create = env.machine().clock().now() - start;

    let start = env.machine().clock().now();
    for i in 0..files {
        let data = env
            .read_file_as(init, &format!("/lfs/f{i}"))
            .expect("read back");
        assert_eq!(data.len(), size);
    }
    let read = env.machine().clock().now() - start;

    let start = env.machine().clock().now();
    for i in 0..files {
        let path = format!("/lfs/f{i}");
        env.unlink(init, &path).expect("unlink");
        if mode == SyncMode::PerFile {
            env.fsync_path(init, &path).expect("fsync dir");
        }
    }
    if mode == SyncMode::Group {
        env.sync_all();
    }
    let unlink = env.machine().clock().now() - start;

    LfsSmallResult {
        create,
        read,
        unlink,
    }
}

/// Uncached small-file reads, measured at the single-level-store layer
/// (where the disk model and its read look-ahead live): `files` objects of
/// `size` bytes are written, checkpointed, evicted and read back.
pub fn histar_lfs_small_uncached_read(files: usize, size: usize, lookahead: bool) -> SimDuration {
    let disk = if lookahead {
        DiskConfig::default()
    } else {
        DiskConfig::no_lookahead()
    };
    let config = StoreConfig {
        disk,
        ..StoreConfig::default()
    };
    let mut store = SingleLevelStore::format(config, SimClock::new());
    let mut rng = SimRng::new(11);
    for i in 0..files as u64 {
        store.put(i, rng.bytes(size));
    }
    store.checkpoint();
    store.evict_clean();
    // Read in LFS's directory order, which is *near* but not identical to
    // on-disk order (here: all even-numbered files, then all odd ones).
    // With the drive's look-ahead enabled the skipped neighbours are already
    // in the track cache; without it, every skip costs a seek + rotation.
    let order: Vec<u64> = (0..files as u64)
        .step_by(2)
        .chain((1..files as u64).step_by(2))
        .collect();
    let start = store.disk().clock().now();
    for i in order {
        let data = store.get(i).expect("object read back");
        assert_eq!(data.len(), size);
    }
    store.disk().clock().now() - start
}

/// Results of one LFS large-file run.
#[derive(Clone, Copy, Debug)]
pub struct LfsLargeResult {
    /// Sequential write of the whole file (one fsync at the end).
    pub sequential_write: SimDuration,
    /// Random synchronous writes.
    pub random_sync_write: SimDuration,
    /// Uncached sequential read.
    pub uncached_read: SimDuration,
}

/// The LFS large-file benchmark on HiStar.
///
/// The sequential write goes through the Unix library; the synchronous
/// random writes and the uncached read are measured at the store layer,
/// where HiStar flushes modified segment pages in place.
pub fn histar_lfs_large(file_size: u64, chunk: u64) -> LfsLargeResult {
    // Sequential write through the Unix library, group-synced at the end.
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let start = env.machine().clock().now();
    let fd = env
        .open(init, "/big", OpenFlags::write_create())
        .expect("create big file");
    let buf = vec![0x5au8; chunk as usize];
    let mut off = 0;
    while off < file_size {
        env.write(init, fd, &buf).expect("sequential write");
        off += chunk;
    }
    env.close(init, fd).expect("close");
    env.sync_all();
    let sequential_write = env.machine().clock().now() - start;

    // Random synchronous writes: in-place page flushes at the store layer.
    let mut store = SingleLevelStore::format(StoreConfig::default(), SimClock::new());
    let mut rng = SimRng::new(3);
    store.put(1, vec![0u8; file_size as usize]);
    store.checkpoint();
    let pages_per_chunk = chunk / 4096;
    let writes = file_size / chunk;
    let start = store.disk().clock().now();
    for _ in 0..writes {
        let page = rng.next_below(file_size / 4096 - pages_per_chunk);
        let pages: Vec<u64> = (page..page + pages_per_chunk).collect();
        store
            .sync_pages_in_place(1, 0, &pages)
            .expect("in-place page flush");
    }
    let random_sync_write = store.disk().clock().now() - start;

    // Uncached sequential read of the whole object.
    store.evict_clean();
    let start = store.disk().clock().now();
    let data = store.get(1).expect("large object read");
    assert_eq!(data.len(), file_size as usize);
    let uncached_read = store.disk().clock().now() - start;

    LfsLargeResult {
        sequential_write,
        random_sync_write,
        uncached_read,
    }
}

/// Scale factors for the `fig12` run; the default scales the paper's
/// workloads down so the binary finishes in a fraction of the paper-scale
/// time.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Params {
    /// Pipe round trips (paper: 1,000,000).
    pub ipc_rounds: u64,
    /// fork/exec and spawn iterations.
    pub proc_iterations: u64,
    /// Small files per LFS phase (paper: 10,000).
    pub small_files: usize,
    /// Small-file size in bytes (paper: 1 kB).
    pub small_size: usize,
    /// Large-file size in bytes (paper: 100 MB).
    pub large_size: u64,
    /// Large-file chunk size (paper: 8 kB).
    pub large_chunk: u64,
}

impl Default for Fig12Params {
    fn default() -> Fig12Params {
        Fig12Params {
            ipc_rounds: 5_000,
            proc_iterations: 20,
            small_files: 500,
            small_size: 1024,
            large_size: 32 * 1024 * 1024,
            large_chunk: 8 * 1024,
        }
    }
}

impl Fig12Params {
    /// A tiny parameter set for unit tests and Criterion runs.
    pub fn smoke() -> Fig12Params {
        Fig12Params {
            ipc_rounds: 200,
            proc_iterations: 3,
            small_files: 40,
            small_size: 1024,
            large_size: 4 * 1024 * 1024,
            large_chunk: 8 * 1024,
        }
    }
}

/// Runs every row of Figure 12 and assembles the table.
pub fn run(params: Fig12Params) -> Table {
    let mut table = Table::new("Figure 12: microbenchmark results (simulated time)");

    // IPC.
    let histar_rtt = histar_ipc_rtt(params.ipc_rounds);
    let linux_rtt = BaselineOs::linux().pipe_round_trip(8);
    let bsd_rtt = BaselineOs::openbsd().pipe_round_trip(8);
    table.push(
        Row::new("IPC benchmark, per RTT")
            .measure("HiStar", histar_rtt)
            .measure("Linux", linux_rtt)
            .measure("OpenBSD", bsd_rtt)
            .paper_value("HiStar", "3.11us")
            .paper_value("Linux", "4.32us")
            .paper_value("OpenBSD", "2.13us"),
    );

    // fork/exec and spawn.
    let histar_fork = histar_fork_exec(params.proc_iterations);
    let linux_fork = BaselineOs::linux().fork_exec_true();
    let bsd_fork = BaselineOs::openbsd().fork_exec_true();
    table.push(
        Row::new("Fork/exec, per iteration")
            .measure("HiStar", histar_fork)
            .measure("Linux", linux_fork)
            .measure("OpenBSD", bsd_fork)
            .paper_value("HiStar", "1.35ms")
            .paper_value("Linux", "0.18ms")
            .paper_value("OpenBSD", "0.18ms"),
    );
    table.push(
        Row::new("Spawn, per iteration")
            .measure("HiStar", histar_spawn(params.proc_iterations))
            .paper_value("HiStar", "0.47ms"),
    );

    // LFS small file phases.
    let histar_async = histar_lfs_small(params.small_files, params.small_size, SyncMode::Async);
    let histar_sync = histar_lfs_small(params.small_files, params.small_size, SyncMode::PerFile);
    let histar_group = histar_lfs_small(params.small_files, params.small_size, SyncMode::Group);
    let (linux_async, linux_sync) = baseline_lfs_small(OsFlavor::LinuxLike, params);
    let (bsd_async, _) = baseline_lfs_small(OsFlavor::OpenBsdLike, params);

    table.push(
        Row::new(&format!(
            "LFS small ({} files), create, async",
            params.small_files
        ))
        .measure("HiStar", histar_async.create)
        .measure("Linux", linux_async.create)
        .measure("OpenBSD", bsd_async.create)
        .paper_value("HiStar", "0.31s/10k")
        .paper_value("Linux", "0.316s/10k"),
    );
    table.push(
        Row::new("LFS small, create, per-file sync")
            .measure("HiStar", histar_sync.create)
            .measure("Linux", linux_sync.create)
            .paper_value("HiStar", "459s/10k")
            .paper_value("Linux", "558s/10k"),
    );
    table.push(
        Row::new("LFS small, create, group sync")
            .measure("HiStar", histar_group.create)
            .paper_value("HiStar", "2.57s/10k"),
    );
    table.push(
        Row::new("LFS small, read, cached")
            .measure("HiStar", histar_async.read)
            .measure("Linux", linux_async.read)
            .measure("OpenBSD", bsd_async.read)
            .paper_value("HiStar", "0.16s/10k")
            .paper_value("Linux", "0.068s/10k"),
    );
    table.push(
        Row::new("LFS small, read, uncached")
            .measure(
                "HiStar",
                histar_lfs_small_uncached_read(params.small_files, params.small_size, true),
            )
            .measure("Linux", {
                let mut linux = BaselineOs::linux();
                lfs_small_baseline_uncached(&mut linux, params)
            })
            .paper_value("HiStar", "6.49s/10k")
            .paper_value("Linux", "1.86s/10k"),
    );
    table.push(
        Row::new("LFS small, read, no IDE disk prefetch")
            .measure(
                "HiStar",
                histar_lfs_small_uncached_read(params.small_files, params.small_size, false),
            )
            .measure("Linux", {
                let mut linux =
                    BaselineOs::with_disk(OsFlavor::LinuxLike, DiskConfig::no_lookahead());
                lfs_small_baseline_uncached(&mut linux, params)
            })
            .paper_value("HiStar", "86.4s/10k")
            .paper_value("Linux", "86.6s/10k"),
    );
    table.push(
        Row::new("LFS small, unlink, async")
            .measure("HiStar", histar_async.unlink)
            .measure("Linux", linux_async.unlink)
            .paper_value("HiStar", "0.090s/10k")
            .paper_value("Linux", "0.244s/10k"),
    );
    table.push(
        Row::new("LFS small, unlink, per-file sync")
            .measure("HiStar", histar_sync.unlink)
            .measure("Linux", linux_sync.unlink)
            .paper_value("HiStar", "456s/10k")
            .paper_value("Linux", "173s/10k"),
    );
    table.push(
        Row::new("LFS small, unlink, group sync")
            .measure("HiStar", histar_group.unlink)
            .paper_value("HiStar", "0.38s/10k"),
    );

    // LFS large file phases.
    let histar_large = histar_lfs_large(params.large_size, params.large_chunk);
    let mut linux = BaselineOs::linux();
    let linux_seq = linux.write_large_sequential(params.large_size, params.large_chunk);
    let linux_rand =
        linux.write_large_random_sync(params.large_size / 8, params.large_chunk, params.large_size);
    let linux_read = linux.read_large_sequential(params.large_size, params.large_chunk);
    table.push(
        Row::new("LFS large, sequential write")
            .measure("HiStar", histar_large.sequential_write)
            .measure("Linux", linux_seq)
            .paper_value("HiStar", "2.14s/100MB")
            .paper_value("Linux", "3.88s/100MB"),
    );
    table.push(
        Row::new("LFS large, sync random write")
            .measure("HiStar", histar_large.random_sync_write)
            .measure("Linux", linux_rand)
            .paper_value("HiStar", "93.0s/100MB")
            .paper_value("Linux", "89.7s/100MB"),
    );
    table.push(
        Row::new("LFS large, uncached read")
            .measure("HiStar", histar_large.uncached_read)
            .measure("Linux", linux_read)
            .paper_value("HiStar", "1.96s/100MB")
            .paper_value("Linux", "1.80s/100MB"),
    );

    table
}

fn baseline_lfs_small(flavor: OsFlavor, params: Fig12Params) -> (LfsSmallResult, LfsSmallResult) {
    let run = |sync: bool| {
        let mut os = BaselineOs::with_disk(flavor, DiskConfig::default());
        let start = os.clock().now();
        for i in 0..params.small_files {
            os.create_file(&format!("/f{i}"), params.small_size);
            if sync {
                os.fsync_file(&format!("/f{i}"));
            }
        }
        let create = os.clock().now() - start;
        let start = os.clock().now();
        for i in 0..params.small_files {
            os.read_file(&format!("/f{i}"), true);
        }
        let read = os.clock().now() - start;
        let start = os.clock().now();
        for i in 0..params.small_files {
            os.unlink_file(&format!("/f{i}"));
            if sync {
                os.fsync_unlink();
            }
        }
        let unlink = os.clock().now() - start;
        LfsSmallResult {
            create,
            read,
            unlink,
        }
    };
    (run(false), run(true))
}

fn lfs_small_baseline_uncached(os: &mut BaselineOs, params: Fig12Params) -> SimDuration {
    for i in 0..params.small_files {
        os.create_file(&format!("/u{i}"), params.small_size);
        os.fsync_file(&format!("/u{i}"));
    }
    let start = os.clock().now();
    for i in 0..params.small_files {
        os.read_file(&format!("/u{i}"), false);
    }
    os.clock().now() - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_shape_matches_paper() {
        let histar = histar_ipc_rtt(500);
        let linux = BaselineOs::linux().pipe_round_trip(8);
        let bsd = BaselineOs::openbsd().pipe_round_trip(8);
        // Microsecond scale, OpenBSD fastest.
        assert!(histar.as_micros_f64() < 50.0);
        assert!(bsd < linux);
    }

    #[test]
    fn spawn_is_cheaper_than_fork_exec() {
        let fork = histar_fork_exec(3);
        let spawn = histar_spawn(3);
        assert!(
            spawn.as_nanos() * 2 < fork.as_nanos(),
            "spawn {spawn} should be well under fork/exec {fork}"
        );
    }

    #[test]
    fn sync_modes_order_correctly() {
        let async_run = histar_lfs_small(30, 1024, SyncMode::Async);
        let group = histar_lfs_small(30, 1024, SyncMode::Group);
        let per_file = histar_lfs_small(30, 1024, SyncMode::PerFile);
        assert!(per_file.create > group.create);
        assert!(per_file.create.as_nanos() > async_run.create.as_nanos() * 10);
    }

    #[test]
    fn lookahead_matters_for_uncached_reads() {
        let with = histar_lfs_small_uncached_read(100, 1024, true);
        let without = histar_lfs_small_uncached_read(100, 1024, false);
        assert!(without.as_nanos() > with.as_nanos() * 3);
    }

    #[test]
    fn large_file_random_writes_are_disk_bound() {
        let r = histar_lfs_large(8 * 1024 * 1024, 8192);
        assert!(r.random_sync_write > r.sequential_write);
        assert!(r.uncached_read > SimDuration::ZERO);
    }

    #[test]
    fn full_table_renders() {
        let table = run(Fig12Params::smoke());
        let text = table.render();
        assert!(text.contains("IPC benchmark"));
        assert!(text.contains("LFS large, uncached read"));
    }
}
