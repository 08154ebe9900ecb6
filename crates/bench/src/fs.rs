//! The file-system benchmark: open/read/write/readdir operations per
//! simulated second through the Unix library's file API, single node.
//!
//! The interesting number is the hot read/write path: each iteration goes
//! descriptor segment → backing segment → descriptor seek update, so the
//! measured throughput tracks exactly the boundary crossings the VFS layer
//! spends per I/O.  The submission-batch histogram over the I/O phases is
//! emitted alongside, making the batched seek-update (data op + descriptor
//! position write in ONE batch) visible in `BENCH_fs.json`.

use crate::report::{BenchJson, Row, Table};
use histar_kernel::KernelStats;
use histar_obs::Recorder;
use histar_sim::SimDuration;
use histar_unix::fs::OpenFlags;
use histar_unix::UnixEnv;

/// Parameters of the file-system benchmark.
#[derive(Clone, Copy, Debug)]
pub struct FsBenchParams {
    /// open+close iterations.
    pub open_ops: u64,
    /// Sequential 4 KiB read iterations.
    pub read_ops: u64,
    /// Sequential 4 KiB write iterations.
    pub write_ops: u64,
    /// readdir iterations.
    pub readdir_ops: u64,
    /// Entries in the readdir target directory.
    pub dir_entries: u64,
    /// Sequential 4 KiB reads through a `/persist` descriptor.
    pub persist_read_ops: u64,
    /// Sequential 4 KiB overwrites through a `/persist` descriptor.
    pub persist_write_ops: u64,
    /// Crash → recover → remount → read-back round trips.
    pub recover_iters: u64,
    /// Small `/persist` files synced together per fsync round.
    pub persist_sync_files: u64,
    /// Rounds of rewrite-everything-then-fsync-everything.
    pub persist_sync_rounds: u64,
}

/// Bytes moved per read/write iteration.
pub const IO_SIZE: u64 = 4096;

impl FsBenchParams {
    /// Quick parameters for tests and CI smoke runs.
    pub fn smoke() -> FsBenchParams {
        FsBenchParams {
            open_ops: 200,
            read_ops: 400,
            write_ops: 400,
            readdir_ops: 100,
            dir_entries: 32,
            persist_read_ops: 400,
            persist_write_ops: 400,
            recover_iters: 3,
            persist_sync_files: 8,
            persist_sync_rounds: 10,
        }
    }

    /// The parameters the `fs_bench` binary reports.
    pub fn full() -> FsBenchParams {
        FsBenchParams {
            open_ops: 2_000,
            read_ops: 8_000,
            write_ops: 8_000,
            readdir_ops: 1_000,
            dir_entries: 64,
            persist_read_ops: 8_000,
            persist_write_ops: 8_000,
            recover_iters: 8,
            persist_sync_files: 16,
            persist_sync_rounds: 100,
        }
    }
}

/// One measured phase: iterations and the simulated time they consumed.
#[derive(Clone, Copy, Debug)]
pub struct FsPhase {
    /// Iterations completed.
    pub ops: u64,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
}

impl FsPhase {
    /// Operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Mean simulated time per operation.
    pub fn per_op(&self) -> SimDuration {
        match self.elapsed.as_nanos().checked_div(self.ops) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }
}

/// The full measurement: per-phase throughput plus the dispatch counters
/// accumulated over the read+write (hot-path) phases.
#[derive(Clone, Debug)]
pub struct FsMeasurement {
    /// open+close a pre-existing file.
    pub open_close: FsPhase,
    /// Sequential 4 KiB reads through one descriptor.
    pub read: FsPhase,
    /// Sequential 4 KiB writes through one descriptor.
    pub write: FsPhase,
    /// readdir of a populated directory.
    pub readdir: FsPhase,
    /// Sequential 4 KiB reads through a `/persist` descriptor (extent
    /// records in the single-level store, one batch per read).
    pub persist_read: FsPhase,
    /// Sequential 4 KiB overwrites through a `/persist` descriptor.
    pub persist_write: FsPhase,
    /// Crash → recover → remount → read-back round trips.
    pub recover_mount: FsPhase,
    /// fsync-heavy `/persist` workload: many files rewritten and synced
    /// together, each round group-committed into one WAL frame.
    pub persist_sync: FsPhase,
    /// Mean records per physical WAL frame over the fsync phase
    /// (Δappends / Δframes from the store's own counters).
    pub wal_mean_flush_batch: f64,
    /// Per-phase recovery tick totals over the recover_mount iterations —
    /// `(phase, total simulated ns, occurrences)` from the flight
    /// recorder's `recover` spans, sorted by total descending.
    pub recovery_phases: Vec<(&'static str, u64, u64)>,
    /// Kernel counters over the read+write phases only (batch-size
    /// histogram, handle traffic).
    pub io_dispatch: KernelStats,
}

/// Runs the benchmark on a freshly booted environment.
pub fn measure(params: FsBenchParams) -> FsMeasurement {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // Fixture: one big file for the I/O phases, one populated directory.
    env.mkdir(init, "/bench", None).expect("mkdir /bench");
    let file_size = params.read_ops.max(1) * IO_SIZE;
    env.reserve_quota(init, "/bench", 4 * file_size + 64 * 1024 * 1024)
        .expect("reserve quota");
    env.write_file_as(init, "/bench/big", &vec![0xabu8; file_size as usize], None)
        .expect("create /bench/big");
    env.mkdir(init, "/bench/dir", None)
        .expect("mkdir /bench/dir");
    for i in 0..params.dir_entries {
        env.write_file_as(init, &format!("/bench/dir/f{i}"), b"x", None)
            .expect("populate dir");
    }

    let clock_now = |env: &UnixEnv| env.machine().clock().now();

    // Phase: open+close.
    let start = clock_now(&env);
    for _ in 0..params.open_ops {
        let fd = env
            .open(init, "/bench/big", OpenFlags::read_only())
            .expect("open");
        env.close(init, fd).expect("close");
    }
    let open_close = FsPhase {
        ops: params.open_ops,
        elapsed: clock_now(&env) - start,
    };

    // Phase: sequential reads (the descriptor advances through the file;
    // every iteration re-reads descriptor state and updates the seek
    // position, like a real read(2) loop).
    let dispatch_before = env.machine().kernel().stats();
    let fd = env
        .open(init, "/bench/big", OpenFlags::read_only())
        .expect("open for reads");
    let start = clock_now(&env);
    for _ in 0..params.read_ops {
        let data = env.read(init, fd, IO_SIZE).expect("read");
        assert_eq!(data.len() as u64, IO_SIZE, "fixture sized for read count");
    }
    let read = FsPhase {
        ops: params.read_ops,
        elapsed: clock_now(&env) - start,
    };
    env.close(init, fd).expect("close read fd");

    // Phase: sequential overwrites of the same file.
    let fd = env
        .open(
            init,
            "/bench/big",
            OpenFlags {
                write: true,
                ..Default::default()
            },
        )
        .expect("open for writes");
    let buf = vec![0x5au8; IO_SIZE as usize];
    let start = clock_now(&env);
    for _ in 0..params.write_ops {
        let n = env.write(init, fd, &buf).expect("write");
        assert_eq!(n, IO_SIZE);
    }
    let write = FsPhase {
        ops: params.write_ops,
        elapsed: clock_now(&env) - start,
    };
    env.close(init, fd).expect("close write fd");
    let io_dispatch = env.machine().kernel().stats().since(&dispatch_before);

    // Phase: readdir.
    let start = clock_now(&env);
    for _ in 0..params.readdir_ops {
        let entries = env.readdir(init, "/bench/dir").expect("readdir");
        assert_eq!(entries.len() as u64, params.dir_entries);
    }
    let readdir = FsPhase {
        ops: params.readdir_ops,
        elapsed: clock_now(&env) - start,
    };

    // Fixture for the persist phases: one big file under /persist whose
    // extents live in the single-level store, not the object heap.
    let persist_size = params.persist_read_ops.max(1) * IO_SIZE;
    env.write_file_as(
        init,
        "/persist/bench_big",
        &vec![0xcdu8; persist_size as usize],
        None,
    )
    .expect("create /persist/bench_big");

    // Phase: sequential /persist reads (extent read + seek update, one
    // batch per iteration).
    let fd = env
        .open(init, "/persist/bench_big", OpenFlags::read_only())
        .expect("open persist for reads");
    let start = clock_now(&env);
    for _ in 0..params.persist_read_ops {
        let data = env.read(init, fd, IO_SIZE).expect("persist read");
        assert_eq!(data.len() as u64, IO_SIZE);
    }
    let persist_read = FsPhase {
        ops: params.persist_read_ops,
        elapsed: clock_now(&env) - start,
    };
    env.close(init, fd).expect("close persist read fd");

    // Phase: sequential /persist overwrites.
    let fd = env
        .open(
            init,
            "/persist/bench_big",
            OpenFlags {
                write: true,
                ..Default::default()
            },
        )
        .expect("open persist for writes");
    let start = clock_now(&env);
    for _ in 0..params.persist_write_ops {
        let n = env.write(init, fd, &buf).expect("persist write");
        assert_eq!(n, IO_SIZE);
    }
    let persist_write = FsPhase {
        ops: params.persist_write_ops,
        elapsed: clock_now(&env) - start,
    };
    env.close(init, fd).expect("close persist write fd");

    // Phase: crash → recover → remount → read one fsynced file back.
    // This prices the full recovery path: superblock + checkpoint
    // metadata decode, write-ahead-log replay, object-table restore and
    // the /persist reattach.
    env.write_file_as(init, "/persist/marker", b"recover me", None)
        .expect("create marker");
    env.fsync_path(init, "/persist/marker")
        .expect("fsync marker");
    let recorder = Recorder::with_capacity(1 << 16);
    let start = clock_now(&env);
    let mut env = env;
    for _ in 0..params.recover_iters {
        let machine = env
            .into_machine()
            .crash_and_recover_traced(recorder.clone())
            .expect("crash recovery");
        env = histar_unix::UnixEnv::on_machine(machine);
        // The shared ring is for *recovery* phases: detach it before the
        // read-back's dispatch traffic can evict them.
        env.kernel_mut().disable_flight_recorder();
        let init = env.init_pid();
        let back = env
            .read_file_as(init, "/persist/marker")
            .expect("marker survives");
        assert_eq!(back, b"recover me");
    }
    let recover_mount = FsPhase {
        ops: params.recover_iters,
        elapsed: clock_now(&env) - start,
    };
    let recovery_phases = recorder.phase_totals("recover");

    // Phase: fsync-heavy /persist workload.  Every round rewrites all the
    // small files and syncs them with ONE `fsync_paths` call: the library
    // resolves each file to its record keys, issues a single persist_sync,
    // and the store group-commits the whole round into one multi-record
    // WAL frame (§5's group sync) — the per-frame seek is amortised over
    // every file in the round, which the mean-flush-batch counter makes
    // visible.
    let init = env.init_pid();
    let sync_paths: Vec<String> = (0..params.persist_sync_files)
        .map(|i| format!("/persist/sync{i}"))
        .collect();
    for path in &sync_paths {
        env.write_file_as(init, path, b"seed", None)
            .expect("create sync file");
    }
    let sync_refs: Vec<&str> = sync_paths.iter().map(String::as_str).collect();
    let wal_before = env.machine().store().wal_stats();
    let start = clock_now(&env);
    for round in 0..params.persist_sync_rounds {
        let payload = [(round & 0xff) as u8; 64];
        for path in &sync_paths {
            env.write_file_as(init, path, &payload, None)
                .expect("rewrite sync file");
        }
        env.fsync_paths(init, &sync_refs).expect("fsync round");
    }
    let persist_sync = FsPhase {
        ops: params.persist_sync_files * params.persist_sync_rounds,
        elapsed: clock_now(&env) - start,
    };
    let wal_after = env.machine().store().wal_stats();
    let frames = wal_after.frames - wal_before.frames;
    let wal_mean_flush_batch = if frames == 0 {
        0.0
    } else {
        (wal_after.appends - wal_before.appends) as f64 / frames as f64
    };

    FsMeasurement {
        open_close,
        read,
        write,
        readdir,
        persist_read,
        persist_write,
        recover_mount,
        persist_sync,
        wal_mean_flush_batch,
        recovery_phases,
        io_dispatch,
    }
}

/// Runs a flight-recorder-enabled mini I/O pass — segment and `/persist`
/// reads and writes, an fsync, and one traced crash/recover round trip —
/// and returns the chrome-trace JSON dump: the `TRACE_fs.json` artifact
/// CI uploads so the batched I/O hot path and the recovery phases can be
/// inspected in a trace viewer.
pub fn chrome_trace() -> String {
    let mut env = UnixEnv::boot();
    let recorder = env.kernel_mut().enable_flight_recorder(1 << 16);
    let init = env.init_pid();
    env.mkdir(init, "/bench", None).expect("mkdir /bench");
    env.reserve_quota(init, "/bench", 64 * 1024 * 1024)
        .expect("reserve quota");
    env.write_file_as(
        init,
        "/bench/traced",
        &vec![0xabu8; (64 * IO_SIZE) as usize],
        None,
    )
    .expect("create /bench/traced");
    let fd = env
        .open(init, "/bench/traced", OpenFlags::read_only())
        .expect("open traced file");
    for _ in 0..64 {
        env.read(init, fd, IO_SIZE).expect("traced read");
    }
    env.close(init, fd).expect("close traced fd");
    env.write_file_as(init, "/persist/traced", b"traced bytes", None)
        .expect("create /persist/traced");
    env.fsync_path(init, "/persist/traced").expect("fsync");
    // One traced recovery so the dump also shows the wal/recover phases.
    let machine = env
        .into_machine()
        .crash_and_recover_traced(recorder.clone())
        .expect("traced crash recovery");
    drop(machine);
    recorder.chrome_trace_json()
}

/// Runs the benchmark and renders the table + `BENCH_fs.json` report.
pub fn run(params: FsBenchParams) -> (Table, BenchJson) {
    let m = measure(params);

    let mut table = Table::new("File-system throughput through the VFS (simulated time)");
    table.push(Row::new("open+close, per op").measure("HiStar", m.open_close.per_op()));
    table.push(Row::new("read 4 KiB, per op").measure("HiStar", m.read.per_op()));
    table.push(Row::new("write 4 KiB, per op").measure("HiStar", m.write.per_op()));
    table.push(Row::new("readdir, per op").measure("HiStar", m.readdir.per_op()));
    table.push(Row::new("/persist read 4 KiB, per op").measure("HiStar", m.persist_read.per_op()));
    table
        .push(Row::new("/persist write 4 KiB, per op").measure("HiStar", m.persist_write.per_op()));
    table.push(
        Row::new("crash+recover+remount, per op").measure("HiStar", m.recover_mount.per_op()),
    );
    table.push(
        Row::new("/persist fsync (grouped), per op").measure("HiStar", m.persist_sync.per_op()),
    );
    table.push(Row::new("I/O-phase mean batch size").measure(
        "HiStar",
        SimDuration::from_nanos((m.io_dispatch.mean_batch_size() * 100.0) as u64),
    ));

    let mut json = BenchJson::new("fs");
    json.metric(
        "open_close.ops_per_sec",
        m.open_close.ops_per_sec(),
        m.open_close.elapsed.as_nanos(),
    );
    json.metric(
        "read.ops_per_sec",
        m.read.ops_per_sec(),
        m.read.elapsed.as_nanos(),
    );
    json.metric(
        "write.ops_per_sec",
        m.write.ops_per_sec(),
        m.write.elapsed.as_nanos(),
    );
    json.metric(
        "readdir.ops_per_sec",
        m.readdir.ops_per_sec(),
        m.readdir.elapsed.as_nanos(),
    );
    json.metric(
        "persist_read.ops_per_sec",
        m.persist_read.ops_per_sec(),
        m.persist_read.elapsed.as_nanos(),
    );
    json.metric(
        "persist_write.ops_per_sec",
        m.persist_write.ops_per_sec(),
        m.persist_write.elapsed.as_nanos(),
    );
    json.metric(
        "recover_mount.ops_per_sec",
        m.recover_mount.ops_per_sec(),
        m.recover_mount.elapsed.as_nanos(),
    );
    for (phase, total_ns, _count) in &m.recovery_phases {
        json.metric(
            &format!("recover_mount.phase.{phase}"),
            *total_ns as f64,
            *total_ns,
        );
    }
    json.metric(
        "persist_sync.ops_per_sec",
        m.persist_sync.ops_per_sec(),
        m.persist_sync.elapsed.as_nanos(),
    );
    json.metric(
        "wal.mean_flush_batch",
        m.wal_mean_flush_batch,
        m.persist_sync.elapsed.as_nanos(),
    );
    json.metric(
        "io.mean_batch_size",
        m.io_dispatch.mean_batch_size(),
        (m.read.elapsed + m.write.elapsed).as_nanos(),
    );
    json.metric(
        "io.batches",
        m.io_dispatch.batches as f64,
        (m.read.elapsed + m.write.elapsed).as_nanos(),
    );
    json.histogram(
        "io.batch_hist",
        &m.io_dispatch.batch_size_hist,
        (m.read.elapsed + m.write.elapsed).as_nanos(),
    );
    json.metric(
        "io.handle_resolutions",
        m.io_dispatch.handle_resolutions as f64,
        (m.read.elapsed + m.write.elapsed).as_nanos(),
    );
    (table, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_metrics() {
        let (table, json) = run(FsBenchParams::smoke());
        assert_eq!(table.rows.len(), 9);
        let doc = json.render();
        for metric in [
            "open_close.ops_per_sec",
            "read.ops_per_sec",
            "write.ops_per_sec",
            "readdir.ops_per_sec",
            "persist_read.ops_per_sec",
            "persist_write.ops_per_sec",
            "recover_mount.ops_per_sec",
            "recover_mount.phase.superblock",
            "recover_mount.phase.btree_rebuild",
            "recover_mount.phase.wal_replay",
            "recover_mount.phase.object_restore",
            "persist_sync.ops_per_sec",
            "wal.mean_flush_batch",
            "io.mean_batch_size",
        ] {
            assert!(doc.contains(metric), "missing {metric} in {doc}");
        }
    }

    #[test]
    fn grouped_fsync_coalesces_records_into_frames() {
        let m = measure(FsBenchParams::smoke());
        // Each round syncs 8 files' record keys through one persist_sync:
        // the WAL must be averaging well more than one record per frame.
        assert!(
            m.wal_mean_flush_batch > 2.0,
            "fsync rounds were not group-committed: mean flush batch {}",
            m.wal_mean_flush_batch
        );
    }
}
