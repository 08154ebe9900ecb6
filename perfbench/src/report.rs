//! The metric tables and the result line.  `BENCHMARK.json` lists the
//! same names; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::probe::{Counters, SelfTimes};

/// End-to-end metrics: name, unit, better.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("host_ops_per_s", "ops/norm_s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_ops_per_s", "ops/s", "higher"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
    ("success_rate", "fraction", "higher"),
    ("sim_recover_ms", "ms", "lower"),
];

/// Per-layer metrics: name, unit, better.  Layers are named after the
/// repository's modules.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // unix: vfs, segfs, persistfs, env
    ("unix.open.count", "count", "higher"),
    ("unix.open.host_us_p50", "us", "lower"),
    ("unix.open.sim_us_p50", "us", "lower"),
    ("unix.open.sim_us_p99", "us", "lower"),
    ("unix.read.count", "count", "higher"),
    ("unix.read.host_us_p50", "us", "lower"),
    ("unix.read.sim_us_p50", "us", "lower"),
    ("unix.read.sim_us_p99", "us", "lower"),
    ("unix.write.count", "count", "higher"),
    ("unix.write.host_us_p50", "us", "lower"),
    ("unix.write.sim_us_p50", "us", "lower"),
    ("unix.write.sim_us_p99", "us", "lower"),
    ("unix.fsync.count", "count", "higher"),
    ("unix.fsync.host_us_p50", "us", "lower"),
    ("unix.fsync.sim_us_p50", "us", "lower"),
    ("unix.fsync.sim_us_p99", "us", "lower"),
    ("unix.fsync_pages.count", "count", "higher"),
    ("unix.fsync_pages.host_us_p50", "us", "lower"),
    ("unix.fsync_pages.sim_us_p50", "us", "lower"),
    ("unix.fsync_pages.sim_us_p99", "us", "lower"),
    ("unix.readdir.count", "count", "higher"),
    ("unix.readdir.host_us_p50", "us", "lower"),
    ("unix.readdir.sim_us_p50", "us", "lower"),
    ("unix.readdir.sim_us_p99", "us", "lower"),
    ("unix.unlink.count", "count", "higher"),
    ("unix.unlink.host_us_p50", "us", "lower"),
    ("unix.unlink.sim_us_p50", "us", "lower"),
    ("unix.unlink.sim_us_p99", "us", "lower"),
    // store: wal, bptree, store
    ("store.wal_frames_per_op", "frames/op", "lower"),
    ("store.mean_flush_batch", "records/frame", "higher"),
    ("store.checkpoints", "count", "lower"),
    ("store.inplace_flushes", "count", "lower"),
    ("store.write_amp", "ratio", "lower"),
    ("store.sim_wal_ms", "ms", "lower"),
    ("store.checkpoint_host_ms", "ms", "lower"),
    ("store.recover_host_ms", "ms", "lower"),
    ("store.synced_bytes_lost", "bytes", "lower"),
    ("store.recover_phase.superblock_ms", "ms", "lower"),
    ("store.recover_phase.preload_ms", "ms", "lower"),
    ("store.recover_phase.btree_rebuild_ms", "ms", "lower"),
    ("store.recover_phase.wal_replay_ms", "ms", "lower"),
    ("store.recover_phase.object_restore_ms", "ms", "lower"),
    // sim.disk
    ("disk.writes_per_op", "writes/op", "lower"),
    ("disk.flushes_per_op", "flushes/op", "lower"),
    ("disk.bytes_written_per_op", "bytes/op", "lower"),
    ("disk.busy_share", "fraction", "lower"),
    ("disk.lookahead_hits", "count", "higher"),
    // kernel dispatch: dispatch, abi
    ("kernel.syscalls_per_op", "calls/op", "lower"),
    ("kernel.mean_batch", "entries/batch", "higher"),
    ("kernel.errors_per_op", "errors/op", "lower"),
    ("kernel.host_ns_per_syscall", "ns", "lower"),
    ("kernel.sim_dispatch_ms", "ms", "lower"),
    ("kernel.objects_growth", "objects", "lower"),
    // label: label/cache
    ("label.cache_hit_rate", "fraction", "higher"),
    ("label.cache_lookups_per_op", "lookups/op", "lower"),
    ("label.reissued_owner_writes", "count", "lower"),
    // kernel sched
    ("sched.quanta_per_op", "quanta/op", "lower"),
    ("sched.context_switches_per_op", "switches/op", "lower"),
    ("sched.examined_per_wake", "threads/wake", "lower"),
    ("sched.completion_wakeups", "count", "lower"),
    ("sched.parked_high_water", "threads", "lower"),
    ("sched.sim_quantum_ms", "ms", "lower"),
    // net + httpd
    ("net.packets_per_request", "frames/req", "lower"),
    ("net.netd_syscalls_per_request", "calls/req", "lower"),
    ("httpd.host_ms_per_request", "ms", "lower"),
    ("httpd.high_water", "clients", "higher"),
    ("httpd.denied", "count", "higher"),
    // obs and the whole run
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("sim.unattributed_share", "fraction", "lower"),
    ("sim.latency_samples", "count", "higher"),
    ("host.cpu_s", "s", "lower"),
    // fidelity against the paper's Figure 12 large-file rows
    ("fidelity.seq_write_vs_paper", "ratio", "lower"),
    ("fidelity.random_sync_write_vs_paper", "ratio", "lower"),
    ("fidelity.reread_vs_paper", "ratio", "lower"),
];

/// The static name of a per-layer metric built at run time.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(n, _, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics every workload derives the same way: counter
/// deltas of `Kernel::metrics()` over the timed region, span self times,
/// and host time per syscall.  `ops` is the successful operations and
/// `user_bytes` the file bytes the workload asked to write.
pub fn common_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    c: &Counters,
    spans: &SelfTimes,
    ops: u64,
    run_cpu_s: f64,
    user_bytes: u64,
) {
    let ops = ops as f64;
    let ms = |cat: &str| spans.by_cat.get(cat).copied().unwrap_or(0) as f64 / 1e6;
    let calls = c.get("dispatch.calls");
    let lookups = c.get("label_cache.hits") + c.get("label_cache.misses");
    let wakes = c.get("sched.completion_wakeups")
        + c.get("sched.alert_wakeups")
        + c.get("sched.external_wakeups");
    let values = [
        ("kernel.syscalls_per_op", ratio(calls, ops)),
        (
            "kernel.mean_batch",
            ratio(c.get("dispatch.batch_entries"), c.get("dispatch.batches")),
        ),
        ("kernel.errors_per_op", ratio(c.get("dispatch.errors"), ops)),
        ("kernel.host_ns_per_syscall", ratio(run_cpu_s * 1e9, calls)),
        ("kernel.sim_dispatch_ms", ms("dispatch")),
        ("kernel.objects_growth", c.get("kernel.objects")),
        (
            "label.cache_hit_rate",
            ratio(c.get("label_cache.hits"), lookups),
        ),
        ("label.cache_lookups_per_op", ratio(lookups, ops)),
        ("disk.writes_per_op", ratio(c.get("disk.writes"), ops)),
        ("disk.flushes_per_op", ratio(c.get("disk.flushes"), ops)),
        (
            "disk.bytes_written_per_op",
            ratio(c.get("disk.bytes_written"), ops),
        ),
        (
            "disk.busy_share",
            ratio(c.get("disk.busy_ns"), spans.window_ns as f64),
        ),
        ("disk.lookahead_hits", c.get("disk.lookahead_hits")),
        ("store.wal_frames_per_op", ratio(c.get("wal.frames"), ops)),
        (
            "store.mean_flush_batch",
            ratio(c.get("wal.appends"), c.get("wal.frames")),
        ),
        ("store.checkpoints", c.get("store.checkpoints")),
        ("store.inplace_flushes", c.get("store.inplace_flushes")),
        (
            "store.write_amp",
            ratio(c.get("disk.bytes_written"), user_bytes as f64),
        ),
        ("store.sim_wal_ms", ms("wal")),
        ("sched.quanta_per_op", ratio(c.get("sched.quanta"), ops)),
        (
            "sched.context_switches_per_op",
            ratio(c.get("sched.context_switches"), ops),
        ),
        (
            "sched.examined_per_wake",
            ratio(c.get("sched.wake_examined"), wakes),
        ),
        (
            "sched.completion_wakeups",
            c.get("sched.completion_wakeups"),
        ),
        ("sched.parked_high_water", c.get("sched.parked_high_water")),
        ("sched.sim_quantum_ms", ms("sched")),
        (
            "sim.unattributed_share",
            ratio(spans.unattributed_ns as f64, spans.window_ns as f64),
        ),
    ];
    for (name, value) in values {
        layers.insert(name, value);
    }
}

/// Mean simulated duration of each recovery phase over `recoveries`.
pub fn recover_phase_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    spans: &SelfTimes,
    recoveries: usize,
) {
    for (phase, ns) in &spans.recover_phases {
        let name = per_layer_name(&format!("store.recover_phase.{phase}_ms"));
        layers.insert(name, ratio(*ns as f64 / 1e6, recoveries as f64));
    }
}

/// Renders a JSON number with all its digits (JSON has no NaN or
/// infinity; they never occur in a healthy run and print as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table`, in table order (a metric no layer reported is 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _, _)| n == name),
            "{name} is not in the metric table"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit, _)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
