//! The observability overhead benchmark: the multiprogrammed-login
//! workload run twice with the same seed — once with all tracing off,
//! once with the syscall audit trace *and* the flight recorder on — and
//! the two throughputs compared.
//!
//! Spans and counters charge no simulated time by construction (they are
//! bookkeeping around the clock, never a cost model entry), so on the
//! simulated substrate the enabled/disabled ratio is exactly 1.0; the CI
//! gate pins it within 3% so any future change that leaks tracing work
//! into the simulated cost model fails loudly.

use crate::report::{BenchJson, Row, Table};
use histar_apps::multilogin::{run_multilogin, MultiLoginParams};
use histar_sim::SimDuration;

/// Parameters of the observability benchmark.
#[derive(Clone, Copy, Debug)]
pub struct ObsBenchParams {
    /// Concurrent login processes.
    pub processes: usize,
    /// Distinct user accounts.
    pub users: usize,
    /// Scheduler seed (identical for both runs).
    pub seed: u64,
    /// Ring capacity for the audit trace and the flight recorder in the
    /// tracing-enabled run.
    pub capacity: usize,
}

impl ObsBenchParams {
    /// Quick parameters for tests and CI smoke runs.
    pub fn smoke() -> ObsBenchParams {
        ObsBenchParams {
            processes: 24,
            users: 4,
            seed: 0x0b5,
            capacity: 4096,
        }
    }

    /// The parameters the `obs_bench` binary reports.
    pub fn full() -> ObsBenchParams {
        ObsBenchParams {
            processes: 200,
            users: 16,
            seed: 0x0b5,
            capacity: 1 << 16,
        }
    }
}

/// One run of the workload (tracing on or off).
#[derive(Clone, Debug)]
pub struct ObsRun {
    /// Syscalls through the dispatch boundary.
    pub syscalls: u64,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
    /// Spans the flight recorder captured (0 when disabled).
    pub spans_recorded: u64,
    /// Spans the bounded ring evicted (0 when disabled).
    pub spans_dropped: u64,
    /// Audit-trace records silently evicted (0 when tracing is off).
    pub trace_dropped: u64,
    /// Chrome-trace JSON dump of the recorder's ring (tracing-enabled run
    /// only).
    pub chrome_trace: Option<String>,
    /// Entries in the kernel-wide metrics registry snapshot.
    pub registry_len: u64,
}

impl ObsRun {
    /// Dispatched syscalls per simulated second.
    pub fn syscalls_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.syscalls as f64 / secs
        }
    }
}

/// Both runs side by side.
#[derive(Clone, Debug)]
pub struct ObsComparison {
    /// The tracing-off run.
    pub disabled: ObsRun,
    /// The tracing-on run (audit trace + flight recorder).
    pub enabled: ObsRun,
}

impl ObsComparison {
    /// Enabled-over-disabled throughput ratio (1.0 = tracing is free).
    pub fn ratio(&self) -> f64 {
        let base = self.disabled.syscalls_per_sec();
        if base == 0.0 {
            0.0
        } else {
            self.enabled.syscalls_per_sec() / base
        }
    }
}

fn measure(params: ObsBenchParams, tracing: bool) -> ObsRun {
    let capacity = if tracing { params.capacity } else { 0 };
    let (mut world, report) = run_multilogin(MultiLoginParams {
        processes: params.processes,
        users: params.users,
        seed: params.seed,
        shards: histar_kernel::sched::DEFAULT_SHARDS,
        wrong_every: 7,
        trace_capacity: capacity,
        recorder_capacity: capacity,
    })
    .expect("multilogin scenario");
    let registry_len = world.env.kernel_mut().metrics().len() as u64;
    let kernel = world.env.machine().kernel();
    let recorder = kernel.recorder();
    ObsRun {
        syscalls: report.dispatch.total(),
        elapsed: report.elapsed,
        spans_recorded: recorder.total_recorded(),
        spans_dropped: recorder.dropped(),
        trace_dropped: kernel.syscall_trace().map_or(0, |t| t.dropped()),
        chrome_trace: tracing.then(|| recorder.chrome_trace_json()),
        registry_len,
    }
}

/// Runs both variants and renders the table plus the machine-readable
/// report gated in CI.
pub fn run(params: ObsBenchParams) -> (Table, BenchJson, ObsComparison) {
    let disabled = measure(params, false);
    let enabled = measure(params, true);
    let cmp = ObsComparison { disabled, enabled };

    let mut table = Table::new(&format!(
        "Observability overhead: {} logins, tracing off vs on",
        params.processes
    ));
    table.push(
        Row::new("tracing off: total simulated time").measure("HiStar", cmp.disabled.elapsed),
    );
    table.push(Row::new("tracing on: total simulated time").measure("HiStar", cmp.enabled.elapsed));

    let mut json = BenchJson::new("obs");
    json.metric(
        "tracing.disabled.syscalls_per_sec",
        cmp.disabled.syscalls_per_sec(),
        cmp.disabled.elapsed.as_nanos(),
    );
    json.metric(
        "tracing.enabled.syscalls_per_sec",
        cmp.enabled.syscalls_per_sec(),
        cmp.enabled.elapsed.as_nanos(),
    );
    json.metric(
        "tracing.enabled_over_disabled_ratio",
        cmp.ratio(),
        cmp.enabled.elapsed.as_nanos(),
    );
    json.metric(
        "tracing.spans_recorded",
        cmp.enabled.spans_recorded as f64,
        cmp.enabled.elapsed.as_nanos(),
    );
    json.metric(
        "tracing.spans_dropped",
        cmp.enabled.spans_dropped as f64,
        cmp.enabled.elapsed.as_nanos(),
    );
    json.metric(
        "tracing.trace_dropped",
        cmp.enabled.trace_dropped as f64,
        cmp.enabled.elapsed.as_nanos(),
    );
    json.metric(
        "registry.metrics",
        cmp.enabled.registry_len as f64,
        cmp.enabled.elapsed.as_nanos(),
    );
    (table, json, cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_is_free_on_simulated_time() {
        let (_table, _json, cmp) = run(ObsBenchParams::smoke());
        // Spans and counters never touch the cost model, so the same seed
        // yields bit-identical simulated time with tracing on.
        assert_eq!(cmp.disabled.elapsed, cmp.enabled.elapsed);
        assert_eq!(cmp.disabled.syscalls, cmp.enabled.syscalls);
        assert!((cmp.ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn enabled_run_captures_spans_and_registry() {
        let (_table, json, cmp) = run(ObsBenchParams::smoke());
        assert_eq!(cmp.disabled.spans_recorded, 0);
        assert!(cmp.enabled.spans_recorded > 0, "recorder saw dispatches");
        assert!(
            cmp.enabled.registry_len > 20,
            "registry snapshots the machine"
        );
        let trace = cmp.enabled.chrome_trace.as_deref().unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"dispatch\""));
        let j = json.render();
        assert!(j.contains("tracing.enabled_over_disabled_ratio"));
        assert!(j.contains("tracing.disabled.syscalls_per_sec"));
    }
}
