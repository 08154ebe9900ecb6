//! What one repetition of a workload measured, and the probes that
//! measure it from outside the program: timers around public calls,
//! `Kernel::metrics()` snapshots, and the flight recorder's spans.

use std::collections::BTreeMap;

use histar_obs::{MetricKind, MetricSet, Span};
use histar_unix::UnixEnv;

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// CPU seconds of set-up (boot plus fixture), outside the timed region.
    pub setup_cpu_s: f64,
    /// CPU seconds of the timed region.
    pub run_cpu_s: f64,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed unexpectedly (expected refusals succeed).
    pub failed: u64,
    /// Simulated latency of every attempted operation, in ns; a failed
    /// operation is `u64::MAX`, so it sorts above every success.
    pub latencies_ns: Vec<u64>,
    /// Simulated time of the timed region, in ns.
    pub sim_run_ns: u64,
    /// Simulated time of each crash, recovery and remount, in ns.
    pub recover_ns: Vec<u64>,
    /// The machine's simulated clock when the repetition ended.
    pub final_tick: u64,
    /// Correctness violations found by the workload's checks.
    pub violations: Vec<String>,
    /// Per-layer metrics (filled by traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Successful operations.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Everything the simulated clock decides: two repetitions with the
    /// same seed must agree on it bit for bit, traced or not.
    pub fn sim_signature(&self) -> (u64, u64, &[u64], u64, &[u64], u64) {
        (
            self.attempted,
            self.failed,
            &self.latencies_ns,
            self.sim_run_ns,
            &self.recover_ns,
            self.final_tick,
        )
    }

    /// Records an unexpected failure, logging the operation and the
    /// error's class.
    pub fn fail(&mut self, workload: &str, op: &str, error: &dyn std::fmt::Debug) {
        eprintln!("perfbench: {workload}: unexpected failure in {op}: {error:?}");
        self.failed += 1;
        self.latencies_ns.push(u64::MAX);
    }

    /// Records a correctness violation.
    pub fn violation(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.violations.push(what);
    }
}

/// The value at quantile `q` of sorted samples (nearest rank, so p99 of
/// 1,000 samples has ten beyond it).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seeded input generator (SplitMix64): the workloads draw every input
/// from it, so one seed gives one set of inputs.
#[derive(Clone, Debug)]
pub struct Inputs(u64);

impl Inputs {
    /// A generator for one workload: `salt` keeps two workloads run with
    /// the same seed from drawing the same stream.
    pub fn new(seed: u64, salt: u64) -> Inputs {
        Inputs(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Seeded content of 1 to `max` bytes.
    pub fn content(&mut self, max: usize) -> Vec<u8> {
        let len = 1 + self.below(max as u64) as usize;
        self.bytes(len)
    }

    /// `len` bytes of seeded content.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Simulated time since boot, in ns.
pub fn sim_now(env: &UnixEnv) -> u64 {
    env.machine().kernel().now().as_nanos()
}

/// Host and simulated time of each `UnixEnv` call the workload makes,
/// kept only in traced repetitions.
#[derive(Debug, Default)]
pub struct UnixProbe {
    traced: bool,
    samples: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)>,
}

impl UnixProbe {
    /// A probe that records when `traced` and only forwards otherwise.
    pub fn new(traced: bool) -> UnixProbe {
        UnixProbe {
            traced,
            samples: BTreeMap::new(),
        }
    }

    /// Calls `f`, one `UnixEnv` call named `op` (`unix.<op>.*` in the
    /// per-layer table).
    pub fn call<T>(
        &mut self,
        env: &mut UnixEnv,
        op: &'static str,
        f: impl FnOnce(&mut UnixEnv) -> T,
    ) -> T {
        if !self.traced {
            return f(env);
        }
        let sim0 = sim_now(env);
        let (out, host_s) = crate::host::cpu_timed(|| f(env));
        let host = (host_s * 1e9) as u64;
        let sim = sim_now(env) - sim0;
        let entry = self.samples.entry(op).or_default();
        entry.0.push(host);
        entry.1.push(sim);
        out
    }

    /// `unix.<op>.count`, `.host_us_p50`, `.sim_us_p50` and `.sim_us_p99`.
    pub fn export(self, layers: &mut BTreeMap<&'static str, f64>) {
        for (op, (mut host, mut sim)) in self.samples {
            host.sort_unstable();
            sim.sort_unstable();
            let name = |m: &str| -> &'static str {
                crate::report::per_layer_name(&format!("unix.{op}.{m}"))
            };
            layers.insert(name("count"), sim.len() as f64);
            layers.insert(name("host_us_p50"), quantile(&host, 0.5) as f64 / 1e3);
            layers.insert(name("sim_us_p50"), quantile(&sim, 0.5) as f64 / 1e3);
            layers.insert(name("sim_us_p99"), quantile(&sim, 0.99) as f64 / 1e3);
        }
    }
}

/// Counter deltas summed over one or more stretches of a run (a recovery
/// starts the kernel's counters afresh, so each machine lifetime is one
/// stretch).  Histogram buckets are skipped; gauges add their change.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<String, i64>);

impl Counters {
    /// Adds `after − before` for every metric `after` exports.
    pub fn add(&mut self, before: &MetricSet, after: &MetricSet) {
        for m in after.iter() {
            if m.kind == MetricKind::HistogramBucket {
                continue;
            }
            let name = m.full_name();
            let was = before.get(&name).unwrap_or(0);
            *self.0.entry(name).or_default() += m.value as i64 - was as i64;
        }
    }

    /// The summed delta of one metric (0 when never exported).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// A stretch of simulated time the spans are analysed over.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// First tick, inclusive.
    pub start: u64,
    /// Last tick, inclusive.
    pub end: u64,
}

/// Simulated self time per span category over the timed windows (a
/// span's duration minus what its child spans cover), and the duration
/// of every recovery phase.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Self time per category, in ns.
    pub by_cat: BTreeMap<&'static str, u64>,
    /// Duration per `recover` phase name, in ns.
    pub recover_phases: BTreeMap<&'static str, u64>,
    /// Window time no span covers, in ns.
    pub unattributed_ns: u64,
    /// Total window time, in ns.
    pub window_ns: u64,
}

/// Attributes `spans` (in recording order) to self time.  Simulated work
/// runs on one host thread, so spans nest: a span's parent is the
/// innermost span whose interval contains it, and of two spans with the
/// same interval the later-recorded one is the parent (a batch records
/// after its syscalls, a quantum after the calls inside it).
pub fn self_times(spans: &[Span], windows: &[Window]) -> SelfTimes {
    let inside = |s: &Span| windows.iter().any(|w| s.start >= w.start && s.end <= w.end);
    let mut order: Vec<usize> = (0..spans.len()).filter(|&i| inside(&spans[i])).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&spans[a], &spans[b]);
        sa.start
            .cmp(&sb.start)
            .then(sb.end.cmp(&sa.end))
            .then(b.cmp(&a))
    });
    let mut covered_by_children = vec![0u64; spans.len()];
    let mut top_level_ns = 0u64;
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].end >= s.end && spans[top].start <= s.start {
                break;
            }
            stack.pop();
        }
        match stack.last() {
            Some(&parent) => covered_by_children[parent] += s.duration(),
            None => top_level_ns += s.duration(),
        }
        stack.push(i);
    }
    let mut out = SelfTimes::default();
    for &i in &order {
        let s = &spans[i];
        *out.by_cat.entry(s.cat).or_default() +=
            s.duration().saturating_sub(covered_by_children[i]);
    }
    // Recovery runs between the timed windows; its phases are leaves.
    for s in spans.iter().filter(|s| s.cat == "recover") {
        *out.recover_phases.entry(s.name).or_default() += s.duration();
    }
    out.window_ns = windows.iter().map(|w| w.end - w.start).sum();
    out.unattributed_ns = out.window_ns.saturating_sub(top_level_ns);
    out
}
