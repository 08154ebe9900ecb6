//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <httpd_burst|persist_churn|lfs_large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload, each repetition from a fresh boot with the same
//! seeded inputs, until `--seconds` have passed (at least three times),
//! checks every repetition's outputs and that all of them agree on every
//! simulated number, and prints one JSON line: the end-to-end metrics
//! with `--trace 0`, or with `--trace 1` the per-layer metrics of one
//! more, traced, repetition at the same size.  See `README.md`.

mod host;
mod httpd_burst;
mod lfs_large;
mod persist_churn;
mod probe;
mod report;

use std::collections::BTreeMap;
use std::process::ExitCode;
// The run lasts `--seconds` of wall time.  The repository bans wall
// clocks so that host time never reaches simulated state; this one only
// decides when to stop repeating, outside any simulated machine.
#[allow(clippy::disallowed_types)]
use std::time::Instant;

use probe::{median, quantile, Rep};

/// Repetitions per run, at least: medians of three survive one outlier.
const MIN_REPS: usize = 3;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    HttpdBurst,
    PersistChurn,
    LfsLarge,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "httpd_burst" => Some(Workload::HttpdBurst),
            "persist_churn" => Some(Workload::PersistChurn),
            "lfs_large" => Some(Workload::LfsLarge),
            _ => None,
        }
    }

    /// One full-size repetition.
    fn rep(self, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::HttpdBurst => httpd_burst::rep(seed, traced, &httpd_burst::FULL),
            Workload::PersistChurn => persist_churn::rep(seed, traced, &persist_churn::FULL),
            Workload::LfsLarge => lfs_large::rep(seed, traced, &lfs_large::FULL),
        }
    }

    /// The reference loop this workload's host times are normalised by.
    fn reference(self) -> host::Reference {
        match self {
            Workload::HttpdBurst | Workload::PersistChurn => host::Reference::ordered_map(),
            Workload::LfsLarge => host::Reference::bulk_copy(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <httpd_burst|persist_churn|lfs_large> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The reference loop runs before the first repetition and after each
    // one; a repetition's host times are normalised by the mean of the
    // passes on either side of it, so they follow the machine's speed as
    // it drifts during the run.
    #[allow(clippy::disallowed_types)]
    let started = Instant::now();
    let mut reference = args.workload.reference();
    // The first pass faults in the loop's memory; it is not measured.
    reference.seconds();
    let mut before = reference.seconds();
    let mut reps: Vec<(Rep, f64)> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let rep = args.workload.rep(args.seed, false);
        let after = reference.seconds();
        let scale = reference.nominal_s() * 2.0 / (before + after);
        reps.push((rep, scale));
        before = after;
    }

    let first = &reps[0].0;
    let mut correct = true;
    for (i, (rep, _)) in reps.iter().enumerate() {
        correct &= rep.violations.is_empty();
        if rep.sim_signature() != first.sim_signature() {
            eprintln!("perfbench: check failed: repetition {i} disagrees with repetition 0 on simulated results");
            correct = false;
        }
    }
    let attempted: u64 = reps.iter().map(|(r, _)| r.attempted).sum();
    let failed: u64 = reps.iter().map(|(r, _)| r.failed).sum();
    // Host times in normalised seconds (see `host`).
    let run_s: Vec<f64> = reps.iter().map(|(r, scale)| r.run_cpu_s * scale).collect();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let table: &[(&str, &str, &str)] = if args.trace {
        let mut traced = args.workload.rep(args.seed, true);
        let scale = reference.nominal_s() * 2.0 / (before + reference.seconds());
        correct &= traced.violations.is_empty();
        if traced.sim_signature() != first.sim_signature() {
            eprintln!("perfbench: check failed: the traced repetition's simulated results differ from the untraced ones");
            correct = false;
        }
        values = std::mem::take(&mut traced.layers);
        let dropped = values.get("obs.spans_dropped").copied().unwrap_or(0.0);
        if dropped != 0.0 {
            eprintln!("perfbench: check failed: the flight recorder dropped {dropped} spans");
            correct = false;
        }
        values.insert(
            "obs.trace_overhead",
            traced.run_cpu_s * scale / median(&run_s),
        );
        values.insert("sim.latency_samples", traced.latencies_ns.len() as f64);
        values.insert("host.cpu_s", host::process_cpu_s());
        report::PER_LAYER
    } else {
        let mut sorted = first.latencies_ns.clone();
        sorted.sort_unstable();
        let ok = first.succeeded() as f64;
        let setup_s: Vec<f64> = reps
            .iter()
            .map(|(r, scale)| r.setup_cpu_s * scale)
            .collect();
        let ops_per_s: Vec<f64> = run_s.iter().map(|s| ok / s).collect();
        let recover_ms = first.recover_ns.iter().sum::<u64>() as f64
            / first.recover_ns.len().max(1) as f64
            / 1e6;
        values.insert("host_ops_per_s", median(&ops_per_s));
        values.insert("setup_s", median(&setup_s));
        values.insert("peak_rss_mb", host::peak_rss_mib());
        values.insert("sim_ops_per_s", ok / (first.sim_run_ns as f64 / 1e9));
        values.insert("sim_p50_ms", quantile(&sorted, 0.5) as f64 / 1e6);
        values.insert("sim_p99_ms", quantile(&sorted, 0.99) as f64 / 1e6);
        values.insert("success_rate", ok / first.attempted.max(1) as f64);
        values.insert("sim_recover_ms", recover_ms);
        eprintln!(
            "perfbench: {} repetitions, {} latency samples each; \
             normalised run s {run_s:.4?}; normalised set-up s {setup_s:.4?}",
            reps.len(),
            sorted.len(),
        );
        &report::END_TO_END
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, table, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{self_times, Window};
    use histar_obs::Span;

    const HTTPD: httpd_burst::Size = httpd_burst::Size {
        clients_min: 48,
        clients_spread: 4,
        users: 4,
        wrong_every: 13,
    };
    const CHURN: persist_churn::Size = persist_churn::Size {
        dirs: 3,
        initial_files: 12,
        ops: 400,
        ops_per_crash: 100,
        max_file_bytes: 9000,
        max_batch: 4,
    };
    const LFS: lfs_large::Size = lfs_large::Size {
        file_bytes: 256 << 10,
        chunk: 8 << 10,
        random_writes: 48,
    };

    /// Two untraced repetitions and one traced repetition with the same
    /// seed agree on every simulated number, pass their checks, and the
    /// traced one drops no spans.
    fn deterministic_and_trace_neutral(rep: impl Fn(u64, bool) -> Rep) {
        let a = rep(5, false);
        let b = rep(5, false);
        let traced = rep(5, true);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(traced.violations.is_empty(), "{:?}", traced.violations);
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0 && !a.recover_ns.is_empty());
        assert_eq!(a.sim_signature(), b.sim_signature());
        assert_eq!(a.sim_signature(), traced.sim_signature());
        assert_eq!(traced.layers.get("obs.spans_dropped"), Some(&0.0));
        assert!(traced
            .layers
            .get("kernel.syscalls_per_op")
            .is_some_and(|v| *v > 0.0));
        assert_ne!(
            a.sim_signature(),
            rep(6, false).sim_signature(),
            "the seed must change the inputs"
        );
    }

    #[test]
    fn httpd_burst_is_deterministic_and_trace_neutral() {
        deterministic_and_trace_neutral(|seed, traced| httpd_burst::rep(seed, traced, &HTTPD));
    }

    #[test]
    fn persist_churn_is_deterministic_and_trace_neutral() {
        deterministic_and_trace_neutral(|seed, traced| persist_churn::rep(seed, traced, &CHURN));
    }

    #[test]
    fn lfs_large_is_deterministic_and_trace_neutral() {
        deterministic_and_trace_neutral(|seed, traced| lfs_large::rep(seed, traced, &LFS));
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&samples, 0.99), 990);
        assert_eq!(quantile(&samples, 0.5), 500);
    }

    #[test]
    fn self_time_subtracts_children_and_counts_uncovered_time() {
        let span = |cat, start, end| Span {
            cat,
            name: "x",
            start,
            end,
            tid: 0,
            seq: 0,
        };
        // A syscall inside a batch recorded after it, with the same
        // interval, inside a quantum; then a lone WAL append.
        let spans = [
            span("dispatch", 10, 30),
            span("dispatch", 10, 30),
            span("sched", 0, 50),
            span("wal", 60, 70),
        ];
        let t = self_times(&spans, &[Window { start: 0, end: 100 }]);
        assert_eq!(t.by_cat["sched"], 30);
        assert_eq!(t.by_cat["dispatch"], 20);
        assert_eq!(t.by_cat["wal"], 10);
        assert_eq!(t.unattributed_ns, 40);
    }

    /// `BENCHMARK.json` names every metric of the tables, with the same
    /// unit and direction.
    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit, better) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, report::END_TO_END.len() + report::PER_LAYER.len());
    }
}
